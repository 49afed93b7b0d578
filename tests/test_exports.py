import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

MODULES = [
    "hypcircle",
    "hypcircle.counting",
    "hypcircle.fracint",
    "hypcircle.geometry",
    "hypcircle.experiments",
    "hypcircle.specfun",
    "hypcircle.spectral",
    "hypcircle.spectral.data",
    "hypcircle.spectral.terms",
    "hypcircle.spectral.transforms",
]


def test_every_exported_name_imports():
    # `import *` fails on a name left in __all__ after its definition is deleted
    for name in MODULES:
        exec(f"from {name} import *", {})


# a line each demo prints only once its last section has run
DEMO_OUTPUT = {
    "demo_fractional.py": "exact",
    "demo_counting.py": "exact",
    "demo_spectral.py": "|r(t)| at order 0.25 decays",
    "demo_variance.py": "radii near 14 are far from it",
    "demo_distribution.py": "the histogram peaks in",
}


@pytest.mark.parametrize("demo", list(DEMO_OUTPUT))
def test_demo_runs(demo, capsys):
    # the demos use the public API; running them catches a deleted export
    # that a demo still imports or calls
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert DEMO_OUTPUT[demo] in capsys.readouterr().out
