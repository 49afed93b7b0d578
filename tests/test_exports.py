import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

MODULES = [
    "hypcircle",
    "hypcircle.counting",
    "hypcircle.fracint",
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


@pytest.mark.parametrize("demo", ["demo_fractional.py", "demo_counting.py"])
def test_demo_runs(demo, capsys):
    # the demos use the public API; running them catches a deleted export
    # that a demo still imports or calls
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert "exact" in capsys.readouterr().out
