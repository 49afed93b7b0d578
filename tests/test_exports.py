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
