import groverlab

ROOT_NAMES = {
    "__version__",
    "DegeneratePlaneError",
    "OrthogonalStartError",
    "SearchProblem",
    "CHECK_NAMES",
    "CheckReport",
    "SweepResult",
    "run_sweep",
    "to_csv",
    "to_json",
}


def test_root_exports_the_reproduction_names():
    for name in ROOT_NAMES:
        assert hasattr(groverlab, name), name
    assert groverlab.__version__ == "0.1.0"
