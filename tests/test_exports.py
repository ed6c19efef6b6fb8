import types

import fedsynth

# the submodules perfbench's worker and tracer read off the package
SUBMODULES = ("autodiff", "config", "data", "engine", "metrics", "runner", "synthesis")


def test_package_root_exposes_version_and_submodules_only():
    assert isinstance(fedsynth.__version__, str) and fedsynth.__version__
    for name in SUBMODULES:
        assert getattr(fedsynth, name).__name__ == f"fedsynth.{name}"
    # every other name has one home, its module: the root re-exports none
    public = {name: value for name, value in vars(fedsynth).items() if not name.startswith("_")}
    assert [name for name, value in public.items() if not isinstance(value, types.ModuleType)] == []
