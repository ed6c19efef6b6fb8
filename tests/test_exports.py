import fedsynth


def test_every_public_name_resolves():
    missing = [name for name in fedsynth.__all__ if not hasattr(fedsynth, name)]
    assert not missing, f"fedsynth.__all__ names missing attributes: {missing}"
    assert len(set(fedsynth.__all__)) == len(fedsynth.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from fedsynth import *", namespace)
    assert set(fedsynth.__all__) <= set(namespace)
