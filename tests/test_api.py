import nfmertens


def test_every_exported_name_resolves():
    assert len(set(nfmertens.__all__)) == len(nfmertens.__all__)
    for name in nfmertens.__all__:
        assert getattr(nfmertens, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from nfmertens import *", namespace)
    assert set(nfmertens.__all__) <= set(namespace)
