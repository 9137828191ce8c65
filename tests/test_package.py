import crossseg


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here, not
    # at a user's `from crossseg import *`
    missing = [n for n in crossseg.__all__ if not hasattr(crossseg, n)]
    assert missing == []
    assert len(set(crossseg.__all__)) == len(crossseg.__all__)
