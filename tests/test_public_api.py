import semichain as sc


def test_every_exported_name_resolves():
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
