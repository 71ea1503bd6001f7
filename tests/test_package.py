import dfsteleport


def test_every_exported_name_resolves():
    missing = [name for name in dfsteleport.__all__ if not hasattr(dfsteleport, name)]
    assert missing == []
    assert len(set(dfsteleport.__all__)) == len(dfsteleport.__all__)
