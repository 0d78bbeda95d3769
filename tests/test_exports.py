import dgla


def test_every_exported_name_resolves():
    # a name deleted from a module must leave __all__ with it
    missing = [name for name in dgla.__all__ if not hasattr(dgla, name)]
    assert not missing
    assert len(set(dgla.__all__)) == len(dgla.__all__)
