import arctancert


def test_every_exported_name_resolves():
    # a name removed from the package must not linger in __all__
    missing = [name for name in arctancert.__all__ if not hasattr(arctancert, name)]
    assert missing == []
    assert len(set(arctancert.__all__)) == len(arctancert.__all__)
