import dpquantiles


def test_every_export_resolves_once():
    missing = [name for name in dpquantiles.__all__ if not hasattr(dpquantiles, name)]
    assert not missing, f"names in __all__ without a binding: {missing}"
    assert len(set(dpquantiles.__all__)) == len(dpquantiles.__all__)
