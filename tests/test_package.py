"""The package's export list."""

import diskflow


def test_every_exported_name_resolves():
    assert [n for n in diskflow.__all__ if not hasattr(diskflow, n)] == []
    assert len(set(diskflow.__all__)) == len(diskflow.__all__)
    for name in ("energy_audit", "run", "RunConfig"):
        assert name in diskflow.__all__
