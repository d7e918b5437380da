"""The package's public surface."""

import schrodavg


def test_every_export_resolves_once():
    names = schrodavg.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(schrodavg, n)]
    assert not missing, f"__all__ names not defined on the package: {missing}"
