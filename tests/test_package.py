"""The package namespace: every name it advertises exists."""

import siltcheck


def test_every_exported_name_resolves():
    assert [n for n in siltcheck.__all__ if not hasattr(siltcheck, n)] == []
