"""The package's public namespace."""
from __future__ import annotations

import hvectors


def test_every_exported_name_resolves() -> None:
    namespace: dict = {}
    exec("from hvectors import *", namespace)
    assert [n for n in hvectors.__all__ if n not in namespace] == []
    assert all(hasattr(hvectors, n) for n in hvectors.__all__)
    assert len(set(hvectors.__all__)) == len(hvectors.__all__)
