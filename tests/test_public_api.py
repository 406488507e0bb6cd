"""The package's public surface: every exported name resolves."""

import gastego


def test_every_exported_name_resolves():
    missing = [name for name in gastego.__all__ if not hasattr(gastego, name)]
    assert missing == []
