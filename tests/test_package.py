"""The package's public surface: every exported name resolves, once."""

import tomoflow


def test_every_exported_name_resolves_and_is_listed_once():
    names = tomoflow.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(tomoflow, name)]
    assert missing == []
