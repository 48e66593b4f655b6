"""The package namespace: every exported name resolves, none twice."""

import qgspectra


def test_all_names_resolve_once():
    names = qgspectra.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qgspectra, name)]
    assert missing == []
