"""The package's public names."""

import prefixcode
from prefixcode import convergence, errors
from prefixcode.huffman import MergeTrace

REMOVED = ("Stabilization", "detect_stabilization", "SymbolOutOfRangeError")


def test_every_public_name_resolves_once():
    names = prefixcode.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(prefixcode, name) is not None
    assert not set(REMOVED) & set(names)


def test_removed_names_are_gone():
    for module in (prefixcode, convergence, errors):
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("states", "_replay", "insertions"):
        assert not hasattr(MergeTrace, name)
