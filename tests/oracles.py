"""Second routes that only the tests use.

Each helper here decides a question by a method independent of the library's
own, so a test can compare the two.
"""

from __future__ import annotations

from fivesplit.graph_core import MultiGraph, contract_edge, delete_edge, find_isomorphism
from fivesplit.minors import _simplified, canonical_form
from fivesplit.splitting import EnhancedGraph


def _has_minor_recursive(host: MultiGraph, pattern: MultiGraph, _seen=None) -> bool:
    """Independent route by deletion/contraction recursion (simple patterns only)."""
    if _seen is None:
        _seen = set()
    h = _simplified(host)
    if h.m < pattern.m or h.n < pattern.n:
        return False
    if h.m == pattern.m:
        return h.n == pattern.n and find_isomorphism(h, pattern) is not None
    key = canonical_form(EnhancedGraph(h))
    if key in _seen:
        return False
    for e in sorted(h.edges):
        if _has_minor_recursive(delete_edge(h, e), pattern, _seen):
            return True
        if _has_minor_recursive(contract_edge(h, e), pattern, _seen):
            return True
    _seen.add(key)
    return False
