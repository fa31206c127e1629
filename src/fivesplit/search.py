"""Exhaustive search for minor-minimal non-split enhanced graphs.

The search walks a census of underlying graphs in increasing edge count.  For
each host G and each 5-configuration S that has no bad separation in G itself,
the minimal protections are forced: an edge e of S must be delete-protected
exactly when G minus e has a bad separation for S - e, and contract-protected
exactly when G contract e does.  Every minor-minimal non-split enhanced graph
therefore appears among the candidates (G, C_min(S), D_min(S)); anything with
fewer protections splits, anything with more is not minimal.  A candidate is
kept when every one-step reduction of the enhanced minor order, as listed by
``minors.enhanced_children``, yields an enhanced graph in which every
configuration splits; that is read off the reductions' own minimal-protection
tables.

The work on each host is done once per orbit of its automorphism group,
taken from `graph_core.isomorphisms(g, g)` as permutations of the edge ids.
Candidates (C, D) in one orbit are isomorphic enhanced graphs, so they agree
on minimality and the catalog keeps one of them: only the first in table
order is tested and returned.  The graphs derived from the host that an
automorphism carries onto one another share one table of (C_min, D_min)
pairs, and a query on any of them is carried into that table's coordinates.

The default census contains the simple 3-connected graphs, grown from wheels
by Tutte's wheel theorem, checked once per class by `is_k_connected`, and
sorted by the order in which a scan over edge subsets would meet them
(`_census_key`, which runs the canonical-form search `minors._least_order`
on the degree classes).  An unrestricted mode (all connected simple graphs,
small edge counts only) validates that the restriction loses nothing.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .graph_core import (
    MultiGraph,
    _IsoSide,
    _adjacency_counts,
    contract_edge,
    delete_edge,
    find_isomorphism,
    is_k_connected,
    isomorphisms,
)
from .minors import (
    CatalogEntry,
    _least_order,
    assign_dual_partners,
    canonical_form,
    canonical_graph_key,
    canonical_labeling,
    enhanced_children,
    f0,
    family_label,
    render_catalog,
)
from .named_graphs import wheel
from .splitting import (
    EnhancedGraph,
    _bad_side,  # unused here; perfbench wraps this name to time the splitting layer
    _side_mask,
    _Tables,
    config_splits,
    graph_splits,
)

_MAX_SEARCH_EDGES = 12
_MAX_UNRESTRICTED_EDGES = 8


@dataclass(frozen=True)
class SearchConfig:
    max_edges: int
    require_three_connected: bool = True
    jobs: int = 1
    checkpoint: str | Path | None = None

    def __post_init__(self) -> None:
        if not 5 <= self.max_edges <= _MAX_SEARCH_EDGES:
            raise ValueError(f"max_edges must lie in 5..{_MAX_SEARCH_EDGES}")
        if not self.require_three_connected and self.max_edges > _MAX_UNRESTRICTED_EDGES:
            raise ValueError(
                f"the unrestricted census is limited to {_MAX_UNRESTRICTED_EDGES} edges"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


# -- the census of underlying graphs ------------------------------------------


def _canonical_rep(g: MultiGraph) -> MultiGraph:
    eg, _, _ = canonical_labeling(EnhancedGraph(g))
    return eg.graph


class _IsoDedupe:
    """Bucket by the profile of a graph's `_IsoSide`, confirm with the search.

    Canonicalising every child instead costs more: 0.15-0.25 s against
    0.03-0.05 s to grow the levels to 12 edges, and at 15 edges the
    canonical search refuses 14 classes as too symmetric.  So only one
    representative per class is canonicalised.  Each graph's side of the
    search is prepared once: a representative's is kept in its bucket, so
    later comparisons with it do not rebuild it.
    """

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[_IsoSide]] = {}

    def add(self, g: MultiGraph) -> bool:
        side = _IsoSide(g)
        reps = self.buckets.setdefault(side.profile, [])
        for rep in reps:
            if find_isomorphism(side, rep) is not None:
                return False
        reps.append(side)
        return True


def _wheel_children(g: MultiGraph) -> Iterator[MultiGraph]:
    """The simple graphs with one edge more than g (vertices 0..n-1) that
    Tutte's wheel theorem grows from it.

    A child is g plus an edge between non-adjacent vertices, or g with a vertex
    v of degree d >= 4 split: a new vertex w joined to v takes r of v's
    neighbours, 2 <= r <= d - 2.  Giving w the other d - r neighbours instead
    swaps the roles of v and w, so r stops at d / 2.
    """
    nbrs = _adjacency_counts(g)
    pairs = sorted(g.edges.values())
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        if v not in nbrs[u]:
            yield MultiGraph(g.vertices, dict(enumerate(pairs + [(u, v)], 1)))
    w = g.n
    for v in sorted(g.vertices):
        for r in range(2, len(nbrs[v]) // 2 + 1):
            for moved in itertools.combinations(sorted(nbrs[v]), r):
                gone = {(min(v, x), max(v, x)) for x in moved}
                grown = [p for p in pairs if p not in gone] + [(x, w) for x in moved] + [(v, w)]
                yield MultiGraph(range(w + 1), dict(enumerate(grown, 1)))


def _census_key(g: MultiGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, the least sorted edge list over g's labellings 0..n-1 whose degrees
    do not increase with the label), the same for every graph of g's class.

    It is `minors._least_order` with the degree classes, highest degree
    first, as the cells and one colour for every edge.
    """
    by_degree: dict[int, list[int]] = {}
    for v in sorted(g.vertices):
        by_degree.setdefault(g.degree(v), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    pos = {v: i for i, v in enumerate(_least_order(g, cells, dict.fromkeys(g.edges, 0)))}
    return g.n, tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges.values()))


def _three_connected_census(m: int) -> list[MultiGraph]:
    """Simple 3-connected graphs with exactly m edges, one per isomorphism class.

    Tutte's wheel theorem ("A theory of 3-connected graphs", 1961): every such
    graph other than a wheel comes from one with one edge fewer by adding an
    edge or splitting a vertex (`_wheel_children`).  So level 6 is K4, and
    level k is the wheel with k / 2 spokes when k is even plus every child of
    level k - 1, one per class.  Each class of level m is checked by
    `is_k_connected`, relabelled canonically, and the classes come in the order
    of `_census_key`, the order in which a scan over edge subsets in
    lexicographic order would meet them.
    """
    level: list[MultiGraph] = []
    for k in range(6, m + 1):
        dedupe = _IsoDedupe()
        grown = [wheel(k // 2)] if k % 2 == 0 else []
        grown += [h for g in level for h in _wheel_children(g)]
        level = [h for h in grown if dedupe.add(h)]
    for g in level:
        if not is_k_connected(g, 3):
            raise RuntimeError(f"census graph {sorted(g.edges.values())} is not 3-connected")
    return sorted(map(_canonical_rep, level), key=_census_key)


def _connected_census(m: int) -> list[MultiGraph]:
    """Connected simple graphs (no isolated vertices) with exactly m edges.

    Grown by edge augmentation: every connected graph arises from a connected
    graph with one edge fewer by adding an edge between existing vertices or a
    pendant edge to a fresh vertex.
    """
    level = [MultiGraph([0, 1], {1: (0, 1)})]
    for _ in range(m - 1):
        dedupe = _IsoDedupe()
        nxt: list[MultiGraph] = []
        for g in level:
            verts = sorted(g.vertices)
            existing = set(g.edges.values())
            nid = max(g.edges) + 1
            grown = []
            for u, v in itertools.combinations(verts, 2):
                if (u, v) not in existing:
                    grown.append(MultiGraph(verts, {**g.edges, nid: (u, v)}))
            w = verts[-1] + 1
            for u in verts:
                grown.append(MultiGraph(verts + [w], {**g.edges, nid: (u, w)}))
            for h in grown:
                if dedupe.add(h):
                    nxt.append(h)
        level = nxt
    reps = [_canonical_rep(g) for g in level]
    reps.sort(key=lambda g: canonical_graph_key(g))
    return reps


def enumerate_underlying(m: int, three_connected: bool = True) -> list[MultiGraph]:
    """Census of candidate underlying graphs with exactly m edges."""
    if m < 1 or m > _MAX_SEARCH_EDGES:
        raise ValueError(f"edge count must lie in 1..{_MAX_SEARCH_EDGES}")
    if not three_connected and m > _MAX_UNRESTRICTED_EDGES:
        raise ValueError(f"the unrestricted census is limited to {_MAX_UNRESTRICTED_EDGES} edges")
    return _three_connected_census(m) if three_connected else _connected_census(m)


# -- per-host minimal-protection tables ----------------------------------------


def _config_minima(g: MultiGraph, host: _Tables) -> dict[int, tuple[int, int]]:
    """For each configuration without a bad separation in g itself, the forced
    minimal protections (C_min, D_min).

    Configurations come in the order of `itertools.combinations` over the
    sorted edge ids, and every set is a mask in the host's numbering: host is
    rooted at the census graph that g derives from, and is dropped with it.
    """
    _, cuts1, cuts2 = host.cuts(g)
    edges = sorted(g.edges)
    rows: dict[int, tuple[int, int]] = {}
    if len(edges) < 5:
        return rows
    per_edge = []
    for e in edges:
        _, del1, del2 = host.cuts(delete_edge(g, e))
        contracted = None if g.is_loop(e) else host.cuts(contract_edge(g, e))
        per_edge.append((host.bit[e], del1, del2, contracted))
    for combo in itertools.combinations(per_edge, 5):
        sm = 0
        for b, *_ in combo:
            sm |= b
        if _side_mask(cuts1, cuts2, sm):
            continue
        c_min = d_min = 0
        for b, del1, del2, contracted in combo:
            if _side_mask(del1, del2, sm ^ b):
                d_min |= b
            if contracted is not None:
                kept, con1, con2 = contracted
                if _side_mask(con1, con2, sm & kept):
                    c_min |= b
        rows[sm] = (c_min, d_min)
    return rows


def _fits(pairs: Iterable[tuple[int, int]], c: int, d: int) -> bool:
    """Does some configuration stay non-split under protections (c, d)?

    pairs are the distinct (C_min, D_min) of a table, and c, d the protection
    masks.
    """
    return any(not (c2 & ~c or d2 & ~d) for c2, d2 in pairs)


def _edge_automorphisms(g: MultiGraph, host: _Tables) -> list[list[int]]:
    """Aut(g) as permutations of the host's edge bits, in `isomorphisms` order.

    perm[i] is the bit that edge bit i goes to.  A vertex map carries an edge
    to the edge on its image pair, so g may have no two edges on one pair.
    """
    by_ends: dict[tuple[int, int], int] = {}
    for e, ends in g.edges.items():
        if by_ends.setdefault(ends, e) != e:
            raise RuntimeError(
                f"edges {by_ends[ends]} and {e} of the host share their endpoints"
            )
    side = _IsoSide(g)
    perms = []
    for iso in isomorphisms(side, side):
        perm = []
        for e in host.ids:
            u, v = g.edges[e]
            a, b = iso[u], iso[v]
            perm.append(host.bit[by_ends[(a, b) if a <= b else (b, a)]])
        perms.append(perm)
    return perms


def _image(perm: list[int], mask: int) -> int:
    """The edge mask that an automorphism from `_edge_automorphisms` maps mask to."""
    out = 0
    while mask:
        low = mask & -mask
        out |= perm[low.bit_length() - 1]
        mask ^= low
    return out


def _orbit_pairs(
    h: MultiGraph,
    host: _Tables,
    perms: list[list[int]],
    tables: dict[tuple[int, int], set[tuple[int, int]]],
) -> tuple[set[tuple[int, int]], list[int]]:
    """h's distinct (C_min, D_min) pairs, carried by perm, and perm.

    perm is the first automorphism of the host (from `_edge_automorphisms`)
    that takes h's edge mask to its least image.  tables holds one pair set
    per (vertex count, least image) and is filled on a miss.  A graph that a
    deletion, a contraction or a vertex deletion derives from a simple host
    is fixed, up to the names of its vertices, by its vertex count and its
    edge ids, so graphs with one key are carried onto one another by an
    automorphism that carries their edge ids, and share one table.
    """
    mask = host.mask(h.edges)
    perm = min(perms, key=lambda p: _image(p, mask))
    key = (h.n, _image(perm, mask))
    pairs = tables.get(key)
    if pairs is None:
        pairs = tables[key] = {
            (_image(perm, c), _image(perm, d)) for c, d in _config_minima(h, host).values()
        }
    return pairs, perm


def _host_entries(g: MultiGraph) -> list[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """Minor-minimal candidates (C, D, witness) with C or D nonempty on the simple
    graph g, one per automorphism orbit of (C, D): the first member in table order."""
    host = _Tables(g)
    rows = _config_minima(g, host)
    if not rows:
        return []
    by_cd: dict[tuple[int, int], int] = {}
    for s, cd in rows.items():
        by_cd.setdefault(cd, s)
    perms = _edge_automorphisms(g, host)
    # g's own pairs are a union of orbits, the same in every automorphism's coordinates
    tables = {(g.n, host.mask(g.edges)): set(by_cd)}
    placed: dict[MultiGraph, tuple[set[tuple[int, int]], list[int]]] = {}

    def fits(h: MultiGraph, c: int, d: int) -> bool:
        found = placed.get(h)
        if found is None:
            found = placed[h] = _orbit_pairs(h, host, perms, tables)
        pairs, perm = found
        return _fits(pairs, _image(perm, c), _image(perm, d))

    # A candidate is minimal when every one-step reduction splits.  Protection
    # removals are yielded first and read this host's own table, so they
    # reject most non-minimal candidates before any smaller graph is tabulated.
    # Minimality is the same across an orbit, and so is the canonical form
    # the catalog keeps, so only the first member of each orbit is tested.
    out = []
    seen: set[tuple[int, int]] = set()
    for (c, d), s in by_cd.items():
        if (c, d) in seen:
            continue
        seen.update((_image(p, c), _image(p, d)) for p in perms)
        if not (c or d):
            continue
        eg = EnhancedGraph(g, host.edges_of(c), host.edges_of(d))
        if not any(
            fits(
                child.graph,
                host.mask(child.contract_protected),
                host.mask(child.delete_protected),
            )
            for _, child in enhanced_children(eg)
        ):
            out.append((eg.contract_protected, eg.delete_protected, host.edges_of(s)))
    return out


# -- worker transport and checkpointing ----------------------------------------


def _host_wire(g: MultiGraph) -> list:
    return [g.n, [list(g.edges[e]) for e in sorted(g.edges)]]


def _host_from_wire(n: int, pairs: list) -> MultiGraph:
    return MultiGraph(range(n), {i + 1: (int(u), int(v)) for i, (u, v) in enumerate(pairs)})


def _host_worker(wire: list) -> list:
    found = _host_entries(_host_from_wire(*wire))
    return [[sorted(c), sorted(d), sorted(w)] for c, d, w in found]


def _forced(host: MultiGraph, c: frozenset[int], d: frozenset[int], w: frozenset[int]) -> bool:
    """Are c and d the forced minimal protections of w in host?  w must not
    split in EnhancedGraph(host, c, d) and must split once any one protection
    is dropped.  Minimality in the enhanced minor order is not checked again."""

    def splits(c2: frozenset[int], d2: frozenset[int]) -> bool:
        return config_splits(EnhancedGraph(host, c2, d2), w).splits

    drops = [(c - {e}, d) for e in c] + [(c, d - {e}) for e in d]
    return not splits(c, d) and all(splits(*cd) for cd in drops)


def _record_ok(rec: object) -> bool:
    """Is rec a record as `_Checkpoint.put` writes it: a wired host with at most
    twice as many vertices as edges (none is isolated) and a list of [C, D, W]
    lists of the host's edge ids, C or D nonempty and `_forced` for W?"""
    try:
        n, pairs = rec["host"]
        host = _host_from_wire(n, pairs) if n <= 2 * len(pairs) else None
        found = rec["found"]
    except (TypeError, KeyError, ValueError):
        return False

    def edge_ids(part: object) -> bool:
        return isinstance(part, list) and all(type(e) is int and e in host.edges for e in part)

    return host is not None and isinstance(found, list) and all(
        isinstance(item, list)
        and len(item) == 3
        and all(map(edge_ids, item))
        and bool(item[0] or item[1])
        and len(set(item[2])) == len(item[2]) == 5
        and _forced(host, *map(frozenset, item))
        for item in found
    )


class _Checkpoint:
    """Append-only JSONL of per-host results; a mismatched or damaged file is
    discarded with a warning rather than trusted.  A record is damaged unless
    `_record_ok` holds; loading stops at the first damaged line."""

    def __init__(self, cfg: SearchConfig):
        self.path = Path(cfg.checkpoint)
        self.header = {
            "schema": 1,
            "max_edges": cfg.max_edges,
            "three_connected": cfg.require_three_connected,
        }
        self.done: dict[str, list] = {}
        self.disabled = False
        if self.path.exists():
            self._load()
        self._rewrite()

    def _load(self) -> None:
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            warnings.warn(f"cannot read checkpoint {self.path}: {exc}")
            return
        if not lines:
            return
        try:
            head = json.loads(lines[0])
        except ValueError:
            head = None
        if head != self.header:
            warnings.warn(f"checkpoint {self.path} was written with different settings; ignoring it")
            return
        for line in lines[1:]:
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not _record_ok(rec):
                warnings.warn(f"checkpoint {self.path} has a damaged tail; later hosts recompute")
                break
            self.done[json.dumps(rec["host"])] = rec["found"]

    def _rewrite(self) -> None:
        try:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.header) + "\n")
                for host_key, found in self.done.items():
                    fh.write(json.dumps({"host": json.loads(host_key), "found": found}) + "\n")
        except OSError as exc:
            warnings.warn(f"cannot write checkpoint {self.path}: {exc}")
            self.disabled = True

    def get(self, g: MultiGraph) -> list | None:
        return self.done.get(json.dumps(_host_wire(g)))

    def put(self, g: MultiGraph, found: list) -> None:
        key = json.dumps(_host_wire(g))
        self.done[key] = found
        if self.disabled:
            return
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"host": json.loads(key), "found": found}) + "\n")
        except OSError as exc:
            warnings.warn(f"cannot append to checkpoint {self.path}: {exc}")
            self.disabled = True


# -- the search proper ----------------------------------------------------------


def find_minimal_nonsplit(cfg: SearchConfig) -> list[CatalogEntry]:
    """All minor-minimal non-split enhanced graphs with a protected edge over
    the configured census.

    Entries are canonically labelled; dual partners are left unset (the
    catalog assembly fills them in).
    """
    hosts: list[MultiGraph] = []
    lo = 6 if cfg.require_three_connected else 5
    for m in range(lo, cfg.max_edges + 1):
        hosts.extend(enumerate_underlying(m, cfg.require_three_connected))
    ck = _Checkpoint(cfg) if cfg.checkpoint is not None else None
    found_by_host: dict[tuple, list] = {}
    if ck is not None:
        found_by_host = {g.key(): f for g in hosts if (f := ck.get(g)) is not None}
    pending = [g for g in hosts if g.key() not in found_by_host]
    args = [_host_wire(g) for g in pending]
    workers = min(cfg.jobs, len(pending))
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for g, found in zip(pending, (pool.imap if pool else map)(_host_worker, args)):
            found_by_host[g.key()] = found
            if ck is not None:
                ck.put(g, found)

    entries: list[CatalogEntry] = []
    seen: set[tuple] = set()
    for g in hosts:
        found = found_by_host[g.key()]
        family = None
        for c_l, d_l, w_l in found:
            c, d, w = frozenset(c_l), frozenset(d_l), frozenset(w_l)
            eg = EnhancedGraph(g, c, d)
            canon, wit, _ = canonical_labeling(eg, w)
            key = canonical_form(canon)
            if key in seen:
                continue
            seen.add(key)
            if family is None:
                family = family_label(g)
            entries.append(CatalogEntry(canon, wit, family, eg.weight, None))
    return entries


def _entry_sort_key(entry: CatalogEntry) -> tuple:
    return (
        entry.enhanced.graph.m,
        entry.weight,
        entry.family,
        repr(canonical_form(entry.enhanced, entry.witness)),
    )


def build_catalog(cfg: SearchConfig) -> list[CatalogEntry]:
    """Search results plus the plain minor-minimal members, dual partners set.

    The search returns protected entries only.  The plain entries are the
    graphs of `f0()` that fit the edge bound (K3,3 and K5 up to 11 edges; the
    test suite checks that the plain candidates of the census are exactly
    these), each with its first non-split configuration as witness.
    """
    entries = find_minimal_nonsplit(cfg)
    for pat in f0():
        if pat.graph.m > cfg.max_edges:
            continue
        splits, witness = graph_splits(pat.graph)
        if splits:
            raise RuntimeError(f"forbidden graph {pat.name} splits")
        canon, wit, _ = canonical_labeling(EnhancedGraph(pat.graph), witness)
        entries.append(CatalogEntry(canon, wit, pat.name, pat.graph.m, None))
    entries.sort(key=_entry_sort_key)
    return assign_dual_partners(entries)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    missing: tuple[str, ...]
    unexpected: tuple[str, ...]
    mismatched: tuple[str, ...]


def verify_catalog(cfg: SearchConfig, golden: list[CatalogEntry]) -> VerifyReport:
    """Regenerate the catalog and diff it against a stored copy."""
    rebuilt = build_catalog(cfg)

    def lines(entries: list[CatalogEntry]) -> dict[tuple, str]:
        rendered = render_catalog(entries).splitlines()
        body = [ln for ln in rendered if ln and not ln.startswith("#")]
        if len(body) != len(entries):
            raise RuntimeError("rendered catalog has a line count unlike its entries")
        return {canonical_form(e.enhanced): ln for e, ln in zip(entries, body)}

    gold, new = lines(golden), lines(rebuilt)
    missing = tuple(gold[k] for k in sorted(set(gold) - set(new), key=repr))
    unexpected = tuple(new[k] for k in sorted(set(new) - set(gold), key=repr))
    mismatched = tuple(
        f"stored {gold[k]!r} != rebuilt {new[k]!r}"
        for k in sorted(set(gold) & set(new), key=repr)
        if gold[k] != new[k]
    )
    return VerifyReport(
        ok=not (missing or unexpected or mismatched),
        missing=missing,
        unexpected=unexpected,
        mismatched=mismatched,
    )
