"""Census enumeration and the minimal non-split catalog search."""

from __future__ import annotations

import itertools
import json
import random
import warnings

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivesplit.search as search_module
from fivesplit.graph_core import MultiGraph, find_isomorphism, is_k_connected, isomorphisms
from fivesplit.cli import main
from fivesplit.minors import (
    canonical_form,
    enhanced_children,
    family_label,
    parse_catalog,
    render_catalog,
)
from fivesplit.named_graphs import (
    complete_bipartite,
    complete_graph,
    k5_minus,
    prism,
    wheel,
)
from fivesplit.search import (
    SearchConfig,
    _census_key,
    _config_minima,
    _edge_automorphisms,
    _host_entries,
    _image,
    _orbit_pairs,
    build_catalog,
    enumerate_underlying,
    find_minimal_nonsplit,
    verify_catalog,
)
from fivesplit.splitting import EnhancedGraph, _Tables, config_splits, graph_splits
from builders import protected_multigraphs, scattered_multigraphs
import oracles
from oracles import _config_minima as frozenset_config_minima
from oracles import _three_connected_census as unpruned_census
from oracles import census_key_by_scan, degree_ordered_census
from oracles import host_entries_by_frozensets


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_edges=4)
    with pytest.raises(ValueError):
        SearchConfig(max_edges=13)
    with pytest.raises(ValueError):
        SearchConfig(max_edges=9, require_three_connected=False)
    with pytest.raises(ValueError):
        SearchConfig(max_edges=8, jobs=0)
    SearchConfig(max_edges=8, require_three_connected=False)


def test_census_smallest_host_is_k4():
    got = enumerate_underlying(6)
    assert len(got) == 1
    assert find_isomorphism(got[0], complete_graph(4)) is not None
    assert enumerate_underlying(7) == []


def test_census_known_members():
    nine = enumerate_underlying(9)
    assert len(nine) == 3
    for target in [k5_minus(), prism(), complete_bipartite(3, 3)]:
        assert any(find_isomorphism(g, target) is not None for g in nine)
    eight = enumerate_underlying(8)
    assert len(eight) == 1
    assert find_isomorphism(eight[0], wheel(4)) is not None


def test_census_members_are_three_connected_simple():
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            assert g.m == m
            assert is_k_connected(g, 3)
            assert nx.node_connectivity(nx.Graph(list(g.edges.values()))) >= 3
            assert all(u != v for u, v in g.edges.values())
            seen = set()
            for u, v in g.edges.values():
                assert (u, v) not in seen
                seen.add((u, v))


def _brute_force_k6_census(m: int) -> list[MultiGraph]:
    """All 3-connected simple graphs with m edges on exactly 6 vertices,
    enumerated straight from the subsets of K6's edge set."""
    pairs = list(itertools.combinations(range(6), 2))
    reps: list[MultiGraph] = []
    for subset in itertools.combinations(pairs, m):
        used = {v for p in subset for v in p}
        if used != set(range(6)):
            continue
        g = MultiGraph(range(6), {i + 1: p for i, p in enumerate(subset)})
        if min(g.degree(v) for v in g.vertices) < 3:
            continue
        if not is_k_connected(g, 3):
            continue
        if any(find_isomorphism(g, r) is not None for r in reps):
            continue
        reps.append(g)
    return reps


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_census_matches_brute_force_on_six_vertices(m):
    expect = len(_brute_force_k6_census(m))
    got = sum(1 for g in enumerate_underlying(m) if g.n == 6)
    assert got == expect


@pytest.mark.parametrize("m", range(6, 13))
def test_degree_ordered_census_matches_the_unpruned_census(m):
    # The unpruned brute force is too slow at 12 edges; the degree-ordered one,
    # which agrees with it below 12, stands in there.
    new = enumerate_underlying(m)
    for old in [degree_ordered_census(m)] + ([unpruned_census(m)] if m < 12 else []):
        assert [g.key() for g in new] == [g.key() for g in old]
        assert [canonical_form(EnhancedGraph(g)) for g in new] == [
            canonical_form(EnhancedGraph(g)) for g in old
        ]


def test_census_tests_only_degree_ordered_labellings(monkeypatch):
    seen = []

    def recording(g, k):
        seen.append([g.degree(v) for v in sorted(g.vertices)])
        return is_k_connected(g, k)

    monkeypatch.setattr(oracles, "is_k_connected", recording)
    for m in (9, 10):
        assert len(degree_ordered_census(m)) == len(enumerate_underlying(m))
    assert seen
    assert all(degs == sorted(degs, reverse=True) for degs in seen)


def test_census_key_equals_a_plain_scan():
    # The pruned search for the key finds the scan's least edge list on every
    # class, and the key does not depend on how a class is labelled.
    rng = random.Random(21)
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            key = census_key_by_scan(g)
            assert _census_key(g) == key
            for _ in range(3):
                labels = list(range(g.n))
                rng.shuffle(labels)
                relabelled = {e: (labels[u], labels[v]) for e, (u, v) in g.edges.items()}
                h = MultiGraph(range(g.n), relabelled)
                assert _census_key(h) == key


def test_unrestricted_census_contains_lower_connectivity():
    all_graphs = enumerate_underlying(6, three_connected=False)
    assert len(all_graphs) > 1
    three = [g for g in all_graphs if is_k_connected(g, 3)]
    assert any(find_isomorphism(g, complete_graph(4)) is not None for g in three)
    assert any(not is_k_connected(g, 3) for g in all_graphs)


def test_minimal_catalog_at_six_edges():
    entries = find_minimal_nonsplit(SearchConfig(max_edges=6))
    assert len(entries) == 1
    entry = entries[0]
    assert entry.family == "K4"
    assert entry.weight == 16
    assert entry.enhanced.contract_protected == entry.witness
    assert entry.enhanced.delete_protected == entry.witness
    assert len(entry.witness) == 5


def test_minimal_catalog_at_eight_edges():
    entries = find_minimal_nonsplit(SearchConfig(max_edges=8))
    assert len(entries) == 11
    families = sorted(e.family for e in entries)
    assert families == ["K4"] + ["W4"] * 10
    weights = sorted(e.weight for e in entries if e.family == "W4")
    assert weights[:2] == [13, 13]
    assert all(w >= 14 for w in weights[2:])


def test_unrestricted_search_finds_the_same_entries():
    restricted = find_minimal_nonsplit(SearchConfig(max_edges=8))
    unrestricted = find_minimal_nonsplit(
        SearchConfig(max_edges=8, require_three_connected=False)
    )
    key = lambda e: canonical_form(e.enhanced, e.witness)
    assert sorted(map(repr, map(key, restricted))) == sorted(
        map(repr, map(key, unrestricted))
    )


def test_include_plain_rediscovers_forbidden_graphs():
    # The search skips plain candidates, and `build_catalog` takes the plain
    # members from f0() instead.  This is the evidence: tested like the
    # protected ones, the minimal plain candidates of the census are K3,3 up
    # to 9 edges, and K3,3 and K5 up to 10.
    plain = [
        (m, family_label(g))
        for m in range(6, 11)
        for g in enumerate_underlying(m)
        for c, d, _ in host_entries_by_frozensets(g, include_plain=True)
        if not (c or d)
    ]
    assert [label for m, label in plain if m <= 9] == ["K3,3"]
    assert sorted(label for _, label in plain) == ["K3,3", "K5"]
    entries = find_minimal_nonsplit(SearchConfig(max_edges=9))
    assert all(e.enhanced.contract_protected or e.enhanced.delete_protected for e in entries)
    assert len(entries) == 25


def test_parallel_search_is_deterministic():
    a = build_catalog(SearchConfig(max_edges=8, jobs=1))
    b = build_catalog(SearchConfig(max_edges=8, jobs=2))
    assert render_catalog(a) == render_catalog(b)


def test_pool_has_no_more_workers_than_pending_hosts(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(search_module.multiprocessing, "Pool", SerialPool)
    wide = find_minimal_nonsplit(SearchConfig(max_edges=8, jobs=64))
    assert sizes == [2]
    assert render_catalog(wide) == render_catalog(find_minimal_nonsplit(SearchConfig(max_edges=8)))


def test_build_catalog_injects_plain_members():
    entries = build_catalog(SearchConfig(max_edges=9))
    plain_entries = [
        e
        for e in entries
        if not e.enhanced.contract_protected and not e.enhanced.delete_protected
    ]
    assert sorted(e.family for e in plain_entries) == ["K3,3"]
    assert len(entries) == 26
    for e in entries:
        ok, _ = graph_splits(e.enhanced)
        assert not ok


def test_catalog_entries_have_dual_partners():
    entries = build_catalog(SearchConfig(max_edges=8))
    for i, e in enumerate(entries):
        assert e.dual_partner is not None
        assert entries[e.dual_partner].dual_partner == i


def test_verify_catalog_accepts_and_rejects():
    cfg = SearchConfig(max_edges=8)
    golden = build_catalog(cfg)
    report = verify_catalog(cfg, golden)
    assert report.ok
    assert not report.missing and not report.unexpected and not report.mismatched
    tampered = parse_catalog(render_catalog(golden))
    dropped = tampered[1:]
    report2 = verify_catalog(cfg, dropped)
    assert not report2.ok
    assert len(report2.unexpected) == 1
    swapped = [dropped[0]] + [tampered[0]] + dropped[1:]
    report3 = verify_catalog(cfg, swapped)
    assert report3.ok


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "progress.jsonl"
    cfg = SearchConfig(max_edges=8, checkpoint=path)
    first = find_minimal_nonsplit(cfg)
    assert path.exists()
    size = path.stat().st_size
    assert size > 0
    second = find_minimal_nonsplit(cfg)
    assert render_catalog(
        [e.with_partner(None) for e in first]
    ) == render_catalog([e.with_partner(None) for e in second])


def test_resumed_run_recomputes_no_host(tmp_path, monkeypatch):
    cfg = SearchConfig(max_edges=8, checkpoint=tmp_path / "progress.jsonl")
    first = find_minimal_nonsplit(cfg)

    def refuse(args):
        raise AssertionError("a checkpointed host was computed again")

    monkeypatch.setattr(search_module, "_host_worker", refuse)
    assert render_catalog(find_minimal_nonsplit(cfg)) == render_catalog(first)


def test_truncated_checkpoint_resumes_in_parallel(tmp_path):
    path = tmp_path / "progress.jsonl"
    fresh = find_minimal_nonsplit(SearchConfig(max_edges=9))
    find_minimal_nonsplit(SearchConfig(max_edges=9, checkpoint=path))
    header, *hosts = path.read_text(encoding="utf-8").splitlines()
    # at least two hosts are left to run, so the resumed run opens a pool
    assert len(hosts) - len(hosts) // 2 >= 2
    path.write_text("\n".join([header, *hosts[: len(hosts) // 2]]) + "\n", encoding="utf-8")
    resumed = find_minimal_nonsplit(SearchConfig(max_edges=9, jobs=2, checkpoint=path))
    assert render_catalog(resumed) == render_catalog(fresh)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + len(hosts)


def test_checkpoint_survives_damage(tmp_path, capsys):
    # A line that is not JSON, or a record whose items are not [C, D, W] lists
    # of the host's edge ids with C or D nonempty and W five distinct ids, ends
    # the load with a warning; that host and the later ones are recomputed.
    path = tmp_path / "progress.jsonl"
    argv = ["search-minimal", "--max-edges", "8", "--checkpoint", str(path)]
    assert main(argv[:3]) == 0
    fresh = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    host = json.loads(first)["host"]
    damaged = [[header, first, *rest, "{not json"]]
    for found in (
        [[1, 2]],
        [[[99], [], [1, 2, 3, 4, 5]]],
        [[[], [1], [1, 2, 3, 4, 99]]],
        [[[], [], [1, 2, 3, 4, 5]]],
        [[[1], [], [1, 2, 3, 4]]],
        [[[1], [], [1, 2, 3, 4, 4]]],
        [[[True], [], [1, 2, 3, 4, 5]]],
        {"found": []},
    ):
        damaged.append([header, json.dumps({"host": host, "found": found}), *rest])
    damaged.append([header, json.dumps({"host": [4], "found": []}), *rest])
    for lines in damaged:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 0, lines
        assert any("damaged" in str(w.message) for w in caught), lines
        assert capsys.readouterr().out == fresh, lines


def test_forged_checkpoint_records_are_damage(tmp_path, capsys):
    # Well-formed records whose protections are not the witness's forced
    # minimal ones: under the first the witness splits, and the second holds a
    # protection it does not need.  Either would put a false K4 entry in the
    # catalog, so each is damage and the host is recomputed.
    path = tmp_path / "progress.jsonl"
    argv = ["search-minimal", "--max-edges", "6", "--checkpoint", str(path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert not [w for w in caught if "checkpoint" in str(w.message)]
    assert capsys.readouterr().out == fresh
    header, k4 = path.read_text(encoding="utf-8").splitlines()
    host = json.loads(k4)["host"]
    for found in (
        [[[1], [], [1, 2, 3, 4, 5]]],
        [[[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]]],
    ):
        forged = json.dumps({"host": host, "found": found})
        path.write_text(f"{header}\n{forged}\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 0, found
        assert any("damaged" in str(w.message) for w in caught), found
        assert capsys.readouterr().out == fresh, found


def test_checkpoint_header_mismatch_is_ignored(tmp_path):
    path = tmp_path / "progress.jsonl"
    find_minimal_nonsplit(SearchConfig(max_edges=6, checkpoint=path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = find_minimal_nonsplit(SearchConfig(max_edges=8, checkpoint=path))
    assert any("checkpoint" in str(w.message).lower() for w in caught)
    assert len(entries) == 11
    # a header that still names the dropped include_plain setting is another
    # setting: the file is ignored, and the result is that of a fresh run
    fresh = render_catalog(entries)
    _, *records = path.read_text(encoding="utf-8").splitlines()
    old = {"schema": 1, "max_edges": 8, "three_connected": True, "include_plain": False}
    path.write_text("\n".join([json.dumps(old), *records]) + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = find_minimal_nonsplit(SearchConfig(max_edges=8, checkpoint=path))
    assert any("different settings" in str(w.message) for w in caught)
    assert render_catalog(again) == fresh


def _classes(g: MultiGraph, cds) -> dict[tuple, tuple]:
    """Each (c, d) to its isomorphism class, the canonical form of EnhancedGraph(g, c, d)."""
    return {cd: canonical_form(EnhancedGraph(g, *cd)) for cd in cds}


def test_host_entries_agree_with_the_engine():
    # Every distinct minimal-protection row is non-split at its first witness
    # and has the minimality verdict of the first row of its isomorphism class
    # (its automorphism orbit); it is kept exactly when it is that first row,
    # is non-split, and each one-step reduction splits outright.
    hosts = [g for m in range(6, 10) for g in enumerate_underlying(m)]
    hosts += [g for m in range(5, 8) for g in enumerate_underlying(m, three_connected=False)]
    checked = 0
    for g in hosts:
        first: dict[tuple, frozenset[int]] = {}
        for s, cd in frozenset_config_minima(g).items():
            first.setdefault(cd, s)
        classes = _classes(g, first)
        rep: dict[tuple, tuple] = {}
        for cd in first:
            rep.setdefault(classes[cd], cd)
        minimal = {}
        for (c, d), s in first.items():
            eg = EnhancedGraph(g, c, d)
            assert not config_splits(eg, s).splits
            minimal[(c, d)] = all(graph_splits(child)[0] for _, child in enhanced_children(eg))
        kept = {(c, d): w for c, d, w in _host_entries(g)}
        assert set(kept) <= set(first)
        for (c, d), s in first.items():
            first_of_class = rep[classes[(c, d)]]
            assert minimal[(c, d)] == minimal[first_of_class], (g.edges, c, d)
            assert ((c, d) in kept) == (
                first_of_class == (c, d) and minimal[(c, d)] and bool(c or d)
            ), (g.edges, c, d)
            if (c, d) in kept:
                assert kept[(c, d)] == s
            checked += 1
    assert checked > 0


# -- the mask tables against the frozenset route --------------------------------


def _assert_tables_equal_the_frozenset_route(g: MultiGraph, host: _Tables) -> None:
    """`_config_minima` in the host's numbering equals the frozenset tables that
    scan each graph on its own numbering, row for row and in combination order."""
    got = [
        (host.edges_of(s), (host.edges_of(c), host.edges_of(d)))
        for s, (c, d) in _config_minima(g, host).items()
    ]
    assert got == list(frozenset_config_minima(g).items()), g.edges


def _graph_and_children(g: MultiGraph) -> list[MultiGraph]:
    """g and every graph `enhanced_children` derives from it without protections."""
    graphs = {g.key(): g}
    for _, child in enhanced_children(EnhancedGraph(g)):
        graphs.setdefault(child.graph.key(), child.graph)
    return list(graphs.values())


def test_mask_tables_equal_the_frozenset_route_on_census_hosts():
    for m in range(6, 11):
        for g in enumerate_underlying(m):
            host = _Tables(g)
            for h in _graph_and_children(g):
                _assert_tables_equal_the_frozenset_route(h, host)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_multigraphs(min_edges=5))
def test_mask_tables_equal_the_frozenset_route_on_multigraphs(g):
    host = _Tables(g)
    for h in _graph_and_children(g):
        _assert_tables_equal_the_frozenset_route(h, host)


def test_host_entries_equal_the_frozenset_route():
    # The oracle tests every row; `_host_entries` keeps the first of each class.
    for m in range(6, 12):
        for g in enumerate_underlying(m):
            classes = _classes(g, set(frozenset_config_minima(g).values()))
            oracle = host_entries_by_frozensets(g, include_plain=False)
            kept = {classes[(c, d)] for c, d, _ in oracle}
            assert {(c, d) for c, d, _ in oracle} == {
                cd for cd, key in classes.items() if key in kept and any(cd)
            }, g.edges
            firsts = {}
            for c, d, w in oracle:
                firsts.setdefault(classes[(c, d)], (c, d, w))
            assert _host_entries(g) == list(firsts.values()), g.edges


def test_orbit_tables_map_back_to_each_graphs_own_pairs():
    shared = 0
    for m in range(6, 11):
        for g in enumerate_underlying(m):
            host = _Tables(g)
            perms = _edge_automorphisms(g, host)
            assert len(perms) == sum(1 for _ in isomorphisms(g, g))
            graphs = _graph_and_children(g)
            tables: dict = {}
            for h in graphs:
                pairs, perm = _orbit_pairs(h, host, perms, tables)
                assert perm in perms
                back = [0] * len(perm)
                for i, b in enumerate(perm):
                    back[b.bit_length() - 1] = 1 << i
                mapped = {(_image(back, c), _image(back, d)) for c, d in pairs}
                assert mapped == set(_config_minima(h, host).values()), (g.edges, h.edges)
            shared += len(graphs) - len(tables)
    assert shared > 0


def test_edge_automorphisms_refuse_parallel_edges():
    g = MultiGraph(range(4), {1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (2, 3), 5: (0, 3), 6: (0, 2)})
    with pytest.raises(RuntimeError) as caught:
        _edge_automorphisms(g, _Tables(g))
    assert "\n" not in str(caught.value) and str(caught.value)


def test_checkpoint_listing_every_orbit_member_resumes(tmp_path, monkeypatch):
    # A record in the older format lists every kept row of a host, not one per
    # orbit; resuming from it, or from a fresh checkpoint, gives the same result.
    fresh = render_catalog(find_minimal_nonsplit(SearchConfig(9)))
    old = tmp_path / "every-member.jsonl"
    header = {"schema": 1, "max_edges": 9, "three_connected": True}
    records = []
    for m in range(6, 10):
        for g in enumerate_underlying(m):
            found = host_entries_by_frozensets(g, include_plain=False)
            records.append({
                "host": search_module._host_wire(g),
                "found": [[sorted(c), sorted(d), sorted(w)] for c, d, w in found],
            })
    old.write_text("\n".join(json.dumps(r) for r in [header, *records]) + "\n", encoding="utf-8")
    new = tmp_path / "representatives.jsonl"
    find_minimal_nonsplit(SearchConfig(9, checkpoint=new))
    lines = new.read_text(encoding="utf-8").splitlines()[1:]
    assert sum(len(json.loads(line)["found"]) for line in lines) < sum(
        len(r["found"]) for r in records
    )

    def refuse(args):
        raise AssertionError("a checkpointed host was computed again")

    monkeypatch.setattr(search_module, "_host_worker", refuse)
    for path in (old, new):
        cfg = SearchConfig(9, checkpoint=path)
        assert render_catalog(find_minimal_nonsplit(cfg)) == fresh


# -- the host's edge numbering ----------------------------------------------------


def _assert_children_keep_edge_ids(eg: EnhancedGraph) -> None:
    ids = eg.graph.edge_ids()
    for name, child in enhanced_children(eg):
        assert child.graph.edge_ids() <= ids, name
        assert child.contract_protected | child.delete_protected <= ids, name


def test_children_of_census_hosts_keep_edge_ids():
    for m in range(6, 11):
        for g in enumerate_underlying(m):
            _assert_children_keep_edge_ids(EnhancedGraph(g))
            for c, d in set(frozenset_config_minima(g).values()):
                _assert_children_keep_edge_ids(EnhancedGraph(g, c, d))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(protected_multigraphs())
def test_children_of_multigraphs_keep_edge_ids(eg):
    _assert_children_keep_edge_ids(eg)


def test_an_edge_outside_the_host_numbering_is_refused():
    host = _Tables(complete_graph(4))
    foreign = MultiGraph(range(4), {1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (0, 3), 99: (0, 2)})
    small = MultiGraph(range(3), {1: (0, 1), 7: (1, 2)})
    for g in (foreign, small):
        with pytest.raises(RuntimeError) as caught:
            _config_minima(g, host)
        assert "\n" not in str(caught.value) and str(caught.value)
    with pytest.raises(RuntimeError):
        host.mask([1, 99])
