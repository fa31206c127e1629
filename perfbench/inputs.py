"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and the pass number,
so the same seed always yields byte-identical graph files and request lists.
The program under test only ever sees the files written by ``write_inputs``.

Graph sizes are not drawn at random: each workload walks a fixed schedule of
(vertex count, edge count) pairs, and the seed only picks the structure.  The
amount of work per pass therefore depends little on the seed, which keeps
runs with different seeds comparable.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# One pass of a workload makes one graph per (vertex count, edge count) pair.
VERDICT_SIZES = [(n, m) for m in range(6, 14) for n in range(4, 9) if m >= n - 1]
DODGSON_SIZES = [(n, m) for m in range(6, 11) for n in range(3, 7)]

CATALOG_ARGV = [
    "verify-catalog",
    "--golden",
    "data/catalog_max11.txt",
    "--max-edges",
    "11",
]


def _rng(seed: int, pass_no: int, graph_no: int) -> random.Random:
    # A string seed hashes deterministically (unlike hash() of a str).
    return random.Random(f"perfbench:{seed}:{pass_no}:{graph_no}")


def random_multigraph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected multigraph on n vertices with m edges, loops and parallels allowed.

    A random spanning tree first, then the remaining edges: about one in
    twenty is a loop, one in ten doubles an existing edge, and the rest join
    two vertices not yet adjacent (or double an edge once none are left).
    Edges are returned in a shuffled order, which fixes their ids (1-based
    position).
    """
    if m < n - 1:
        raise ValueError("too few edges for a connected graph")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]
    while len(edges) < m:
        r = rng.random()
        if r < 0.05:
            v = rng.randrange(n)
            edges.append((v, v))
        elif r < 0.15:
            edges.append(rng.choice(edges))
        else:
            present = {frozenset(e) for e in edges}
            fresh = [p for p in itertools.combinations(range(n), 2) if frozenset(p) not in present]
            edges.append(rng.choice(fresh) if fresh else rng.choice(edges))
    rng.shuffle(edges)
    return [(min(u, v), max(u, v)) for u, v in edges]


def graph_text(n: int, edges: list[tuple[int, int]], c=(), d=()) -> str:
    lines = [f"{n} {len(edges)}"]
    lines += [f"{i} {u} {v}" for i, (u, v) in enumerate(edges, start=1)]
    if c:
        lines.append("c: " + " ".join(map(str, sorted(c))))
    if d:
        lines.append("d: " + " ".join(map(str, sorted(d))))
    return "\n".join(lines) + "\n"


def verdict_batch(seed: int, pass_no: int) -> tuple[dict[str, str], list[list[str]]]:
    """Files and argv lists for one pass of the ``verdicts`` workload.

    Five requests per graph: whole-graph split-check, split-check of one
    configuration under random protections, width --bound 3, width, and
    minor-check --f0.  The protected configuration check asks for JSON so
    that its witness can be re-verified.
    """
    files: dict[str, str] = {}
    requests: list[list[str]] = []
    for k, (n, m) in enumerate(VERDICT_SIZES):
        gi = pass_no * len(VERDICT_SIZES) + k
        rng = _rng(seed, pass_no, k)
        edges = random_multigraph(rng, n, m)
        ids = list(range(1, m + 1))
        config = sorted(rng.sample(ids, 5))
        c = {e for e in ids if rng.random() < 0.2}
        d = {e for e in ids if rng.random() < 0.2}
        plain, prot = f"v{gi:04d}.txt", f"v{gi:04d}p.txt"
        files[plain] = graph_text(n, edges)
        files[prot] = graph_text(n, edges, c, d)
        edges_arg = ",".join(map(str, config))
        requests += [
            ["split-check", plain],
            ["split-check", prot, "--edges", edges_arg, "--format", "json"],
            ["width", plain, "--bound", "3"],
            ["width", plain],
            ["minor-check", plain, "--f0"],
        ]
    return files, requests


def _random_spec(rng: random.Random, ids: list[int], size: int, with_k: bool) -> list[str]:
    i_set = rng.sample(ids, size)
    j_set = rng.sample(ids, size)
    args = ["--i", ",".join(map(str, sorted(i_set))), "--j", ",".join(map(str, sorted(j_set)))]
    if with_k:
        rest = sorted(set(ids) - set(i_set) - set(j_set))
        if rest:
            args += ["--k", ",".join(map(str, sorted(rng.sample(rest, 1))))]
    return args


def dodgson_batch(seed: int, pass_no: int) -> tuple[dict[str, str], list[list[str]]]:
    """Files and argv lists for one pass of the ``dodgson`` workload.

    Six requests per graph: psi, three Dodgson polynomials (|I| = |J| = 1
    without K, |I| = |J| = 1 with K, |I| = |J| = 2 with K), the 5-invariant of
    a random ordered configuration, and the probabilistic split screen of that
    configuration.  All ask for JSON output.
    """
    files: dict[str, str] = {}
    requests: list[list[str]] = []
    json_fmt = ["--format", "json"]
    for k, (n, m) in enumerate(DODGSON_SIZES):
        gi = pass_no * len(DODGSON_SIZES) + k
        rng = _rng(seed, pass_no, k)
        edges = random_multigraph(rng, n, m)
        ids = list(range(1, m + 1))
        name = f"d{gi:04d}.txt"
        files[name] = graph_text(n, edges)
        config = rng.sample(ids, 5)
        edges_arg = ",".join(map(str, config))
        requests += [
            ["psi", name, *json_fmt],
            ["dodgson", name, *_random_spec(rng, ids, 1, False), *json_fmt],
            ["dodgson", name, *_random_spec(rng, ids, 1, True), *json_fmt],
            ["dodgson", name, *_random_spec(rng, ids, 2, True), *json_fmt],
            ["five-invariant", name, "--edges", edges_arg, *json_fmt],
            [
                "split-check", name, "--edges", edges_arg, "--probabilistic",
                "--seed", str(rng.randrange(1 << 31)), *json_fmt,
            ],
        ]
    return files, requests


def catalog_batch(seed: int, pass_no: int) -> tuple[dict[str, str], list[list[str]]]:
    """The ``catalog`` workload: one fixed command; the seed is ignored."""
    del seed, pass_no
    return {}, [list(CATALOG_ARGV)]


BATCHES = {
    "catalog": catalog_batch,
    "verdicts": verdict_batch,
    "dodgson": dodgson_batch,
}


def write_inputs(files: dict[str, str], directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def thirty_specs(config: list[int]) -> list[tuple[frozenset, frozenset, frozenset]]:
    """The 30 Dodgson index triples of a configuration, enumerated afresh.

    Same family as the screen uses (a distinguished edge e, a pairing of the
    other four, and the two placements of e), deduplicated on {I, J}; written
    here independently so the screen's output is checked against a separate
    enumeration.
    """
    seen: set[tuple] = set()
    out = []
    s = sorted(config)
    for e in s:
        rest = [f for f in s if f != e]
        for pair in itertools.combinations(rest, 2):
            other = tuple(f for f in rest if f not in pair)
            for i_set, j_set, k_set in (
                (set(pair), set(other), {e}),
                (set(pair) | {e}, set(other) | {e}, set()),
            ):
                key = tuple(sorted((tuple(sorted(i_set)), tuple(sorted(j_set))))) + (
                    tuple(sorted(k_set)),
                )
                if key not in seen:
                    seen.add(key)
                    out.append((frozenset(key[0]), frozenset(key[1]), frozenset(key[2])))
    return out
