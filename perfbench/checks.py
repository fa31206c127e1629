"""Output checks, run after the timed region of a pass.

Each workload's outputs are checked by a route independent of the code that
produced them.  A request fails when its check fails, when it exits with code
2, or when it raised.  ``check`` returns one failure reason (or None) per
request, plus the number of polynomial terms the pass printed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from fivesplit.graph_core import MultiGraph, is_k_connected, parse_graph_text, spanning_trees
from fivesplit.kirchhoff import DodgsonSpec, dodgson_via_trees
from fivesplit.poly import MultiPoly, parse_poly
from fivesplit.splitting import EnhancedGraph, SplitWitness, witness_holds

from . import inputs

CATALOG_OK = "catalog verified: no differences\n"


@dataclass
class Outcome:
    """What one request returned: exit code (None if it raised) and output."""

    code: int | None
    stdout: str
    stderr: str


def _usage_failure(out: Outcome) -> str | None:
    if out.code is None:
        return "raised: " + out.stderr.strip().splitlines()[-1]
    if out.code == 2:
        return "exit code 2: " + out.stderr.strip()
    if out.code not in (0, 1):
        return f"exit code {out.code}"
    return None


def _check_catalog(files, requests, outcomes):
    out = outcomes[0]
    bad = _usage_failure(out)
    if bad is None and (out.code != 0 or out.stdout != CATALOG_OK):
        bad = f"catalog not verified: exit {out.code}, output {out.stdout[:200]!r}"
    return [bad], 0


def _witness(payload: dict) -> SplitWitness:
    return SplitWitness(
        operation=payload["operation"],
        edge=payload["edge"],
        side_a=frozenset(payload["side_a"]),
        side_b=frozenset(payload["side_b"]),
        boundary=frozenset(payload["boundary"]),
        config_in_a=payload["config_in_a"],
        config_in_b=payload["config_in_b"],
    )


def _simple_three_connected(g: MultiGraph) -> bool:
    pairs = [frozenset(uv) for uv in g.edges.values()]
    return all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs) and (
        is_k_connected(g, 3)
    )


def _check_verdicts(files, requests, outcomes):
    """Per graph: the routes to the same verdict agree, and witnesses hold.

    The bound check and the full width DP must agree on every graph.  The
    theorem tying them to splitting and to F0 minors (all configurations
    split iff no F0 minor iff width <= 3) is claimed and tested for simple
    3-connected graphs, so all four routes are compared there.  Elsewhere
    only its minor-monotone half is checked: an F0 minor rules out splitting
    and width <= 3.  Random multigraphs show why: with seed 4, the F0-free
    simple graph v0037 has a degree-2 vertex and does not split; with seed
    13, the doubled K4 v0224 has width 4 and every configuration splits.
    """
    reasons: list[str | None] = [_usage_failure(o) for o in outcomes]
    for base in range(0, len(requests), 5):
        split_all, split_cfg, bound, width, minor = outcomes[base : base + 5]
        if any(reasons[base : base + 5]):
            continue
        g, prot = parse_graph_text(files[requests[base + 1][1]])
        payload = json.loads(split_cfg.stdout)
        config = payload["edges"]
        if payload["splits"] != (split_cfg.code == 0):
            reasons[base + 1] = "split-check --edges: exit code disagrees with verdict"
        elif payload["splits"]:
            eg = EnhancedGraph(g, prot["c"], prot["d"])
            if not witness_holds(eg, config, _witness(payload["witness"])):
                reasons[base + 1] = "split-check --edges: witness does not hold"
        elif payload["witness"] is not None:
            reasons[base + 1] = "split-check --edges: witness on a non-split verdict"
        w = int(width.stdout.splitlines()[0])
        routes = {"width --bound 3": bound.code == 0, "width <= 3": w <= 3}
        f0_free = minor.code == 1
        if not f0_free or _simple_three_connected(g):
            routes["split-check"] = split_all.code == 0
            routes["no F0 minor"] = f0_free
        if len(set(routes.values())) != 1:
            why = "routes disagree: " + ", ".join(f"{k}={v}" for k, v in routes.items())
            for k in (0, 2, 3, 4):
                reasons[base + k] = why
    return reasons, 0


def _tree_psi(g: MultiGraph) -> MultiPoly:
    out = MultiPoly.zero()
    edges = g.edge_ids()
    for t in spanning_trees(g):
        out = out + MultiPoly.monomial(edges - t)
    return out


def _spec(i, j, k) -> DodgsonSpec:
    return DodgsonSpec(frozenset(i), frozenset(j), frozenset(k))


def _tree_five_invariant(g: MultiGraph, es: list[int]) -> MultiPoly:
    e1, e2, e3, e4, e5 = es

    def dd(i, j, k):
        return dodgson_via_trees(g, _spec(i, j, k))

    term1 = dd({e1, e2}, {e3, e4}, {e5}) * dd({e1, e3, e5}, {e2, e4, e5}, ())
    term2 = dd({e1, e3}, {e2, e4}, {e5}) * dd({e1, e2, e5}, {e3, e4, e5}, ())
    return term1 - term2


def _edge_arg(req: list[str], flag: str) -> list[int]:
    if flag not in req:
        return []
    return [int(t) for t in req[req.index(flag) + 1].split(",")]


def _check_dodgson(files, requests, outcomes):
    """Polynomials against the spanning-tree route; the screen against a fresh
    enumeration of the 30 specs evaluated by the tree route."""
    reasons: list[str | None] = [_usage_failure(o) for o in outcomes]
    terms = 0
    for idx, (req, out) in enumerate(zip(requests, outcomes)):
        if reasons[idx] is not None:
            continue
        g, _ = parse_graph_text(files[req[1]])
        payload = json.loads(out.stdout)
        if "polynomial" in payload:
            printed = parse_poly(payload["polynomial"])
            terms += len(printed)
        cmd = req[0]
        if cmd == "psi":
            ok = printed == _tree_psi(g)
        elif cmd == "dodgson":
            want = dodgson_via_trees(
                g, _spec(_edge_arg(req, "--i"), _edge_arg(req, "--j"), _edge_arg(req, "--k"))
            )
            ok = printed.equal_up_to_sign(want) and payload["is_zero"] == want.is_zero()
        elif cmd == "five-invariant":
            ok = printed.equal_up_to_sign(_tree_five_invariant(g, _edge_arg(req, "--edges")))
        else:
            config = _edge_arg(req, "--edges")
            want = sorted(
                (tuple(sorted(i)), tuple(sorted(j)), tuple(sorted(k)))
                for i, j, k in inputs.thirty_specs(config)
                if dodgson_via_trees(g, _spec(i, j, k)).is_zero()
            )
            got = sorted((tuple(z["i"]), tuple(z["j"]), tuple(z["k"])) for z in payload["vanishing"])
            ok = got == want and (out.code == 0) == bool(want)
        if not ok:
            reasons[idx] = f"{cmd}: output differs from the spanning-tree route"
    return reasons, terms


_CHECKS = {
    "catalog": _check_catalog,
    "verdicts": _check_verdicts,
    "dodgson": _check_dodgson,
}


def check(
    workload: str, files: dict[str, str], requests: list[list[str]], outcomes: list[Outcome]
) -> tuple[list[str | None], int]:
    return _CHECKS[workload](files, requests, outcomes)
