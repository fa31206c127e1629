"""Command-line surface for batch use.

Commands: psi, dodgson, five-invariant, split-check, width, minor-check,
search-minimal, verify-catalog.  Graphs are read from files in the plain text
format (``n m`` header, ``edge_id u v`` lines, optional ``c:``/``d:``
protection lines) or as a single graph6 line.

Exit codes: 0 for success and true verdicts, 1 for false verdicts (a non-split
configuration found, a width bound violated, a minor absent, a catalog diff),
2 for usage and domain errors.  Output is deterministic; ``--format json``
emits one object with ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .graph_core import MultiGraph, load_graph
from .kirchhoff import (
    DodgsonSpec,
    dodgson,
    dodgson_vanishes,
    five_invariant,
    kirchhoff_poly,
    thirty_dodgsons,  # unused here; perfbench wraps this name to time the screen's layer
    thirty_specs,
)
from .minors import f0, has_minor, parse_catalog, render_catalog
from .named_graphs import ALIASES, NAMED_GRAPHS, named_graph
from .search import SearchConfig, build_catalog, verify_catalog
from .splitting import EnhancedGraph, config_splits, graph_splits
from .width import graph_width, has_width_le

_PROBABILISTIC_BANNER = (
    "warning: probabilistic screen; zero evaluations suggest but do not prove "
    "a vanishing Dodgson polynomial, so a split verdict may be wrong"
)


class _CliError(Exception):
    pass


def _read_graph(path: str) -> tuple[MultiGraph, dict]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return load_graph(text)


def _edge_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"bad edge list {text!r}: expected comma-separated integers") from exc


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _builtin_graph(name: str) -> MultiGraph:
    choices = sorted([*NAMED_GRAPHS, *ALIASES])
    if name not in choices:
        raise _CliError(f"unknown built-in graph {name!r}; choices: {', '.join(choices)}")
    return named_graph(name)


def _cmd_psi(args) -> int:
    g, _ = _read_graph(args.graph)
    p = kirchhoff_poly(g)
    _emit(args, {"command": "psi", "polynomial": p.render()}, [p.render()])
    return 0


def _cmd_dodgson(args) -> int:
    g, _ = _read_graph(args.graph)
    spec = DodgsonSpec(
        frozenset(_edge_list(args.i)),
        frozenset(_edge_list(args.j)),
        frozenset(_edge_list(args.k)) if args.k else frozenset(),
    )
    p = dodgson(g, spec)
    payload = {
        "command": "dodgson",
        "i": sorted(spec.i_set),
        "j": sorted(spec.j_set),
        "k": sorted(spec.k_set),
        "polynomial": p.render(),
        "is_zero": p.is_zero(),
    }
    _emit(args, payload, [p.render()])
    return 0


def _cmd_five_invariant(args) -> int:
    g, _ = _read_graph(args.graph)
    edges = _edge_list(args.edges)
    p = five_invariant(g, edges)
    payload = {
        "command": "five-invariant",
        "edges": edges,
        "polynomial": p.render(),
        "is_zero": p.is_zero(),
    }
    _emit(args, payload, [p.render()])
    return 0


def _witness_payload(witness) -> dict:
    return {
        "operation": witness.operation,
        "edge": witness.edge,
        "boundary": sorted(witness.boundary),
        "side_a": sorted(witness.side_a),
        "side_b": sorted(witness.side_b),
        "config_in_a": witness.config_in_a,
        "config_in_b": witness.config_in_b,
    }


def _witness_lines(witness) -> list[str]:
    op = witness.operation if witness.edge is None else f"{witness.operation} edge {witness.edge}"
    return [
        f"witness: {op}",
        f"  boundary vertices: {sorted(witness.boundary)}",
        f"  side a (edges {sorted(witness.side_a)}) carries {witness.config_in_a} configuration edges",
        f"  side b (edges {sorted(witness.side_b)}) carries {witness.config_in_b} configuration edges",
    ]


def _probabilistic_split_check(args, g: MultiGraph, s: list[int]) -> int:
    print(_PROBABILISTIC_BANNER, file=sys.stderr)
    zero_specs = [
        {"i": sorted(spec.i_set), "j": sorted(spec.j_set), "k": sorted(spec.k_set)}
        for spec in thirty_specs(g, s)
        if dodgson_vanishes(g, spec)
    ]
    splits = bool(zero_specs)
    verdict = "splits (probabilistic)" if splits else "does not split (probabilistic)"
    payload = {
        "command": "split-check",
        "probabilistic": True,
        "seed": args.seed,
        "edges": sorted(s),
        "splits": splits,
        "vanishing": zero_specs,
    }
    lines = [verdict] + [
        f"  vanishing Dodgson: I={z['i']} J={z['j']} K={z['k']}" for z in zero_specs
    ]
    _emit(args, payload, lines)
    return 0 if splits else 1


def _cmd_split_check(args) -> int:
    g, prot = _read_graph(args.graph)
    eg = EnhancedGraph(g, prot["c"], prot["d"])
    if args.probabilistic:
        if prot["c"] or prot["d"]:
            raise _CliError("the probabilistic screen does not support protections")
        if not args.edges:
            raise _CliError("the probabilistic screen requires --edges")
        return _probabilistic_split_check(args, g, _edge_list(args.edges))
    if args.edges:
        s = _edge_list(args.edges)
        verdict = config_splits(eg, s)
        payload = {
            "command": "split-check",
            "edges": sorted(s),
            "splits": verdict.splits,
            "witness": None if verdict.witness is None else _witness_payload(verdict.witness),
        }
        lines = ["splits" if verdict.splits else "does not split"]
        if verdict.witness is not None:
            lines += _witness_lines(verdict.witness)
        _emit(args, payload, lines)
        return 0 if verdict.splits else 1
    ok, failing = graph_splits(eg)
    payload = {
        "command": "split-check",
        "splits": ok,
        "failing_configuration": None if failing is None else sorted(failing),
    }
    lines = ["splits" if ok else f"does not split: configuration {sorted(failing)}"]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_width(args) -> int:
    g, _ = _read_graph(args.graph)
    if args.bound is not None:
        ok = has_width_le(g, args.bound)
        payload = {"command": "width", "bound": args.bound, "within_bound": ok}
        _emit(args, payload, [f"width <= {args.bound}: {'yes' if ok else 'no'}"])
        return 0 if ok else 1
    w, ordering = graph_width(g)
    payload = {"command": "width", "width": w, "ordering": list(ordering)}
    _emit(args, payload, [str(w), "ordering: " + " ".join(map(str, ordering))])
    return 0


def _cmd_minor_check(args) -> int:
    host, _ = _read_graph(args.host)
    if args.f0:
        results = {p.name: has_minor(host, p) for p in f0()}
        found = any(results.values())
        payload = {
            "command": "minor-check",
            "patterns": results,
            "f0_free": not found,
        }
        lines = [f"{name}: {'minor found' if hit else 'absent'}" for name, hit in results.items()]
        lines.append(f"f0-free: {'no' if found else 'yes'}")
        _emit(args, payload, lines)
        return 0 if found else 1
    if args.pattern is not None:
        pattern, _ = _read_graph(args.pattern)
        label = args.pattern
    elif args.builtin is not None:
        pattern = _builtin_graph(args.builtin)
        label = args.builtin
    else:
        raise _CliError("minor-check needs --pattern, --builtin, or --f0")
    found = has_minor(host, pattern)
    payload = {"command": "minor-check", "pattern": label, "has_minor": found}
    _emit(args, payload, [f"{label}: {'minor found' if found else 'absent'}"])
    return 0 if found else 1


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        max_edges=args.max_edges,
        require_three_connected=not args.unrestricted,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
    )


def _entry_payload(entry) -> dict:
    g = entry.enhanced.graph
    return {
        "n": g.n,
        "edges": [
            [
                g.edges[e][0],
                g.edges[e][1],
                ("c" if e in entry.enhanced.contract_protected else "")
                + ("d" if e in entry.enhanced.delete_protected else ""),
            ]
            for e in sorted(g.edges)
        ],
        "witness": sorted(entry.witness),
        "family": entry.family,
        "weight": entry.weight,
        "dual_partner": entry.dual_partner,
    }


def _cmd_search_minimal(args) -> int:
    entries = build_catalog(_search_config(args))
    text = render_catalog(entries)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}") from exc
        _emit(
            args,
            {"command": "search-minimal", "entries": len(entries), "out": args.out},
            [f"{len(entries)} entries written to {args.out}"],
        )
    else:
        _emit(
            args,
            {
                "command": "search-minimal",
                "entries": len(entries),
                "catalog": [_entry_payload(e) for e in entries],
            },
            text.splitlines(),
        )
    return 0


def _cmd_verify_catalog(args) -> int:
    try:
        text = Path(args.golden).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {args.golden}: {exc}") from exc
    golden = parse_catalog(text)
    report = verify_catalog(_search_config(args), golden)
    payload = {
        "command": "verify-catalog",
        "ok": report.ok,
        "missing": list(report.missing),
        "unexpected": list(report.unexpected),
        "mismatched": list(report.mismatched),
    }
    lines = ["catalog verified: no differences"] if report.ok else ["catalog differs:"]
    lines += [f"  missing: {m}" for m in report.missing]
    lines += [f"  unexpected: {u}" for u in report.unexpected]
    lines += [f"  mismatched: {x}" for x in report.mismatched]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no state of a run."""
    top = argparse.ArgumentParser(prog="fivesplit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("psi", help="Kirchhoff polynomial of a graph")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("dodgson", help="Dodgson polynomial for index sets I, J, K")
    p.add_argument("graph")
    p.add_argument("--i", required=True, help="comma-separated edge ids")
    p.add_argument("--j", required=True, help="comma-separated edge ids")
    p.add_argument("--k", default="", help="comma-separated edge ids")
    common(p)
    p.set_defaults(func=_cmd_dodgson)

    p = sub.add_parser("five-invariant", help="5-invariant of an ordered edge tuple")
    p.add_argument("graph")
    p.add_argument("--edges", required=True, help="five comma-separated edge ids")
    common(p)
    p.set_defaults(func=_cmd_five_invariant)

    p = sub.add_parser("split-check", help="splitting verdict for a configuration or graph")
    p.add_argument("graph")
    p.add_argument("--edges", default=None, help="five comma-separated edge ids")
    p.add_argument(
        "--probabilistic",
        action="store_true",
        help="exact zero test of the 30 Dodgson polynomials of --edges; lists those that vanish",
    )
    p.add_argument("--seed", type=int, default=0, help="no effect; echoed in the JSON output")
    common(p)
    p.set_defaults(func=_cmd_split_check)

    p = sub.add_parser("width", help="graph width, or a width bound check")
    p.add_argument("graph")
    p.add_argument("--bound", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("minor-check", help="minor containment against a pattern or F0")
    p.add_argument("host")
    p.add_argument("--pattern", default=None, help="pattern graph file")
    p.add_argument("--builtin", default=None, help="built-in pattern name")
    p.add_argument("--f0", action="store_true", help="check all forbidden-five patterns")
    common(p)
    p.set_defaults(func=_cmd_minor_check)

    p = sub.add_parser("search-minimal", help="regenerate the minor-minimal catalog")
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--unrestricted", action="store_true", help="drop the 3-connectivity restriction")
    common(p)
    p.set_defaults(func=_cmd_search_minimal)

    p = sub.add_parser("verify-catalog", help="regenerate and diff against a stored catalog")
    p.add_argument("--golden", required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--unrestricted", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_verify_catalog)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
