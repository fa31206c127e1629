"""Span tracing around the program's layer boundaries, from outside the program.

Each layer function is wrapped at the module attribute its caller looks up
(``fivesplit.search._bad_side`` is what ``_config_minima`` calls, and
``fivesplit.cli.thirty_dodgsons`` is what the probabilistic screen calls), so
nothing under ``src/`` changes.  A wrapped call records one span: name,
start, end, parent span and request id.  Spans stay in memory and are written
out once, at the end of the pass.

``layer_metrics`` turns the spans into the per-layer metrics.  A metric whose
wrapped attribute no longer exists is reported as missing rather than as a
misleading number.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, note): note(args, result) is stored on the span.
TARGETS = [
    ("fivesplit.search", "enumerate_underlying", "search.census", lambda a, r: (a[0], len(r))),
    ("fivesplit.search", "is_k_connected", "search.kconn", None),
    ("fivesplit.search", "find_isomorphism", "search.iso", None),
    ("fivesplit.search", "_host_entries", "search.host_tables", None),
    ("fivesplit.search", "_config_minima", "search.config_minima", lambda a, r: len(r)),
    ("fivesplit.search", "_bad_side", "splitting.bad_side", None),
    ("fivesplit.splitting", "_bad_side", "splitting.bad_side", None),
    ("fivesplit.splitting", "_engine", "splitting.engine", None),
    ("fivesplit.cli", "has_minor", "minors.has_minor", None),
    ("fivesplit.search", "canonical_labeling", "minors.canonical", None),
    ("fivesplit.search", "canonical_form", "minors.canonical", None),
    ("fivesplit.search", "assign_dual_partners", "minors.dual_partners", None),
    ("fivesplit.cli", "graph_width", "width.graph_width", lambda a, r: a[0].m),
    ("fivesplit.cli", "has_width_le", "width.has_width_le", None),
    ("fivesplit.kirchhoff", "dodgson", "kirchhoff.dodgson", None),
    ("fivesplit.cli", "dodgson", "kirchhoff.dodgson", None),
    ("fivesplit.cli", "kirchhoff_poly", "kirchhoff.psi", None),
    ("fivesplit.cli", "thirty_dodgsons", "kirchhoff.thirty", None),
    ("fivesplit.cli", "five_invariant", "kirchhoff.five_invariant", None),
    ("fivesplit.kirchhoff", "divexact", "poly.divexact", None),
    ("fivesplit.cli", "_probabilistic_split_check", "cli.screen", None),
]

REQUEST_SPAN = "cli.main"


class Tracer:
    """Wraps module attributes and records spans; ``uninstall`` restores them."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request id, note)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.missing: set[str] = set()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.request, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (
                name, start, end, parent, self.request,
                None if note is None else note(args, result),
            )
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, note in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, note))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def request_span(self, request_id: int, fn):
        """Run one request under a root span that its layer spans hang from."""
        self.request = request_id
        return self._wrap(REQUEST_SPAN, fn, None)()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _summaries(spans: list[tuple]) -> tuple[dict, dict, dict, dict]:
    """Per span name: call count, inclusive time, self time, and the notes.

    Inclusive time counts only the outermost span of a name, so a layer that
    calls itself through a wrapped attribute is not counted twice.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for name, start, end, parent, _req, note in spans:
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
        if note is not None:
            notes[name].append(note)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] += (end - start) - child_time[idx]
    return calls, total, self_time, notes


# Per-layer metric name -> (unit, span names it needs).  Values are filled in
# by ``layer_metrics``; the bench.* and poly.output_terms metrics come from
# the benchmark itself and need no span.
LAYER_METRICS = {
    "search.census_s": ("s", ["search.census"]),
    "search.census_m11_s": ("s", ["search.census"]),
    "search.census_candidates": ("count", ["search.kconn"]),
    "search.census_kept": ("count", ["search.census"]),
    "search.census_yield": ("ratio", ["search.kconn", "search.census"]),
    "search.kconn_s": ("s", ["search.kconn"]),
    "search.iso_checks": ("count", ["search.iso"]),
    "search.iso_s": ("s", ["search.iso"]),
    "search.host_tables_s": ("s", ["search.host_tables"]),
    "search.hosts": ("count", ["search.host_tables"]),
    "search.config_minima_calls": ("count", ["search.config_minima"]),
    "search.config_rows": ("count", ["search.config_minima"]),
    "splitting.bad_side_calls": ("count", ["splitting.bad_side"]),
    "splitting.bad_side_s": ("s", ["splitting.bad_side"]),
    "splitting.bad_memo_hit_ratio": ("ratio", ["splitting.bad_side"]),
    "splitting.structures": ("count", []),
    "splitting.engine_s": ("s", ["splitting.engine"]),
    "splitting.engine_calls": ("count", ["splitting.engine"]),
    "minors.has_minor_s": ("s", ["minors.has_minor"]),
    "minors.has_minor_calls": ("count", ["minors.has_minor"]),
    "minors.canonical_s": ("s", ["minors.canonical"]),
    "minors.canonical_calls": ("count", ["minors.canonical"]),
    "minors.dual_partners_s": ("s", ["minors.dual_partners"]),
    "width.graph_width_s": ("s", ["width.graph_width"]),
    "width.has_width_le_s": ("s", ["width.has_width_le"]),
    "width.dp_states": ("count", ["width.graph_width"]),
    "kirchhoff.dodgson_s": ("s", ["kirchhoff.dodgson"]),
    "kirchhoff.dodgson_calls": ("count", ["kirchhoff.dodgson"]),
    "kirchhoff.psi_s": ("s", ["kirchhoff.psi"]),
    "kirchhoff.thirty_s": ("s", ["kirchhoff.thirty"]),
    "kirchhoff.five_invariant_s": ("s", ["kirchhoff.five_invariant"]),
    "poly.divexact_calls": ("count", ["poly.divexact"]),
    "poly.divexact_s": ("s", ["poly.divexact"]),
    "poly.output_terms": ("count", []),
    "cli.screen_self_s": ("s", ["cli.screen", "kirchhoff.thirty"]),
    "bench.trace_overhead": ("ratio", []),
    "bench.fail_ratio": ("ratio", []),
}


def memo_stats() -> tuple[int, int] | None:
    """(structures, bad-side memo entries) held in ``splitting._CACHE``, if it exists."""
    from fivesplit import splitting

    cache = getattr(splitting, "_CACHE", None)
    if not isinstance(cache, dict):
        return None
    return len(cache), sum(len(getattr(st, "bad_memo", ())) for st in cache.values())


def layer_metrics(tracer: Tracer, memo: tuple[int, int] | None) -> dict[str, float | None]:
    """Values of the span-derived per-layer metrics; None marks a missing one."""
    calls, total, self_time, notes = _summaries(tracer.spans)
    kconn = calls["search.kconn"]
    kept = sum(k for _m, k in notes["search.census"])
    bad_calls = calls["splitting.bad_side"]
    values = {
        "search.census_s": total["search.census"],
        "search.census_m11_s": sum(
            end - start
            for name, start, end, _p, _r, note in tracer.spans
            if name == "search.census" and note[0] == 11
        ),
        "search.census_candidates": kconn,
        "search.census_kept": kept,
        "search.census_yield": kept / kconn if kconn else 0.0,
        "search.kconn_s": total["search.kconn"],
        "search.iso_checks": calls["search.iso"],
        "search.iso_s": total["search.iso"],
        "search.host_tables_s": total["search.host_tables"],
        "search.hosts": calls["search.host_tables"],
        "search.config_minima_calls": calls["search.config_minima"],
        "search.config_rows": sum(notes["search.config_minima"]),
        "splitting.bad_side_calls": bad_calls,
        "splitting.bad_side_s": total["splitting.bad_side"],
        "splitting.bad_memo_hit_ratio": (
            None if memo is None else (1 - memo[1] / bad_calls if bad_calls else 0.0)
        ),
        "splitting.structures": None if memo is None else memo[0],
        "splitting.engine_s": total["splitting.engine"],
        "splitting.engine_calls": calls["splitting.engine"],
        "minors.has_minor_s": total["minors.has_minor"],
        "minors.has_minor_calls": calls["minors.has_minor"],
        "minors.canonical_s": total["minors.canonical"],
        "minors.canonical_calls": calls["minors.canonical"],
        "minors.dual_partners_s": total["minors.dual_partners"],
        "width.graph_width_s": total["width.graph_width"],
        "width.has_width_le_s": total["width.has_width_le"],
        "width.dp_states": sum(1 << m for m in notes["width.graph_width"]),
        "kirchhoff.dodgson_s": total["kirchhoff.dodgson"],
        "kirchhoff.dodgson_calls": calls["kirchhoff.dodgson"],
        "kirchhoff.psi_s": total["kirchhoff.psi"],
        "kirchhoff.thirty_s": total["kirchhoff.thirty"],
        "kirchhoff.five_invariant_s": total["kirchhoff.five_invariant"],
        "poly.divexact_calls": calls["poly.divexact"],
        "poly.divexact_s": total["poly.divexact"],
        "cli.screen_self_s": self_time["cli.screen"],
    }
    for metric, (_unit, needs) in LAYER_METRICS.items():
        if metric in values and tracer.missing.intersection(needs):
            values[metric] = None
    return values
