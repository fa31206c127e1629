"""Benchmark of the fivesplit command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {catalog,verdicts,dodgson} \\
        --seed N --seconds S --trace {0,1}

Each pass runs in a fresh interpreter (``perfbench/worker.py``), because the
package's module-level caches would make a warm rerun several times faster.
The run repeats passes, each on the next seeded batch of inputs, until
``--seconds`` have gone by, and reports medians over them.  Set-up time is
also sampled by passes that stop once their inputs are written: three at the
start and one after each measured pass.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run alternates traced and
untraced passes over the same inputs and reports the per-layer metrics of the
first traced pass, plus the tracing overhead.  Lines before the last one are
for people: provenance, every metric with its unit, and any failures.

The default seed is 1; seed 2 is held out for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("catalog", "verdicts", "dodgson")
DEFAULT_SEED = 1
SETUP_PROBES = 3
PASS_TIMEOUT_S = 150
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


class BenchError(Exception):
    pass


def _run_pass(workload: str, seed: int, pass_no: int, trace: bool = False,
              setup_only: bool = False, spans_out: Path | None = None) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--pass-no", str(pass_no),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass {pass_no} timed out after {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(
            f"{workload} pass {pass_no} exited with code {proc.returncode}:\n{err[-3000:]}"
        )
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER_PERMILLE with at least ten samples beyond it (nearest rank);
    the maximum when none has."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER_PERMILLE:
        rank = -(-p * n // 1000)
        if n - rank >= 10:
            return p / 10, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def provenance(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            revision = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for ``seconds``; the end-to-end metrics and the raw record."""
    def probe() -> float:
        return _run_pass(workload, seed, 0, setup_only=True)["setup_s"]

    # Set-up is sampled at the start and after every pass, so that its median
    # spans the same stretch of a drifting machine as the passes do.
    setups = [probe() for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(_run_pass(workload, seed, len(passes)))
        setups.append(probe())
    latencies = [x for p in passes for x in p["latencies_s"]]
    busy = sum(p["wall_s"] for p in passes)
    pct, tail, beyond = tail_percentile(latencies)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail * 1000,
    }
    record = {
        "passes": len(passes),
        "setup_samples": len(setups) + len(passes),
        "tail_percentile": pct,
        "tail_samples": len(latencies),
        "tail_beyond": beyond,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "reports": passes,
    }
    return values, record


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Traced and untraced passes over the same inputs, alternating."""
    spans_out = WORK_DIR / f"spans-{workload}-seed{seed}.jsonl"
    traced: list[dict] = []
    plain: list[dict] = []
    start = time.monotonic()
    while not (traced and plain) or time.monotonic() - start < seconds:
        if len(traced) <= len(plain):
            traced.append(_run_pass(workload, seed, 0, trace=True,
                                    spans_out=None if traced else spans_out))
        else:
            plain.append(_run_pass(workload, seed, 0))
    values = dict(traced[0]["layers"])
    values["poly.output_terms"] = traced[0]["output_terms"]
    # Each traced pass is compared with the untraced pass right after it, so
    # that both see the same phase of a machine whose speed drifts.
    values["bench.trace_overhead"] = statistics.median(
        (t["wall_s"] - u["wall_s"]) / u["wall_s"] for t, u in zip(traced, plain)
    )
    all_passes = traced + plain
    values["bench.fail_ratio"] = (
        sum(p["failed"] for p in all_passes) / sum(p["attempted"] for p in all_passes)
    )
    record = {
        "traced_walls_s": [p["wall_s"] for p in traced],
        "untraced_walls_s": [p["wall_s"] for p in plain],
        "digests_agree": len({p["digest"] for p in all_passes}) == 1,
        "spans_file": str(spans_out.relative_to(ROOT)),
        "reports": [dict(p, latencies_s=None) for p in all_passes],
    }
    return values, record


def _layer_units() -> dict[str, str]:
    from perfbench.tracing import LAYER_METRICS

    return {name: unit for name, (unit, _needs) in LAYER_METRICS.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for need in ("src/fivesplit/cli.py", "data/catalog_max11.txt"):
        if not (ROOT / need).is_file():
            print(f"perfbench: {need} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT))
    WORK_DIR.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    try:
        if args.trace:
            values, record = measure_traced(args.workload, args.seed, args.seconds)
            units = _layer_units()
        else:
            values, record = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reports = record["reports"]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and record.get("digests_agree", True)

    print(f"# perfbench {args.workload} trace={args.trace} " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        v = values[name]
        shown = "missing" if v is None else f"{v:.6g} {unit}"
        print(f"{name:32s} {shown}")
    if args.trace:
        print(f"# traced and untraced outputs agree: {record['digests_agree']}")
    else:
        print(
            f"# {record['passes']} passes; op_tail_ms is p{record['tail_percentile']:g} of "
            f"{record['tail_samples']} requests ({record['tail_beyond']} beyond it)"
        )
    print(f"{'fail_ratio':32s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for r in reports:
        for f in r["failures"]:
            print(f"# FAILED {f['request']}: {f['reason']}")

    out_file = WORK_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps({"provenance": prov, "values": values, **record}, indent=1), encoding="utf-8"
    )

    metrics = {}
    for name, unit in units.items():
        metric = {"value": values[name], "unit": unit}
        if values[name] is None:
            metric["missing"] = True
        metrics[name] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
