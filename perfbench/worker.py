"""One benchmark pass, in a fresh interpreter.

Run from the repository root as ``python3 -m perfbench.worker``.  The pass
imports the package from ``src/``, writes its seeded input files, runs every
request of the batch through ``fivesplit.cli.main`` (the code behind the
``fivesplit`` command) in a timed region, then checks the outputs outside it.
It prints one JSON report as its last line of standard output.

With ``--setup-only`` the pass stops once the inputs are written: the parent
uses such passes for extra samples of the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def _import_cli():
    """Import ``fivesplit.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from fivesplit import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fivesplit was imported from {cli.__file__}, not from {src}")
    return cli


def _run_requests(cli, argvs: list[list[str]], tracer):
    from perfbench.checks import Outcome

    outcomes, latencies = [], []
    start = time.perf_counter()
    for rid, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.request_span(rid, lambda: cli.main(argv))
            except Exception:
                traceback.print_exc()
                code = None
        latencies.append(time.perf_counter() - t)
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue()))
    return outcomes, latencies, time.perf_counter() - start


def _digest(requests: list[list[str]], outcomes, workdir: Path) -> str:
    """Digest of every command's exit code and output, independent of where
    the inputs were written."""
    h = hashlib.sha256()
    for req, o in zip(requests, outcomes):
        record = [req, o.code, o.stdout, o.stderr]
        h.update(json.dumps(record).replace(str(workdir), "<inputs>").encode())
    return h.hexdigest()


def run_pass(workload: str, seed: int, pass_no: int, trace: bool, setup_only: bool,
             spans_out: str | None) -> dict:
    cli = _import_cli()
    from perfbench import checks, inputs, tracing

    files, requests = inputs.BATCHES[workload](seed, pass_no)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        inputs.write_inputs(files, workdir)
        argvs = [[str(workdir / a) if a in files else a for a in req] for req in requests]
        ready = time.monotonic()
        if setup_only:
            return {"ready": ready}

        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            outcomes, latencies, wall = _run_requests(cli, argvs, tracer)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            memo = tracing.memo_stats() if tracer is not None else None
        finally:
            if tracer is not None:
                tracer.uninstall()

        reasons, terms = checks.check(workload, files, requests, outcomes)
        report = {
            "ready": ready,
            "wall_s": wall,
            "latencies_s": latencies,
            "rss_kb": rss_kb,
            "attempted": len(requests),
            "failed": sum(r is not None for r in reasons),
            "failures": [
                {"request": " ".join(requests[i]), "reason": r}
                for i, r in enumerate(reasons)
                if r is not None
            ][:20],
            "digest": _digest(requests, outcomes, workdir),
            "output_terms": terms,
            "layers": None,
        }
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer, memo)
            if spans_out:
                tracer.write(Path(spans_out))
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-no", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    report = run_pass(
        args.workload, args.seed, args.pass_no, args.trace, args.setup_only, args.spans_out
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
