"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` times each layer by wrapping a module attribute, and
reports a metric as missing when its attribute is gone.  Checking here turns a
rename that would blank a traced metric into a failing test.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def test_every_traced_attribute_resolves():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        assert tracing.memo_stats() is not None
    finally:
        tracer.uninstall()
