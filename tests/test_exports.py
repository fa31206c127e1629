"""The package's export list names only what the package provides, and its
modules import only what they use."""

import ast
import sys
from pathlib import Path

import fivesplit

SRC = Path(fivesplit.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402

# Imported but unused on purpose: the benchmark's tracer wraps these module
# attributes (the probabilistic screen's call, and the splitting kernel that
# the catalog tables called before they moved to edge bitmasks).
ALLOWED_UNUSED = {("cli", "thirty_dodgsons"), ("search", "_bad_side")}


def test_every_export_resolves():
    for name in fivesplit.__all__:
        assert getattr(fivesplit, name, None) is not None, name


def test_exports_are_unique():
    assert len(fivesplit.__all__) == len(set(fivesplit.__all__))


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_have_no_unused_imports():
    unused = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert unused == ALLOWED_UNUSED


def test_allowed_unused_imports_are_traced():
    traced = {(mod, attr) for mod, attr, *_ in tracing.TARGETS}
    for mod, name in ALLOWED_UNUSED:
        assert (f"fivesplit.{mod}", name) in traced, (mod, name)
