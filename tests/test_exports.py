"""The package's export list names only what the package provides, its
modules import only what they use, and every name it defines has a caller."""

import ast
import re
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

# Public package names that nothing calls yet, each kept for the ROADMAP item
# that gives it a caller.
NO_CALLER_YET = {
    ("splitting", "from_enhanced"),  # item 3: expanding the catalog into plain graphs
}


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


def _readme_names() -> set[str]:
    """The identifiers in the README's code spans and code blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def _perfbench_imports() -> set[str]:
    names: set[str] = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fivesplit"):
                names |= {a.name for a in node.names}
    return names


def test_every_package_name_has_a_caller():
    # A name counts as called when a module of the package refers to it, its
    # own module included, when perfbench imports it, or when the README names
    # it.  __init__ re-exports every name, so its references do not count.
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    called = referenced | _perfbench_imports() | _readme_names()
    assert {(mod, name) for mod, name in defined if name not in called} == NO_CALLER_YET
