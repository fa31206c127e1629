"""End-to-end command-line checks, run in process through cli.main."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fivesplit
from fivesplit.cli import _CliError, _edge_list, main
from fivesplit.graph_core import _MAX_PARSED_VERTICES, load_graph, render_graph_text
from fivesplit.kirchhoff import kirchhoff_poly
from fivesplit.minors import parse_catalog
from fivesplit.poly import parse_poly
from fivesplit.named_graphs import (
    complete_bipartite,
    complete_graph,
    cube,
    wheel,
)
from builders import (
    FUZZ_GRAPH_TEXT,
    K4_CATALOG_LINE,
    chain_of_k4s,
    cycle_graph,
    cycle_prism,
    path_graph,
    subdivided,
    triangle,
)


def _graph_file(tmp_path, name, g, c=(), d=()):
    path = tmp_path / name
    path.write_text(render_graph_text(g, c, d), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    return code, payload, err


def test_psi_text_and_json(tmp_path, capsys):
    g = triangle()
    path = _graph_file(tmp_path, "t.txt", g)
    code, out, _ = _run(capsys, "psi", path)
    assert code == 0
    assert out.strip() == kirchhoff_poly(g).render()
    code, payload, _ = _run_json(capsys, "psi", path)
    assert code == 0
    assert payload["polynomial"] == kirchhoff_poly(g).render()


def test_psi_accepts_graph6(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n", encoding="utf-8")
    code, out, _ = _run(capsys, "psi", str(path))
    assert code == 0
    # graph6 renumbers edges, so compare evaluations rather than renderings
    got = parse_poly(out.strip())
    assert got.eval_int({e: 1 for e in range(1, 7)}) == 16


def test_dodgson_command(tmp_path, capsys):
    path = _graph_file(tmp_path, "t.txt", triangle())
    code, payload, _ = _run_json(capsys, "dodgson", path, "--i", "1", "--j", "1")
    assert code == 0
    assert payload["polynomial"] == "+ 1"
    assert not payload["is_zero"]
    two = _graph_file(tmp_path, "p.txt", path_graph(2))
    code, payload, _ = _run_json(capsys, "dodgson", two, "--i", "1", "--j", "2")
    assert code == 0
    assert payload["is_zero"]


def test_dodgson_rejects_bad_edge_list(tmp_path, capsys):
    path = _graph_file(tmp_path, "t.txt", triangle())
    code, _, err = _run(capsys, "dodgson", path, "--i", "one", "--j", "2")
    assert code == 2
    assert "bad edge list" in err


def test_polynomials_of_a_graph_with_no_vertex_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n", encoding="utf-8")
    for argv in (("psi",), ("dodgson", "--i", "", "--j", ""),
                 ("five-invariant", "--edges", "1,2,3,4,5")):
        code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", "error: convention needs at least one vertex\n")


def test_five_invariant_command(tmp_path, capsys):
    path = _graph_file(tmp_path, "w5.txt", wheel(5))
    code, payload, _ = _run_json(capsys, "five-invariant", path, "--edges", "1,3,5,7,9")
    assert code == 0
    assert not payload["is_zero"]
    code, _, err = _run(capsys, "five-invariant", path, "--edges", "1,2,3")
    assert code == 2
    assert err.startswith("error:")


def test_split_check_configuration(tmp_path, capsys):
    k4 = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    code, out, _ = _run(capsys, "split-check", k4, "--edges", "1,2,3,4,5")
    assert code == 0
    assert out.startswith("splits")
    assert "witness:" in out
    k33 = _graph_file(tmp_path, "k33.txt", complete_bipartite(3, 3))
    code, payload, _ = _run_json(capsys, "split-check", k33, "--edges", "1,2,4,5,9")
    assert code == 1
    assert not payload["splits"]
    assert payload["witness"] is None


def test_split_check_whole_graph(tmp_path, capsys):
    k4 = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    code, out, _ = _run(capsys, "split-check", k4)
    assert code == 0
    assert out.strip() == "splits"
    k5 = _graph_file(tmp_path, "k5.txt", complete_graph(5))
    code, payload, _ = _run_json(capsys, "split-check", k5)
    assert code == 1
    assert not payload["splits"]
    assert len(payload["failing_configuration"]) == 5


def test_split_check_reads_protections(tmp_path, capsys):
    protected = _graph_file(
        tmp_path, "k4p.txt", complete_graph(4), c=range(2, 7), d=range(2, 7)
    )
    code, out, _ = _run(capsys, "split-check", protected)
    assert code == 1
    assert out.startswith("does not split: configuration")


def test_probabilistic_screen(tmp_path, capsys):
    k4 = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    code, payload, err = _run_json(
        capsys, "split-check", k4, "--edges", "1,2,3,4,5", "--probabilistic"
    )
    assert code == 0
    assert payload["probabilistic"]
    assert payload["splits"]
    assert payload["vanishing"]
    assert "probabilistic" in err
    k33 = _graph_file(tmp_path, "k33.txt", complete_bipartite(3, 3))
    code, payload, err = _run_json(
        capsys, "split-check", k33, "--edges", "1,2,4,5,9", "--probabilistic"
    )
    assert code == 1
    assert not payload["splits"]
    assert payload["vanishing"] == []
    assert "probabilistic" in err


def test_probabilistic_screen_requires_edges(tmp_path, capsys):
    k4 = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    code, _, err = _run(capsys, "split-check", k4, "--probabilistic")
    assert code == 2
    assert "--edges" in err


def test_probabilistic_screen_rejects_protections(tmp_path, capsys):
    protected = _graph_file(tmp_path, "k4p.txt", complete_graph(4), c=[2], d=[])
    code, _, err = _run(
        capsys, "split-check", protected, "--edges", "1,2,3,4,5", "--probabilistic"
    )
    assert code == 2
    assert "protection" in err


def test_width_command(tmp_path, capsys):
    k4 = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    code, payload, _ = _run_json(capsys, "width", k4)
    assert code == 0
    assert payload["width"] == 3
    assert sorted(payload["ordering"]) == [1, 2, 3, 4, 5, 6]
    code, _, _ = _run(capsys, "width", k4, "--bound", "3")
    assert code == 0
    code, out, _ = _run(capsys, "width", k4, "--bound", "2")
    assert code == 1
    assert "no" in out


def test_width_refuses_more_than_22_edges(tmp_path, capsys):
    c22 = _graph_file(tmp_path, "c22.txt", cycle_graph(22))
    assert _run(capsys, "width", c22, "--bound", "3") == (0, "width <= 3: yes\n", "")
    c23 = _graph_file(tmp_path, "c23.txt", cycle_graph(23))
    for argv in (("width", c23), ("width", c23, "--bound", "3")):
        assert _run(capsys, *argv) == (2, "", "error: width DP supports at most 22 edges\n")


def test_minor_check_builtin_and_file(tmp_path, capsys):
    host = _graph_file(tmp_path, "cube.txt", cube())
    code, _, _ = _run(capsys, "minor-check", host, "--builtin", "K4")
    assert code == 0
    code, payload, _ = _run_json(capsys, "minor-check", host, "--builtin", "K5")
    assert code == 1
    assert not payload["has_minor"]
    pattern = _graph_file(tmp_path, "w4.txt", wheel(4))
    code, _, _ = _run(capsys, "minor-check", host, "--pattern", pattern)
    assert code == 0
    code, _, err = _run(capsys, "minor-check", host, "--builtin", "K99")
    assert code == 2
    assert "unknown built-in" in err
    assert err.endswith(
        "choices: C, D, D*, H, K3,3, K4, K5, K5-, O, P, P+, W4, W5, cube, octahedron\n"
    )
    for alias, expected in (("cube", 0), ("octahedron", 1)):
        code, _, _ = _run(capsys, "minor-check", host, "--builtin", alias)
        assert code == expected
    code, _, err = _run(capsys, "minor-check", host)
    assert code == 2


def test_minor_check_f0(tmp_path, capsys):
    host = _graph_file(tmp_path, "cube.txt", cube())
    code, payload, _ = _run_json(capsys, "minor-check", host, "--f0")
    assert code == 0
    assert not payload["f0_free"]
    assert payload["patterns"]["C"]
    code, out, _ = _run(capsys, "minor-check", host, "--f0")
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "K3,3", "K5", "C", "H", "O", "f0-free",
    ]
    w4 = _graph_file(tmp_path, "w4.txt", wheel(4))
    code, payload, _ = _run_json(capsys, "minor-check", w4, "--f0")
    assert code == 1
    assert payload["f0_free"]
    assert not any(payload["patterns"].values())


def test_search_minimal_stdout_and_file(tmp_path, capsys):
    code, payload, _ = _run_json(capsys, "search-minimal", "--max-edges", "6")
    assert code == 0
    assert payload["entries"] == 1
    entry = payload["catalog"][0]
    assert entry["family"] == "K4"
    assert entry["weight"] == 16
    assert entry["dual_partner"] == 0
    out_path = tmp_path / "catalog.txt"
    code, out, _ = _run(
        capsys, "search-minimal", "--max-edges", "6", "--out", str(out_path)
    )
    assert code == 0
    assert "1 entries" in out
    entries = parse_catalog(out_path.read_text(encoding="utf-8"))
    assert len(entries) == 1
    assert entries[0].family == "K4"


def test_search_minimal_to_twelve_edges_is_pinned(capsys):
    # 39 entries: the 36 of data/catalog_max11.txt and the cube, H and the
    # octahedron; the search finds no protected entry on a 12-edge host
    code, out, _ = _run(capsys, "search-minimal", "--max-edges", "12")
    assert code == 0
    digest = hashlib.sha1(out.encode("utf-8")).hexdigest()
    assert digest == "cdb799eff1fc57f664b31f7d21dd8e7ad4c1c9a2"


def test_verify_catalog_command(tmp_path, capsys):
    golden = tmp_path / "golden.txt"
    code, _, _ = _run(
        capsys, "search-minimal", "--max-edges", "8", "--out", str(golden)
    )
    assert code == 0
    code, out, _ = _run(
        capsys, "verify-catalog", "--golden", str(golden), "--max-edges", "8"
    )
    assert code == 0
    assert "no differences" in out
    lines = golden.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    # the last two entries are each other's dual partners, so dropping both
    # leaves every remaining dual index inside the file
    assert body[-1].endswith(f"|{len(body) - 2}") and body[-2].endswith(f"|{len(body) - 1}")
    dropped = [ln for ln in lines if ln not in body[-2:]]
    golden.write_text("\n".join(dropped) + "\n", encoding="utf-8")
    code, payload, _ = _run_json(
        capsys, "verify-catalog", "--golden", str(golden), "--max-edges", "8"
    )
    assert code == 1
    assert not payload["ok"]
    assert len(payload["unexpected"]) == 2


def _cli_process(*argv, max_memory=None):
    """Run the CLI in a fresh interpreter; max_memory caps its address space in bytes."""
    env = dict(os.environ)
    src = str(Path(fivesplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    return subprocess.run(
        [sys.executable, "-m", "fivesplit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=None if max_memory is None else limit,
    )


def _verify_catalog_process(tmp_path, text):
    golden = tmp_path / "golden.txt"
    golden.write_text(text, encoding="utf-8")
    return _cli_process("verify-catalog", "--golden", str(golden), "--max-edges", "6")


def _assert_usage_error(proc, message):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: " + message)


def test_malformed_catalog_mark_is_a_usage_error(tmp_path):
    for edge in ("0-1:zz", "0-1"):
        proc = _verify_catalog_process(tmp_path, f"2|{edge}|1|?|1|-\n")
        _assert_usage_error(proc, "bad protection mark")


def test_inconsistent_catalog_entry_is_a_usage_error(tmp_path):
    proc = _verify_catalog_process(tmp_path, K4_CATALOG_LINE + "\n")
    assert proc.returncode == 0
    assert proc.stdout == "catalog verified: no differences\n"
    damaged = [
        ("|2,3,4,5,6|", "|2,3,4,5,99|", "catalog witness"),
        ("|2,3,4,5,6|", "|2,3,4,5,5|", "catalog witness"),
        ("|2,3,4,5,6|", "|2,3,4,5|", "catalog witness"),
        ("|16|", "|3|", "catalog weight"),
        ("|16|0", "|16|1", "catalog dual index"),
        ("|16|0", "|16|-1", "catalog dual index"),
    ]
    for old, new, message in damaged:
        proc = _verify_catalog_process(tmp_path, K4_CATALOG_LINE.replace(old, new) + "\n")
        _assert_usage_error(proc, message)


def test_minor_check_f0_on_large_hosts_with_small_reduced_blocks(tmp_path, capsys):
    # six K4 blocks in a row: 19 vertices, every reduced block a K4
    chain = _graph_file(tmp_path, "c.txt", chain_of_k4s(6))
    code, payload, _ = _run_json(capsys, "minor-check", chain, "--f0")
    assert code == 1
    assert payload["f0_free"]
    # K3,3 with every edge subdivided twice: 24 vertices, reduces to K3,3
    twice = subdivided(complete_bipartite(3, 3), 2)
    assert twice.n == 24
    code, payload, _ = _run_json(capsys, "minor-check", _graph_file(tmp_path, "s.txt", twice), "--f0")
    assert code == 0
    assert payload["patterns"] == {"K3,3": True, "K5": False, "C": False, "H": False, "O": False}


def test_minor_check_finds_a_cycle_in_a_block_of_a_large_host(tmp_path, capsys):
    chain = _graph_file(tmp_path, "c.txt", chain_of_k4s(6))
    c4 = _graph_file(tmp_path, "c4.txt", cycle_graph(4))
    code, payload, _ = _run_json(capsys, "minor-check", chain, "--pattern", c4)
    assert code == 0
    assert payload["has_minor"]


def test_minor_check_f0_refuses_a_large_reduced_block(tmp_path):
    # cubic and 3-connected, so each prism reduces to itself; the 600-prism
    # is deeper than Python's recursion limit
    for k in (9, 600):
        prism = _graph_file(tmp_path, f"p{k}.txt", cycle_prism(k))
        for pattern in (("--f0",), ("--pattern", prism)):
            proc = _cli_process("minor-check", prism, *pattern)
            _assert_usage_error(proc, "minor search supports hosts with at most 16 vertices")


def test_unreadable_graph_is_a_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "psi", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("what even is this\nnot a graph\n", encoding="utf-8")
    code, _, err = _run(capsys, "psi", str(bad))
    assert code == 2
    assert "error:" in err


def test_argparse_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    # the catalog commands have no --include-plain: the catalog takes its
    # plain members from f0(), so the flag could not change their output
    golden = str(Path(__file__).resolve().parent.parent / "data" / "catalog_max11.txt")
    for argv in (
        ["search-minimal", "--max-edges", "8", "--include-plain"],
        ["verify-catalog", "--golden", golden, "--max-edges", "8", "--include-plain"],
    ):
        assert main(argv) == 2
        assert "unrecognized arguments: --include-plain" in capsys.readouterr().err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call must still print what a
    # fresh process prints, whatever ran before it
    monkeypatch.setenv("COLUMNS", "80")
    path = _graph_file(tmp_path, "k4.txt", complete_graph(4))
    for argv in (
        ["psi", path],
        ["width", path, "--bound", "x"],
        ["split-check", "--help"],
        ["width", path],
    ):
        proc = _cli_process(*argv)
        assert _run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=60), FUZZ_GRAPH_TEXT.map(
    lambda text: text.encode("utf-8", "surrogatepass"))))
def test_split_check_on_a_fuzzed_graph_file_is_a_usage_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(data)
        try:
            load_graph(path.read_text(encoding="utf-8"))
        except ValueError:
            pass
        else:
            assume(False)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["split-check", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")


def test_vertex_counts_above_the_cap_are_usage_errors(tmp_path):
    graph, golden = tmp_path / "g.txt", tmp_path / "golden.txt"
    for n in (_MAX_PARSED_VERTICES + 1, 999_999_999):
        graph.write_text(f"{n} 0\n", encoding="utf-8")
        golden.write_text(K4_CATALOG_LINE.replace("4|", f"{n}|", 1) + "\n", encoding="utf-8")
        # without the cap a nine-digit count would fill the machine's memory;
        # the address-space limit turns that into a MemoryError instead
        for argv in (("split-check", str(graph)),
                     ("verify-catalog", "--golden", str(golden), "--max-edges", "6")):
            proc = _cli_process(*argv, max_memory=1 << 30)
            _assert_usage_error(proc, f"vertex count {n} exceeds the limit")


_EDGE_LIST_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789,-+_ \t\n\u0663\u00b2", max_size=30),
    st.lists(st.integers(min_value=-3, max_value=9).map(str), max_size=6).map(",".join),
    st.integers(min_value=4300, max_value=4400).map(lambda k: "9" * k),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_EDGE_LIST_TEXT)
def test_edge_lists_fail_only_as_usage_errors(text):
    try:
        ids = _edge_list(text)
    except _CliError:
        parsed = False
    else:
        assert all(isinstance(e, int) for e in ids)
        parsed = True
    with tempfile.TemporaryDirectory() as tmp:
        path = _graph_file(Path(tmp), "t.txt", triangle())
        out, err = io.StringIO(), io.StringIO()
        # --i=TEXT, so that argparse takes a leading "-" as the value
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dodgson", path, f"--i={text}", "--j", "1"])
    assert code == 2 or (parsed and code == 0)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
