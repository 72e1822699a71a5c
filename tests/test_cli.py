"""CLI surface: formats, commands, exit codes, bench reports."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zetakit
from conftest import count_calls, fail_first_verification, gnp, random_forest
from zetakit import cli, degeneracy
from zetakit.cli import (GraphDocument, ParseError, parse_dimacs,
                         parse_edge_list, run_command, serialize_dimacs,
                         serialize_edge_list)
from zetakit.degeneracy import zeta_profile
from zetakit.graph import GraphInputError, build_graph

TRIANGLE_PENDANT = "a b\nb c\nc a\na d\n"


def run(capsys, *argv):
    rc = run_command(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


# ── parsing ─────────────────────────────────────────────────────────────────


def test_parse_edge_list_basic():
    doc = parse_edge_list("0 1\n1 2\n")
    assert doc.graph.n == 3 and doc.graph.m == 2
    assert doc.labels == ("0", "1", "2")
    assert doc.fmt == "edges"


def test_parse_edge_list_comments_and_labels():
    doc = parse_edge_list("# header\nalpha beta # trailing\n\nbeta gamma\n")
    assert doc.labels == ("alpha", "beta", "gamma")
    assert doc.graph.m == 2


def test_parse_edge_list_rejects_self_loop_with_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\nx x\n")


def test_parse_edge_list_rejects_wrong_arity():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n0 1 2\n")


def test_parse_dimacs_k3():
    doc = parse_dimacs("c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert doc.graph.n == 3 and doc.graph.m == 3
    assert doc.labels == ("1", "2", "3")
    assert doc.warnings == ()


def test_parse_dimacs_edge_before_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_dimacs("e 1 2\np edge 3 1\n")


def test_parse_dimacs_count_mismatch_warns():
    doc = parse_dimacs("p edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 1 2\n")
    assert doc.graph.m == 3
    assert len(doc.warnings) == 1
    assert "5" in doc.warnings[0] and "3" in doc.warnings[0]


def test_parse_dimacs_rejects_bad_ids():
    with pytest.raises(ParseError, match="outside"):
        parse_dimacs("p edge 3 1\ne 1 4\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_dimacs("p edge 3 1\ne 2 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_dimacs("p edge 3 0\np edge 3 0\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("c nothing else\n")


def test_serialize_edge_list_refuses_isolated():
    doc = GraphDocument(build_graph(2, []), ("a", "b"), "edges")
    with pytest.raises(GraphInputError, match="isolated"):
        serialize_edge_list(doc)


def test_round_trip_both_formats():
    rng = random.Random(77)
    for trial in range(25):
        n = rng.randrange(2, 15)
        g = gnp(n, 0.4, rng.randrange(10**6))
        doc = GraphDocument(g, tuple(f"v{i}" for i in range(n)), "edges")
        # dimacs copes with isolated vertices, edge list does not
        back = parse_dimacs(serialize_dimacs(doc))
        assert back.graph.adj == g.adj
        if all(g.adj[v] for v in range(n)):
            back = parse_edge_list(serialize_edge_list(doc))
            relabel = {lbl: i for i, lbl in enumerate(back.labels)}
            expect = {frozenset((f"v{u}", f"v{v}")) for u, v in g.edges()}
            got = {frozenset((back.labels[u], back.labels[v]))
                   for u, v in back.graph.edges()}
            assert got == expect


# ── commands ────────────────────────────────────────────────────────────────


def test_zeta_command_triangle_pendant(tmp_path, capsys, monkeypatch):
    profiled = []

    def counted(g):
        profiled.append(g.n)
        return zeta_profile(g)

    for module in (cli, degeneracy):
        monkeypatch.setattr(module, "zeta_profile", counted)
    f = tmp_path / "tri.edges"
    f.write_text(TRIANGLE_PENDANT)
    rc, out, _ = run(capsys, "zeta", str(f))
    assert rc == 0 and profiled == [4]
    assert out["schema"] == "zeta-kit/1"
    assert out["zeta"] == [2, 2, 2, 1]
    assert out["cheap"] == ["b", "c", "d"]
    assert out["degeneracy"] == 2
    assert out["layers"][0] == ["b", "c", "d"] and out["layers"][1] == ["a"]


def test_zeta_command_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n"))
    rc, out, _ = run(capsys, "zeta", "-")
    assert rc == 0 and out["n"] == 3 and out["m"] == 2


def test_bounds_command_p6(tmp_path, capsys):
    f = tmp_path / "p6.edges"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
    rc, out, _ = run(capsys, "bounds", str(f))
    assert rc == 0
    assert out["bounds"]["z2"]["exact"] == "4"
    assert out["bounds"]["z2"]["approx"] == 4.0
    assert out["bounds"]["z1"]["exact"] == "3"
    assert out["is_forest"] is True
    assert out["bounds"]["forest_zk"]["exact"] == "4"
    assert "inapplicable" in out["bounds"]["caro_tuza_a1"]


def test_bounds_command_takes_forestness_from_one_component_pass(tmp_path, capsys,
                                                                  monkeypatch):
    """`bounds` reads is_forest off the report's forest_zk, so a forest costs one
    connected_components call; the empty graph is a forest with forest_zk
    inapplicable."""
    calls = count_calls(monkeypatch, zetakit.graph, "connected_components")
    f = tmp_path / "g.edges"
    for edges, forest in ((random_forest(200, 4).edges(), True),
                          ([(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (7, 8)], False)):
        calls.clear()
        f.write_text("".join(f"{u} {v}\n" for u, v in edges))
        rc, out, _ = run(capsys, "bounds", str(f))
        assert rc == 0 and out["is_forest"] is forest and len(calls) == 1
        assert ("exact" in out["bounds"]["forest_zk"]) is forest
    f.write_text("p edge 0 0\n")
    rc, out, _ = run(capsys, "bounds", str(f))
    assert rc == 0 and out["n"] == 0 and out["is_forest"] is True
    assert "empty graph" in out["bounds"]["forest_zk"]["inapplicable"]


def test_greedy_command_showcase(tmp_path, capsys):
    f = tmp_path / "ex1.edges"
    rc, _, _ = run(capsys, "gen", "--family", "example1", "--k", "2",
                   "--out", str(f))
    assert rc == 0
    rc, out, _ = run(capsys, "greedy", "--algo", "cheap", str(f))
    assert rc == 0
    assert out["size"] == 6
    # exact rational string, and at least the z1 bound of this graph (31/12)
    cert = Fraction(out["certificate"]["exact"])
    assert cert >= Fraction(31, 12)
    assert out["size"] >= out["certificate_ceil"] == -(-cert // 1)
    assert out["level"] == 0


def test_greedy_trace_flag(tmp_path, capsys):
    f = tmp_path / "p9.edges"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(8)))
    rc, out, _ = run(capsys, "greedy", "--algo", "1cheap", "--trace", str(f))
    assert rc == 0
    assert out["trace"]
    for step in out["trace"]:
        assert set(step) == {"kind", "picked", "removed", "contribution",
                             "lambda"}


def test_greedy_min_seed_reproducible(tmp_path, capsys):
    f = tmp_path / "c9.edges"
    f.write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    rc, a, _ = run(capsys, "greedy", "--algo", "min", "--seed", "5", str(f))
    rc2, b, _ = run(capsys, "greedy", "--algo", "min", "--seed", "5", str(f))
    assert rc == rc2 == 0 and a == b


@pytest.mark.parametrize("algo, flag", [("2cheap", "--seed"), ("cheap", "--seed"),
                                        ("forest-k", "--seed"), ("min", "--k"),
                                        ("2cheap", "--k"), ("1cheap", "--k")])
def test_greedy_rejects_a_flag_its_algorithm_ignores(tmp_path, capsys, algo, flag):
    f = tmp_path / "p4.edges"
    f.write_text("0 1\n1 2\n2 3\n")
    rc, out, err = run(capsys, "greedy", "--algo", algo, flag, "4", str(f))
    assert rc == 1 and out is None
    assert f"{flag} applies only to" in err and "Traceback" not in err


def test_oracle_command(tmp_path, capsys):
    f = tmp_path / "c7.edges"
    f.write_text("".join(f"{i} {(i + 1) % 7}\n" for i in range(7)))
    rc, out, _ = run(capsys, "oracle", "--k", "0", str(f))
    assert rc == 0 and out["alpha"] == 3 and len(out["witness"]) == 3


def test_family_f_command(tmp_path, capsys):
    f = tmp_path / "p6.edges"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
    rc, out, _ = run(capsys, "family-f", str(f))
    assert rc == 0 and out["member"] is True
    assert len(out["witness"]) == 3


def test_gen_dimacs_output(tmp_path, capsys):
    f = tmp_path / "forest.dimacs"
    rc, out, _ = run(capsys, "gen", "--family", "random-forest", "--n", "20",
                     "--seed", "3", "--out", str(f))
    assert rc == 0 and out["n"] == 20
    doc = parse_dimacs(f.read_text())
    assert doc.graph.n == 20


@pytest.mark.parametrize("family, flag, value", [("random-gnp", "--p", "1.5"),
                                                  ("random-gnp", "--p", "nan"),
                                                  ("random-forest", "--attach", "-0.1")])
def test_gen_rejects_probability_out_of_range(tmp_path, capsys, family, flag, value):
    f = tmp_path / "g.edges"
    rc, out, err = run(capsys, "gen", "--family", family, "--n", "5", flag, value,
                       "--out", str(f))
    assert rc == 1 and out is None and "[0, 1]" in err and not f.exists()


def test_gen_rejects_negative_extra_edges(tmp_path, capsys):
    f = tmp_path / "g.edges"
    rc, out, err = run(capsys, "gen", "--family", "family-F", "--sizes", "3,3",
                       "--extra-edges", "-4", "--out", str(f))
    assert rc == 1 and out is None and "extra_edges" in err and not f.exists()


def test_conjecture_smoke(capsys):
    rc, out, _ = run(capsys, "conjecture", "--k", "1", "--n", "9",
                     "--trials", "8", "--seed", "0")
    assert rc == 0
    assert out["violations"] == []
    assert "exact" in out["min_slack"]


def test_conjecture_rejects_negative_trials(capsys):
    rc, out, err = run(capsys, "conjecture", "--k", "3", "--n", "5",
                       "--trials", "-1", "--seed", "0")
    assert rc == 1 and out is None and "--trials" in err


# ── exit codes ──────────────────────────────────────────────────────────────


def test_exit_usage_error(capsys):
    rc, out, err = run(capsys, "greedy", "--algo", "nope", "missing.edges")
    assert rc == 1 and "usage error" in err


def test_exit_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("0 0\n")
    rc, out, err = run(capsys, "zeta", str(f))
    assert rc == 2 and "line 1" in err


def test_exit_missing_file(capsys):
    rc, out, err = run(capsys, "zeta", "/nonexistent/g.edges")
    assert rc == 1 and "error" in err


def test_exit_dimacs_edge_before_header(tmp_path, capsys):
    f = tmp_path / "bad.dimacs"
    f.write_text("e 1 2\np edge 3 1\n")
    rc, _, err = run(capsys, "zeta", str(f))
    assert rc == 2 and "line 1" in err


def test_exit_non_utf8_file(tmp_path, capsys):
    f = tmp_path / "latin1.edges"
    f.write_bytes("caf\xe9 b\n".encode("latin-1"))
    rc, out, err = run(capsys, "zeta", str(f))
    assert rc == 2 and out is None and "UTF-8" in err


def test_exit_non_utf8_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"0 1\n\xff\xfe 2\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    rc, out, err = run(capsys, "zeta", "-")
    assert rc == 2 and out is None and "UTF-8" in err


def test_exit_invariant_violation_on_failed_candidate(tmp_path, capsys, monkeypatch):
    fail_first_verification(monkeypatch)
    f = tmp_path / "c4.edges"
    f.write_text("0 1\n1 2\n2 3\n3 0\n")
    rc, out, err = run(capsys, "greedy", "--algo", "2cheap", str(f))
    assert rc == 3 and out is None
    assert "invariant violation" in err and "failed verification" in err
    assert "Traceback" not in err


def test_exit_forest_greedy_negative_level_without_edges(tmp_path, capsys):
    f = tmp_path / "empty.dimacs"
    f.write_text("p edge 3 0\n")
    rc, out, err = run(capsys, "greedy", "--algo", "forest-k", "--k", "-1", str(f))
    assert rc == 1 and out is None
    assert "level must be >= 0" in err and "Traceback" not in err


def test_auto_format_reads_dimacs_header(tmp_path, capsys, monkeypatch):
    text = "c a triangle\n\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, _ = run(capsys, "zeta", "-")
    assert rc == 0 and out["n"] == 3 and out["zeta"] == [2, 2, 2]
    f = tmp_path / "triangle.txt"
    f.write_text(text)
    rc, out, _ = run(capsys, "zeta", str(f))
    assert rc == 0 and out["labels"] == ["1", "2", "3"]
    # an edge between the labels "p" and "edge" stays an edge list
    f.write_text("p edge\nedge q\n")
    rc, out, _ = run(capsys, "zeta", str(f))
    assert rc == 0 and out["labels"] == ["p", "edge", "q"]


def test_warning_surfaces_in_payload(tmp_path, capsys):
    f = tmp_path / "warn.dimacs"
    f.write_text("p edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 1 2\n")
    rc, out, _ = run(capsys, "zeta", str(f))
    assert rc == 0 and len(out["warnings"]) == 1


def test_console_script_wiring(tmp_path):
    f = tmp_path / "p3.edges"
    f.write_text("0 1\n1 2\n")
    # the child process finds zetakit in this checkout's src/, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    got = subprocess.run([sys.executable, "-m", "zetakit.cli", "zeta", str(f)],
                         env=env, capture_output=True, text=True)
    assert got.returncode == 0
    assert json.loads(got.stdout)["zeta"] == [1, 1, 1]


def test_conjecture_scan_runs_from_any_directory(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "conjecture_scan.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    got = subprocess.run([sys.executable, str(script), "--kmin", "3", "--kmax", "3",
                          "--nmax", "6", "--trials", "2"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert "worst_slack" in json.loads(got.stdout.splitlines()[-1])


# ── bench ───────────────────────────────────────────────────────────────────


@pytest.fixture()
def bench_dir(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    specs = [
        ("00_path.edges", ["gen", "--family", "path", "--n", "12"]),
        ("01_cycle.edges", ["gen", "--family", "cycle", "--n", "11"]),
        ("02_cliques.edges", ["gen", "--family", "disjoint-cliques",
                              "--sizes", "3,4"]),
        ("03_forest.dimacs", ["gen", "--family", "random-forest", "--n", "14",
                              "--seed", "2"]),
        ("04_gnp.edges", ["gen", "--family", "random-gnp", "--n", "13",
                          "--p", "0.3", "--seed", "4"]),
    ]
    for name, argv in specs:
        assert run_command(argv + ["--out", str(d / name)]) == 0
    capsys.readouterr()
    return d


def test_bench_json_report(bench_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "bench", "--dir", str(bench_dir),
                     "--out", str(out_path), "--oracle-n", "14")
    assert rc == 0 and out["graphs"] == 5
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "zeta-kit/1"
    rows = payload["rows"]
    assert [r["name"] for r in rows] == sorted(r["name"] for r in rows)
    for row in rows:
        assert row["anomalies"] == 0
        assert set(row["timing_ms"]) == {"parse", "zeta", "bounds", "greedy",
                                         "oracle"}
        assert all(isinstance(v, int) for v in row["timing_ms"].values())
        for algo, res in row["greedy"].items():
            assert res["size"] >= -(-int(res["certificate"]["approx"] // 1))
            assert "exact" in res["certificate"]
        assert row["alpha0"] is not None           # all corpus graphs small
        assert isinstance(row["family_f"], bool)
        assert "exact" in row["zeta_mean"]
    forest_row = next(r for r in rows if r["name"] == "03_forest.dimacs")
    assert "forest-k1" in forest_row["greedy"]
    path_row = next(r for r in rows if r["name"] == "00_path.edges")
    assert path_row["bounds"]["z1"]["exact"] == "6"


def test_bench_csv_report(bench_dir, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    rc, out, _ = run(capsys, "bench", "--dir", str(bench_dir),
                     "--out", str(out_path))
    assert rc == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    cols = rows[0].keys()
    assert {"name", "n", "m", "z1_exact", "z1_approx", "forest_zk_exact",
            "min_size", "forest_k1_size", "alpha0", "family_f", "ms_zeta",
            "warnings"} <= set(cols)
    for row in rows:
        if row["z1_exact"]:
            num, _, den = row["z1_exact"].partition("/")
            int(num), int(den or 1)


def test_bench_usage_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "bench", "--dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r.json"))
    assert rc == 1
    d = tmp_path / "empty"
    d.mkdir()
    rc, _, err = run(capsys, "bench", "--dir", str(d),
                     "--out", str(tmp_path / "r.json"))
    assert rc == 1
    (d / "g.edges").write_text("0 1\n")
    rc, _, err = run(capsys, "bench", "--dir", str(d),
                     "--out", str(tmp_path / "r.txt"))
    assert rc == 1 and ".json or .csv" in err
