import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import holant
from holant.cli import EXIT_EXHAUSTED, EXIT_INVALID, EXIT_OK, main, parse_graph_spec
from holant.exact import instance_decomposition
from holant.instancefile import parse_instance_document


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def model_text(args):
    code, text = run_cli(["model"] + args)
    assert code == EXIT_OK
    return text


def test_parse_graph_specs():
    assert parse_graph_spec("path:5").m == 4
    assert parse_graph_spec("grid:2x3").n == 6
    assert parse_graph_spec("cycle:4").m == 4
    assert parse_graph_spec("complete:4").m == 6
    assert parse_graph_spec("prism").n == 6
    assert parse_graph_spec("cube").m == 12
    g = parse_graph_spec("random:6:7:3")
    assert (g.n, g.m) == (6, 7)


def test_model_pipe_exact():
    text = model_text(["matchings", "--graph", "grid:3x3"])
    code, out = run_cli(["exact", "--method", "fpt"], stdin_text=text)
    assert code == EXIT_OK
    assert "value: 131" in out


def test_exact_methods_agree():
    text = model_text(["matchings", "--graph", "cycle:5"])
    values = {}
    for method in ("brute", "simple", "fpt"):
        code, out = run_cli(["exact", "--method", method], stdin_text=text)
        assert code == EXIT_OK
        values[method] = [l for l in out.splitlines() if l.startswith("value:")][0]
    assert len(set(values.values())) == 1


def test_decompose_output_format():
    text = model_text(["matchings", "--graph", "path:6"])
    code, out = run_cli(["decompose"], stdin_text=text)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("node 0 parent - V {")
    assert lines[-1].startswith("width ")


def test_decompose_prints_the_solver_decomposition():
    text = model_text(["potts", "--graph", "prism", "--q", "3", "--lambda", "2"])
    code, out = run_cli(["decompose"], stdin_text=text)
    assert code == EXIT_OK
    decomp, _ = instance_decomposition(parse_instance_document(text).to_instance(), 64)
    assert out.rstrip("\n") == decomp.to_text()


def test_gate_subcommand():
    code, out = run_cli(["gate", "potts", "--q", "10", "--delta", "3", "--beta", "1/5"])
    assert code == EXIT_OK
    assert out.startswith("satisfied: yes threshold:")
    code, out = run_cli(["gate", "colorings", "--q", "6", "--delta", "4"])
    assert out.startswith("satisfied: no")
    code, out = run_cli(["gate", "subgraphs_world", "--delta", "1", "--lambda", "1/2", "--mu", "1/2"])
    assert "27/16" in out


def test_approx_whole_radius():
    text = model_text(["matchings", "--graph", "path:5"])
    code, out = run_cli(["approx", "--eps", "1/10", "--radius", "whole"], stdin_text=text)
    assert code == EXIT_OK
    assert "value: 8" in out
    assert "certified: yes" in out


def test_oracle_subcommand():
    text = model_text(["matchings", "--graph", "path:3"])
    code, out = run_cli(["oracle", "--edge", "0"], stdin_text=text)
    assert code == EXIT_OK
    assert "p[0] = 2/3" in out and "p[1] = 1/3" in out
    code, out = run_cli(["oracle", "--edge", "0", "--cond", "1=1"], stdin_text=text)
    assert "p[0] = 1" in out


def test_invalid_input_exit_code():
    code, _ = run_cli(["exact", "--method", "brute"], stdin_text="holant 1\nq 2\nvertices 1\n")
    assert code == EXIT_INVALID  # missing function


def test_malformed_function_names_vertex():
    bad = "holant 1\nq 2\nvertices 2\nedge 0 1\nfunction 0 table 1 1\nfunction 1 table 1\n"
    code, _ = run_cli(["exact"], stdin_text=bad)
    assert code == EXIT_INVALID


def test_builtin_without_kind_exits_2(capsys):
    text = "holant 1\nq 2\nvertices 1\nfunction 0 builtin\n"
    code, _ = run_cli(["exact"], stdin_text=text)
    assert code == EXIT_INVALID
    assert "error: line 4: builtin needs a kind" in capsys.readouterr().err


def test_base_vertices_must_match_the_incidence_graph(capsys):
    # every edge of an incidence instance joins an original vertex to an edge
    # vertex; a base vertex count that breaks this is a parse error
    text = model_text(["subgraphs_world", "--graph", "path:3", "--lambda", "1/2", "--mu", "1/3"])
    assert "base_vertices=3" in text
    code, _ = run_cli(["approx", "--eps", "1/10"], stdin_text=text.replace("base_vertices=3", "base_vertices=5"))
    assert code == EXIT_INVALID
    assert "error: line 1: base_vertices=5 does not match" in capsys.readouterr().err


def test_resource_exhaustion_exit_code():
    text = model_text(["matchings", "--graph", "grid:4x5"])
    code, _ = run_cli(["exact", "--method", "brute"], stdin_text=text)
    assert code == EXIT_EXHAUSTED


def test_deep_instance_exits_without_traceback(tmp_path):
    # a 3000-vertex path is deeper than the interpreter's recursion limit; the
    # simple DP is a loop per vertex, so a fresh CLI process solves it
    path = tmp_path / "path3000.holant"
    code, _ = run_cli(["model", "matchings", "--graph", "path:3000", "-o", str(path)])
    assert code == EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holant.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "holant.cli", "exact", "--method", "simple", str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == EXIT_OK
    assert any(line.startswith("value:") for line in proc.stdout.splitlines())


def test_model_to_file_and_back(tmp_path):
    out_file = tmp_path / "inst.holant"
    code, _ = run_cli(["model", "potts", "--graph", "cycle:4", "--q", "3", "--lambda", "2", "-o", str(out_file)])
    assert code == EXIT_OK
    code, out = run_cli(["exact", "--method", "brute", str(out_file)])
    assert code == EXIT_OK
    assert "value:" in out


def test_edgelist_import(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    g = parse_graph_spec(f"edgelist:{path}")
    assert (g.n, g.m) == (3, 3)


@pytest.mark.parametrize("argv", [
    ["model", "matchings", "--graph", "path:abc"],
    ["model", "matchings", "--graph", "grid:3"],
    ["model", "matchings", "--graph", "random:5"],
    ["model", "matchings", "--graph", "edgelist:{edges}"],
    ["model", "ising", "--graph", "path:3"],
    ["model", "subgraphs_world", "--graph", "path:3", "--lambda", "1/2"],
    ["model", "potts", "--graph", "prism", "--q", "10", "--beta", "1/0"],
    ["model", "weighted_matchings", "--graph", "path:3", "--weights", "1,x"],
    ["gate", "potts", "--delta", "3", "--q", "10", "--beta", "abc"],
    ["gate", "potts", "--delta", "3", "--beta", "1"],
    ["gate", "colorings", "--delta", "3"],
    ["gate", "subgraphs_world", "--delta", "3", "--lambda", "1"],
    ["approx", "--eps", "abc", "{inst}"],
    ["approx", "--eps", "1/0", "{inst}"],
    ["approx", "--eps", "1/10", "--radius", "fixed:x", "{inst}"],
    ["oracle", "--edge", "0", "--cond", "1", "{inst}"],
    ["oracle", "--edge", "9", "{inst}"],
    ["oracle", "--edge", "0", "--cond", "7=1", "{inst}"],
    ["exact", "--sep-width", "x", "{inst}"],
], ids=" ".join)
def test_malformed_argument_exits_2(argv, tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n2\n")
    inst = tmp_path / "path4.holant"
    assert run_cli(["model", "matchings", "--graph", "path:4", "-o", str(inst)])[0] == EXIT_OK
    argv = [a.format(edges=edges, inst=inst) for a in argv]
    capsys.readouterr()
    try:
        code, _ = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("cond", ["1=5", "1=-1"])
def test_oracle_conditioning_value_outside_domain_names_the_domain(cond, capsys):
    text = model_text(["matchings", "--graph", "path:4"])
    capsys.readouterr()
    code, _ = run_cli(["oracle", "--edge", "0", "--cond", cond], text)
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert f"conditioning value {cond[2:]} outside domain [2]" in err
