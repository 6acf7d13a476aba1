import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

import holant
from holant.cli import EXIT_EXHAUSTED, EXIT_INVALID, EXIT_OK, main, parse_graph_spec
import holant.exact
from holant.exact import instance_decomposition
from holant.instancefile import parse_instance, parse_instance_document, serialize_instance
from holant.values import parse_value


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


def test_incidence_model_line_on_a_graph_without_the_layout():
    # a graph that does not follow the incidence layout: the model line is
    # provenance only, and every command reads the tables
    text = model_text(["matchings", "--graph", "cycle:4"])
    text = text.replace("model matchings", "model subgraphs_world lambda=1/2 mu=1/3")
    for argv in (["exact"], ["decompose"]):
        assert run_cli(argv, stdin_text=text)[0] == EXIT_OK
    code, out = run_cli(["approx", "--eps", "1/10"], stdin_text=text)
    assert code == EXIT_OK and "approx: 7\n" in out


def test_model_line_that_does_not_match_the_tables():
    # perfect matchings of C4 under a matchings line: no edge selected, the
    # matchings' smallest configuration, has weight zero here, so only the
    # tables may decide
    text = model_text(["perfect_matchings", "--graph", "cycle:4"])
    text = text.replace("model perfect_matchings", "model matchings")
    code, out = run_cli(["exact"], stdin_text=text)
    assert code == EXIT_OK and "value: 2\n" in out
    code, out = run_cli(["approx", "--eps", "1/10"], stdin_text=text)
    assert code == EXIT_OK and "approx: 2\n" in out


def test_absurd_model_line_parameters_cost_nothing():
    # no command builds the model its line names, so a beta whose weights
    # would not fit in memory is only text
    text = model_text(["potts", "--graph", "cycle:3", "--q", "3", "--beta", "1/5"])
    text = text.replace("model potts beta=1/5 q=3", "model potts q=3 beta=100000000000 precision=3")
    code, out = run_cli(["approx", "--eps", "1/10"], stdin_text=text)
    assert code == EXIT_OK and "approx: " in out


def test_files_that_are_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"holant 1\n\xff\xfe\x00\n")
    for argv in (["exact", str(path)], ["model", "matchings", "--graph", f"edgelist:{path}"]):
        code, _ = run_cli(argv)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_weighted_matchings_model_line_round_trips():
    text = model_text(["weighted_matchings", "--graph", "path:3", "--weights", "1,2"])
    assert "\nmodel weighted_matchings edge_weights=1,2\n" in text
    code, out = run_cli(["exact"], stdin_text=text)
    assert code == EXIT_OK and "value: 4\n" in out
    assert run_cli(["approx", "--eps", "1/10"], stdin_text=text)[0] == EXIT_OK
    assert serialize_instance(parse_instance_document(text)) == text


def test_model_line_errors_carry_its_line_number(capsys):
    text = "holant 1\nq 2\nvertices 2\nedge 0 1\nmodel banana\nfunction 0 table 1 1\nfunction 1 table 1 1\n"
    code, _ = run_cli(["exact"], stdin_text=text)
    assert code == EXIT_INVALID
    assert "error: line 5: " in capsys.readouterr().err


def test_resource_exhaustion_exit_code():
    text = model_text(["matchings", "--graph", "grid:4x5"])
    code, _ = run_cli(["exact", "--method", "brute"], stdin_text=text)
    assert code == EXIT_EXHAUSTED


def test_sweep_over_the_state_cap_exits_3(monkeypatch, capsys):
    # the 8x8 grid's matchings need hundreds of states in a level of the
    # edge-order pass; under a cap of 64 the pass stops at the first level
    # past it
    text = model_text(["matchings", "--graph", "grid:8x8"])
    monkeypatch.setattr(holant.exact, "STATE_CAP", 64)
    t0 = time.perf_counter()
    code, _ = run_cli(["exact", "--method", "simple"], stdin_text=text)
    assert time.perf_counter() - t0 < 5
    assert code == EXIT_EXHAUSTED
    assert "exceeds 64 states" in capsys.readouterr().err


def test_simple_method_ignores_the_input_labels():
    # the pass runs in its own frontier order, so shuffled vertex labels
    # leave the 8x8 grid's levels small
    grid = holant.grid_graph(8, 8)
    rng = random.Random(8)
    perm = list(range(grid.n))
    rng.shuffle(perm)
    graph = holant.Graph(grid.n, [(perm[u], perm[w]) for u, w in grid.edges])
    inst = holant.HolantInstance(graph, 2, [holant.builtin("at_most_one", 2, graph.degree(v))
                                            for v in range(graph.n)])
    text = serialize_instance(inst)
    t0 = time.perf_counter()
    code, out = run_cli(["exact", "--method", "simple"], stdin_text=text)
    assert time.perf_counter() - t0 < 1
    assert code == EXIT_OK
    assert "value: 179788343101980135" in out


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


def _printed(out, key):
    return next(line[len(key) + 2:] for line in out.splitlines() if line.startswith(key + ": "))


def _matchings_of_path(n):
    """The number of matchings of the n-vertex path: the Fibonacci number F(n + 1)."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def test_exact_value_longer_than_the_int_str_limit_prints_in_full():
    # Potts on a path: each of the 199 edges multiplies by lambda + q - 1, and
    # lambda = e^(1/5) carries a 128-bit approximant, so the value has more
    # digits than CPython converts between int and str by default
    text = model_text(["potts", "--graph", "path:200", "--q", "3", "--beta", "1/5"])
    lam = parse_instance(text).functions[200].value_at((2, 0, 0))
    want = 3 * (lam + 2) ** 199
    code, out = run_cli(["exact", "--method", "simple"], stdin_text=text)
    assert code == EXIT_OK
    printed = _printed(out, "value")
    assert len(printed) > sys.get_int_max_str_digits() and parse_value(printed) == want


@pytest.mark.parametrize("n", [500, 3000])
def test_approx_of_a_long_path_is_exact(n):
    # the default walks the path's edge-order table, so the estimate is the
    # exact count; F(3001) is past the range of a float
    text = model_text(["matchings", "--graph", f"path:{n}"])
    code, out = run_cli(["approx", "--eps", "1/10"], stdin_text=text)
    assert code == EXIT_OK
    want = _matchings_of_path(n)
    assert parse_value(_printed(out, "value")) == want
    assert _printed(out, "certified") == "yes"
    assert _printed(out, "approx").replace(".", "")[:6] == str(want)[:6]


def test_table_literal_longer_than_the_int_str_limit_parses():
    big = "7" * 5000
    text = f"holant 1\nq 2\nvertices 2\nedge 0 1\nfunction 0 table 1 {big}\nfunction 1 table 1 1\n"
    code, out = run_cli(["exact", "--method", "simple"], stdin_text=text)
    assert code == EXIT_OK
    assert _printed(out, "value") == "7" * 4999 + "8"


def test_model_parameter_longer_than_the_int_str_limit_round_trips(capsys):
    big = "7" * 5000
    text = model_text(["potts", "--graph", "path:3", "--q", "3", "--lambda", big])
    assert f"\nmodel potts lambda={big} q=3\n" in text
    doc = parse_instance_document(text)
    assert doc.model_spec.params["lambda"] == parse_value(big)
    assert serialize_instance(doc) == text
    assert run_cli(["exact"], stdin_text=text)[0] == EXIT_OK
    # a malformed literal of any length exits 2, and the message quotes only
    # a prefix of it
    code, _ = run_cli(["model", "potts", "--graph", "path:3", "--q", "3", "--lambda", big + "x"])
    assert code == EXIT_INVALID
    code, _ = run_cli(["exact"], stdin_text=text.replace(f"lambda={big}", f"lambda={big}x"))
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and len(err) < 400


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("exact", "approx", "decompose", "gate", "model", "oracle"):
        assert name in out


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["exact", "--bogus"], ["approx"], ["gate", "potts"]],
                         ids=["none", "unknown", "bad-option", "missing-eps", "missing-delta"])
def test_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
