"""Seeded inputs, the requests each workload sends, and their correctness checks.

Every workload is one closed-loop client (``client.Client``): it sends the next
request only after the previous one returned.  A request asks the engine for
one value by one method (``fpt``, ``simple`` or ``fptas``); ``cli-batch`` sends
its requests through ``holant.cli.main`` in-process, the others call the
library.  Engine functions are looked up on their modules at call time, so the
traced run's wrappers see every call.  See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction

import holant
import holant.cli
import holant.exact

EPS = Fraction(1, 10)
GRID_MATCHINGS = 179788343101980135  # matchings of the 8x8 grid
SMALL_GRID_MATCHINGS = 5096  # matchings of the 3x5 grid
CLI_STRATA = tuple((2, m) for m in range(1, 15)) + tuple((3, m) for m in range(1, 10))
CLI_PER_STRATUM = 5
CLI_REQUESTS = (
    ("simple", ["exact", "--method", "simple"]),
    ("fpt", ["exact", "--method", "fpt"]),
    ("fptas", ["approx", "--eps", str(EPS)]),
)


# -- inputs -----------------------------------------------------------------

def with_edge_order(instance, order):
    """The instance whose edge i is the old edge ``order[i]``; vertex labels are kept."""
    g = instance.graph
    graph = holant.Graph(g.n, [g.edges[i] for i in order])
    return holant.HolantInstance(graph, instance.q, instance.functions, model=instance.model)


def half_edge_swaps(instance, rng):
    """Swap the two half-edge ids of each original edge of an incidence instance at random.

    ``incidence_transform`` numbers the half-edges of original edge j as 2j and
    2j+1, so this keeps the order in which the FPTAS pins original edges.
    """
    order = []
    for j in range(instance.graph.m // 2):
        pair = [2 * j, 2 * j + 1]
        rng.shuffle(pair)
        order += pair
    return order


def shuffled_edges(instance, rng):
    order = list(range(instance.graph.m))
    rng.shuffle(order)
    return order


def potts_prism_inputs(rng):
    big = holant.build_model(holant.ModelSpec("potts", {"q": 10, "beta": Fraction(1, 5)}),
                             holant.prism_graph())
    small = holant.build_model(holant.ModelSpec("potts", {"q": 3, "beta": Fraction(1, 5)}),
                               holant.prism_graph())
    order = half_edge_swaps(big, rng)
    return {"potts10": with_edge_order(big, order), "potts3": with_edge_order(small, order)}


def grid_matchings_inputs(rng):
    """The 8x8 grid with shuffled edge ids; the 3x5 grid as built.

    The FPTAS pins edges in id order, and shuffled 3x4 grids took 0.1 to 2 s,
    so the small grid keeps its edge order.
    """
    big = holant.build_model(holant.ModelSpec("matchings", {}), holant.grid_graph(8, 8))
    return {
        "grid8": with_edge_order(big, shuffled_edges(big, rng)),
        "grid3x5": holant.build_model(holant.ModelSpec("matchings", {}), holant.grid_graph(3, 5)),
    }


def _random_function(rng, q, d):
    """A random regular builtin with small nonnegative rational weights."""
    kinds = ["equality", "cyclic", "constant"]
    if q == 2:
        kinds += ["at_most_one", "exact_one", "boolean_weights"]
    kind = rng.choice(kinds)
    if kind == "equality":
        return holant.builtin("equality", q, d,
                              weights=[Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(q)])
    if kind == "cyclic":
        c = rng.randint(1, 3)
        if q == 2:
            vals = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(c)]
            if not any(vals):
                vals[0] = Fraction(1)
            return holant.builtin("cyclic", q, d, c=c, values=vals)
        values = {key: Fraction(rng.randint(0, 3), rng.randint(1, 2))
                  for key in itertools.product(range(c), repeat=q)}
        values[(0,) * q] = Fraction(1)
        return holant.builtin("cyclic", q, d, c=c, values=values)
    if kind in ("at_most_one", "exact_one"):
        return holant.builtin(kind, 2, d)
    if kind == "boolean_weights":
        vals = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(d + 1)]
        if not any(vals):
            vals[0] = Fraction(1)
        return holant.builtin("explicit_boolean_weights", 2, d, values=vals)
    weight = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    if q == 2:
        return holant.builtin("cyclic", q, d, c=1, values=[weight])
    return holant.builtin("cyclic", q, d, c=1, values={(0,) * q: weight})


def _random_instance(rng, q, m):
    """A random instance on ``m`` edges: 2..8 vertices, at most 14 (q=2) or 9 (q=3) edges."""
    n = rng.randint(next(n for n in range(2, 9) if n * (n - 1) // 2 >= m), 8)
    g = holant.random_graph(n, m, seed=rng.randint(0, 10 ** 9))
    funcs = [_random_function(rng, q, g.degree(v)) for v in range(g.n)]
    return holant.HolantInstance(g, q, funcs)


def cli_batch_inputs(rng):
    """The same number of instances for each (q, edge count): a request's cost grows with both."""
    return {"texts": [holant.serialize_instance(_random_instance(rng, q, m))
                      for _ in range(CLI_PER_STRATUM) for q, m in CLI_STRATA]}


def make_inputs(workload, seed, rep):
    """The inputs of repetition ``rep``: each repetition draws its own, all from ``seed``."""
    return INPUTS[workload](random.Random(f"{seed}/{rep}"))


INPUTS = {
    "potts-prism": potts_prism_inputs,
    "grid-matchings": grid_matchings_inputs,
    "cli-batch": cli_batch_inputs,
}


# -- requests and checks ----------------------------------------------------

def _fpt(instance):
    decomp, _ = holant.exact.instance_decomposition(instance)
    return holant.FptSolver(instance, decomp).holant()


def _relative_error(approx, exact):
    return abs((approx - exact) / exact)


def run_potts_prism(inputs, client):
    """Acceptance criterion 4 on the prism, plus the simple DP on the same Potts model at q=3."""
    _, reference = client.send("fpt", _fpt, inputs["potts10"])
    op, result = client.send("fptas", holant.fptas_hol, inputs["potts10"], EPS)
    if op.ok and reference is None:
        op.ok, op.note = False, "no exact reference"
    elif op.ok:
        err = _relative_error(result.value.as_fraction(), reference.as_fraction())
        op.ok, op.note = err <= EPS, f"relative error {float(err):.3g}"
    op, value = client.send("simple", holant.simple_dp_hol, inputs["potts3"])
    if op.ok:
        try:
            check = _fpt(inputs["potts3"])
        except Exception as exc:
            check = f"raised {type(exc).__name__}: {exc}"
        op.ok = value == check
        op.note = "" if op.ok else f"simple {value} != fpt {check}"


def run_grid_matchings(inputs, client):
    """Matchings of the 8x8 grid by both exact paths, and the FPTAS on the 3x5 grid."""
    for kind, fn in (("fpt", _fpt), ("simple", holant.simple_dp_hol)):
        op, value = client.send(kind, fn, inputs["grid8"])
        if op.ok:
            op.ok, op.note = value == GRID_MATCHINGS, f"{kind} {value}"
    op, result = client.send("fptas", holant.fptas_hol, inputs["grid3x5"], EPS)
    if op.ok:
        err = _relative_error(result.value.as_fraction(), Fraction(SMALL_GRID_MATCHINGS))
        op.ok, op.note = err <= EPS, f"relative error {float(err):.3g}"


def _cli(argv, text):
    """Run ``holant.cli.main`` on ``text`` as stdin; return (exit code, stdout)."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = holant.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _printed_value(stdout):
    for line in stdout.splitlines():
        if line.startswith("value: "):
            return Fraction(line[len("value: "):])
    return None


def run_cli_batch(inputs, client):
    """Three requests per instance; every outcome but the ones below counts as failed.

    ``exact`` must exit 0 and both methods must print the same value; ``approx``
    must exit 0 within EPS of it, or exit 2 when the exact value is 0.
    """
    for text in inputs["texts"]:
        got = {}
        ops = []
        for kind, argv in CLI_REQUESTS:
            op, out = client.send(kind, _cli, argv, text)
            code, stdout = out if op.ok else (None, "")
            if op.ok:
                op.note = f"exit {code}"
            ops.append(op)
            got[kind] = (code, _printed_value(stdout) if code == 0 else None)
        simple, fpt, fptas = ops
        exact = got["simple"][1]
        simple.ok = simple.ok and got["simple"][0] == 0 and exact is not None
        fpt.ok = fpt.ok and simple.ok and got["fpt"] == got["simple"]
        code, approx = got["fptas"]
        if not (fptas.ok and simple.ok):
            fptas.ok = False
        elif exact == 0:
            fptas.ok = code == 2 or (code == 0 and approx == 0)
        else:
            fptas.ok = code == 0 and approx is not None and _relative_error(approx, exact) <= EPS


RUNS = {
    "potts-prism": run_potts_prism,
    "grid-matchings": run_grid_matchings,
    "cli-batch": run_cli_batch,
}
