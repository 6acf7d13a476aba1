"""Command-line interface: exact | approx | decompose | gate | model | oracle.

Exit codes: 0 success, 2 invalid input, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Optional

from .approx import RadiusPolicy, fptas_hol
from .errors import (
    HolantError,
    InvalidArgumentError,
    ResourceExhaustedError,
)
from .exact import FptSolver, brute_force_hol, instance_decomposition, simple_dp_hol
from .gates import gate_colorings, gate_ising, gate_potts, gate_subgraphs_world
from .graphcore import (
    Graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    prism_graph,
    random_graph,
)
from .instancefile import parse_instance, serialize_instance
from .models import ModelSpec, build_model
from .oracle import gibbs_oracle
from .values import format_value

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _read_instance(path):
    text = sys.stdin.read() if path in (None, "-") else open(path, encoding="utf-8").read()
    return parse_instance(text)


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"{what}: {text!r} is not an integer") from None


def _rational(text: Optional[str], what: str) -> Fraction:
    if text is None:
        raise InvalidArgumentError(f"{what} is required")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"{what}: {text!r} is not a rational number") from None


def parse_graph_spec(spec: str) -> Graph:
    """path:N | cycle:N | grid:RxC | complete:N | prism | cube | random:N:M[:SEED] | edgelist:PATH"""
    name, _, rest = spec.partition(":")
    what = f"graph spec {spec!r}"
    if name == "path":
        return path_graph(_integer(rest, what))
    if name == "cycle":
        return cycle_graph(_integer(rest, what))
    if name == "grid":
        rows, _, cols = rest.partition("x")
        return grid_graph(_integer(rows, what), _integer(cols, what))
    if name == "complete":
        return complete_graph(_integer(rest, what))
    if name == "prism":
        return prism_graph()
    if name == "cube":
        return cube_graph()
    if name == "random":
        parts = rest.split(":")
        if len(parts) not in (2, 3):
            raise InvalidArgumentError(f"{what}: expected random:N:M[:SEED]")
        seed = _integer(parts[2], what) if len(parts) == 3 else 0
        return random_graph(_integer(parts[0], what), _integer(parts[1], what), seed=seed)
    if name == "edgelist":
        edges = []
        top = -1
        with open(rest, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                tokens = line.split("#", 1)[0].split()
                if not tokens:
                    continue
                if len(tokens) < 2:
                    raise InvalidArgumentError(f"{rest}:{line_no}: an edge needs two vertex ids")
                u, v = (_integer(t, f"{rest}:{line_no}") for t in tokens[:2])
                edges.append((u, v))
                top = max(top, u, v)
        return Graph(top + 1, edges)
    raise InvalidArgumentError(f"unknown graph spec {spec!r}")


def _cmd_exact(args):
    instance = _read_instance(args.file)
    t0 = time.perf_counter()
    if args.method == "brute":
        value = brute_force_hol(instance)
        extra = []
    elif args.method == "simple":
        value = simple_dp_hol(instance)
        extra = []
    else:
        decomp, s_used = instance_decomposition(instance, args.sep_width)
        solver = FptSolver(instance, decomp)
        value = solver.holant()
        st = solver.stats.as_dict()
        extra = [
            f"decomposition: s={s_used} width={decomp.width} nodes={len(decomp.nodes)}",
            "memo: " + " ".join(f"{k}={v}" for k, v in st.items()),
        ]
    elapsed = time.perf_counter() - t0
    print(f"value: {format_value(value)}")
    print(f"method: {args.method}")
    print(f"time: {elapsed:.3f}s")
    for line in extra:
        print(line)
    return EXIT_OK


def _cmd_approx(args):
    instance = _read_instance(args.file)
    if args.radius == "adaptive":
        policy = RadiusPolicy.adaptive()
    elif args.radius == "whole":
        policy = RadiusPolicy.whole_graph()
    elif args.radius.startswith("fixed:"):
        policy = RadiusPolicy.fixed(_integer(args.radius.split(":", 1)[1], "--radius"))
    else:
        raise InvalidArgumentError(f"unknown radius policy {args.radius!r}")
    t0 = time.perf_counter()
    result = fptas_hol(instance, _rational(args.eps, "--eps"), policy)
    elapsed = time.perf_counter() - t0
    print(f"value: {format_value(result.value)}")
    print(f"approx: {float(result.value.real):.12g}")
    print(f"certified: {'yes' if result.certified else 'no'}")
    print(f"p_min: {result.p_min}")
    print(f"time: {elapsed:.3f}s")
    for flag in result.flags:
        print(f"flag: {flag}")
    return EXIT_OK


def _cmd_decompose(args):
    instance = _read_instance(args.file)
    decomp, _ = instance_decomposition(instance, args.sep_width)
    print(decomp.to_text())
    return EXIT_OK


def _cmd_gate(args):
    if args.model in ("potts", "colorings") and args.q is None:
        raise InvalidArgumentError(f"{args.model} gate needs --q")
    if args.model == "subgraphs_world":
        report = gate_subgraphs_world(args.delta, _rational(args.lam, "--lambda"), _rational(args.mu, "--mu"))
    elif args.model == "ising":
        report = gate_ising(args.delta, _rational(args.beta, "--beta"), _rational(args.field, "--field"))
    elif args.model == "potts":
        if args.beta is not None:
            report = gate_potts(args.delta, args.q, beta=_rational(args.beta, "--beta"))
        elif args.lam is not None:
            report = gate_potts(args.delta, args.q, lam=_rational(args.lam, "--lambda"))
        else:
            raise InvalidArgumentError("potts gate needs --beta or --lambda")
    elif args.model == "colorings":
        report = gate_colorings(args.delta, args.q)
    else:
        raise InvalidArgumentError(f"no gate for model {args.model!r}")
    print(f"satisfied: {'yes' if report.satisfied else 'no'} threshold: {report.threshold_str()}")
    print(f"form: {report.form}")
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_model(args):
    graph = parse_graph_spec(args.graph)
    params = {}
    if args.q is not None:
        params["q"] = args.q
    for key, flag, raw in (("lambda", "--lambda", args.lam), ("mu", "--mu", args.mu),
                           ("beta", "--beta", args.beta), ("B", "--field", args.field)):
        if raw is not None:
            params[key] = _rational(raw, flag)
    if args.weights is not None:
        params["edge_weights"] = [_rational(w, "--weights") for w in args.weights.split(",")]
    instance = build_model(ModelSpec(args.kind, params), graph)
    text = serialize_instance(instance)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_oracle(args):
    instance = _read_instance(args.file)
    oracle = gibbs_oracle(instance)
    if args.edge is None:
        print(f"value: {format_value(oracle.partition_value())}")
        return EXIT_OK
    cond = {}
    if args.cond:
        for part in args.cond.split(","):
            e, eq, v = part.partition("=")
            if not eq:
                raise InvalidArgumentError(f"--cond: expected e=v, got {part!r}")
            cond[_integer(e, "--cond")] = _integer(v, "--cond")
    dist = oracle.marginal(args.edge, cond)
    for i, p in enumerate(dist):
        print(f"p[{i}] = {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holant",
        description="Exact and approximate counting for Holant problems with regular symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="compute the Holant exactly")
    p.add_argument("--method", choices=["brute", "simple", "fpt"], default="fpt")
    p.add_argument("--sep-width", type=int, default=64, help="cap on the separator parameter s")
    p.add_argument("file", nargs="?", help="instance file (default: stdin)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("approx", help="approximate the Holant via correlation decay")
    p.add_argument("--eps", required=True, help="relative error target (rational)")
    p.add_argument("--radius", default="adaptive", help="adaptive | fixed:<r> | whole")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("decompose", help="print the separator decomposition the FPT solver uses")
    p.add_argument("--sep-width", type=int, default=64)
    p.add_argument("file", nargs="?")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("gate", help="check a strong-spatial-mixing parameter gate")
    p.add_argument("model", choices=["subgraphs_world", "ising", "potts", "colorings"])
    p.add_argument("--delta", type=int, required=True, help="maximum degree")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--field", default="0", help="external field B (ising)")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("model", help="build a model instance and write the instance file")
    p.add_argument("kind", choices=[
        "matchings", "perfect_matchings", "weighted_matchings",
        "colorings", "potts", "subgraphs_world", "ising",
    ])
    p.add_argument("--graph", required=True, help="path:N|cycle:N|grid:RxC|complete:N|prism|cube|random:N:M[:S]|edgelist:PATH")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--weights", default=None, help="comma-separated edge weights")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("oracle", help="exact Gibbs marginals by enumeration")
    p.add_argument("--edge", type=int, default=None)
    p.add_argument("--cond", default=None, help="comma-separated e=v pairs")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (RecursionError, MemoryError) as exc:
        print(f"error: instance too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (HolantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
