"""Model builders: matchings, colorings, Potts, subgraphs world, and Ising.

Spin models are represented on the incidence graph (keeping all arithmetic
rational); matchings live on the graph directly.  Ising instances are the
subgraphs world at lambda = tanh(beta), mu = tanh(B) supplied as rational
approximants at a configurable precision, with the scalar prefactor
M = 2^n cosh(beta)^m cosh(B)^n restoring the Ising partition function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import InvalidArgumentError
from .graphcore import Graph, HolantInstance, incidence_transform, paired_incidence
from .symfun import SymmetricFunction, builtin, compositions
from .values import ONE, ZERO, GaussianRational, as_value

MODEL_KINDS = (
    "matchings",
    "perfect_matchings",
    "weighted_matchings",
    "colorings",
    "potts",
    "subgraphs_world",
    "ising",
)

DEFAULT_APPROXIMANT_BITS = 128


@dataclass
class ModelSpec:
    """A named counting model with exact-rational (or rational-approximant) parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    base_graph: Optional[Graph] = None  # the spin-world graph for incidence models

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidArgumentError(f"unknown model kind {self.kind!r}")


def mpf_to_fraction(x) -> Fraction:
    """Exact Fraction of an mpmath float (every finite mpf is m * 2^e)."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man << exp)
    return Fraction(man, 1 << -exp)


def rational_tanh(x: Fraction, bits: int = DEFAULT_APPROXIMANT_BITS) -> Fraction:
    with mpmath.workprec(bits):
        return mpf_to_fraction(mpmath.tanh(mpmath.mpf(x.numerator) / x.denominator))


def rational_cosh(x: Fraction, bits: int = DEFAULT_APPROXIMANT_BITS) -> Fraction:
    with mpmath.workprec(bits):
        return mpf_to_fraction(mpmath.cosh(mpmath.mpf(x.numerator) / x.denominator))


def rational_exp(x: Fraction, bits: int = DEFAULT_APPROXIMANT_BITS) -> Fraction:
    with mpmath.workprec(bits):
        return mpf_to_fraction(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))


def _potts_edge_function(q, lam) -> SymmetricFunction:
    table = []
    for comp in compositions(q, 2):
        table.append(as_value(lam) if 2 in comp else ONE)
    return SymmetricFunction(q, 2, table)


def _unit_vertex_function(q) -> SymmetricFunction:
    return SymmetricFunction(q, 1, [ONE] * q)


def _required(params, key, kind):
    if key not in params:
        raise InvalidArgumentError(f"{kind} needs {key}")
    return params[key]


def build_model(spec: ModelSpec, graph: Graph) -> HolantInstance:
    """Build the Holant instance for a model on a graph.

    The instance carries its own copy of the spec as provenance (plus the
    spin-world graph for incidence models), so a spec may be reused.
    """
    kind = spec.kind
    p = spec.params

    if kind == "matchings":
        funcs = [builtin("at_most_one", 2, graph.degree(v)) for v in range(graph.n)]
        inst = HolantInstance(graph, 2, funcs)

    elif kind == "perfect_matchings":
        funcs = [builtin("exact_one", 2, graph.degree(v)) for v in range(graph.n)]
        inst = HolantInstance(graph, 2, funcs)

    elif kind == "weighted_matchings":
        weights = p.get("edge_weights")
        if weights is None or len(weights) != graph.m:
            raise InvalidArgumentError(f"need {graph.m} edge weights")
        weights = [Fraction(w) for w in weights]
        if any(w <= 0 for w in weights):
            raise InvalidArgumentError("edge weights must be positive")
        inst = paired_incidence(graph, 2,
                                [builtin("at_most_one", 2, graph.degree(v)) for v in range(graph.n)],
                                [from_pair_weights(ONE, ZERO, as_value(w)) for w in weights])

    elif kind == "colorings":
        q = int(p.get("q", 0))
        if q < 2:
            raise InvalidArgumentError("colorings needs q >= 2")
        inst = incidence_transform(q, graph, _potts_edge_function(q, 0), _unit_vertex_function(q))

    elif kind == "potts":
        q = int(p.get("q", 0))
        if q < 2:
            raise InvalidArgumentError("potts needs q >= 2")
        if "lambda" in p:
            lam = Fraction(p["lambda"])
        elif "beta" in p:
            bits = int(p.get("precision", DEFAULT_APPROXIMANT_BITS))
            lam = rational_exp(Fraction(p["beta"]), bits)
        else:
            raise InvalidArgumentError("potts needs lambda or beta")
        if lam <= 0:
            raise InvalidArgumentError("potts needs lambda > 0")
        inst = incidence_transform(q, graph, _potts_edge_function(q, lam), _unit_vertex_function(q))

    elif kind == "subgraphs_world":
        lam, mu = Fraction(_required(p, "lambda", kind)), Fraction(_required(p, "mu", kind))
        if lam <= 0 or mu <= 0:
            raise InvalidArgumentError("subgraphs world needs lambda, mu > 0")
        inst = _subgraphs_world_instance(graph, lam, mu)

    elif kind == "ising":
        beta, b_field = Fraction(_required(p, "beta", kind)), Fraction(p.get("B", 0))
        if beta <= 0 or b_field <= 0:
            raise InvalidArgumentError("ising (via subgraphs world) needs beta, B > 0")
        bits = int(p.get("precision", DEFAULT_APPROXIMANT_BITS))
        lam = rational_tanh(beta, bits)
        mu = rational_tanh(b_field, bits)
        inst = _subgraphs_world_instance(graph, lam, mu)

    else:  # unreachable: guarded by ModelSpec
        raise InvalidArgumentError(f"unknown model kind {kind!r}")

    provenance = ModelSpec(kind, dict(p))
    provenance.base_graph = graph if inst.graph is not graph else None
    inst.model = provenance
    return inst


def from_pair_weights(v0, v_mixed, v2) -> SymmetricFunction:
    """Binary q=2 function [v0, v_mixed, v2] in boolean-weight notation."""
    return builtin("explicit_boolean_weights", 2, 2, values=[v0, v_mixed, v2])


def _subgraphs_world_instance(graph, lam, mu) -> HolantInstance:
    vertex_fns = [
        builtin("cyclic", 2, graph.degree(v), c=2, values=[1, mu]) for v in range(graph.n)
    ]
    edge_fn = from_pair_weights(ONE, ZERO, as_value(lam))
    return paired_incidence(graph, 2, vertex_fns, [edge_fn] * graph.m)


def ising_prefactor(graph: Graph, beta, b_field, bits: int = DEFAULT_APPROXIMANT_BITS) -> GaussianRational:
    """M = 2^n cosh(beta)^m cosh(B)^n relating Z_Ising to the subgraphs-world Holant.

    Built from rational cosh approximants at the requested precision; verified
    against brute force in the tests.
    """
    beta, b_field = Fraction(beta), Fraction(b_field)
    ch_beta = rational_cosh(beta, bits)
    ch_b = rational_cosh(b_field, bits)
    value = Fraction(2) ** graph.n * ch_beta ** graph.m * ch_b ** graph.n
    return GaussianRational(value)
