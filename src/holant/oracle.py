"""Brute-force Gibbs oracles and reference recursions for the tests and desk checking.

Everything here works directly from the definitions, kept deliberately
independent of the solver implementations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

import mpmath

from .errors import FailedPreconditionError, InvalidArgumentError, ResourceExhaustedError
from .exact import brute_force_hol, enumeration_cap_bits
from .graphcore import Graph, HolantInstance, vertex_boundary
from .sepdecomp import SeparatorDecomposition, validate
from .symfun import SymmetricFunction, peer_partition
from .values import ONE, ZERO, GaussianRational


class GibbsOracle:
    """Exact Gibbs measure of a feasible nonnegative instance, by enumeration."""

    def __init__(self, instance: HolantInstance, cap_bits: Optional[int] = None):
        g = instance.graph
        cap = enumeration_cap_bits() if cap_bits is None else cap_bits
        if g.m * math.log2(instance.q) > cap:
            raise ResourceExhaustedError(
                f"Gibbs enumeration needs {g.m * math.log2(instance.q):.1f} bits > cap {cap}"
            )
        self.instance = instance
        self.weights = {}
        total = ZERO
        for config in product(range(instance.q), repeat=g.m):
            w = instance.weight(config)
            if w:
                self.weights[config] = w
                total = total + w
        self.total = total

    def partition_value(self) -> GaussianRational:
        return self.total

    def marginal(self, e: int, cond: Optional[Mapping[int, int]] = None) -> list[Fraction]:
        """Exact conditional distribution of edge e given a partial configuration."""
        cond = dict(cond or {})
        m = self.instance.graph.m
        for c in (e, *cond):
            if not 0 <= c < m:
                raise InvalidArgumentError(f"edge {c} out of range for {m} edges")
        q = self.instance.q
        for val in cond.values():
            if not 0 <= val < q:
                raise InvalidArgumentError(f"conditioning value {val} outside domain [{q}]")
        mass = [ZERO] * q
        total = ZERO
        for config, w in self.weights.items():
            if any(config[c] != val for c, val in cond.items()):
                continue
            mass[config[e]] = mass[config[e]] + w
            total = total + w
        if not total:
            raise FailedPreconditionError("conditioning event has zero mass")
        return [(m / total).as_fraction() for m in mass]


def gibbs_oracle(instance: HolantInstance, cap_bits: Optional[int] = None) -> GibbsOracle:
    return GibbsOracle(instance, cap_bits)


def literal_recursion_hol(instance: HolantInstance, decomposition: SeparatorDecomposition) -> GaussianRational:
    """The separator-decomposition recursion, enumerated as it is stated.

    At a node U with children U1, U2 and separator S, every core vertex v in
    S u dU carries g_v (f_v on S, its boundary constraint on dU) and has d1 and
    d2 edges into U1 and U2, d0 = arity - d1 - d2 into the core.  Z(U, phi)
    sums, over every choice of peer classes (c0, c1, c2) of each g_v at
    arities (d0, d1, d2), zero terms included, Z0 * Z1 * Z2 * prod_v
    g_v(r0 + r1 + r2), where the r are the class representatives, Z0 is the
    brute-force Holant of the core edges touching S with c0 at each vertex,
    and Z1, Z2 recurse with the c1, c2 classes as boundary constraints.  Every
    boundary constraint must be a union of peer classes of its vertex's own
    function.  Exponential in the width; a cross-check for small instances.
    """
    g, q, funcs, nodes = instance.graph, instance.q, instance.functions, decomposition.nodes
    err = validate(g, decomposition)
    if err is not None:
        raise InvalidArgumentError(f"invalid decomposition: {err}")
    memo = {}

    def z(node_id, phi):  # phi: vertex of dU -> its boolean boundary constraint
        node = nodes[node_id]
        if node.is_leaf():
            return ONE
        key = (node_id, tuple(sorted((v, c.uid) for v, c in phi.items())))
        if key in memo:
            return memo[key]
        for v, c in phi.items():
            for cls in peer_partition(funcs[v], c.k).classes:
                if cls.members & c.members and not cls.members <= c.members:
                    raise AssertionError(f"constraint at vertex {v} is not a union of peer classes")
        u1, u2 = (nodes[c].v_set for c in node.children)
        core = sorted(node.s_set | vertex_boundary(g, node.v_set))
        pos = {v: i for i, v in enumerate(core)}
        h0 = Graph(len(core), [(pos[a], pos[b]) for a, b in g.edges
                               if a in pos and b in pos and (a in node.s_set or b in node.s_set)])
        choices, on1, on2 = [], [], []
        for v in core:
            gv = funcs[v] if v in node.s_set else phi[v].to_function()
            d1 = sum(u in u1 for u in g.neighbors(v))
            d2 = sum(u in u2 for u in g.neighbors(v))
            parts = [peer_partition(gv, d) for d in (gv.d - d1 - d2, d1, d2)]
            choices.append([
                (c0, c1, c2, gv.value_at(tuple(map(sum, zip(r0, r1, r2)))))
                for (c0, r0), (c1, r1), (c2, r2) in product(
                    *(zip(p.classes, p.representatives) for p in parts))
            ])
            on1.append(d1 > 0)
            on2.append(d2 > 0)
        total = ZERO
        for joint in product(*choices):
            term = brute_force_hol(HolantInstance(h0, q, [t[0].to_function() for t in joint]))
            for t in joint:
                term = term * t[3]
            phi1 = {v: t[1] for v, t, keep in zip(core, joint, on1) if keep}
            phi2 = {v: t[2] for v, t, keep in zip(core, joint, on2) if keep}
            total = total + term * z(node.children[0], phi1) * z(node.children[1], phi2)
        memo[key] = total
        return total

    return z(decomposition.root.id, {})


def spin_partition_brute(
    graph: Graph, q: int, edge_function: SymmetricFunction, vertex_function: SymmetricFunction
) -> GaussianRational:
    """Direct spin-system partition function: sum over vertex spin assignments."""
    if edge_function.d != 2 or vertex_function.d != 1:
        raise InvalidArgumentError("need a binary edge function and a unary vertex function")
    total = ZERO
    for spins in product(range(q), repeat=graph.n):
        term = ONE
        for v in range(graph.n):
            term = term * vertex_function.value_of_tuple((spins[v],))
            if not term:
                break
        else:
            for u, w in graph.edges:
                term = term * edge_function.value_of_tuple((spins[u], spins[w]))
                if not term:
                    break
        if term:
            total = total + term
    return total


def subgraphs_world_brute(graph: Graph, lam, mu) -> GaussianRational:
    """Direct subgraphs-world partition function: sum over edge subsets of
    mu^(#odd-degree vertices) * lambda^(#edges)."""
    lam, mu = Fraction(lam), Fraction(mu)
    lam_pow = [Fraction(1)]
    for _ in range(graph.m):
        lam_pow.append(lam_pow[-1] * lam)
    mu_pow = [Fraction(1)]
    for _ in range(graph.n):
        mu_pow.append(mu_pow[-1] * mu)
    parity_masks = [0] * graph.m  # vertex-parity bitmask flipped by each edge
    for e, (u, w) in enumerate(graph.edges):
        parity_masks[e] = (1 << u) | (1 << w)
    total = Fraction(0)
    for mask in range(1 << graph.m):
        parity = 0
        size = 0
        for e in range(graph.m):
            if mask >> e & 1:
                size += 1
                parity ^= parity_masks[e]
        total += mu_pow[bin(parity).count("1")] * lam_pow[size]
    return GaussianRational(total)


def ising_partition_mpf(graph: Graph, beta, b_field, bits: int = 128):
    """Z_Ising over {-1,+1} spins, evaluated in mpmath floats at the given precision."""
    beta, b_field = Fraction(beta), Fraction(b_field)
    with mpmath.workprec(bits):
        bb = mpmath.mpf(beta.numerator) / beta.denominator
        hh = mpmath.mpf(b_field.numerator) / b_field.denominator
        total = mpmath.mpf(0)
        for mask in range(1 << graph.n):
            spins = [1 if mask >> v & 1 else -1 for v in range(graph.n)]
            energy = sum(bb * spins[u] * spins[w] for u, w in graph.edges)
            energy += sum(hh * s for s in spins)
            total += mpmath.exp(energy)
        return total
