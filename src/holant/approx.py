"""Correlation-decay approximation: r-ball marginals and the self-reduction FPTAS.

The FPTAS pins edges in id order, each to the value of largest conditional
marginal, and divides the chosen configuration's weight by the product of the
recorded probabilities.  Its marginals come from one of two routes.

The edge-order table (``exact.EdgeOrderTable``) serves the adaptive policy,
the default.  At step k the pins are exactly the edges before k, so one table
of backward sums over the edges in id order gives every step's exact
marginal, q entries per step.  The table's total decides feasibility, so this
route runs no completion search.  The result is then the exact Holant.  A
table step is recorded as a whole-graph step: r_used = radii[0] = max(1, m),
no gaps, full cover, not stabilized.  ``ApproxResult.table_states`` counts the
table's states.  Over ``STATE_CAP`` states the build raises, and the balls run.

The balls serve fixed radii, ``RadiusPolicy.whole_graph()`` and instances over
the table's budget.  A conditional edge marginal is estimated from the r-ball
around the edge: the fringe just outside the ball is fixed to a feasible fill
obtained from a tractable-search completion, the ball is restricted once, and
one exact pass over it (``exact.edge_numerators``) gives the q numerators,
whose ratios are the estimate.  The pass carries the edge's value in a vector
of weights, one weight per block of the ball's domain symmetry, expanded to q
numerators at the end, and merges states equal up to a domain relabelling that
fixes every function of the ball.  Under the adaptive policy the radius
doubles until consecutive distributions agree within the stabilization
tolerance.  Every fringe fill is the smallest feasible extension of the pins
so far (``tractable_search``), so a step whose chosen value is the fill's own
asks no completion question at all.  The whole-graph balls are an independent
reference for the table.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    FailedPreconditionError,
    InfeasibleBoundaryError,
    InfeasibleInstanceError,
    InvalidArgumentError,
    ResourceExhaustedError,
)
from .exact import EdgeOrderTable, auto_hol, edge_numerators
from .graphcore import HolantInstance, edge_ball, restrict_instance
from .symfun import pin
from .values import GaussianRational, format_value


# ---------------------------------------------------------------------------
# radius policy

@dataclass(frozen=True)
class RadiusPolicy:
    """How far marginal estimation looks: a fixed radius or adaptive doubling."""

    mode: str = "adaptive"
    r_fixed: Optional[int] = None
    delta_stab: Optional[Fraction] = None

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise InvalidArgumentError(f"unknown radius mode {self.mode!r}")
        if self.mode == "fixed" and self.r_fixed is not None and self.r_fixed < 0:
            raise InvalidArgumentError("fixed radius must be >= 0")
        if self.delta_stab is not None and self.delta_stab <= 0:
            raise InvalidArgumentError("stabilization tolerance must be > 0")

    @staticmethod
    def fixed(r: int) -> "RadiusPolicy":
        return RadiusPolicy(mode="fixed", r_fixed=r)

    @staticmethod
    def adaptive(delta_stab: Optional[Fraction] = None) -> "RadiusPolicy":
        return RadiusPolicy(mode="adaptive", delta_stab=delta_stab)

    @staticmethod
    def whole_graph() -> "RadiusPolicy":
        """Fixed radius large enough to always cover the edge's whole component:
        max(1, m), since every line-graph distance is below m."""
        return RadiusPolicy(mode="fixed", r_fixed=None)


# ---------------------------------------------------------------------------
# tractable search

def _values_real_nonnegative(instance) -> bool:
    return all(
        not v.im and v.re >= 0 for f in dict.fromkeys(instance.functions) for v in f.table
    )


def tractable_search(instance: HolantInstance, partial: Mapping[int, int]) -> Optional[dict]:
    """The lexicographically smallest feasible extension of a partial edge
    configuration, in edge-id order, or None when no extension is feasible.

    A greedy walk pins each free edge, in id order, to the smallest value that
    leaves both endpoint functions nonzero: some values of their free edges
    still give a nonzero value.  Every feasible extension passes each of these
    local tests, so a walk that reaches the last edge has found the smallest
    one.  At a dead end the search falls back to extension testing: the same
    greedy order, with each value checked by an exact positivity test of the
    restricted Holant, which is sound because the values are nonnegative.
    """
    g = instance.graph
    q = instance.q
    for e, val in partial.items():
        if not 0 <= e < g.m:
            raise InvalidArgumentError(f"partial assigns out-of-range edge {e}")
        if not 0 <= val < q:
            raise InvalidArgumentError(f"partial value {val} outside domain [{q}]")
    if not _values_real_nonnegative(instance):
        raise InvalidArgumentError("tractable search needs nonnegative real function values")
    functions = instance.functions
    kappa = [[0] * q for _ in range(g.n)]  # per vertex: the composition of its pinned edges
    for e, val in partial.items():
        for v in g.endpoints(e):
            kappa[v][val] += 1
    if any(pin(functions[v], kappa[v]).is_zero_function() for v in range(g.n)):
        return None
    out = dict(partial)
    for e in range(g.m):
        if e in out:
            continue
        u, w = g.endpoints(e)
        for i in range(q):
            kappa[u][i] += 1
            kappa[w][i] += 1
            if not (pin(functions[u], kappa[u]).is_zero_function()
                    or pin(functions[w], kappa[w]).is_zero_function()):
                out[e] = i
                break
            kappa[u][i] -= 1
            kappa[w][i] -= 1
        else:
            return _complete_by_checks(instance, partial)
    return out


def _restricted_positive(instance, pins) -> bool:
    keep = [e for e in range(instance.graph.m) if e not in pins]
    sub = restrict_instance(instance, pins, keep)
    if not sub.scalar:
        return False
    return bool(auto_hol(sub.as_instance()))


def _complete_by_checks(instance, partial):
    pins = dict(partial)
    if not _restricted_positive(instance, pins):
        return None
    for e in range(instance.graph.m):
        if e in pins:
            continue
        for i in range(instance.q):
            pins[e] = i
            if _restricted_positive(instance, pins):
                break
            del pins[e]
        else:
            return None  # cannot happen after the positivity check above
    return pins


# ---------------------------------------------------------------------------
# marginal estimation

@dataclass
class MarginalReport:
    r_used: int
    radii: tuple = ()
    gaps: tuple = ()  # (radius, total-variation gap to the previous radius)
    stabilized: bool = False
    full_cover: bool = False

    @property
    def certified(self) -> bool:
        return self.stabilized or self.full_cover


def _ball_distribution(instance, e, cond, completion, r):
    """Exact conditional distribution of edge e on the radius-r restriction.

    The ball keeps e: one restriction fixes the fringe and the conditioned
    edges, and one pass returns the numerators for every value of e at once,
    with e's value in the weights, not in the states, and the states lifted
    over the ball's domain symmetry.  The pass carries one weight per block
    of that symmetry, expanded to the q numerators at the end.
    """
    ball, fringe = edge_ball(instance.graph, e, r)
    fix = {}
    for b in fringe:
        fix[b] = cond[b] if b in cond else completion[b]
    for c_edge, val in cond.items():
        if c_edge in ball:
            fix[c_edge] = val
    keep = sorted(ball - set(fix))
    sub = restrict_instance(instance, fix, keep)
    z = edge_numerators(sub.as_instance(), keep.index(e))
    numerators = [(sub.scalar * zi).as_fraction() for zi in z]
    total = sum(numerators)
    if total == 0:
        raise InfeasibleBoundaryError(
            f"boundary fill gives zero mass around edge {e} at radius {r}"
        )
    full_cover = all(b in cond for b in fringe)
    return [num / total for num in numerators], full_cover


def _tv_distance(p, r):
    return sum(abs(a - b) for a, b in zip(p, r)) / 2


def marginal_distribution(
    instance: HolantInstance,
    e: int,
    cond: Mapping[int, int],
    policy: RadiusPolicy,
    *,
    completion: Optional[Mapping[int, int]] = None,
) -> tuple[list[Fraction], MarginalReport]:
    """All q conditional marginals of edge e (they share one denominator and sum to 1).

    ``completion`` is a feasible full configuration that agrees with ``cond``;
    it fills the ball's fringe.  Without one, ``tractable_search`` finds it.
    """
    g = instance.graph
    if not 0 <= e < g.m:
        raise InvalidArgumentError(f"edge {e} out of range")
    if e in cond:
        dist = [Fraction(i == cond[e]) for i in range(instance.q)]
        return dist, MarginalReport(r_used=0, stabilized=True, full_cover=True)
    if completion is None:
        completion = tractable_search(instance, dict(cond))
        if completion is None:
            raise FailedPreconditionError("conditioning configuration is infeasible")
    if policy.mode == "fixed":
        r = max(1, g.m) if policy.r_fixed is None else policy.r_fixed
        dist, full = _ball_distribution(instance, e, cond, completion, r)
        return dist, MarginalReport(r_used=r, radii=(r,), full_cover=full)

    delta = policy.delta_stab if policy.delta_stab is not None else Fraction(1, 64)
    prev = None
    radii = []
    gaps = []
    small_gaps = 0
    r = 1
    while True:  # ends by r = 2m at the latest: the ball then has no fringe
        dist, full = _ball_distribution(instance, e, cond, completion, r)
        radii.append(r)
        if full:
            # the ball covers everything not conditioned; the estimate is exact
            return dist, MarginalReport(
                r_used=r, radii=tuple(radii), gaps=tuple(gaps),
                stabilized=bool(gaps) and gaps[-1][1] <= delta, full_cover=True,
            )
        if prev is not None:
            gap = _tv_distance(dist, prev)
            gaps.append((r, gap))
            # one small gap can be an artifact of slow ball growth; demand two
            small_gaps = small_gaps + 1 if gap <= delta else 0
            if small_gaps >= 2:
                return dist, MarginalReport(
                    r_used=r, radii=tuple(radii), gaps=tuple(gaps),
                    stabilized=True, full_cover=False,
                )
        prev = dist
        r *= 2


def estimate_marginal(
    instance: HolantInstance,
    e: int,
    cond: Mapping[int, int],
    i: int,
    policy: RadiusPolicy,
) -> Fraction:
    """Estimated conditional probability that edge e takes value i."""
    if not 0 <= i < instance.q:
        raise InvalidArgumentError(f"value {i} outside domain [{instance.q}]")
    dist, _ = marginal_distribution(instance, e, cond, policy)
    return dist[i]


# ---------------------------------------------------------------------------
# the self-reduction FPTAS

@dataclass
class StepRecord:
    edge: int
    chosen: int
    probability: Fraction
    report: MarginalReport


@dataclass
class ApproxResult:
    value: GaussianRational
    certified: bool
    p_min: Fraction
    epsilon: Fraction
    steps: list = field(default_factory=list)
    flags: tuple = ()
    table_states: Optional[int] = None  # the edge-order table's states; None when the balls ran

    def __repr__(self):
        tag = "certified" if self.certified else "non-certified"
        return f"ApproxResult({self.value}, {tag}, p_min={self.p_min})"


def _table_steps(table, m):
    """The walk of ``table`` by the FPTAS rule.  Every marginal is exact, so
    the argmax value always extends and needs no completion question; each
    step is recorded as a ``RadiusPolicy.whole_graph()`` step is."""
    r = max(1, m)
    steps = []

    def choose(e, numerators):
        # the marginals share the denominator sum(numerators) > 0, so the
        # largest numerator is the largest marginal
        chosen = min(range(len(numerators)), key=lambda i: (-numerators[i], i))
        report = MarginalReport(r_used=r, radii=(r,), full_cover=True)
        probability = Fraction(numerators[chosen]) / sum(numerators)
        steps.append(StepRecord(edge=e, chosen=chosen, probability=probability, report=report))
        return chosen

    table.walk(choose)
    return steps


def _ball_steps(instance, policy, completion):
    """The FPTAS steps from ball marginals under ``policy``, and their flags."""
    q = instance.q
    pins: dict[int, int] = {}
    steps = []
    flags = []
    for e in range(instance.graph.m):
        dist, report = marginal_distribution(instance, e, pins, policy, completion=completion)
        order = sorted(range(q), key=lambda i: (-dist[i], i))
        chosen = None
        for i in order:
            if dist[i] == 0:
                break
            if i == completion[e]:
                chosen = i
                break
            nxt = tractable_search(instance, {**pins, e: i})
            if nxt is not None:
                chosen, completion = i, nxt
                break
        if chosen is None:
            raise InfeasibleBoundaryError(
                f"no feasible extension at edge {e}; estimates too coarse"
            )
        if chosen != order[0]:
            flags.append(f"edge {e}: argmax value {order[0]} infeasible, used {chosen}")
        pins[e] = chosen
        steps.append(StepRecord(edge=e, chosen=chosen, probability=dist[chosen], report=report))
    return steps, flags


def fptas_hol(
    instance: HolantInstance,
    eps,
    policy: Optional[RadiusPolicy] = None,
) -> ApproxResult:
    """Approximate the Holant by telescoping conditional marginals.

    Edges are pinned in id order to the value with the largest marginal (ties
    to the smallest value) that has a feasible extension; the result is the
    pinned configuration's weight divided by the product of recorded
    probabilities.

    Under the adaptive policy, the default, the instance is walked on its
    ``EdgeOrderTable``: every marginal is exact, so the result equals the
    Holant and is certified.  The table's total decides feasibility, so no
    completion question is asked.  Each step records what a
    ``RadiusPolicy.whole_graph()`` step records (r_used = max(1, m), no gaps,
    full cover), and ``table_states`` counts the table's states.  A build
    that passes ``STATE_CAP`` states raises, and the balls run.

    Fixed radii, ``whole_graph()`` and instances over the budget estimate
    each marginal on a ball (``marginal_distribution``).  The completion
    found for the chosen value fills the next step's fringe.  It is the
    smallest feasible extension of the pins, so when a step chooses the
    value it already gives the edge, it is still the answer and no question
    is asked.  Exact when every step's radius covers the whole component.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidArgumentError("epsilon must be > 0")
    if not _values_real_nonnegative(instance):
        raise InvalidArgumentError("approximation needs nonnegative rational values")
    q, m = instance.q, instance.graph.m
    if policy is None:
        policy = RadiusPolicy.adaptive()
    table = None
    if policy.mode == "adaptive":
        with suppress(ResourceExhaustedError):  # over the table's budget, the balls run
            table = EdgeOrderTable(instance)
    if table is not None:
        if not table.total:
            raise InfeasibleInstanceError("instance has no feasible configuration")
        steps, flags = _table_steps(table, m), []
    else:
        completion = tractable_search(instance, {})
        if completion is None:
            raise InfeasibleInstanceError("instance has no feasible configuration")
        if policy.mode == "adaptive" and policy.delta_stab is None:
            policy = RadiusPolicy(mode="adaptive", delta_stab=eps / (8 * q * max(1, m)))
        steps, flags = _ball_steps(instance, policy, completion)

    config = [0] * m
    denom = Fraction(1)
    p_min = Fraction(1)
    for rec in steps:
        config[rec.edge] = rec.chosen
        denom *= rec.probability
        p_min = min(p_min, rec.probability)
    value = instance.weight(config) * (Fraction(1) / denom)
    certified = all(rec.report.certified for rec in steps)
    if m and p_min < Fraction(1, 2 * q):
        flags.append(f"p_min={format_value(p_min)} fell below 1/(2q)")
    return ApproxResult(
        value=value,
        certified=certified,
        p_min=p_min,
        epsilon=eps,
        steps=steps,
        flags=tuple(flags),
        table_states=None if table is None else table.states,
    )
