"""Correlation-decay approximation: r-ball marginals and the self-reduction FPTAS.

A conditional edge marginal is estimated from the r-ball around the edge: the
fringe just outside the ball is fixed to a feasible fill obtained from a
tractable-search completion, the ball is restricted and pinned, and the ratio
of exact sub-Holants gives the estimate.  Under the adaptive policy the radius
doubles until consecutive distributions agree within the stabilization
tolerance.  The FPTAS pins edges one at a time at the argmax estimated value
and divides the chosen configuration's weight by the product of the recorded
conditional probabilities.  It asks one completion question per step: the
completion that shows the chosen value extends is the next step's fringe fill.
The instance's model kind alone decides which completion search runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    FailedPreconditionError,
    InfeasibleBoundaryError,
    InfeasibleInstanceError,
    InvalidArgumentError,
)
from .exact import FptSolver, auto_hol, instance_decomposition
from .graphcore import HolantInstance, edge_ball, restrict_instance
from .values import GaussianRational


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
        not v.im and v.re >= 0 for f in instance.functions for v in f.table
    )


def tractable_search(instance: HolantInstance, partial: Mapping[int, int]) -> Optional[dict]:
    """Extend a partial edge configuration to a full feasible one, or return None.

    The instance's model provenance picks the completion: matchings, the
    paired-incidence models (weighted matchings, subgraphs world, Ising) and
    the spin-incidence models (Potts, colorings) have direct ones.  Anything
    else, perfect matchings included, gets the lexicographically smallest
    feasible extension by extension testing with the exact solvers
    (polynomial only in the sub-exponential sense, fine at desk scale).
    """
    g = instance.graph
    for e, val in partial.items():
        if not 0 <= e < g.m:
            raise InvalidArgumentError(f"partial assigns out-of-range edge {e}")
        if not 0 <= val < instance.q:
            raise InvalidArgumentError(f"partial value {val} outside domain [{instance.q}]")
    kind = getattr(instance.model, "kind", None)
    if kind == "matchings":
        return _complete_matchings(instance, partial)
    if kind in ("weighted_matchings", "subgraphs_world", "ising"):
        return _complete_paired_incidence(instance, partial, kind)
    if kind in ("potts", "colorings"):
        return _complete_spin_incidence(instance, partial, kind)
    return _complete_generic(instance, partial)


def _complete_matchings(instance, partial):
    g = instance.graph
    used = [0] * g.n
    for e, val in partial.items():
        if val:
            for v in g.endpoints(e):
                used[v] += 1
    if any(c > 1 for c in used):
        return None
    out = {e: 0 for e in range(g.m)}
    out.update(partial)
    return out


def _complete_paired_incidence(instance, partial, kind):
    """Incidence models whose edge-side function vanishes exactly on mixed pairs.

    The two incidence edges of each original edge must agree; matchings-like
    vertex sides additionally allow at most one selected edge per vertex.
    """
    base = getattr(instance.model, "base_graph", None)
    if base is None:
        raise InvalidArgumentError(f"the {kind} search needs incidence-model provenance")
    n = base.n
    g = instance.graph
    out = dict(partial)
    for j in range(base.m):
        ev = n + j  # the edge-side vertex carries exactly the two half-edges
        half = g.incident[ev]
        have = [out[e] for e in half if e in out]
        if len(set(have)) > 1:
            return None
        fill = have[0] if have else 0
        for e in half:
            out.setdefault(e, fill)
        if len(set(out[e] for e in half)) > 1:
            return None
    if kind == "weighted_matchings":
        for v in range(n):
            if sum(out[e] for e in g.incident[v]) > 1:
                return None
    return out


def _complete_spin_incidence(instance, partial, kind):
    """Spin models on the incidence graph: all half-edges at a vertex share its spin."""
    base = getattr(instance.model, "base_graph", None)
    if base is None:
        raise InvalidArgumentError(f"the {kind} search needs incidence-model provenance")
    n = base.n
    g = instance.graph
    spin = {}
    for e, val in partial.items():
        u, w = g.endpoints(e)
        v = u if u < n else w  # one endpoint is always an original vertex
        if spin.setdefault(v, val) != val:
            return None
    q = instance.q
    if kind == "potts":
        for v in range(n):
            spin.setdefault(v, 0)
    else:  # colorings: greedy proper extension, valid in the gated regime q > deg
        for v in range(n):
            if v in spin:
                continue
            taken = {spin[u] for u in base.neighbors(v) if u in spin}
            free = next((c for c in range(q) if c not in taken), None)
            if free is None:
                return None
            spin[v] = free
        for u, w in base.edges:
            if spin[u] == spin[w]:
                return None
    out = {}
    for e in range(g.m):
        u, w = g.endpoints(e)
        v = u if u < n else w
        out[e] = spin[v]
    out.update(partial)
    return out


def _restricted_positive(instance, pins) -> bool:
    keep = [e for e in range(instance.graph.m) if e not in pins]
    sub = restrict_instance(instance, pins, keep)
    if not sub.scalar:
        return False
    return bool(auto_hol(sub.as_instance()))


def _complete_generic(instance, partial):
    if not _values_real_nonnegative(instance):
        raise InvalidArgumentError(
            "generic tractable search needs nonnegative real function values"
        )
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
    """Exact conditional distribution of edge e on the radius-r restriction."""
    g = instance.graph
    q = instance.q
    ball, fringe = edge_ball(g, e, r)
    fix = {}
    for b in fringe:
        fix[b] = cond[b] if b in cond else completion[b]
    for c_edge, val in cond.items():
        if c_edge in ball:
            fix[c_edge] = val
    keep = sorted(ball - set(fix) - {e})
    subs = []
    for i in range(q):
        fix_i = dict(fix)
        fix_i[e] = i
        subs.append(restrict_instance(instance, fix_i, keep))
    base_inst = subs[0].as_instance()
    solver = FptSolver(base_inst, instance_decomposition(base_inst)[0])
    vmap = {v: i for i, v in enumerate(subs[0].vertices)}
    numerators = []
    for sub in subs:
        overrides = {}
        for v in sub.vertices:
            if sub.functions[v] is not subs[0].functions[v]:
                overrides[vmap[v]] = sub.functions[v]
        z = solver.holant(overrides)
        numerators.append((sub.scalar * z).as_fraction())
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

    def __repr__(self):
        tag = "certified" if self.certified else "non-certified"
        return f"ApproxResult({self.value}, {tag}, p_min={self.p_min})"


def fptas_hol(
    instance: HolantInstance,
    eps,
    policy: Optional[RadiusPolicy] = None,
) -> ApproxResult:
    """Approximate the Holant by telescoping estimated conditional marginals.

    Edges are pinned in id order to the value with the largest estimated
    marginal (ties to the smallest value) that the tractable search can
    extend; the result is the pinned configuration's weight divided by the
    product of recorded probabilities.  The completion found for the chosen
    value fills the next step's fringe, so a run asks m+1 completion
    questions when every argmax extends.  Exact when every step's radius
    covers the whole component.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidArgumentError("epsilon must be > 0")
    if not _values_real_nonnegative(instance):
        raise InvalidArgumentError("approximation needs nonnegative rational values")
    g = instance.graph
    q, m = instance.q, g.m
    if policy is None:
        policy = RadiusPolicy.adaptive()
    if policy.mode == "adaptive" and policy.delta_stab is None:
        policy = RadiusPolicy(
            mode="adaptive",
            delta_stab=eps / (8 * q * max(1, m)),
        )
    completion = tractable_search(instance, {})
    if completion is None:
        raise InfeasibleInstanceError("instance has no feasible configuration")

    pins: dict[int, int] = {}
    steps = []
    flags = []
    p_min = Fraction(1)
    for e in range(m):
        dist, report = marginal_distribution(instance, e, pins, policy, completion=completion)
        order = sorted(range(q), key=lambda i: (-dist[i], i))
        chosen = None
        for i in order:
            if dist[i] == 0:
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
        p = dist[chosen]
        p_min = min(p_min, p)
        steps.append(StepRecord(edge=e, chosen=chosen, probability=p, report=report))

    config = tuple(pins[e] for e in range(m))
    weight = instance.weight(config)
    denom = Fraction(1)
    for rec in steps:
        denom *= rec.probability
    value = weight * (Fraction(1) / denom)
    certified = all(rec.report.certified for rec in steps)
    if m and p_min < Fraction(1, 2 * q):
        flags.append(f"p_min={p_min} fell below 1/(2q)")
    return ApproxResult(
        value=value,
        certified=certified,
        p_min=p_min,
        epsilon=eps,
        steps=steps,
        flags=tuple(flags),
    )
