"""Exact Holant evaluation: brute force, vertex-elimination DP, and the FPT solver.

The FPT solver follows the three-way recursion over a separator decomposition:
at a node with children U1, U2 and separator S, the value Z(U, {phi_v}) is a sum
over joint choices of peer images (one per core vertex per side) of
Z0 * Z1 * Z2 * prod_v gtilde_v, where Z1/Z2 recurse into the children with the
chosen peer images as boundary constraints and Z0 is a small Holant on the core
solved by the simple DP: an iterative forward sweep over vertex eliminations
that keeps one layer of distinct states and drops the dead ones.

The solver enumerates the terms in folded form: it absorbs the core-side peer
images into Z0 by pinning each core function with the chosen child-side
representatives, so only child-side images are enumerated, and pairs whose
pinned function vanishes are skipped.  The literal three-image enumeration, as
the recursion is stated, lives in ``oracle.literal_recursion_hol`` as an
independent cross-check.

The memo is lifted over the domain's symmetry.  A permutation sigma of [q]
acts on a function by moving each value a to sigma(a), and relabelling every
function of a Holant by one sigma leaves its value unchanged: Z(F) =
Z(sigma·F).  When sigma fixes every function of a call, it follows that
Z(U, {phi_v}) = Z(U, {sigma·phi_v}), so the solver keys each sub-Holant by one
image of its boundary constraints under such sigmas, and all symmetric copies
share that entry.  Potts models and colorings are invariant under every
permutation, so on them the memo shrinks by orders of magnitude.
"""

from __future__ import annotations

import math
import os
from itertools import product
from typing import Mapping, Optional

from .errors import InvalidArgumentError, ResourceExhaustedError
from .graphcore import HolantInstance, vertex_boundary
from .sepdecomp import SeparatorDecomposition, find_min_width, validate
from .symfun import (
    BooleanSymmetricFunction,
    SymmetricFunction,
    composition_index,
    composition_of,
    compositions,
    pin,
    relabel,
    survivor_pairs,
    value_blocks,
    value_profiles,
    worst_pair_count,
)
from .values import ONE, ZERO, GaussianRational

DEFAULT_ENUM_CAP_BITS = 24
ENUM_CAP_ENV = "HOLANT_ENUM_CAP"


def enumeration_cap_bits() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad {ENUM_CAP_ENV}={raw!r}") from exc


# ---------------------------------------------------------------------------
# brute force

def brute_force_hol(instance: HolantInstance, cap_bits: Optional[int] = None) -> GaussianRational:
    """Sum over all q^m edge configurations of the product of vertex evaluations."""
    q, g = instance.q, instance.graph
    m = g.m
    cap = enumeration_cap_bits() if cap_bits is None else cap_bits
    if m * math.log2(q) > cap:
        raise ResourceExhaustedError(
            f"enumeration needs {m}*log2({q}) = {m * math.log2(q):.1f} bits > cap {cap}",
            last_attempt=cap,
        )
    funcs = instance.functions
    incident = g.incident
    total = ZERO
    for config in product(range(q), repeat=m):
        term = ONE
        for v in range(g.n):
            counts = [0] * q
            for e in incident[v]:
                counts[config[e]] += 1
            val = funcs[v].value_at(tuple(counts))
            if not val:
                term = ZERO
                break
            term = term * val
        if term:
            total = total + term
    return total


# ---------------------------------------------------------------------------
# simple vertex-elimination dynamic program

def _simple_dp(q, funcs, incident, endpoints) -> GaussianRational:
    """Eliminate vertices in descending index order, pinning lower neighbors.

    ``funcs[v]`` must have arity equal to v's degree in the given edge lists.
    The forward sweep keeps one layer: a dict from each state, the tuple of
    current (pinned, interned) functions at the vertices not yet eliminated,
    to the summed weight of the partial assignments that reach it; regularity
    keeps layers small.  A successor is dead, and dropped at once, when a newly
    pinned function is identically zero.  No recursion depth grows with n.
    """
    n = len(funcs)
    lower = [[] for _ in range(n)]
    for v in range(n):
        for e in incident[v]:
            u, w = endpoints[e]
            other = w if u == v else u
            if other < v:
                lower[v].append(other)
    units = compositions(q, 1)[::-1]  # units[a]: one argument set to a
    layer = {tuple(funcs): ONE}
    for v in range(n - 1, -1, -1):
        neighbors = lower[v]
        d = len(neighbors)
        index = composition_index(q, d)
        moves = []
        for assign in product(range(q), repeat=d):
            comp = composition_of(q, assign)
            moves.append((index[comp], comp, tuple(zip(neighbors, [units[a] for a in assign]))))
        live_moves = {}  # f_v -> its moves with a nonzero factor; None stands for ONE
        nxt = {}
        for state, weight in layer.items():
            fv = state[v]
            live = live_moves.get(fv)
            if live is None:
                live = []
                for i, comp, pins in moves:
                    factor = fv.table[i] if fv.d == d else fv.value_at(comp)  # value_at raises
                    if factor is ONE:
                        live.append((None, pins))
                    elif factor is not ZERO and factor:
                        live.append((factor, pins))
                live_moves[fv] = live
            head = state[:v]
            for factor, pins in live:
                succ = list(head)
                for other, unit in pins:
                    g = pin(succ[other], unit)
                    if g.is_zero_function():
                        break
                    succ[other] = g
                else:
                    w = weight if factor is None else factor * weight
                    succ = tuple(succ)
                    got = nxt.get(succ)
                    nxt[succ] = w if got is None else got + w
        layer = nxt
    return layer.get((), ZERO)


def simple_dp_hol(instance: HolantInstance) -> GaussianRational:
    """Exact Holant by vertex elimination; equals brute_force_hol on every instance."""
    g = instance.graph
    return _simple_dp(instance.q, list(instance.functions), g.incident, g.edges)


def instance_vertex_costs(instance: HolantInstance) -> list[int]:
    """Log-scale branching costs per vertex, for the separator local search.

    The separator recursion enumerates up to worst_pair_count(f_v) joint peer
    images per separator vertex.  After each region's minimum cut, the costs
    order the local search's drops (costliest first) and its swaps (only for a
    cheaper neighbor); no flow minimizes their sum.  Rounding to integers
    decides ties between vertices of similar branching.
    """
    out = []
    for f in instance.functions:
        pairs = worst_pair_count(f)
        out.append(max(1, round(16 * math.log2(max(2, pairs)))))
    return out


def instance_decomposition(
    instance: HolantInstance, s_cap: Optional[int] = None
) -> tuple[SeparatorDecomposition, int]:
    """A separator decomposition of the instance graph, steered by vertex costs
    through the separator local search.

    Regions are split down to pairs so every local subproblem handed to the
    simple DP stays small even for large domains.
    """
    cap = max(1, instance.graph.n) if s_cap is None else s_cap
    return find_min_width(instance.graph, cap, instance_vertex_costs(instance), base_size=2)


# ---------------------------------------------------------------------------
# boundary-constrained sub-Holants

def auto_hol(instance: HolantInstance) -> GaussianRational:
    """Exact Holant: the simple DP on small instances, the FPT recursion otherwise."""
    if instance.graph.n <= 14 and instance.q <= 4:
        return simple_dp_hol(instance)
    decomp, _ = instance_decomposition(instance)
    return FptSolver(instance, decomp).holant()


def hol_with_boundary(
    instance: HolantInstance, constraints: Mapping[int, BooleanSymmetricFunction]
) -> GaussianRational:
    """The Holant of ``instance`` with boolean constraints replacing boundary functions.

    The constraint at vertex v must have arity deg(v); the result is ``auto_hol``
    of the constrained instance.
    """
    g = instance.graph
    funcs = list(instance.functions)
    for v, phi in constraints.items():
        if not 0 <= v < g.n:
            raise InvalidArgumentError(f"constraint vertex {v} out of range")
        if phi.q != instance.q or phi.k != g.degree(v):
            raise InvalidArgumentError(
                f"constraint at vertex {v} has shape (q={phi.q}, k={phi.k}), "
                f"need (q={instance.q}, k={g.degree(v)})"
            )
        funcs[v] = phi.to_function()
    return auto_hol(HolantInstance(g, instance.q, funcs))


# ---------------------------------------------------------------------------
# the FPT solver

class FptStats:
    __slots__ = ("memo_entries", "terms", "z0_entries")

    def __init__(self):
        self.memo_entries = 0
        self.terms = 0
        self.z0_entries = 0

    def as_dict(self):
        return {
            "memo_entries": self.memo_entries,
            "z0_entries": self.z0_entries,
            "terms": self.terms,
        }


class _NodeInfo:
    __slots__ = ("core", "roles", "d1", "d2", "bd1_pos", "bd2_pos",
                 "h0_incident", "h0_endpoints", "children", "h0_order")

    def __init__(self, core, roles, d1, d2, bd1_pos, bd2_pos,
                 h0_incident, h0_endpoints, children, h0_order):
        self.core = core
        self.roles = roles
        self.d1 = d1
        self.d2 = d2
        self.bd1_pos = bd1_pos
        self.bd2_pos = bd2_pos
        self.h0_incident = h0_incident
        self.h0_endpoints = h0_endpoints
        self.children = children
        self.h0_order = h0_order


def _refine(blocks, funcs):
    """The blocks of values interchangeable within ``blocks`` and for every one
    of ``funcs``, labelled by their smallest value; None when all are singletons."""
    for f in funcs:
        first = {}
        blocks = tuple(first.setdefault(pair, a) for a, pair in enumerate(zip(blocks, value_blocks(f))))
        if len(first) == len(blocks):
            return None
    return blocks


def _sorting_sigma(blocks, funcs):
    """A relabelling within ``blocks`` that orders each block's values by their
    profiles in ``funcs``, ties by value; None when it is the identity."""
    if not funcs:
        return None
    keys = list(zip(*(value_profiles(f) for f in funcs)))  # value -> its profile in each of funcs
    members = {}
    for a, b in enumerate(blocks):
        members.setdefault(b, []).append(a)
    sigma = list(range(len(blocks)))
    for values in members.values():
        if len(values) > 1:
            for target, a in zip(values, sorted(values, key=keys.__getitem__)):
                sigma[a] = target
    if all(s == a for a, s in enumerate(sigma)):
        return None
    return tuple(sigma)


class FptSolver:
    """Memoized evaluator of the separator-decomposition recursion.

    One solver instance validates and precomputes the per-node structure for a
    fixed graph and decomposition; ``holant`` may then be called repeatedly,
    optionally with a few vertex functions overridden (pinned variants),
    sharing the memo tables across calls.  Overrides are call-local: memo keys
    carry the uids of the overrides inside each node's region, and ``holant``
    keeps no per-call state on the solver, so calls may run concurrently.  The
    ``stats`` counters are not synchronised across threads.

    Memo keys are lifted.  The solver's group is generated by the transpositions
    of domain values that fix every function of the instance; it is stored as
    blocks of interchangeable values, or None when it is trivial, in which case
    no key is relabelled.  A call first relabels its overrides by a sigma in that
    group, which fixes every function it does not override, so the value is
    unchanged; calls that pin different but interchangeable values thus share
    their memo entries.  The blocks, refined by the relabelled overrides, then
    form the call's group, which fixes every function of the call.  ``_z``
    relabels each boundary-constraint tuple phi within those blocks, which
    keeps Z(node, phi).  Every sigma is chosen by sorting the values of a block
    by a profile that relabelling carries along, so symmetric copies tend to
    meet in one key; any choice would be correct, and the memo stores the exact
    value of the key it names.
    """

    def __init__(self, instance: HolantInstance, decomposition: SeparatorDecomposition):
        err = validate(instance.graph, decomposition)
        if err is not None:
            raise InvalidArgumentError(f"invalid decomposition: {err}")
        self.instance = instance
        self.dec = decomposition
        self.stats = FptStats()
        self._memo = {}
        self._z0_memo = {}
        self._lifted = {}  # (blocks, phi uids) -> the canonical phi and its uids
        self._boundary = {}
        self._info = {}
        # computed here, not on first use, so that concurrent calls see one value
        self._blocks = _refine((0,) * instance.q, dict.fromkeys(instance.functions))
        g = instance.graph
        for node in decomposition.nodes:
            self._boundary[node.id] = tuple(sorted(vertex_boundary(g, node.v_set)))
        for node in decomposition.nodes:
            if not node.is_leaf():
                self._info[node.id] = self._build_info(node)

    def _build_info(self, node) -> _NodeInfo:
        g = self.instance.graph
        j, k = node.children
        s_set = node.s_set
        u1 = self.dec.nodes[j].v_set
        u2 = self.dec.nodes[k].v_set
        bd = self._boundary[node.id]
        core = tuple(sorted(set(s_set) | set(bd)))
        pos = {v: i for i, v in enumerate(core)}
        roles = tuple(v in s_set for v in core)  # True: separator (keeps f_v)
        d1 = [0] * len(core)
        d2 = [0] * len(core)
        h0_edges = []
        for i, v in enumerate(core):
            for u in g.neighbors(v):
                if u in u1:
                    d1[i] += 1
                elif u in u2:
                    d2[i] += 1
        for a, b in g.edges:
            if a in pos and b in pos and (a in s_set or b in s_set):
                h0_edges.append((pos[a], pos[b]))
        h0_incident = [[] for _ in core]
        for e_idx, (a, b) in enumerate(h0_edges):
            h0_incident[a].append(e_idx)
            h0_incident[b].append(e_idx)
        bd1_pos = tuple(i for i, v in enumerate(core) if d1[i] > 0)
        bd2_pos = tuple(i for i, v in enumerate(core) if d2[i] > 0)
        if tuple(core[i] for i in bd1_pos) != self._boundary[j] or \
                tuple(core[i] for i in bd2_pos) != self._boundary[k]:
            raise InvalidArgumentError(
                f"decomposition node {node.id}: children boundaries do not match the graph"
            )
        # eliminate low-degree H0 vertices first: hubs get low indices
        h0_deg = [len(inc) for inc in h0_incident]
        order = sorted(range(len(core)), key=lambda i: (-h0_deg[i], i))
        inv = {old: new for new, old in enumerate(order)}
        perm_edges = tuple((inv[a], inv[b]) for a, b in h0_edges)
        perm_incident = [[] for _ in core]
        for e_idx, (a, b) in enumerate(perm_edges):
            perm_incident[a].append(e_idx)
            perm_incident[b].append(e_idx)
        return _NodeInfo(core, roles, tuple(d1), tuple(d2),
                         bd1_pos, bd2_pos, perm_incident, perm_edges, (j, k),
                         tuple(order))

    # -- public -----------------------------------------------------------

    def holant(self, function_overrides: Optional[Mapping[int, SymmetricFunction]] = None) -> GaussianRational:
        """Z(V, {}) for the instance, with optional per-vertex function overrides."""
        g = self.instance.graph
        funcs = list(self.instance.functions)
        blocks = self._blocks
        sigs = None  # node id -> (vertex, uid) of each override in its region
        if function_overrides:
            for v, f in function_overrides.items():
                if not 0 <= v < g.n:
                    raise InvalidArgumentError(f"override vertex {v} out of range")
                if f.q != self.instance.q or f.d != g.degree(v):
                    raise InvalidArgumentError(f"override at vertex {v} has wrong shape")
            items = sorted(function_overrides.items())
            if blocks is not None:
                # sigma fixes every function not overridden, so Z is unchanged,
                # and calls that differ by such a relabelling share one memo
                sigma = _sorting_sigma(blocks, [f for _, f in items])
                if sigma is not None:
                    items = [(v, relabel(f, sigma)) for v, f in items]
                blocks = _refine(blocks, [f for _, f in items])
            for v, f in items:
                funcs[v] = f
            sigs = {node.id: tuple((v, f.uid) for v, f in items if v in node.v_set)
                    for node in self.dec.nodes}
        return self._z(self.dec.root.id, (), funcs, sigs, blocks)

    # -- internals ----------------------------------------------------------

    def _z(self, node_id, phi, funcs, sigs, blocks) -> GaussianRational:
        node = self.dec.nodes[node_id]
        if node.is_leaf():
            return ONE
        phi_uids = tuple(c.uid for c in phi)
        if blocks is not None:
            phi, phi_uids = self._lift(blocks, phi, phi_uids)
        key = (node_id, phi_uids, sigs[node_id] if sigs else ())
        got = self._memo.get(key)
        if got is not None:
            return got
        value = self._expand(node_id, phi, funcs, sigs, blocks)
        self._memo[key] = value
        self.stats.memo_entries += 1
        return value

    def _lift(self, blocks, phi, phi_uids):
        """The image of ``phi`` under a relabelling within ``blocks``, with its uids.

        The relabelling fixes every function of the call, so Z(node, phi)
        equals Z(node, image); symmetric images of one phi share an image.
        """
        key = (blocks, phi_uids)
        got = self._lifted.get(key)
        if got is None:
            sigma = _sorting_sigma(blocks, phi)
            if sigma is not None:
                phi = tuple(relabel(c, sigma) for c in phi)
                phi_uids = tuple(c.uid for c in phi)
            got = self._lifted[key] = (phi, phi_uids)
        return got

    def _expand(self, node_id, phi, funcs, sigs, blocks) -> GaussianRational:
        info = self._info[node_id]
        j, k = info.children
        bd_pos = {v: i for i, v in enumerate(self._boundary[node_id])}

        # per core vertex: g_v (f_v on the separator, the constraint on the
        # boundary) and its child-1 image choices, each with its surviving
        # child-2 images
        outer = []
        for i, v in enumerate(info.core):
            gv = funcs[v] if info.roles[i] else phi[bd_pos[v]].to_function()
            by_c1 = survivor_pairs(gv, info.d1[i], info.d2[i])
            if not by_c1:
                return ZERO
            outer.append(by_c1)

        bd1_pos, bd2_pos = info.bd1_pos, info.bd2_pos
        sig2 = sigs[k] if sigs else ()
        z_memo = self._memo
        z0_memo = self._z0_memo
        stats = self.stats
        total = ZERO
        for c1_joint in product(*outer):
            z1 = self._z(j, tuple(c1_joint[p][0] for p in bd1_pos), funcs, sigs, blocks)
            if not z1:
                stats.terms += 1
                continue
            for c2_joint in product(*(c[1] for c in c1_joint)):
                stats.terms += 1
                h_key = (node_id,) + tuple(t[1].uid for t in c2_joint)
                z0 = z0_memo.get(h_key)
                if z0 is None:
                    z0 = self._hol0_compute(node_id, tuple(t[1] for t in c2_joint), h_key)
                if not z0:
                    continue
                key2 = tuple(c2_joint[p][0].uid for p in bd2_pos)
                z2 = z_memo.get((k, key2, sig2))
                if z2 is None:
                    z2 = self._z(k, tuple(c2_joint[p][0] for p in bd2_pos), funcs, sigs, blocks)
                if not z2:
                    continue
                total = total + z0 * z1 * z2
        return total

    def _hol0_compute(self, node_id, h_funcs, key) -> GaussianRational:
        info = self._info[node_id]
        value = _simple_dp(
            self.instance.q,
            [h_funcs[i] for i in info.h0_order],
            info.h0_incident,
            info.h0_endpoints,
        )
        self._z0_memo[key] = value
        self.stats.z0_entries += 1
        return value


def fpt_hol(instance: HolantInstance, decomposition: SeparatorDecomposition) -> GaussianRational:
    """Exact Holant via the separator-decomposition recursion."""
    return FptSolver(instance, decomposition).holant()
