"""Exact Holant evaluation: brute force, the edge-order pass, and the FPT solver.

Brute force walks the edge configurations depth first and cuts a branch at
the first zero factor; it shares no code with the solvers.  Every other exact
sum runs one forward DP, the edge-order pass: it decides one edge per level,
and a level maps states, the pinned functions of the vertices with edges on
both sides of the level (the open ones), to weights in the narrowest exact
number type (``_narrow``): one value each, or a vector of k values.  Outside
the Z0 sub-DPs, states are lifted over the domain symmetry of the instance.
Its callers differ only in the edge order, the start level and what they read
off the levels:

- ``simple_dp_hol`` and ``auto_hol`` take the edges in the order of
  ``graphcore.frontier_order``, so a level's size follows the graph's vertex
  separation, not its input labels;
- ``edge_numerators``, the exact engine of the FPTAS balls, decides the
  ball's edge first, one start per block of the ball's domain symmetry, so
  the value of the edge lives in the weight vector and one pass gives one
  numerator per block, expanded to the q numerators at the end;
- the Z0 sub-DPs of the FPT solver take the edges of each node's core graph
  in frontier order, laid out once per node;
- ``EdgeOrderTable`` takes the edges in id order and records each level's
  moves, for backward sums that give every step of the FPTAS walk its exact
  conditional marginal in q reads.

No level may hold more than ``STATE_CAP`` states, and the table no more than
that in all its levels.

The FPT solver follows the three-way recursion over a separator decomposition:
at a node with children U1, U2 and separator S, the value Z(U, {phi_v}) is a sum
over joint choices of peer images (one per core vertex per side) of
Z0 * Z1 * Z2 * prod_v gtilde_v, where Z1/Z2 recurse into the children with the
chosen peer images as boundary constraints and Z0 is a small Holant on the core
solved by the pass.

The solver enumerates the terms in folded form: it absorbs the core-side peer
images into Z0 by pinning each core function with the chosen child-side
representatives, so only child-side images are enumerated, and pairs whose
pinned function vanishes are skipped.  The literal three-image enumeration, as
the recursion is stated, lives in ``oracle.literal_recursion_hol`` as an
independent cross-check.

The solver's sums skip the Gaussian-rational type where they can: every memo
entry and partial sum is an ``int`` when the value is a real integer, a
``Fraction`` when it is real, and a ``GaussianRational`` only when its
imaginary part is nonzero (``_narrow``).  ``holant`` converts once, at the
end.  Each child-1 choice contributes z1 * sum(z0 * z2), so z1 multiplies
once per choice, not once per term.

The memo is lifted over the domain's symmetry.  A permutation sigma of [q]
acts on a function by moving each value a to sigma(a), and relabelling every
function of a Holant by one sigma leaves its value unchanged: Z(F) =
Z(sigma·F).  When sigma fixes every function of the instance, it follows that
Z(U, {phi_v}) = Z(U, {sigma·phi_v}), so the solver keys each sub-Holant by one
image of its boundary constraints under such sigmas, and all symmetric copies
share that entry.  Potts models and colorings are invariant under every
permutation, so on them the memo shrinks by orders of magnitude.
"""

from __future__ import annotations

import math
import os
from array import array
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

from .errors import InvalidArgumentError, ResourceExhaustedError
from .graphcore import Graph, HolantInstance, frontier_order, vertex_boundary
from .sepdecomp import SeparatorDecomposition, find_min_width, validate
from .symfun import (
    BooleanSymmetricFunction,
    compositions,
    pin,
    relabel,
    survivor_pairs,
    value_blocks,
    value_profiles,
    worst_pair_count,
)
from .values import ONE, ZERO, GaussianRational, as_value

DEFAULT_ENUM_CAP_BITS = 24
ENUM_CAP_ENV = "HOLANT_ENUM_CAP"
# The most states one level of the edge-order pass, or one edge-order table in
# all, may hold.  A state holds the pinned functions of the open vertices only;
# on the matchings of the 12x12 and 14x14 grids a level costs about 450-570
# bytes per state, the level being built included, so a full level takes
# about 150 MB.  Passes that finish in seconds stay far below it: the 12x12
# grid's matchings peak at 2^12 states, which is auto_hol's bound for it too.
STATE_CAP = 1 << 18


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
    """Sum over all q^m edge configurations of the product of vertex evaluations.

    The configurations are walked depth first in lexicographic order, one edge
    per level.  Each vertex is evaluated once its last incident edge has a
    value, and a branch whose partial product is zero is cut, since all of
    its configurations have weight zero.
    """
    q, g = instance.q, instance.graph
    m = g.m
    cap = enumeration_cap_bits() if cap_bits is None else cap_bits
    if m * math.log2(q) > cap:
        raise ResourceExhaustedError(
            f"enumeration needs {m}*log2({q}) = {m * math.log2(q):.1f} bits > cap {cap}",
            last_attempt=cap,
        )
    funcs = instance.functions
    closed_by = [[] for _ in range(m)]  # edge -> the vertices it is the last edge of
    prefix = [ONE] * (m + 1)  # prefix[k]: the product of the edgeless vertices and those closed by edges < k
    for v in range(g.n):
        if g.incident[v]:
            closed_by[max(g.incident[v])].append(v)
        else:
            prefix[0] = prefix[0] * funcs[v].value_at((0,) * q)
    if not prefix[0]:
        return ZERO
    counts = [[0] * q for _ in range(g.n)]
    config = [-1] * m
    total = ZERO
    k = 0  # the edge whose value is chosen next
    while k >= 0:
        if k == m:
            total = total + prefix[m]
            k -= 1
            continue
        u, w = g.edges[k]
        a = config[k]
        if a >= 0:
            counts[u][a] -= 1
            counts[w][a] -= 1
        a += 1
        if a == q:
            config[k] = -1
            k -= 1
            continue
        config[k] = a
        counts[u][a] += 1
        counts[w][a] += 1
        term = prefix[k]
        for v in closed_by[k]:
            term = term * funcs[v].value_at(tuple(counts[v]))
            if not term:
                break
        prefix[k + 1] = term
        if term:
            k += 1
    return total


# ---------------------------------------------------------------------------
# the edge-order pass: the one exact DP

def _frontier_edges(graph, first=None):
    """The edges of ``graph`` as endpoint pairs in the order of
    ``graphcore.frontier_order``: by the position of the earlier endpoint,
    then of the later one; edge ``first``, when given, goes first."""
    pos = [0] * graph.n
    for k, v in enumerate(frontier_order(graph)):
        pos[v] = k
    order = sorted(range(graph.m), key=lambda x: sorted((pos[graph.edges[x][0]], pos[graph.edges[x][1]])))
    if first is not None:
        order.remove(first)
        order.insert(0, first)
    return [graph.edges[x] for x in order]


def _edge_layout(n, edges):
    """The steps of a pass over ``edges``, endpoint pairs over n vertices, in
    order, and the vertices without an edge.

    Step k gives the vertices open after edges < k are decided, in the
    pass's order, and how edge k moves them.  A vertex is open at level k
    when it has edges on both sides of k.  The vertices open at level k + 1
    are those of level k other than k's endpoints, in their order, then each
    endpoint that still has an edge after k.  Each step is (the endpoints,
    the position of each in the level or None when k is its first edge,
    whether each stays open, and the positions the other open vertices keep).
    """
    last = [-1] * n
    for k, (u, w) in enumerate(edges):
        last[u] = last[w] = k
    opened = ()
    steps = []
    for k, (u, w) in enumerate(edges):
        pos = {v: p for p, v in enumerate(opened)}
        stays = (last[u] > k, last[w] > k)
        keep = tuple(p for p, v in enumerate(opened) if v != u and v != w)
        opened = tuple(opened[p] for p in keep) + tuple(v for v, s in zip((u, w), stays) if s)
        steps.append(((u, w), (pos.get(u), pos.get(w)), stays, keep))
    return steps, tuple(v for v in range(n) if last[v] < 0)


def _edge_move(ends, stays, units, a):
    """The move of an edge between the functions ``ends`` to value a, whose
    unit composition is ``units[a]``: None when it kills the state, else (the
    factor of the endpoints it closes, the pinned functions of those that
    stay open).  An endpoint that closes has one argument left, so its factor
    is its table entry at a, read before any pin is made."""
    factor = 1
    for f, open_after in zip(ends, stays):
        if not open_after:
            factor *= _narrow(f.table[-1 - a])  # compositions(q, 1) lists a = q-1 first
            if not factor:
                return None
    entries = []
    for f, open_after in zip(ends, stays):
        if open_after:
            h = pin(f, units[a])
            if h.is_zero_function():
                return None
            entries.append(h)
    return factor, entries


def _edge_pass(q, funcs, steps, level, groups, rows=None):
    """Decide the edges of ``steps`` (``_edge_layout``) forward, one level at
    a time; returns the last level.

    A level maps each state, the tuple of the open vertices' functions pinned
    by their decided edges, to its weight: the sum, over the partial
    assignments that reach the state, of the factors of the vertices they
    closed.  ``level`` is the first one, and ``funcs[v]`` is v's function
    before its first edge of ``steps``.  A weight is one value, or a tuple of
    values that are scaled and added componentwise (``edge_numerators``
    carries one per block); sums keep the narrowest exact type
    (``_narrow``).  Deciding an edge to value a pins its endpoints by a
    (``_edge_move``), and a successor with an identically zero entry is
    dropped.  No recursion grows with the number of edges.

    With ``groups`` (``_block_groups``), whose relabellings fix every function
    of ``funcs``, each successor is replaced by its image under the
    relabelling that sorts each block's values by their profiles in the
    successor (``_sorting_sigma``).  The relabelling keeps the sum over the
    edges left, so symmetric states merge; weights are never relabelled.  Two
    states meet in one successor when the edge closes a vertex, and almost
    never otherwise, since the successor keeps every entry; so a level caches
    the images of its successors, up to ``STATE_CAP`` of them, only when its
    edge closes a vertex.

    With ``rows`` a list, each level maps its states to their indices, not to
    weights, and the pass appends per edge the row ``EdgeOrderTable`` reads:
    per state its factor per value (None where the move kills the state); a
    flat array, q entries per state, of each value's successor index (-1
    where killed); and, when lifting, a flat list of the relabelling each
    move applied.  Flat rows keep the table at about a third of the memory of
    per-move tuples.

    No level may hold more than ``STATE_CAP`` states; with ``rows``, no more
    than that in all the levels after the first (``ResourceExhaustedError``).
    """
    cap = STATE_CAP
    units = compositions(q, 1)[::-1]  # units[a]: one argument set to a
    record = rows is not None
    vector = type(next(iter(level.values()), None)) is tuple
    spent = 0  # the states added, in this level or, with rows, in all
    for k, ((u, w), (pu, pw), stays, keep) in enumerate(steps):
        if record:
            factors, succs, sigmas = [], array("q"), None if groups is None else []
            rows.append((factors, succs, sigmas))
        else:
            spent = 0
        moves = {}  # (f_u, f_w) -> their move per value and its factors
        images = {}  # successor -> (its lifted image, the relabelling)
        closes = not all(stays)
        nxt = {}
        for state, weight in level.items():
            ends = (funcs[u] if pu is None else state[pu], funcs[w] if pw is None else state[pw])
            known = moves.get(ends)
            if known is None:
                here = [_edge_move(ends, stays, units, a) for a in range(q)]
                known = moves[ends] = (here, tuple(None if move is None else move[0] for move in here))
            here, fs = known
            if record:
                factors.append(fs)
            kept = [state[p] for p in keep]
            for move in here:
                if move is None:
                    if record:
                        succs.append(-1)
                        if sigmas is not None:
                            sigmas.append(None)
                    continue
                succ = tuple(kept + move[1])
                if groups is not None:
                    image = images.get(succ)
                    if image is None:
                        sigma = _sorting_sigma(groups, succ)
                        image = (succ if sigma is None else tuple([relabel(f, sigma) for f in succ]), sigma)
                        if closes and len(images) < cap:
                            images[succ] = image
                    succ, sigma = image
                    if record:
                        sigmas.append(sigma)
                got = nxt.get(succ)
                if got is None:
                    if spent == cap:
                        raise ResourceExhaustedError(
                            f"edge-order pass exceeds {cap} states {'in all' if record else 'in a level'} "
                            f"at edge {k} of {len(steps)}", last_attempt=cap)
                    spent += 1
                if record:
                    if got is None:
                        got = nxt[succ] = len(nxt)
                    succs.append(got)
                    continue
                add = weight
                factor = move[0]
                if factor != 1:
                    add = tuple([factor * x if x else x for x in add]) if vector else factor * add
                if got is not None:
                    add = tuple([x + y for x, y in zip(got, add)]) if vector else got + add
                nxt[succ] = add
        level = nxt
    return level


def _pass_value(q, funcs, layout, groups=None):
    """The Holant of ``funcs`` over ``layout`` (``_edge_layout``), from one
    pass, in ``_narrow`` type."""
    steps, edgeless = layout
    return _edge_pass(q, funcs, steps, {(): 1}, groups).get((), 0) * _edgeless_factor(funcs, edgeless)


def _edgeless_factor(funcs, vertices):
    """The product of the values of the functions at ``vertices``, which have
    no edge, in ``_narrow`` type."""
    z = 1
    for v in vertices:
        z *= _narrow(funcs[v].table[0])
    return z


def _domain_blocks(instance):
    """The blocks of domain values interchangeable for every function of
    ``instance``, each labelled by its smallest value; None when all are
    singletons."""
    blocks = (0,) * instance.q
    for f in dict.fromkeys(instance.functions):
        first = {}
        blocks = tuple(first.setdefault(pair, a) for a, pair in enumerate(zip(blocks, value_blocks(f))))
        if len(first) == len(blocks):
            return None
    return blocks


def _lifting_groups(instance):
    """``_block_groups`` of the instance's ``_domain_blocks``, or None."""
    blocks = _domain_blocks(instance)
    return None if blocks is None else _block_groups(blocks)


def simple_dp_hol(instance: HolantInstance) -> GaussianRational:
    """Exact Holant by the edge-order pass; equals brute_force_hol on every
    instance.

    The pass decides the edges in frontier order, so a level's size follows
    the graph's vertex separation, not its input labels, with its states
    lifted over the domain symmetry; a level over ``STATE_CAP`` states raises
    ``ResourceExhaustedError``.
    """
    g = instance.graph
    layout = _edge_layout(g.n, _frontier_edges(g))
    return as_value(_pass_value(instance.q, instance.functions, layout, _lifting_groups(instance)))


def edge_numerators(instance: HolantInstance, e: int) -> list[GaussianRational]:
    """The Holant of ``instance`` with edge e pinned to each value i, from one
    pass.

    The pass decides e first, then the other edges in frontier order, with one
    weight per block of the instance's domain symmetry (``_domain_blocks``;
    one block per value when the group is trivial).  It starts from one state
    per block: e decided to the block's smallest value, with the unit vector
    at the block, times the factor of any endpoint e closes, as its weights.
    The value of e thus lives in the weights, not in the state, so states
    reached under different values of e merge, and states are lifted over
    the relabellings within the blocks.  Such a relabelling fixes every
    function and maps e = i to e = j for any i, j of one block, so the
    numerator is constant on each block: the final weights, one per block,
    are expanded to the q numerators.
    """
    g = instance.graph
    q, funcs = instance.q, instance.functions
    if not 0 <= e < g.m:
        raise InvalidArgumentError(f"edge {e} out of range")
    blocks = _domain_blocks(instance)
    labels = range(q) if blocks is None else blocks
    reps = sorted(set(labels))  # each block's label is its smallest value
    units = compositions(q, 1)[::-1]
    steps, edgeless = _edge_layout(g.n, _frontier_edges(g, first=e))
    (u, w), _, stays, _ = steps[0]
    level = {}
    for x, b in enumerate(reps):
        move = _edge_move((funcs[u], funcs[w]), stays, units, b)
        if move is not None:
            state = tuple(move[1])
            weight = tuple(move[0] if y == x else 0 for y in range(len(reps)))
            got = level.get(state)
            level[state] = weight if got is None else tuple([a + c for a, c in zip(got, weight)])
    z = _edge_pass(q, funcs, steps[1:], level, None if blocks is None else _block_groups(blocks)).get(())
    if z is None:
        return [ZERO] * q
    scale = _edgeless_factor(funcs, edgeless)
    return [as_value(scale * z[reps.index(b)]) for b in labels]


def _live_pins(f, j):
    """How many compositions of j of f's arguments pin f to a function that is
    not identically zero.

    A relabelling within f's value blocks (``value_blocks``) maps the pins of
    one composition to those of its image, so one composition of each orbit
    is pinned, the one that decreases within each block, and its orbit is
    counted whole: the product over the blocks of the multinomial of the
    block's counts.  A wide-domain hub is thus pinned a few times, not by
    every composition.
    """
    groups = _block_groups(value_blocks(f))
    count = 0
    for kappa in compositions(f.q, j):
        orbit = 1
        for values in groups:
            counts = [kappa[a] for a in values]
            if any(x < y for x, y in zip(counts, counts[1:])):
                break
            orbit *= math.factorial(len(values))
            for c in set(counts):
                orbit //= math.factorial(counts.count(c))
        else:
            if not pin(f, kappa).is_zero_function():
                count += orbit
    return count


def _predicted_level(instance) -> int:
    """An upper bound on the largest level of an unlifted pass over the edges
    of ``instance`` in frontier order.

    An open vertex's entry in a state is its function pinned by the
    composition of its decided edges, and a state with an identically zero
    entry is dropped, so a level holds at most the product, over its open
    vertices, of ``_live_pins`` of each one's function and decided edges.
    """
    g, funcs = instance.graph, instance.functions
    edges = _frontier_edges(g)
    last = [-1] * g.n
    for k, (u, w) in enumerate(edges):
        last[u] = last[w] = k
    decided = [0] * g.n
    live = {}  # (f, j) -> _live_pins(f, j), at least 1

    def pins(v, j):
        key = (funcs[v], j)
        got = live.get(key)
        if got is None:
            got = live[key] = max(1, _live_pins(*key))
        return got

    size = largest = 1
    for k, ends in enumerate(edges):
        for v in ends:
            j = decided[v]
            if j:
                size //= pins(v, j)
            decided[v] = j + 1
            if last[v] > k:
                size *= pins(v, j + 1)
        largest = max(largest, size)
    return largest


# ---------------------------------------------------------------------------
# the edge-order table: every conditional marginal of the FPTAS walk

class EdgeOrderTable:
    """Backward sums over the edges in id order, one level per decided prefix.

    The levels are those of the edge-order pass over the edges in id order
    (``_edge_pass``, with its rows recorded): level k holds the states
    reachable once edges 0..k-1 have values.  Deciding edge k = i pins its
    endpoints by i; an endpoint whose last edge it is closes with that factor.
    The backward sums are B_m(()) = 1 and B_k(s) = sum_i factor_i *
    B_{k+1}(s + i), so P(e_k = i | the values of edges < k) is proportional to
    factor_i * B_{k+1}(s + i), for every k, from one table.  Sums keep the
    narrowest exact type (``_narrow``); ``total`` is the Holant, B_0(()) times
    the values of the vertices without an edge.

    States are lifted as the pass lifts them, over the relabellings within
    the blocks of ``_domain_blocks``.  Such a relabelling fixes every function
    of the instance, so it keeps the sum over the edges left.  A transition
    records the relabelling it applied, and ``walk`` carries their
    composition, so it reads each level in the values of the edges as decided.
    No recursion grows with m.

    ``states`` counts the states of the levels after each edge.  The build
    counts them as it adds them, so that even one wide level stops at the
    first state past ``STATE_CAP`` (``ResourceExhaustedError``).
    """

    def __init__(self, instance: HolantInstance):
        q = instance.q
        g, funcs = instance.graph, instance.functions
        self.q = q
        rows = []
        steps, edgeless = _edge_layout(g.n, g.edges)
        last = _edge_pass(q, funcs, steps, {(): 0}, _lifting_groups(instance), rows)
        self.states = sum(len(factors) for factors, _, _ in rows) - 1 + len(last)  # level 0 holds ()
        sums = [[1] * len(last)]  # level m holds the empty state, if any
        for factors, succs, _ in reversed(rows):
            nxt = sums[-1]
            out = []
            base = 0
            for fs in factors:
                total = 0
                for factor, j in zip(fs, succs[base:base + q]):
                    if j >= 0:
                        total += nxt[j] if factor == 1 else factor * nxt[j]
                out.append(total)
                base += q
            sums.append(out)
        sums.reverse()
        self._rows = rows
        self._sums = sums
        # the Holant: the level-0 sum times the vertices without an edge
        self.total = sums[0][0] * _edgeless_factor(funcs, edgeless)

    def walk(self, choose):
        """Decide the edges in id order: ``choose(k, numerators)`` gets the q
        values factor_i * B_{k+1}(s + i) at edge k, proportional to the
        conditional marginals, and returns the value edge k takes."""
        q = self.q
        pi = tuple(range(q))  # the decided values of the state's labels
        j = 0
        for k, (factors, succs, sigmas) in enumerate(self._rows):
            base = j * q
            fs = factors[j]
            nxt = self._sums[k + 1]
            numerators = [0] * q
            for c, succ in enumerate(succs[base:base + q]):
                if succ >= 0:
                    numerators[pi[c]] = fs[c] * nxt[succ]
            c = pi.index(choose(k, numerators))
            j = succs[base + c]
            sigma = None if sigmas is None else sigmas[base + c]
            if sigma is not None:  # the state now names value a by sigma[a]
                inverse = [0] * q
                for a, b in enumerate(sigma):
                    inverse[b] = a
                pi = tuple(pi[inverse[a]] for a in range(q))


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
    """Exact Holant: the simple DP's pass, or the FPT recursion when the pass
    could outgrow ``STATE_CAP``.

    The prediction is ``_predicted_level``, a bound that ignores lifting, so
    every pass this runs stays under the cap.  The edge-order table's cap is
    on its total states, so a build over it stops early; a pass's cap is per
    level, so a pass may run long before one level reaches it, and a
    prediction is cheaper than a wasted pass.
    """
    if _predicted_level(instance) > STATE_CAP:
        decomp, _ = instance_decomposition(instance)
        return FptSolver(instance, decomp).holant()
    return simple_dp_hol(instance)


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
    __slots__ = ("core", "roles", "d1", "d2", "bd_pos", "bd1_pos", "bd2_pos",
                 "h0_layout", "children")

    def __init__(self, core, roles, d1, d2, bd_pos, bd1_pos, bd2_pos,
                 h0_layout, children):
        self.core = core
        self.roles = roles
        self.d1 = d1
        self.d2 = d2
        self.bd_pos = bd_pos
        self.bd1_pos = bd1_pos
        self.bd2_pos = bd2_pos
        self.h0_layout = h0_layout
        self.children = children


def _narrow(x):
    """``x`` as an int when it is a real integer, as a Fraction when it is
    real, else as the GaussianRational itself."""
    if type(x) is GaussianRational:
        if x.im:
            return x
        x = x.re
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _block_groups(blocks):
    """The values of each block of ``blocks`` that holds more than one value."""
    members = {}
    for a, b in enumerate(blocks):
        members.setdefault(b, []).append(a)
    return tuple(values for values in members.values() if len(values) > 1)


def _sorting_sigma(groups, funcs):
    """A relabelling within the blocks whose values ``groups`` lists that
    orders each block's values by their profiles in ``funcs``, ties by value;
    None when it is the identity."""
    if not funcs:
        return None
    keys = list(zip(*(value_profiles(f) for f in funcs)))  # value -> its profile in each of funcs
    sigma = None
    for values in groups:
        ordered = sorted(values, key=keys.__getitem__)
        if ordered != values:
            if sigma is None:
                sigma = list(range(len(keys)))
            for target, a in zip(values, ordered):
                sigma[a] = target
    return None if sigma is None else tuple(sigma)


class FptSolver:
    """Memoized evaluator of the separator-decomposition recursion.

    One solver instance validates and precomputes the per-node structure for a
    fixed instance and decomposition; ``holant`` may then be called repeatedly,
    sharing the memo tables across calls.  ``holant`` keeps no per-call state on
    the solver, so calls may run concurrently.  The ``stats`` counters are not
    synchronised across threads.

    Memo keys are lifted.  The solver's group is generated by the transpositions
    of domain values that fix every function of the instance; it is stored as
    blocks of interchangeable values, or None when it is trivial, in which case
    no key is relabelled.  ``_z`` relabels each boundary-constraint tuple phi
    within those blocks, which keeps Z(node, phi).  Every sigma is chosen by
    sorting the values of a block by a profile that relabelling carries along,
    so symmetric copies tend to meet in one key; any choice would be correct,
    and the memo stores the exact value of the key it names.
    """

    def __init__(self, instance: HolantInstance, decomposition: SeparatorDecomposition):
        err = validate(instance.graph, decomposition)
        if err is not None:
            raise InvalidArgumentError(f"invalid decomposition: {err}")
        self.instance = instance
        self.dec = decomposition
        self.stats = FptStats()
        self._memo = {}  # (node id, phi) -> Z(node, phi), phi canonical when lifted
        self._z0_memo = {}  # node id -> {h's of the core -> Z0}
        self._lifted = {}  # phi -> its canonical image
        self._split = {}  # (g_v, d1, d2) -> its survivor pairs, split (``_pairs``)
        self._boundary = {}
        self._info = {}
        # computed here, not on first use, so that concurrent calls see one value
        self._groups = _lifting_groups(instance)
        g = instance.graph
        for node in decomposition.nodes:
            self._boundary[node.id] = tuple(sorted(vertex_boundary(g, node.v_set)))
        for node in decomposition.nodes:
            if not node.is_leaf():
                self._info[node.id] = self._build_info(node)
                self._z0_memo[node.id] = {}

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
        bd1_pos = tuple(i for i, v in enumerate(core) if d1[i] > 0)
        bd2_pos = tuple(i for i, v in enumerate(core) if d2[i] > 0)
        if tuple(core[i] for i in bd1_pos) != self._boundary[j] or \
                tuple(core[i] for i in bd2_pos) != self._boundary[k]:
            raise InvalidArgumentError(
                f"decomposition node {node.id}: children boundaries do not match the graph"
            )
        # Z0's pass over H0, on the core positions, in frontier order
        h0_layout = _edge_layout(len(core), _frontier_edges(Graph(len(core), h0_edges)))
        # core position -> position of the vertex's constraint in phi (None on the separator)
        bd_index = {v: i for i, v in enumerate(bd)}
        bd_pos = tuple(None if roles[i] else bd_index[v] for i, v in enumerate(core))
        return _NodeInfo(core, roles, tuple(d1), tuple(d2), bd_pos,
                         bd1_pos, bd2_pos, h0_layout, (j, k))

    # -- public -----------------------------------------------------------

    def holant(self) -> GaussianRational:
        """Z(V, {}) for the instance."""
        return as_value(self._z(self.dec.root.id, ()))

    # -- internals ----------------------------------------------------------

    def _z(self, node_id, phi):
        """Z(node, phi) in its narrowest exact type (``_narrow``)."""
        info = self._info.get(node_id)
        if info is None:  # a leaf
            return 1
        if self._groups is not None:
            phi = self._lift(phi)
        key = (node_id, phi)
        got = self._memo.get(key)
        if got is not None:
            return got
        value = _narrow(self._expand(node_id, info, phi))
        self._memo[key] = value
        self.stats.memo_entries += 1
        return value

    def _lift(self, phi):
        """The image of ``phi`` under a relabelling within the solver's blocks.

        The relabelling fixes every function of the instance, so Z(node, phi)
        equals Z(node, image); symmetric images of one phi share an image.
        """
        got = self._lifted.get(phi)
        if got is None:
            sigma = _sorting_sigma(self._groups, phi)
            got = phi if sigma is None else tuple(relabel(c, sigma) for c in phi)
            self._lifted[phi] = got
        return got

    def _pairs(self, gv, d1, d2):
        """``survivor_pairs(gv, d1, d2)`` as (c1, its h's, its c2's) triples."""
        key = (gv, d1, d2)
        got = self._split.get(key)
        if got is None:
            got = self._split[key] = tuple(
                (c1, tuple(h for _, h in inner), tuple(c2 for c2, _ in inner))
                for c1, inner in survivor_pairs(gv, d1, d2))
        return got

    def _expand(self, node_id, info, phi):
        """The sum over the node's terms, z1 * sum(z0 * z2) per child-1 choice.

        A position whose vertex has no edge into a child has one peer class on
        that side, so the product over the child-2 images of the boundary
        positions runs in step with the product over all h's.
        """
        j, k = info.children

        # per core vertex: g_v (f_v on the separator, the constraint on the
        # boundary) and its child-1 image choices, each with its surviving
        # child-2 images
        funcs = self.instance.functions
        outer = []
        for v, p, d1, d2 in zip(info.core, info.bd_pos, info.d1, info.d2):
            by_c1 = self._pairs(funcs[v] if p is None else phi[p].to_function(), d1, d2)
            if not by_c1:
                return 0
            outer.append(by_c1)

        bd1_pos, bd2_pos = info.bd1_pos, info.bd2_pos
        z_memo = self._memo
        z0_memo = self._z0_memo[node_id]
        lifted = self._lifted if self._groups is not None else None
        terms = 0
        total = 0
        for c1_joint in product(*outer):
            z1 = self._z(j, tuple([c1_joint[p][0] for p in bd1_pos]))
            if not z1:
                terms += 1
                continue
            inner = 0
            h_choices = [c[1] for c in c1_joint]
            c2_choices = [c1_joint[p][2] for p in bd2_pos]
            for hs, phi2 in zip(product(*h_choices), product(*c2_choices)):
                terms += 1
                z0 = z0_memo.get(hs)
                if z0 is None:
                    z0 = self._hol0_compute(info, hs, z0_memo)
                if not z0:
                    continue
                key2 = phi2 if lifted is None else lifted.get(phi2, phi2)  # the memo holds canonical keys
                z2 = z_memo.get((k, key2))
                if z2 is None:
                    z2 = self._z(k, phi2)
                if z2:
                    inner += z0 * z2
            if inner:
                total += z1 * inner
        self.stats.terms += terms
        return total

    def _hol0_compute(self, info, h_funcs, z0_memo):
        value = z0_memo[h_funcs] = _pass_value(self.instance.q, h_funcs, info.h0_layout)
        self.stats.z0_entries += 1
        return value


def fpt_hol(instance: HolantInstance, decomposition: SeparatorDecomposition) -> GaussianRational:
    """Exact Holant via the separator-decomposition recursion."""
    return FptSolver(instance, decomposition).holant()
