"""Exact Holant evaluation: brute force, the sweep, and the FPT solver.

Brute force walks the edge configurations depth first and cuts a branch at
the first zero factor; it shares no code with the solvers.  The sweep is one
forward vertex-elimination loop whose layers map states to weights: one value
each, or a vector of k values.  The simple DP and ``edge_numerators``, the
exact engine of the FPTAS balls, share its set-up: the vertices are relabelled
in ``graphcore.frontier_order``, so a layer's size follows the graph's vertex
separation, not its input labels, and states are lifted over the domain
symmetry of the instance.  ``edge_numerators`` runs it once per ball with one
weight per block of the ball's domain symmetry: the value of the ball's edge
lives in the weight vector, so one pass gives one numerator per block,
expanded to the q numerators at the end.  The Z0 sub-DPs of the FPT solver
run the sweep in their own order with one value per state.  No layer may hold
more than ``STATE_CAP`` states.

``EdgeOrderTable`` serves the FPTAS walk: backward sums over the edges in id
order, over frontier states lifted as the sweep's are, so that every step's
exact conditional marginal is q reads.  ``edge_order_bound`` bounds its states
before it is built.

The FPT solver follows the three-way recursion over a separator decomposition:
at a node with children U1, U2 and separator S, the value Z(U, {phi_v}) is a sum
over joint choices of peer images (one per core vertex per side) of
Z0 * Z1 * Z2 * prod_v gtilde_v, where Z1/Z2 recurse into the children with the
chosen peer images as boundary constraints and Z0 is a small Holant on the core
solved by the sweep.

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
from itertools import combinations, product
from typing import Mapping, Optional

from .errors import InvalidArgumentError, ResourceExhaustedError
from .graphcore import HolantInstance, frontier_order, vertex_boundary
from .sepdecomp import SeparatorDecomposition, find_min_width, validate
from .symfun import (
    BooleanSymmetricFunction,
    composition_count,
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
# The most states one sweep layer may hold.  A state holds one function per
# vertex left; on the matchings of the 10x10 grid a state costs about 1.4 KB,
# the layer being built included, so a full layer of a 100-vertex instance
# takes about 370 MB.  Sweeps that finish in seconds stay far below it: the
# 12x12 grid's matchings peak at 2^12 states, and auto_hol's bound for that
# grid, 157,464, still sends it to the sweep rather than the slower FPT solver.
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
# the sweep: the simple DP and the FPTAS ball numerators

def _sweep(q, layer, lower, lift=None):
    """Eliminate vertices in descending index order, pinning lower neighbors.

    ``lower[v]`` lists v's neighbors with a lower index (``_lower_neighbors``).
    A state is a tuple of current (pinned, interned) functions, one per vertex
    not yet eliminated; the function at vertex v must have arity v's degree
    less the edges already pinned into it.  ``layer`` maps each start state to
    its weight: one value, or a tuple of k values that are scaled and added
    componentwise (``edge_numerators`` carries one per block).  The forward
    sweep keeps one layer: a dict from each state to the sum of the weights of
    the partial assignments that reach it; regularity keeps layers small.  The
    moves of each distinct f_v are the assignments of v's lower edges whose
    composition has a nonzero factor, so a hub expands only its live
    compositions, not all q^d assignments.  A successor is dead, and dropped
    at once, when a newly pinned function is identically zero.  Returns the
    weight of the empty state, or None when no state survives.  No recursion
    depth grows with n.  A layer that would hold more than ``STATE_CAP``
    states raises ``ResourceExhaustedError``.

    With ``lift = (groups, originals)``, where ``groups`` lists the values of
    each block of more than one value (``_block_groups``) and every
    relabelling within the blocks fixes each of ``originals``, the functions
    the start states are pinned from, each successor is replaced by its image
    under the relabelling that sorts the values of each block by their
    profiles in the pinned entries.  A state holds every remaining function
    and Z(F) = Z(sigma·F), so the image has the remaining sum of the state,
    and symmetric states merge.  Entries still equal to their original are
    fixed by every such relabelling, so only the pinned ones are profiled and
    relabelled.  The weights are never relabelled.
    """
    if not layer:
        return None
    cap = STATE_CAP
    n = len(next(iter(layer)))
    vector = type(next(iter(layer.values()))) is tuple
    units = compositions(q, 1)[::-1]  # units[a]: one argument set to a
    for v in range(n - 1, -1, -1):
        neighbors = lower[v]
        d = len(neighbors)
        comps = compositions(q, d)
        spread = {}  # composition index -> the pins of each assignment with that composition
        live_moves = {}  # f_v -> its moves with a nonzero factor; None stands for ONE
        images = {}  # successor -> its lifted image; successors of one layer share a length
        nxt = {}
        for state, weight in layer.items():
            fv = state[v]
            live = live_moves.get(fv)
            if live is None:
                if fv.d != d:
                    raise InvalidArgumentError(f"a function of arity {fv.d} meets {d} edges at sweep vertex {v}")
                live = []
                for i, factor in enumerate(fv.table):
                    if factor is ZERO or not factor:
                        continue
                    pins = spread.get(i)
                    if pins is None:
                        pins = spread[i] = _spread(neighbors, comps[i], units)
                    factor = None if factor is ONE else factor
                    live += [(factor, p) for p in pins]
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
                    w = weight
                    if factor is not None:
                        w = tuple([x if x is ZERO else factor * x for x in w]) if vector else factor * w
                    succ = tuple(succ)
                    if lift is not None:
                        image = images.get(succ)
                        if image is None:
                            if len(images) >= cap:
                                images.clear()
                            image = images[succ] = _lifted_state(succ, *lift)
                        succ = image
                    got = nxt.get(succ)
                    if got is not None:
                        nxt[succ] = _vector_sum(got, w) if vector else got + w
                    elif len(nxt) < cap:
                        nxt[succ] = w
                    else:
                        raise ResourceExhaustedError(
                            f"sweep layer exceeds {cap} states after {n - v} of {n} eliminations", last_attempt=cap)
        layer = nxt
    return layer.get(())


def _spread(neighbors, comp, units):
    """The pins of each assignment of values to the edges to ``neighbors``
    whose composition is ``comp``, once each."""
    d = len(neighbors)
    if d in comp:  # one value on every edge
        unit = units[comp.index(d)]
        return [tuple([(u, unit) for u in neighbors])]
    rows = [[None] * d]
    for a, k in enumerate(comp):
        if not k:
            continue
        nxt = []
        for row in rows:
            for places in combinations([p for p, x in enumerate(row) if x is None], k):
                new = row[:]
                for p in places:
                    new[p] = a
                nxt.append(new)
        rows = nxt
    return [tuple(zip(neighbors, [units[a] for a in row])) for row in rows]


def _vector_sum(a, b):
    """Componentwise a + b; the ZERO entries of unit vectors are skipped."""
    return tuple([y if x is ZERO else x if y is ZERO else x + y for x, y in zip(a, b)])


def _lifted_state(state, groups, originals):
    """The image of ``state`` under the relabelling within the blocks that
    ``groups`` lists (``_block_groups``) that sorts each block's values by
    their profiles in the pinned entries."""
    sigma = _sorting_sigma(groups, [f for f, f0 in zip(state, originals) if f is not f0])
    if sigma is None:
        return state
    return tuple(f if f is f0 else relabel(f, sigma) for f, f0 in zip(state, originals))


def _lower_neighbors(n, edges):
    """For each of n vertices, its neighbors with a lower index, in edge order:
    the edges the sweep pins when it eliminates the vertex."""
    lower = [[] for _ in range(n)]
    for u, w in edges:
        if u < w:
            lower[w].append(u)
        else:
            lower[u].append(w)
    return lower


def _frontier_layout(graph, skip=None):
    """``graph`` less edge ``skip``, relabelled for a sweep in ``frontier_order``.

    The sweep eliminates high labels first, so the k-th vertex of the order
    gets label n-1-k.  Returns the order, the new label of each vertex, and
    the lower neighbors of each new label.
    """
    order = frontier_order(graph)
    label = [0] * graph.n
    for k, v in enumerate(order):
        label[v] = graph.n - 1 - k
    edges = [(label[u], label[w]) for x, (u, w) in enumerate(graph.edges) if x != skip]
    return order, label, _lower_neighbors(graph.n, edges)


def _predicted_layer(q, layout) -> int:
    """An upper bound on the largest layer of an unlifted sweep over ``layout``.

    A state's entry at a vertex is its function pinned by the vertex's swept
    edges, which depends only on their composition; so a layer has at most the
    product, over the vertices left, of the number of compositions of each
    one's swept edges.
    """
    lower = layout[2]
    swept = [0] * len(lower)
    size = largest = 1
    for v in range(len(lower) - 1, -1, -1):
        if swept[v]:
            size //= composition_count(q, swept[v])
        for u in lower[v]:
            k = swept[u]
            size = size * (k + q) // (k + 1)  # composition_count(q, k + 1) / composition_count(q, k)
            swept[u] = k + 1
        if size > largest:
            largest = size
    return largest


def _frontier_sweep(instance, layout, starts, blocks):
    """The sweep of ``instance`` over ``layout`` from the given start states.

    Each start is (pins, weight): pins lists (vertex, unit composition) pairs
    pinned into the vertex's function before the sweep, and weight is the
    start state's weight.  Starts with an identically zero pinned function are
    dropped, and starts that meet add their weight vectors.  Unless ``blocks``
    is None, the sweep lifts its states over the relabellings within
    ``blocks``, which must fix every function of the instance (see
    ``_sweep``).
    """
    order, label, lower = layout
    originals = tuple(instance.functions[v] for v in reversed(order))
    lift = None if blocks is None else (_block_groups(blocks), originals)
    layer = {}
    for pins, weight in starts:
        state = list(originals)
        for v, unit in pins:
            state[label[v]] = pin(state[label[v]], unit)
        if any(state[label[v]].is_zero_function() for v, _ in pins):
            continue
        state = tuple(state)
        got = layer.get(state)
        layer[state] = weight if got is None else _vector_sum(got, weight)
    return _sweep(instance.q, layer, lower, lift)


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


def simple_dp_hol(instance: HolantInstance) -> GaussianRational:
    """Exact Holant by vertex elimination; equals brute_force_hol on every instance.

    The sweep runs in ``frontier_order`` with its states lifted over the
    domain symmetry; a layer over ``STATE_CAP`` states raises
    ``ResourceExhaustedError``.
    """
    layout = _frontier_layout(instance.graph)
    return _frontier_sweep(instance, layout, [((), ONE)], _domain_blocks(instance)) or ZERO


def edge_numerators(instance: HolantInstance, e: int) -> list[GaussianRational]:
    """The Holant of ``instance`` with edge e pinned to each value i, from one sweep.

    The sweep runs on the graph without e, in ``frontier_order``, with one
    weight per block of the instance's domain symmetry (``_domain_blocks``;
    one block per value when the group is trivial).  It starts from one state
    per block: the functions at e's two endpoints pinned to the block's
    smallest value, with the unit vector at the block as its weights.  The
    value of e thus lives in the weights, not in the state, so states reached
    under different values of e merge, and states are lifted over the
    relabellings within the blocks.  Such a relabelling fixes every function
    and maps e = i to e = j for any i, j of one block, so the numerator is
    constant on each block: the final weights, one per block, are expanded to
    the q numerators.
    """
    g = instance.graph
    q = instance.q
    if not 0 <= e < g.m:
        raise InvalidArgumentError(f"edge {e} out of range")
    blocks = _domain_blocks(instance)
    labels = range(q) if blocks is None else blocks
    reps = sorted(set(labels))  # each block's label is its smallest value
    units = compositions(q, 1)[::-1]
    starts = [([(v, units[b]) for v in g.endpoints(e)], tuple(ONE if y == x else ZERO for y in range(len(reps))))
              for x, b in enumerate(reps)]
    z = _frontier_sweep(instance, _frontier_layout(g, skip=e), starts, blocks)
    if z is None:
        return [ZERO] * q
    return [z[reps.index(b)] for b in labels]


# ---------------------------------------------------------------------------
# the edge-order table: every conditional marginal of the FPTAS walk

def _edge_order_layout(graph):
    """Per edge k: the vertices open after edges < k are decided, in the
    table's order, and how edge k moves them.

    A vertex is open at level k when it has edges on both sides of k.  The
    vertices open at level k + 1 are those of level k other than k's
    endpoints, in their order, then each endpoint that still has an edge
    after k.  Each step is (the endpoints, the position of each in the level
    or None when k is its first edge, whether each stays open, the positions
    the other open vertices keep, and the vertices open at level k + 1).
    """
    last = [-1] * graph.n
    for k, (u, w) in enumerate(graph.edges):
        last[u] = last[w] = k
    opened = ()
    steps = []
    for k, (u, w) in enumerate(graph.edges):
        pos = {v: p for p, v in enumerate(opened)}
        stays = (last[u] > k, last[w] > k)
        keep = tuple(p for p, v in enumerate(opened) if v != u and v != w)
        opened = tuple(opened[p] for p in keep) + tuple(v for v, s in zip((u, w), stays) if s)
        steps.append(((u, w), (pos.get(u), pos.get(w)), stays, keep, opened))
    return steps


def edge_order_bound(instance: HolantInstance) -> int:
    """An upper bound on the states of ``EdgeOrderTable(instance)``.

    It is the sum over the levels after each edge of the product, over the
    vertices open at the level, of the number of distinct nonzero pins of f_v
    by its decided edges: a state holds one such pin per open vertex.  The
    distinct nonzero pins by k edges come from all compositions of k, or as
    the nonzero pins by one edge of those by k - 1, whichever builds fewer
    pins, so a hub never enumerates all its compositions.
    """
    q = instance.q
    units = compositions(q, 1)
    funcs = instance.functions
    distinct = {}  # f -> its distinct nonzero pins by k edges, for k = 0, 1, ... as far as counted
    decided = [0] * instance.graph.n
    total = 0
    for (u, w), _, _, _, opened in _edge_order_layout(instance.graph):
        decided[u] += 1
        decided[w] += 1
        size = 1
        for v in opened:
            f, t = funcs[v], decided[v]
            got = distinct.get(f)
            if got is None:
                got = distinct[f] = [{f}]
            while len(got) <= t:
                k = len(got)
                if composition_count(q, k) <= q * len(got[-1]):
                    found = (pin(f, c) for c in compositions(q, k))
                else:
                    found = (pin(g, unit) for g in got[-1] for unit in units)
                got.append({h for h in found if not h.is_zero_function()})
            size *= len(got[t])
        total += size
    return total


def _edge_move(ends, stays, unit):
    """The move of an edge between the functions ``ends`` to the value of
    ``unit``: None when it kills the state, else (the factor of the endpoints
    it closes, the pinned functions of those that stay open)."""
    factor = 1
    entries = []
    for f, open_after in zip(ends, stays):
        h = pin(f, unit)
        if open_after:
            if h.is_zero_function():
                return None
            entries.append(h)
        else:
            factor *= _narrow(h.table[0])
            if not factor:
                return None
    return factor, entries


class EdgeOrderTable:
    """Backward sums over the edges in id order, one level per decided prefix.

    Level k holds the states reachable once edges 0..k-1 have values: a state
    is the tuple of the open vertices' functions pinned by their decided
    edges (``_edge_order_layout``).  Deciding edge k = i pins its endpoints
    by i; an endpoint whose last edge it is closes with that factor.  The
    backward sums are B_m(()) = 1 and B_k(s) = sum_i factor_i * B_{k+1}(s + i),
    so P(e_k = i | the values of edges < k) is proportional to factor_i *
    B_{k+1}(s + i), for every k, from one table.  Sums keep the narrowest
    exact type (``_narrow``); ``total`` is the Holant, B_0(()) times the
    values of the vertices without an edge.

    States are lifted as the sweep's are: each successor is replaced by its
    image under the relabelling within the blocks of ``_domain_blocks`` that
    sorts the values of each block by their profiles (``_sorting_sigma``).
    Such a relabelling fixes every function of the instance, so it keeps the
    sum over the edges left.  A transition records the relabelling it
    applied, and ``walk`` carries their composition, so it reads each level
    in the values of the edges as decided.  The table is built by loops
    over the levels; no recursion grows with m.
    """

    def __init__(self, instance: HolantInstance):
        q = instance.q
        funcs = instance.functions
        blocks = _domain_blocks(instance)
        groups = None if blocks is None else _block_groups(blocks)
        units = compositions(q, 1)[::-1]  # units[a]: one argument set to a
        self.q = q
        # per level k < m: per state, its factor per value (None where the
        # move kills the state); a flat array, q entries per state, of each
        # value's successor index (-1 where killed); and, when lifting, a flat
        # list of the relabelling each move applied.  Flat rows keep the table
        # at about a third of the memory of per-move tuples.
        rows = []
        level = [()]
        self.states = 0  # over the levels after each edge, as ``edge_order_bound`` counts
        for (u, w), (pu, pw), stays, keep, _ in _edge_order_layout(instance.graph):
            index = {}
            images = {}
            moves = {}  # (f_u, f_w) -> their move per value (``_edge_move``) and its factors
            factors = []
            succs = array("q")
            sigmas = None if groups is None else []
            for state in level:
                ends = (funcs[u] if pu is None else state[pu], funcs[w] if pw is None else state[pw])
                known = moves.get(ends)
                if known is None:
                    here = [_edge_move(ends, stays, unit) for unit in units]
                    known = moves[ends] = (here, tuple(None if move is None else move[0] for move in here))
                here, fs = known
                factors.append(fs)
                kept = [state[p] for p in keep]
                for move in here:
                    if move is None:
                        succs.append(-1)
                        if sigmas is not None:
                            sigmas.append(None)
                        continue
                    succ = tuple(kept + move[1])
                    if groups is not None:
                        got = images.get(succ)
                        if got is None:
                            sigma = _sorting_sigma(groups, succ)
                            got = images[succ] = (succ if sigma is None else tuple(relabel(f, sigma) for f in succ),
                                                  sigma)
                        succ, sigma = got
                        sigmas.append(sigma)
                    j = index.get(succ)
                    if j is None:
                        j = index[succ] = len(index)
                    succs.append(j)
            rows.append((factors, succs, sigmas))
            level = list(index)
            self.states += len(level)
        sums = [[1] * len(level)]  # level m holds the empty state, if any
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
        self.total = sums[0][0]
        for v in range(instance.graph.n):
            if not instance.graph.degree(v):
                self.total *= _narrow(funcs[v].table[0])

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

def auto_hol(instance: HolantInstance, lifted: bool = True) -> GaussianRational:
    """Exact Holant: the simple DP's sweep, or the FPT recursion when the sweep
    could outgrow ``STATE_CAP``.

    The prediction is ``_predicted_layer`` of the frontier layout, a bound that
    ignores lifting, so every sweep this runs stays under the cap.  ``lifted =
    False`` skips lifting: on tiny instances, such as the positivity checks
    the completion search falls back to, its bookkeeping costs more than it
    merges.
    """
    layout = _frontier_layout(instance.graph)
    if _predicted_layer(instance.q, layout) > STATE_CAP:
        decomp, _ = instance_decomposition(instance)
        return FptSolver(instance, decomp).holant()
    return _frontier_sweep(instance, layout, [((), ONE)], _domain_blocks(instance) if lifted else None) or ZERO


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
                 "h0_lower", "children", "h0_order")

    def __init__(self, core, roles, d1, d2, bd_pos, bd1_pos, bd2_pos,
                 h0_lower, children, h0_order):
        self.core = core
        self.roles = roles
        self.d1 = d1
        self.d2 = d2
        self.bd_pos = bd_pos
        self.bd1_pos = bd1_pos
        self.bd2_pos = bd2_pos
        self.h0_lower = h0_lower
        self.children = children
        self.h0_order = h0_order


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
        blocks = _domain_blocks(instance)
        self._groups = None if blocks is None else _block_groups(blocks)
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
        h0_deg = [0] * len(core)
        for a, b in h0_edges:
            h0_deg[a] += 1
            h0_deg[b] += 1
        bd1_pos = tuple(i for i, v in enumerate(core) if d1[i] > 0)
        bd2_pos = tuple(i for i, v in enumerate(core) if d2[i] > 0)
        if tuple(core[i] for i in bd1_pos) != self._boundary[j] or \
                tuple(core[i] for i in bd2_pos) != self._boundary[k]:
            raise InvalidArgumentError(
                f"decomposition node {node.id}: children boundaries do not match the graph"
            )
        # eliminate low-degree H0 vertices first: hubs get low indices
        order = sorted(range(len(core)), key=lambda i: (-h0_deg[i], i))
        inv = {old: new for new, old in enumerate(order)}
        h0_lower = _lower_neighbors(len(core), [(inv[a], inv[b]) for a, b in h0_edges])
        # core position -> position of the vertex's constraint in phi (None on the separator)
        bd_index = {v: i for i, v in enumerate(bd)}
        bd_pos = tuple(None if roles[i] else bd_index[v] for i, v in enumerate(core))
        return _NodeInfo(core, roles, tuple(d1), tuple(d2), bd_pos,
                         bd1_pos, bd2_pos, h0_lower, (j, k), tuple(order))

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
        value = _narrow(_sweep(
            self.instance.q,
            {tuple([h_funcs[i] for i in info.h0_order]): ONE},
            info.h0_lower,
        ) or ZERO)
        z0_memo[h_funcs] = value
        self.stats.z0_entries += 1
        return value


def fpt_hol(instance: HolantInstance, decomposition: SeparatorDecomposition) -> GaussianRational:
    """Exact Holant via the separator-decomposition recursion."""
    return FptSolver(instance, decomposition).holant()
