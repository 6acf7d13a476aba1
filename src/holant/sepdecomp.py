"""Separator decompositions: balanced-separator search and recursive construction.

A separator decomposition is a full binary tree of (V_i, S_i) pairs: the root
holds all vertices, leaves are empty, and at every internal node the separator
S_i splits V_i into the two children's vertex sets with no crossing edge.  Its
width is the maximum of |boundary(V_i)| and |S_i| over all nodes.

Balanced separators are found the standard FPT way: enumerate the trace
{S_W, X_W, Y_W} of the separator on the target set W, then complete each trace
with a minimum X-Y vertex cut computed by unit-capacity max-flow on the
vertex-split graph.  A trace can only be completed when no edge joins X_W and
Y_W, so for each S_W only the balanced unions of components of G[W - S_W] are
tried.  The residual flow network is built once per search; each trace runs
max-flow on a fresh copy of its capacity array.  The search takes no options.

Per-vertex costs act only in the recursive construction: a greedy local search
after the cut drops separator vertices or swaps them for cheaper neighbors
while the split stays balanced and still splits the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InvalidArgumentError, ResourceExhaustedError
from .graphcore import Graph, vertex_boundary


@dataclass(frozen=True)
class BalancedSeparator:
    """A separator splitting W into two sides of at most two thirds each.

    ``x_side``/``y_side`` extend the W-restricted sides ``x_w``/``y_w`` to a full
    partition of the remaining vertices, as needed by the recursive construction.
    """

    w_set: frozenset
    separator: frozenset
    x_w: frozenset
    y_w: frozenset
    x_side: frozenset
    y_side: frozenset


@dataclass(frozen=True)
class DecompositionNode:
    id: int
    parent: Optional[int]
    v_set: frozenset
    s_set: frozenset
    children: tuple = ()

    def is_leaf(self):
        return not self.children


@dataclass
class SeparatorDecomposition:
    nodes: list
    width: int

    @property
    def root(self) -> DecompositionNode:
        return self.nodes[0]

    def to_text(self) -> str:
        lines = []
        for node in self.nodes:
            pid = "-" if node.parent is None else str(node.parent)
            vs = ",".join(str(v) for v in sorted(node.v_set))
            ss = ",".join(str(v) for v in sorted(node.s_set))
            lines.append(f"node {node.id} parent {pid} V {{{vs}}} S {{{ss}}}")
        lines.append(f"width {self.width}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# minimum vertex cut via vertex-split max-flow

class _CutNetwork:
    """Vertex-split residual network of a graph, built once per separator search.

    Vertex v becomes in-node 2v and out-node 2v + 1 joined by arc 2v of capacity
    1; source arcs (2n + 2v) and sink arcs (4n + 2v) exist for every vertex at
    capacity 0, and each edge adds two out-to-in arcs of capacity ``big``.  Arc
    k and its residual partner sit at k and k ^ 1.  A query copies the
    capacities, closes the vertex arcs of the removed vertices and opens those
    of X and Y.
    """

    __slots__ = ("n", "head", "arcs", "cap", "big")

    def __init__(self, graph: Graph):
        n = graph.n
        self.n = n
        self.big = big = n + 5
        src, snk = 2 * n, 2 * n + 1
        self.head = head = []
        self.cap = cap = []
        self.arcs = arcs = [[] for _ in range(2 * n + 2)]

        def add_arc(a, b, c):
            arcs[a].append(len(head))
            head.append(b)
            cap.append(c)
            arcs[b].append(len(head))
            head.append(a)
            cap.append(0)

        for v in range(n):
            add_arc(2 * v, 2 * v + 1, 1)
        for v in range(n):
            add_arc(src, 2 * v, 0)
        for v in range(n):
            add_arc(2 * v + 1, snk, 0)
        for u, w in graph.edges:
            add_arc(2 * u + 1, 2 * w, big)
            add_arc(2 * w + 1, 2 * u, big)

    def min_cut(self, removed, x_w, y_w, budget):
        """Smallest vertex set (disjoint from X/Y) cutting X from Y in G - removed.

        Returns (cut, reachable_vertices) or None when every cut exceeds
        ``budget`` vertices.  The cut is the source side's boundary in the final
        residual graph, which is the same for every maximum flow.  Removed
        vertices carry no flow, so they only add dead-end in-nodes.
        """
        n, head, arcs, big = self.n, self.head, self.arcs, self.big
        cap = self.cap.copy()
        for v in removed:
            cap[2 * v] = 0
        for v in x_w:
            cap[2 * v] = big
            cap[2 * n + 2 * v] = big
        for v in y_w:
            cap[2 * v] = big
            cap[4 * n + 2 * v] = big
        src, snk = 2 * n, 2 * n + 1
        flow = 0
        while True:
            via = [-1] * (2 * n + 2)  # arc that first reached each node
            via[src] = -2
            queue = [src]
            for a in queue:
                for k in arcs[a]:
                    if cap[k]:
                        b = head[k]
                        if via[b] == -1:
                            via[b] = k
                            queue.append(b)
                if via[snk] != -1:
                    break
            else:
                break  # the search exhausted every reachable node: the flow is maximum
            bottleneck = big
            b = snk
            while b != src:
                k = via[b]
                bottleneck = min(bottleneck, cap[k])
                b = head[k ^ 1]
            b = snk
            while b != src:
                k = via[b]
                cap[k] -= bottleneck
                cap[k ^ 1] += bottleneck
                b = head[k ^ 1]
            flow += bottleneck
            if flow > budget:
                return None
        cut = []
        reachable = []
        for v in range(n):
            if via[2 * v] != -1 and v not in removed:
                (reachable if via[2 * v + 1] != -1 else cut).append(v)
        return frozenset(cut), frozenset(reachable)


def _components(graph: Graph, vertices):
    """Connected components of G[vertices], ordered by their smallest vertex."""
    inside = set(vertices)
    seen = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for u in graph.neighbors(v):
                if u in inside and u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append(frozenset(comp))
    return comps


def _component_split(graph: Graph, separator, w_set) -> Optional[BalancedSeparator]:
    """Split W across the components of G - separator, or None if balance fails.

    A subset-sum over the components' W-counts keeps the first witness subset
    found for each reachable sum; the smallest feasible sum is chosen.
    """
    rest = w_set - separator
    if not rest:
        return None
    comps = _components(graph, (v for v in range(graph.n) if v not in separator))
    total = len(w_set)
    witness = {0: ()}
    for i, comp in enumerate(comps):
        c = len(comp & w_set)
        for t, sub in list(witness.items()):
            if t + c not in witness:
                witness[t + c] = sub + (i,)
    lo = max(1, len(rest) - 2 * total // 3)
    hi = min(2 * total // 3, len(rest) - 1)
    choice = next((witness[t] for t in range(lo, hi + 1) if t in witness), None)
    if choice is None:
        return None
    x_side = frozenset().union(*(comps[i] for i in choice))
    y_side = frozenset(v for v in range(graph.n) if v not in separator and v not in x_side)
    return BalancedSeparator(
        w_set=frozenset(w_set),
        separator=frozenset(separator),
        x_w=frozenset(x_side & w_set),
        y_w=frozenset(y_side & w_set),
        x_side=x_side,
        y_side=y_side,
    )


def _balanced_splits(graph: Graph, rest, limit):
    """The (X_W, Y_W) splits of ``rest`` with no X-Y edge and 3|X_W|, 3|Y_W| <= limit.

    No edge crosses exactly when Y_W is a union of components of G[rest]; X_W
    keeps the anchor rest[0], so its component never joins Y_W.  Splits come in
    ascending order of Y_W's bitmask over rest[1:].
    """
    bit = {v: 1 << i for i, v in enumerate(rest[1:])}
    y_max = limit // 3
    y_min = max(1, len(rest) - y_max)
    choices = [(0, 0)]  # (Y_W bitmask, |Y_W|)
    for comp in _components(graph, rest)[1:]:  # [0] holds the anchor, the smallest vertex
        mask = sum(bit[v] for v in comp)
        size = len(comp)
        choices += [(m | mask, k + size) for m, k in choices if k + size <= y_max]
    for mask in sorted(m for m, k in choices if k >= y_min):
        y_w = frozenset(v for v in rest[1:] if bit[v] & mask)
        yield frozenset(rest) - y_w, y_w


def balanced_separator(graph: Graph, w_vertices, s_max: int) -> Optional[BalancedSeparator]:
    """Find a balanced W-separator of size at most s_max, or None.

    Enumerates traces {S_W, X_W, Y_W} of W (smallest S_W first, S_W in
    lexicographic order, then Y_W's bitmask ascending) and completes each with a
    minimum X-Y vertex cut; the first completed trace is returned.  Only traces
    with no X-Y edge can be completed, so for each S_W the candidates are the
    unions of components of G[W - S_W] that are balanced.  One residual flow
    network serves the whole search; each candidate runs max-flow on a copy of
    its capacities.
    """
    w_sorted = sorted(set(w_vertices))
    if len(w_sorted) < 2:
        raise InvalidArgumentError("balanced separator needs |W| >= 2")
    total = len(w_sorted)
    limit = 2 * total  # balance: 3|X|,3|Y| <= 2|W|
    network = _CutNetwork(graph)
    for s_size in range(min(s_max, total - 2) + 1):
        for s_w in combinations(w_sorted, s_size):
            s_w_set = frozenset(s_w)
            rest = [v for v in w_sorted if v not in s_w_set]
            for x_w, y_w in _balanced_splits(graph, rest, limit):
                got = network.min_cut(s_w_set, x_w, y_w, s_max - s_size)
                if got is None:
                    continue
                cut, x_side = got
                separator = s_w_set | cut
                y_side = frozenset(
                    v for v in range(graph.n) if v not in separator and v not in x_side
                )
                return BalancedSeparator(
                    w_set=frozenset(w_sorted),
                    separator=separator,
                    x_w=x_w,
                    y_w=y_w,
                    x_side=x_side,
                    y_side=y_side,
                )
    return None


def _splits(sep: BalancedSeparator, region) -> bool:
    return sep.x_side & region != region and sep.y_side & region != region


def _improve_separator(graph: Graph, sep: BalancedSeparator, costs, region) -> BalancedSeparator:
    """Greedy cost reduction: drop redundant separator vertices, then swap
    vertices for cheaper neighbors, re-validating balance and that ``region``
    still ends up split at every step."""
    w_set = set(sep.w_set)

    def ok(candidate):
        return candidate is not None and _splits(candidate, region)

    current = sep
    improved = True
    while improved:
        improved = False
        for v in sorted(current.separator, key=lambda v: -costs[v]):
            smaller = _component_split(graph, current.separator - {v}, w_set)
            if ok(smaller):
                current = smaller
                improved = True
                break
        if improved:
            continue
        for v in sorted(current.separator, key=lambda v: -costs[v]):
            for u in sorted(graph.neighbors(v)):
                if u in current.separator or costs[u] >= costs[v]:
                    continue
                swapped = _component_split(graph, current.separator - {v} | {u}, w_set)
                if ok(swapped):
                    current = swapped
                    improved = True
                    break
            if improved:
                break
    return current


# ---------------------------------------------------------------------------
# decomposition construction

def build_decomposition(
    graph: Graph, s: int, vertex_costs=None, base_size: Optional[int] = None
) -> Optional[SeparatorDecomposition]:
    """Recursively split the graph with balanced separators; width at most 6s on success.

    Regions of at most ``base_size`` vertices (default 4s) become base nodes
    with S_i = V_i.  Smaller base sizes keep every local subproblem tiny, which
    pays off for large domains; regions of at most 4s vertices that resist
    further splitting still fall back to a base node, so the width bound and
    the guarantee of success are those of the 4s construction either way.
    Each region is searched once; optional per-vertex costs then steer its
    separator toward cheap vertices by local search, without affecting which
    values of s succeed.
    """
    if s < 1:
        raise InvalidArgumentError("separator parameter must be >= 1")
    n = graph.n
    w_size = min(6 * s, n)
    base = 4 * s if base_size is None else max(1, base_size)
    nodes = []

    def emit(parent, v_set, s_set, children):
        node = DecompositionNode(len(nodes), parent, v_set, s_set, children)
        nodes.append(node)
        return node.id

    def base_node(nid, parent, region):
        a = emit(nid, frozenset(), frozenset(), ())
        b = emit(nid, frozenset(), frozenset(), ())
        nodes[nid] = DecompositionNode(nid, parent, region, region, (a, b))
        return nid

    def attach(nid, parent, region, s_set, x, y) -> Optional[int]:
        a = rec(x, nid)
        if a is None:
            return None
        b = rec(y, nid)
        if b is None:
            return None
        nodes[nid] = DecompositionNode(nid, parent, region, s_set, (a, b))
        return nid

    def rec(region: frozenset, parent) -> Optional[int]:
        if not region:
            return emit(parent, frozenset(), frozenset(), ())
        nid = emit(parent, region, frozenset(), ())  # placeholder, patched below
        if len(region) <= base:
            return base_node(nid, parent, region)

        # a disconnected region splits for free, and child boundaries only shrink
        comps = _components(graph, region)
        if len(comps) >= 2:
            x = comps[0]
            y = frozenset(region - comps[0])
            return attach(nid, parent, region, frozenset(), x, y)

        boundary = vertex_boundary(graph, region)
        w = set(boundary)
        for v in sorted(region):
            if len(w) >= w_size:
                break
            w.add(v)
        if len(w) < w_size:
            for v in range(n):
                if len(w) >= w_size:
                    break
                w.add(v)
        sep = balanced_separator(graph, w, 2 * s)
        if sep is not None and vertex_costs is not None:
            sep = _improve_separator(graph, sep, vertex_costs, region)
        if sep is None or not _splits(sep, region):
            # guaranteed progress only holds for |R| > 4s; smaller stubborn
            # regions are peeled one vertex at a time while the width budget
            # allows, and become base nodes otherwise
            if len(region) > 4 * s:
                return None
            peeled = _peel(region, boundary)
            if peeled is None:
                return base_node(nid, parent, region)
            s_set, x, y = peeled
            return attach(nid, parent, region, s_set, x, y)
        s_set = sep.separator & region
        x = sep.x_side & region
        y = sep.y_side & region
        return attach(nid, parent, region, s_set, x, y)

    def _peel(region, boundary):
        if base >= 4 * s or len(region) < 2:
            return None
        order = sorted(region, key=lambda v: (-(vertex_costs[v] if vertex_costs else 0), v))
        for v in order:
            rest = frozenset(region - {v})
            comps = _components(graph, rest)
            x = comps[0] if len(comps) >= 2 else frozenset()
            y = frozenset(rest - x)
            if len(vertex_boundary(graph, x)) <= 6 * s and len(vertex_boundary(graph, y)) <= 6 * s:
                return frozenset({v}), x, y
        return None

    if rec(frozenset(range(n)), None) is None:
        return None
    width = 0
    for node in nodes:
        width = max(width, len(node.s_set), len(vertex_boundary(graph, node.v_set)))
    return SeparatorDecomposition(nodes, width)


def find_min_width(
    graph: Graph, s_cap: int, vertex_costs=None, base_size: Optional[int] = None
) -> tuple[SeparatorDecomposition, int]:
    """Try s = 1, 2, ... up to s_cap; return the first decomposition that succeeds."""
    if s_cap < 1:
        raise InvalidArgumentError("s_cap must be >= 1")
    for s in range(1, s_cap + 1):
        decomp = build_decomposition(graph, s, vertex_costs, base_size)
        if decomp is not None:
            return decomp, s
    raise ResourceExhaustedError(
        f"no separator decomposition found up to s={s_cap}", last_attempt=s_cap
    )


def validate(graph: Graph, decomp: SeparatorDecomposition) -> Optional[str]:
    """Check every decomposition invariant; None if ok, else the first violation."""
    nodes = decomp.nodes
    if not nodes:
        return "decomposition has no nodes"
    if nodes[0].v_set != frozenset(range(graph.n)):
        return "node 0: root vertex set is not V"
    if nodes[0].parent is not None:
        return "node 0: root must have no parent"
    width = 0
    for pos, node in enumerate(nodes):
        if node.id != pos:
            return f"node {node.id}: inconsistent id"
        if pos > 0 and node.parent is None:
            return f"node {node.id}: non-root without parent"
        if node.is_leaf():
            if node.v_set or node.s_set:
                return f"node {node.id}: leaf must have empty V and S"
            continue
        if len(node.children) != 2:
            return f"node {node.id}: internal node needs exactly 2 children"
        j, k = node.children
        if not (0 <= j < len(nodes) and 0 <= k < len(nodes)):
            return f"node {node.id}: child id out of range"
        vj, vk = nodes[j].v_set, nodes[k].v_set
        if nodes[j].parent != node.id or nodes[k].parent != node.id:
            return f"node {node.id}: child parent pointer mismatch"
        if vj & vk or vj & node.s_set or vk & node.s_set:
            return f"node {node.id}: children and separator overlap"
        if (vj | vk | node.s_set) != node.v_set:
            return f"node {node.id}: children and separator do not partition V_i"
        for u, w in graph.edges:
            if u in node.v_set and w in node.v_set:
                if (u in vj and w in vk) or (u in vk and w in vj):
                    return f"node {node.id}: edge ({u},{w}) crosses the separator"
        width = max(width, len(node.s_set))
    for node in nodes:
        width = max(width, len(vertex_boundary(graph, node.v_set)))
    if width != decomp.width:
        return f"recorded width {decomp.width} differs from actual {width}"
    return None
