"""Graphs, Holant instances, the spin-to-incidence transform, and restrictions."""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Iterable, Mapping, Sequence

from .errors import InvalidArgumentError
from .symfun import SymmetricFunction, builtin, composition_of, pin
from .values import ONE, GaussianRational


class Graph:
    """A simple undirected graph with stable 0-based vertex and edge ids."""

    __slots__ = ("n", "edges", "incident", "_neighbor_sets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidArgumentError("vertex count must be >= 0")
        self.n = n
        norm = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise InvalidArgumentError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidArgumentError(f"parallel edge {key}")
            seen.add(key)
            norm.append(key)
        self.edges = tuple(norm)
        self.incident = tuple([] for _ in range(n))
        for e, (u, v) in enumerate(self.edges):
            self.incident[u].append(e)
            self.incident[v].append(e)
        self._neighbor_sets = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def neighbors(self, v: int):
        if self._neighbor_sets is None:
            sets = [set() for _ in range(self.n)]
            for u, w in self.edges:
                sets[u].add(w)
                sets[w].add(u)
            self._neighbor_sets = tuple(frozenset(s) for s in sets)
        return self._neighbor_sets[v]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgumentError("cycle needs >= 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def prism_graph() -> Graph:
    """The triangular prism: two triangles joined by a perfect matching (3-regular)."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def cube_graph() -> Graph:
    """The 3-cube Q3 (3-regular, 8 vertices, 12 edges)."""
    edges = []
    for v in range(8):
        for b in range(3):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Graph(8, edges)


def random_graph(n: int, m: int, seed=None) -> Graph:
    """A uniformly chosen simple graph with n vertices and m edges."""
    if m > n * (n - 1) // 2:
        raise InvalidArgumentError(f"{m} edges do not fit in a simple graph on {n} vertices")
    rng = random.Random(seed)
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(pool, m))


# ---------------------------------------------------------------------------
# instances

class HolantInstance:
    """A graph with one symmetric constraint function per vertex (arity = degree).

    ``model`` is provenance only, the kind and parameters the instance was
    built from; no solver reads it.
    """

    __slots__ = ("graph", "q", "functions", "model")

    def __init__(self, graph: Graph, q: int, functions: Sequence[SymmetricFunction], model=None):
        if len(functions) != graph.n:
            raise InvalidArgumentError(f"need {graph.n} functions, got {len(functions)}")
        for v, f in enumerate(functions):
            if f.q != q:
                raise InvalidArgumentError(f"function at vertex {v} has domain {f.q}, expected {q}")
            if f.d != graph.degree(v):
                raise InvalidArgumentError(
                    f"function at vertex {v} has arity {f.d}, degree is {graph.degree(v)}"
                )
        self.graph = graph
        self.q = q
        self.functions = tuple(functions)
        self.model = model

    def weight(self, config: Sequence[int]) -> GaussianRational:
        """The weight of a full edge configuration: the product of all vertex evaluations."""
        if len(config) != self.graph.m:
            raise InvalidArgumentError("configuration length must equal edge count")
        total = ONE
        for v in range(self.graph.n):
            vals = [config[e] for e in self.graph.incident[v]]
            total = total * self.functions[v].value_at(composition_of(self.q, vals))
            if not total:
                return total
        return total

    def __repr__(self):
        return f"HolantInstance(q={self.q}, {self.graph!r})"


def paired_incidence(
    graph: Graph, q: int, vertex_fns: Sequence[SymmetricFunction], edge_fns: Sequence[SymmetricFunction]
) -> HolantInstance:
    """The Holant instance on the incidence graph of ``graph``.

    Original vertex v keeps id v and carries ``vertex_fns[v]``; original edge j
    becomes vertex n + j carrying ``edge_fns[j]``, and its two half-edges, to
    its lower and higher endpoint, get the ids 2j and 2j + 1.
    """
    n = graph.n
    inc_edges = [(u, n + j) for j, ends in enumerate(graph.edges) for u in ends]
    return HolantInstance(Graph(n + graph.m, inc_edges), q, list(vertex_fns) + list(edge_fns))


def incidence_transform(
    q: int,
    graph: Graph,
    edge_function: SymmetricFunction,
    vertex_function: SymmetricFunction,
) -> HolantInstance:
    """Represent a spin system on ``graph`` as a Holant instance on its incidence graph.

    Original vertex v becomes a deg(v)-ary generalized equality weighted by the
    unary ``vertex_function``; original edge e becomes a binary vertex carrying
    ``edge_function``.  The Holant of the result equals the spin partition function.
    """
    if edge_function.q != q or vertex_function.q != q:
        raise InvalidArgumentError("edge/vertex functions must share the instance domain")
    if edge_function.d != 2:
        raise InvalidArgumentError(f"edge function must be binary, got arity {edge_function.d}")
    if vertex_function.d != 1:
        raise InvalidArgumentError(f"vertex function must be unary, got arity {vertex_function.d}")
    weights = [vertex_function.value_at(tuple(1 if i == j else 0 for j in range(q))) for i in range(q)]
    functions = [builtin("equality", q, graph.degree(v), weights=weights) for v in range(graph.n)]
    return paired_incidence(graph, q, functions, [edge_function] * graph.m)


def vertex_boundary(graph: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Vertices outside the set adjacent to some vertex inside it."""
    inside = set(vertices)
    out = set()
    for v in inside:
        for u in graph.neighbors(v):
            if u not in inside:
                out.add(u)
    return frozenset(out)


def _far_vertex(adjacency, root: int) -> int:
    """A vertex at the largest BFS distance from ``root``: the last one reached."""
    seen = {root}
    queue = [root]
    for v in queue:
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return queue[-1]


def frontier_order(graph: Graph) -> list[int]:
    """A linear layout of the vertices with a small frontier, for a forward sweep.

    The frontier is the set of vertices not yet placed that are adjacent to a
    placed one.  Each component starts at a pseudo-peripheral vertex (two BFS
    passes); then the next vertex is always the frontier vertex that adds the
    fewest new vertices to the frontier, ties to the smallest label.

    The frontier lives in a heap of (new-vertex count, label).  A count only
    falls, by one each time a neighbor joins the frontier, so every fall pushes
    a fresh entry and stale entries are skipped when popped: O(m log m) in all.
    """
    adjacency = [[] for _ in range(graph.n)]
    for u, w in graph.edges:
        adjacency[u].append(w)
        adjacency[w].append(u)
    for neighbors in adjacency:
        neighbors.sort()
    placed = [False] * graph.n
    in_frontier = [False] * graph.n
    fresh = [0] * graph.n  # for a frontier vertex: its neighbors neither placed nor in the frontier
    order = []
    for root in range(graph.n):
        if placed[root]:
            continue
        start = _far_vertex(adjacency, _far_vertex(adjacency, root))
        in_frontier[start] = True
        fresh[start] = len(adjacency[start])
        heap = [(fresh[start], start)]
        while heap:
            count, v = heapq.heappop(heap)
            if not in_frontier[v] or count != fresh[v]:
                continue
            in_frontier[v] = False
            placed[v] = True
            order.append(v)
            for w in adjacency[v]:
                if placed[w] or in_frontier[w]:
                    continue
                in_frontier[w] = True
                count = 0
                for x in adjacency[w]:
                    if in_frontier[x]:
                        fresh[x] -= 1
                        heapq.heappush(heap, (fresh[x], x))
                    elif not placed[x]:
                        count += 1
                fresh[w] = count
                heapq.heappush(heap, (count, w))
    return order


def edge_ball(graph: Graph, e: int, r: int) -> tuple[frozenset[int], frozenset[int]]:
    """(N_r, B_r): edges within line-graph distance r of e, and the fringe just outside.

    Two edges sharing an endpoint are at distance 1.  B_r is every edge outside
    N_r that shares an endpoint with an edge of N_r.
    """
    if r < 0:
        raise InvalidArgumentError("radius must be >= 0")
    if not 0 <= e < graph.m:
        raise InvalidArgumentError(f"edge {e} out of range")
    dist = {e: 0}
    queue = deque([e])
    while queue:
        cur = queue.popleft()
        if dist[cur] == r:
            continue
        for v in graph.endpoints(cur):
            for nxt in graph.incident[v]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
    ball = frozenset(dist)
    fringe = set()
    for cur in ball:
        for v in graph.endpoints(cur):
            for nxt in graph.incident[v]:
                if nxt not in ball:
                    fringe.add(nxt)
    return ball, frozenset(fringe)


class SubInstance:
    """A restriction of a Holant instance to a kept edge set with pinned functions.

    Vertices that keep at least one edge appear in the sub-instance with their
    functions pinned by the fixed values of removed incident edges; vertices all
    of whose edges are fixed contribute their fully pinned value to ``scalar``.
    """

    __slots__ = ("parent", "kept_edges", "vertices", "functions", "scalar")

    def __init__(self, parent, kept_edges, vertices, functions, scalar):
        self.parent = parent
        self.kept_edges = kept_edges
        self.vertices = vertices
        self.functions = functions
        self.scalar = scalar

    def as_instance(self) -> HolantInstance:
        """A standalone relabeled instance: its vertex i is ``vertices[i]`` and its
        edge i is ``kept_edges[i]``.  It carries no model: a restriction is not
        an instance of its parent's model."""
        vmap = {v: i for i, v in enumerate(self.vertices)}
        edges = [(vmap[u], vmap[v]) for u, v in map(self.parent.graph.endpoints, self.kept_edges)]
        funcs = [self.functions[v] for v in self.vertices]
        return HolantInstance(Graph(len(self.vertices), edges), self.parent.q, funcs)


def restrict_instance(
    instance: HolantInstance,
    fixed: Mapping[int, int],
    keep: Iterable[int],
) -> SubInstance:
    """Pin functions by ``fixed`` edge values and keep only the ``keep`` edges.

    Retained vertices are those with a kept edge or with every incident edge
    fixed; every incident edge of a retained vertex must be kept or fixed.
    """
    g = instance.graph
    keep_set = set(keep)
    for e in keep_set:
        if not 0 <= e < g.m:
            raise InvalidArgumentError(f"kept edge {e} out of range")
    for e, val in fixed.items():
        if not 0 <= e < g.m:
            raise InvalidArgumentError(f"fixed edge {e} out of range")
        if not 0 <= val < instance.q:
            raise InvalidArgumentError(f"fixed value {val} outside domain [{instance.q}]")
        if e in keep_set:
            raise InvalidArgumentError(f"edge {e} is both kept and fixed")

    vertices = []
    functions = {}
    scalar = ONE
    for v in range(g.n):
        inc = g.incident[v]
        kept_here = [e for e in inc if e in keep_set]
        fixed_here = [e for e in inc if e in fixed]
        if not kept_here and len(fixed_here) < len(inc):
            continue  # vertex not touched by the restriction
        if len(kept_here) + len(fixed_here) != len(inc):
            raise InvalidArgumentError(
                f"vertex {v} has incident edges that are neither kept nor fixed"
            )
        kappa = composition_of(instance.q, [fixed[e] for e in fixed_here])
        pinned = pin(instance.functions[v], kappa)
        if kept_here:
            vertices.append(v)
            functions[v] = pinned
        else:
            scalar = scalar * pinned.scalar()
    return SubInstance(instance, tuple(sorted(keep_set)), tuple(vertices), functions, scalar)
