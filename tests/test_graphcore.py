import itertools
import random
import time
from collections import deque
from fractions import Fraction

import pytest

from holant import (
    Graph,
    HolantInstance,
    InvalidArgumentError,
    builtin,
    brute_force_hol,
    complete_graph,
    cycle_graph,
    edge_ball,
    grid_graph,
    incidence_transform,
    path_graph,
    pin,
    random_graph,
    restrict_instance,
    vertex_boundary,
)
from holant.graphcore import frontier_order
from holant.oracle import spin_partition_brute
from holant.symfun import SymmetricFunction, compositions
from holant.values import ONE


def spin_edge_fn(q, pairs):
    """Binary function from a dict {(sorted color pair): value}, default 1."""
    table = []
    for c in compositions(q, 2):
        colors = []
        for i, cnt in enumerate(c):
            colors.extend([i] * cnt)
        table.append(pairs.get(tuple(colors), 1))
    return SymmetricFunction(q, 2, table)


# ---------------------------------------------------------------------------
# graph basics

def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidArgumentError):
        Graph(2, [(0, 5)])


def test_generators_shapes():
    assert path_graph(5).m == 4
    assert cycle_graph(6).m == 6
    g = grid_graph(3, 3)
    assert (g.n, g.m) == (9, 12)
    assert complete_graph(5).m == 10


# ---------------------------------------------------------------------------
# incidence transform

def test_incidence_single_edge_ising():
    # spin system on one edge with interaction 2 on equal spins: Z = 2+1+1+2
    g = path_graph(2)
    edge_fn = spin_edge_fn(2, {(0, 0): 2, (1, 1): 2})
    vertex_fn = SymmetricFunction(2, 1, [1, 1])
    inst = incidence_transform(2, g, edge_fn, vertex_fn)
    assert inst.graph.n == 3 and inst.graph.m == 2
    assert brute_force_hol(inst) == 6


def test_incidence_triangle_colorings():
    g = cycle_graph(3)
    edge_fn = spin_edge_fn(3, {(0, 0): 0, (1, 1): 0, (2, 2): 0})
    vertex_fn = SymmetricFunction(3, 1, [1, 1, 1])
    inst = incidence_transform(3, g, edge_fn, vertex_fn)
    # oracle: count proper 3-colorings of the triangle directly
    count = sum(
        1
        for spins in itertools.product(range(3), repeat=3)
        if spins[0] != spins[1] and spins[1] != spins[2] and spins[0] != spins[2]
    )
    assert count == 6
    assert brute_force_hol(inst) == count


def test_incidence_path_potts_matches_spin_oracle():
    g = path_graph(3)
    lam = Fraction(3)
    edge_fn = spin_edge_fn(2, {(0, 0): lam, (1, 1): lam})
    vertex_fn = SymmetricFunction(2, 1, [1, 1])
    inst = incidence_transform(2, g, edge_fn, vertex_fn)
    want = spin_partition_brute(g, 2, edge_fn, vertex_fn)
    assert want.as_fraction() == 32  # sum over 8 spin tuples of 3^{#monochromatic}
    assert brute_force_hol(inst) == want


def test_incidence_matches_spin_oracle_small_graphs():
    for g in [path_graph(2), path_graph(4), cycle_graph(3), cycle_graph(4), complete_graph(4)]:
        for q in (2, 3):
            edge_fn = spin_edge_fn(q, {(i, i): Fraction(i + 2, 2) for i in range(q)})
            vertex_fn = SymmetricFunction(q, 1, [Fraction(j + 1, 3) for j in range(q)])
            inst = incidence_transform(q, g, edge_fn, vertex_fn)
            assert brute_force_hol(inst) == spin_partition_brute(g, q, edge_fn, vertex_fn)


def test_incidence_graph_shape_and_bipartite():
    g = grid_graph(3, 3)
    edge_fn = spin_edge_fn(2, {(0, 0): 2, (1, 1): 2})
    vertex_fn = SymmetricFunction(2, 1, [1, 1])
    inst = incidence_transform(2, g, edge_fn, vertex_fn)
    assert inst.graph.n == g.n + g.m
    assert inst.graph.m == 2 * g.m
    # every incidence edge joins an original vertex (< n) to an edge vertex (>= n)
    for u, v in inst.graph.edges:
        assert (u < g.n) != (v < g.n)


def test_incidence_all_graphs_up_to_four_vertices():
    # the transform reproduces the spin partition function on every labeled
    # graph with at most 4 vertices
    import itertools as it

    for n in range(1, 5):
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pool)):
            g = Graph(n, [pool[i] for i in range(len(pool)) if mask >> i & 1])
            for q in (2, 3):
                edge_fn = spin_edge_fn(q, {(i, i): Fraction(3, 2) for i in range(q)})
                vertex_fn = SymmetricFunction(q, 1, [Fraction(1, j + 1) for j in range(q)])
                inst = incidence_transform(q, g, edge_fn, vertex_fn)
                assert brute_force_hol(inst) == spin_partition_brute(g, q, edge_fn, vertex_fn)


def test_incidence_isolated_vertex():
    g = Graph(2, [])  # two isolated spins
    edge_fn = spin_edge_fn(2, {})
    vertex_fn = SymmetricFunction(2, 1, [Fraction(2), Fraction(3)])
    inst = incidence_transform(2, g, edge_fn, vertex_fn)
    assert brute_force_hol(inst) == 25  # (2+3)^2


# ---------------------------------------------------------------------------
# boundaries and balls

def test_vertex_boundary():
    g = path_graph(3)
    assert vertex_boundary(g, {0}) == {1}
    assert vertex_boundary(g, {0, 1, 2}) == frozenset()
    grid = grid_graph(3, 3)
    assert vertex_boundary(grid, {4}) == {1, 3, 5, 7}


def test_edge_ball_path():
    g = path_graph(4)  # edges 0-1-2 in a chain
    ball, fringe = edge_ball(g, 0, 1)
    assert ball == {0, 1} and fringe == {2}
    ball, fringe = edge_ball(g, 0, 5)
    assert ball == {0, 1, 2} and fringe == frozenset()


def independent_line_bfs(g, e, r):
    dist = {e: 0}
    frontier = deque([e])
    while frontier:
        cur = frontier.popleft()
        if dist[cur] >= r:
            continue
        u, v = g.endpoints(cur)
        for w in (u, v):
            for nxt in g.incident[w]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
    return frozenset(dist)


def test_edge_ball_grid_matches_bfs_oracle():
    g = grid_graph(4, 4)
    middle = next(e for e, (u, v) in enumerate(g.edges) if u == 5 and v == 6)
    for r in range(4):
        ball, fringe = edge_ball(g, middle, r)
        assert ball == independent_line_bfs(g, middle, r)
        assert independent_line_bfs(g, middle, r + 1) == ball | fringe
        assert not (ball & fringe)


def test_edge_ball_monotone():
    g = grid_graph(3, 4)
    for e in range(g.m):
        prev = frozenset()
        for r in range(5):
            ball, _ = edge_ball(g, e, r)
            assert prev <= ball
            prev = ball


# ---------------------------------------------------------------------------
# restriction

def matchings_instance(g):
    return HolantInstance(g, 2, [builtin("at_most_one", 2, g.degree(v)) for v in range(g.n)])


def test_restrict_keep_all():
    g = cycle_graph(3)
    inst = matchings_instance(g)
    sub = restrict_instance(inst, {}, range(g.m))
    assert sub.scalar == ONE
    sub_inst = sub.as_instance()
    assert sub_inst.graph.m == 3
    assert brute_force_hol(sub_inst) == brute_force_hol(inst)


def test_restrict_matchings_triangle_pins():
    g = cycle_graph(3)
    inst = matchings_instance(g)
    sub = restrict_instance(inst, {0: 1}, [1, 2])
    u, v = g.endpoints(0)
    for w in (u, v):
        assert [x.as_fraction() for x in sub.functions[w].boolean_weights()] == [1, 0]


def test_restrict_full_pin_gives_weight():
    g = path_graph(4)
    inst = matchings_instance(g)
    for config in itertools.product(range(2), repeat=g.m):
        fixed = {e: config[e] for e in range(g.m)}
        sub = restrict_instance(inst, fixed, [])
        assert sub.kept_edges == ()
        assert sub.scalar == inst.weight(config)


def test_restrict_inconsistent_raises():
    g = path_graph(3)
    inst = matchings_instance(g)
    with pytest.raises(InvalidArgumentError):
        restrict_instance(inst, {0: 1}, [0, 1])  # edge both kept and fixed
    with pytest.raises(InvalidArgumentError):
        restrict_instance(inst, {}, [0])  # vertex 1 has edge 1 dangling


def test_restrict_hol_preserved_under_conditioning():
    # summing hol of the restriction over all values of a fixed edge gives hol
    g = cycle_graph(4)
    inst = matchings_instance(g)
    total = brute_force_hol(inst)
    parts = []
    for val in range(2):
        sub = restrict_instance(inst, {0: val}, [1, 2, 3])
        sub_inst = sub.as_instance()
        parts.append(sub.scalar * brute_force_hol(sub_inst))
    assert parts[0] + parts[1] == total


# ---------------------------------------------------------------------------
# frontier order

def _frontier_order_by_scan(graph):
    """The frontier order by its definition: BFS twice for the start of each
    component, then a scan of the whole frontier for every next vertex."""
    def far(root):
        seen = {root}
        queue = deque([root])
        while queue:
            last = queue.popleft()
            for u in sorted(graph.neighbors(last)):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return last

    placed = [False] * graph.n
    order = []
    for root in range(graph.n):
        if placed[root]:
            continue
        frontier = {far(far(root))}
        while frontier:
            v = min(frontier, key=lambda u: (
                sum(1 for w in graph.neighbors(u) if not placed[w] and w not in frontier), u))
            frontier.discard(v)
            placed[v] = True
            order.append(v)
            frontier.update(w for w in graph.neighbors(v) if not placed[w])
    return order


def test_frontier_order_equals_the_frontier_scan():
    rng = random.Random(16)
    graphs = [grid_graph(5, 7), cycle_graph(9), complete_graph(6), Graph(4, [])]
    for _ in range(300):
        n = rng.randint(1, 30)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        graphs.append(random_graph(n, m, seed=rng.randint(0, 10 ** 9)))
    for g in graphs:
        order = frontier_order(g)
        assert order == _frontier_order_by_scan(g)
        assert sorted(order) == list(range(g.n))


def test_frontier_order_of_a_large_star_is_fast():
    star = Graph(3001, [(0, leaf) for leaf in range(1, 3001)])
    t0 = time.perf_counter()
    order = frontier_order(star)
    assert time.perf_counter() - t0 < 0.5
    # BFS from leaf 3000 ends at leaf 2999, the start; then the hub, then the
    # other leaves, which add nothing to the frontier, by label
    assert order == [2999, 0] + [leaf for leaf in range(1, 3001) if leaf != 2999]
