import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from holant import (
    Graph,
    ModelSpec,
    ResourceExhaustedError,
    balanced_separator,
    build_decomposition,
    build_model,
    complete_graph,
    cycle_graph,
    find_min_width,
    grid_graph,
    path_graph,
    prism_graph,
    random_graph,
    validate,
)
from conftest import random_instance
from holant.exact import instance_decomposition
from holant.sepdecomp import DecompositionNode, SeparatorDecomposition, _components, _CutNetwork


def exhaustive_balanced_separator_exists(graph, w, size):
    """Oracle: check every vertex subset of the given size for W-balancedness."""
    w = set(w)
    for cand in itertools.combinations(range(graph.n), size):
        s = set(cand)
        rest = sorted(w - s)
        if not rest:
            continue
        comp_of = {}
        for start in range(graph.n):
            if start in s or start in comp_of:
                continue
            stack = [start]
            comp_of[start] = start
            while stack:
                v = stack.pop()
                for u in graph.neighbors(v):
                    if u not in s and u not in comp_of:
                        comp_of[u] = start
                        stack.append(u)
        comps = {}
        for v in rest:
            comps.setdefault(comp_of[v], []).append(v)
        # try all 2-groupings of components
        labels = list(comps.values())
        for mask in range(1, 1 << len(labels)):
            x = sum(len(labels[i]) for i in range(len(labels)) if mask >> i & 1)
            y = len(rest) - x
            if 0 < x and 0 < y and 3 * x <= 2 * len(w) and 3 * y <= 2 * len(w):
                return True
    return False


def reference_trace_search(graph, w, s_max):
    """The trace search spelled out: every (S_W, X_W, Y_W) in search order, each
    completed by brute force with the minimum cut whose X-side is smallest.

    Returns (separator, x_w, y_w, x_side, y_side) of the first completed trace.
    """
    w_sorted = sorted(w)
    total = len(w_sorted)
    free = [v for v in range(graph.n) if v not in w]  # cut vertices lie outside W

    def x_reach(x_w, removed):
        side, stack = set(x_w), list(x_w)
        while stack:
            for u in graph.neighbors(stack.pop()):
                if u not in removed and u not in side:
                    side.add(u)
                    stack.append(u)
        return frozenset(side)

    for s_size in range(min(s_max, total - 2) + 1):
        for s_w in itertools.combinations(w_sorted, s_size):
            rest = [v for v in w_sorted if v not in s_w]
            others = rest[1:]  # rest[0] always stays in X_W
            for mask in range(1, 1 << len(others)):
                y_w = frozenset(v for i, v in enumerate(others) if mask >> i & 1)
                x_w = frozenset(rest) - y_w
                if 3 * len(x_w) > 2 * total or 3 * len(y_w) > 2 * total:
                    continue
                for k in range(s_max - s_size + 1):
                    cuts = [(len(side), cut, side) for cut in itertools.combinations(free, k)
                            for side in [x_reach(x_w, set(s_w) | set(cut))] if not side & y_w]
                    if cuts:
                        _, cut, x_side = min(cuts)
                        separator = frozenset(s_w + cut)
                        y_side = frozenset(range(graph.n)) - separator - x_side
                        return separator, x_w, y_w, x_side, y_side
    return None


def unpruned_balanced_separator(graph, w, s_max):
    """The trace search without the pair prune: every balanced union of
    components of G[W - S_W] runs its own flow, in the search order.

    Returns (separator, x_w, y_w, x_side, y_side) of the first completed trace,
    or None, and the most components any visited S_W left.
    """
    w_sorted = sorted(w)
    total = len(w_sorted)
    network = _CutNetwork(graph)
    most = 0
    for s_size in range(min(s_max, total - 2) + 1):
        for s_w in itertools.combinations(w_sorted, s_size):
            s_w_set = frozenset(s_w)
            rest = [v for v in w_sorted if v not in s_w_set]
            comps = _components(graph, rest)  # comps[0] holds rest[0], which stays in X_W
            most = max(most, len(comps))
            bit = {v: 1 << i for i, v in enumerate(rest[1:])}
            splits = []
            for r in range(1, len(comps)):
                for ids in itertools.combinations(range(1, len(comps)), r):
                    y_w = frozenset().union(*(comps[i] for i in ids))
                    if 3 * len(y_w) <= 2 * total and 3 * (len(rest) - len(y_w)) <= 2 * total:
                        splits.append((sum(bit[v] for v in y_w), y_w))
            for _, y_w in sorted(splits):
                x_w = frozenset(rest) - y_w
                got = network.min_cut(s_w_set, x_w, y_w, s_max - s_size)
                if got is not None:
                    cut, x_side = got
                    separator = s_w_set | cut
                    y_side = frozenset(range(graph.n)) - separator - x_side
                    return (separator, x_w, y_w, x_side, y_side), most
    return None, most


# ---------------------------------------------------------------------------
# balanced separators

def test_path_middle_vertex():
    g = path_graph(7)
    sep = balanced_separator(g, range(7), 1)
    assert sep is not None
    assert len(sep.separator) <= 1
    assert 0 < len(sep.x_w) <= 4 and 0 < len(sep.y_w) <= 4
    assert exhaustive_balanced_separator_exists(g, range(7), 1)


def test_clique_has_no_small_separator():
    g = complete_graph(5)
    assert balanced_separator(g, range(5), 1) is None
    assert not exhaustive_balanced_separator_exists(g, range(5), 1)


def test_grid_3x3_size_3():
    g = grid_graph(3, 3)
    sep = balanced_separator(g, range(9), 3)
    assert sep is not None
    assert len(sep.separator) <= 3
    assert 3 * len(sep.x_w) <= 18 and 3 * len(sep.y_w) <= 18
    assert exhaustive_balanced_separator_exists(g, range(9), 3)


def test_separator_actually_separates():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(4, 10)
        g = random_graph(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), seed=rng.randint(0, 10 ** 9))
        sep = balanced_separator(g, range(n), 3)
        if sep is None:
            continue
        for u in sep.x_side:
            for w in g.neighbors(u):
                assert w not in sep.y_side
        assert sep.x_side | sep.y_side | sep.separator == frozenset(range(n))


def test_balancedness_literal_two_thirds():
    rng = random.Random(77)
    accepted = 0
    while accepted < 30:
        n = rng.randint(5, 12)
        g = random_graph(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)),
                         seed=rng.randint(0, 10 ** 9))
        w = rng.sample(range(n), rng.randint(4, n))
        sep = balanced_separator(g, w, rng.randint(1, 3))
        if sep is None:
            continue
        accepted += 1
        total = len(sep.w_set)
        assert 0 < len(sep.x_w) and 3 * len(sep.x_w) <= 2 * total
        assert 0 < len(sep.y_w) and 3 * len(sep.y_w) <= 2 * total
        assert sep.x_w == sep.x_side & sep.w_set
        assert sep.y_w == sep.y_side & sep.w_set
        assert (sep.x_w | sep.y_w | (sep.separator & sep.w_set)) == sep.w_set


def test_disconnected_fast_path():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    sep = balanced_separator(g, range(6), 2)
    assert sep is not None and not sep.separator
    assert {frozenset(sep.x_w), frozenset(sep.y_w)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_separator_differential_against_exhaustive_search():
    # the trace search must find a separator exactly when one exists, and it
    # must return the reference's first trace
    rng = random.Random(2024)
    found = 0
    for trial in range(100):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(0, min(2 * n, n * (n - 1) // 2)), seed=rng.randint(0, 10 ** 9))
        w = frozenset(rng.sample(range(n), rng.randint(2, n)))
        s_max = rng.randint(0, 3)
        rng.random()  # keeps the draw sequence, so the trials stay the same graphs
        sep = balanced_separator(g, w, s_max)
        exists = any(exhaustive_balanced_separator_exists(g, w, k) for k in range(s_max + 1))
        assert (sep is not None) == exists, f"trial {trial}"
        got = sep and (sep.separator, sep.x_w, sep.y_w, sep.x_side, sep.y_side)
        assert got == reference_trace_search(g, w, s_max), f"trial {trial}"
        if sep is None:
            continue
        found += 1
        assert len(sep.separator) <= s_max, f"trial {trial}"
        for side in (sep.x_side & w, sep.y_side & w):
            assert 0 < len(side) and 3 * len(side) <= 2 * len(w), f"trial {trial}"
        for u in sep.x_side:
            assert not g.neighbors(u) & sep.y_side, f"trial {trial}"
        assert not sep.x_side & sep.y_side and not sep.separator & (sep.x_side | sep.y_side)
        assert sep.x_side | sep.y_side | sep.separator == frozenset(range(n)), f"trial {trial}"
    assert 20 <= found <= 90  # both outcomes are exercised


def test_pair_prune_returns_the_unpruned_trace():
    # the pair prune skips only traces whose flow would fail, so the search
    # returns what the unpruned loop returns; every draw leaves at least three
    # components for some S_W, where pairs can rule out traces
    rng = random.Random(2026)
    draws = found = 0
    while draws < 200:
        n = rng.randint(8, 20)
        g = random_graph(n, rng.randint(n // 2, 2 * n), seed=rng.randint(0, 10 ** 9))
        w = frozenset(rng.sample(range(n), rng.randint(3, min(n, 10))))
        s_max = rng.randint(0, 4)
        want, most = unpruned_balanced_separator(g, w, s_max)
        if most < 3:
            continue
        draws += 1
        sep = balanced_separator(g, w, s_max)
        got = sep and (sep.separator, sep.x_w, sep.y_w, sep.x_side, sep.y_side)
        assert got == want, f"draw {draws}"
        found += sep is not None
    assert 20 <= found <= 180  # both outcomes are exercised


# ---------------------------------------------------------------------------
# decomposition construction

def test_single_vertex():
    g = Graph(1, [])
    decomp = build_decomposition(g, 1)
    assert decomp is not None
    assert validate(g, decomp) is None
    root = decomp.root
    assert root.v_set == root.s_set == frozenset({0})
    assert len(root.children) == 2


def test_empty_graph():
    g = Graph(0, [])
    decomp = build_decomposition(g, 1)
    assert decomp is not None and validate(g, decomp) is None


def test_path_20_width_bound():
    g = path_graph(20)
    decomp = build_decomposition(g, 1)
    assert decomp is not None
    assert validate(g, decomp) is None
    assert decomp.width <= 6


def test_grid_4x4_s4():
    g = grid_graph(4, 4)
    decomp = build_decomposition(g, 4)
    assert decomp is not None
    assert validate(g, decomp) is None
    assert decomp.width <= 24


def test_termination_strictly_shrinking():
    g = grid_graph(3, 4)
    decomp = build_decomposition(g, 2)
    assert decomp is not None
    for node in decomp.nodes:
        if not node.is_leaf():
            j, k = node.children
            assert len(decomp.nodes[j].v_set) < len(node.v_set)
            assert len(decomp.nodes[k].v_set) < len(node.v_set)
    assert len(decomp.nodes) <= 4 * g.n + 3


def test_find_min_width_families():
    # trees
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    decomp, s = find_min_width(tree, 5)
    assert validate(tree, decomp) is None and decomp.width <= 6 * s

    cyc = cycle_graph(10)
    decomp, s = find_min_width(cyc, 5)
    assert validate(cyc, decomp) is None
    assert s <= 2 and decomp.width <= 12

    k6 = complete_graph(6)
    decomp, s = find_min_width(k6, 6)
    assert validate(k6, decomp) is None
    assert s >= 2


def test_find_min_width_exhausted():
    with pytest.raises(ResourceExhaustedError) as info:
        # a clique is never separated at s=1, and 4s < n blocks the base case
        find_min_width(complete_graph(9), 1)
    assert info.value.last_attempt == 1


def test_random_graphs_validate():
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randint(1, 15)
        m = rng.randint(0, min(2 * n, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randint(0, 10 ** 9))
        decomp, s = find_min_width(g, n + 1)
        assert validate(g, decomp) is None, f"trial {trial}"
        assert decomp.width <= 6 * s, f"trial {trial}"


def test_grid_widths_against_treewidth():
    # k x k grids have treewidth k; construction stays within 6(k+1)
    for k in range(2, 6):
        g = grid_graph(k, k)
        decomp, s = find_min_width(g, k + 2)
        assert validate(g, decomp) is None
        assert s <= k + 1
        assert decomp.width <= 6 * (k + 1)


def test_deep_split_base_size():
    g = grid_graph(3, 3)
    decomp = build_decomposition(g, 3, base_size=1)
    assert decomp is not None
    assert validate(g, decomp) is None
    assert decomp.width <= 18


@pytest.mark.parametrize("kind, params, graph, s_expected, width, nodes, digest", [
    ("matchings", {}, grid_graph(6, 6), 2, 8, 43,
     "2d05397370792e694a8703edfed1beb8e41d0c880877c8651fd51fcad082995c"),
    ("potts", {"q": 10, "beta": Fraction(1, 5)}, prism_graph(), 2, 4, 25,
     "a6d86dffdb3f8164281ab8c20fd949d8d290def88de63f456152510178ddf613"),
    ("matchings", {}, grid_graph(8, 8), 2, 10, 97,
     "63a9df5b7c1d1024abeba3feba55b5a3285da041187260b5ba36c917c0ef4220"),
], ids=["grid6x6-matchings", "prism-potts", "grid8x8-matchings"])
def test_instance_decomposition_golden(kind, params, graph, s_expected, width, nodes, digest):
    # pins the exact decomposition, so a faster separator search must find the
    # same separators in the same order
    decomp, s = instance_decomposition(build_model(ModelSpec(kind, params), graph))
    assert (s, decomp.width, len(decomp.nodes)) == (s_expected, width, nodes)
    assert hashlib.sha256(decomp.to_text().encode()).hexdigest() == digest


def test_grid8x8_separator_search_skips_failing_flows(monkeypatch):
    # the bench grid: the search without the pair prune ran 4,143 max-flows
    # here, and all but 26 of them ended above the budget
    calls = 0
    min_cut = _CutNetwork.min_cut

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return min_cut(self, *args)

    monkeypatch.setattr(_CutNetwork, "min_cut", counted)
    instance_decomposition(build_model(ModelSpec("matchings", {}), grid_graph(8, 8)))
    assert calls <= 2600


def test_instance_decomposition_golden_random_draws():
    # one digest over s and the decomposition of 200 seeded random instances
    rng = random.Random(6)
    h = hashlib.sha256()
    for _ in range(200):
        decomp, s = instance_decomposition(random_instance(rng))
        h.update(f"s {s}\n{decomp.to_text()}\n".encode())
    assert h.hexdigest() == "f5ec9028d2632d0a339be09208d37ac25a456fab450772a4afd6ccb37289ac94"


# ---------------------------------------------------------------------------
# the validator catches planted faults

def build_valid(g, s=2):
    decomp = build_decomposition(g, s)
    assert decomp is not None
    return decomp


def test_validator_crossing_edge():
    g = path_graph(4)
    nodes = [
        DecompositionNode(0, None, frozenset({0, 1, 2, 3}), frozenset({0}), (1, 2)),
        DecompositionNode(1, 0, frozenset({1}), frozenset({1}), (3, 4)),
        DecompositionNode(2, 0, frozenset({2, 3}), frozenset({2, 3}), (5, 6)),
        DecompositionNode(3, 1, frozenset(), frozenset(), ()),
        DecompositionNode(4, 1, frozenset(), frozenset(), ()),
        DecompositionNode(5, 2, frozenset(), frozenset(), ()),
        DecompositionNode(6, 2, frozenset(), frozenset(), ()),
    ]
    bad = SeparatorDecomposition(nodes, width=4)
    report = validate(g, bad)
    assert report is not None and "crosses" in report  # edge (1,2) crosses


def test_validator_wrong_width():
    g = path_graph(6)
    decomp = build_valid(g, 1)
    tampered = SeparatorDecomposition(decomp.nodes, width=decomp.width + 1)
    report = validate(g, tampered)
    assert report is not None and "width" in report


def test_validator_nonempty_leaf():
    g = Graph(2, [(0, 1)])
    nodes = [
        DecompositionNode(0, None, frozenset({0, 1}), frozenset({1}), (1, 2)),
        DecompositionNode(1, 0, frozenset({0}), frozenset(), ()),
        DecompositionNode(2, 0, frozenset(), frozenset(), ()),
    ]
    report = validate(g, SeparatorDecomposition(nodes, width=2))
    assert report is not None and "leaf" in report
