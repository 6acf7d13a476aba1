import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import differential_instances, domain_symmetric_instances, model_instances, random_instance
from holant import (
    BooleanSymmetricFunction,
    Graph,
    HolantInstance,
    InvalidArgumentError,
    RadiusPolicy,
    ResourceExhaustedError,
    brute_force_hol,
    builtin,
    complete_graph,
    cube_graph,
    cycle_graph,
    edge_ball,
    fpt_hol,
    fptas_hol,
    from_boolean_weights,
    grid_graph,
    hol_with_boundary,
    path_graph,
    prism_graph,
    random_graph,
    restrict_instance,
    simple_dp_hol,
)
from holant import exact
from holant.exact import FptSolver, auto_hol, edge_numerators, instance_decomposition
from holant.models import ModelSpec, build_model
from holant.oracle import literal_recursion_hol
from holant.symfun import SymmetricFunction, compositions
from holant.values import GaussianRational


def matchings_instance(g):
    return HolantInstance(g, 2, [builtin("at_most_one", 2, g.degree(v)) for v in range(g.n)])


def gaussian_cycle_instance():
    """A 4-cycle whose Holant has a nonzero imaginary part."""
    g = cycle_graph(4)
    i_val = GaussianRational(0, 1)
    funcs = []
    for v in range(4):
        if v % 2:
            funcs.append(from_boolean_weights([1, i_val, GaussianRational(Fraction(1, 2), Fraction(-1, 3))]))
        else:
            funcs.append(builtin("cyclic", 2, 2, c=2, values=[1, Fraction(2, 5)]))
    return HolantInstance(g, 2, funcs)


# ---------------------------------------------------------------------------
# brute force

def test_brute_force_trivial_instance():
    g = Graph(1, [])
    inst = HolantInstance(g, 2, [SymmetricFunction(2, 0, [Fraction(7, 3)])])
    assert brute_force_hol(inst) == Fraction(7, 3)


def test_brute_force_matchings_triangle():
    inst = matchings_instance(cycle_graph(3))
    assert brute_force_hol(inst) == 4  # empty matching plus three single edges


def test_brute_force_colorings_c4():
    from holant.models import ModelSpec, build_model

    inst = build_model(ModelSpec("colorings", {"q": 3}), cycle_graph(4))
    # proper q-colorings of a cycle: (q-1)^n + (-1)^n (q-1)
    assert brute_force_hol(inst) == 2 ** 4 + 2


def test_brute_force_budget():
    g = grid_graph(4, 5)  # 31 edges
    inst = matchings_instance(g)
    with pytest.raises(ResourceExhaustedError):
        brute_force_hol(inst)
    # explicit cap override lifts the guard
    assert brute_force_hol(matchings_instance(path_graph(3)), cap_bits=4) == 3


def test_brute_force_env_cap(monkeypatch):
    monkeypatch.setenv("HOLANT_ENUM_CAP", "1")
    with pytest.raises(ResourceExhaustedError):
        brute_force_hol(matchings_instance(path_graph(4)))


# ---------------------------------------------------------------------------
# simple DP

def test_simple_dp_single_edge():
    g = Graph(2, [(0, 1)])
    a = from_boolean_weights([Fraction(2), Fraction(3)])
    b = from_boolean_weights([Fraction(5), Fraction(7)])
    inst = HolantInstance(g, 2, [a, b])
    assert simple_dp_hol(inst) == 2 * 5 + 3 * 7


def test_simple_dp_matchings_path():
    inst = matchings_instance(path_graph(4))
    assert simple_dp_hol(inst) == 5


def test_simple_dp_subgraphs_world_triangle():
    from holant.models import ModelSpec, build_model

    lam, mu = Fraction(1, 2), Fraction(1, 3)
    inst = build_model(ModelSpec("subgraphs_world", {"lambda": lam, "mu": mu}), cycle_graph(3))
    expect = 1 + 3 * lam * mu ** 2 + 3 * lam ** 2 * mu ** 2 + lam ** 3
    assert simple_dp_hol(inst) == expect


def test_simple_dp_equals_brute_on_random():
    rng = random.Random(20)
    for _ in range(30):
        inst = random_instance(rng, max_n=6, max_edges=8)
        assert simple_dp_hol(inst) == brute_force_hol(inst)


def _star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_simple_dp_star_hub_expands_only_live_compositions():
    # the hub meets all but one leaf at once; its moves are the assignments of
    # the compositions with a nonzero factor, so 20 leaves give 21 matchings
    # from 20 moves, not from 2^19 assignments
    rng = random.Random(19)
    for leaves in range(1, 7):
        inst = matchings_instance(_star(leaves))
        assert simple_dp_hol(inst) == leaves + 1 == brute_force_hol(inst)
        g = _star(leaves)
        funcs = [SymmetricFunction(3, g.degree(v), [rng.choice([0, 0, 1, 2, Fraction(1, 2)])
                                                    for _ in compositions(3, g.degree(v))])
                 for v in range(g.n)]
        inst = HolantInstance(g, 3, funcs)
        assert simple_dp_hol(inst) == brute_force_hol(inst)
    start = time.perf_counter()
    assert simple_dp_hol(matchings_instance(_star(20))) == 21
    assert time.perf_counter() - start < 1


def test_simple_dp_deep_path_needs_no_recursion():
    # matchings of the n-vertex path number F(n+1); 3000 eliminations are far
    # deeper than the default recursion limit
    a, b = 1, 1
    for _ in range(3000):
        a, b = b, a + b
    assert simple_dp_hol(matchings_instance(path_graph(3000))) == a  # F(3001)


# Differential property test: the three exact solvers and the literal
# recursion on random instances (``conftest.differential_instances``).

DIFFERENTIAL = settings(derandomize=True, max_examples=100, deadline=None, database=None)
def _relabelled(inst, vertex_perm, edge_order):
    """The instance with vertex v renamed vertex_perm[v] and its edges listed
    in ``edge_order``; it has the same Holant."""
    g = inst.graph
    funcs = [None] * g.n
    for v, f in enumerate(inst.functions):
        funcs[vertex_perm[v]] = f
    edges = [(vertex_perm[g.edges[e][0]], vertex_perm[g.edges[e][1]]) for e in edge_order]
    return HolantInstance(Graph(g.n, edges), inst.q, funcs)


class _FptRoute:
    """Stands in for FptSolver to show which route auto_hol took."""

    def __init__(self, instance, decomposition):
        pass

    def holant(self):
        return "fpt"


def _assert_sweep_entries_agree(inst, want, data):
    """The pass's entry points on ``inst``, whose Holant is ``want``.

    simple_dp_hol orders the edges itself, so no labelling of the input may
    change its value.  auto_hol's prediction bounds every unlifted level of
    the edge-order pass, so with the cap at the bound the pass runs and never
    exceeds it; one below the bound, the FPT solver runs.
    """
    g = inst.graph
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    perm, order = list(range(g.n)), list(range(g.m))
    rng.shuffle(perm)
    rng.shuffle(order)
    assert simple_dp_hol(_relabelled(inst, perm, order)) == want
    bound = exact._predicted_level(inst)
    with mock.patch.object(exact, "STATE_CAP", bound):
        assert auto_hol(inst) == want
    with mock.patch.object(exact, "STATE_CAP", bound - 1), \
            mock.patch.object(exact, "FptSolver", _FptRoute):
        assert auto_hol(inst) == "fpt"


@DIFFERENTIAL
@given(differential_instances(), st.data())
def test_exact_solvers_agree_on_random_instances(inst, data):
    decomp, _ = instance_decomposition(inst)
    want = brute_force_hol(inst)
    assert simple_dp_hol(inst) == want == fpt_hol(inst, decomp) == literal_recursion_hol(inst, decomp)
    _assert_sweep_entries_agree(inst, want, data)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(domain_symmetric_instances(), st.data())
def test_lifted_memo_agrees_on_domain_symmetric_instances(inst, data):
    # lifted keys share one memo entry across relabelled sub-problems, and
    # lifted pass states merge symmetric partial assignments; each value must
    # still be the brute-force one
    want = brute_force_hol(inst)
    decomp, _ = instance_decomposition(inst)
    assert simple_dp_hol(inst) == want == FptSolver(inst, decomp).holant()
    # the pattern of a ball's numerators: one pass gives the Holant with edge
    # e pinned to each value
    e = data.draw(st.integers(0, inst.graph.m - 1))
    keep = [x for x in range(inst.graph.m) if x != e]
    pinned = [restrict_instance(inst, {e: i}, keep) for i in range(inst.q)]
    assert edge_numerators(inst, e) == [p.scalar * brute_force_hol(p.as_instance()) for p in pinned]


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.one_of(domain_symmetric_instances(), model_instances()), st.data())
def test_sweep_entries_agree_where_lifting_fires(inst, data):
    # Potts models, colorings and other domain-symmetric instances: the pass
    # lifts its states, whatever labels the input gives its vertices and edges
    _assert_sweep_entries_agree(inst, brute_force_hol(inst), data)


def _feasible_fill(inst, drawn):
    """``drawn`` when its weight is nonzero, else the first configuration in
    lexicographic order that has nonzero weight (``drawn`` if none has)."""
    if inst.weight(drawn):
        return drawn
    return next((c for c in itertools.product(range(inst.q), repeat=inst.graph.m) if inst.weight(c)), drawn)


@DIFFERENTIAL
@given(st.one_of(differential_instances(), domain_symmetric_instances()), st.data())
def test_edge_numerators_equal_brute_force_on_balls(inst, data):
    # the FPTAS ball: restrict to the r-ball of e with the fringe fixed by a
    # feasible fill; numerator i of the one pass is the ball's Holant with e
    # pinned to i
    g = inst.graph
    e = data.draw(st.integers(0, g.m - 1))
    r = data.draw(st.integers(0, 3))
    fill = _feasible_fill(inst, data.draw(st.lists(st.integers(0, inst.q - 1), min_size=g.m, max_size=g.m)))
    ball, fringe = edge_ball(g, e, r)
    keep = sorted(ball)
    sub = restrict_instance(inst, {b: fill[b] for b in fringe}, keep).as_instance()
    k = keep.index(e)
    want = []
    for i in range(inst.q):
        pinned = restrict_instance(sub, {k: i}, [x for x in range(sub.graph.m) if x != k])
        want.append(pinned.scalar * brute_force_hol(pinned.as_instance()))
    assert edge_numerators(sub, k) == want


def test_ball_sweeps_carry_one_weight_per_block(monkeypatch):
    # a ball's pass starts one state per block of its domain symmetry, so its
    # start weights have one entry per block: on the Potts q=10 prism, the
    # balls whose pins split the values into {0} and {1..9} start with 2
    # entries; on the matchings of the 3x5 grid, the balls with a trivial
    # group start with q (the default walks both instances' edge-order
    # tables, so the balls run here at whole-graph radius)
    seen = []
    run = exact._edge_pass

    def recording(q, funcs, steps, level, groups, rows=None):
        weight = next(iter(level.values()), None)
        if type(weight) is tuple:
            blocks = groups or ()
            assert len(weight) == q - sum(len(values) - 1 for values in blocks)
            seen.append((blocks, len(weight)))
        return run(q, funcs, steps, level, groups, rows)

    monkeypatch.setattr(exact, "_edge_pass", recording)
    fptas_hol(build_model(ModelSpec("potts", {"q": 10, "beta": Fraction(1, 5)}), prism_graph()), Fraction(1, 10),
              RadiusPolicy.whole_graph())
    assert ((list(range(1, 10)),), 2) in seen
    seen.clear()
    fptas_hol(build_model(ModelSpec("matchings", {}), grid_graph(3, 5)), Fraction(1, 10), RadiusPolicy.whole_graph())
    assert ((), 2) in seen


def test_auto_hol_equals_fpt_solver_on_both_sides_of_the_cap():
    # Potts q=10 on K4 is predicted under the cap and runs the pass; on K5 it
    # is predicted over it and runs the FPT solver, though the lifted pass
    # still fits
    for graph, over in ((complete_graph(4), False), (complete_graph(5), True)):
        inst = build_model(ModelSpec("potts", {"q": 10, "lambda": Fraction(3, 2)}), graph)
        assert (exact._predicted_level(inst) > exact.STATE_CAP) == over
        want = FptSolver(inst, instance_decomposition(inst)[0]).holant()
        assert auto_hol(inst) == want == simple_dp_hol(inst)


def test_auto_hol_sends_the_12x12_grid_matchings_to_the_pass():
    # an open vertex counts only the compositions of its decided edges whose
    # pin survives, two for a matchings vertex, so the grid's bound stays far
    # under the cap; its decomposition would run for minutes.  A stand-in
    # pass that ends at 7 shows the route without the second it takes.
    inst = matchings_instance(grid_graph(12, 12))
    assert exact._predicted_level(inst) <= exact.STATE_CAP
    with mock.patch.object(exact, "FptSolver", _FptRoute), \
            mock.patch.object(exact, "_edge_pass", lambda *args: {(): 7}):
        assert auto_hol(inst) == 7


def test_simple_dp_over_the_state_cap_raises():
    inst = matchings_instance(grid_graph(4, 4))
    with mock.patch.object(exact, "STATE_CAP", 8):
        with pytest.raises(ResourceExhaustedError):
            simple_dp_hol(inst)
    assert simple_dp_hol(inst) == 10012  # the matchings of the 4x4 grid


# Z of Potts q=10, beta=1/5 on the prism and the cube, as the unlifted recursion
# computed it
POTTS_Q10_PRISM = Fraction(
    "7276653869460311860262185506483516899205015576722100279277818268529617130184558779330522"
    "6490666890892035247533206742795545303696393113318727143611981519817127190166667964142928"
    "1841358277564373878005817117663538965885950097124578745009829949718376212960555076046629"
    "16871646109805419336912588438436999216155623631759374149872181515452823479891221068645/5"
    "9738601067233466281281634491411842587046693108828905322456442940351267378996053048619984"
    "3146073943284334419012436611782660732503467149908694664227443463141465473368862115449737"
    "4002265333589296837114532435725383016417751765120478377836731655888674105947250192370582"
    "4093383596292495753904407271199775319567834517805828939983656912225009196335104"
)
POTTS_Q10_CUBE = Fraction(
    "3826613346157482692098164060432106527719306637901211667692314660919652588386491140695861"
    "4661815296797620646545117802061189194617458221596263924455504064657948743398202926264938"
    "7132995259162557887318779974270929489913678800266365091948836599011650871962376429605558"
    "5827510444459961426098235830620220828709625273000941222991475880967500826272505857692490"
    "2349663254138722402211217456939301503081301779163290699047681339335637623506540719464395"
    "396953801975252080254815365/294227591176883860910658765384315687611339507805870233320272"
    "8319171456776845462891441754179818537658280577107276474615219558614476068064361535172104"
    "3588557757021647209248354794565210912081072994102118446501316162812467600804499500847917"
    "3232678162593383522417156042563187191571689650564991674092281223861129195430799465526360"
    "2361123060989695373633520004700806877093374369478328407203997880621183319314282844539786"
    "17907556881227114971108935697386090942963908608"
)


def test_fptas_walks_the_table_on_potts_q10():
    # the lifted tables of the prism and the cube are small, so the default
    # FPTAS walks them and returns the exact value
    for graph, want in ((prism_graph(), POTTS_Q10_PRISM), (cube_graph(), POTTS_Q10_CUBE)):
        res = fptas_hol(build_model(ModelSpec("potts", {"q": 10, "beta": Fraction(1, 5)}), graph), Fraction(1, 10))
        assert res.table_states is not None and res.certified
        assert res.value == want


def test_lifted_work_counts_potts_q10():
    # Potts q=10 is invariant under every relabelling of the domain, so the
    # lifted memo holds few entries; the values are the ones the unlifted
    # recursion computed, and the work counts are pinned, so that a change of
    # the Z0 evaluator shows if it changes the recursion's work
    for graph, counts, want in (
        (prism_graph(), {"memo_entries": 47, "z0_entries": 74, "terms": 344}, POTTS_Q10_PRISM),
        (cube_graph(), {"memo_entries": 117, "z0_entries": 52, "terms": 774}, POTTS_Q10_CUBE),
    ):
        inst = build_model(ModelSpec("potts", {"q": 10, "beta": Fraction(1, 5)}), graph)
        decomp, _ = instance_decomposition(inst)
        solver = FptSolver(inst, decomp)
        assert solver.holant() == want
        assert solver.stats.as_dict() == counts


def test_fpt_work_counts_grid_matchings():
    inst = matchings_instance(grid_graph(4, 4))
    solver = FptSolver(inst, instance_decomposition(inst)[0])
    assert solver.holant() == 10012
    assert solver.stats.as_dict() == {"memo_entries": 105, "z0_entries": 81, "terms": 504}


# ---------------------------------------------------------------------------
# the FPT solver

def test_fpt_matches_oracle_small():
    rng = random.Random(21)
    for _ in range(25):
        inst = random_instance(rng, max_n=7, max_edges=10)
        decomp, _ = instance_decomposition(inst)
        assert fpt_hol(inst, decomp) == brute_force_hol(inst)


def test_fpt_matchings_grid():
    inst = matchings_instance(grid_graph(3, 3))
    decomp, _ = instance_decomposition(inst)
    value = fpt_hol(inst, decomp)
    assert value == brute_force_hol(inst) == simple_dp_hol(inst)
    assert value == 131


def test_fpt_perfect_matchings_k4():
    g = complete_graph(4)
    inst = HolantInstance(g, 2, [builtin("exact_one", 2, 3) for _ in range(4)])
    decomp, _ = instance_decomposition(inst)
    assert fpt_hol(inst, decomp) == 3


def test_fpt_literal_and_folded_agree():
    # the literal recursion enumerates every three-image term, zero terms
    # included, and checks that each boundary constraint is a union of peer
    # classes of its vertex's function
    rng = random.Random(22)
    for _ in range(26):
        inst = random_instance(rng, max_n=6, max_edges=8)
        decomp, _ = instance_decomposition(inst)
        folded = FptSolver(inst, decomp).holant()
        assert folded == literal_recursion_hol(inst, decomp) == brute_force_hol(inst)


def test_fpt_memo_write_once():
    inst = matchings_instance(grid_graph(3, 3))
    decomp, _ = instance_decomposition(inst)
    solver = FptSolver(inst, decomp)
    first = solver.holant()
    snapshot = dict(solver._memo)
    second = solver.holant()
    assert first == second
    for key, value in snapshot.items():
        assert solver._memo[key] is value


def test_fpt_peer_image_count_bounded():
    from holant.symfun import peer_partition, regularity

    inst = matchings_instance(grid_graph(3, 3))
    decomp, _ = instance_decomposition(inst)
    solver = FptSolver(inst, decomp)
    solver.holant()
    for node_id, info in solver._info.items():
        for i, v in enumerate(info.core):
            if info.roles[i]:
                fv = inst.functions[v]
                c_reg = regularity(fv)
                assert len(peer_partition(fv, info.d1[i])) <= c_reg
                assert len(peer_partition(fv, info.d2[i])) <= c_reg


def test_fpt_memo_keys_within_closure_bound():
    # per node, distinct boundary-constraint keys stay within the product of
    # the per-vertex closure bounds 2^regularity(f_v)
    from holant import vertex_boundary
    from holant.symfun import regularity

    inst = matchings_instance(grid_graph(3, 3))
    decomp, _ = instance_decomposition(inst)
    solver = FptSolver(inst, decomp)
    solver.holant()
    keys_per_node = {}
    for node_id, phi_uids in solver._memo:
        keys_per_node.setdefault(node_id, set()).add(phi_uids)
    for node in decomp.nodes:
        seen = len(keys_per_node.get(node.id, ()))
        bound = 1
        for v in vertex_boundary(inst.graph, node.v_set):
            bound *= 2 ** regularity(inst.functions[v])
        assert seen <= bound


@pytest.mark.parametrize("make, real", [
    (lambda: matchings_instance(grid_graph(3, 3)), True),
    (lambda: build_model(ModelSpec("potts", {"q": 3, "beta": Fraction(1, 5)}), complete_graph(4)), True),
    (gaussian_cycle_instance, False),
], ids=["matchings-3x3", "potts3-k4", "gaussian-cycle"])
def test_fpt_sums_keep_the_narrowest_type(make, real):
    # memo entries are ints when they are real integers, Fractions when they
    # are real, and GaussianRationals only with a nonzero imaginary part;
    # holant() still returns a GaussianRational.  The Potts instance is on K4:
    # brute force on the q=3 prism (18 edges) takes about 14 s
    inst = make()
    decomp, _ = instance_decomposition(inst)
    solver = FptSolver(inst, decomp)
    z = solver.holant()
    assert type(z) is GaussianRational and z == brute_force_hol(inst)
    assert (z.im == 0) == real
    values = list(solver._memo.values()) + [v for memo in solver._z0_memo.values() for v in memo.values()]
    for v in values:
        assert type(v) in (int, Fraction, GaussianRational)
        if type(v) is Fraction:
            assert v.denominator != 1
        if type(v) is GaussianRational:
            assert not real and v.im != 0
    if real:
        assert not any(type(v) is GaussianRational for v in values)


def test_fpt_rejects_invalid_decomposition():
    from holant.sepdecomp import DecompositionNode, SeparatorDecomposition

    inst = matchings_instance(path_graph(3))
    bad = SeparatorDecomposition(
        [DecompositionNode(0, None, frozenset({0, 1, 2}), frozenset({0, 1, 2}), ())],
        width=3,
    )
    with pytest.raises(InvalidArgumentError):
        fpt_hol(inst, bad)


def test_fpt_disconnected_instance():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    inst = matchings_instance(g)
    decomp, _ = instance_decomposition(inst)
    assert fpt_hol(inst, decomp) == 8  # 2^3 independent edges


# ---------------------------------------------------------------------------
# boundary-constrained sub-Holants

def test_hol_with_boundary_vacuous_constraints():
    inst = matchings_instance(path_graph(4))
    constraints = {
        0: BooleanSymmetricFunction.full(2, 1),
    }
    assert hol_with_boundary(inst, constraints) == brute_force_hol(inst)


def test_hol_with_boundary_forcing():
    # one vertex forced unmatched on its single edge
    inst = matchings_instance(path_graph(3))
    unmatched = BooleanSymmetricFunction(2, 1, [(1, 0)])
    value = hol_with_boundary(inst, {0: unmatched})
    # edge 0 forced off: matchings of remaining path with edge 1 free
    assert value == 2


def test_hol_with_boundary_empty_instance():
    g = Graph(0, [])
    inst = HolantInstance(g, 2, [])
    assert hol_with_boundary(inst, {}) == 1


def test_hol_with_boundary_arity_mismatch():
    inst = matchings_instance(path_graph(3))
    with pytest.raises(InvalidArgumentError):
        hol_with_boundary(inst, {0: BooleanSymmetricFunction.full(2, 2)})


# ---------------------------------------------------------------------------
# closed forms

def fib_matchings(n):
    a, b = 1, 2  # matchings of P1 (no edges) and P2 (one edge)
    for _ in range(n - 2):
        a, b = b, a + b
    return b if n >= 2 else a


def test_matchings_path_fibonacci():
    for n in range(2, 13):
        inst = matchings_instance(path_graph(n))
        decomp, _ = instance_decomposition(inst)
        assert fpt_hol(inst, decomp) == fib_matchings(n)


def test_colorings_cycle_closed_form():
    from holant.models import ModelSpec, build_model

    for q in (2, 3, 4):
        for n in range(3, 9):
            inst = build_model(ModelSpec("colorings", {"q": q}), cycle_graph(n))
            decomp, _ = instance_decomposition(inst)
            expect = (q - 1) ** n + (-1) ** n * (q - 1)
            assert fpt_hol(inst, decomp) == expect


def test_potts_cycle_transfer_matrix_closed_form():
    # Z(C_n) = (lam + q - 1)^n + (q - 1)(lam - 1)^n from the transfer matrix
    from holant.models import ModelSpec, build_model

    lam = Fraction(5, 2)
    for q in (2, 3):
        for n in (4, 7):
            inst = build_model(ModelSpec("potts", {"q": q, "lambda": lam}), cycle_graph(n))
            decomp, _ = instance_decomposition(inst)
            expect = (lam + q - 1) ** n + (q - 1) * (lam - 1) ** n
            assert fpt_hol(inst, decomp) == expect


def test_domino_tilings_of_grids():
    # perfect matchings of 2xN and 4x4 grids match the classical counts
    from holant.models import ModelSpec, build_model

    known = {(2, 2): 2, (2, 3): 3, (2, 4): 5, (2, 5): 8, (4, 4): 36}
    for (rows, cols), count in known.items():
        inst = build_model(ModelSpec("perfect_matchings", {}), grid_graph(rows, cols))
        decomp, _ = instance_decomposition(inst)
        assert fpt_hol(inst, decomp) == count


def test_fpt_vs_simple_dp_beyond_brute_force():
    # 4x5 grid matchings: 31 edges, far past the enumeration budget; the two
    # solvers are independent algorithms and must still agree exactly
    from holant.models import ModelSpec, build_model

    inst = build_model(ModelSpec("matchings", {}), grid_graph(4, 5))
    decomp, _ = instance_decomposition(inst)
    assert fpt_hol(inst, decomp) == simple_dp_hol(inst)


def test_exact_solvers_handle_gaussian_rational_values():
    inst = gaussian_cycle_instance()
    z = brute_force_hol(inst)
    assert z.im != 0  # genuinely complex
    assert simple_dp_hol(inst) == z
    decomp, _ = instance_decomposition(inst)
    assert fpt_hol(inst, decomp) == z
    assert literal_recursion_hol(inst, decomp) == z
