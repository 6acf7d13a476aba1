import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_instance
from holant import (
    FailedPreconditionError,
    HolantError,
    HolantInstance,
    InfeasibleInstanceError,
    InvalidArgumentError,
    RadiusPolicy,
    brute_force_hol,
    builtin,
    cycle_graph,
    estimate_marginal,
    fptas_hol,
    grid_graph,
    marginal_distribution,
    parse_instance,
    path_graph,
    tractable_search,
)
from holant import approx
from holant.approx import _complete_generic
from holant.models import ModelSpec, build_model
from holant.oracle import gibbs_oracle


def matchings(g):
    return build_model(ModelSpec("matchings", {}), g)


# ---------------------------------------------------------------------------
# tractable search

def test_search_potts_always_extends():
    # every spin assignment is feasible for Potts, so every partial that is a
    # restriction of one extends; half-edge conflicts at a vertex do not
    inst = build_model(ModelSpec("potts", {"q": 3, "lambda": 2}), cycle_graph(4))
    base = inst.model.base_graph
    rng = random.Random(0)
    for _ in range(10):
        spins = [rng.randrange(3) for _ in range(base.n)]
        full = {}
        for e in range(inst.graph.m):
            u, w = inst.graph.endpoints(e)
            full[e] = spins[u if u < base.n else w]
        partial = {e: full[e] for e in rng.sample(range(inst.graph.m), 3)}
        out = tractable_search(inst, partial)
        assert out is not None
        assert all(out[e] == v for e, v in partial.items())
        assert inst.weight(tuple(out[e] for e in range(inst.graph.m)))
    # conflicting half-edges at one equality vertex are infeasible
    v0_edges = inst.graph.incident[0]
    assert tractable_search(inst, {v0_edges[0]: 0, v0_edges[1]: 1}) is None


def test_search_perfect_matchings_infeasible():
    g = path_graph(3)
    inst = HolantInstance(g, 2, [builtin("exact_one", 2, g.degree(v)) for v in range(3)])
    assert tractable_search(inst, {0: 0, 1: 0}) is None
    out = tractable_search(inst, {})
    assert out is None  # middle vertex needs exactly one of two edges, ends need theirs


def test_search_perfect_matchings_feasible():
    g = path_graph(4)
    inst = HolantInstance(g, 2, [builtin("exact_one", 2, g.degree(v)) for v in range(4)])
    out = tractable_search(inst, {})
    assert out == {0: 1, 1: 0, 2: 1}


def test_search_subgraphs_world_zeros():
    inst = build_model(
        ModelSpec("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}),
        cycle_graph(3),
    )
    out = tractable_search(inst, {})
    assert out is not None and all(v == 0 for v in out.values())
    # half-edges of one original edge must agree
    bad = tractable_search(inst, {0: 1, 1: 0})
    assert bad is None


def test_search_matchings():
    inst = matchings(cycle_graph(3))
    assert tractable_search(inst, {0: 1, 1: 1}) is None
    out = tractable_search(inst, {0: 1})
    assert out == {0: 1, 1: 0, 2: 0}


def test_search_colorings_greedy():
    inst = build_model(ModelSpec("colorings", {"q": 3}), cycle_graph(4))
    out = tractable_search(inst, {})
    assert out is not None
    # decode spins from half-edges and check properness
    base = inst.model.base_graph
    for u, v in base.edges:
        eu = inst.graph.incident[u]
        ev = inst.graph.incident[v]
        shared_u = {out[e] for e in eu}
        shared_v = {out[e] for e in ev}
        assert len(shared_u) == 1 and len(shared_v) == 1
        assert shared_u != shared_v


def test_search_model_completions_are_the_smallest_feasible_extension():
    # the generic search is the greedy lexicographically smallest feasible
    # extension, computed from the tables alone; every direct completion must
    # find the same one (or None with it)
    rng = random.Random(5)
    for g in (path_graph(3), cycle_graph(3), cycle_graph(4)):
        specs = (
            ModelSpec("matchings", {}),
            ModelSpec("weighted_matchings", {"edge_weights": [Fraction(k + 1, 2) for k in range(g.m)]}),
            ModelSpec("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}),
            ModelSpec("ising", {"beta": Fraction(1, 3), "B": Fraction(1, 4)}),
            ModelSpec("potts", {"q": 3, "lambda": 2}),
        )
        for spec in specs:
            inst = build_model(spec, g)
            for _ in range(19):
                edges = rng.sample(range(inst.graph.m), rng.randint(0, min(3, inst.graph.m)))
                partial = {e: rng.randrange(inst.q) for e in edges}
                assert tractable_search(inst, partial) == _complete_generic(inst, partial), (spec.kind, partial)


# ---------------------------------------------------------------------------
# marginals

def test_marginal_whole_graph_equals_gibbs():
    inst = matchings(path_graph(5))
    oracle = gibbs_oracle(inst)
    for e in range(inst.graph.m):
        dist, report = marginal_distribution(inst, e, {}, RadiusPolicy.whole_graph())
        assert report.certified and report.full_cover
        assert dist == oracle.marginal(e)


def test_marginal_p5_middle_edge():
    inst = matchings(path_graph(5))
    oracle = gibbs_oracle(inst)
    want = oracle.marginal(1)[1]
    assert want == Fraction(2, 8)  # matchings containing edge 1, out of 8
    got = estimate_marginal(inst, 1, {}, 1, RadiusPolicy.whole_graph())
    assert got == want


def test_marginal_conditioned_matches_gibbs():
    inst = matchings(cycle_graph(4))
    oracle = gibbs_oracle(inst)
    cond = {0: 0}
    for e in (1, 2, 3):
        dist, _ = marginal_distribution(inst, e, cond, RadiusPolicy.whole_graph())
        assert dist == oracle.marginal(e, cond)


def test_marginal_normalization_exact():
    inst = matchings(grid_graph(2, 3))
    for policy in (RadiusPolicy.fixed(1), RadiusPolicy.fixed(2), RadiusPolicy.whole_graph()):
        dist, _ = marginal_distribution(inst, 2, {}, policy)
        assert sum(dist) == 1


def test_marginal_conditioned_edge_is_indicator():
    inst = matchings(path_graph(4))
    dist, report = marginal_distribution(inst, 1, {1: 0}, RadiusPolicy.whole_graph())
    assert dist == [1, 0] and report.certified


def test_marginal_infeasible_cond():
    inst = matchings(path_graph(4))
    with pytest.raises(FailedPreconditionError):
        marginal_distribution(inst, 2, {0: 1, 1: 1}, RadiusPolicy.whole_graph())


def test_marginal_truncated_decays_toward_truth():
    # adaptive radii must record shrinking gaps on a gently mixing chain
    inst = build_model(ModelSpec("potts", {"q": 5, "lambda": Fraction(3, 2)}), cycle_graph(10))
    policy = RadiusPolicy.adaptive(delta_stab=Fraction(1, 10 ** 9))
    dist, report = marginal_distribution(inst, 0, {}, policy)
    gaps = [g for _, g in report.gaps]
    assert len(gaps) >= 2
    assert gaps[-1] <= gaps[0]


def test_marginal_stabilized_means_small_final_gaps():
    inst = build_model(ModelSpec("potts", {"q": 3, "lambda": Fraction(3, 2)}), cycle_graph(12))
    delta = Fraction(1, 50)
    dist, report = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(delta_stab=delta))
    if report.stabilized and not report.full_cover:
        assert len(report.gaps) >= 2
        assert report.gaps[-1][1] <= delta and report.gaps[-2][1] <= delta


def test_fptas_edgeless_instance():
    g = __import__("holant").Graph(2, [])
    from holant.symfun import SymmetricFunction

    inst = HolantInstance(g, 2, [SymmetricFunction(2, 0, [Fraction(3)]),
                                 SymmetricFunction(2, 0, [Fraction(5, 2)])])
    res = fptas_hol(inst, Fraction(1, 10))
    assert res.value == Fraction(15, 2) and res.certified


# ---------------------------------------------------------------------------
# the FPTAS

def test_fptas_whole_radius_exact_matchings():
    for g in (path_graph(5), cycle_graph(5), grid_graph(2, 3)):
        inst = matchings(g)
        res = fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph())
        assert res.certified
        assert res.value == brute_force_hol(inst)


def test_fptas_whole_radius_exact_random():
    rng = random.Random(31)
    done = 0
    while done < 8:
        inst = random_instance(rng, max_n=6, max_edges=7)
        try:
            res = fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph())
        except InfeasibleInstanceError:
            continue
        assert res.value == brute_force_hol(inst)
        done += 1


def test_fptas_matchings_grid_exact():
    inst = matchings(grid_graph(3, 3))
    res = fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph())
    assert res.value == 131


def test_fptas_adaptive_small_instance():
    inst = matchings(path_graph(6))
    res = fptas_hol(inst, Fraction(1, 10))
    assert res.value == brute_force_hol(inst)  # adaptive saturates on tiny graphs
    assert res.p_min >= Fraction(1, 4)


def test_fptas_infeasible_instance():
    g = path_graph(3)
    inst = HolantInstance(g, 2, [builtin("exact_one", 2, g.degree(v)) for v in range(3)])
    with pytest.raises(InfeasibleInstanceError):
        fptas_hol(inst, Fraction(1, 10))


def test_fptas_rejects_bad_eps():
    inst = matchings(path_graph(3))
    with pytest.raises(InvalidArgumentError):
        fptas_hol(inst, Fraction(0))


def test_fptas_rejects_complex_values():
    from holant.symfun import from_boolean_weights
    from holant.values import GaussianRational

    g = path_graph(2)
    f = from_boolean_weights([GaussianRational(1, 1), GaussianRational(1)])
    inst = HolantInstance(g, 2, [f, builtin("at_most_one", 2, 1)])
    with pytest.raises(InvalidArgumentError):
        fptas_hol(inst, Fraction(1, 10))


def test_fptas_step_records():
    inst = matchings(path_graph(4))
    res = fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph())
    assert [rec.edge for rec in res.steps] == [0, 1, 2]
    assert all(0 < rec.probability <= 1 for rec in res.steps)
    product = Fraction(1)
    for rec in res.steps:
        product *= rec.probability
    config = tuple(rec.chosen for rec in sorted(res.steps, key=lambda r: r.edge))
    assert res.value == inst.weight(config) * (1 / product)


@pytest.mark.parametrize("inst", [
    matchings(grid_graph(3, 3)),
    build_model(ModelSpec("perfect_matchings", {}), cycle_graph(6)),
    build_model(ModelSpec("potts", {"q": 3, "lambda": 2}), cycle_graph(4)),
], ids=["grid3x3-matchings", "c6-perfect-matchings", "c4-potts"])
def test_fptas_asks_each_completion_question_once(inst, monkeypatch):
    # the completion that shows the chosen value extends fills the next step's
    # fringe: one question for the instance, then one per step
    asked = []
    search = approx.tractable_search

    def recording(instance, partial):
        asked.append(tuple(sorted(partial.items())))
        return search(instance, partial)

    monkeypatch.setattr(approx, "tractable_search", recording)
    res = fptas_hol(inst, Fraction(1, 10))
    assert not res.flags
    assert len(set(asked)) == len(asked) == inst.graph.m + 1


def _fptas_record(inst):
    try:
        res = fptas_hol(inst, Fraction(1, 10))
    except HolantError as exc:
        return f"error {type(exc).__name__}\n"
    lines = [f"value {res.value} certified {res.certified} p_min {res.p_min} flags {res.flags}"]
    for s in res.steps:
        r = s.report
        lines.append(f"step {s.edge} {s.chosen} {s.probability} {r.radii} {r.gaps} {r.stabilized} {r.full_cover}")
    return "\n".join(lines) + "\n"


def test_fptas_golden_random_draws():
    # one digest over the adaptive FPTAS result and every step record of 100
    # seeded random instances, so a change to the search or the fringe fill
    # must leave every value, radius and gap as it was
    rng = random.Random(9)
    h = hashlib.sha256()
    for _ in range(100):
        h.update(_fptas_record(random_instance(rng)).encode())
    assert h.hexdigest() == "52cc45cff1169da772be1a1cab18ee811f03595a762c87b3b2e3247b6f54dc95"


# Weighted equality functions at vertices 0, 1 and 5 carry the fringe fill
# along the path 4-0-1-5-3 without decay: edge 0's estimate for value 2 is
# 21/52 at r = 1, 2 and 4 (true marginal 166/341), so two zero gaps mark it
# stabilized.
EQUALITY_PATH_TEXT = """holant 1
q 3
vertices 8
edge 6 7
edge 3 5
edge 0 1
edge 4 7
edge 4 6
edge 0 4
edge 1 5
function 0 table 4/3 0 3/2 0 0 1
function 1 table 3 0 3/2 0 0 2/3
function 2 table 1
function 3 table 1/2 1 1
function 4 table 0 0 0 0 1/2 1 1/2 0 0 1/2
function 5 table 1 0 2 0 0 3/2
function 6 table 1 2 1 3 1/2 1
function 7 table 1 1 1 1/2 1/2 1
"""


def test_fptas_equality_path_whole_graph_is_exact():
    inst = parse_instance(EQUALITY_PATH_TEXT)
    assert brute_force_hol(inst).as_fraction() == Fraction(341, 4)
    assert fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph()).value.as_fraction() == Fraction(341, 4)
    assert gibbs_oracle(inst).marginal(0)[2] == Fraction(166, 341)
    dist, report = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(Fraction(1, 8 * 3 * 7 * 10)))
    assert dist[2] == Fraction(21, 52) and report.radii == (1, 2, 4) and report.stabilized


@pytest.mark.xfail(strict=True, reason="stabilization is tested against one boundary fill only; "
                                       "the fill passes along an equality path without decay")
def test_fptas_certified_result_is_within_eps_on_equality_path():
    inst = parse_instance(EQUALITY_PATH_TEXT)
    result = fptas_hol(inst, Fraction(1, 10))
    assert not result.certified or abs(result.value.as_fraction() / Fraction(341, 4) - 1) <= Fraction(1, 10)
