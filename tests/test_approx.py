import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import differential_instances, domain_symmetric_instances, model_instances, random_instance
from holant import (
    FailedPreconditionError,
    Graph,
    HolantError,
    HolantInstance,
    InfeasibleInstanceError,
    InvalidArgumentError,
    RadiusPolicy,
    SymmetricFunction,
    brute_force_hol,
    builtin,
    cycle_graph,
    estimate_marginal,
    fptas_hol,
    grid_graph,
    marginal_distribution,
    parse_instance,
    path_graph,
    prism_graph,
    restrict_instance,
    simple_dp_hol,
    tractable_search,
)
from holant import approx, exact
from holant.models import MODEL_KINDS, ModelSpec, build_model
from holant.oracle import gibbs_oracle


def matchings(g):
    return build_model(ModelSpec("matchings", {}), g)


def _model_params(kind, graph):
    return {
        "matchings": {},
        "perfect_matchings": {},
        "weighted_matchings": {"edge_weights": [Fraction(k + 1, 2) for k in range(graph.m)]},
        "colorings": {"q": 5},
        "potts": {"q": 3, "lambda": 2},
        "subgraphs_world": {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)},
        "ising": {"beta": Fraction(1, 3), "B": Fraction(1, 4)},
    }[kind]


# ---------------------------------------------------------------------------
# tractable search

def test_search_potts_always_extends():
    # every spin assignment is feasible for Potts, so every partial that is a
    # restriction of one extends; half-edge conflicts at a vertex do not
    base = cycle_graph(4)
    inst = build_model(ModelSpec("potts", {"q": 3, "lambda": 2}), base)
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
    base = cycle_graph(4)
    inst = build_model(ModelSpec("colorings", {"q": 3}), base)
    out = tractable_search(inst, {})
    assert out is not None
    # decode spins from half-edges and check properness
    for u, v in base.edges:
        eu = inst.graph.incident[u]
        ev = inst.graph.incident[v]
        shared_u = {out[e] for e in eu}
        shared_v = {out[e] for e in ev}
        assert len(shared_u) == 1 and len(shared_v) == 1
        assert shared_u != shared_v


def _smallest_feasible_extension(inst, partial):
    """The reference: the first configuration in lexicographic edge-id order
    that extends ``partial`` with nonzero weight, or None."""
    for config in itertools.product(range(inst.q), repeat=inst.graph.m):
        if all(config[e] == val for e, val in partial.items()) and inst.weight(config):
            return dict(enumerate(config))
    return None


@st.composite
def search_cases(draw):
    """An instance with nonnegative values and a partial configuration of it:
    a small model of any kind, or a random instance, zero-heavy or not."""
    if draw(st.booleans()):
        inst = draw(differential_instances(kinds=("base", "zero_heavy")))
    else:
        kind = draw(st.sampled_from(MODEL_KINDS))
        graph = draw(st.sampled_from([path_graph(3), cycle_graph(3), cycle_graph(4)]))
        params = {"q": 3} if kind == "colorings" else _model_params(kind, graph)
        inst = build_model(ModelSpec(kind, params), graph)
    edges = draw(st.lists(st.integers(0, inst.graph.m - 1), unique=True, max_size=3))
    return inst, {e: draw(st.integers(0, inst.q - 1)) for e in edges}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(search_cases())
def test_search_is_the_smallest_feasible_extension(case):
    inst, partial = case
    assert tractable_search(inst, partial) == _smallest_feasible_extension(inst, partial)


def test_search_falls_back_to_checks_at_a_dead_end(monkeypatch):
    # the walk colours a triangle's first two corners 0 and 1 and gives the
    # third 0 from its first edge alone, so the third corner's second
    # half-edge has no value left; the positivity checks take over
    fallbacks = []
    checks = approx._complete_by_checks

    def recording(instance, partial):
        fallbacks.append(instance)
        return checks(instance, partial)

    monkeypatch.setattr(approx, "_complete_by_checks", recording)
    triangle = build_model(ModelSpec("colorings", {"q": 3}), cycle_graph(3))
    assert tractable_search(triangle, {}) == _smallest_feasible_extension(triangle, {})
    prism = build_model(ModelSpec("colorings", {"q": 5}), prism_graph())
    fill = tractable_search(prism, {})
    assert prism.weight([fill[e] for e in range(prism.graph.m)])
    assert fallbacks == [triangle, prism]


@pytest.mark.parametrize("spec, graph, value", [
    (ModelSpec("potts", {"q": 3, "lambda": 2}), cycle_graph(4), 22),
    (ModelSpec("weighted_matchings", {"edge_weights": [1, 2, 3]}), path_graph(4), 4),
], ids=["potts", "weighted_matchings"])
def test_restricted_model_instances_get_the_generic_search(spec, graph, value):
    # a restriction is not an instance of its parent's model: it follows
    # neither the parent's incidence layout nor its edge numbering
    inst = build_model(spec, graph)
    sub = restrict_instance(inst, {0: 1, 1: 1}, range(2, inst.graph.m)).as_instance()
    assert sub.model is None
    fill = tractable_search(sub, {})
    assert sub.weight([fill[e] for e in range(sub.graph.m)])
    assert brute_force_hol(sub).as_fraction() == value
    assert fptas_hol(sub, Fraction(1, 10), RadiusPolicy.whole_graph()).value.as_fraction() == value
    assert fptas_hol(sub, Fraction(1, 10)).value.as_fraction() == value


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


def _balls_over_budget(monkeypatch):
    """Route the adaptive FPTAS to the balls, as for an instance whose table
    bound is over ``STATE_CAP``."""
    monkeypatch.setattr(approx, "edge_order_bound", lambda instance: exact.STATE_CAP + 1)


_COMPLETION_INSTANCES = [
    matchings(grid_graph(3, 3)),
    build_model(ModelSpec("perfect_matchings", {}), cycle_graph(6)),
    build_model(ModelSpec("potts", {"q": 3, "lambda": 2}), cycle_graph(4)),
]
_COMPLETION_IDS = ["grid3x3-matchings", "c6-perfect-matchings", "c4-potts"]


def _recorded_questions(monkeypatch):
    asked = []
    search = approx.tractable_search

    def recording(instance, partial):
        asked.append(tuple(sorted(partial.items())))
        return search(instance, partial)

    monkeypatch.setattr(approx, "tractable_search", recording)
    return asked


@pytest.mark.parametrize("inst", _COMPLETION_INSTANCES, ids=_COMPLETION_IDS)
def test_fptas_asks_each_completion_question_once(inst, monkeypatch):
    # on the balls, the completion that shows the chosen value extends fills
    # the next step's fringe, and it is the smallest feasible extension of the
    # pins; when a step chooses the value it already gives the edge, it is
    # still the answer
    asked = _recorded_questions(monkeypatch)
    _balls_over_budget(monkeypatch)
    res = fptas_hol(inst, Fraction(1, 10))
    assert not res.flags and res.table_states is None
    assert asked == [()]


@pytest.mark.parametrize("inst", _COMPLETION_INSTANCES, ids=_COMPLETION_IDS)
def test_fptas_table_asks_no_completion_question(inst, monkeypatch):
    # the table's total decides feasibility, and every value it chooses
    # extends
    asked = _recorded_questions(monkeypatch)
    res = fptas_hol(inst, Fraction(1, 10))
    assert not res.flags and res.table_states is not None
    assert asked == []


def test_fptas_table_total_decides_feasibility():
    # a zero level-0 sum, and a zero vertex without an edge, are both
    # infeasible on the table route
    inst = build_model(ModelSpec("perfect_matchings", {}), path_graph(3))
    assert exact.EdgeOrderTable(inst).total == 0
    with pytest.raises(InfeasibleInstanceError):
        fptas_hol(inst, Fraction(1, 10))
    ones = SymmetricFunction(2, 1, [1, 1])
    lonely = HolantInstance(Graph(3, [(0, 1)]), 2, [ones, ones, SymmetricFunction(2, 0, [0])])
    assert exact.EdgeOrderTable(lonely).total == 0
    with pytest.raises(InfeasibleInstanceError):
        fptas_hol(lonely, Fraction(1, 10))


def _fptas_record(inst, policy=None):
    try:
        res = fptas_hol(inst, Fraction(1, 10), policy)
    except HolantError as exc:
        return f"error {type(exc).__name__}\n"
    lines = [f"value {res.value} certified {res.certified} p_min {res.p_min} flags {res.flags}"]
    for s in res.steps:
        r = s.report
        lines.append(f"step {s.edge} {s.chosen} {s.probability} {r.radii} {r.gaps} {r.stabilized} {r.full_cover}")
    return "\n".join(lines) + "\n"


def test_fptas_golden_random_draws():
    # one digest over the default FPTAS result and every step record of 100
    # seeded random instances; every feasible one is walked on the edge-order
    # table, so each record is the instance's whole-graph record
    rng = random.Random(9)
    h = hashlib.sha256()
    for _ in range(100):
        h.update(_fptas_record(random_instance(rng)).encode())
    assert h.hexdigest() == "c1b16b68eda635451db7f9c6891cb71d7950205c18a0988e7f85f8b5aa0750f8"


def test_fptas_golden_model_instances():
    # one digest over the default FPTAS records of every model kind on four
    # graphs; every feasible one is walked on the edge-order table, so each
    # record is the instance's whole-graph record
    h = hashlib.sha256()
    for graph in (path_graph(4), cycle_graph(6), prism_graph(), grid_graph(3, 3)):
        for kind in MODEL_KINDS:
            h.update(_fptas_record(build_model(ModelSpec(kind, _model_params(kind, graph)), graph)).encode())
    assert h.hexdigest() == "3eb1007f330e07ee523aff01acb055d474ef8fb2f4756a4e836a236c8e324c66"


def test_fptas_golden_random_draws_on_the_balls(monkeypatch):
    # the same 100 draws with the table's bound over budget: the adaptive ball
    # walk (stabilization at delta_stab = eps/(8qm), fringe fills, carried
    # completions) must record what it recorded before the table
    _balls_over_budget(monkeypatch)
    rng = random.Random(9)
    h = hashlib.sha256()
    for _ in range(100):
        h.update(_fptas_record(random_instance(rng)).encode())
    assert h.hexdigest() == "52cc45cff1169da772be1a1cab18ee811f03595a762c87b3b2e3247b6f54dc95"


def test_fptas_golden_model_instances_on_the_balls(monkeypatch):
    # the model instances of the golden above, with the table's bound over
    # budget, as recorded before the table
    _balls_over_budget(monkeypatch)
    h = hashlib.sha256()
    for graph in (path_graph(4), cycle_graph(6), prism_graph(), grid_graph(3, 3)):
        for kind in MODEL_KINDS:
            h.update(_fptas_record(build_model(ModelSpec(kind, _model_params(kind, graph)), graph)).encode())
    assert h.hexdigest() == "7d79865ea20e13e1a81a5147547eb4c1a21bdb2e03f0354b2a346be78f481e6b"


def _ball_record(inst):
    """The fixed-radius-2 FPTAS record and edge 0's adaptive ball marginal."""
    lines = [_fptas_record(inst, RadiusPolicy.fixed(2))]
    try:
        dist, r = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(Fraction(1, 8 * inst.q * inst.graph.m * 10)))
    except HolantError as exc:
        return "".join(lines) + f"error {type(exc).__name__}\n"
    return "".join(lines) + f"marginal {dist} {r.radii} {r.gaps} {r.stabilized} {r.full_cover}\n"


def test_ball_route_golden_random_draws():
    # the default walks the edge-order table on these draws, so this digest
    # pins the balls instead: fringe fills, completions, radii, gaps and
    # flags, as recorded before the table
    rng = random.Random(9)
    h = hashlib.sha256()
    for _ in range(100):
        h.update(_ball_record(random_instance(rng)).encode())
    assert h.hexdigest() == "098abe5602d581f9e07ca61b27ad9fb6ecc2ba2c4ae3fc56cc9d777d5da66e37"


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


# A random instance of the cli-batch bench (seed 111, repetition 5, instance
# 29): edge 0 is estimated at [1, 0] with zero gaps at r = 1, 2 and 4 (true
# marginal [8/9, 1/9]), so the certified value is 4 where the Holant is 9/2.
CLI_BATCH_WITNESS_TEXT = """holant 1
q 2
vertices 7
edge 2 6
edge 0 1
edge 0 4
edge 1 6
edge 1 2
edge 3 5
edge 3 4
function 0 table 0 1 0
function 1 table 0 0 1 0
function 2 table 0 1 1
function 3 table 0 1 0
function 4 table 4 0 1/2
function 5 table 1 1
function 6 table 0 1 0
"""


def test_fptas_cli_batch_witness_whole_graph_is_exact():
    inst = parse_instance(CLI_BATCH_WITNESS_TEXT)
    assert brute_force_hol(inst).as_fraction() == Fraction(9, 2)
    assert fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph()).value.as_fraction() == Fraction(9, 2)
    assert gibbs_oracle(inst).marginal(0) == [Fraction(8, 9), Fraction(1, 9)]
    dist, report = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(Fraction(1, 8 * 2 * 7 * 10)))
    assert dist == [1, 0] and report.radii == (1, 2, 4) and report.stabilized


# Two more random instances of the cli-batch bench.  Seed 9302, repetition 7,
# instance 66: edge 0 is estimated at [1, 0, 0] with zero gaps at r = 1, 2 and 4
# (true marginal [40/3979, 51/3979, 3888/3979]), so the certified value is 80/9
# where the Holant is 7958/9.
CLI_BATCH_SEED_9302_TEXT = """holant 1
q 3
vertices 8
edge 1 3
edge 0 7
edge 5 7
edge 1 6
edge 3 5
edge 2 4
edge 0 2
function 0 table 2 0 1/3 0 0 3
function 1 table 1 3/2 1 0 1/2 1
function 2 table 3/2 0 3 0 0 2/3
function 3 table 2 0 1/3 0 0 1/3
function 4 table 3 1 4
function 5 table 3 0 2 0 0 4
function 6 table 1 2 3/2
function 7 table 4 0 4 0 0 1/3
"""

# Seed 5008, repetition 17, instance 98: edge 0 is estimated at [1/2, 1/2] with
# zero gaps at r = 1, 2 and 4 (true marginal [2/3, 1/3]), so the certified
# value is 8 where the Holant is 6.
CLI_BATCH_SEED_5008_TEXT = """holant 1
q 2
vertices 8
edge 1 4
edge 0 3
edge 4 6
edge 3 5
edge 6 7
edge 2 5
edge 0 6
function 0 table 0 1 0
function 1 table 4/3 4/3
function 2 table 3/2 1
function 3 table 0 1 0
function 4 table 0 1 1
function 5 table 0 1 0
function 6 table 0 0 1 0
function 7 table 1/3 1
"""


@pytest.mark.parametrize("text, exact, estimate, marginal", [
    (CLI_BATCH_SEED_9302_TEXT, Fraction(7958, 9), [1, 0, 0],
     [Fraction(40, 3979), Fraction(51, 3979), Fraction(3888, 3979)]),
    (CLI_BATCH_SEED_5008_TEXT, 6, [Fraction(1, 2), Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 3)]),
], ids=["seed_9302", "seed_5008"])
def test_fptas_cli_batch_witnesses_whole_graph_are_exact(text, exact, estimate, marginal):
    inst = parse_instance(text)
    q, m = inst.q, inst.graph.m
    assert brute_force_hol(inst).as_fraction() == exact
    assert fptas_hol(inst, Fraction(1, 10), RadiusPolicy.whole_graph()).value.as_fraction() == exact
    assert gibbs_oracle(inst).marginal(0) == marginal
    dist, report = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(Fraction(1, 8 * q * m * 10)))
    assert dist == estimate and report.radii == (1, 2, 4) and report.stabilized


# Two more random instances of the cli-batch bench, each certified wrong by
# the ball marginals.  Seed 20200, repetition 3, instance 6: edge 0 is
# estimated at [1, 0] with zero gaps at r = 1, 2 and 4 (true marginal
# [6/7, 1/7]), so the balls certify 9 where the Holant is 21/2.
CLI_BATCH_SEED_20200_TEXT = """holant 1
q 2
vertices 8
edge 0 5
edge 0 4
edge 1 7
edge 3 7
edge 5 6
edge 1 2
edge 3 6
function 0 table 3/2 3/2 3/2
function 1 table 1 0 3
function 2 table 1 1/2
function 3 table 0 1 0
function 4 table 0 1
function 5 table 1 0 4
function 6 table 0 1 0
function 7 table 1 0 1
"""

# Seed 20202, repetition 6, instance 21: edge 0 is estimated at [2/11, 8/11,
# 1/11] with zero gaps at r = 1, 2 and 4 (true marginal [37/241, 120/241,
# 84/241]), so the balls certify 110/3 where the Holant is 482/9.
CLI_BATCH_SEED_20202_TEXT = """holant 1
q 3
vertices 8
edge 3 6
edge 0 2
edge 4 6
edge 1 7
edge 0 1
edge 1 4
edge 2 5
edge 2 7
function 0 table 2 0 4/3 0 0 1
function 1 table 2 0 0 2 0 0 0 0 0 2
function 2 table 1 0 0 3/2 0 0 0 0 0 2/3
function 3 table 1/2 1/2 1/2
function 4 table 3 3 1/2 1/2 1 1
function 5 table 4/3 4 2
function 6 table 1/2 0 2 0 0 1/2
function 7 table 1/3 0 4/3 0 0 4
"""

CERTIFICATION_WITNESSES = pytest.mark.parametrize("text, exact", [
    (EQUALITY_PATH_TEXT, Fraction(341, 4)),
    (CLI_BATCH_WITNESS_TEXT, Fraction(9, 2)),
    (CLI_BATCH_SEED_9302_TEXT, Fraction(7958, 9)),
    (CLI_BATCH_SEED_5008_TEXT, Fraction(6)),
    (CLI_BATCH_SEED_20200_TEXT, Fraction(21, 2)),
    (CLI_BATCH_SEED_20202_TEXT, Fraction(482, 9)),
], ids=["equality_path", "cli_batch_witness", "cli_batch_seed_9302", "cli_batch_seed_5008",
        "cli_batch_seed_20200", "cli_batch_seed_20202"])


@CERTIFICATION_WITNESSES
def test_fptas_default_is_exact_on_the_certification_witnesses(text, exact):
    # the ball marginals certify a wrong value on each of these; the default
    # walks the edge-order table, whose marginals are exact
    result = fptas_hol(parse_instance(text), Fraction(1, 10))
    assert result.table_states is not None and result.certified
    assert result.value.as_fraction() == exact


@pytest.mark.xfail(strict=True, reason="stabilization is tested against one boundary fill only; the fill "
                                       "passes along a path of binary (dis)equalities without decay")
@CERTIFICATION_WITNESSES
def test_certified_ball_marginal_is_within_delta_of_gibbs(text, exact):
    inst = parse_instance(text)
    delta = Fraction(1, 8 * inst.q * inst.graph.m * 10)
    dist, report = marginal_distribution(inst, 0, {}, RadiusPolicy.adaptive(delta))
    truth = gibbs_oracle(inst).marginal(0)
    assert not report.certified or max(abs(a - b) for a, b in zip(dist, truth)) <= delta


# ---------------------------------------------------------------------------
# the edge-order table


def _steps_and_result(inst, policy=None):
    try:
        res = fptas_hol(inst, Fraction(1, 10), policy)
    except HolantError as exc:
        return type(exc), None
    return (res.value, res.certified, res.p_min, res.flags, res.steps), res.table_states


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(differential_instances(kinds=("base", "zero_heavy")), domain_symmetric_instances(),
                 model_instances()))
def test_fptas_table_walk_equals_whole_graph_balls(inst):
    # the walk's marginals are exact and recorded as whole-graph steps, so the
    # default result equals the whole-graph result bit for bit, on lifted
    # states too
    got, states = _steps_and_result(inst)
    assert got == _steps_and_result(inst, RadiusPolicy.whole_graph())[0]
    if not isinstance(got, type):
        assert states is not None and 0 < states <= exact.edge_order_bound(inst)
        assert got[0] == brute_force_hol(inst)


@pytest.mark.parametrize("graph, bound", [
    (grid_graph(3, 5), 469), (grid_graph(8, 8), 24_565), (grid_graph(10, 10), 161_781), (grid_graph(12, 12), 966_645),
], ids=["3x5", "8x8", "10x10", "12x12"])
def test_edge_order_bound_of_grid_matchings(graph, bound):
    assert exact.edge_order_bound(matchings(graph)) == bound


def test_fptas_over_the_table_budget_runs_the_balls():
    # shuffled edge ids make the edge-order frontier of a long path wide
    inst = matchings(path_graph(60))
    order = list(range(inst.graph.m))
    random.Random(1).shuffle(order)
    inst = HolantInstance(Graph(inst.graph.n, [inst.graph.edges[e] for e in order]), inst.q, inst.functions)
    assert exact.edge_order_bound(inst) > exact.STATE_CAP
    res = fptas_hol(inst, Fraction(1, 10))
    assert res.table_states is None and res.certified
    want = simple_dp_hol(inst).as_fraction()
    assert abs(res.value.as_fraction() / want - 1) <= Fraction(1, 10)
