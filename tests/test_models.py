import itertools
from fractions import Fraction

import mpmath
import pytest

from holant import (
    Graph,
    InvalidArgumentError,
    brute_force_hol,
    complete_graph,
    cycle_graph,
    ising_partition_mpf,
    ising_prefactor,
    path_graph,
    spin_partition_brute,
    subgraphs_world_brute,
)
from holant.models import (
    ModelSpec,
    build_model,
    mpf_to_fraction,
    rational_exp,
    rational_tanh,
)
from holant.oracle import gibbs_oracle


def all_connected_graphs(n_max):
    for n in range(2, n_max + 1):
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            if len(edges) < n - 1:
                continue
            g = Graph(n, edges)
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == n:
                yield g


# ---------------------------------------------------------------------------
# builders

def test_matchings_builders():
    inst = build_model(ModelSpec("matchings", {}), cycle_graph(3))
    assert brute_force_hol(inst) == 4
    pm = build_model(ModelSpec("perfect_matchings", {}), complete_graph(4))
    assert brute_force_hol(pm) == 3


def test_weighted_matchings():
    g = path_graph(3)
    w = [Fraction(2), Fraction(3)]
    inst = build_model(ModelSpec("weighted_matchings", {"edge_weights": w}), g)
    # matchings: empty, {e0}, {e1} -> 1 + 2 + 3
    assert brute_force_hol(inst) == 6


def test_potts_single_edge():
    inst = build_model(ModelSpec("potts", {"q": 2, "lambda": 3}), path_graph(2))
    assert brute_force_hol(inst) == 8  # 2*lambda + 2


def test_potts_from_beta_matches_spin_oracle():
    g = cycle_graph(3)
    lam = rational_exp(Fraction(1, 5))
    inst = build_model(ModelSpec("potts", {"q": 3, "beta": Fraction(1, 5)}), g)
    from holant.symfun import SymmetricFunction, compositions
    table = [lam if 2 in c else Fraction(1) for c in compositions(3, 2)]
    edge_fn = SymmetricFunction(3, 2, table)
    vertex_fn = SymmetricFunction(3, 1, [1, 1, 1])
    assert brute_force_hol(inst) == spin_partition_brute(g, 3, edge_fn, vertex_fn)


def test_subgraphs_world_matches_subset_sum():
    # every labeled graph on <= 4 vertices with <= 4 edges, plus a few larger
    lam, mu = Fraction(1, 2), Fraction(1, 3)
    spec = ModelSpec("subgraphs_world", {"lambda": lam, "mu": mu})
    pool = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for edges in itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(5)
    ):
        g = Graph(4, list(edges))
        inst = build_model(spec, g)
        assert brute_force_hol(inst) == subgraphs_world_brute(g, lam, mu)
    for g in [cycle_graph(5), complete_graph(4), path_graph(5)]:
        inst = build_model(spec, g)
        assert brute_force_hol(inst) == subgraphs_world_brute(g, lam, mu)


def test_model_spec_reusable_across_graphs():
    spec = ModelSpec("potts", {"q": 3, "lambda": 2})
    a = build_model(spec, cycle_graph(3))
    b = build_model(spec, path_graph(4))
    assert a.model is not b.model and a.model is not spec
    assert a.model.params is not spec.params
    assert a.model == b.model == spec  # kind and parameters only


def test_model_invariants_arity_and_domain():
    for kind, params, graph in [
        ("matchings", {}, cycle_graph(5)),
        ("colorings", {"q": 4}, cycle_graph(4)),
        ("potts", {"q": 3, "lambda": 2}, complete_graph(4)),
        ("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}, path_graph(4)),
    ]:
        inst = build_model(ModelSpec(kind, params), graph)
        for v in range(inst.graph.n):
            assert inst.functions[v].d == inst.graph.degree(v)
            assert inst.functions[v].q == inst.q


def test_model_guards():
    with pytest.raises(InvalidArgumentError):
        build_model(ModelSpec("potts", {"q": 3}), path_graph(2))
    with pytest.raises(InvalidArgumentError):
        build_model(ModelSpec("subgraphs_world", {"lambda": Fraction(-1), "mu": Fraction(1, 2)}), path_graph(2))
    with pytest.raises(InvalidArgumentError):
        build_model(ModelSpec("weighted_matchings", {"edge_weights": [0]}), path_graph(2))
    with pytest.raises(InvalidArgumentError):
        ModelSpec("telepathy", {})


# ---------------------------------------------------------------------------
# rational approximants

def test_mpf_to_fraction_exact():
    with mpmath.workprec(60):
        x = mpmath.mpf(Fraction(3, 8).numerator) / 8 * 3  # some dyadic value
        frac = mpf_to_fraction(x)
        assert float(frac) == float(x)
    assert mpf_to_fraction(mpmath.mpf(0)) == 0
    assert mpf_to_fraction(mpmath.mpf(-2.5)) == Fraction(-5, 2)


def test_rational_tanh_precision():
    beta = Fraction(3, 10)
    approx = rational_tanh(beta, 128)
    with mpmath.workprec(200):
        true = mpmath.tanh(mpmath.mpf(3) / 10)
        err = abs(mpmath.mpf(approx.numerator) / approx.denominator - true)
        assert err < mpmath.mpf(2) ** (-120)


# ---------------------------------------------------------------------------
# the Ising transform

def test_ising_prefactor_single_vertex():
    g = Graph(1, [])
    beta, field = Fraction(1, 2), Fraction(1, 4)
    m_g = ising_prefactor(g, beta, field)
    # Z_sub on an edgeless graph is 1, so M alone must equal Z_Ising = 2 cosh(B)
    z_sub = subgraphs_world_brute(g, rational_tanh(beta), rational_tanh(field))
    assert z_sub == 1
    with mpmath.workprec(128):
        z_ising = ising_partition_mpf(g, beta, field)
        lhs = mpmath.mpf(m_g.as_fraction().numerator) / m_g.as_fraction().denominator
        assert abs(lhs - z_ising) / z_ising < mpmath.mpf(10) ** -30


def test_jerrum_sinclair_identity_small():
    beta, field = Fraction(3, 10), Fraction(1, 10)
    lam, mu = rational_tanh(beta), rational_tanh(field)
    for g in [path_graph(2), path_graph(3), cycle_graph(3), complete_graph(4)]:
        z_sub = subgraphs_world_brute(g, lam, mu)
        m_g = ising_prefactor(g, beta, field)
        product = (m_g * z_sub).as_fraction()
        with mpmath.workprec(160):
            z_ising = ising_partition_mpf(g, beta, field, bits=160)
            rhs = mpmath.mpf(product.numerator) / product.denominator
            assert abs(z_ising - rhs) / z_ising < mpmath.mpf(10) ** -20


def test_ising_model_builder_uses_subgraphs_world():
    g = cycle_graph(3)
    inst = build_model(ModelSpec("ising", {"beta": Fraction(3, 10), "B": Fraction(1, 10)}), g)
    lam, mu = rational_tanh(Fraction(3, 10)), rational_tanh(Fraction(1, 10))
    assert brute_force_hol(inst) == subgraphs_world_brute(g, lam, mu)


# ---------------------------------------------------------------------------
# the Gibbs oracle

def test_gibbs_oracle_single_edge():
    g = path_graph(2)
    inst = build_model(ModelSpec("matchings", {}), g)
    oracle = gibbs_oracle(inst)
    assert oracle.marginal(0) == [Fraction(1, 2), Fraction(1, 2)]


def test_gibbs_oracle_two_routes_agree():
    from holant import restrict_instance

    inst = build_model(ModelSpec("matchings", {}), path_graph(3))
    oracle = gibbs_oracle(inst)
    direct = oracle.marginal(0, {1: 0})
    # second route: restrict on the conditioning, then enumerate
    sub = restrict_instance(inst, {1: 0}, [0])
    sub_inst = sub.as_instance()
    sub_oracle = gibbs_oracle(sub_inst)
    assert direct == sub_oracle.marginal(0)


def test_gibbs_oracle_zero_mass_event():
    from holant import FailedPreconditionError

    inst = build_model(ModelSpec("matchings", {}), path_graph(3))
    with pytest.raises(FailedPreconditionError):
        gibbs_oracle(inst).marginal(0, {0: 1, 1: 1})


@pytest.mark.parametrize("val", [5, -1])
def test_gibbs_oracle_rejects_conditioning_values_outside_the_domain(val):
    inst = build_model(ModelSpec("matchings", {}), path_graph(4))
    with pytest.raises(InvalidArgumentError, match=r"outside domain \[2\]"):
        gibbs_oracle(inst).marginal(0, {1: val})
