import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import random_regular_function, tuple_table_oracle
from holant import (
    InvalidArgumentError,
    builtin,
    compositions,
    evaluate_by_peers,
    from_boolean_weights,
    peer_partition,
    peering_closure_at,
    pin,
    regularity,
)
from holant.symfun import (
    BooleanSymmetricFunction,
    SymmetricFunction,
    relabel,
    survivor_pairs,
    value_blocks,
    value_profiles,
    worst_pair_count,
)


def bw(fn):
    return [v.as_fraction() for v in fn.boolean_weights()]


# ---------------------------------------------------------------------------
# pin

def test_pin_sliding_window():
    f = builtin("equality", 2, 3, weights=[1, 1])  # [1,0,0,1]
    assert bw(pin(f, (0, 1))) == [0, 0, 1]
    assert bw(pin(f, (1, 0))) == [1, 0, 0]


def test_pin_identity():
    f = from_boolean_weights([1, 1, 0, 0])
    assert pin(f, (0, 0)) is f


def test_pin_full_gives_trivial():
    f = from_boolean_weights([2, 3, 5])
    g = pin(f, (1, 1))
    assert g.d == 0 and g.scalar() == 3


def test_pin_potts_edge_q3_against_tuple_oracle():
    lam = Fraction(7, 2)
    table = []
    for c in compositions(3, 2):
        table.append(lam if 2 in c else 1)
    f = SymmetricFunction(3, 2, table)
    oracle = tuple_table_oracle(f)
    g = pin(f, (1, 0, 0))  # pin one argument to color 0
    for color in range(3):
        kappa = tuple(1 if i == color else 0 for i in range(3))
        assert g.value_at(kappa) == oracle[(0, color)]
    assert g.value_at((1, 0, 0)).as_fraction() == lam


def test_pin_composition_law_exhaustive():
    rng = random.Random(0)
    for q, d in [(2, 4), (2, 6), (3, 4)]:
        f = random_regular_function(rng, q, d)
        for w1 in range(d + 1):
            for k1 in compositions(q, w1):
                for w2 in range(d - w1 + 1):
                    for k2 in compositions(q, w2):
                        both = tuple(a + b for a, b in zip(k1, k2))
                        assert pin(pin(f, k1), k2) is pin(f, both)


def test_pin_errors():
    f = from_boolean_weights([1, 0, 0, 1])
    with pytest.raises(InvalidArgumentError):
        pin(f, (4, 0))
    with pytest.raises(InvalidArgumentError):
        pin(f, (1, 1, 1))


# ---------------------------------------------------------------------------
# peer partitions

def test_peer_partition_equality_k1():
    f = builtin("equality", 2, 3, weights=[1, 1])
    part = peer_partition(f, 1)
    assert [sorted(c.members) for c in part.classes] == [[(0, 1)], [(1, 0)]]
    assert bw(part.pinned[0]) == [0, 0, 1]
    assert bw(part.pinned[1]) == [1, 0, 0]


def test_peer_partition_at_most_one():
    f = builtin("at_most_one", 2, 4)
    part = peer_partition(f, 2)
    # classes by number of selected arguments: 0, 1, or >= 2 (the zero function)
    assert len(part.classes) == 3
    members = sorted(tuple(sorted(c.members)) for c in part.classes)
    assert members == [(((0, 2)),), (((1, 1)),), (((2, 0)),)]
    by_rep = dict(zip(part.representatives, part.pinned))
    assert bw(by_rep[(2, 0)]) == [1, 1, 0]
    assert bw(by_rep[(1, 1)]) == [1, 0, 0]
    assert bw(by_rep[(0, 2)]) == [0, 0, 0]


def test_peer_partition_constant_function():
    f = builtin("cyclic", 2, 5, c=1, values=[Fraction(2, 3)])
    for k in range(6):
        assert len(peer_partition(f, k)) == 1


def test_peer_partition_covers_all_compositions():
    rng = random.Random(1)
    for q, d in [(2, 5), (3, 4)]:
        f = random_regular_function(rng, q, d)
        for k in range(d + 1):
            part = peer_partition(f, k)
            seen = set()
            for cls in part.classes:
                assert not (seen & cls.members)
                seen |= cls.members
            assert seen == set(compositions(q, k))


def test_peer_soundness_tables():
    rng = random.Random(2)
    f = random_regular_function(rng, 2, 6)
    for k in range(7):
        part = peer_partition(f, k)
        for cls in part.classes:
            tables = {pin(f, m).table for m in cls.members}
            assert len(tables) == 1
        distinct = {pin(f, cls.members.__iter__().__next__()).table for cls in part.classes}
        assert len(distinct) == len(part.classes)


# ---------------------------------------------------------------------------
# regularity

def test_regularity_equality():
    # d = 2 is the degenerate case: the [1, 0, 1] windows coincide at both ends
    assert regularity(builtin("equality", 2, 2, weights=[1, 1])) == 2
    for d in range(3, 9):
        assert regularity(builtin("equality", 2, d, weights=[1, 1])) == 3


def test_regularity_trivial_function():
    f = SymmetricFunction(2, 0, [Fraction(5)])
    assert regularity(f) == 1


def test_regularity_subgraphs_vertex():
    mu = Fraction(1, 3)
    for d in range(2, 9):
        f = builtin("cyclic", 2, d, c=2, values=[1, mu])
        assert regularity(f) == 2


def test_regularity_exact_one():
    f = builtin("exact_one", 2, 4)
    assert bw(f) == [0, 1, 0, 0, 0]
    assert regularity(f) == 3


def test_regularity_at_most_one():
    for d in range(4, 8):
        assert regularity(builtin("at_most_one", 2, d)) == 3


def test_regularity_bounded_by_composition_count():
    rng = random.Random(3)
    for q, d in [(2, 5), (3, 3)]:
        f = random_regular_function(rng, q, d)
        assert regularity(f) <= comb(d + q - 1, q - 1)


# ---------------------------------------------------------------------------
# peering closures

def test_closure_equality_k1():
    f = builtin("equality", 2, 3, weights=[1, 1])
    closure = peering_closure_at(f, 1)
    assert len(closure) == 4
    sizes = sorted(len(g) for g in closure)
    assert sizes == [0, 1, 1, 2]


def test_closure_constant():
    f = builtin("cyclic", 2, 4, c=1, values=[1])
    for k in range(5):
        closure = peering_closure_at(f, k)
        assert len(closure) == 2
        assert any(g.is_empty() for g in closure)
        assert any(g.is_full() for g in closure)


def test_closure_at_most_one_k2():
    f = builtin("at_most_one", 2, 4)
    assert len(peering_closure_at(f, 2)) == 8


def test_closure_bound_two_to_regularity():
    rng = random.Random(4)
    for _ in range(8):
        q = rng.choice([2, 3])
        d = rng.randint(1, 5 if q == 2 else 4)
        f = random_regular_function(rng, q, d)
        c_reg = regularity(f)
        if c_reg > 8:
            continue
        for k in range(d + 1):
            assert len(peering_closure_at(f, k)) <= 2 ** c_reg


# ---------------------------------------------------------------------------
# evaluation by peers

def test_evaluate_by_peers_simple():
    f = from_boolean_weights([1, 1, 0])
    assert evaluate_by_peers(f, [(1, 0), (1, 0)]) == 1
    assert evaluate_by_peers(f, [(0, 1), (0, 1)]) == 0


def test_evaluate_by_peers_equality():
    f = builtin("equality", 2, 3, weights=[1, 1])
    assert evaluate_by_peers(f, [(1, 0), (0, 1), (0, 1)]) == 0
    assert evaluate_by_peers(f, [(0, 1), (0, 1), (0, 1)]) == 1


def test_evaluate_by_peers_weight_mismatch():
    f = from_boolean_weights([1, 1, 0])
    with pytest.raises(InvalidArgumentError):
        evaluate_by_peers(f, [(1, 0)])


def test_representative_independence_exhaustive():
    rng = random.Random(5)
    for q, d in [(2, 5), (2, 6), (3, 4)]:
        f = random_regular_function(rng, q, d)
        for k in range(d + 1):
            part = peer_partition(f, k)
            rest = d - k
            rest_part = peer_partition(f, rest) if rest <= d else None
            for cls, rep in zip(part.classes, part.representatives):
                for other in cls.members:
                    for mu in compositions(q, rest):
                        assert evaluate_by_peers(f, [rep, mu]) == evaluate_by_peers(f, [other, mu])


# ---------------------------------------------------------------------------
# builtins

def test_builtin_equality():
    f = builtin("equality", 2, 3, weights=[1, 1])
    assert bw(f) == [1, 0, 0, 1]
    g = builtin("equality", 3, 2, weights=[2, 3, 5])
    assert g.value_at((2, 0, 0)).as_fraction() == 2
    assert g.value_at((0, 2, 0)).as_fraction() == 3
    assert g.value_at((1, 1, 0)) == 0


def test_builtin_equality_arity_zero_sums_weights():
    f = builtin("equality", 3, 0, weights=[1, 2, 3])
    assert f.scalar().as_fraction() == 6


def test_builtin_cyclic_boolean():
    mu = Fraction(1, 3)
    f = builtin("cyclic", 2, 5, c=2, values=[1, mu])
    assert bw(f) == [1, mu, 1, mu, 1, mu]


def test_builtin_cyclic_general_domain():
    vals = {key: Fraction(1 + key[0] + 2 * key[1] + 4 * key[2]) for key in itertools.product(range(2), repeat=3)}
    f = builtin("cyclic", 3, 3, c=2, values=vals)
    assert f.value_at((2, 1, 0)) == vals[(0, 1, 0)]
    assert f.value_at((1, 1, 1)) == vals[(1, 1, 1)]


def test_builtin_cyclic_with_exceptions():
    f = builtin("cyclic_with_exceptions", 2, 5, c=2, values=[1, 0], overrides={0: Fraction(9), 5: Fraction(7)})
    assert bw(f) == [9, 0, 1, 0, 1, 7]


def test_builtin_errors():
    with pytest.raises(InvalidArgumentError):
        builtin("equality", 2, 3, weights=[1])
    with pytest.raises(InvalidArgumentError):
        builtin("at_most_one", 3, 2)
    with pytest.raises(InvalidArgumentError):
        builtin("cyclic", 2, 3, c=0, values=[])
    with pytest.raises(InvalidArgumentError):
        builtin("nope", 2, 1)


def test_table_size_enforced():
    with pytest.raises(InvalidArgumentError):
        SymmetricFunction(2, 3, [1, 2, 3])  # needs 4 entries


# ---------------------------------------------------------------------------
# interning and boolean functions

def test_interning_identity():
    f1 = from_boolean_weights([1, 2, 3])
    f2 = from_boolean_weights([Fraction(1), Fraction(2), Fraction(3)])
    assert f1 is f2
    b1 = BooleanSymmetricFunction(2, 2, [(1, 1), (2, 0)])
    b2 = BooleanSymmetricFunction(2, 2, [(2, 0), (1, 1)])
    assert b1 is b2 and b1.uid == b2.uid


def test_boolean_to_function_round_trip():
    b = BooleanSymmetricFunction(2, 3, [(3, 0), (0, 3)])
    f = b.to_function()
    assert bw(f) == [1, 0, 0, 1]


def test_worst_pair_count_matchings_vertex():
    f = builtin("at_most_one", 2, 3)
    # splits like (1,1) admit (0,0), (0,1), (1,0) but not (1,1): 3 pairs survive
    assert worst_pair_count(f) == 3


def _surviving_pairs_by_definition(f, d1, d2):
    """Every pair of peer classes at arities (d1, d2), as (members1, members2,
    pinned table), whose pin by the summed representatives is not identically
    zero; from the table alone, classes ordered by their lex-min member."""
    def shifted(kappa, rest):
        return tuple(f.value_at(tuple(map(sum, zip(kappa, mu)))) for mu in compositions(f.q, rest))

    def classes(k):
        groups = {}
        for kappa in compositions(f.q, k):
            groups.setdefault(shifted(kappa, f.d - k), []).append(kappa)
        return sorted(groups.values())

    out = []
    for m1 in classes(d1):
        for m2 in classes(d2):
            table = shifted(tuple(map(sum, zip(m1[0], m2[0]))), f.d - d1 - d2)
            if any(table):
                out.append((frozenset(m1), frozenset(m2), table))
    return out


def test_survivor_pairs_and_worst_pair_count_match_the_definition():
    rng = random.Random(11)
    for _ in range(200):
        q, d = rng.choice((2, 3)), rng.randint(0, 6)
        f = random_regular_function(rng, q, d)
        worst = 1
        for d1 in range(d + 1):
            assert peer_partition(f, d1) is peer_partition(f, d1)
            for d2 in range(d - d1 + 1):
                expected = _surviving_pairs_by_definition(f, d1, d2)
                got = [(c1.members, c2.members, h.table)
                       for c1, inner in survivor_pairs(f, d1, d2) for c2, h in inner]
                assert got == expected
                assert survivor_pairs(f, d1, d2) is survivor_pairs(f, d1, d2)
                worst = max(worst, len(expected))
        assert worst_pair_count(f) == worst
        for kappa in compositions(q, rng.randint(0, d)):
            assert pin(f, kappa) is pin(f, kappa)



# ---------------------------------------------------------------------------
# domain symmetry

def test_value_blocks_match_the_transposition_definition():
    rng = random.Random(12)
    for _ in range(200):
        q, d = rng.choice((2, 3, 4)), rng.randint(0, 4)
        f = random_regular_function(rng, q, d)
        blocks = value_blocks(f)
        for a in range(q):
            for b in range(q):
                swap = tuple(b if x == a else a if x == b else x for x in range(q))
                assert (blocks[a] == blocks[b]) == (relabel(f, swap) is f)
            assert blocks[a] == min(x for x in range(q) if blocks[x] == blocks[a])


def test_relabel_moves_values_and_carries_profiles():
    rng = random.Random(13)
    for _ in range(200):
        q, d = rng.choice((2, 3, 4)), rng.randint(0, 4)
        f = random_regular_function(rng, q, d)
        sigma = tuple(rng.sample(range(q), q))
        inverse = tuple(sorted(range(q), key=lambda a: sigma[a]))
        g = relabel(f, sigma)
        assert relabel(g, inverse) is f
        for tup in itertools.product(range(q), repeat=d):
            assert g.value_of_tuple([sigma[x] for x in tup]) == f.value_of_tuple(tup)
        k = rng.randint(0, d)
        for phi in peer_partition(f, k).classes:
            image = relabel(phi, sigma)
            assert image.members == {tuple(m[inverse[b]] for b in range(q)) for m in phi.members}
            assert relabel(image, inverse) is phi
            assert all(value_profiles(image)[sigma[a]] == value_profiles(phi)[a] for a in range(q))
        assert all(value_profiles(g)[sigma[a]] == value_profiles(f)[a] for a in range(q))


def test_relabel_of_a_pinned_function_moves_every_value():
    # relabel(pin(f, kappa), sigma) is read from f's pin cache when sigma
    # moves values only within f's blocks; the pins are taken in two steps so
    # the image climbs a lineage of two pins
    rng = random.Random(29)
    for _ in range(200):
        q, d = rng.choice((2, 3, 4)), rng.randint(1, 4)
        side = [rng.randrange(2) for _ in range(q)]
        key = {c: tuple(tuple(sorted(c[a] for a in range(q) if side[a] == s)) for s in (0, 1))
               for c in compositions(q, d)}
        value = {k: rng.choice([0, 1, 2, Fraction(1, 3)]) for k in set(key.values())}
        f = SymmetricFunction(q, d, [value[key[c]] for c in compositions(q, d)])
        blocks = value_blocks(f)
        sigma = list(range(q))
        for b in set(blocks):
            members = [a for a in range(q) if blocks[a] == b]
            for a, target in zip(members, rng.sample(members, len(members))):
                sigma[a] = target
        sigma = tuple(sigma)
        first = rng.choice(compositions(q, rng.randint(0, d)))
        second = rng.choice(compositions(q, rng.randint(0, d - sum(first))))
        g = pin(pin(f, first), second)
        image = relabel(g, sigma)
        moved = [0] * q
        for a, b in enumerate(sigma):
            moved[b] = first[a] + second[a]
        assert image is pin(f, moved)
        for tup in itertools.product(range(q), repeat=g.d):
            assert image.value_of_tuple([sigma[x] for x in tup]) == g.value_of_tuple(tup)


def test_potts_edge_function_has_one_block():
    potts = builtin("explicit_table", 4, 2, values=[2 if max(c) == 2 else 1 for c in compositions(4, 2)])
    assert value_blocks(potts) == (0, 0, 0, 0)
    assert value_blocks(pin(potts, (0, 0, 1, 0))) == (0, 0, 2, 0)
    assert value_blocks(builtin("equality", 3, 2, weights=[1, 2, 1])) == (0, 1, 0)
