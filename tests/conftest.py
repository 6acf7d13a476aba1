"""Shared helpers: random regular-builtin instances, Hypothesis strategies
built on them, and brute-force oracles."""

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from holant import GaussianRational, HolantInstance, builtin, random_graph
from holant.models import ModelSpec, build_model
from holant.symfun import composition_count, compositions


def random_regular_function(rng, q, d):
    """A random builtin with small rational weights, keeping regularity low."""
    kinds = ["equality", "cyclic", "constant"]
    if q == 2:
        kinds += ["at_most_one", "exact_one", "boolean_weights"]
    kind = rng.choice(kinds)
    if kind == "equality":
        return builtin("equality", q, d,
                       weights=[Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(q)])
    if kind == "cyclic":
        c = rng.randint(1, 3)
        if q == 2:
            vals = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(c)]
            if not any(vals):
                vals[0] = Fraction(1)
            return builtin("cyclic", q, d, c=c, values=vals)
        values = {key: Fraction(rng.randint(0, 3), rng.randint(1, 2))
                  for key in itertools.product(range(c), repeat=q)}
        values[(0,) * q] = Fraction(1)
        return builtin("cyclic", q, d, c=c, values=values)
    if kind == "at_most_one":
        return builtin("at_most_one", 2, d)
    if kind == "exact_one":
        return builtin("exact_one", 2, d)
    if kind == "boolean_weights":
        vals = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(d + 1)]
        if not any(vals):
            vals[0] = Fraction(1)
        return builtin("explicit_boolean_weights", 2, d, values=vals)
    weight = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    if q == 2:
        return builtin("cyclic", q, d, c=1, values=[weight])
    return builtin("cyclic", q, d, c=1, values={(0,) * q: weight})


def random_instance(rng, max_n=8, max_edges=None, qs=(2, 3)):
    """A random instance small enough for the brute-force oracle."""
    q = rng.choice(list(qs))
    n = rng.randint(2, max_n)
    cap = max_edges if max_edges is not None else (14 if q == 2 else 9)
    m = rng.randint(1, min(n * (n - 1) // 2, cap))
    g = random_graph(n, m, seed=rng.randint(0, 10 ** 9))
    funcs = [random_regular_function(rng, q, g.degree(v)) for v in range(g.n)]
    return HolantInstance(g, q, funcs)


SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
VALUES = st.one_of(
    st.just(0),
    SMALL_FRACTIONS,
    st.builds(GaussianRational, SMALL_FRACTIONS, SMALL_FRACTIONS),
)


@st.composite
def differential_instances(draw, kinds=("base", "zero_heavy", "table")):
    """A ``random_instance`` with some functions swapped for others of ``kinds``.

    Zero-heavy functions exercise the dead-state rule of the simple DP, the
    zero-pair skip of the FPT solver and the dead ends of the completion
    search; explicit tables bring in negative and non-real Gaussian-rational
    values.
    """
    base = random_instance(random.Random(draw(st.integers(0, 2 ** 32 - 1))), max_n=6, max_edges=7)
    q, g = base.q, base.graph
    funcs = list(base.functions)
    for v in range(g.n):
        d = g.degree(v)
        kind = draw(st.sampled_from(list(kinds)))
        if kind == "zero_heavy" and q == 2:
            funcs[v] = builtin(draw(st.sampled_from(["at_most_one", "exact_one"])), 2, d)
        elif kind == "zero_heavy":
            weights = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(2, 3)]), min_size=q, max_size=q))
            funcs[v] = builtin("equality", q, d, weights=weights)
        elif kind == "table":
            size = composition_count(q, d)
            funcs[v] = builtin("explicit_table", q, d,
                               values=draw(st.lists(VALUES, min_size=size, max_size=size)))
    return HolantInstance(g, q, funcs)


@st.composite
def model_instances(draw):
    """Potts models and colorings on small random graphs: every relabelling of
    the domain fixes them, so the pass lifts its states."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = rng.randint(2, 4)
    g = random_graph(n, rng.randint(1, min(n * (n - 1) // 2, 3)), seed=rng.randint(0, 10 ** 9))
    q = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        lam = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
        return build_model(ModelSpec("potts", {"q": q, "lambda": lam}), g)
    return build_model(ModelSpec("colorings", {"q": q}), g)


def _symmetric_table(draw, q, d, partition):
    """A table whose value depends only on the sorted counts within each block
    of ``partition``: invariant under every relabelling inside the blocks."""
    comps = compositions(q, d)
    keys = [tuple(tuple(sorted(c[a] for a in block)) for block in partition) for c in comps]
    distinct = sorted(set(keys))
    values = draw(st.lists(st.one_of(st.just(0), SMALL_FRACTIONS), min_size=len(distinct),
                           max_size=len(distinct)))
    value_of = dict(zip(distinct, values))
    return builtin("explicit_table", q, d, values=[value_of[k] for k in keys])


@st.composite
def domain_symmetric_instances(draw):
    """Instances whose functions are all invariant under relabelling within the
    blocks of one partition of the domain, drawn per instance."""
    q = draw(st.sampled_from([2, 3, 4]))
    max_edges = {2: 10, 3: 9, 4: 7}[q]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_instance(rng, max_n=7, max_edges=max_edges, qs=(q,)).graph
    k = draw(st.sampled_from([1, 2, q]))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=q, max_size=q))
    partition = [tuple(a for a in range(q) if labels[a] == b) for b in sorted(set(labels))]
    funcs = []
    for v in range(g.n):
        d = g.degree(v)
        kind = draw(st.sampled_from(["potts", "colorings", "sorted", "blocks", "constant", "equality"]))
        if kind in ("potts", "colorings"):
            same = 0 if kind == "colorings" else draw(SMALL_FRACTIONS)
            other = 1 if kind == "colorings" else draw(SMALL_FRACTIONS)
            funcs.append(builtin("explicit_table", q, d,
                                 values=[same if max(c) == d else other for c in compositions(q, d)]))
        elif kind in ("sorted", "blocks"):
            funcs.append(_symmetric_table(draw, q, d, [tuple(range(q))] if kind == "sorted" else partition))
        elif kind == "constant":
            w = draw(SMALL_FRACTIONS)
            funcs.append(builtin("cyclic", q, d, c=1, values=[w] if q == 2 else {(0,) * q: w}))
        else:  # weights repeat within each block
            block_weights = draw(st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), min_size=k, max_size=k))
            funcs.append(builtin("equality", q, d, weights=[block_weights[labels[a]] for a in range(q)]))
    return HolantInstance(g, q, funcs)


def tuple_table_oracle(fn):
    """Evaluate a symmetric function on every raw tuple, grouping by composition.

    Independent check that the composition-indexed table agrees with direct
    tuple evaluation (tuples that are permutations must share their value).
    """
    out = {}
    for tup in itertools.product(range(fn.q), repeat=fn.d):
        counts = [0] * fn.q
        for x in tup:
            counts[x] += 1
        out[tup] = fn.value_at(tuple(counts))
    return out
