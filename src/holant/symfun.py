"""Symmetric constraint functions: evaluation, pinning, peers, and regularity.

A symmetric d-ary function over domain [q] is determined by its values on the
symmetry classes of [q]^d, and each class is a weak q-composition of d (the
tuple counting how many arguments take each domain value).  Compositions are
represented as plain tuples of q nonnegative ints; functions store one exact
value per weight-d composition, in lexicographic composition order.

Functions are interned: constructing the same (q, d, table) twice yields the
same object, with a process-stable ``uid`` usable as a memo key.  Each interned
function carries the data derived from it, filled on first use: its pins, the
pin that first gave it, peer partitions, surviving peer-image pairs, worst
pair count, interchangeable domain values, per-value profiles and relabelled
images.  The two intern
registries are the only process-wide tables.
"""

from __future__ import annotations

import functools
import itertools
import threading
from math import comb
from typing import Iterable, Sequence

from .errors import InvalidArgumentError
from .values import ONE, ZERO, GaussianRational, as_value

# ---------------------------------------------------------------------------
# compositions

@functools.cache
def compositions(q: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All weak q-compositions of d, in ascending lexicographic order."""
    if q < 1 or d < 0:
        raise InvalidArgumentError(f"bad composition shape q={q}, d={d}")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), d, q)
    return tuple(out)


@functools.cache
def composition_index(q: int, d: int) -> dict[tuple[int, ...], int]:
    """Composition -> position in the lexicographic enumeration."""
    return {c: i for i, c in enumerate(compositions(q, d))}


def composition_of(q: int, tup: Iterable[int]) -> tuple[int, ...]:
    """The composition (per-value counts) of a tuple over [q]."""
    counts = [0] * q
    for x in tup:
        counts[x] += 1
    return tuple(counts)


def add_compositions(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def composition_count(q: int, d: int) -> int:
    return comb(d + q - 1, q - 1)


# ---------------------------------------------------------------------------
# interning

_intern_lock = threading.Lock()
_fn_registry: dict[tuple, "SymmetricFunction"] = {}
_bool_registry: dict[tuple, "BooleanSymmetricFunction"] = {}
_next_uid = itertools.count()


class SymmetricFunction:
    """A symmetric function over [q] of arity d, stored as a composition-indexed table."""

    __slots__ = ("q", "d", "table", "uid", "_is_zero", "_pins", "_pinned_from", "_peers", "_pairs",
                 "_pair_count", "_blocks", "_profiles", "_images")

    def __new__(cls, q: int, d: int, table):
        if q < 2:
            raise InvalidArgumentError(f"domain size must be >= 2, got {q}")
        if d < 0:
            raise InvalidArgumentError(f"arity must be >= 0, got {d}")
        values = tuple(as_value(v) for v in table)
        if len(values) != composition_count(q, d):
            raise InvalidArgumentError(
                f"table for q={q}, d={d} needs {composition_count(q, d)} entries, got {len(values)}"
            )
        key = (q, d, values)
        with _intern_lock:
            got = _fn_registry.get(key)
            if got is not None:
                return got
            self = object.__new__(cls)
            self.q = q
            self.d = d
            self.table = values
            self.uid = next(_next_uid)
            self._is_zero = not any(values)
            self._pins = {}  # kappa -> pin(self, kappa)
            self._pinned_from = None  # (f, kappa) with pin(f, kappa) the first pin that gave self
            self._peers = {}  # k -> peer_partition(self, k)
            self._pairs = {}  # (d1, d2) -> survivor_pairs(self, d1, d2)
            self._pair_count = None
            self._blocks = None
            self._profiles = None
            self._images = None  # sigma -> relabel(self, sigma), made on first use
            _fn_registry[key] = self
            return self

    def value_at(self, comp: Sequence[int]) -> GaussianRational:
        """Evaluate at a weight-d composition."""
        idx = composition_index(self.q, self.d).get(tuple(comp))
        if idx is None:
            raise InvalidArgumentError(f"{tuple(comp)} is not a weight-{self.d} composition over [{self.q}]")
        return self.table[idx]

    def value_of_tuple(self, tup: Sequence[int]) -> GaussianRational:
        return self.value_at(composition_of(self.q, tup))

    def is_zero_function(self) -> bool:
        return self._is_zero

    def scalar(self) -> GaussianRational:
        """The single value of a 0-ary (trivial) function."""
        if self.d != 0:
            raise InvalidArgumentError(f"scalar() on arity-{self.d} function")
        return self.table[0]

    def boolean_weights(self):
        """The [f_0, ..., f_d] vector (q=2 only), indexed by number of 1s."""
        if self.q != 2:
            raise InvalidArgumentError("boolean weight notation needs q=2")
        idx = composition_index(2, self.d)
        return [self.table[idx[(self.d - k, k)]] for k in range(self.d + 1)]

    def __repr__(self):
        if self.q == 2:
            return "[" + ", ".join(str(v) for v in self.boolean_weights()) + "]"
        return f"<SymmetricFunction q={self.q} d={self.d} uid={self.uid}>"


class BooleanSymmetricFunction:
    """A 0/1 symmetric function of arity k, i.e. a set of weight-k compositions."""

    __slots__ = ("q", "k", "members", "uid", "_as_fn", "_profiles", "_images")

    def __new__(cls, q: int, k: int, members: Iterable[tuple[int, ...]]):
        mem = frozenset(tuple(m) for m in members)
        all_comps = set(compositions(q, k))
        for m in mem:
            if m not in all_comps:
                raise InvalidArgumentError(f"{m} is not a weight-{k} composition over [{q}]")
        key = (q, k, tuple(sorted(mem)))
        with _intern_lock:
            got = _bool_registry.get(key)
            if got is not None:
                return got
            self = object.__new__(cls)
            self.q = q
            self.k = k
            self.members = mem
            self.uid = next(_next_uid)
            self._as_fn = None
            self._profiles = None
            self._images = None  # sigma -> relabel(self, sigma), made on first use
            _bool_registry[key] = self
            return self

    def __len__(self):
        return len(self.members)

    def is_empty(self) -> bool:
        return not self.members

    def is_full(self) -> bool:
        return len(self.members) == composition_count(self.q, self.k)

    def to_function(self) -> SymmetricFunction:
        """The same object as a 0/1-valued SymmetricFunction."""
        if self._as_fn is None:
            table = [ONE if c in self.members else ZERO for c in compositions(self.q, self.k)]
            self._as_fn = SymmetricFunction(self.q, self.k, table)
        return self._as_fn

    @staticmethod
    def full(q: int, k: int) -> "BooleanSymmetricFunction":
        return BooleanSymmetricFunction(q, k, compositions(q, k))

    def __repr__(self):
        shown = ",".join(str(m) for m in sorted(self.members))
        return f"<BoolFn q={self.q} k={self.k} {{{shown}}}>"


class PeerPartition:
    """The partition of weight-k compositions by equal pinned tables.

    ``classes[i]`` is the i-th equivalence class, ``representatives[i]`` its
    lexicographically smallest composition, and ``pinned[i]`` the common
    pinned function.  Classes are ordered by representative.
    """

    __slots__ = ("q", "k", "classes", "representatives", "pinned")

    def __init__(self, q, k, classes, representatives, pinned):
        self.q = q
        self.k = k
        self.classes = classes
        self.representatives = representatives
        self.pinned = pinned

    def __len__(self):
        return len(self.classes)


# ---------------------------------------------------------------------------
# operations

def pin(f: SymmetricFunction, kappa: Sequence[int]) -> SymmetricFunction:
    """Fix arguments with composition ``kappa``: returns g with g(mu) = f(mu + kappa)."""
    kappa = tuple(kappa)
    got = f._pins.get(kappa)
    if got is not None:
        return got
    if len(kappa) != f.q or any(c < 0 for c in kappa):
        raise InvalidArgumentError(f"pin composition {kappa} does not match domain [{f.q}]")
    k = sum(kappa)
    if k > f.d:
        raise InvalidArgumentError(f"pin weight {k} exceeds arity {f.d}")
    if k == 0:
        g = f
    else:
        idx = composition_index(f.q, f.d)
        table = [f.table[idx[add_compositions(mu, kappa)]] for mu in compositions(f.q, f.d - k)]
        g = SymmetricFunction(f.q, f.d - k, table)
        if g._pinned_from is None:
            g._pinned_from = (f, kappa)
    f._pins[kappa] = g
    return g


def peer_partition(f: SymmetricFunction, k: int) -> PeerPartition:
    """Group weight-k compositions into classes with identical pinned functions."""
    if not 0 <= k <= f.d:
        raise InvalidArgumentError(f"peer arity {k} out of range 0..{f.d}")
    got = f._peers.get(k)
    if got is not None:
        return got
    groups: dict[SymmetricFunction, list[tuple[int, ...]]] = {}
    for kappa in compositions(f.q, k):
        groups.setdefault(pin(f, kappa), []).append(kappa)
    # compositions() is lex-ascending, so each group list starts at its lex-min member
    items = sorted(groups.items(), key=lambda kv: kv[1][0])
    classes = tuple(BooleanSymmetricFunction(f.q, k, members) for _, members in items)
    reps = tuple(members[0] for _, members in items)
    pinned = tuple(g for g, _ in items)
    part = f._peers[k] = PeerPartition(f.q, k, classes, reps, pinned)
    return part


def survivor_pairs(f: SymmetricFunction, d1: int, d2: int):
    """The peer-image pairs of a two-sided arity split whose pin does not vanish.

    A pair (c1, c2) of peer classes at arities d1 and d2 survives when pinning
    f by the sum of their representatives leaves a nonzero function h.  Returns
    ``((c1, ((c2, h), ...)), ...)``, grouped by c1 in class order; a c1 with no
    surviving c2 is left out.
    """
    got = f._pairs.get((d1, d2))
    if got is not None:
        return got
    part1, part2 = peer_partition(f, d1), peer_partition(f, d2)
    by_c1 = []
    for c1, r1 in zip(part1.classes, part1.representatives):
        pinned = ((c2, pin(f, add_compositions(r1, r2)))
                  for c2, r2 in zip(part2.classes, part2.representatives))
        inner = tuple((c2, h) for c2, h in pinned if not h.is_zero_function())
        if inner:
            by_c1.append((c1, inner))
    got = f._pairs[(d1, d2)] = tuple(by_c1)
    return got


def regularity(f: SymmetricFunction) -> int:
    """The smallest C such that pinning f at every arity has at most C outcomes."""
    return max(len(peer_partition(f, k)) for k in range(f.d + 1))


def peering_closure_at(f: SymmetricFunction, k: int) -> list[BooleanSymmetricFunction]:
    """Every union of peer classes at arity k (including the empty and full unions)."""
    part = peer_partition(f, k)
    out = []
    seen = set()
    for mask in range(1 << len(part.classes)):
        members = frozenset().union(*(part.classes[i].members for i in range(len(part.classes)) if mask >> i & 1)) \
            if mask else frozenset()
        g = BooleanSymmetricFunction(f.q, k, members)
        if g.uid not in seen:
            seen.add(g.uid)
            out.append(g)
    return out


def worst_pair_count(f: SymmetricFunction) -> int:
    """Largest number of surviving peer-image pairs over all two-sided arity splits.

    Counts the pairs of ``survivor_pairs`` for every split (k1, k2) with
    k1 + k2 <= d, and at least 1.  This is the per-vertex branching factor of
    the separator recursion; separator search uses it to prefer cheap vertices
    among minimum cuts.
    """
    if f._pair_count is None:
        f._pair_count = max(
            1,
            *(sum(len(inner) for _, inner in survivor_pairs(f, k1, k2))
              for k1 in range(f.d + 1) for k2 in range(f.d - k1 + 1)),
        )
    return f._pair_count


# ---------------------------------------------------------------------------
# domain symmetry

def value_blocks(f: SymmetricFunction) -> tuple[int, ...]:
    """One block label per domain value: the smallest value interchangeable with it.

    Values a and b are interchangeable for f when f's table is invariant under
    the transposition (a b).  The relation is an equivalence, since
    (a c) = (a b)(b c)(a b), so each value is tested against one representative
    per block; the blocks generate the group of relabellings that fix f.
    """
    got = f._blocks
    if got is None:
        comps = compositions(f.q, f.d)
        idx = composition_index(f.q, f.d)
        table = f.table

        def swap_invariant(a, b):
            for c, v in zip(comps, table):
                if c[a] != c[b]:
                    s = list(c)
                    s[a], s[b] = c[b], c[a]
                    if table[idx[tuple(s)]] != v:
                        return False
            return True

        labels = []
        reps = []
        for a in range(f.q):
            label = next((r for r in reps if swap_invariant(r, a)), None)
            if label is None:
                reps.append(a)
                label = a
            labels.append(label)
        got = f._blocks = tuple(labels)
    return got


def value_profiles(f) -> tuple[int, ...]:
    """Per domain value a, the rank of a summary of f that every relabelling
    carries along.

    The summary is, for a SymmetricFunction, the sorted (count of a, value)
    pairs of its nonzero entries, and for a BooleanSymmetricFunction the
    sorted counts of a over its members.  Its rank among f's distinct
    summaries orders and equates values as the summary does, so comparing
    ranks costs no comparison of exact values.  The profile of sigma(a) in
    relabel(f, sigma) equals that of a in f, so sorting values by profile
    picks a relabelling that orbits share.
    """
    got = f._profiles
    if got is None:
        if isinstance(f, BooleanSymmetricFunction):
            summaries = [tuple(sorted(m[a] for m in f.members)) for a in range(f.q)]
        else:
            # each nonzero entry's value stands in as its rank among the
            # table's values, which orders and equates summaries alike
            entries = sorted(((v.re, v.im), c) for c, v in zip(compositions(f.q, f.d), f.table) if v)
            by_value = itertools.groupby(entries, key=lambda entry: entry[0])
            ranked = [(r, c) for r, (_, group) in enumerate(by_value) for _, c in group]
            summaries = [tuple(sorted((c[a], r) for r, c in ranked)) for a in range(f.q)]
        rank = {s: r for r, s in enumerate(sorted(set(summaries)))}
        got = f._profiles = tuple(rank[s] for s in summaries)
    return got


def relabel(f, sigma: tuple[int, ...]):
    """The image of f under the domain permutation sigma: value a becomes sigma[a].

    For a SymmetricFunction, g(c) = f(c') with c'[a] = c[sigma[a]]; for a
    BooleanSymmetricFunction, each member m maps to m' with m'[sigma[a]] = m[a].
    The image is interned, so its uid is a valid memo key.  The Holant of an
    instance equals that of its image with every function relabelled by one
    sigma.

    A pinned function's image comes from the pin cache where it can:
    relabel(pin(h, kappa), sigma) = pin(relabel(h, sigma), sigma·kappa), and
    relabel(h, sigma) is h when sigma moves values only within h's blocks
    (``value_blocks``, where already known).  So the lineage of first pins
    that gave f is climbed to the nearest such h; a table is relabelled only
    when there is none.
    """
    images = f._images
    if images is None:
        images = f._images = {}
    got = images.get(sigma)
    if got is not None:
        return got
    if isinstance(f, BooleanSymmetricFunction):
        inv = [0] * f.q
        for a, b in enumerate(sigma):
            inv[b] = a
        got = BooleanSymmetricFunction(f.q, f.k, (tuple(m[inv[b]] for b in range(f.q)) for m in f.members))
    else:
        h, kappa = f, (0,) * f.q
        while not _fixed_by(h, sigma) and h._pinned_from is not None:
            h, step = h._pinned_from
            kappa = add_compositions(kappa, step)
        if _fixed_by(h, sigma):
            moved = [0] * f.q
            for a, b in enumerate(sigma):
                moved[b] = kappa[a]
            got = pin(h, moved)
        else:
            idx = composition_index(f.q, f.d)
            got = SymmetricFunction(f.q, f.d, [f.table[idx[tuple(c[s] for s in sigma)]]
                                               for c in compositions(f.q, f.d)])
    images[sigma] = got
    return got


def _fixed_by(f, sigma):
    """Whether sigma is known to fix f: it moves values only within f's blocks."""
    blocks = f._blocks
    return blocks is not None and all(blocks[b] == blocks[a] for a, b in enumerate(sigma))


def evaluate_by_peers(f: SymmetricFunction, reps: Sequence[Sequence[int]]) -> GaussianRational:
    """Evaluate f at the componentwise sum of representative compositions.

    The result does not depend on which representative is chosen from each
    peer class, so this is the evaluation underlying the peer-image recursion.
    """
    total = (0,) * f.q
    for r in reps:
        r = tuple(r)
        if len(r) != f.q:
            raise InvalidArgumentError(f"representative {r} does not match domain [{f.q}]")
        total = add_compositions(total, r)
    if sum(total) != f.d:
        raise InvalidArgumentError(f"representative weights sum to {sum(total)}, arity is {f.d}")
    return f.value_at(total)


# ---------------------------------------------------------------------------
# builtins

def builtin(kind: str, q: int, d: int, **params) -> SymmetricFunction:
    """Construct a named constraint function.

    equality(weights): weight w_i on all-i inputs, 0 elsewhere (d=0: sum of weights).
    at_most_one / exact_one: boolean-domain [1,1,0,...,0] / [0,1,0,...,0].
    cyclic(c, values): value depends only on the per-value counts mod c; for q=2
        ``values`` is a length-c list indexed by (#1s mod c), otherwise a mapping
        from count-mod tuples to values.
    cyclic_with_exceptions(c, values, overrides): cyclic base with finitely many
        entries overridden (q=2: keyed by #1s; general: keyed by composition).
    explicit_boolean_weights(values): the [f_0,...,f_d] vector, q=2.
    explicit_table(values): full table in lexicographic composition order.
    """
    if kind == "equality":
        weights = params.get("weights")
        if weights is None or len(weights) != q:
            raise InvalidArgumentError(f"equality needs {q} weights")
        weights = [as_value(w) for w in weights]
        if d == 0:
            total = ZERO
            for w in weights:
                total = total + w
            return SymmetricFunction(q, 0, [total])
        table = []
        for comp in compositions(q, d):
            hit = [i for i, c in enumerate(comp) if c == d]
            table.append(weights[hit[0]] if hit else ZERO)
        return SymmetricFunction(q, d, table)

    if kind in ("at_most_one", "exact_one"):
        if q != 2:
            raise InvalidArgumentError(f"{kind} uses boolean-domain notation (q=2)")
        if kind == "at_most_one":
            weights = [ONE if ones <= 1 else ZERO for ones in range(d + 1)]
        else:
            weights = [ONE if ones == 1 else ZERO for ones in range(d + 1)]
        return from_boolean_weights(weights)

    if kind == "cyclic":
        return _cyclic(q, d, params.get("c"), params.get("values"))

    if kind == "cyclic_with_exceptions":
        base = _cyclic(q, d, params.get("c"), params.get("values"))
        overrides = params.get("overrides") or {}
        idx = composition_index(q, d)
        table = list(base.table)
        for where, val in overrides.items():
            if isinstance(where, int):
                if q != 2:
                    raise InvalidArgumentError("integer override keys need q=2")
                if not 0 <= where <= d:
                    raise InvalidArgumentError(f"override index {where} out of range 0..{d}")
                comp = (d - where, where)
            else:
                comp = tuple(where)
            if comp not in idx:
                raise InvalidArgumentError(f"override key {comp} is not a weight-{d} composition")
            table[idx[comp]] = as_value(val)
        return SymmetricFunction(q, d, table)

    if kind == "explicit_boolean_weights":
        if q != 2:
            raise InvalidArgumentError("explicit_boolean_weights needs q=2")
        values = params.get("values")
        if values is None or len(values) != d + 1:
            raise InvalidArgumentError(f"need {d + 1} boolean weights")
        return from_boolean_weights([as_value(v) for v in values])

    if kind == "explicit_table":
        values = params.get("values")
        if values is None:
            raise InvalidArgumentError("explicit_table needs values")
        return SymmetricFunction(q, d, [as_value(v) for v in values])

    raise InvalidArgumentError(f"unknown builtin kind {kind!r}")


def _cyclic(q, d, c, values):
    if not isinstance(c, int) or c < 1:
        raise InvalidArgumentError(f"cyclic period must be a positive int, got {c!r}")
    if values is None:
        raise InvalidArgumentError("cyclic needs values")
    if isinstance(values, dict):
        lookup = {tuple(k): as_value(v) for k, v in values.items()}

        def val(comp):
            key = tuple(x % c for x in comp)
            if key not in lookup:
                raise InvalidArgumentError(f"cyclic values missing count-mod key {key}")
            return lookup[key]

    else:
        if q != 2:
            raise InvalidArgumentError("list-form cyclic values need q=2; pass a dict for q>2")
        vals = [as_value(v) for v in values]
        if len(vals) != c:
            raise InvalidArgumentError(f"need {c} cyclic values, got {len(vals)}")

        def val(comp):
            return vals[comp[1] % c]

    return SymmetricFunction(q, d, [val(comp) for comp in compositions(q, d)])


def from_boolean_weights(weights: Sequence) -> SymmetricFunction:
    """Build a q=2 function from its [f_0,...,f_d] vector (indexed by number of 1s)."""
    d = len(weights) - 1
    vals = [as_value(w) for w in weights]
    return SymmetricFunction(2, d, [vals[comp[1]] for comp in compositions(2, d)])
