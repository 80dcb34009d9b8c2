"""Transitive-orbit canonical forms and enumeration, against finite-group oracles."""
import itertools
import random
from fractions import Fraction

import pytest

import helpers
from orbigenus.orbits import (
    _PRIME_BOUND,
    ALL_ORDERS,
    Mode,
    ModeError,
    TransitiveOrbit,
    _is_prime,
    canonicalize,
    enumerate_orbits,
)
from orbigenus.series import TruncatedSeries

P2 = Mode(2)
P3 = Mode(3)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(4)
    with pytest.raises(ValueError):
        Mode(1)
    with pytest.raises(ValueError):
        Mode(9)  # 2 does not divide it: the test goes on to the base 3
    for bad in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError, match="p must be an int"):
            Mode(bad)
    assert Mode(2).p == 2
    assert Mode(5).p == 5
    assert ALL_ORDERS.p is None


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == [
        n for n in range(10 ** 4) if helpers.prime_factorization(n) == [(n, 1)]
    ]


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    # strong pseudoprimes to base 2 (2047 = 23 * 89), to bases 2..7, and to every
    # one of the first 12 primes (only the 13th base, 41, shows it composite)
    for n in (2047, 3215031751, 399165290221 * 798330580441):
        assert not _is_prime(n), n
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185):
        assert not _is_prime(n), n
    # Mersenne primes and the least prime above 10^18
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3):
        assert _is_prime(n), n


def test_mode_refuses_p_past_the_exact_primality_bound():
    # the bound itself is composite (1287836182261 * 2575672364521) yet passes all 13 bases
    assert 1287836182261 * 2575672364521 == _PRIME_BOUND
    for p in (_PRIME_BOUND, _PRIME_BOUND + 2):
        with pytest.raises(ValueError, match=f"p must be below {_PRIME_BOUND}"):
            Mode(p)
    assert Mode(10 ** 18 + 3).p == 10 ** 18 + 3


def test_mode_admits_size():
    assert P2.admits_size(8) and not P2.admits_size(6)
    assert P3.admits_size(27) and not P3.admits_size(12)
    assert ALL_ORDERS.admits_size(6)
    assert not ALL_ORDERS.admits_size(0)
    assert P2.sizes_up_to(10) == [1, 2, 4, 8]
    assert ALL_ORDERS.sizes_up_to(4) == [1, 2, 3, 4]


def test_trivial_orbit():
    t = enumerate_orbits(3, 1)[0]
    assert t == TransitiveOrbit(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert t.size == 1
    assert t.is_trivial()


def test_size_and_sort_key_are_kept_once_and_stay_out_of_equality():
    rows = ((2, 1, 0), (0, 3, 2), (0, 0, 4))
    read, fresh = TransitiveOrbit(3, rows), TransitiveOrbit(3, rows)
    assert (read.size, read.sort_key) == (24, (3, 24, (2, 3, 4), (1, 0, 2)))
    assert read.sort_key is read.sort_key  # built once, then kept
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert repr(read) == f"TransitiveOrbit(h=3, rows={rows!r})"
    for name in ("size", "sort_key", "h", "rows"):
        with pytest.raises(AttributeError):
            setattr(read, name, 5)  # still frozen


def test_orbit_validation():
    with pytest.raises(ValueError):
        TransitiveOrbit(2, ((1, 0),))  # wrong shape
    with pytest.raises(ValueError):
        TransitiveOrbit(2, ((1, 0), (1, 2)))  # not triangular
    with pytest.raises(ValueError):
        TransitiveOrbit(2, ((-1, 0), (0, 2)))  # nonpositive diagonal
    with pytest.raises(ValueError):
        TransitiveOrbit(2, ((1, 2), (0, 2)))  # off-diagonal not reduced
    with pytest.raises(ValueError, match="h must be positive"):
        TransitiveOrbit(0, ())
    for h, rows in [(2, ((1, Fraction(1, 2)), (0, 2))), (1, ((2.0,),)), (1, ((True,),)),
                    (True, ((1,),))]:
        with pytest.raises(TypeError, match="must be an int"):
            TransitiveOrbit(h, rows)


def test_enumerate_h1_single_orbit():
    for n in range(1, 9):
        orbits = enumerate_orbits(1, n)
        assert len(orbits) == 1
        assert orbits[0].rows == ((n,),)


def test_enumerate_frozen_h2_p2():
    orbits = enumerate_orbits(2, 2, P2)
    assert [t.rows for t in orbits] == [
        ((1, 0), (0, 2)),
        ((1, 1), (0, 2)),
        ((2, 0), (0, 1)),
    ]
    assert len(enumerate_orbits(2, 4, P2)) == 7


def test_enumerate_mode_errors():
    with pytest.raises(ModeError):
        enumerate_orbits(2, 6, P2)
    with pytest.raises(ModeError):
        enumerate_orbits(2, 12, P3)
    with pytest.raises(ValueError):
        enumerate_orbits(0, 1)
    with pytest.raises(ValueError):
        enumerate_orbits(2, 0)


def test_enumeration_rejects_a_non_int_before_caching_it():
    # 2.0 and True hash like 2 and 1, so they would share the cache entry of an int
    for h, n in [(1, 2.0), (1, True), (True, 2), (2, 1.0)]:
        with pytest.raises(TypeError, match="must be an int"):
            enumerate_orbits(h, n)
    (t,) = enumerate_orbits(1, 2)
    assert t.rows == ((2,),) and type(t.h) is int and t.label() == "2"
    assert enumerate_orbits(1, 1)[0].label() == "1"


def test_enumerate_deterministic_and_sorted():
    # enumeration does not sort: its generation order must be the canonical one
    for h in (1, 2, 3):
        for mode in (ALL_ORDERS, P2, P3):
            for n in mode.sizes_up_to(16):
                a = enumerate_orbits(h, n, mode)
                assert a == enumerate_orbits(h, n, mode)
                keys = [t.sort_key for t in a]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)
                assert all(s < t for s, t in zip(a, a[1:]))
    with pytest.raises(TypeError):
        enumerate_orbits(1, 1)[0] < 1


def test_enumeration_matches_position_by_position_builder():
    for h in (1, 2, 3, 4):
        for mode in (ALL_ORDERS, P2, P3):
            for n in mode.sizes_up_to(12 if h == 4 else 16):
                rows = tuple(t.rows for t in enumerate_orbits(h, n, mode))
                assert rows == helpers.hnf_matrices_by_position(h, n)


def test_enumerated_orbits_pass_the_validating_constructor():
    # enumeration wraps its matrices unchecked; the public constructor checks all
    for h in (1, 2, 3, 4):
        for n in range(1, (12 if h == 4 else 16) + 1):
            for t in enumerate_orbits(h, n):
                checked = TransitiveOrbit(t.h, t.rows)
                assert checked == t and hash(checked) == hash(t)
                off = tuple(row[j] for i, row in enumerate(t.rows) for j in range(i + 1, h))
                assert t.size == n
                assert t.sort_key == checked.sort_key == (h, n, t.diagonal, off)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_counts_match_sublattice_formula(h):
    for n in range(1, 17):
        assert len(enumerate_orbits(h, n)) == helpers.sublattice_count(h, n)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 11))
def test_counts_match_subgroup_oracle(h, n):
    assert len(enumerate_orbits(h, n)) == helpers.subgroup_count(h, n)


@pytest.mark.parametrize("h,n", [(1, 4), (1, 6), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4)])
def test_counts_match_literal_subgroup_walk(h, n):
    assert len(enumerate_orbits(h, n)) == len(helpers.subgroups_bruteforce(h, n))


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_counts_match_generating_function(h, p):
    # product over i < h of 1/(1 - p^i t), coefficient of t^k
    prec = 4
    prod_series = TruncatedSeries.one(prec)
    for i in range(h):
        prod_series = prod_series * TruncatedSeries([1, -(p ** i)], prec=prec).invert()
    for k in range(prec + 1):
        count = len(enumerate_orbits(h, p ** k, Mode(p)))
        assert count == prod_series.coefficient(k)


def test_canonicalize_frozen_cases():
    assert canonicalize(2, [(0, 2), (1, 0)]).rows == ((1, 0), (0, 2))
    t = canonicalize(2, [(1, 1), (1, -1)])
    assert t.rows == ((1, 1), (0, 2))
    assert t.size == 2
    assert canonicalize(1, [(6,), (4,)]).rows == ((2,),)


def test_canonicalize_identity_on_canonical_forms():
    for n in range(1, 7):
        for t in enumerate_orbits(2, n):
            assert canonicalize(2, t.rows) == t
    for t in enumerate_orbits(3, 4, P2):
        assert canonicalize(3, t.rows) == t


def test_canonicalize_rank_deficient():
    with pytest.raises(ValueError):
        canonicalize(2, [(2, 0)])
    with pytest.raises(ValueError):
        canonicalize(2, [(1, 1), (2, 2), (-3, -3)])
    with pytest.raises(ValueError):
        canonicalize(2, [])


def test_canonicalize_rejects_non_int_entries():
    # int() would truncate 2.5 to 2, parse '3', and read 0.0 and True as 0 and 1
    for h, gens in [(1, [[2.5]]), (1, [["3"]]), (2, [[2, 0.0], [0, True]])]:
        with pytest.raises(TypeError, match="each generator entry must be an int"):
            canonicalize(h, gens)
    assert str(canonicalize(2, [[2, 0], [0, 1]])) == "T[2,0|0,1]"


def test_canonicalize_rejects_wrong_length():
    with pytest.raises(ValueError):
        canonicalize(2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="h must be positive"):
        canonicalize(0, [])


@pytest.mark.parametrize("seed", range(10))
def test_canonicalize_invariant_under_row_operations(seed):
    rng = random.Random(seed)
    h = rng.choice([2, 3])
    n = rng.randint(1, 8)
    t = rng.choice(enumerate_orbits(h, n))
    rows = [list(r) for r in t.rows]
    # shuffle and mix rows by random integer combinations, append redundant sums
    for _ in range(6):
        i, j = rng.randrange(h), rng.randrange(h)
        if i != j:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    assert canonicalize(h, rows) == t


def test_reduce_is_canonical_coset_form():
    t = enumerate_orbits(2, 4, P2)[1]
    pts = t.points()
    assert len(pts) == t.size
    for pt in pts:
        assert t.reduce(pt) == pt
    for pt in pts:
        for row in t.rows:
            shifted = tuple(a + 3 * b for a, b in zip(pt, row))
            assert t.reduce(shifted) == pt


def test_reduce_respects_lattice_translates():
    rng = random.Random(5)
    for t in enumerate_orbits(2, 6):
        for _ in range(10):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            w = t.reduce(v)
            assert w in t.points()
            # v - w must lie in the lattice: canonicalizing rows + (v-w) keeps the lattice
            diff = tuple(a - b for a, b in zip(v, w))
            assert canonicalize(2, list(t.rows) + [diff]) == t


def _equivariant_bijections(t):
    """Count the permutations of an orbit's points that commute with Z^h."""
    pts = t.points()
    index = {p: i for i, p in enumerate(pts)}
    gens = [tuple(int(i == j) for j in range(t.h)) for i in range(t.h)]

    def act(gen, p):
        return t.reduce(tuple(a + b for a, b in zip(p, gen)))

    return sum(
        all(
            img[index[act(gen, p)]] == index[act(gen, pts[img[index[p]]])]
            for gen in gens
            for p in pts
        )
        for img in itertools.permutations(range(len(pts)))
    )


def test_aut_order_is_size():
    # the automorphism group of a transitive set of the abelian Z^h is its
    # translations, so its order is the orbit size
    for n in (1, 2, 4):
        for t in enumerate_orbits(2, n, P2):
            assert _equivariant_bijections(t) == t.size


def test_aut_order_bruteforce_crosscheck():
    """Count equivariant bijections of one size-4 orbit explicitly."""
    t = TransitiveOrbit(2, ((2, 1), (0, 2)))
    assert _equivariant_bijections(t) == t.size == 4


def test_label_round_trip_readable():
    t = enumerate_orbits(2, 2, P2)[1]
    assert t.label() == "1,1|0,2"
    assert str(t) == "T[1,1|0,2]"
