"""Commuting-tuple classes: enumeration, sizes, decomposition, brute-force oracle."""
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from orbigenus.classes import (
    GuardExceededError,
    OrbitTypeMultiset,
    Permutation,
    brute_force_classes,
    centralizer_order,
    class_representative,
    class_size,
    commute,
    enumerate_classes,
    hom_count,
    orbit_type_of_tuple,
)
from orbigenus.orbits import ALL_ORDERS, Mode, ModeError, TransitiveOrbit, enumerate_orbits

from helpers import (
    class_count,
    compose,
    from_cycles,
    identity,
    inverse,
    keyed_splits,
    multiplicity,
    sub_multisets_reference,
    union,
)

P2 = Mode(2)
P3 = Mode(3)


def test_permutation_basics():
    p = from_cycles(4, [(0, 1, 2)])
    assert p.image == (1, 2, 0, 3)
    assert p.image[0] == 1
    assert compose(inverse(p), p) == identity(4)
    assert sorted(p.cycle_lengths()) == [1, 3]
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    for image in [(0, 1.0), (False, True)]:
        with pytest.raises(TypeError, match="must be an int, got"):
            Permutation(image)
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_order_admissible():
    c3 = from_cycles(3, [(0, 1, 2)])
    assert c3.order_admissible(ALL_ORDERS)
    assert c3.order_admissible(P3)
    assert not c3.order_admissible(P2)
    c4 = from_cycles(4, [(0, 1, 2, 3)])
    assert c4.order_admissible(P2)


def test_commute():
    a = from_cycles(4, [(0, 1)])
    b = from_cycles(4, [(2, 3)])
    c = from_cycles(4, [(1, 2)])
    assert commute(a, b)
    assert not commute(a, c)


@pytest.mark.parametrize("a,b", [((0,), (0, 2, 1)), ((0, 1), (0,)), ((1, 0, 2), (1, 0))])
def test_commute_refuses_permutations_of_different_point_sets(a, b):
    with pytest.raises(ValueError, match="permutations act on different point sets"):
        commute(Permutation(a), Permutation(b))


@pytest.mark.parametrize("call", [
    lambda: commute((1, 0), (0, 1)),
    lambda: commute(Permutation((1, 0)), (0, 1)),
    lambda: commute([1, 0], Permutation((0, 1))),
    lambda: orbit_type_of_tuple([(1, 0)]),
    lambda: orbit_type_of_tuple([Permutation((1, 0)), (1, 0)], Mode(2)),
], ids=["commute tuples", "commute second", "commute first", "orbit type tuple", "orbit type second"])
def test_permutation_gates_take_only_permutations(call):
    with pytest.raises(TypeError, match="expected a Permutation"):
        call()


def test_multiset_validation():
    t1, t2, _ = enumerate_orbits(2, 2, P2)
    with pytest.raises(ValueError):
        OrbitTypeMultiset(2, P2, ((t2, 1), (t1, 1)))  # unsorted
    with pytest.raises(ValueError):
        OrbitTypeMultiset(2, P2, ((t1, 0),))  # zero multiplicity
    with pytest.raises(ValueError):
        OrbitTypeMultiset(1, P2, ((t1, 1),))  # h mismatch
    three = enumerate_orbits(2, 3, P3)[0]
    with pytest.raises(ModeError):
        OrbitTypeMultiset(2, P2, ((three, 1),))  # size 3 inadmissible at p=2
    # a float or bool multiplicity was taken (degree 1.5), and a non-orbit raised AttributeError
    t = enumerate_orbits(1, 1)[0]
    for mult in (1.5, True, 2.0, Fraction(2), "1"):
        with pytest.raises(TypeError, match="^multiplicity must be an int, got "):
            OrbitTypeMultiset(1, ALL_ORDERS, [(t, mult)])
    for orbit in (3, (1,), {"h": 1, "size": "1", "hnf": [[1]]}):
        with pytest.raises(TypeError, match="^expected a TransitiveOrbit, got "):
            OrbitTypeMultiset(1, ALL_ORDERS, [(orbit, 1)])
    with pytest.raises(ValueError, match="^multiplicities must be positive$"):
        OrbitTypeMultiset(1, ALL_ORDERS, [(t, -1)])
    assert OrbitTypeMultiset(1, ALL_ORDERS, [(t, 2)]).degree == 2
    # an empty class read no h, so a float or str rank was taken
    for h in (2.5, "a", True, None):
        with pytest.raises(TypeError, match="^h must be an int, got "):
            OrbitTypeMultiset(h, ALL_ORDERS, [])
    for h in (0, -1):
        with pytest.raises(ValueError, match="^h must be positive$"):
            OrbitTypeMultiset(h, ALL_ORDERS, [])
    with pytest.raises(TypeError, match="^mode must be a Mode, got "):
        OrbitTypeMultiset(1, 2, [])


def test_multiset_degree_union_and_from_pairs():
    t1, t2, _ = enumerate_orbits(2, 2, P2)
    triv = enumerate_orbits(2, 1)[0]
    a = OrbitTypeMultiset.from_pairs(2, P2, [(t1, 1), (triv, 2)])
    assert a.degree == 4
    assert multiplicity(a, triv) == 2 and multiplicity(a, t2) == 0
    b = OrbitTypeMultiset.from_pairs(2, P2, [(t1, 1)])
    u = union(a, b)
    assert u.degree == 6 and multiplicity(u, t1) == 2
    # from_pairs merges duplicates regardless of order
    c = OrbitTypeMultiset.from_pairs(2, P2, [(triv, 1), (t1, 1), (triv, 1), (t1, 1)])
    assert c == OrbitTypeMultiset.from_pairs(2, P2, [(t1, 2), (triv, 2)])


def test_pickled_class_round_trips():
    for cls in enumerate_classes(2, 3, ALL_ORDERS):
        copy = pickle.loads(pickle.dumps(cls))
        assert copy == cls
        assert hash(copy) == hash(cls)


def test_sub_multisets():
    # the keyed split of a class, its halves mapped back to classes
    t1 = enumerate_orbits(2, 2, P2)[0]
    triv = enumerate_orbits(2, 1)[0]
    m = OrbitTypeMultiset.from_pairs(2, P2, [(triv, 2), (t1, 1)])
    splits = keyed_splits(m, 2)
    # degree-2 sub-multisets: {2 trivial} and {t1}
    assert len(splits) == 2
    for a, b, ways in splits:
        assert a.degree == 2 and b.degree == 2
        assert union(a, b) == m
    # one way each to take t1 or both trivial orbits, C(2, 1) to take one trivial orbit
    assert [ways for _, _, ways in splits] == [1, 1]
    assert [ways for _, _, ways in keyed_splits(m, 1)] == [2]
    assert keyed_splits(m, 0)[0][0].entries == ()


def test_sub_multisets_matches_product_and_filter():
    # the keyed split, pruned to the multiplicities that can reach the degree,
    # must give the same splits in the same order, each with the integer
    # weight equal to the centralizer ratio
    for h in (1, 2):
        for mode in (ALL_ORDERS, P2, P3):
            for l in range(9):
                for m in enumerate_classes(h, l, mode):
                    for degree in range(-1, l + 2):
                        splits = keyed_splits(m, degree)
                        assert splits == list(sub_multisets_reference(m, degree)), (
                            h, mode, m, degree
                        )
                        assert all(type(ways) is int for _, _, ways in splits)


def test_enumerate_classes_partition_counts():
    # h=1 all orders: classes are cycle types, counted by partitions
    for l, pl in enumerate([1, 1, 2, 3, 5, 7, 11]):
        assert len(enumerate_classes(1, l)) == pl
    # h=1, 2-power orders: partitions into parts from {1,2,4,...}
    for l, bl in enumerate([1, 1, 2, 2, 4, 4, 6]):
        assert len(enumerate_classes(1, l, P2)) == bl


def test_enumerate_classes_frozen_counts():
    assert len(enumerate_classes(2, 2, P2)) == 4
    assert len(enumerate_classes(2, 4, P2)) == 17
    assert len(enumerate_classes(2, 3, P3)) == 5
    assert len(enumerate_classes(3, 2, P2)) == 8  # 2*trivial plus 7 size-2 orbits


def test_enumerate_classes_deep_pool():
    # the 1,566 orbits of size <= 8 at h=4 p=2 once set the recursion depth
    assert len(enumerate_classes(4, 8, P2)) == 38441


@pytest.mark.parametrize(
    "h,l,p,count",
    [(1, 20, None, 627), (4, 8, 2, 38441), (1, 0, None, 1), (2, 8, 2, 148),
     (2, 9, 3, 48), (3, 6, None, 717), (2, 7, None, 170), (3, 10, 2, 11272)],
)
def test_enumerate_classes_counts_match_the_euler_transform(h, l, p, count):
    # the class walk against a count that enumerates no class
    mode = ALL_ORDERS if p is None else Mode(p)
    assert class_count(h, l, p) == count
    assert len(enumerate_classes(h, l, mode)) == count


def test_enumerate_classes_degree_zero():
    (empty,) = enumerate_classes(2, 0, P2)
    assert empty.entries == ()
    assert empty.degree == 0
    assert str(empty) == "[]"
    assert centralizer_order(empty) == 1
    assert class_size(empty) == 1
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        enumerate_classes(1, -1)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("mode", [ALL_ORDERS, P2, P3], ids=str)
def test_walked_classes_equal_their_checked_build(h, mode):
    # the walk builds its classes unchecked: each must equal, and hash like, the checked one
    for l in range(9 if h < 3 else 7):
        for c in enumerate_classes(h, l, mode):
            checked = OrbitTypeMultiset(h, mode, c.entries)
            assert (c, hash(c)) == (checked, hash(checked))
            assert (c.h, c.mode, c.degree) == (h, mode, l)
    with pytest.raises(AttributeError, match="immutable"):
        enumerate_classes(h, 2, mode)[0].entries = ()


def test_enumerate_classes_deterministic():
    # enumeration does not sort: classes must come out lexicographic in entries
    for h in (1, 2, 3):
        for mode in (ALL_ORDERS, P2, P3):
            for l in range(9):
                a = enumerate_classes(h, l, mode)
                assert a == enumerate_classes(h, l, mode)
                entries = [c.entries for c in a]
                assert all(x < y for x, y in zip(entries, entries[1:]))


def test_centralizer_order_classical_cycle_types():
    # h=1: cycle type (2,2) has centralizer 2^2 * 2! = 8
    two = enumerate_orbits(1, 2)[0]
    c = OrbitTypeMultiset.from_pairs(1, ALL_ORDERS, [(two, 2)])
    assert centralizer_order(c) == 8
    assert class_size(c) == 3
    # identity class of S_4 (h=2): centralizer is everything
    triv = enumerate_orbits(2, 1)[0]
    ident = OrbitTypeMultiset.from_pairs(2, P2, [(triv, 4)])
    assert centralizer_order(ident) == 24
    assert class_size(ident) == 1
    # one size-2 orbit plus 2 fixed points, l=4
    t1 = enumerate_orbits(2, 2, P2)[0]
    m = OrbitTypeMultiset.from_pairs(2, P2, [(triv, 2), (t1, 1)])
    assert centralizer_order(m) == 4
    assert class_size(m) == 6


def test_centralizer_matches_literal_centralizer():
    """Count centralizing group elements for one representative per class."""
    for h, l, mode in [(1, 4, ALL_ORDERS), (2, 3, P3), (2, 4, P2)]:
        perms = list(itertools.permutations(range(l)))
        for cls in enumerate_classes(h, l, mode):
            rep = [p.image for p in class_representative(cls)]
            n = 0
            for g in perms:
                if all(
                    tuple(g[p[i]] for i in range(l))
                    == tuple(p[g[i]] for i in range(l))
                    for p in rep
                ):
                    n += 1
            assert n == centralizer_order(cls), cls


def test_class_sizes_sum_to_hom_count():
    assert sum(class_size(c) for c in enumerate_classes(2, 2, P2)) == 4
    assert sum(class_size(c) for c in enumerate_classes(2, 3, P3)) == 9
    assert sum(class_size(c) for c in enumerate_classes(2, 4, P2)) == 88
    # commuting pairs in S_3, no order restriction: sum |class| * |centralizer|
    assert hom_count(2, 3) == 18


def test_orbit_type_of_tuple_frozen():
    # identity tuple
    ident = orbit_type_of_tuple([identity(3)] * 2)
    triv = enumerate_orbits(2, 1)[0]
    assert ident == OrbitTypeMultiset.from_pairs(2, ALL_ORDERS, [(triv, 3)])
    # single 3-cycle at h=1
    c3 = orbit_type_of_tuple([from_cycles(3, [(0, 1, 2)])])
    assert c3.entries[0][0].rows == ((3,),)
    # the pair ((01),(01)): one 2-point orbit with stabilizer {(a,b): a+b even}
    swap = from_cycles(2, [(0, 1)])
    t = orbit_type_of_tuple([swap, swap], P2)
    assert t.entries == ((TransitiveOrbit(2, ((1, 1), (0, 2))), 1),)
    # Klein pair on 4 points: one orbit of size 4, stabilizer 2Z x 2Z
    a = from_cycles(4, [(0, 1), (2, 3)])
    b = from_cycles(4, [(0, 2), (1, 3)])
    k = orbit_type_of_tuple([a, b], P2)
    assert k.entries == ((TransitiveOrbit(2, ((2, 0), (0, 2))), 1),)


def test_orbit_type_rejects_bad_input():
    a = from_cycles(3, [(0, 1)])
    c = from_cycles(3, [(1, 2)])
    with pytest.raises(ValueError):
        orbit_type_of_tuple([a, c])
    with pytest.raises(ModeError):
        orbit_type_of_tuple([from_cycles(3, [(0, 1, 2)])], P2)
    with pytest.raises(ValueError):
        orbit_type_of_tuple([])
    with pytest.raises(ValueError):
        orbit_type_of_tuple([a, identity(4)])


@pytest.mark.parametrize("seed", range(10))
def test_orbit_type_conjugation_invariant(seed):
    rng = random.Random(seed)
    h, l, mode = rng.choice([(1, 5, ALL_ORDERS), (2, 4, P2), (2, 3, P3), (3, 4, P2)])
    cls = rng.choice(enumerate_classes(h, l, mode))
    rep = class_representative(cls)
    img = list(range(l))
    rng.shuffle(img)
    g = Permutation(tuple(img))
    conj = [compose(compose(g, p), inverse(g)) for p in rep]
    assert orbit_type_of_tuple(conj, mode) == cls


def test_class_representative_round_trips():
    for h, l, mode in [(1, 5, ALL_ORDERS), (2, 4, P2), (2, 3, P3), (3, 4, P2)]:
        for cls in enumerate_classes(h, l, mode):
            rep = class_representative(cls)
            assert len(rep) == h
            assert orbit_type_of_tuple(rep, mode) == cls


def test_brute_force_frozen_small_cases():
    # S_2, h=2, p=2: all four pairs commute, one class each
    counts = brute_force_classes(2, 2, P2)
    assert len(counts) == 4
    assert sum(counts.values()) == 4
    assert all(n == 1 for n in counts.values())
    # S_3, h=2, p=3: 9 tuples in 5 classes
    counts = brute_force_classes(2, 3, P3)
    assert sum(counts.values()) == 9
    assert len(counts) == 5
    assert sorted(counts.values()) == [1, 2, 2, 2, 2]
    # h=1: plain conjugacy classes of S_3
    counts = brute_force_classes(1, 3)
    assert sorted(counts.values()) == [1, 2, 3]


@pytest.mark.parametrize(
    "h,l,mode",
    [(1, l, m) for l in range(5) for m in (ALL_ORDERS, P2)]
    + [(2, l, m) for l in range(5) for m in (P2, P3)]
    + [(3, l, P2) for l in range(4)],
)
def test_brute_force_matches_formula(h, l, mode):
    counts = brute_force_classes(h, l, mode)
    assert counts == {c: class_size(c) for c in enumerate_classes(h, l, mode)}


def test_guard():
    with pytest.raises(GuardExceededError):
        brute_force_classes(1, 7)
    with pytest.raises(GuardExceededError):
        brute_force_classes(3, 6, P2)
    with pytest.raises(ValueError, match="h must be positive"):
        brute_force_classes(0, 2)
    # h first, then the degree, then the guard
    with pytest.raises(ValueError, match="h must be positive"):
        brute_force_classes(0, 9)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        brute_force_classes(1, -1)
    # a guard is gated as a size: 2.5 ran, True read as 1, and -1 was refused only by the degree
    with pytest.raises(TypeError, match="^guard must be an int, got 2.5$"):
        brute_force_classes(1, 2, guard=2.5)
    with pytest.raises(ValueError, match="^guard must be nonnegative$"):
        brute_force_classes(1, 2, guard=-1)
    # override upward works (h=1 stays cheap)
    counts = brute_force_classes(1, 7, guard=7)
    assert sum(counts.values()) == factorial(7)
