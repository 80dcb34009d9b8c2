"""Class-function algebra: augmentation, inner product, Young induction."""
import itertools
import operator
import random
from fractions import Fraction

import pytest

from orbigenus.classes import (
    GuardExceededError,
    OrbitTypeMultiset,
    _young_splits,
    _young_unions,
    centralizer_order,
    enumerate_classes,
)
from orbigenus.classfun import (
    ClassFunction,
    augmentation,
    induce_young,
    inner_product,
    product_inner_product,
    restrict_young,
    thm_d_induction_oracle,
)
from orbigenus.genus import SymbolicModel, equivariant_power_classfunction
from orbigenus.orbits import ALL_ORDERS, Mode, enumerate_orbits
from orbigenus.psipoly import PsiPolynomial

from helpers import class_items, indicator, union

P2 = Mode(2)
P3 = Mode(3)


def rand_cf(rng, h, mode, l):
    return ClassFunction(
        h, mode, l,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
         for _ in enumerate_classes(h, l, mode)],
    )


def test_construction_dense():
    classes = enumerate_classes(1, 3)
    chi = ClassFunction(1, ALL_ORDERS, 3, [1, 2, 3])
    assert chi.values == (1, 2, 3)
    assert chi.value(classes[1]) == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        ClassFunction(1, ALL_ORDERS, 3, [1, 2])
    with pytest.raises(TypeError):
        ClassFunction(1, ALL_ORDERS, 3, [0.5, 1, 1])
    for bad in ("x", None):
        with pytest.raises(TypeError, match="not an exact value"):
            ClassFunction(1, ALL_ORDERS, 1, [bad])


def test_value_rejects_foreign_class():
    chi = ClassFunction.one(1, ALL_ORDERS, 3)
    with pytest.raises(KeyError):
        chi.value(enumerate_classes(1, 2)[0])
    with pytest.raises(KeyError):
        chi.value(enumerate_classes(1, 4)[-1])  # sorts after every class of degree 3
    with pytest.raises(KeyError):
        # the same entries as a class of the all-orders table, in another mode
        ClassFunction.one(1, ALL_ORDERS, 2).value(enumerate_classes(1, 2, P2)[0])
    classes = enumerate_classes(2, 4)
    positions = ClassFunction(2, ALL_ORDERS, 4, range(len(classes)))
    assert [positions.value(c) for c in classes] == list(range(len(classes)))


def test_pointwise_algebra():
    rng = random.Random(0)
    chi, xi = rand_cf(rng, 2, P2, 2), rand_cf(rng, 2, P2, 2)
    assert (chi + xi).values == tuple(a + b for a, b in zip(chi.values, xi.values))
    assert (chi * xi).values == tuple(a * b for a, b in zip(chi.values, xi.values))
    assert (2 * chi).values == tuple(2 * a for a in chi.values)
    assert chi * ClassFunction.one(2, P2, 2) == chi
    assert (chi - chi).values == (0,) * len(chi.values)
    c = (ClassFunction.one(2, P2, 2) * 3) * (ClassFunction.one(2, P2, 2) * 5)
    assert c == ClassFunction.one(2, P2, 2) * 15
    half = Fraction(1, 2)
    assert (chi + 3).values == (3 + chi).values == tuple(a + 3 for a in chi.values)
    assert (chi - 3).values == tuple(a - 3 for a in chi.values)
    assert (chi * half).values == (half * chi).values == tuple(a / 2 for a in chi.values)
    # polynomial values times a scalar, on either side
    psi = equivariant_power_classfunction(SymbolicModel("x"), 3, 2, P2)
    assert any(isinstance(v, PsiPolynomial) and not v.is_constant for v in psi.values)
    assert (psi * half).values == (half * psi).values == tuple(v * half for v in psi.values)
    assert (psi * 3).values == (3 * psi).values == tuple(v * 3 for v in psi.values)
    with pytest.raises(TypeError):
        chi + 0.5
    with pytest.raises(TypeError):
        chi * "x"
    assert chi != 1 and not chi == 1
    with pytest.raises(AttributeError, match="immutable"):
        chi.values = ()


def test_reflected_subtraction_and_negation():
    chi = rand_cf(random.Random(5), 2, P2, 3)
    psi = equivariant_power_classfunction(SymbolicModel("x"), 3, 2, P2)
    for f in (chi, psi):
        for s in (3, Fraction(-2, 3), PsiPolynomial.constant(3)):
            assert s - f == -(f - s)
            assert (s - f).values == tuple(s - v for v in f.values)
        assert -f == f * -1
        assert (-f).values == tuple(-v for v in f.values)
        assert [type(v) for v in (3 - f).values] == [type(v) for v in f.values]
    # a polynomial scalar, taken class by class: every value becomes a polynomial
    three = PsiPolynomial.constant(3)
    for c, v, w in zip(chi.classes, (three - chi).values, (chi - three).values):
        assert v == 3 - chi.value(c) and w == chi.value(c) - 3 and isinstance(v, PsiPolynomial)
    for other in ("x", None, (1, 1), 0.5):
        with pytest.raises(TypeError):
            other - chi
        with pytest.raises(TypeError):
            chi - other


def test_parameter_mismatch_raises():
    chi = ClassFunction.one(2, P2, 2)
    with pytest.raises(ValueError):
        chi + ClassFunction.one(2, P2, 3)
    with pytest.raises(ValueError):
        chi * ClassFunction.one(2, P3, 2)
    for other in (ClassFunction.one(1, P2, 2), ClassFunction.one(2, P2, 3), ClassFunction.one(2, P3, 2)):
        with pytest.raises(ValueError, match="class function parameters do not match"):
            inner_product(chi, other)


@pytest.mark.parametrize("other", [3, Fraction(1, 2), PsiPolynomial.constant(1), "x", None, (1, 1)],
                         ids=["int", "Fraction", "polynomial", "str", "None", "tuple"])
def test_inner_product_pairs_only_class_functions(other):
    # anything that * accepts, as well as anything it does not, is refused on either side
    chi = ClassFunction.one(2, P2, 2)
    for args in ((chi, other), (other, chi), (other, other)):
        with pytest.raises(TypeError, match="ClassFunction"):
            inner_product(*args)


class _Impostor:
    """Has no field of a ClassFunction: a gate that reads one before refusing fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name!r} of a non-ClassFunction")


NOT_CLASS_FUNCTIONS = [3, Fraction(1, 2), PsiPolynomial.constant(1), "x", None, (1, 1), _Impostor()]
CHI = ClassFunction.one(2, P2, 2)
RESTRICTED = restrict_young(ClassFunction.one(2, P2, 4), 2, 2)
ROUTINES = {  # each routine, and ClassFunction arguments it accepts
    "augmentation": (augmentation, (CHI,)),
    "inner_product": (inner_product, (CHI, CHI)),
    "induce_young": (induce_young, (CHI, CHI)),
    "restrict_young": (lambda zeta: restrict_young(zeta, 1, 1), (CHI,)),
    "product_inner_product": (lambda chi, xi: product_inner_product(chi, xi, RESTRICTED), (CHI, CHI)),
    "thm_d_induction_oracle": (thm_d_induction_oracle, (CHI, CHI)),
}


@pytest.mark.parametrize("routine, args", ROUTINES.values(), ids=ROUTINES)
def test_every_class_function_routine_refuses_anything_else_in_any_position(routine, args):
    routine(*args)  # accepted as given
    for other in NOT_CLASS_FUNCTIONS:
        for i in range(len(args)):
            with pytest.raises(TypeError, match="ClassFunction"):
                routine(*args[:i], other, *args[i + 1:])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_pointwise_operators_refuse_non_scalars_in_either_position(op):
    forward, reflected = getattr(CHI, f"__{op.__name__}__"), getattr(CHI, f"__r{op.__name__}__")
    for other in [*NOT_CLASS_FUNCTIONS[3:], 0.5]:
        assert forward(other) is NotImplemented and reflected(other) is NotImplemented
        for args in ((CHI, other), (other, CHI)):
            with pytest.raises(TypeError, match="ClassFunction"):
                op(*args)
    for scalar in NOT_CLASS_FUNCTIONS[:3]:  # 3, 1/2 and a polynomial, taken value by value
        assert op(CHI, scalar).values == tuple(op(v, scalar) for v in CHI.values)
        assert op(scalar, CHI).values == tuple(op(scalar, v) for v in CHI.values)
    with pytest.raises(ValueError, match="class function parameters do not match"):
        op(CHI, ClassFunction.one(2, P2, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda chi, xi: induce_young(chi, xi),
        lambda chi, xi: product_inner_product(
            chi, xi, restrict_young(ClassFunction.one(2, P2, 4), 2, 2)
        ),
        lambda chi, xi: thm_d_induction_oracle(chi, xi),
    ],
    ids=["induce_young", "product_inner_product", "thm_d_induction_oracle"],
)
@pytest.mark.parametrize("other", [(1, P2), (2, P3), (2, ALL_ORDERS)], ids=["h", "p", "all-orders"])
def test_young_calculus_rejects_mismatched_parameters(call, other):
    chi = ClassFunction.one(2, P2, 2)
    xi = ClassFunction.one(*other, 2)
    with pytest.raises(ValueError, match="class function parameters do not match"):
        call(chi, xi)


def test_augmentation_frozen_values():
    # 4 commuting pairs in S_2 at p=2: augmentation of 1 is 4/2
    assert augmentation(ClassFunction.one(2, P2, 2)) == 2
    # h=1: average of 1 over the group is 1
    for l in range(6):
        assert augmentation(ClassFunction.one(1, ALL_ORDERS, l)) == 1
    # indicator of the trivial class of S_3 at h=2, p=3: class size 1 over 6
    triv = enumerate_orbits(2, 1)[0]
    ident = OrbitTypeMultiset.from_pairs(2, P3, [(triv, 3)])
    assert augmentation(indicator(ident)) == Fraction(1, 6)


def test_augmentation_equals_classwise_sum():
    rng = random.Random(1)
    chi = rand_cf(rng, 2, P2, 4)
    total = sum(
        (v * Fraction(1, centralizer_order(c)) for c, v in class_items(chi)),
        Fraction(0),
    )
    assert augmentation(chi) == total


def test_inner_product_frozen_values():
    assert inner_product(ClassFunction.one(2, P3, 3), ClassFunction.one(2, P3, 3)) == Fraction(3, 2)
    assert inner_product(ClassFunction.one(2, P2, 2), ClassFunction.one(2, P2, 2)) == 2
    assert inner_product(ClassFunction.one(1, ALL_ORDERS, 3), ClassFunction.one(1, ALL_ORDERS, 3)) == 1


@pytest.mark.parametrize("seed", range(5))
def test_inner_product_symmetric_bilinear(seed):
    rng = random.Random(seed)
    chi, xi, zeta = (rand_cf(rng, 2, P2, 3) for _ in range(3))
    assert inner_product(chi, xi) == inner_product(xi, chi)
    assert inner_product(chi + zeta, xi) == inner_product(chi, xi) + inner_product(zeta, xi)
    assert inner_product(3 * chi, xi) == 3 * inner_product(chi, xi)
    zero = ClassFunction.one(2, P2, 3) * 0
    assert inner_product(chi, zero) == 0


def test_induce_frozen_classical_values():
    # trivial character of S_1 x S_2 induced to S_3: permutation character (3,1,0)
    one1 = ClassFunction.one(1, ALL_ORDERS, 1)
    one2 = ClassFunction.one(1, ALL_ORDERS, 2)
    ind = induce_young(one1, one2)
    by_class = {tuple(sorted(o.size for o, m in c.entries for _ in range(m))): v
                for c, v in class_items(ind)}
    assert by_class == {(1, 1, 1): 3, (1, 2): 1, (3,): 0}
    # S_1 x S_1 up to S_2: values (2, 0)
    ind2 = induce_young(one1, ClassFunction.one(1, ALL_ORDERS, 1))
    vals = {tuple(sorted(o.size for o, m in c.entries for _ in range(m))): v
            for c, v in class_items(ind2)}
    assert vals == {(1, 1): 2, (2,): 0}


def test_induce_trivial_degree_zero():
    one0 = ClassFunction.one(2, P2, 0)
    xi = ClassFunction(2, P2, 2, list(range(4)))
    assert induce_young(one0, xi) == xi
    assert induce_young(xi, one0) == xi


@pytest.mark.parametrize(
    "h, mode, j, k",
    [(2, ALL_ORDERS, 1, 2), (2, P2, 2, 2), (1, ALL_ORDERS, 0, 3), (2, P2, 0, 4)],
    ids=["all-orders", "p-power", "j0-all-orders", "j0-p-power"],
)
def test_restrict_young(h, mode, j, k):
    rng = random.Random(2)
    zeta = rand_cf(rng, h, mode, j + k)
    table = restrict_young(zeta, j, k)
    left, right = enumerate_classes(h, j, mode), enumerate_classes(h, k, mode)
    assert len(table) == len(left) and all(len(row) == len(right) for row in table)
    for ia, a in enumerate(left):
        for ib, b in enumerate(right):
            assert table[ia][ib] == zeta.value(union(a, b))
    if j == 0:
        assert table == (zeta.values,)
    with pytest.raises(ValueError):
        restrict_young(zeta, j + 1, k)
    # restriction of the constant 1 is constant 1
    ones = restrict_young(ClassFunction.one(h, mode, j + k), j, k)
    assert all(v == 1 for row in ones for v in row)


def test_product_inner_product_names_the_expected_shape():
    one = ClassFunction.one(2, P2, 2)
    table = restrict_young(ClassFunction.one(2, P2, 4), 2, 2)
    ragged = table[:-1] + (table[-1][:-1],)
    for bad in (((1, 1),), ragged):
        with pytest.raises(ValueError, match="table must have 4 rows of 4 values"):
            product_inner_product(one, one, bad)
    assert product_inner_product(one, one, table) == 4


@pytest.mark.parametrize("seed", range(8))
def test_frobenius_reciprocity(seed):
    rng = random.Random(seed)
    h, mode, j, k = rng.choice(
        [(1, ALL_ORDERS, 1, 2), (1, P2, 2, 2), (2, P2, 1, 2), (2, P3, 1, 1), (2, ALL_ORDERS, 2, 1)]
    )
    chi, xi = rand_cf(rng, h, mode, j), rand_cf(rng, h, mode, k)
    zeta = rand_cf(rng, h, mode, j + k)
    lhs = inner_product(induce_young(chi, xi), zeta)
    rhs = product_inner_product(chi, xi, restrict_young(zeta, j, k))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(8))
def test_augmentation_multiplicative_under_induction(seed):
    rng = random.Random(40 + seed)
    h, mode, j, k = rng.choice(
        [(1, ALL_ORDERS, 2, 2), (2, P2, 1, 3), (2, P3, 2, 1), (2, ALL_ORDERS, 1, 2)]
    )
    chi, xi = rand_cf(rng, h, mode, j), rand_cf(rng, h, mode, k)
    assert augmentation(induce_young(chi, xi)) == augmentation(chi) * augmentation(xi)


def test_induction_is_associative():
    rng = random.Random(9)
    chi, xi, zeta = (rand_cf(rng, 2, P2, 1) for _ in range(3))
    assert induce_young(induce_young(chi, xi), zeta) == induce_young(chi, induce_young(xi, zeta))


@pytest.mark.parametrize(
    "h,mode,j,k",
    [(1, ALL_ORDERS, 1, 1), (1, ALL_ORDERS, 1, 2), (1, ALL_ORDERS, 2, 2),
     (1, P2, 1, 2), (2, P2, 1, 1), (2, P2, 1, 2), (2, P2, 2, 2),
     (2, P3, 1, 2), (2, ALL_ORDERS, 1, 2)],
)
def test_induce_matches_group_sum_oracle(h, mode, j, k):
    rng = random.Random(1000 * h + 10 * j + k)
    chi, xi = rand_cf(rng, h, mode, j), rand_cf(rng, h, mode, k)
    assert induce_young(chi, xi) == thm_d_induction_oracle(chi, xi)


def _induce_reference(chi, xi):
    """Induction from product-and-filter splits, each weighted by Fraction(z(m), z(a) z(b))."""
    h, mode, j = chi.h, chi.mode, chi.l
    chi_at, xi_at = dict(class_items(chi)), dict(class_items(xi))
    values = []
    for m in enumerate_classes(h, j + xi.l, mode):
        total = Fraction(0)
        for choice in itertools.product(*(range(c + 1) for _, c in m.entries)):
            a = OrbitTypeMultiset.from_pairs(
                h, mode, [(o, c) for (o, _), c in zip(m.entries, choice)]
            )
            if a.degree != j:
                continue
            b = OrbitTypeMultiset.from_pairs(
                h, mode, [(o, n - c) for (o, n), c in zip(m.entries, choice)]
            )
            ratio = Fraction(centralizer_order(m), centralizer_order(a) * centralizer_order(b))
            total += ratio * chi_at[a] * xi_at[b]
        values.append(total)
    return ClassFunction(h, mode, j + xi.l, values)


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("mode", [ALL_ORDERS, P2, P3], ids=str)
def test_induce_young_matches_centralizer_ratio_reference(h, mode):
    # every split of every degree up to 8, beyond the averaging oracle's guard
    rng = random.Random(100 * h + (mode.p or 0))
    for n in range(9):
        for j in range(n + 1):
            chi, xi = rand_cf(rng, h, mode, j), rand_cf(rng, h, mode, n - j)
            assert induce_young(chi, xi) == _induce_reference(chi, xi), (h, mode, j, n - j)


def test_plans_follow_interleaved_split_degrees():
    # one plan of each kind is kept, so each change of (h, mode, j, k) must rebuild it, and
    # a repeat of the last must reuse it; both sides are checked against the references
    rng = random.Random(31)
    steps = [(2, P2, 1, 5), (2, P2, 2, 4), (2, P2, 1, 5), (2, P2, 3, 3), (2, P2, 3, 3), (2, P2, 0, 6),
             (2, P2, 1, 4), (1, ALL_ORDERS, 1, 5), (2, P3, 1, 5), (2, ALL_ORDERS, 2, 4), (2, P2, 1, 5)]
    for step, (h, mode, j, k) in enumerate(steps):
        chi, xi, zeta = rand_cf(rng, h, mode, j), rand_cf(rng, h, mode, k), rand_cf(rng, h, mode, j + k)
        hits = _young_splits.cache_info().hits, _young_unions.cache_info().hits
        assert induce_young(chi, xi) == _induce_reference(chi, xi), (h, mode, j, k)
        assert restrict_young(zeta, j, k) == tuple(
            tuple(zeta.value(union(a, b)) for b in enumerate_classes(h, k, mode))
            for a in enumerate_classes(h, j, mode)
        ), (h, mode, j, k)
        repeat = step > 0 and steps[step - 1] == (h, mode, j, k)
        assert _young_splits.cache_info().hits == hits[0] + repeat
        assert _young_unions.cache_info().hits == hits[1] + repeat
    assert _young_splits.cache_info().currsize == _young_unions.cache_info().currsize == 1


@pytest.mark.parametrize("h, mode", [(1, ALL_ORDERS), (2, P2), (2, P3)], ids=["h1", "h2-p2", "h2-p3"])
def test_induce_young_on_polynomial_and_mixed_values(h, mode):
    # each value equals the reference's and has its type: a polynomial where some
    # split read a polynomial, a Fraction where every split read Fractions
    rng = random.Random(10 * h + (mode.p or 0))

    def psi(l):
        return equivariant_power_classfunction(SymbolicModel("x"), l, h, mode)

    def mixed(l):
        return ClassFunction(h, mode, l, [
            v if rng.random() < 0.5 else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for v in psi(l).values
        ])

    kinds = set()
    for n in range(7):
        for j in range(n + 1):
            for chi, xi in ((psi(j), psi(n - j)), (mixed(j), mixed(n - j)),
                            (rand_cf(rng, h, mode, j), psi(n - j))):
                got, want = induce_young(chi, xi).values, _induce_reference(chi, xi).values
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (j, n - j)
                kinds.update(type(v) for v in got)
    assert kinds == {Fraction, PsiPolynomial}


def test_oracle_of_zero_is_zero():
    zero = ClassFunction.one(1, ALL_ORDERS, 1) * 0
    one2 = ClassFunction.one(1, ALL_ORDERS, 2)
    out = thm_d_induction_oracle(zero, one2)
    assert all(v == 0 for v in out.values)


def test_oracle_guard():
    chi = ClassFunction.one(1, ALL_ORDERS, 3)
    xi = ClassFunction.one(1, ALL_ORDERS, 4)
    with pytest.raises(GuardExceededError):
        thm_d_induction_oracle(chi, xi)
    assert thm_d_induction_oracle(chi, xi, guard=7) == induce_young(chi, xi)
    with pytest.raises(TypeError, match="^guard must be an int, got 7.5$"):
        thm_d_induction_oracle(chi, xi, guard=7.5)
    empty = ClassFunction.one(1, ALL_ORDERS, 0)
    with pytest.raises(ValueError, match="^guard must be nonnegative$"):
        thm_d_induction_oracle(empty, empty, guard=-1)
