"""Truncated power series: ring laws, exp/log/invert, derivation."""
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from orbigenus.classfun import ClassFunction
from orbigenus.orbits import ALL_ORDERS
from orbigenus.psipoly import PsiPolynomial, _ExactSum, exact
from orbigenus.series import TruncatedSeries

from helpers import variable


def rand_series(rng, prec, constant=None):
    coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(prec + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return TruncatedSeries(coeffs, prec=prec)


def test_construction_pads_and_truncates():
    s = TruncatedSeries([1, 2], prec=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = TruncatedSeries([1, 2, 3, 4], prec=1)
    assert t.coeffs == (1, 2)
    assert t.prec == 1


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncatedSeries([1], prec=-1)
    for bad in (0.5, "x"):
        with pytest.raises(TypeError):
            TruncatedSeries([bad, 1], prec=2)


def test_exact_takes_only_ints_fractions_and_polynomials():
    poly = PsiPolynomial.constant(2)
    assert exact(3) == Fraction(3) and type(exact(3)) is Fraction
    assert exact(Fraction(1, 2)) == Fraction(1, 2) and exact(poly) is poly
    duck = SimpleNamespace(_den=1, _terms={})  # a polynomial's fields, not a polynomial
    for bad in (0.5, "x", None, [1], complex(1), duck):
        with pytest.raises(TypeError, match="not an exact value"):
            exact(bad)
    for build in (lambda: TruncatedSeries([duck], prec=0),
                  lambda: ClassFunction(1, ALL_ORDERS, 1, [duck]),
                  lambda: _ExactSum().add(duck)):
        with pytest.raises(TypeError, match="not an exact value"):
            build()


def test_a_bool_is_not_an_exact_value():
    # as _count and the JSON writer refuse a bool for an int; equality is not arithmetic and still holds
    s, chi, p = TruncatedSeries.one(2), ClassFunction.one(1, ALL_ORDERS, 2), PsiPolynomial.constant(1)
    for op in (lambda: exact(True), lambda: TruncatedSeries([True], 1), lambda: s + True,
               lambda: chi * True, lambda: p * True, lambda: True + s, lambda: True * chi,
               lambda: True - p, lambda: _ExactSum().add(False)):
        with pytest.raises(TypeError):
            op()
    assert p == True and s + 1 == TruncatedSeries([2], 2)  # noqa: E712


def test_immutable():
    s = TruncatedSeries.one(3)
    with pytest.raises(AttributeError):
        s.prec = 5


def test_coefficient_access_bounds():
    s = TruncatedSeries([1, 2, 3], prec=2)
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)
    for bad in [True, 1.0]:
        with pytest.raises(TypeError, match="must be an int, got"):
            s.coefficient(bad)


def test_mul_known_products():
    one_plus = TruncatedSeries([1, 1], prec=4)
    one_minus = TruncatedSeries([1, -1], prec=4)
    assert one_plus * one_minus == TruncatedSeries([1, 0, -1], prec=4)
    geom = TruncatedSeries([1] * 6, prec=5)
    assert geom * TruncatedSeries([1, -1], prec=5) == TruncatedSeries.one(5)
    a = TruncatedSeries([1, 2], prec=2)
    b = TruncatedSeries([1, 3], prec=2)
    assert a * b == TruncatedSeries([1, 5, 6], prec=2)


def test_binary_ops_take_min_precision():
    a = TruncatedSeries([1, 1, 1, 1], prec=3)
    b = TruncatedSeries([1, 2], prec=1)
    assert (a + b).prec == 1
    assert (a * b).prec == 1


def test_scalar_ops():
    s = TruncatedSeries([1, 2], prec=2)
    assert 2 * s == TruncatedSeries([2, 4], prec=2)
    assert s * Fraction(1, 2) == TruncatedSeries([Fraction(1, 2), 1], prec=2)
    assert s + 1 == TruncatedSeries([2, 2], prec=2)
    assert 1 - s == TruncatedSeries([0, -2], prec=2)


def test_exp_frozen_values():
    t = TruncatedSeries([0, 1], prec=3)
    assert t.exp() == TruncatedSeries(
        [1, 1, Fraction(1, 2), Fraction(1, 6)], prec=3
    )
    assert TruncatedSeries([], prec=4).exp() == TruncatedSeries.one(4)
    # exp(t + t^2) through t^2: collect 1 + (t + t^2) + t^2/2
    assert TruncatedSeries([0, 1, 1], prec=2).exp() == TruncatedSeries(
        [1, 1, Fraction(3, 2)], prec=2
    )


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1], prec=3).exp()


def test_log_frozen_values():
    assert TruncatedSeries.one(4).log() == TruncatedSeries([], prec=4)
    geom = TruncatedSeries([1, -1], prec=4).invert()
    expected = TruncatedSeries(
        [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], prec=4
    )
    assert geom.log() == expected
    # verify by exponentiating back
    assert expected.exp() == geom
    threet = TruncatedSeries([0, 3], prec=5)
    assert threet.exp().log() == threet


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], prec=3).log()


def test_invert_geometric():
    assert TruncatedSeries([1, -1], prec=3).invert() == TruncatedSeries([1, 1, 1, 1], prec=3)
    assert TruncatedSeries.one(3).invert() == TruncatedSeries.one(3)


def test_invert_of_square_equals_square_of_inverse():
    s = TruncatedSeries([1, 1], prec=5)
    assert (s * s).invert() == s.invert() * s.invert()


def test_invert_requires_unit():
    # zero, a non-constant polynomial, the zero polynomial
    for c in (0, variable("x", 2), PsiPolynomial.constant(0)):
        with pytest.raises(ValueError, match="constant term is not a unit"):
            TruncatedSeries([c, 1], prec=3).invert()


def test_t_ddt():
    s = TruncatedSeries([1, 1, 1], prec=2)
    assert s.t_ddt() == TruncatedSeries([0, 1, 2], prec=2)
    assert TruncatedSeries([5], prec=3).t_ddt() == TruncatedSeries([], prec=3)
    geom = TruncatedSeries([1, -1], prec=4).invert()
    assert geom.log().t_ddt() == TruncatedSeries([0, 1, 1, 1, 1], prec=4)


def test_negate_t():
    s = TruncatedSeries([1, 2, 3, 4], prec=3)
    assert s.negate_t() == TruncatedSeries([1, -2, 3, -4], prec=3)
    assert s.negate_t().negate_t() == s


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    s = rand_series(rng, 5)
    assert s ** 3 == s * s * s
    assert s ** 0 == TruncatedSeries.one(5)
    # every bit pattern of n <= 9
    expected = TruncatedSeries.one(5)
    for n in range(10):
        assert s ** n == expected, n
        expected = expected * s
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        s ** -1
    # a non-int exponent is refused by type, as every other non-int count is
    for bad in (2.0, True):
        with pytest.raises(TypeError, match="exponent must be an int"):
            s ** bad


def test_float_operands_raise_type_error():
    s = TruncatedSeries([1, 2], prec=2)
    for op in (lambda: s + 0.5, lambda: 0.5 + s, lambda: s * 0.5, lambda: 0.5 * s,
               lambda: s - 0.5, lambda: 0.5 - s):
        with pytest.raises(TypeError):
            op()


def test_equality_requires_same_precision():
    assert TruncatedSeries.one(3) != TruncatedSeries.one(4)
    assert not TruncatedSeries.one(3) == 1


@pytest.mark.parametrize("seed", range(6))
def test_exp_is_homomorphism(seed):
    rng = random.Random(seed)
    a = rand_series(rng, 6, constant=0)
    b = rand_series(rng, 6, constant=0)
    assert (a + b).exp() == a.exp() * b.exp()


@pytest.mark.parametrize("seed", range(6))
def test_exp_log_round_trips(seed):
    rng = random.Random(100 + seed)
    a = rand_series(rng, 6, constant=0)
    assert a.exp().log() == a
    u = rand_series(rng, 6, constant=1)
    assert u.log().exp() == u


@pytest.mark.parametrize("seed", range(6))
def test_invert_is_multiplicative(seed):
    rng = random.Random(200 + seed)
    a = rand_series(rng, 5, constant=rng.choice([1, 2, -3]))
    b = rand_series(rng, 5, constant=rng.choice([1, -1, 5]))
    assert a * a.invert() == TruncatedSeries.one(5)
    assert (a * b).invert() == a.invert() * b.invert()


@pytest.mark.parametrize("seed", range(6))
def test_t_ddt_is_a_derivation(seed):
    rng = random.Random(300 + seed)
    a = rand_series(rng, 6)
    b = rand_series(rng, 6)
    assert (a * b).t_ddt() == a.t_ddt() * b + a * b.t_ddt()
