"""Genus layer: models, symmetric powers, Hecke/lambda/Adams, product formula."""
import gc
import json
import weakref
from fractions import Fraction
from math import comb

import pytest

from orbigenus import genus
from orbigenus.classes import (
    OrbitTypeMultiset, Permutation, _enumerate_classes_cached, _young_splits, _young_unions,
    brute_force_classes, centralizer_order, enumerate_classes, hom_count, orbit_type_of_tuple,
)
from orbigenus.classes import _walk_classes as walk_classes
from orbigenus.classfun import ClassFunction, augmentation, restrict_young, thm_d_induction_oracle
from orbigenus.genus import (
    IntegerModel,
    SeriesComparison,
    SymbolicModel,
    TableModel,
    adams_series,
    equivariant_power_classfunction,
    geometric_power_series,
    hecke_log_series,
    hecke_operator,
    lambda_series,
    psi_of_class,
    sigma,
    symmetric_power_series,
    todd_orbifold_series,
    verify_product_formula,
)
from orbigenus.orbits import (
    ALL_ORDERS, Mode, ModeError, TransitiveOrbit, _orbit_stream, canonicalize, enumerate_orbits,
)
from orbigenus.psipoly import PsiPolynomial, PsiSymbol
from orbigenus.serialize import comparison_to_json, dumps, value_to_json
from orbigenus.series import TruncatedSeries

from helpers import class_items, indicator, lambda_operation, variable

P2 = Mode(2)
P3 = Mode(3)


def sym(family, orbit):
    return PsiPolynomial.symbol(PsiSymbol(family, orbit))


def test_symbolic_model_psi():
    m = SymbolicModel("x")
    t = enumerate_orbits(2, 2, P2)[0]
    assert m.psi(t) == sym("x", t)
    # trivial orbit gives the degree-one class itself
    assert m.psi(enumerate_orbits(2, 1)[0]) == variable("x", 2)


def test_integer_model_psi():
    m = IntegerModel(5)
    for t in enumerate_orbits(2, 4, P2):
        assert m.psi(t) == 5
    for d in (0.5, 2.0, Fraction(5)):
        with pytest.raises(TypeError):
            IntegerModel(d)


def test_table_model():
    t1, t2, t3 = enumerate_orbits(2, 2, P2)
    m = TableModel({t1: Fraction(1, 2), t2: 3, t3: Fraction(-2)})
    assert m.psi(t1) == Fraction(1, 2)
    assert m.psi(t2) == 3
    with pytest.raises(ValueError):
        m.psi(enumerate_orbits(2, 1)[0])
    for bad in (0.5, "5", None):
        with pytest.raises(TypeError):
            TableModel({t1: bad})


def test_psi_of_class():
    t1, t2, _ = enumerate_orbits(2, 2, P2)
    empty = OrbitTypeMultiset(2, P2, ())
    assert psi_of_class(SymbolicModel("x"), empty) == 1
    m = OrbitTypeMultiset.from_pairs(2, P2, [(t1, 2), (t2, 1)])
    assert psi_of_class(SymbolicModel("x"), m) == sym("x", t1) ** 2 * sym("x", t2)
    assert psi_of_class(IntegerModel(3), m) == 27


class FloatModel:
    """A model whose psi is a float, which no layer may take as an exact value."""

    def psi(self, orbit):
        return 1.5


@pytest.mark.parametrize("call", [
    lambda F: sigma(F, 2, 1),
    lambda F: hecke_operator(F, 2, 1),
    lambda F: verify_product_formula(F, 2, 1),
    lambda F: symmetric_power_series(F, 2, 1),
    lambda F: psi_of_class(F, OrbitTypeMultiset.from_pairs(1, ALL_ORDERS, [(enumerate_orbits(1, 1)[0], 2)])),
], ids=["sigma", "hecke_operator", "verify_product_formula", "symmetric_power_series", "psi_of_class"])
def test_float_psi_raises_type_error(call):
    with pytest.raises(TypeError, match="not an exact value"):
        call(FloatModel())


class WeakrefModel:
    """psi = 1 on every orbit; keeps only a weak reference to each orbit it is given."""

    def __init__(self):
        self.seen = []

    def psi(self, orbit):
        self.seen.append(weakref.ref(orbit))
        return 1


def test_no_orbit_outlives_its_computation():
    spy = WeakrefModel()
    hecke_log_series(spy, 8, 3)
    symmetric_power_series(spy, 8, 3)
    verify_product_formula(spy, 6, 2)
    gc.collect()
    assert spy.seen
    assert [ref for ref in spy.seen if ref() is not None] == []


class LiveOrbitModel:
    """psi = 1 on every orbit; counts, through weakref.finalize, the orbits it was given that are alive."""

    def __init__(self):
        self.calls = self.alive = self.peak = 0

    def _freed(self):
        self.alive -= 1

    def psi(self, orbit):
        weakref.finalize(orbit, self._freed)
        self.calls, self.alive = self.calls + 1, self.alive + 1
        self.peak = max(self.peak, self.alive)
        return 1


def test_hecke_operator_frees_each_orbit_once_its_psi_is_added():
    spy = LiveOrbitModel()
    value = hecke_operator(spy, 12, 4)
    assert spy.calls == len(enumerate_orbits(4, 12)) > 1000
    assert value == Fraction(spy.calls, 12)
    assert spy.peak <= 2 and spy.alive == 0


@pytest.mark.parametrize("build", [symmetric_power_series, lambda_series])
def test_genus_series_free_each_orbit_once_its_psi_is_read(build):
    spy = LiveOrbitModel()
    build(spy, 10, 3)
    assert spy.calls == sum(len(enumerate_orbits(3, s)) for s in range(1, 11))
    assert spy.peak <= 2 and spy.alive == 0


def test_orbit_arguments_are_checked_when_called_not_when_first_read():
    model = IntegerModel(1)
    with pytest.raises(ModeError, match="^size 3 is not admissible in 2-power mode$"):
        hecke_operator(model, 3, 2, Mode(2))
    with pytest.raises(ValueError, match="^orbit size must be positive$"):
        hecke_operator(model, 0, 2)
    with pytest.raises(ValueError, match="^h must be positive$"):
        enumerate_orbits(0, 1)
    with pytest.raises(ModeError, match="^size 3 is not admissible in 2-power mode$"):
        _orbit_stream(2, 3, Mode(2))  # no item asked for


def test_sigma_basics():
    model = SymbolicModel("x")
    assert sigma(model, 0, 2, P2) == 1
    assert sigma(model, 1, 2, P2) == variable("x", 2)
    with pytest.raises(ValueError):
        sigma(model, -1, 2, P2)


def test_sigma_two_frozen_symbolic():
    t1, t2, t3 = enumerate_orbits(2, 2, P2)
    x = variable("x", 2)
    expected = x * x * Fraction(1, 2) + (sym("x", t1) + sym("x", t2) + sym("x", t3)) * Fraction(1, 2)
    assert sigma(SymbolicModel("x"), 2, 2, P2) == expected


def test_sigma_of_dimension_one():
    # with every psi equal to 1 the series counts homs: sigma_n = |Hom|/n!,
    # which is 1 exactly in the single-variable all-orders case
    for n in range(9):
        assert sigma(IntegerModel(1), n, 1, ALL_ORDERS) == 1
    # elsewhere the commuting-tuple count takes over
    assert sigma(IntegerModel(1), 2, 2, ALL_ORDERS) == 2
    assert sigma(IntegerModel(1), 4, 1, P2) == Fraction(2, 3)


def test_sigma_integer_model_binomials():
    for d in range(4):
        for n in range(6):
            expected = 1 if n == 0 else comb(d + n - 1, n)
            assert sigma(IntegerModel(d), n, 1, ALL_ORDERS) == expected


def _table_model(h, mode, prec):
    """Exact psi values of both signs, some zero, for every orbit of size <= prec."""
    orbits = [t for s in mode.sizes_up_to(prec) for t in enumerate_orbits(h, s, mode)]
    return TableModel({t: Fraction((-1) ** i * (i % 4), i % 3 + 1) for i, t in enumerate(orbits)})


# (h, mode, prec): the grid on which the exp of the Hecke sums must equal the class sum
PRODUCT_GRID = [
    (1, ALL_ORDERS, 8), (1, P2, 8), (1, P3, 8),
    (2, ALL_ORDERS, 8), (2, P2, 8), (2, P3, 8),
    (3, ALL_ORDERS, 6), (3, P2, 8), (3, P3, 8),
]


def test_symmetric_power_series_matches_sigma():
    for h, mode, prec in PRODUCT_GRID:
        models = [SymbolicModel("x"), *map(IntegerModel, range(4)), _table_model(h, mode, prec)]
        for model in models:
            S = symmetric_power_series(model, prec, h, mode)
            assert S.prec == prec
            expected = [sigma(model, n, h, mode) for n in range(prec + 1)]
            assert list(S.coeffs) == expected, (model, h, mode)
            # the same types too, so the serialized output cannot change
            assert [type(c) for c in S.coeffs] == [type(c) for c in expected]
    assert symmetric_power_series(IntegerModel(2), 4, 1, ALL_ORDERS) == TruncatedSeries(
        [1, 2, 3, 4, 5], prec=4
    )
    assert symmetric_power_series(IntegerModel(0), 4, 1, ALL_ORDERS) == TruncatedSeries.one(4)


def test_symmetric_power_series_rejects_bad_rank():
    # the class sum raised for h < 1 at every degree, including degree 0
    for h in (0, -2):
        for prec in (0, 3):
            with pytest.raises(ValueError, match="h must be positive"):
                symmetric_power_series(IntegerModel(1), prec, h, ALL_ORDERS)


def test_hecke_operator_values():
    # only the trivial orbit has size 1
    assert hecke_operator(SymbolicModel("x"), 1, 2, P2) == variable("x", 2)
    # h=1: one orbit per size, T_n = d/n
    for n in range(1, 7):
        assert hecke_operator(IntegerModel(6), n, 1, ALL_ORDERS) == Fraction(6, n)
    t1, t2, t3 = enumerate_orbits(2, 2, P2)
    expected = (sym("x", t1) + sym("x", t2) + sym("x", t3)) * Fraction(1, 2)
    assert hecke_operator(SymbolicModel("x"), 2, 2, P2) == expected
    with pytest.raises(ModeError):
        hecke_operator(SymbolicModel("x"), 6, 2, P2)


def test_hecke_log_series_supports():
    s = hecke_log_series(SymbolicModel("x"), 9, 2, P3)
    for n in range(10):
        if n in (1, 3, 9):
            assert not s.coeffs[n] == 0
        else:
            assert s.coeffs[n] == 0


def test_hecke_log_series_rejects_bad_rank_and_precision():
    # at prec 0 no orbit is enumerated, so nothing else would check h
    for h, prec in ((0, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="h must be positive"):
            hecke_log_series(IntegerModel(1), prec, h, ALL_ORDERS)
    for mode in (ALL_ORDERS, P2):
        with pytest.raises(ValueError, match="precision must be nonnegative"):
            hecke_log_series(IntegerModel(1), -4, 2, mode)
    assert hecke_log_series(IntegerModel(1), 0, 2, ALL_ORDERS) == TruncatedSeries([], prec=0)


@pytest.mark.parametrize(
    "h,mode,prec",
    [(1, ALL_ORDERS, 6), (1, P2, 8), (2, P2, 5), (2, P3, 4), (2, ALL_ORDERS, 4), (3, P2, 4)],
)
def test_product_formula_symbolic(h, mode, prec):
    report = verify_product_formula(SymbolicModel("x"), prec, h, mode)
    assert report.equal
    assert report.first_mismatch is None


def test_product_formula_integer_model():
    report = verify_product_formula(IntegerModel(5), 10, 1, ALL_ORDERS)
    assert report.equal
    for n in range(11):
        assert report.lhs.coeffs[n] == comb(n + 4, n)


def test_verifier_left_side_walks_the_classes(monkeypatch):
    # dropping one class of degree 3 from the walk must break the identity at
    # t^3, by exactly that class's term; a left side taken from the
    # orbits, as symmetric_power_series is, would not notice
    dropped = []

    def one_class_short(pool, top):
        path = []
        for node in walk_classes(pool, top):
            depth, i, mult, degree = node
            del path[depth - 1:]
            path.append((pool[i], mult))
            if degree == 3 and not dropped:
                dropped.append(OrbitTypeMultiset(2, P2, tuple(path)))
                continue
            yield node

    monkeypatch.setattr(genus, "_walk_classes", one_class_short)
    model = SymbolicModel("x")
    report = verify_product_formula(model, 5, 2, P2)
    assert not report.equal
    assert report.first_mismatch == 3
    (cls,) = dropped
    difference = -psi_of_class(model, cls) * Fraction(1, centralizer_order(cls))
    assert report.lhs.coeffs[3] - report.rhs.coeffs[3] == difference
    reread = json.loads(dumps(comparison_to_json(report)))
    assert reread["difference"] == json.loads(dumps(value_to_json(difference)))


def _mixed_model(h, mode, prec):
    # scalar psi on the trivial orbit, a symbol elsewhere: degrees mix both
    return TableModel({
        t: Fraction(2, 3) if t.size == 1 else sym("x", t)
        for s in mode.sizes_up_to(prec)
        for t in enumerate_orbits(h, s, mode)
    })


@pytest.mark.parametrize(
    "model,h,mode,prec",
    [(SymbolicModel("x"), 2, P2, 6), (SymbolicModel("y"), 1, ALL_ORDERS, 7),
     (IntegerModel(3), 3, P2, 5), (IntegerModel(2), 2, P3, 6),
     (_mixed_model(2, P2, 5), 2, P2, 5)],
)
def test_sigma_is_the_sum_over_enumerated_classes(model, h, mode, prec):
    # the walk's carried products and orders against each class on its own
    for n in range(prec + 1):
        expected = Fraction(0)
        for cls in enumerate_classes(h, n, mode):
            expected = expected + psi_of_class(model, cls) * Fraction(1, centralizer_order(cls))
        got = sigma(model, n, h, mode)
        assert got == expected and type(got) is type(expected), (n, got, expected)
    lhs = verify_product_formula(model, prec, h, mode).lhs
    assert lhs.coeffs == tuple(sigma(model, n, h, mode) for n in range(prec + 1))


def _rational_model(h, mode, prec):
    # polynomial psi whose coefficients are not integers: each polynomial keeps a denominator of its
    # own (6 or 9), next to a scalar on the trivial orbit and a plain symbol on every third orbit
    values = {}
    for s in mode.sizes_up_to(prec):
        for i, t in enumerate(enumerate_orbits(h, s, mode)):
            x = sym("x", t)
            values[t] = (Fraction(-3, 4) if s == 1 else x if i % 3 == 2
                         else Fraction(1, 3) * x + Fraction(1, 2) if i % 3 == 0
                         else Fraction(2, 9) * x * x - Fraction(5, 3))
    return TableModel(values)


@pytest.mark.parametrize("h,mode,prec", [(2, P2, 6), (1, ALL_ORDERS, 6), (2, P3, 6), (2, ALL_ORDERS, 4)])
def test_polynomials_with_rational_coefficients_on_the_sigma_and_hecke_routes(h, mode, prec):
    # every route against the Fraction fold, class by class and orbit by orbit
    model = _rational_model(h, mode, prec)
    expected = []
    for n in range(prec + 1):
        total = Fraction(0)
        for cls in enumerate_classes(h, n, mode):
            total = total + psi_of_class(model, cls) * Fraction(1, centralizer_order(cls))
        expected.append(total)
    for got in ([sigma(model, n, h, mode) for n in range(prec + 1)],
                list(symmetric_power_series(model, prec, h, mode).coeffs),
                list(verify_product_formula(model, prec, h, mode).lhs.coeffs)):
        assert got == expected and list(map(type, got)) == list(map(type, expected))
    assert any(c.denominator > 1 for _, c in expected[-1].sorted_terms())
    for n in mode.sizes_up_to(prec):
        total = Fraction(0)
        for t in enumerate_orbits(h, n, mode):
            total = total + model.psi(t)
        assert hecke_operator(model, n, h, mode) == total * Fraction(1, n)
    assert verify_product_formula(model, prec, h, mode).equal


def test_class_sum_rejects_bad_rank_and_precision():
    # at prec 0 the walk visits only the empty class, so it checks h itself
    for prec in (0, 2):
        with pytest.raises(ValueError, match="h must be positive"):
            verify_product_formula(IntegerModel(1), prec, 0, ALL_ORDERS)
        with pytest.raises(ValueError, match="h must be positive"):
            sigma(IntegerModel(1), prec, 0)
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        verify_product_formula(IntegerModel(1), -1, 1, ALL_ORDERS)
    # with both bad, the one check of every orbit walk names h
    for build in (verify_product_formula, symmetric_power_series, hecke_log_series, sigma):
        with pytest.raises(ValueError, match="h must be positive"):
            build(IntegerModel(1), -1, 0, ALL_ORDERS)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        sigma(IntegerModel(1), -1, 1)
    assert verify_product_formula(IntegerModel(1), 0, 1, ALL_ORDERS).lhs.coeffs == (1,)


def test_series_comparison_reports_mismatch():
    a = TruncatedSeries([1, 2, 3], prec=2)
    b = TruncatedSeries([1, 2, 4], prec=2)
    report = SeriesComparison.compare(1, ALL_ORDERS, a, b)
    assert not report.equal
    assert report.first_mismatch == 2
    with pytest.raises(ValueError):
        SeriesComparison.compare(1, ALL_ORDERS, a, TruncatedSeries([1], prec=0))


def test_hecke_from_log_round_trip():
    model = SymbolicModel("x")
    S = symmetric_power_series(model, 9, 2, P3)
    coeffs = S.log().coeffs
    # S is exp of the Hecke sums, so the class walk's series is the input that tests the log
    walked = verify_product_formula(model, 9, 2, P3).lhs.log().coeffs
    for n in range(1, 10):
        if n in (1, 3, 9):
            assert coeffs[n] == walked[n] == hecke_operator(model, n, 2, P3)
        else:
            assert coeffs[n] == walked[n] == 0
    # S = (1-t)^{-d}: T_n = d/n
    geom = geometric_power_series(3, 6)
    assert geom.log().coeffs == (0,) + tuple(Fraction(3, n) for n in range(1, 7))
    assert TruncatedSeries.one(5).log().coeffs == (0,) * 6
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], prec=3).log()


def test_lambda_binomials():
    for d in range(7):
        lam = lambda_series(IntegerModel(d), d + 3, 1, ALL_ORDERS)
        for n in range(d + 4):
            assert lam.coeffs[n] == comb(d, n)
    assert lambda_operation(IntegerModel(4), 2) == 6


def test_lambda_one_is_the_class_itself():
    lam = lambda_series(SymbolicModel("x"), 3, 2, P2)
    assert lam.coeffs[0] == 1
    assert lam.coeffs[1] == variable("x", 2)


def test_lambda_inverts_symmetric_series():
    model = SymbolicModel("x")
    S = symmetric_power_series(model, 5, 2, P2)
    lam = lambda_series(model, 5, 2, P2)
    assert lam * S.negate_t() == TruncatedSeries.one(5)


def test_lambda_and_adams_neither_invert_nor_take_a_log(monkeypatch):
    def refuse(self):
        raise AssertionError("a genus series inverted a series or took its log")
    orbits = [t for s in P2.sizes_up_to(6) for t in enumerate_orbits(2, s, P2)]
    table = TableModel({t: Fraction(i % 5 - 2, i % 3 + 1) for i, t in enumerate(orbits)})
    for model in (SymbolicModel(), table):
        S = symmetric_power_series(model, 6, 2, P2)
        expected = S.negate_t().invert(), S.log().t_ddt()
        with monkeypatch.context() as m:
            m.setattr(TruncatedSeries, "invert", refuse)
            m.setattr(TruncatedSeries, "log", refuse)
            assert (lambda_series(model, 6, 2, P2), adams_series(model, 6, 2, P2)) == expected


@pytest.mark.parametrize("h,mode,prec", [(1, ALL_ORDERS, 6), (2, P2, 6), (2, P3, 9)])
def test_adams_equals_n_times_hecke(h, mode, prec):
    model = SymbolicModel("x")
    psi = adams_series(model, prec, h, mode)
    # adams_series scales the Hecke sums by n; t d/dt log of the class walk's series is independent
    walked = verify_product_formula(model, prec, h, mode).lhs.log().t_ddt()
    for n in range(1, prec + 1):
        if mode.admits_size(n):
            assert psi.coeffs[n] == walked.coeffs[n] == n * hecke_operator(model, n, h, mode)
        else:
            assert psi.coeffs[n] == walked.coeffs[n] == 0


def test_adams_fixes_integers():
    # level 1: Adams operations act as the identity on a d-dimensional class
    psi = adams_series(IntegerModel(4), 8, 1, ALL_ORDERS)
    for n in range(1, 9):
        assert psi.coeffs[n] == 4


def test_equivariant_power_classfunction():
    model = SymbolicModel("x")
    for n in range(5):
        chi = equivariant_power_classfunction(model, n, 2, P2)
        for c, v in class_items(chi):
            assert v == psi_of_class(model, c)
        assert augmentation(chi) == sigma(model, n, 2, P2)
    ones = equivariant_power_classfunction(IntegerModel(1), 3, 1, ALL_ORDERS)
    assert all(v == 1 for v in ones.values)


def test_orbifold_genus():
    chi = equivariant_power_classfunction(IntegerModel(2), 3, 1, ALL_ORDERS)
    assert augmentation(chi) == comb(4, 3)
    from orbigenus.classfun import ClassFunction

    triv_pair = indicator(
        enumerate_classes(2, 2, P2)[
            [c.entries and c.entries[0][0].is_trivial() for c in enumerate_classes(2, 2, P2)].index(True)
        ]
    )
    assert augmentation(triv_pair) == Fraction(1, 2)
    const = ClassFunction.one(1, ALL_ORDERS, 1) * Fraction(7)
    assert augmentation(const) == 7


@pytest.mark.parametrize("d", [0, 1, 2, 3, 6])
def test_todd_series_closed_form(d):
    assert todd_orbifold_series(d, 12) == geometric_power_series(d, 12)


def test_todd_frozen_coefficients():
    assert todd_orbifold_series(3, 4) == TruncatedSeries([1, 3, 6, 10, 15], prec=4)
    assert todd_orbifold_series(1, 5).coeffs == (1,) * 6
    assert todd_orbifold_series(0, 5) == TruncatedSeries.one(5)
    with pytest.raises(ValueError):
        todd_orbifold_series(-1, 4)


def test_geometric_power_series_gates_its_dimension_first():
    with pytest.raises(ValueError, match="^dimension must be nonnegative$"):
        geometric_power_series(-1, 3)
    with pytest.raises(ValueError, match="^dimension must be nonnegative$"):
        geometric_power_series(-1, -1)
    with pytest.raises(TypeError, match="^dimension must be an int, got 1.5$"):
        geometric_power_series(1.5, -1)


def test_two_family_exponential_property():
    """Power operations of a sum: sigma_n(x+y) = sum sigma_i(x) sigma_j(y)."""

    class SumModel:
        def __init__(self):
            self.x = SymbolicModel("x")
            self.y = SymbolicModel("y")

        def psi(self, orbit):
            return self.x.psi(orbit) + self.y.psi(orbit)

    N = 5
    both = symmetric_power_series(SumModel(), N, 2, P2)
    sx = symmetric_power_series(SymbolicModel("x"), N, 2, P2)
    sy = symmetric_power_series(SymbolicModel("y"), N, 2, P2)
    assert both == sx * sy
    # the same on the class walk's series, which no exp builds
    walk = [verify_product_formula(m, N, 2, P2).lhs for m in (SumModel(), SymbolicModel("x"), SymbolicModel("y"))]
    assert walk[0] == walk[1] * walk[2] == both


ZETA = ClassFunction.one(1, ALL_ORDERS, 2)
# every entry point that takes a rank, size, degree, precision, dimension or guard, with that argument x
SIZED_CALLS = {
    "Mode p": lambda x: Mode(x),
    "TransitiveOrbit h": lambda x: TransitiveOrbit(x, ((1,),)),
    "enumerate_orbits h": lambda x: enumerate_orbits(x, 1),
    "enumerate_orbits n": lambda x: enumerate_orbits(1, x),
    "canonicalize h": lambda x: canonicalize(x, [[1]]),
    "enumerate_classes h": lambda x: enumerate_classes(x, 1, P2),
    "enumerate_classes l": lambda x: enumerate_classes(1, x, P2),
    "brute_force_classes h": lambda x: brute_force_classes(x, 1),
    "brute_force_classes l": lambda x: brute_force_classes(1, x),
    "brute_force_classes guard": lambda x: brute_force_classes(1, 1, guard=x),
    "ClassFunction h": lambda x: ClassFunction.one(x, P2, 2),
    "ClassFunction l": lambda x: ClassFunction.one(1, P2, x),
    "sigma n": lambda x: sigma(IntegerModel(1), x, 1),
    "sigma h": lambda x: sigma(IntegerModel(1), 2, x),
    "symmetric_power_series prec": lambda x: symmetric_power_series(IntegerModel(1), x, 1),
    "hecke_log_series h": lambda x: hecke_log_series(IntegerModel(1), 2, x),
    "hecke_operator n": lambda x: hecke_operator(IntegerModel(1), x, 1),
    "verify_product_formula prec": lambda x: verify_product_formula(IntegerModel(1), x, 1),
    "restrict_young j": lambda x: restrict_young(ZETA, x, 1),
    "restrict_young k": lambda x: restrict_young(ZETA, 1, x),
    "thm_d_induction_oracle guard": lambda x: thm_d_induction_oracle(ZETA, ZETA, guard=x),
    "TruncatedSeries prec": lambda x: TruncatedSeries([1], prec=x),
    "todd_orbifold_series d": lambda x: todd_orbifold_series(x, 2),
    "todd_orbifold_series prec": lambda x: todd_orbifold_series(1, x),
    "geometric_power_series d": lambda x: geometric_power_series(x, 2),
    "geometric_power_series prec": lambda x: geometric_power_series(1, x),
    "IntegerModel d": lambda x: IntegerModel(x),
}


@pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", SIZED_CALLS.values(), ids=SIZED_CALLS.keys())
def test_a_non_int_size_raises_type_error_before_any_cache(call, bad):
    # 2.0 and True hash like 2 and 1, so a cache keyed on one would serve an int's entry
    caches = (_enumerate_classes_cached, _young_splits, _young_unions)
    before = [cache.cache_info() for cache in caches]
    with pytest.raises(TypeError, match="must be an int, got"):
        call(bad)
    assert [cache.cache_info().currsize for cache in caches] == [info.currsize for info in before]
    assert [cache.cache_info().misses for cache in caches[1:]] == [info.misses for info in before[1:]]


MODE_CALLS = {
    "enumerate_orbits": lambda m: enumerate_orbits(2, 4, m),
    "hecke_operator": lambda m: hecke_operator(IntegerModel(1), 4, 2, m),
    "hecke_log_series": lambda m: hecke_log_series(IntegerModel(1), 4, 2, m),
    "symmetric_power_series": lambda m: symmetric_power_series(IntegerModel(1), 4, 2, m),
    "verify_product_formula": lambda m: verify_product_formula(IntegerModel(1), 3, 2, m),
    "sigma": lambda m: sigma(IntegerModel(1), 3, 2, m),
    "lambda_series": lambda m: lambda_series(IntegerModel(1), 3, 2, m),
    "adams_series": lambda m: adams_series(IntegerModel(1), 3, 2, m),
    "equivariant_power_classfunction": lambda m: equivariant_power_classfunction(IntegerModel(1), 3, 2, m),
    "enumerate_classes": lambda m: enumerate_classes(2, 3, m),
    "hom_count": lambda m: hom_count(2, 3, m),
    "brute_force_classes": lambda m: brute_force_classes(2, 3, m),
    "orbit_type_of_tuple": lambda m: orbit_type_of_tuple([Permutation((1, 0))], m),
    "Permutation.order_admissible": lambda m: Permutation((1, 0)).order_admissible(m),
    "OrbitTypeMultiset": lambda m: OrbitTypeMultiset(1, m, ()),
    "ClassFunction": lambda m: ClassFunction.one(1, m, 2),
}


@pytest.mark.parametrize("bad", [2, "2", None, [2]], ids=["int", "str", "None", "list"])
@pytest.mark.parametrize("call", MODE_CALLS.values(), ids=MODE_CALLS.keys())
def test_a_mode_that_is_not_a_mode_raises_type_error_before_any_cache(call, bad):
    # once an AttributeError from the first mode method read, or lru_cache's "unhashable type"
    caches = (_enumerate_classes_cached, _young_splits, _young_unions)
    before = [cache.cache_info() for cache in caches]
    with pytest.raises(TypeError, match="^mode must be a Mode, got "):
        call(bad)
    assert [cache.cache_info() for cache in caches] == before
