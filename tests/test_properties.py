"""Property tests: the canonical order does not depend on how objects were built,
canonicalize lands in the orbit enumeration and agrees with reduce, the
orbits of coprime sizes m and n multiply onto those of size m n, and so do the
Hecke sums of a psi that is a product over primary parts, the commuting
h-tuples count the classes one level down, monomials
have one normal form, polynomial arithmetic, comparisons, readers and sums
match a plain Fraction-coefficient reference, the three value rings keep the
ring laws with scalars on either side, the symmetric-power series, the exp of the Hecke sums,
equals the class sum, the Adams and geometric series equal their routes
through series inversion, the integer-numerator sums (the summing helper, the
Hecke operators, sigma and the Young sums) equal plain Fraction sums, the
split choices of a key shape equal their product-and-filter, the pairing
equals the augmentation of the product, the
JSON writer matches json.dumps (a polynomial's text that of a dict per
term), series inversion, exp and log undo each other, log agrees with the
integrated logarithmic derivative, sorted_terms keeps the monomial order,
no output of a polynomial depends on the order its symbols were interned
in, rational strings round-trip, and the class of a commuting tuple is
invariant under conjugation."""
import json
import operator
from fractions import Fraction
from random import Random
from itertools import product
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbigenus.classes import (
    OrbitTypeMultiset,
    Permutation,
    _enumerate_classes_cached,
    _merge_keys,
    _orbit_pool,
    _split_choices,
    centralizer_order,
    class_representative,
    class_size,
    enumerate_classes,
    hom_count,
    orbit_type_of_tuple,
)
from orbigenus.classfun import (
    ClassFunction,
    augmentation,
    induce_young,
    inner_product,
    product_inner_product,
    restrict_young,
)
from orbigenus.genus import (
    IntegerModel, SeriesComparison, SymbolicModel, TableModel, adams_series, geometric_power_series, hecke_operator,
    lambda_series, sigma, symmetric_power_series,
)
from orbigenus.orbits import ALL_ORDERS, Mode, TransitiveOrbit, canonicalize, enumerate_orbits
from orbigenus.psipoly import _IDS, PsiPolynomial, PsiSymbol, _ExactSum
from orbigenus.serialize import (
    comparison_to_json, dumps, fraction_from_str, fraction_to_str, orbit_to_json, value_to_json,
)
from orbigenus.series import TruncatedSeries

from helpers import (
    class_of_key, coefficient_of, compose, identity, inverse, key_of, keyed_splits, primary_products, reference_add,
    reference_mul, reference_of, reference_terms, sub_multisets_reference, value_json_reference,
)

P2 = Mode(2)
P3 = Mode(3)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

POOL = [t for n in (1, 2, 4) for t in enumerate_orbits(2, n, P2)]
SYMBOLS = [PsiSymbol(family, t) for family in ("x", "y") for t in POOL[:4]]


@st.composite
def orbit(draw, max_h=3, max_index=64):
    """canonicalize of up to h random generators plus a diagonal that forces finite index.

    The diagonal's product, a multiple of the index, is at most ``max_index``.
    """
    h = draw(st.integers(1, max_h))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=h, max_size=h), max_size=h))
    for i in range(h):
        d = min(draw(st.integers(1, 4)), max_index)
        max_index //= d
        rows.append([d if i == j else 0 for j in range(h)])
    return canonicalize(h, draw(st.permutations(rows)))


@SETTINGS
@given(st.lists(orbit(), max_size=12))
def test_orbit_order_is_the_sort_key_order(orbits):
    assert sorted(orbits) == sorted(orbits, key=lambda t: t.sort_key)


@SETTINGS
@given(orbit(max_h=4, max_index=16))
def test_canonicalize_lands_in_the_enumeration(t):
    # enumeration builds its matrices from shared rows; canonicalize reduces
    # generators by gcd steps, sharing nothing with it
    assert t in enumerate_orbits(t.h, t.size)


@st.composite
def coprime_sizes(draw):
    """h <= 4 and coprime m, n with m n <= 24, or <= 12 at h = 4."""
    h = draw(st.integers(1, 4))
    top = 24 if h <= 3 else 12
    m = draw(st.integers(1, top))
    n = draw(st.sampled_from([n for n in range(1, top // m + 1) if gcd(m, n) == 1]))
    return h, m, n


@settings(SETTINGS, max_examples=30)
@given(coprime_sizes())
@example((2, 4, 9))
@example((3, 4, 3))
@example((3, 8, 3))
@example((4, 4, 3))
def test_coprime_orbits_multiply_by_the_primary_decomposition(case):
    # one orbit of size m n per pair of orbits of sizes m and n: none missed, none twice
    h, m, n = case
    assert sorted(primary_products(h, m, n)) == list(enumerate_orbits(h, m * n))


@pytest.mark.parametrize("h,m,n", [(2, 4, 3), (3, 8, 5), (4, 4, 3), (2, 8, 9)])
def test_all_orders_hecke_sums_are_products_of_the_p_typical_ones(h, m, n):
    # psi a product over primary parts, from a 2- or 3-power table and a table prime to it: then
    # (m n) T_mn over all orders is (m T_m in Mode(p)) (n T_n in Mode(q)), each an _ExactSum of Fractions
    p, q = (next(r for r in (2, 3, 5) if k % r == 0) for k in (m, n))
    rng = Random(f"{h} {m} {n}")
    draws = [{t: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for t in enumerate_orbits(h, k, Mode(r))}
             for k, r in ((m, p), (n, q))]
    products = {t: a * b for t, (a, b) in zip(primary_products(h, m, n), product(*(d.values() for d in draws)))}
    whole = m * n * hecke_operator(TableModel(products), m * n, h, ALL_ORDERS)
    parts = (k * hecke_operator(TableModel(d), k, h, Mode(r)) for d, k, r in zip(draws, (m, n), (p, q)))
    assert type(whole) is Fraction and whole == prod(parts)


@settings(SETTINGS, max_examples=30)
@given(st.integers(2, 4), st.integers(0, 6))
def test_commuting_tuples_count_the_classes_one_level_down(h, l):
    # Burnside: the commuting h-tuples of Sigma_l are l! times the classes of commuting (h-1)-tuples;
    # the classes count Sigma_l-orbits of commuting (h-1)-tuples, each weighted by its centralizer
    classes_below = len(enumerate_classes(h - 1, l))
    assert sigma(IntegerModel(1), l, h) == classes_below
    assert hom_count(h, l) == factorial(l) * classes_below


@SETTINGS
@given(orbit(max_h=4, max_index=32), st.data())
def test_reduce_lands_in_the_box_and_stays_in_the_coset(t, data):
    v = data.draw(st.lists(st.integers(-40, 40), min_size=t.h, max_size=t.h))
    w = t.reduce(v)
    assert all(0 <= w_i < d_i for w_i, d_i in zip(w, t.diagonal))
    # v - w lies in the lattice, so adding it to the basis changes nothing
    assert canonicalize(t.h, list(t.rows) + [[a - b for a, b in zip(v, w)]]) == t


@SETTINGS
@given(
    st.lists(st.tuples(st.sampled_from(POOL), st.integers(1, 3)), max_size=10),
    st.randoms(use_true_random=False),
)
def test_from_pairs_ignores_pair_order(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    a = OrbitTypeMultiset.from_pairs(2, P2, pairs)
    b = OrbitTypeMultiset.from_pairs(2, P2, shuffled)
    assert a == b
    assert a.degree == sum(t.size * m for t, m in pairs)


monomial = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), st.integers(1, 3)), max_size=3, unique_by=lambda se: se[0]
)
coefficient = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
linear_polynomial = st.lists(
    st.tuples(st.lists(st.tuples(st.sampled_from(SYMBOLS[:3]), st.just(1)), max_size=1), coefficient),
    max_size=3,
).map(PsiPolynomial)


@SETTINGS
@given(st.lists(st.tuples(monomial, coefficient), max_size=8), st.randoms(use_true_random=False))
def test_psipolynomial_ignores_term_order(terms, rng):
    shuffled = []
    for mono, coeff in terms:
        mono = list(mono)
        rng.shuffle(mono)
        shuffled.append((tuple(mono), coeff))
    rng.shuffle(shuffled)
    a = PsiPolynomial([(tuple(m), c) for m, c in terms])
    b = PsiPolynomial(shuffled)
    assert str(a) == str(b)
    assert a.sorted_terms() == b.sorted_terms()


# Two pairs of families no other test uses, interned when this module loads:
# A and B in canonical symbol order, C and D in reverse.  C, D sort as A, B
# do, and no other character of str() or the JSON is an upper-case C or D,
# so renaming C, D to A, B must map every output of one pair onto the other.
FORWARD, REVERSED = ("A", "B"), ("C", "D")
for _family in FORWARD:
    for _orbit in POOL:
        PsiPolynomial.symbol(PsiSymbol(_family, _orbit))
for _family in reversed(REVERSED):
    for _orbit in reversed(POOL):
        PsiPolynomial.symbol(PsiSymbol(_family, _orbit))
RENAME = str.maketrans("CD", "AB")

renamable_terms = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, len(POOL) - 1), st.integers(1, 3)),
                 max_size=4),
        coefficient,
    ),
    max_size=8,
)


@SETTINGS
@given(renamable_terms)
def test_interning_order_is_invisible(terms):
    def ids(families):
        return [_IDS[PsiSymbol(f, t)] for f in families for t in POOL]

    assert ids(FORWARD) == sorted(ids(FORWARD))
    assert ids(REVERSED) == sorted(ids(REVERSED), reverse=True)

    def build(families, terms):
        return PsiPolynomial(
            [(tuple((PsiSymbol(families[f], POOL[t]), e) for f, t, e in mono), c) for mono, c in terms]
        )

    fwd, rev = build(FORWARD, terms), build(REVERSED, terms)
    rev_again = build(REVERSED, [(mono[::-1], c) for mono, c in terms[::-1]])
    assert rev == rev_again and hash(rev) == hash(rev_again)
    assert (rev == rev * rev) == (fwd == fwd * fwd)
    for a, b in ((fwd, rev), (fwd * fwd + 1, rev * rev_again + 1)):
        assert str(b).translate(RENAME) == str(a)
        assert [
            (tuple((PsiSymbol(s.family.translate(RENAME), s.orbit), e) for s, e in mono), c)
            for mono, c in b.sorted_terms()
        ] == a.sorted_terms()
        assert dumps(value_to_json(b)).translate(RENAME) == dumps(value_to_json(a))


@st.composite
def polynomial(draw):
    """Up to 10 terms of low degree, so that degrees tie, in symbols of two families.

    The orbits are some of one rank and index 4, which share a size and often
    a diagonal, and some random ones of rank <= 3.
    """
    h = draw(st.integers(1, 3))
    orbits = draw(st.lists(st.sampled_from(enumerate_orbits(h, 4)), min_size=1, max_size=3))
    orbits += draw(st.lists(orbit(max_h=3, max_index=16), min_size=1, max_size=3))
    symbol = st.builds(PsiSymbol, st.sampled_from(("x", "y")), st.sampled_from(orbits))
    mono = st.lists(st.tuples(symbol, st.integers(1, 2)), max_size=2, unique_by=lambda se: se[0])
    return PsiPolynomial(draw(st.lists(st.tuples(mono, coefficient), min_size=2, max_size=10)))


@SETTINGS
@given(polynomial())
def test_sorted_terms_orders_by_degree_then_monomial(p):
    # the reference compares monomials symbol by symbol: family, then orbit sort key, then exponent
    terms = p.sorted_terms()
    assert terms == sorted(
        terms, key=lambda mc: (sum(e for _, e in mc[0]), [(s.family, s.orbit.sort_key, e) for s, e in mc[0]])
    )


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(SYMBOLS[:3]), st.integers(1, 3)), max_size=6),
       coefficient)
def test_repeated_symbols_merge_into_one_monomial(pairs, coeff):
    expected = PsiPolynomial.constant(coeff)
    for sym, e in pairs:
        expected = expected * PsiPolynomial.symbol(sym) ** e
    assert PsiPolynomial([(tuple(pairs), coeff)]) == expected
    if coeff:
        assert coefficient_of(expected, pairs) == coeff


# coefficients whose denominators share factors, so sums and products reduce
reference_coefficient = st.integers(-30, 30) | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 36))
polynomial_terms = st.lists(st.tuples(monomial, reference_coefficient), max_size=5)


def _in_lowest_terms(p):
    return isinstance(p, PsiPolynomial) and gcd(p._den, *p._terms.values()) == 1 and 0 not in p._terms.values()


@SETTINGS
@given(polynomial_terms, polynomial_terms, reference_coefficient, st.integers(0, 4))
def test_polynomial_ring_operations_match_a_fraction_reference(f_terms, g_terms, q, n):
    f, g = PsiPolynomial(f_terms), PsiPolynomial(g_terms)
    rf, rg, rq = reference_terms(f_terms), reference_terms(g_terms), reference_of(q)
    power = {frozenset(): Fraction(1)}
    for _ in range(n):
        power = reference_mul(power, rf)
    cases = [
        (f, rf),
        (f + g, reference_add(rf, rg)),
        (f - g, reference_add(rf, rg, -1)),
        (f * g, reference_mul(rf, rg)),
        (-f, reference_mul(rf, reference_of(-1))),
        (f * q, reference_mul(rf, rq)),
        (q * f, reference_mul(rf, rq)),
        (f + q, reference_add(rf, rq)),
        (q + f, reference_add(rf, rq)),
        (f - q, reference_add(rf, rq, -1)),
        (q - f, reference_add(rq, rf, -1)),
        (f ** n, power),
    ]
    for value, expected in cases:
        assert _in_lowest_terms(value)
        assert reference_of(value) == expected
        assert all(type(c) is Fraction for _, c in value.sorted_terms())


@SETTINGS
@given(polynomial_terms, polynomial_terms, reference_coefficient)
def test_polynomial_comparisons_and_readers_match_a_fraction_reference(f_terms, g_terms, q):
    f, g = PsiPolynomial(f_terms), PsiPolynomial(g_terms)
    rf, rg = reference_terms(f_terms), reference_terms(g_terms)
    assert (f == g) == (rf == rg)
    assert (f == q) == (rf == reference_of(q))
    # equal values built along different paths are equal and hash alike
    for a, b in ((f * g, g * f), ((f + g) - g, f), (f * q + g * q, (f + g) * q)):
        assert a == b and hash(a) == hash(b)
    # a constant equals and hashes as its scalar, however it was built
    for c in (PsiPolynomial.constant(q), f - f + q, (f + q) - f):
        assert c == q and c == Fraction(q) and hash(c) == hash(q) == hash(Fraction(q))
        assert c.constant_value() == q and type(c.constant_value()) is Fraction
    if all(m == frozenset() for m in rf):
        assert f.is_constant and f.constant_value() == rf.get(frozenset(), 0)
    else:
        assert not f.is_constant
        with pytest.raises(ValueError):
            f.constant_value()


# the scalars every ring takes in either position: ints, Fractions and polynomials
ring_scalar = st.integers(-6, 6) | coefficient | linear_polynomial
# every (h, mode, l) drawn below has 3 or 4 classes
CLASS_PARAMS = [(1, ALL_ORDERS, 3), (2, ALL_ORDERS, 2), (2, P2, 2)]


@st.composite
def ring_elements(draw):
    """Three elements of one ring: polynomials, or series or class functions over Fractions and polynomials."""
    ring = draw(st.sampled_from(["polynomial", "series", "class function"]))
    if ring == "polynomial":
        return draw(st.lists(linear_polynomial, min_size=3, max_size=3))
    values = st.lists(coefficient | linear_polynomial, min_size=1, max_size=4)
    if ring == "series":
        prec = draw(st.integers(0, 3))
        return [TruncatedSeries(draw(values), prec) for _ in range(3)]
    h, mode, l = draw(st.sampled_from(CLASS_PARAMS))
    size = len(enumerate_classes(h, l, mode))
    return [ClassFunction(h, mode, l, (draw(values) * size)[:size]) for _ in range(3)]


@SETTINGS
@given(ring_elements(), ring_scalar, ring_scalar, st.integers(1, 4))
def test_the_three_value_rings_keep_the_ring_laws_with_scalars_in_either_position(elements, s, t, n):
    a, b, c = elements
    assert a - b == a + (-b) and a - s == a + (-s)
    assert s - a == -(a - s)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    assert s * (a + b) == s * a + s * b and (a + b) * s == a * s + b * s
    assert (s + t) * a == s * a + t * a and a * (s - t) == a * s - a * t
    power = a
    for _ in range(n - 1):
        power = power * a
    assert a ** n == power and a ** 0 == a._one() and a._one() * a == a
    foreign = ["x", None, 0.5, True]
    if isinstance(a, TruncatedSeries):
        foreign.append(ClassFunction.one(*CLASS_PARAMS[0]))
    elif isinstance(a, ClassFunction):
        foreign.append(TruncatedSeries.one(2))
    for x in foreign:
        for op in (operator.add, operator.sub, operator.mul):
            for args in ((a, x), (x, a)):
                with pytest.raises(TypeError):
                    op(*args)


@SETTINGS
@given(
    st.lists(st.tuples(reference_coefficient | polynomial_terms.map(PsiPolynomial), st.integers(-12, 12)),
             max_size=8),
    st.integers(1, 12),
    st.booleans(),
)
def test_exact_sum_of_polynomials_and_scalars_matches_a_fraction_reference(terms, den, cancel):
    if cancel:  # the terms of the first half again, negated: their part of the sum is 0
        terms += [(-x, k) for x, k in terms[: len(terms) // 2]]
    acc, expected = _ExactSum(), {}
    for x, k in terms:
        acc.add(x, k)
        expected = reference_add(expected, reference_mul(reference_of(x), reference_of(Fraction(k, den))))
    total = acc.value(den)
    if any(isinstance(x, PsiPolynomial) for x, _ in terms):
        assert _in_lowest_terms(total)
    else:
        assert type(total) is Fraction
    assert reference_of(total) == expected


@st.composite
def table_model(draw):
    """A small (h, mode, prec) grid with a random exact psi value for each orbit."""
    h = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([ALL_ORDERS, P2, P3]))
    prec = draw(st.integers(0, 5))
    orbits = [t for s in mode.sizes_up_to(prec) for t in enumerate_orbits(h, s, mode)]
    values = draw(st.lists(coefficient, min_size=len(orbits), max_size=len(orbits)))
    return TableModel(dict(zip(orbits, values))), h, mode, prec


@SETTINGS
@given(table_model())
def test_hecke_exp_equals_class_sum(case):
    model, h, mode, prec = case
    S = symmetric_power_series(model, prec, h, mode)
    assert list(S.coeffs) == [sigma(model, n, h, mode) for n in range(prec + 1)]


@SETTINGS
@given(table_model())
@example((SymbolicModel(), 2, P2, 6))
def test_adams_and_the_geometric_series_match_their_inversion_routes(case):
    # the routes through invert and log that lambda_series, adams_series and
    # geometric_power_series no longer take; the symbolic example runs them on polynomials
    model, h, mode, prec = case
    lam = lambda_series(model, prec, h, mode)
    assert adams_series(model, prec, h, mode) == -(lam.negate_t().log().t_ddt())
    assert lam.negate_t().invert() == symmetric_power_series(model, prec, h, mode)
    for d in range(7):
        assert geometric_power_series(d, prec) == TruncatedSeries([1, -1], prec=prec).invert() ** d


def _fold(values):
    """The plain left-to-right Fraction sum that the integer-numerator sums must equal."""
    total = Fraction(0)
    for v in values:
        total = total + v
    return total


@st.composite
def scalar_terms(draw):
    """Terms (x, k), k * x of mixed signs and denominators, and a divisor den; a list may end in
    terms that cancel its sum to 0 or reduce the sum over den to denominator 1."""
    numerator = st.integers(-30, 30) | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
    terms = draw(st.lists(st.tuples(numerator, st.integers(-12, 12)), max_size=12))
    den = draw(st.integers(1, 12))
    total = _fold(Fraction(x) * k / den for x, k in terms)
    ending = draw(st.sampled_from(["none", "cancel", "integer"]))
    if ending == "cancel":
        terms += [(-x, k) for x, k in terms]
    elif ending == "integer":
        terms.append((Fraction(-(total.numerator % total.denominator) * den, total.denominator), 1))
    return draw(st.permutations(terms)), den


@SETTINGS
@given(scalar_terms())
def test_exact_sum_equals_a_fraction_fold(case):
    terms, den = case
    acc = _ExactSum()
    for x, k in terms:
        acc.add(x, k)
    total = acc.value(den)
    assert type(total) is Fraction
    assert total == _fold(Fraction(x) * k / den for x, k in terms)


@SETTINGS
@given(table_model())
def test_hecke_operator_equals_a_fraction_fold(case):
    model, h, mode, prec = case
    for n in mode.sizes_up_to(prec):
        T = hecke_operator(model, n, h, mode)
        assert type(T) is Fraction
        assert T == _fold(model.psi(t) for t in enumerate_orbits(h, n, mode)) / n


@SETTINGS
@given(table_model())
def test_sigma_equals_a_fraction_fold(case):
    model, h, mode, prec = case
    s = sigma(model, prec, h, mode)
    assert type(s) is Fraction
    assert s == _fold(
        prod((model.psi(t) ** m for t, m in c.entries), start=Fraction(1)) / centralizer_order(c)
        for c in enumerate_classes(h, prec, mode)
    )


@st.composite
def class_params(draw, max_l=8):
    """(h, mode, l) with h <= 3, l <= max_l, and a mode of all orders, 2-power or 3-power."""
    return (
        draw(st.integers(1, 3)),
        draw(st.sampled_from([ALL_ORDERS, P2, P3])),
        draw(st.integers(0, max_l)),
    )


@st.composite
def a_class(draw, max_l=8):
    h, mode, l = draw(class_params(max_l))
    return draw(st.sampled_from(enumerate_classes(h, l, mode)))


@SETTINGS
@given(a_class(), st.data())
def test_keyed_splits_equal_product_and_filter(m, data):
    degree = data.draw(st.integers(-1, m.degree + 1))
    splits = keyed_splits(m, degree)
    assert splits == list(sub_multisets_reference(m, degree))
    assert all(type(ways) is int for _, _, ways in splits)


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), max_size=4).map(tuple), st.data())
def test_split_choices_equal_product_and_filter(shape, data):
    top = sum(s * m for s, m in shape)
    degree = data.draw(st.integers(-1, top + 1))
    choices = [cs for cs in product(*(range(m + 1) for _, m in shape))
               if sum(s * c for (s, _), c in zip(shape, cs)) == degree]
    splits = _split_choices(shape, degree)
    assert [cs for cs, _ in splits] == choices
    assert all(ways == prod(comb(m, c) for (_, m), c in zip(shape, cs)) for cs, ways in splits)
    # every sub-multiset is taken at exactly one degree
    total = sum(ways for d in range(top + 1) for _, ways in _split_choices(shape, d))
    assert total == 2 ** sum(m for _, m in shape)


@SETTINGS
@given(class_params(), st.data())
def test_keyed_merge_equals_the_union(params, data):
    h, mode, l = params
    j = data.draw(st.integers(0, l))
    a = data.draw(st.sampled_from(enumerate_classes(h, j, mode)))
    b = data.draw(st.sampled_from(enumerate_classes(h, l - j, mode)))
    merged = _merge_keys(key_of(a), key_of(b))
    table = _enumerate_classes_cached(h, l, mode)
    union = OrbitTypeMultiset.from_pairs(h, mode, a.entries + b.entries)
    assert class_of_key(h, mode, _orbit_pool(h, l, mode), merged) == union
    assert table.classes[table.positions[merged]] == union


@SETTINGS
@given(class_params())
def test_class_table_round_trips_keys_in_canonical_order(params):
    h, mode, l = params
    table = _enumerate_classes_cached(h, l, mode)
    pool = _orbit_pool(h, l, mode)
    assert table.classes == enumerate_classes(h, l, mode)
    assert pool == sorted(pool)
    canonical = sorted(table.classes, key=lambda c: [(o.sort_key, m) for o, m in c.entries])
    assert list(table.classes) == canonical
    keys = list(table.positions)
    assert keys == sorted(keys) and len(keys) == len(table.classes)
    assert table.sizes == tuple(orbit.size for orbit in pool)
    for n, (cls, key) in enumerate(zip(table.classes, keys)):
        assert class_of_key(h, mode, pool, key) == cls
        assert table.positions[key] == n
        assert table.counts[n] == class_size(cls)


@st.composite
def young_case(draw, values=coefficient):
    """chi, xi and zeta of degrees j, k and j + k <= 6 at h <= 2, with random values drawn from values."""
    h = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([ALL_ORDERS, P2, P3]))
    j = draw(st.integers(0, 3))
    k = draw(st.integers(0, 6 - j))

    def class_function(l):
        n = len(enumerate_classes(h, l, mode))
        return ClassFunction(h, mode, l, draw(st.lists(values, min_size=n, max_size=n)))

    return class_function(j), class_function(k), class_function(j + k)


@SETTINGS
@given(young_case())
def test_augmentation_equals_a_fraction_fold(case):
    _, _, zeta = case
    aug = augmentation(zeta)
    assert type(aug) is Fraction
    assert aug == _fold(v / centralizer_order(c) for c, v in zip(zeta.classes, zeta.values))


@SETTINGS
@given(young_case())
def test_induce_young_equals_a_fraction_fold(case):
    chi, xi, _ = case
    induced = induce_young(chi, xi)
    assert all(type(v) is Fraction for v in induced.values)
    assert list(induced.values) == [
        _fold(ways * chi.value(a) * xi.value(b) for a, b, ways in keyed_splits(m, chi.l))
        for m in induced.classes
    ]


@SETTINGS
@given(young_case(coefficient | linear_polynomial))
def test_inner_product_equals_the_augmentation_of_the_product(case):
    # in value and in type: a polynomial once some class holds one, else a Fraction
    chi, xi, zeta = case
    for a, b in ((chi, chi), (induce_young(chi, xi), zeta)):
        pairing, reference = inner_product(a, b), augmentation(a * b)
        assert (type(pairing), pairing) == (type(reference), reference)


@SETTINGS
@given(young_case())
def test_product_inner_product_equals_a_fraction_fold(case):
    chi, xi, zeta = case
    z = centralizer_order
    table = restrict_young(zeta, chi.l, xi.l)
    pairing = product_inner_product(chi, xi, table)
    assert type(pairing) is Fraction
    assert pairing == _fold(
        va * vb * table[ia][ib] / (z(a) * z(b))
        for ia, (a, va) in enumerate(zip(chi.classes, chi.values))
        for ib, (b, vb) in enumerate(zip(xi.classes, xi.values))
    )


# JSON values as the writer takes them: every scalar kind, strings with
# control and non-ASCII characters, ints past 64 bits, and orbits, whose
# rendered text the writer reuses
json_scalar = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.text()
    | st.text(st.characters(max_codepoint=0x7F), max_size=4)
    | st.sampled_from(POOL)
)
json_value = st.recursive(
    json_scalar,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=40,
)


def plain(obj):
    """obj with each orbit replaced by its orbit_to_json object: what json.dumps takes."""
    if isinstance(obj, TransitiveOrbit):
        return orbit_to_json(obj)
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    if type(obj) is dict:
        return {k: plain(v) for k, v in obj.items()}
    return obj


def lazy(obj, generators):
    """obj with each list replaced by a generator, or else by a tuple."""
    if isinstance(obj, list):
        items = [lazy(x, generators) for x in obj]
        return (x for x in items) if generators else tuple(items)
    if type(obj) is dict:
        return {k: lazy(v, generators) for k, v in obj.items()}
    return obj


@SETTINGS
@given(json_value, st.booleans())
def test_writer_matches_json_dumps(obj, generators):
    expected = json.dumps(plain(obj), indent=2)
    assert dumps(obj) == expected
    assert dumps(lazy(obj, generators)) == expected


@SETTINGS
@given(st.integers(1, 200))
def test_writer_matches_json_dumps_deeply_nested(depth):
    obj = "leaf"
    for i in range(depth):
        obj = [obj, i] if i % 2 else {"k": obj, "": []}
    assert dumps(obj) == json.dumps(obj, indent=2)


# polynomials for the writer: zero, constants, and terms in two families on the same orbits,
# so orbits repeat, with exponents up to 3 and negative and non-integer coefficients
json_polynomial = (st.just(PsiPolynomial()) | reference_coefficient.map(PsiPolynomial.constant)
                   | polynomial_terms.map(PsiPolynomial) | polynomial())


@SETTINGS
@given(json_polynomial)
def test_polynomial_json_matches_a_dict_per_term_reference(p):
    for depth in range(4):
        for shape in ("list", "dict", "both"):
            obj, ref = value_to_json(p), value_json_reference(p)
            for i in range(depth):
                if shape == "list" or shape == "both" and i % 2:
                    obj, ref = [i, obj], [i, ref]
                else:
                    obj, ref = {"value": obj, "n": i}, {"value": ref, "n": i}
            assert dumps(obj) == json.dumps(ref, indent=2)
    if p:  # as the difference of a failing comparison
        one = PsiPolynomial.constant(1)
        lhs, rhs = TruncatedSeries([one, p + one], prec=1), TruncatedSeries([one, one], prec=1)
        report = SeriesComparison.compare(2, P2, lhs, rhs)
        expected = {
            "h": 2, "p": 2, "precision": 1, "equal": False,
            "lhs": [value_json_reference(c) for c in lhs.coeffs],
            "rhs": [value_json_reference(c) for c in rhs.coeffs],
            "first_mismatch": 1, "difference": value_json_reference(p),
        }
        assert dumps(comparison_to_json(report)) == json.dumps(expected, indent=2)


@SETTINGS
@given(st.fractions(max_denominator=10**12) | st.fractions())
def test_fraction_strings_round_trip(q):
    assert fraction_from_str(fraction_to_str(q)) == q


@st.composite
def series(draw, constant):
    prec = draw(st.integers(0, 7))
    coeffs = draw(st.lists(coefficient, min_size=prec + 1, max_size=prec + 1))
    if constant is not None:
        coeffs[0] = constant
    elif coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return TruncatedSeries(coeffs, prec=prec)


@SETTINGS
@given(series(None), series(Fraction(0)), series(Fraction(1)))
def test_invert_exp_and_log_undo_each_other(unit, a, b):
    one = TruncatedSeries.one(unit.prec)
    assert unit * unit.invert() == one
    assert unit.invert().invert() == unit
    assert a.exp().log() == a
    assert b.log().exp() == b
    assert (a + a).exp() == a.exp() * a.exp()


# degree <= 1 in three symbols, so that series of them stay cheap to invert
@st.composite
def unit_series(draw):
    """Constant term one, as a Fraction or a polynomial; the other coefficients all
    Fractions, or Fractions and polynomials mixed."""
    prec = draw(st.integers(0, 6))
    coeff = draw(st.sampled_from([coefficient, coefficient | linear_polynomial]))
    one = draw(st.sampled_from([Fraction(1), PsiPolynomial.constant(1)]))
    return TruncatedSeries([one] + draw(st.lists(coeff, min_size=prec, max_size=prec)), prec=prec)


@SETTINGS
@given(unit_series())
def test_log_is_the_integrated_logarithmic_derivative(f):
    # log runs the shared recurrence; this is the formula it replaced, through invert and *
    q = f.t_ddt() * f.invert()
    expected = [Fraction(0)] + [Fraction(1, n) * q.coeffs[n] for n in range(1, f.prec + 1)]
    assert f.log() == TruncatedSeries(expected, prec=f.prec)


@SETTINGS
@given(
    st.sampled_from([(h, l, mode) for h in (1, 2, 3) for l in range(1, 6) for mode in (ALL_ORDERS, P2)]),
    st.data(),
)
def test_orbit_type_of_tuple_is_invariant_under_conjugation(grid, data):
    h, l, mode = grid
    cls = data.draw(st.sampled_from(enumerate_classes(h, l, mode)))
    g = Permutation(tuple(data.draw(st.permutations(range(l)))))
    g_inv = inverse(g)
    rep = class_representative(cls)
    conjugated = [compose(compose(g, a), g_inv) for a in rep]
    assert orbit_type_of_tuple(conjugated, mode) == cls
    # a tuple of powers of one permutation commutes, whoever built it
    x = Permutation(tuple(data.draw(st.permutations(range(l)))))
    exponents = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    powers = [_power(x, e) for e in exponents]
    assert orbit_type_of_tuple([compose(compose(g, a), g_inv) for a in powers]) == orbit_type_of_tuple(powers)


def _power(x, e):
    out = identity(x.degree)
    for _ in range(e):
        out = compose(out, x)
    return out
