"""Property tests: the canonical order does not depend on how objects were built,
canonicalize lands in the orbit enumeration and agrees with reduce, monomials
have one normal form, and the orbit-type product for the symmetric-power series
equals the class sum."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbigenus.classes import OrbitTypeMultiset
from orbigenus.genus import TableModel, sigma, symmetric_power_series
from orbigenus.orbits import ALL_ORDERS, Mode, canonicalize, enumerate_orbits
from orbigenus.psipoly import PsiPolynomial, PsiSymbol

P2 = Mode.p_power(2)
P3 = Mode.p_power(3)
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


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(SYMBOLS[:3]), st.integers(1, 3)), max_size=6),
       coefficient)
def test_repeated_symbols_merge_into_one_monomial(pairs, coeff):
    expected = PsiPolynomial.constant(coeff)
    for sym, e in pairs:
        expected = expected * PsiPolynomial.symbol(sym) ** e
    assert PsiPolynomial([(tuple(pairs), coeff)]) == expected
    if coeff:
        assert expected.coefficient(pairs) == coeff


@st.composite
def table_model(draw):
    """A small (h, mode, prec) grid with a random exact psi value for each orbit."""
    h = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([ALL_ORDERS, P2, P3]))
    prec = draw(st.integers(0, 5))
    orbits = [t for s in mode.sizes_up_to(prec) for t in enumerate_orbits(h, s, mode)]
    values = draw(st.lists(coefficient, min_size=len(orbits), max_size=len(orbits)))
    return TableModel(zip(orbits, values)), h, mode, prec


@SETTINGS
@given(table_model())
def test_orbit_type_product_equals_class_sum(case):
    model, h, mode, prec = case
    S = symmetric_power_series(model, prec, h, mode)
    assert list(S.coeffs) == [sigma(model, n, h, mode) for n in range(prec + 1)]
