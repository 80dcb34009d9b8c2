"""Polynomials in power-operation symbols: ring laws, coercion, evaluation."""
import ast
import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import orbigenus
from orbigenus.orbits import Mode, _Value, enumerate_orbits
from orbigenus.psipoly import _IDS, _SYMBOLS, PsiPolynomial, PsiSymbol
from orbigenus.serialize import dumps, value_to_json
from orbigenus.series import TruncatedSeries

from helpers import coefficient_of, degree, evaluate, variable, zero

P2 = Mode(2)


def symbol_pool():
    syms = [PsiSymbol("x", t) for t in enumerate_orbits(2, 1, P2)]
    syms += [PsiSymbol("x", t) for t in enumerate_orbits(2, 2, P2)]
    syms += [PsiSymbol("y", t) for t in enumerate_orbits(2, 2, P2)]
    return syms


def rand_poly(rng, pool, nterms=4):
    terms = {}
    for _ in range(nterms):
        mono = tuple(
            (s, rng.randint(1, 2)) for s in rng.sample(pool, rng.randint(0, 2))
        )
        terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return PsiPolynomial(terms)


def test_symbol_identity():
    t1, t2, t3 = enumerate_orbits(2, 2, P2)
    assert PsiSymbol("x", t1) == PsiSymbol("x", t1)
    assert PsiSymbol("x", t1) != PsiSymbol("x", t2)
    assert PsiSymbol("x", t1) != PsiSymbol("y", t1)
    # symbols have no order of their own; polynomials give them back by family, then orbit
    with pytest.raises(TypeError):
        PsiSymbol("x", t1) < PsiSymbol("x", t2)
    y1, x2, x1 = (PsiSymbol("y", t1), PsiSymbol("x", t2), PsiSymbol("x", t1))
    ((mono, _),) = PsiPolynomial({((y1, 1), (x2, 1), (x1, 1)): 1}).sorted_terms()
    assert [s for s, _ in mono] == [x1, x2, y1]


def test_symbol_str():
    (triv,) = enumerate_orbits(2, 1, P2)
    t1 = enumerate_orbits(2, 2, P2)[0]
    assert str(PsiSymbol("x", triv)) == "x"
    assert str(PsiSymbol("x", t1)) == "psi[1,0|0,2](x)"


def test_constants_compare_and_hash_like_scalars():
    three = PsiPolynomial.constant(3)
    assert three == 3
    assert three == Fraction(3)
    assert hash(three) == hash(3)
    assert zero() == 0
    assert not zero()
    half = PsiPolynomial.constant(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert half != 1


def test_mixed_scalar_arithmetic():
    x = variable("x", 2)
    assert 2 * x == x + x
    assert x * 2 == x + x
    assert (x + 1) - 1 == x
    assert 1 + x == x + 1
    assert x - x == 0
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    for op in (lambda: x + "a", lambda: x * "a"):
        with pytest.raises(TypeError):
            op()
    assert x != "a" and not x == "a"


def test_no_zero_terms_stored():
    x = variable("x", 2)
    diff = (x + 1) * (x - 1) - x * x + 1
    assert not diff
    assert diff.sorted_terms() == []
    assert (x * x - x * x).sorted_terms() == []


def test_pow():
    x = variable("x", 2)
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    # every bit pattern of n <= 9, against repeated multiplication
    t1 = enumerate_orbits(2, 2, P2)[0]
    f = x + Fraction(1, 2) * PsiPolynomial.symbol(PsiSymbol("x", t1)) - 1
    expected = PsiPolynomial.constant(1)
    for n in range(10):
        assert f ** n == expected, n
        assert str(f ** n) == str(expected), n
        expected = expected * f
    with pytest.raises(ValueError):
        x ** -1
    for bad in (1.0, False):
        with pytest.raises(TypeError):
            x ** bad


def test_monomials_have_one_normal_form():
    x = variable("x", 2)
    s = PsiSymbol("x", enumerate_orbits(2, 1, P2)[0])
    t = PsiSymbol("x", enumerate_orbits(2, 2, P2)[0])
    # a repeated symbol is merged, so a power has one monomial
    assert PsiPolynomial([(((s, 1), (s, 1)), 1)]) == x ** 2
    assert PsiPolynomial({((s, 1), (t, 2), (s, 2)): 3}) == 3 * x ** 3 * PsiPolynomial.symbol(t) ** 2
    assert coefficient_of(x ** 2, ((s, 1), (s, 1))) == 1
    assert coefficient_of(x ** 3, ((s, 2), (s, 1))) == 1
    # exponents are ints >= 1
    for e in (0, -1, 1.5):
        with pytest.raises(ValueError):
            PsiPolynomial({((s, e),): 3})
    with pytest.raises(ValueError):
        PsiPolynomial({((s, 2), (t, 0)): 1})
    # even when its coefficient is zero, so the term would not be stored
    with pytest.raises(ValueError):
        PsiPolynomial([(((s, 0),), 0)])


def test_constructor_rejects_x_to_the_zero_as_the_constant_monomial():
    s = PsiSymbol("x", enumerate_orbits(2, 1, P2)[0])
    p = 3 + 2 * PsiPolynomial.symbol(s)
    assert coefficient_of(p, ()) == 3
    assert coefficient_of(p, ((s, 1),)) == 2
    assert coefficient_of(p, ((s, 2),)) == 0
    # x^0 is not a way to spell the constant monomial
    for mono in (((s, 0),), ((s, -1), (s, 1)), ((s, 1.0),), ((s, True), (s, 0))):
        with pytest.raises(ValueError):
            PsiPolynomial({mono: 1})


def test_reading_a_polynomial_interns_nothing():
    s = PsiSymbol("x", enumerate_orbits(2, 1, P2)[0])
    t = PsiSymbol("y", enumerate_orbits(2, 2, P2)[0])
    p = 3 + 2 * PsiPolynomial.symbol(s) * PsiPolynomial.symbol(t) ** 2
    interned, ids = len(_SYMBOLS), dict(_IDS)
    assert p.sorted_terms() == [((), 3), (((s, 1), (t, 2)), 2)]
    assert str(p) == "3 + 2*x*psi[1,0|0,2](y)^2"
    assert p == p and p != 3 and hash(p) == hash(p + 0)
    assert dumps(value_to_json(p)) == dumps(value_to_json(p + 0))
    assert len(_SYMBOLS) == interned
    assert _IDS == ids


def test_ranking_ignores_symbols_interned_later():
    # the family and symbols of this test are used by no other test, so each is new here
    o = sorted(enumerate_orbits(2, 4, P2))
    b0, b2 = (PsiPolynomial.symbol(PsiSymbol("rank_b", t)) for t in (o[0], o[2]))
    p = 1 + b0 + 2 * b2 + b0 * b2 ** 2
    printed = str(p)
    # interned after p: a family that sorts before p's, and an orbit between two of p's symbols
    a0 = PsiPolynomial.symbol(PsiSymbol("rank_a", o[0]))
    b1 = PsiPolynomial.symbol(PsiSymbol("rank_b", o[1]))
    ids = [_IDS[PsiSymbol(f, o[k])] for f, k in (("rank_b", 0), ("rank_b", 2), ("rank_a", 0), ("rank_b", 1))]
    assert ids == sorted(ids)
    assert str(p) == printed
    terms = (p * a0 * b1).sorted_terms()
    expected = [(f, o[k]) for f, k in (("rank_a", 0), ("rank_b", 0), ("rank_b", 1), ("rank_b", 2))]
    assert [(s.family, s.orbit) for s, _ in terms[-1][0]] == expected
    assert terms == sorted(
        terms, key=lambda mc: (sum(e for _, e in mc[0]), [(s.family, s.orbit.sort_key, e) for s, e in mc[0]])
    )


def test_every_id_a_thread_reads_has_its_symbol():
    # threads intern the same new symbol at once; one that finds the id already
    # given must also find the symbol, or sorted_terms raises IndexError
    (triv,) = enumerate_orbits(1, 1)
    errors = []
    start = threading.Barrier(8)

    def work():
        for n in range(3000):
            sym = PsiSymbol(f"race{n}", triv)
            start.wait(timeout=10)
            try:
                assert PsiPolynomial.symbol(sym).sorted_terms() == [(((sym, 1),), 1)]
            except Exception as e:  # collected, so the test reports it from the main thread
                errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_only_psi_symbols_are_interned():
    (triv,) = enumerate_orbits(2, 1, P2)
    interned = len(_SYMBOLS)
    for bad in ("x", triv, PsiSymbol("x", "1,0|0,1"), PsiSymbol(7, triv)):
        with pytest.raises(TypeError):
            PsiPolynomial({((bad, 1),): 1})
        with pytest.raises(TypeError):
            PsiPolynomial.symbol(bad)
    assert len(_SYMBOLS) == interned
    assert str(variable("x", 2) + 1) == "1 + x"


def test_degree_and_constant_value():
    x = variable("x", 2)
    assert degree(zero()) == -1
    assert degree(PsiPolynomial.constant(7)) == 0
    assert degree(x * x + x) == 2
    assert PsiPolynomial.constant(7).constant_value() == 7
    with pytest.raises(ValueError):
        x.constant_value()


def test_float_coefficients_rejected():
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            PsiPolynomial({(): bad})
        with pytest.raises(TypeError):
            PsiPolynomial.constant(bad)


def test_str_is_deterministic():
    t1 = enumerate_orbits(2, 2, P2)[0]
    x = variable("x", 2)
    p = x * x * Fraction(1, 2) + PsiPolynomial.symbol(PsiSymbol("x", t1)) + 1
    assert str(p) == "1 + psi[1,0|0,2](x) + 1/2*x^2"


@pytest.mark.parametrize("seed", range(8))
def test_ring_laws(seed):
    rng = random.Random(seed)
    pool = symbol_pool()
    f, g, k = (rand_poly(rng, pool) for _ in range(3))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * k == f * k + g * k
    assert (f * g) * k == f * (g * k)
    assert f + zero() == f
    assert f * PsiPolynomial.constant(1) == f


@pytest.mark.parametrize("seed", range(8))
def test_evaluation_is_a_ring_homomorphism(seed):
    rng = random.Random(50 + seed)
    pool = symbol_pool()
    f, g = rand_poly(rng, pool), rand_poly(rng, pool)
    assignment = {
        s: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for s in pool
    }
    assert evaluate(f + g, assignment) == evaluate(f, assignment) + evaluate(g, assignment)
    assert evaluate(f * g, assignment) == evaluate(f, assignment) * evaluate(g, assignment)
    fv, gv = evaluate(f, assignment), evaluate(g, assignment)
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
    assert evaluate(f - g, assignment) == fv - gv
    assert evaluate(g - f, assignment) == gv - fv
    assert evaluate(c - f, assignment) == c - fv
    assert evaluate(f - c, assignment) == fv - c
    assert evaluate(-f, assignment) == -fv
    assert evaluate(c * f, assignment) == c * fv
    assert evaluate(f * c, assignment) == fv * c
    assert evaluate(f * Fraction(1, c), assignment) == fv / c


def test_evaluate_missing_symbol_raises():
    x = variable("x", 2)
    with pytest.raises(KeyError):
        evaluate(x, {})


def _at(series, assignment):
    """The Fraction series obtained by evaluating every coefficient."""
    return TruncatedSeries(
        [evaluate(c, assignment) if isinstance(c, PsiPolynomial) else c for c in series.coeffs],
        prec=series.prec,
    )


def test_polynomials_work_as_series_coefficients():
    # exp(x*t) has coefficients x^n / n!
    x = variable("x", 1)
    s = TruncatedSeries([zero(), x], prec=4).exp()
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == x
    assert s.coeffs[2] == x * x * Fraction(1, 2)
    assert s.coeffs[4] == x ** 4 * Fraction(1, 24)
    # and specializing x commutes with the series operation
    sym = PsiSymbol("x", enumerate_orbits(1, 1)[0])
    two = TruncatedSeries([0, 2], prec=4).exp()
    for n in range(5):
        c = s.coeffs[n]
        val = evaluate(c, {sym: Fraction(2)}) if isinstance(c, PsiPolynomial) else Fraction(c)
        assert val == two.coeffs[n]
    # invert: s = 1 + x t + x^2 t^2 has a unit constant term
    at_two = {sym: Fraction(2)}
    s = TruncatedSeries([PsiPolynomial.constant(1), x, x * x], prec=5)
    inv = s.invert()
    assert s * inv == TruncatedSeries.one(5)
    assert inv.coeffs[1] == -x and inv.coeffs[2] == 0 and inv.coeffs[3] == x ** 3
    assert _at(inv, at_two) == TruncatedSeries([1, 2, 4], prec=5).invert()
    # exp of a series with nonzero t and t^2 coefficients
    a = TruncatedSeries([zero(), x, Fraction(1, 3) * x * x - 1], prec=5)
    e = a.exp()
    assert e.coeffs[2] == x * x * Fraction(1, 2) + Fraction(1, 3) * x * x - 1
    assert _at(e, at_two) == TruncatedSeries([0, 2, Fraction(4, 3) - 1], prec=5).exp()
    assert e.log() == a


def test_only_psipoly_reads_how_a_polynomial_is_stored():
    """No other module names the stored fields: an attribute or a string equal to one of them."""
    fields = {"_terms", "_den", "_from_terms"}
    for path in sorted(Path(orbigenus.__file__).parent.glob("*.py")):
        if path.name == "psipoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr in fields), (path.name, node.lineno)
            assert not (isinstance(node, ast.Constant) and node.value in fields), (path.name, node.lineno)


# Builds p, a polynomial in two families, with a repeated symbol, a square and a non-integer coefficient
_BUILD = """
from fractions import Fraction
from orbigenus.genus import SymbolicModel
from orbigenus.orbits import enumerate_orbits
o = enumerate_orbits(2, 2)
x, y = SymbolicModel("x").psi(o[1]), SymbolicModel("y").psi(o[0])
p = 3 * x ** 2 - Fraction(1, 2) * x * y + y - 7
"""


def _run(code, *args):
    src = Path(orbigenus.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def test_a_pickled_polynomial_loads_by_its_symbols_in_another_process(tmp_path):
    path = str(tmp_path / "p.pickle")
    save = "import pickle, sys\nprint(p)\nwith open(sys.argv[1], 'wb') as f:\n    pickle.dump(p, f)\n"
    expected = _run(_BUILD + save, path)
    assert expected == "-7 + psi[1,0|0,2](y) + -1/2*psi[1,1|0,2](x)*psi[1,0|0,2](y) + 3*psi[1,1|0,2](x)^2\n"
    load = "import pickle, sys\nwith open(sys.argv[1], 'rb') as f:\n    print(pickle.load(f))\n"
    # in a process that interned nothing, and in one that gave y's symbols the first ids
    first_y = ("from orbigenus.orbits import enumerate_orbits\nfrom orbigenus.psipoly import PsiPolynomial, PsiSymbol\n"
               "for t in enumerate_orbits(2, 2):\n    PsiPolynomial.symbol(PsiSymbol('y', t))\n")
    assert _run(load, path) == _run(first_y + load, path) == expected
    namespace = {}
    exec(_BUILD, namespace)  # and here, where both families have ids already
    with open(path, "rb") as f:
        assert pickle.load(f) == namespace["p"]


def test_a_polynomial_refuses_to_set_or_delete_a_field():
    x = variable("x", 2)
    p = 2 * x ** 2 + Fraction(1, 3)
    text = str(p)
    for name in ("_terms", "_den", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, {})
        with pytest.raises(AttributeError, match="immutable"):
            delattr(p, name)
    assert str(p) == text and p == 2 * x ** 2 + Fraction(1, 3)
    assert isinstance(p, _Value) and not hasattr(p, "__dict__")
    assert p.__reduce__() == (PsiPolynomial, (p.sorted_terms(),))  # by symbols, not by ids
    assert copy.copy(p) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p
