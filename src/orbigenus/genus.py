"""Symmetric-power series, Hecke operators, and the product-formula verifier.

A genus model assigns to every transitive orbit T an exact value psi(T),
the power-operation value of a fixed class x.  Everything downstream is a
finite exact computation: the symmetric-power coefficients sigma_n sum
psi over conjugacy classes against inverse centralizer orders, the Hecke
operator T_n averages psi over the orbits of size n, and the two are tied
together by the exponential product formula

    sum_n sigma_n t^n  =  exp( sum_T psi(T) t^|T| / |T| ).

The genus series take the right side, the exp of the Hecke sums, which
streams the orbits of each size and enumerates no classes.  The verifier
checks it coefficient by coefficient, exactly, against the class sum: one
depth-first walk of every class of degree <= prec, which keeps no class.
With D the lcm of the scalar psi denominators over the orbits, the walk's
degree k sums the integers (or polynomials) N_k = k! D^k sigma_k =
sum_c |c| D^k psi(c), divided once.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .classes import OrbitTypeMultiset, _check_walk, _orbit_pool, _walk_classes, enumerate_classes
from .classfun import ClassFunction
from .orbits import ALL_ORDERS, Mode, TransitiveOrbit, _check_mode, _count, _expect, _orbit_stream, _Value
from .psipoly import PsiPolynomial, PsiSymbol, _ExactSum, _numerators, exact
from .series import TruncatedSeries


class SymbolicModel:
    """Keeps every psi(T) as a formal symbol of one family, a str (else TypeError)."""

    def __init__(self, family: str = "x"):
        self.family = _expect(family, str)

    def psi(self, orbit: TransitiveOrbit) -> PsiPolynomial:
        return PsiPolynomial.symbol(PsiSymbol(self.family, orbit))

    def __repr__(self):
        return f"SymbolicModel({self.family!r})"


class IntegerModel:
    """psi(T) = d for every orbit: the model of a d-dimensional trivial class."""

    def __init__(self, d: int):
        self.d = _count(d, "dimension")

    def psi(self, orbit: TransitiveOrbit) -> int:
        return self.d

    def __repr__(self):
        return f"IntegerModel({self.d})"


class TableModel:
    """psi values looked up in an explicit orbit table, a dict TransitiveOrbit -> exact value
    (else TypeError)."""

    def __init__(self, table):
        self.table = {_expect(orbit, TransitiveOrbit): exact(value)
                      for orbit, value in _expect(table, dict).items()}

    def psi(self, orbit: TransitiveOrbit):
        if orbit not in self.table:
            raise ValueError(f"table model has no psi value for orbit {orbit}")
        return self.table[orbit]

    def __repr__(self):
        return f"TableModel({len(self.table)} orbits)"


def psi_of_class(model, cls: OrbitTypeMultiset):
    """Product of psi over the orbits of a class, with multiplicity; TypeError unless cls is an
    OrbitTypeMultiset and the product is exact."""
    entries = _expect(cls, OrbitTypeMultiset).entries
    return exact(prod((model.psi(orbit) ** mult for orbit, mult in entries), start=Fraction(1)))


def _orbit_powers(model, pool, prec: int) -> tuple[list, int]:
    """The weights of the class walk, and D, the lcm of the scalar psi denominators over the pool.

    A row per orbit T of size s, with w = D^s psi(T): 1, then the integers (or polynomials) W[m] =
    w^m (ms)! / (s^m m!) = W[m - 1] w C(ms - 1, s - 1) (s - 1)!, m <= prec // s, psi read once per orbit.
    """
    nums, den = _numerators(model.psi(orbit) for orbit in pool)
    powers = []
    for orbit, x in zip(pool, nums):
        s = orbit.size
        w, step, row = x * den ** (s - 1), factorial(s - 1), [1]
        for ms in range(s, prec + 1, s):
            row.append(row[-1] * w * (comb(ms - 1, s - 1) * step))
        powers.append(row)
    return powers, den


def _class_sum(model, prec: int, h: int, mode: Mode) -> list:
    """[sigma_0, ..., sigma_prec]: psi(c) / z(c) summed over the classes c, in one walk.

    The walk visits each class of degree <= prec once, depth first; degree k sums |c| D^k psi(c).
    A class adding m copies of T to its parent at degree k takes the parent's product times W[m] of
    T's _orbit_powers row, and the parent's int count times C(k, ms), scaled in by _ExactSum.add on a
    polynomial.  The sum runs class by class and is never regrouped by orbit type.
    """
    pool = _orbit_pool(h, prec, mode)
    powers, den = _orbit_powers(model, pool, prec)
    sizes = [orbit.size for orbit in pool]
    choose = [[comb(k, j) for j in range(k + 1)] for k in range(prec + 1)]
    ints, sums = [1] + [0] * prec, [_ExactSum() for _ in range(prec + 1)]  # degree 0: the empty class
    xs, ns = [1] * (prec + 1), [1] * (prec + 1)  # product and count at each depth of the walk
    for depth, i, mult, degree in _walk_classes(pool, prec):
        x = xs[depth] = xs[depth - 1] * powers[i][mult]
        n = ns[depth] = ns[depth - 1] * choose[degree][mult * sizes[i]]
        if x.__class__ is int:
            ints[degree] += x * n
        else:
            sums[degree].add(x, n)
    for total, n in zip(sums, ints):
        total.add(n)
    return [total.value(factorial(k) * den ** k) for k, total in enumerate(sums)]


def sigma(model, n: int, h: int, mode: Mode = ALL_ORDERS):
    """Coefficient of the n-th symmetric power: sum over classes of psi/centralizer.

    This is the definition, summed class by class: coefficient n of the
    class sum that verify_product_formula takes as its left side, so one walk
    of the classes of degree <= n.  The genus commands take the faster
    exp of the Hecke sums of symmetric_power_series instead, so the product
    formula stays tested against the classes rather than assumed.
    """
    _check_walk(h, n, mode, "symmetric power degree")
    return _class_sum(model, n, h, mode)[n]


def symmetric_power_series(model, prec: int, h: int, mode: Mode = ALL_ORDERS) -> TruncatedSeries:
    """S_t = sum_{n>=0} sigma_n t^n through degree prec, as exp(sum_n T_n t^n): the product formula.

    Each orbit is freed once its psi is read, and no class is enumerated;
    verify_product_formula checks this series against the class sum.
    """
    return hecke_log_series(model, prec, h, mode).exp()


def hecke_operator(model, n: int, h: int, mode: Mode = ALL_ORDERS):
    """T_n = (1/n) * sum over orbits of size n of psi(T), in one _ExactSum: TypeError unless exact.

    The orbit size must be admissible for the mode; in p-power mode the
    operators exist only for n a power of p.  Each orbit is freed once its psi is added.
    This is the one sum whose denominator is not fixed before it starts: the lcm D of a
    size's psi denominators is known only after the last orbit, so _ExactSum buckets the
    scalars by denominator.  Reading them through _numerators first holds every psi of the
    size at once, and made symbolic hecke_log_series(..., 13, 4) 15-40% slower.
    """
    total = _ExactSum()
    for orbit in _orbit_stream(h, n, mode):
        total.add(model.psi(orbit))
    return total.value(n)


def hecke_log_series(model, prec: int, h: int, mode: Mode = ALL_ORDERS) -> TruncatedSeries:
    """sum over admissible n >= 1 of T_n t^n, the claimed logarithm of S_t.

    `genus hecke` prints its coefficients at mode.sizes_up_to(prec).  Checked by
    _check_walk, as _orbit_pool is; sizes are walked through hecke_operator, not a pool.
    """
    _check_walk(h, prec, mode)
    coeffs = [Fraction(0)] * (prec + 1)
    for n in mode.sizes_up_to(prec):
        coeffs[n] = hecke_operator(model, n, h, mode)
    return TruncatedSeries(coeffs, prec=prec)


def _verdict(lhs: TruncatedSeries, rhs: TruncatedSeries) -> tuple[int, bool, int | None]:
    """(precision, equal, first_mismatch) of two series of one precision, else ValueError."""
    if _expect(lhs, TruncatedSeries).prec != _expect(rhs, TruncatedSeries).prec:
        raise ValueError("series precisions differ")
    mismatch = next((n for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if not a == b), None)
    return lhs.prec, mismatch is None, mismatch


class SeriesComparison(_Value):
    """Outcome of an exact coefficient-by-coefficient series comparison.

    precision, equal and first_mismatch are what _verdict reads off lhs and rhs: the constructor
    raises ValueError for any other, so no report claims a verdict its sides contradict.  h and
    mode are gated as a class's are: TypeError unless an int and a Mode, ValueError for h < 1.
    """

    __slots__ = _fields = ("h", "mode", "precision", "lhs", "rhs", "equal", "first_mismatch")

    def __init__(self, h: int, mode: Mode, precision: int, lhs: TruncatedSeries,
                 rhs: TruncatedSeries, equal: bool, first_mismatch: int | None):
        _count(h, "h", "positive")
        _check_mode(mode)
        claimed, verdict = (precision, equal, first_mismatch), _verdict(lhs, rhs)
        if claimed != verdict or list(map(type, claimed)) != list(map(type, verdict)):
            raise ValueError(f"lhs and rhs give (precision, equal, first_mismatch) = {verdict}, not {claimed}")
        self._set(h, mode, precision, lhs, rhs, equal, first_mismatch)

    @classmethod
    def compare(cls, h, mode, lhs: TruncatedSeries, rhs: TruncatedSeries) -> "SeriesComparison":
        precision, equal, mismatch = _verdict(lhs, rhs)
        return cls(h, mode, precision, lhs, rhs, equal, mismatch)


def verify_product_formula(model, prec: int, h: int, mode: Mode = ALL_ORDERS) -> SeriesComparison:
    """Check S_t = exp(sum_n T_n t^n) through the given precision, exactly.

    The left side is the class sum of sigma_0 .. sigma_prec, taken in one
    walk of the conjugacy classes; the right side is symmetric_power_series,
    built from single orbits.  Their agreement is the product-formula identity.
    """
    lhs = TruncatedSeries(_class_sum(model, prec, h, mode), prec=prec)
    rhs = symmetric_power_series(model, prec, h, mode)
    return SeriesComparison.compare(h, mode, lhs, rhs)


def lambda_series(model, prec: int, h: int, mode: Mode = ALL_ORDERS) -> TruncatedSeries:
    """Total lambda operation Lambda_t = 1 / S_{-t}, taken from the Hecke sums as exp(-sum_n T_n (-t)^n)."""
    return (-hecke_log_series(model, prec, h, mode).negate_t()).exp()


def adams_series(model, prec: int, h: int, mode: Mode = ALL_ORDERS) -> TruncatedSeries:
    """sum_n psi_n t^n = t d/dt log S_t, taken from the Hecke sums as t d/dt of them: n * T_n at t^n."""
    return hecke_log_series(model, prec, h, mode).t_ddt()


def equivariant_power_classfunction(model, n: int, h: int, mode: Mode = ALL_ORDERS) -> ClassFunction:
    """The n-th power-operation character: class c maps to psi_of_class(model, c).

    Its augmentation is sigma_n; this is the class-function refinement the
    orbifold genus evaluates.
    """
    values = [psi_of_class(model, cls) for cls in enumerate_classes(h, n, mode)]
    return ClassFunction(h, mode, n, values)


def todd_orbifold_series(d: int, prec: int) -> TruncatedSeries:
    """Generating series of Todd genera of symmetric powers of a d-dimensional class.

    Computed as the symmetric-power series of IntegerModel(d) at h = 1 with
    no order restriction, so from the one orbit of each size n <= prec, as
    exp(sum_n d t^n / n); the expected closed form is (1 - t)^(-d).
    """
    _count(d, "dimension", "nonnegative")
    return symmetric_power_series(IntegerModel(d), prec, 1, ALL_ORDERS)


def geometric_power_series(d: int, prec: int) -> TruncatedSeries:
    """(1 - t)^(-d) through the given precision: the all-ones series 1/(1 - t) to the power d."""
    _count(d, "dimension", "nonnegative")
    return TruncatedSeries([1] * (_count(prec, "precision", "nonnegative") + 1), prec=prec) ** d
