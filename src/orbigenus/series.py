"""Truncated formal power series in one variable t, with exact coefficients.

Every coefficient goes through psipoly.exact: an int (not a bool), a Fraction or a PsiPolynomial;
anything else, a float included, raises TypeError.  The operators take a series or an exact scalar,
and give NotImplemented for anything else.  Binary operations truncate to the
smaller precision; a series of precision N carries coefficients of t^0 .. t^N.
"""
from __future__ import annotations

from fractions import Fraction

from .orbits import _count
from .psipoly import PsiPolynomial, _Ring, _scalar, exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncatedSeries(_Ring):
    """A series known through degree ``prec`` inclusive."""

    __slots__ = _fields = ("coeffs", "prec")

    def __init__(self, coeffs, prec: int):
        _count(prec, "precision", "nonnegative")
        coeffs = [exact(c) for c in coeffs][: prec + 1]
        coeffs += [_ZERO] * (prec + 1 - len(coeffs))
        self._set(tuple(coeffs), prec)

    @classmethod
    def one(cls, prec: int) -> "TruncatedSeries":
        return cls([_ONE], prec=prec)

    def coefficient(self, n: int):
        if not 0 <= _count(n, "coefficient index") <= self.prec:
            raise IndexError(f"coefficient {n} outside precision {self.prec}")
        return self.coeffs[n]

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.prec, other.prec)
            return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], prec=n)
        if not _scalar(other):
            return NotImplemented
        return TruncatedSeries((self.coeffs[0] + other, *self.coeffs[1:]), prec=self.prec)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.prec, other.prec)
            out = [_ZERO] * (n + 1)
            for i in range(n + 1):
                a = self.coeffs[i]
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b == 0:
                        continue
                    out[i + j] = out[i + j] + a * b
            return TruncatedSeries(out, prec=n)
        return self._scaled(other) if _scalar(other) else NotImplemented

    def _scaled(self, c) -> "TruncatedSeries":
        return TruncatedSeries([c * a for a in self.coeffs], prec=self.prec)

    def _one(self) -> "TruncatedSeries":
        return TruncatedSeries.one(self.prec)

    __hash__ = None  # equal when coeffs and prec are

    def t_ddt(self) -> "TruncatedSeries":
        """The derivation t * d/dt: multiplies coefficient n by n."""
        return TruncatedSeries([n * c for n, c in enumerate(self.coeffs)], prec=self.prec)

    def negate_t(self) -> "TruncatedSeries":
        """Substitute t -> -t."""
        return TruncatedSeries(
            [c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs)], prec=self.prec
        )

    def _recurrence(self, first, weight, finish) -> "TruncatedSeries":
        """The recurrence of invert, exp and log: b_0 = first, b_n = finish(n, sum_k w_k b_{n-k}).

        k runs over 1..n; w_k = weight(k, a_k) is formed once, and only for a_k != 0.
        """
        weights = [(k, weight(k, a)) for k, a in enumerate(self.coeffs[1:], 1) if a != 0]
        out = [first]
        for n in range(1, self.prec + 1):
            out.append(finish(n, sum((w * out[n - k] for k, w in weights if k <= n), _ZERO)))
        return TruncatedSeries(out, prec=self.prec)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be an invertible scalar."""
        u = _unit_inverse(self.coeffs[0])
        return self._recurrence(u, lambda k, a: a, lambda n, s: -(u * s))

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term.

        Uses n*b_n = sum_k k*a_k*b_{n-k}, which needs no coefficient
        division beyond multiplying by 1/n.
        """
        if not self.coeffs[0] == 0:
            raise ValueError("exp requires zero constant term")
        return self._recurrence(_ONE, lambda k, a: k * a, lambda n, s: Fraction(1, n) * s)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term one.

        b = t f'/f solves f b = t f', so the shared recurrence gives it as b_0 = 0,
        b_n = n*a_n - sum_k a_k*b_{n-k}; log f has coefficient b_n / n at t^n.
        """
        if not self.coeffs[0] == 1:
            raise ValueError("log requires constant term one")
        b = self._recurrence(_ZERO, lambda k, a: a, lambda n, s: n * self.coeffs[n] - s).coeffs
        out = [_ZERO] + [Fraction(1, n) * b[n] for n in range(1, self.prec + 1)]
        return TruncatedSeries(out, prec=self.prec)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r}, prec={self.prec})"


def _unit_inverse(c):
    """1 / c for a unit c: a nonzero Fraction, or a constant PsiPolynomial of nonzero value."""
    if isinstance(c, PsiPolynomial) and c.is_constant:
        c = c.constant_value()
    if not (isinstance(c, Fraction) and c):
        raise ValueError("constant term is not a unit")
    return _ONE / c
