"""Sparse exact-rational polynomials in formal power-operation symbols.

Symbols are indexed by a family tag (the name of a formal variable, "x",
"y", ...) and a transitive orbit.  Polynomials combine freely with int and
Fraction scalars, so they can serve as series coefficients: scalar *, / and -
scale the coefficients, and one accumulator adds every term and drops zeros.

A monomial has one normal form: a tuple of (symbol, exponent) pairs, one
pair per symbol, sorted by symbol, every exponent an int >= 1; () is the
constant monomial.  Construction, lookup and multiplication all use it, and
construction and lookup both raise ValueError on a monomial given with an
exponent that is not an int >= 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .orbits import TransitiveOrbit
from .series import _ONE, _SCALARS, _ZERO, _power, exact


@dataclass(frozen=True, order=True)
class PsiSymbol:
    """One formal symbol: the power-operation value of a family at an orbit.

    Symbols order by family, then by orbit.
    """

    family: str
    orbit: TransitiveOrbit

    def __str__(self) -> str:
        if self.orbit.is_trivial():
            return self.family
        return f"psi[{self.orbit.label()}]({self.family})"


Monomial = tuple[tuple[PsiSymbol, int], ...]


def _checked_monomial(mono) -> Monomial:
    """The normal form of a monomial given from outside; ValueError unless every exponent is an int >= 1."""
    mono = tuple(mono)
    if not all(isinstance(e, int) and e >= 1 for _, e in mono):
        raise ValueError(f"exponents must be ints >= 1, got {mono!r}")
    return _monomial(mono)


def _monomial(pairs) -> Monomial:
    """The normal form of (symbol, exponent) pairs: repeated symbols merged, sorted."""
    exps: dict[PsiSymbol, int] = {}
    for sym, e in pairs:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate(terms: dict, mono: Monomial, c) -> None:
    """Add c at mono in a sparse dict of terms, dropping mono if the sum is zero."""
    v = terms.get(mono, _ZERO) + c
    if v:
        terms[mono] = v
    else:
        terms.pop(mono, None)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    """Degree, then the monomial in its own order: an orbit's sort_key determines it."""
    return (_mono_degree(m), tuple((s.family, s.orbit.sort_key, e) for s, e in m))


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for sym, e in m:
        parts.append(str(sym) if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


class PsiPolynomial:
    """Immutable polynomial with Fraction coefficients and structural equality.

    ``terms`` maps monomials of (symbol, exponent) pairs, exponents ints >= 1
    (else ValueError), to coefficients; ``((s, 1), (s, 1))`` means ``((s, 2),)``.

    Equality against a bare int or Fraction means "is that constant", and the
    hash agrees, so constant polynomials can stand in for scalars.  A scalar
    operand is never made a polynomial: it is added at the constant monomial, or scales each term.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for mono, coeff in items:
                c = exact(coeff)
                if not isinstance(c, Fraction):
                    raise TypeError(f"coefficient must be exact, got {type(coeff).__name__}")
                _accumulate(data, _checked_monomial(mono), c)
        object.__setattr__(self, "_terms", data)

    @classmethod
    def _from_terms(cls, terms: dict) -> "PsiPolynomial":
        """Wrap a dict of normal-form monomials to nonzero Fractions, unchecked."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def _add_scaled_into(self, terms: dict, scale) -> None:
        """Add scale * self into a dict that _from_terms can wrap, in place; scale is nonzero."""
        for mono, c in self._terms.items():
            _accumulate(terms, mono, c * scale)

    def _scaled(self, c) -> "PsiPolynomial":
        """c * self for an exact scalar c, coefficient by coefficient."""
        return PsiPolynomial._from_terms({m: a * c for m, a in self._terms.items()} if c else {})

    @classmethod
    def zero(cls) -> "PsiPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "PsiPolynomial":
        return cls({(): Fraction(value)})

    @classmethod
    def symbol(cls, sym: PsiSymbol) -> "PsiPolynomial":
        return cls({((sym, 1),): Fraction(1)})

    @classmethod
    def variable(cls, family: str, h: int) -> "PsiPolynomial":
        """The degree-one symbol of a family itself (its trivial-orbit value)."""
        return cls.symbol(PsiSymbol(family, TransitiveOrbit.trivial(h)))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda mc: _mono_key(mc[0]))

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(_checked_monomial(mono), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._terms.get((), Fraction(0))

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    def evaluate(self, assignment) -> Fraction:
        """Substitute a Fraction for every symbol (ring homomorphism to Q)."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            v = coeff
            for sym, e in mono:
                v *= Fraction(assignment[sym]) ** e
            total += v
        return total

    def _sum(self, other, sign: int):
        """self + sign * other, for a polynomial or an exact scalar other."""
        terms = dict(self._terms)
        if isinstance(other, PsiPolynomial):
            other._add_scaled_into(terms, sign)
        elif isinstance(other, _SCALARS):
            _accumulate(terms, (), sign * other)
        else:
            return NotImplemented
        return PsiPolynomial._from_terms(terms)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return PsiPolynomial._from_terms({(): Fraction(other)} if other else {})._sum(self, -1)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        if not isinstance(other, PsiPolynomial):
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _accumulate(acc, _monomial(m1 + m2), c1 * c2)
        return PsiPolynomial._from_terms(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self._scaled(_ONE / other)
        return NotImplemented

    def __pow__(self, n):
        return _power(self, n, lambda: PsiPolynomial.constant(1))

    def __eq__(self, other):
        if isinstance(other, PsiPolynomial):
            return self._terms == other._terms
        if isinstance(other, _SCALARS):
            return self.is_constant and self._terms.get((), Fraction(0)) == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self._terms.get((), Fraction(0)))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if mono == ():
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(_mono_str(mono))
            else:
                parts.append(f"{coeff}*{_mono_str(mono)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PsiPolynomial({self})"
