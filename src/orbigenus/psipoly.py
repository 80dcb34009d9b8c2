"""Sparse exact-rational polynomials in formal power-operation symbols.

Symbols are indexed by a family tag (the name of a formal variable, "x",
"y", ...) and a transitive orbit.  Polynomials combine freely with int and
Fraction scalars, so they can serve as series coefficients: scalar * and -
scale the coefficients, and one accumulator adds every term and drops zeros.

Symbols are stored as dense int ids, given on first use.  A monomial has one
normal form: a tuple of (id, exponent) pairs sorted by id, one per symbol, each
exponent an int >= 1 (else ValueError); () is the constant monomial.  Ids stay
inside: _intern is the one way in and sorted_terms the one way out; it ranks
the symbols its terms use on each call and gives (PsiSymbol, exponent) pairs
in canonical symbol order, so no result depends on the order of first use.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .orbits import TransitiveOrbit
from .series import _ONE, _SCALARS, _ZERO, _power, exact


@dataclass(frozen=True)
class PsiSymbol:
    """One formal symbol: the power-operation value of a family at an orbit."""

    family: str
    orbit: TransitiveOrbit

    def __str__(self) -> str:
        if self.orbit.is_trivial():
            return self.family
        return f"psi[{self.orbit.label()}]({self.family})"


# The intern table of every polynomial; the lock keeps one id per symbol across threads.
_SYMBOLS: list[PsiSymbol] = []  # id -> symbol
_IDS: dict[PsiSymbol, int] = {}  # symbol -> id
_LOCK = threading.Lock()


def _intern(sym) -> int:
    """The id of sym, the next free one if sym is new; TypeError unless sym is a PsiSymbol."""
    i = _IDS.get(sym)
    if i is None:
        if not (isinstance(sym, PsiSymbol) and isinstance(sym.family, str)
                and isinstance(sym.orbit, TransitiveOrbit)):
            raise TypeError(f"not a psi symbol: {sym!r}")
        with _LOCK:
            if sym not in _IDS:
                _SYMBOLS.append(sym)  # before its id is published, so every id read has its symbol
                _IDS[sym] = len(_SYMBOLS) - 1
            i = _IDS[sym]
    return i


Monomial = tuple[tuple[int, int], ...]


def _checked_monomial(mono) -> Monomial:
    """The normal form of (symbol, exponent) pairs given from outside, each symbol interned;
    ValueError unless every exponent is an int >= 1."""
    mono = tuple(mono)
    if not all(isinstance(e, int) and e >= 1 for _, e in mono):
        raise ValueError(f"exponents must be ints >= 1, got {mono!r}")
    return _monomial([(_intern(sym), e) for sym, e in mono])


def _monomial(pairs) -> Monomial:
    """The normal form of (id, exponent) pairs: repeated ids merged, sorted."""
    exps: dict[int, int] = {}
    for i, e in pairs:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate(terms: dict, mono: Monomial, c) -> None:
    """Add c at mono in a sparse dict of terms, dropping mono if the sum is zero."""
    v = terms.get(mono, _ZERO) + c
    if v:
        terms[mono] = v
    else:
        terms.pop(mono, None)


def _mono_str(m) -> str:
    parts = []
    for sym, e in m:
        parts.append(str(sym) if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


class PsiPolynomial:
    """Immutable polynomial with Fraction coefficients and structural equality.

    ``terms`` maps monomials of (PsiSymbol, exponent) pairs, exponents ints >= 1
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
    def constant(cls, value) -> "PsiPolynomial":
        return cls({(): value})

    @classmethod
    def symbol(cls, sym: PsiSymbol) -> "PsiPolynomial":
        return cls._from_terms({((_intern(sym), 1),): _ONE})

    def sorted_terms(self) -> list[tuple[tuple[tuple[PsiSymbol, int], ...], Fraction]]:
        """(monomial, coefficient) pairs by degree, then monomial, each in canonical symbol order:
        the symbols these terms use, ranked on each call by family, then orbit sort key."""
        symbols = {i: _SYMBOLS[i] for m in self._terms for i, _ in m}
        ids = sorted(symbols, key=lambda i: (symbols[i].family, symbols[i].orbit.sort_key))
        rank = {i: r for r, i in enumerate(ids)}
        by_rank = [symbols[i] for i in ids]
        # each monomial's pairs sorted once, by rank, into the term key; keys never tie
        keyed = sorted([(sum([e for _, e in m]), sorted([(rank[i], e) for i, e in m]), c)
                        for m, c in self._terms.items()])
        return [(tuple([(by_rank[r], e) for r, e in ranked]), c) for _, ranked, c in keyed]

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._terms.get((), Fraction(0))

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
        return self._scaled(-1)._sum(other, 1)

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
