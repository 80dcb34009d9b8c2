"""Exact values, and sparse exact-rational polynomials in formal power-operation symbols.

An exact value is an int (not a bool), a Fraction or a PsiPolynomial: exact is the one gate,
anything else raising TypeError, _scalar the one scalar rule of the rings, and _ExactSum the one
sum.  No other module reads how a polynomial is stored.  A sum adds int multiples of numerators
over a denominator fixed before it starts, and divides once.

Symbols are indexed by a family tag (the name of a formal variable, "x",
"y", ...) and a transitive orbit.  Polynomials combine freely with int and
Fraction scalars, so they can serve as series coefficients.

A polynomial stores its coefficients as nonzero int numerators over one int
denominator, in lowest terms (no factor shared by the denominator and every
numerator), so arithmetic makes no Fraction per term: a product multiplies
ints and the two denominators, a sum rescales each operand once to the lcm
of the denominators, and _reduced drops zeros and divides out the common
factor once per result.  _ordered_terms gives each term's coefficient as an int
numerator and denominator in lowest terms; sorted_terms makes those Fractions.

Symbols are stored as dense int ids, given on first use.  A monomial has one
normal form: a tuple of (id, exponent) pairs sorted by id, one per symbol, each
exponent an int >= 1 (else ValueError); () is the constant monomial.  Ids stay
inside: _intern is the one way in and _ordered_terms the one way out; it ranks
the symbols its terms use on each call and gives (PsiSymbol, exponent) pairs
in canonical symbol order, so no result depends on the order of first use.
When the ranking keeps the symbols' id order, as when they were interned in
canonical order, the id-sorted monomials are sorted as they are, with no rank
list per term.  A polynomial pickles by those pairs, so it loads in a process
with other ids.  A product loops over the side with fewer terms outside; an
outer monomial of one (id, exponent) pair is inserted into each inner one at
the place bisection finds, its exponent added where the id is already there.
"""
from __future__ import annotations

import threading
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .orbits import TransitiveOrbit, _count, _Value


def exact(c):
    """An exact value: an int (not a bool) as a Fraction, a Fraction or a PsiPolynomial as is, else TypeError."""
    if c.__class__ is int:
        return Fraction(c)
    if isinstance(c, (PsiPolynomial, Fraction)):  # a polynomial first: isinstance(c, Fraction) is slow on one
        return c
    raise TypeError(f"not an exact value (an int, Fraction or PsiPolynomial): {c!r}")


def _power(x, n, one):
    """x ** n by square-and-multiply; the unit ``one()`` is built only for n = 0."""
    _count(n, "exponent", "nonnegative")
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one() if out is None else out


def _scalar(c) -> bool:
    """The one scalar rule of every ring: c is an exact value (a bool is not)."""
    return c.__class__ is int or isinstance(c, (PsiPolynomial, Fraction))


class _Ring(_Value):
    """Base of the value rings PsiPolynomial, TruncatedSeries and ClassFunction, all commutative.

    A ring writes __add__ and __mul__ (NotImplemented for an operand neither its own nor a _scalar),
    _scaled(c) = c * self and _one(); -, unary - and ** are derived from them here, and the
    reflected + and * are bound to them.
    """

    __slots__ = _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__radd__, cls.__rmul__ = cls.__add__, cls.__mul__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if other.__class__ is self.__class__ or _scalar(other):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __pow__(self, n):
        return _power(self, n, self._one)


class PsiSymbol(_Value):
    """One formal symbol: the power-operation value of a family at an orbit."""

    __slots__ = _fields = ("family", "orbit")

    def __init__(self, family: str, orbit: TransitiveOrbit):
        self._set(family, orbit)

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


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """(terms, den) in normal form: zero numerators dropped, then the common factor of den and
    the numerators divided out, so den = 1 when no term is left."""
    terms = {m: c for m, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return terms, den


def _mono_str(m) -> str:
    parts = []
    for sym, e in m:
        parts.append(str(sym) if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


class PsiPolynomial(_Ring):
    """Immutable polynomial with exact rational coefficients and structural equality.

    ``terms`` maps monomials of (PsiSymbol, exponent) pairs, exponents ints >= 1
    (else ValueError), to int or Fraction coefficients; ``((s, 1), (s, 1))`` means
    ``((s, 2),)``.  The coefficients are stored as nonzero int numerators ``_terms``
    over one int denominator ``_den`` > 0 that shares no factor with all of them, so
    equal polynomials have equal fields.

    Equality against a bare int or Fraction means "is that constant", and the
    hash agrees, so constant polynomials can stand in for scalars.  A scalar
    operand is never made a polynomial: it is added at the constant monomial, or scales each term.
    """

    __slots__ = ("_terms", "_den")  # each set once, by _set_terms and _set_den
    _fields = ()  # compared, hashed, shown and pickled by its own methods below

    def __init__(self, terms=None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for mono, coeff in items:
                c = exact(coeff)
                if not isinstance(c, Fraction):
                    raise TypeError(f"coefficient must be exact, got {type(coeff).__name__}")
                mono = _checked_monomial(mono)
                data[mono] = data.get(mono, 0) + c
        nums, den = _numerators(data.values())
        terms, den = _reduced(dict(zip(data, nums)), den)
        _set_terms(self, terms)
        _set_den(self, den)

    @classmethod
    def _from_terms(cls, terms: dict, den: int = 1) -> "PsiPolynomial":
        """Wrap a dict of normal-form monomials to int numerators over den > 0, unchecked."""
        out = cls.__new__(cls)
        terms, den = _reduced(terms, den)
        _set_terms(out, terms)
        _set_den(out, den)
        return out

    def _scaled(self, c) -> "PsiPolynomial":
        """c * self for an int or Fraction c: each numerator times c's, the denominator times c's."""
        if c == 1:  # values are immutable, so a product by 1 need not copy
            return self
        n = c.numerator
        terms = {m: a * n for m, a in self._terms.items()}
        return PsiPolynomial._from_terms(terms, self._den * c.denominator)

    @classmethod
    def constant(cls, value) -> "PsiPolynomial":
        return cls({(): value})

    @classmethod
    def symbol(cls, sym: PsiSymbol) -> "PsiPolynomial":
        return cls._from_terms({((_intern(sym), 1),): 1})

    def sorted_terms(self) -> list[tuple[tuple[tuple[PsiSymbol, int], ...], Fraction]]:
        """(monomial, coefficient) pairs in the order of _ordered_terms, each coefficient a Fraction."""
        return [(mono, Fraction(n, d)) for mono, n, d in self._ordered_terms()]

    def _ordered_terms(self):
        """Yield each term as (monomial, numerator, denominator), the coefficient in lowest terms:
        by degree, then monomial, each monomial's (PsiSymbol, exponent) pairs in canonical symbol
        order.  The symbols these terms use are ranked on each call by family, then orbit sort key.
        When that ranking keeps their id order, as when they were interned in canonical order, the
        id-sorted monomials are in rank order already and are sorted as they are; else each
        monomial's pairs are sorted by rank into its key."""
        symbols = {i: _SYMBOLS[i] for m in self._terms for i, _ in m}
        ids = sorted(symbols, key=lambda i: (symbols[i].family, symbols[i].orbit.sort_key))
        if all(map(int.__lt__, ids, ids[1:])):  # each monomial is its own term key
            keyed = sorted([(sum([e for _, e in m]), m, c) for m, c in self._terms.items()])
        else:
            rank = {i: r for r, i in enumerate(ids)}
            symbols = [symbols[i] for i in ids]  # by rank
            # each monomial's pairs sorted once, by rank, into the term key; keys never tie
            keyed = sorted([(sum([e for _, e in m]), sorted([(rank[i], e) for i, e in m]), c)
                            for m, c in self._terms.items()])
        den = self._den
        for _, key, c in keyed:
            g = gcd(c, den)
            yield tuple([(symbols[k], e) for k, e in key]), c // g, den // g

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self._terms.get((), 0), self._den)

    def __add__(self, other):
        """self + other, for a polynomial or an exact scalar other: both brought to the
        lcm of the two denominators, each operand rescaled once."""
        if other.__class__ is PsiPolynomial:
            terms, d = other._terms, other._den
        elif _scalar(other):  # an int or a Fraction, a polynomial being taken above
            terms, d = {(): other.numerator}, other.denominator
        else:
            return NotImplemented
        if not other:
            return self
        den = lcm(self._den, d)
        a, b = den // self._den, den // d
        out = {m: c * a for m, c in self._terms.items()} if a != 1 else dict(self._terms)
        for m, c in terms.items():
            out[m] = out.get(m, 0) + b * c
        return PsiPolynomial._from_terms(out, den)

    def __mul__(self, other):
        if other.__class__ is not PsiPolynomial:  # first, as in _ExactSum.add
            return self._scaled(other) if _scalar(other) else NotImplemented
        outer, inner = self._terms, other._terms
        if len(outer) >= len(inner):  # the shorter side outside, the right one on a tie
            outer, inner = inner, outer
        acc: dict[Monomial, int] = {}
        for m1, c1 in outer.items():
            if len(m1) == 1:  # one (i, e) pair: bump i's exponent in each inner monomial, or insert it
                ((i, e),) = m1
                for m2, c2 in inner.items():
                    k = bisect_left(m2, (i,))
                    if k < len(m2) and m2[k][0] == i:
                        m = m2[:k] + ((i, m2[k][1] + e),) + m2[k + 1:]
                    else:
                        m = m2[:k] + m1 + m2[k:]
                    acc[m] = acc.get(m, 0) + c1 * c2
            else:
                for m2, c2 in inner.items():
                    m = _monomial(m1 + m2)
                    acc[m] = acc.get(m, 0) + c1 * c2
        return PsiPolynomial._from_terms(acc, self._den * other._den)

    def _one(self) -> "PsiPolynomial":
        return PsiPolynomial.constant(1)

    def __eq__(self, other):
        if isinstance(other, PsiPolynomial):
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return (self.is_constant and self._den == other.denominator
                    and self._terms.get((), 0) == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(Fraction(self._terms.get((), 0), self._den))
        return hash((self._den, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self) -> str:
        parts = []
        for mono, n, d in self._ordered_terms():
            coeff = str(n) if d == 1 else f"{n}/{d}"
            if mono == ():
                parts.append(coeff)
            elif coeff == "1":
                parts.append(_mono_str(mono))
            else:
                parts.append(f"{coeff}*{_mono_str(mono)}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"PsiPolynomial({self})"

    def __reduce__(self):
        # by symbols, not by this process's ids, rebuilt through the checked constructor
        return PsiPolynomial, (self.sorted_terms(),)


_set_terms, _set_den = PsiPolynomial._setters


def _numerators(values) -> tuple[list, int]:
    """The values times D, the lcm of their scalar denominators, and D: ints, or polynomials with their own."""
    values = list(values)
    if not {int, Fraction}.issuperset(map(type, values)):  # a polynomial, or a value for the gate
        values = list(map(exact, values))
    den = lcm(*{v.denominator for v in values if v.__class__ is not PsiPolynomial})
    return [v * den if v.__class__ is PsiPolynomial else v.numerator * (den // v.denominator) for v in values], den


def _divided(x, den: int):
    """x / den for an int or PsiPolynomial x and an int den > 0: a Fraction or a polynomial."""
    return Fraction(x, den) if isinstance(x, int) else x * Fraction(1, den)


def _quotient(xs, ks, den: int):
    """sum k x / den over int or PsiPolynomial xs and int ks: one int sum, or one _ExactSum given a polynomial."""
    xs = list(xs)
    if {int}.issuperset(map(type, xs)):
        return Fraction(sum(map(mul, xs, ks)), den)
    total = _ExactSum()
    for x, k in zip(xs, ks):
        total.add(x, k)
    return total.value(den)


class _ExactSum(dict):
    """A sum of int multiples k x of exact values, with no Fraction per term: scalars as int numerators by
    denominator (self), polynomials as int numerators by denominator and monomial (polys), anything else
    raising exact's TypeError.  value(den) divides once: a Fraction, or a polynomial once one was added."""

    polys = None

    def add(self, x, k=1):
        if x.__class__ is int:  # ints and polynomials first: isinstance(x, Fraction) is slow on them
            self[1] = self.get(1, 0) + k * x
        elif isinstance(x, PsiPolynomial):
            if self.polys is None:
                self.polys = {}
            bucket = self.polys.setdefault(x._den, {})
            for m, c in x._terms.items():
                bucket[m] = bucket.get(m, 0) + k * c
        else:
            d = exact(x).denominator
            self[d] = self.get(d, 0) + k * x.numerator

    def value(self, den=1):
        lcd = lcm(*(self.polys or ()), *self)
        num = sum(n * (lcd // d) for d, n in self.items())
        if self.polys is None:
            return Fraction(num, lcd * den)
        terms = {(): num}
        for d, bucket in self.polys.items():
            scale = lcd // d
            for m, c in bucket.items():
                terms[m] = terms.get(m, 0) + c * scale
        return PsiPolynomial._from_terms(terms, lcd * den)
