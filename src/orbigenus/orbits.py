"""Finite transitive Z^h-sets as canonical sublattices of Z^h.

A transitive Z^h-set of size n is determined up to isomorphism by its
stabilizer sublattice L of index n.  We store L as the unique row-style
Hermite normal form basis, so isomorphism testing is equality testing.
"""
from __future__ import annotations

import itertools
from functools import total_ordering
from math import prod


def _count(n, name: str, bound: str | None = None) -> int:
    """n, a rank, size, degree, precision or dimension, checked before any cache or allocation:
    TypeError unless an int (not a bool), then ValueError unless n is bound (positive/nonnegative)."""
    if type(n) is not int:
        raise TypeError(f"{name} must be an int, got {n!r}")
    if bound is not None and n < (1 if bound == "positive" else 0):
        raise ValueError(f"{name} must be {bound}")
    return n


def _expect(value, kind: type):
    """value, gated before it is read: TypeError naming kind ("expected a Permutation, got tuple")
    unless value is one."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"expected {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _check_mode(mode) -> None:
    """Gate an order mode before any cache or allocation: TypeError unless a Mode."""
    if not isinstance(mode, Mode):
        raise TypeError(f"mode must be a Mode, got {mode!r}")


class ModeError(ValueError):
    """Requested size/order is not admissible for the order mode."""


# The first 13 primes: Miller-Rabin with these bases is exact below _PRIME_BOUND, the
# smallest composite that is a strong probable prime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether the int p is prime, by a deterministic Miller-Rabin test;
    ValueError from _PRIME_BOUND up, where the test is no longer exact."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND}, where the primality test is exact")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _Value:
    """Base of the immutable classes.  A subclass names its fields in ``_fields`` and ``__slots__``
    and sets each slot once through its setter in ``_setters``, in slot order, as ``_set`` does;
    setting or deleting an attribute then raises AttributeError.  Like a frozen dataclass, it
    compares, hashes, shows and pickles (through its checked constructor) as its field tuple.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Mode(_Value):
    """Order constraint on the acting group: all orders, or powers of a fixed prime.

    ``Mode()`` plays the role of Z^h acting with no order restriction;
    ``Mode(p)`` restricts to p-power orders (the p-typical situation).  A p
    that is not an int (a float or bool) raises TypeError, a non-prime int ValueError,
    and so does a p from _PRIME_BOUND up (about 3.3e24), beyond the exact primality test.
    """

    __slots__ = _fields = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(_count(p, "p")):
            raise ValueError(f"p must be prime, got {p!r}")
        self._set(p)

    def admits_size(self, n: int) -> bool:
        if n < 1:
            return False
        if self.p is None:
            return True
        while n % self.p == 0:
            n //= self.p
        return n == 1

    def sizes_up_to(self, bound: int) -> list[int]:
        """Admissible orbit sizes in 1..bound, increasing."""
        if self.p is None:
            return list(range(1, bound + 1))
        out = []
        s = 1
        while s <= bound:
            out.append(s)
            s *= self.p
        return out

    def __str__(self) -> str:
        return "all-orders" if self.p is None else f"{self.p}-power"


ALL_ORDERS = Mode()


@total_ordering
class TransitiveOrbit(_Value):
    """A finite transitive Z^h-set, given by the HNF basis of its stabilizer lattice.

    ``rows`` generate the stabilizer L inside Z^h.  Canonical form: upper
    triangular, positive diagonal, and 0 <= rows[i][j] < rows[j][j] for
    i < j.  The size of the set is the index [Z^h : L] = det = product of the diagonal.
    h and the entries must be ints (not floats or bools); rows are stored as tuples.

    Orbits compare by ``sort_key``; this is the canonical order that every
    enumeration, class and monomial in the package follows.
    """

    _fields = ("h", "rows")
    __slots__ = (*_fields, "size", "_sort_key")

    def __init__(self, h: int, rows):
        _count(h, "h", "positive")
        rows = tuple(map(tuple, rows))
        if any(type(x) is not int for row in rows for x in row):
            raise TypeError(f"each HNF entry must be an int, got {rows!r}")
        if len(rows) != h or any(len(r) != h for r in rows):
            raise ValueError("rows must form an h x h matrix")
        diagonal = tuple(rows[i][i] for i in range(h))
        for i, row in enumerate(rows):
            _check_hnf_row(row, i, diagonal)
        _set_h(self, h)
        _set_rows(self, rows)
        _set_size(self, prod(diagonal))

    def _astuple(self) -> tuple:  # the key of every psi table and symbol: no loop over _fields
        return (self.h, self.rows)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.h))

    @property
    def sort_key(self):
        try:  # built on first read, then kept: most orbits are never compared
            return self._sort_key
        except AttributeError:
            off = tuple(self.rows[i][j] for i in range(self.h) for j in range(i + 1, self.h))
            key = (self.h, self.size, self.diagonal, off)
            _set_sort_key(self, key)
            return key

    def __lt__(self, other):
        if not isinstance(other, TransitiveOrbit):
            return NotImplemented
        return self.sort_key < other.sort_key

    def is_trivial(self) -> bool:
        return self.size == 1

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical representative of v modulo the stabilizer lattice.

        Returns the unique w = v mod L with 0 <= w[i] < rows[i][i].
        """
        w = list(v)
        _reduce(w, self.rows, 0)
        return tuple(w)

    def points(self) -> list[tuple[int, ...]]:
        """Coset representatives of Z^h / L, in lexicographic order."""
        return [tuple(v) for v in itertools.product(*(range(d) for d in self.diagonal))]

    def label(self) -> str:
        """Compact matrix label, rows joined by '|': e.g. '1,1|0,2'."""
        return "|".join(",".join(str(e) for e in row) for row in self.rows)

    def __str__(self) -> str:
        return f"T[{self.label()}]"


_set_h, _set_rows, _set_size, _set_sort_key = TransitiveOrbit._setters  # enumeration sets three per orbit


def _reduce(w: list, rows, start: int) -> None:
    """Reduce w in place modulo the triangular rows[start:], into 0 <= w[i] < rows[i][i]."""
    for i in range(start, len(rows)):
        row = rows[i]
        q = w[i] // row[i]
        if q:
            for j in range(i, len(row)):
                w[j] -= q * row[j]


def _check_hnf_row(row, i: int, diagonal) -> None:
    """Check that ``row`` can be row i of the HNF matrix with this diagonal.

    Canonical form is a condition on single rows: zero left of the diagonal,
    a positive diagonal entry, and 0 <= row[j] < diagonal[j] for every j > i.
    Both callers build or check rows of length h first.
    """
    h = len(diagonal)
    if any(row[j] != 0 for j in range(i)):
        raise ValueError("matrix is not upper triangular")
    if row[i] <= 0:
        raise ValueError("diagonal entries must be positive")
    for j in range(i + 1, h):
        if not 0 <= row[j] < diagonal[j]:
            raise ValueError("off-diagonal entry not reduced")


def _diagonal_choices(n: int, h: int):
    """All h-tuples of positive integers with product n, lexicographic."""
    if h == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _diagonal_choices(n // d, h - 1):
                yield (d,) + rest


def enumerate_orbits(h: int, n: int, mode: Mode = ALL_ORDERS) -> tuple[TransitiveOrbit, ...]:
    """One canonical representative per isomorphism class of transitive sets of size n.

    In p-power mode n must be a power of p (the diagonals then are p-powers
    automatically).  Deterministic order: by diagonal vector, then
    off-diagonal entries lexicographically.
    """
    return tuple(_orbit_stream(h, n, mode))


def _orbit_stream(h: int, n: int, mode: Mode):
    """The orbits of enumerate_orbits(h, n, mode), one at a time; h, n and mode are checked now.
    hecke_operator reads each once: it is freed when the next is built, and the cyclic GC
    never rescans a tuple of every orbit of size n."""
    _count(h, "h", "positive")
    _count(n, "orbit size", "positive")
    _check_mode(mode)
    if not mode.admits_size(n):
        raise ModeError(f"size {n} is not admissible in {mode} mode")
    return _canonical_orbits(h, n)


def _canonical_orbits(h: int, n: int):
    """The orbits of size n, built unchecked from rows that each passed _check_hnf_row.

    For each diagonal d, the admissible rows i are (0,)*i + (d_i,) + tail,
    tail ranging over range(d_j) for j > i; each such row is built once and
    passes the same row check as the public constructor, and the matrices
    are the product of these row lists, sharing the row tuples.  So every
    orbit is checked canonical through its rows, not once more as a whole.
    """
    new = TransitiveOrbit.__new__
    for diag in _diagonal_choices(n, h):
        row_lists = []
        for i in range(h):
            head = (0,) * i + (diag[i],)
            rows = [head + tail for tail in itertools.product(*map(range, diag[i + 1:]))]
            for row in rows:
                _check_hnf_row(row, i, diag)
            row_lists.append(rows)
        # lexicographic in the row-major off-diagonal entries: already sorted
        for matrix in itertools.product(*row_lists):
            orbit = new(TransitiveOrbit)
            _set_h(orbit, h)
            _set_rows(orbit, matrix)
            _set_size(orbit, n)
            yield orbit


def canonicalize(h: int, generators) -> TransitiveOrbit:
    """Canonical HNF orbit for the sublattice spanned by integer generator vectors.

    Accepts any number of generators (rows) of int entries, else TypeError; raises
    ValueError when they span a sublattice of infinite index (rank below h).
    """
    _count(h, "h", "positive")
    work = []
    for g in generators:
        row = list(g)
        if any(type(x) is not int for x in row):
            raise TypeError(f"each generator entry must be an int, got {g!r}")
        if len(row) != h:
            raise ValueError(f"generator {g!r} does not have length {h}")
        if any(row):
            work.append(row)

    pivots: list[list[int]] = []
    for col in range(h):
        live = [r for r in work if r[col] != 0]
        if not live:
            raise ValueError("generators span a sublattice of infinite index")
        # gcd elimination within this column
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                for j in range(col, h):
                    r[j] -= q * base[j]
            live = [r for r in live if r[col] != 0]
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        pivots.append(pivot)
        work = [r for r in work if r is not live[0] and any(r)]

    # reduce above-diagonal entries: 0 <= entry < column pivot
    for i in range(h):
        _reduce(pivots[i], pivots, i + 1)
    return TransitiveOrbit(h, pivots)

