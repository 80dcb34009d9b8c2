"""Exact class functions on commuting h-tuples, and the Young induction calculus.

A class function of degree l assigns a value (Fraction, or a polynomial
coefficient) to every conjugacy class of commuting h-tuples in Sigma_l.
The augmentation sums values against inverse centralizer orders; the inner
product of two class functions is the augmentation of their product.  Both weight
numerators over one denominator D by the class sizes l!/z(c), and divide once by D l!.
Induction and restriction along the Young subgroup Sigma_j x Sigma_k come
with a literal group-averaging oracle for cross-checking.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from fractions import Fraction
from math import factorial

from .classes import (
    GuardExceededError,
    OrbitTypeMultiset,
    _enumerate_classes_cached,
    _orbit_type_from_images,
    _young_splits,
    _young_unions,
    class_representative,
    enumerate_classes,
)
from .orbits import Mode, _count, _expect
from .psipoly import _divided, _numerators, _quotient, _Ring, _scalar, exact


class ClassFunction(_Ring):
    """A function on the conjugacy classes of commuting h-tuples of degree l.

    Values are stored densely, aligned with the canonical class list for
    (h, l, mode).  Pointwise ring structure; parameters must match.  +, - and * take a
    ClassFunction or any exact scalar, polynomials included, and give NotImplemented otherwise.
    """

    __slots__ = _fields = ("h", "mode", "l", "values")

    def __init__(self, h: int, mode: Mode, l: int, values):
        classes = enumerate_classes(h, l, mode)
        vals = [exact(v) for v in values]
        if len(vals) != len(classes):
            raise ValueError(
                f"expected {len(classes)} values for (h={h}, l={l}, {mode}), got {len(vals)}"
            )
        self._set(h, mode, l, tuple(vals))

    @classmethod
    def _trusted(cls, h: int, mode: Mode, l: int, values) -> "ClassFunction":
        """Unchecked: values must already be exact and aligned with the class table of (h, l, mode)."""
        chi = cls.__new__(cls)
        chi._set(h, mode, l, tuple(values))
        return chi

    @classmethod
    def one(cls, h: int, mode: Mode, l: int) -> "ClassFunction":
        """The constant class function 1 (the trivial character)."""
        return cls(h, mode, l, [Fraction(1)] * len(enumerate_classes(h, l, mode)))

    @property
    def classes(self) -> tuple[OrbitTypeMultiset, ...]:
        return enumerate_classes(self.h, self.l, self.mode)

    def _table(self):
        return _enumerate_classes_cached(self.h, self.l, self.mode)

    def value(self, cls: OrbitTypeMultiset):
        """The value on cls, found by bisecting the canonical class order; KeyError if cls is not there."""
        classes = self.classes
        i = bisect_left(classes, cls.entries, key=operator.attrgetter("entries"))
        if i == len(classes) or classes[i] != cls:
            raise KeyError(f"not a class of (h={self.h}, l={self.l}, {self.mode}): {cls}")
        return self.values[i]

    def _pointwise(self, other, op):
        """op applied value by value, against a matching ClassFunction or an exact scalar."""
        if isinstance(other, ClassFunction):
            _matched(self, other)
            values = map(op, self.values, other.values)
        elif _scalar(other):
            values = [op(a, other) for a in self.values]
        else:
            return NotImplemented
        return ClassFunction._trusted(self.h, self.mode, self.l, values)

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __mul__(self, other):
        return self._pointwise(other, operator.mul)

    def _scaled(self, c) -> "ClassFunction":
        return self._pointwise(c, operator.mul)

    def _one(self) -> "ClassFunction":
        return ClassFunction.one(self.h, self.mode, self.l)

    __hash__ = None  # equal when h, mode, l and values are

    def __repr__(self):
        return f"ClassFunction(h={self.h}, l={self.l}, {self.mode}, {len(self.values)} classes)"


def _matched(chi, *others, same_degree: bool = True) -> None:
    """The gate of every routine here: TypeError naming ClassFunction unless every argument is one,
    then ValueError unless all share h and mode, and l too if same_degree."""
    for f in (chi, *others):
        _expect(f, ClassFunction)
    if any((chi.h, chi.mode) != (xi.h, xi.mode) or (same_degree and chi.l != xi.l) for xi in others):
        raise ValueError("class function parameters do not match")


def augmentation(chi: ClassFunction):
    """Sum of chi over the group, divided by the group order.

    Equals sum over classes of chi(c)/z(c), as one Fraction or one polynomial;
    for the constant function 1 of degree l it gives the number of commuting
    h-tuples divided by l!.
    """
    _matched(chi)
    nums, den = _numerators(chi.values)
    return _quotient(nums, chi._table().counts, den * factorial(chi.l))


def inner_product(chi: ClassFunction, xi: ClassFunction):
    """Bilinear, symmetric, unconjugated pairing: augmentation(chi * xi), without building chi * xi.

    TypeError unless chi and xi are ClassFunctions, ValueError unless their (h, l, mode) match.
    """
    _matched(chi, xi)
    (xs, dx), (ys, dy) = _numerators(chi.values), _numerators(xi.values)
    return _quotient(map(operator.mul, xs, ys), chi._table().counts, dx * dy * factorial(chi.l))


def induce_young(chi: ClassFunction, xi: ClassFunction) -> ClassFunction:
    """Induction from the Young subgroup Sigma_j x Sigma_k up to Sigma_{j+k}.

    The value on a class m sums chi(a) xi(b) over the splits of the orbit
    multiset as a disjoint union a + b with |a| = j, weighted by the integer
    prod_T C(m_T, a_T), the centralizer ratio z(m) / (z(a) z(b)), read by position from
    the split plan of (h, n, mode, j); chi and xi are read over one denominator each.
    """
    _matched(chi, xi, same_degree=False)
    n = chi.l + xi.l
    (chi_nums, chi_den), (xi_nums, xi_den) = _numerators(chi.values), _numerators(xi.values)
    values = [_divided(sum([ways * chi_nums[a] * xi_nums[b] for ways, a, b in splits]), chi_den * xi_den)
              for splits in _young_splits(chi.h, n, chi.mode, chi.l)]
    return ClassFunction._trusted(chi.h, chi.mode, n, values)


def restrict_young(zeta: ClassFunction, j: int, k: int) -> tuple:
    """Restriction to the Young subgroup, as a table of rows on pairs of classes.

    Row a holds one value per class b of degree k, and there is one row per
    class a of degree j, both in enumerate_classes order.  The value is zeta
    on the disjoint union of a and b, read by position from the union plan of
    (h, j, k, mode), which merges int keys.  No split is used, so it checks
    induce_young independently.  j and k must be ints.
    """
    _matched(zeta)
    if _count(j, "j") < 0 or _count(k, "k") < 0 or j + k != zeta.l:
        raise ValueError(f"split {j}+{k} does not match degree {zeta.l}")
    values = zeta.values
    return tuple(tuple([values[p] for p in row]) for row in _young_unions(zeta.h, j, k, zeta.mode))


def product_inner_product(chi: ClassFunction, xi: ClassFunction, table: tuple):
    """Pairing on the product group Sigma_j x Sigma_k.

    ``table`` has one row per class of chi's degree j and one entry per
    class of xi's degree k, both in enumerate_classes order, as produced by
    restrict_young; chi and xi supply the degree-j and degree-k factors of
    the other side.  Sums chi(a) xi(b) table[a][b] / (z(a) z(b)) by position, as
    numerators weighted by |a| |b| and divided once.  ValueError names the
    expected shape if ``table`` or one of its rows has another.
    """
    _matched(chi, xi, same_degree=False)
    rows, cols = len(chi.values), len(xi.values)
    if len(table) != rows or any(len(row) != cols for row in table):
        raise ValueError(f"table must have {rows} rows of {cols} values")
    (xs, dx), (ys, dy) = _numerators(chi.values), _numerators(xi.values)
    ts, dt = _numerators(itertools.chain.from_iterable(table))
    xs, ys = (list(map(operator.mul, v, f._table().counts)) for v, f in ((xs, chi), (ys, xi)))
    return _quotient(map(operator.mul, [x * y for x in xs for y in ys], ts), itertools.repeat(1),
                     dx * dy * dt * factorial(chi.l) * factorial(xi.l))


def thm_d_induction_oracle(
    chi: ClassFunction, xi: ClassFunction, guard: int = 6
) -> ClassFunction:
    """Induction computed by literal averaging over the big symmetric group.

    For each class of degree n = j + k, takes an explicit representative
    tuple and sums chi x xi over all g in Sigma_n that conjugate the tuple
    into the Young subgroup, divided by j! k!.  Exponential in n; guarded.
    """
    _matched(chi, xi, same_degree=False)
    _count(guard, "guard", "nonnegative")
    h, mode = chi.h, chi.mode
    j, k = chi.l, xi.l
    n = j + k
    if n > guard:
        raise GuardExceededError(f"degree {n} exceeds induction oracle guard {guard}")

    values = []
    for m in enumerate_classes(h, n, mode):
        rep = [p.image for p in class_representative(m)]
        total = Fraction(0)
        for g in itertools.permutations(range(n)):
            ginv = [0] * n
            for i, gi in enumerate(g):
                ginv[gi] = i
            conj = [tuple(g[p[ginv[x]]] for x in range(n)) for p in rep]
            # the conjugated tuple lies in the Young subgroup iff the first
            # block is preserved (the second then follows)
            if any(p[x] >= j for p in conj for x in range(j)):
                continue
            a_type = _orbit_type_from_images(h, [p[:j] for p in conj], mode)
            b_type = _orbit_type_from_images(
                h, [tuple(p[x] - j for x in range(j, n)) for p in conj], mode
            )
            total = total + chi.value(a_type) * xi.value(b_type)
        values.append(Fraction(1, factorial(j) * factorial(k)) * total)
    return ClassFunction(h, mode, n, values)
