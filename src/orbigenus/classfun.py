"""Exact class functions on commuting h-tuples, and the Young induction calculus.

A class function of degree l assigns a value (Fraction, or a polynomial
coefficient) to every conjugacy class of commuting h-tuples in Sigma_l.
The augmentation sums values against inverse centralizer orders; the inner
product of two class functions is the augmentation of their product.
Induction and restriction along the Young subgroup Sigma_j x Sigma_k come
with a literal group-averaging oracle for cross-checking.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .classes import (
    GuardExceededError,
    OrbitTypeMultiset,
    _orbit_type_from_images,
    centralizer_order,
    class_representative,
    enumerate_classes,
)
from .orbits import ALL_ORDERS, Mode
from .series import _SCALARS, _ExactSum, _ratio, exact


@lru_cache(maxsize=None)
def _class_index(h: int, l: int, mode: Mode) -> dict:
    return {c: i for i, c in enumerate(enumerate_classes(h, l, mode))}


class ClassFunction:
    """A function on the conjugacy classes of commuting h-tuples of degree l.

    Values are stored densely, aligned with the canonical class list for
    (h, l, mode).  Pointwise ring structure; parameters must match.
    """

    __slots__ = ("h", "mode", "l", "values")

    def __init__(self, h: int, mode: Mode, l: int, values):
        classes = enumerate_classes(h, l, mode)
        if hasattr(values, "items"):
            table = dict(values)
            vals = []
            for c in classes:
                if c not in table:
                    raise ValueError(f"missing value for class {c}")
                vals.append(exact(table.pop(c)))
            if table:
                raise ValueError(f"{len(table)} values do not correspond to any class")
        else:
            vals = [exact(v) for v in values]
            if len(vals) != len(classes):
                raise ValueError(
                    f"expected {len(classes)} values for (h={h}, l={l}, {mode}), got {len(vals)}"
                )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "values", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    @classmethod
    def constant(cls, h: int, mode: Mode, l: int, value) -> "ClassFunction":
        n = len(enumerate_classes(h, l, mode))
        return cls(h, mode, l, [exact(value)] * n)

    @classmethod
    def one(cls, h: int, mode: Mode, l: int) -> "ClassFunction":
        """The constant class function 1 (the trivial character)."""
        return cls.constant(h, mode, l, 1)

    @classmethod
    def indicator(cls, target: OrbitTypeMultiset) -> "ClassFunction":
        return cls(
            target.h,
            target.mode,
            target.degree,
            [Fraction(1) if c == target else Fraction(0) for c in
             enumerate_classes(target.h, target.degree, target.mode)],
        )

    @property
    def classes(self) -> tuple[OrbitTypeMultiset, ...]:
        return enumerate_classes(self.h, self.l, self.mode)

    def value(self, cls: OrbitTypeMultiset):
        i = _class_index(self.h, self.l, self.mode).get(cls)
        if i is None:
            raise KeyError(f"not a class of (h={self.h}, l={self.l}, {self.mode}): {cls}")
        return self.values[i]

    def items(self):
        return list(zip(self.classes, self.values))

    def _check_match(self, other: "ClassFunction"):
        if (self.h, self.mode, self.l) != (other.h, other.mode, other.l):
            raise ValueError("class function parameters do not match")

    def _pointwise(self, other, op):
        """op applied value by value, against a matching ClassFunction or a scalar."""
        if isinstance(other, ClassFunction):
            self._check_match(other)
            values = map(op, self.values, other.values)
        elif isinstance(other, _SCALARS):
            c = exact(other)
            values = (op(a, c) for a in self.values)
        else:
            return NotImplemented
        return ClassFunction(self.h, self.mode, self.l, values)

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return ClassFunction(self.h, self.mode, self.l, [-a for a in self.values])

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __mul__(self, other):
        return self._pointwise(other, operator.mul)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return (
            (self.h, self.mode, self.l) == (other.h, other.mode, other.l)
            and all(a == b for a, b in zip(self.values, other.values))
        )

    __hash__ = None

    def __repr__(self):
        return f"ClassFunction(h={self.h}, l={self.l}, {self.mode}, {len(self.values)} classes)"


def augmentation(chi: ClassFunction):
    """Sum of chi over the group, divided by the group order.

    Equals sum over classes of chi(c)/centralizer_order(c), scalars summed as
    integer numerators; for the constant function 1 of degree l it gives the
    number of commuting h-tuples divided by l!.
    """
    total = _ExactSum()
    for c, v in zip(chi.classes, chi.values):
        total.add(v, centralizer_order(c))
    return total.value()


def inner_product(chi: ClassFunction, xi: ClassFunction):
    """Bilinear pairing: augmentation(chi * xi), so ValueError unless (h, l, mode) match.

    Symmetric and unconjugated: the values are exact rationals or polynomials.
    """
    return augmentation(chi * xi)


def induce_young(chi: ClassFunction, xi: ClassFunction) -> ClassFunction:
    """Induction from the Young subgroup Sigma_j x Sigma_k up to Sigma_{j+k}.

    The value on a class m sums chi(a) xi(b) over the splits of the orbit
    multiset as a disjoint union a + b with |a| = j, weighted by the integer
    prod_T C(m_T, a_T) that ``sub_multisets`` yields with each split: the
    centralizer ratio z(m) / (z(a) z(b)).
    """
    if (chi.h, chi.mode) != (xi.h, xi.mode):
        raise ValueError("class function parameters do not match")
    h, mode = chi.h, chi.mode
    j, k = chi.l, xi.l
    chi_ratios = dict(zip(chi.classes, map(_ratio, chi.values)))
    xi_ratios = dict(zip(xi.classes, map(_ratio, xi.values)))
    values = []
    for m in enumerate_classes(h, j + k, mode):
        total = _ExactSum()
        for a, b, ways in m.sub_multisets(j):
            (xa, da), (xb, db) = chi_ratios[a], xi_ratios[b]
            total.add(ways * xa * xb, da * db)
        values.append(total.value())
    return ClassFunction(h, mode, j + k, values)


def restrict_young(zeta: ClassFunction, j: int, k: int) -> dict:
    """Restriction to the Young subgroup, as a table on pairs of classes.

    Keys are (class of degree j, class of degree k); the value is zeta on
    their disjoint union.
    """
    if j < 0 or k < 0 or j + k != zeta.l:
        raise ValueError(f"split {j}+{k} does not match degree {zeta.l}")
    h, mode = zeta.h, zeta.mode
    out = {}
    for a in enumerate_classes(h, j, mode):
        for b in enumerate_classes(h, k, mode):
            out[(a, b)] = zeta.value(a.union(b))
    return out


def product_inner_product(chi: ClassFunction, xi: ClassFunction, table: dict):
    """Pairing on the product group Sigma_j x Sigma_k.

    ``table`` maps (class_j, class_k) pairs to values, as produced by
    restrict_young; chi and xi supply the degree-j and degree-k factors of
    the other side.  Sums chi(a) xi(b) table[(a, b)] / (z(a) z(b)), reading
    both class functions in class order and each z once per class.
    """
    if (chi.h, chi.mode) != (xi.h, xi.mode):
        raise ValueError("class function parameters do not match")
    xi_z = [(b, *_ratio(vb, centralizer_order(b))) for b, vb in zip(xi.classes, xi.values)]
    total = _ExactSum()
    for a, va in zip(chi.classes, chi.values):
        if va == 0:
            continue
        xa, da = _ratio(va, centralizer_order(a))
        for b, xb, db in xi_z:
            xw, dw = _ratio(table[(a, b)])
            total.add(xa * xb * xw, da * db * dw)
    return total.value()


def thm_d_induction_oracle(
    chi: ClassFunction, xi: ClassFunction, guard: int = 6
) -> ClassFunction:
    """Induction computed by literal averaging over the big symmetric group.

    For each class of degree n = j + k, takes an explicit representative
    tuple and sums chi x xi over all g in Sigma_n that conjugate the tuple
    into the Young subgroup, divided by j! k!.  Exponential in n; guarded.
    """
    if (chi.h, chi.mode) != (xi.h, xi.mode):
        raise ValueError("class function parameters do not match")
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
