"""Independent counting oracles used across the test suite.

Most of this works by exhaustive enumeration inside small finite abelian
groups; the HNF helpers rebuild the orbit enumeration one matrix entry at a
time.  All of it deliberately shares no code with the lattice machinery
under test.  Elements of a group prod Z/m_i are tuples under componentwise
addition.  The functions after class_count use the library's own types:
conveniences that several tests share, the primary-decomposition map onto
the orbits of a composite size, and the product-and-filter
reference that the keyed class split is checked against, the plain
Fraction-coefficient reference of polynomial arithmetic, the term-by-term
normal-form product, and the dict-per-term and text references of a
polynomial's JSON and str.
"""
import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from orbigenus.classes import (
    OrbitTypeMultiset,
    Permutation,
    _enumerate_classes_cached,
    _orbit_pool,
    _split_choices,
    centralizer_order,
    enumerate_classes,
)
from orbigenus.classfun import ClassFunction
from orbigenus.genus import lambda_series
from orbigenus.orbits import ALL_ORDERS, Mode, canonicalize, enumerate_orbits
from orbigenus.psipoly import PsiPolynomial, PsiSymbol, _monomial
from orbigenus.serialize import (
    _json_int, class_to_json, dumps, fraction_to_str, mode_to_json, orbit_to_json,
)


def partitions(n):
    """Integer partitions of n as weakly decreasing tuples."""
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def prime_factorization(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_types(n):
    """Isomorphism types of abelian groups of order n, as cyclic factor tuples."""
    types = [()]
    for p, e in prime_factorization(n):
        types = [
            t + tuple(p ** part for part in lam)
            for t in types
            for lam in partitions(e)
        ]
    return types


def _add(a, b, moduli):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def extend_span(sub, x, moduli):
    """Subgroup generated by an existing subgroup and one more element."""
    zero = (0,) * len(moduli)
    out = set(sub)
    cur = x
    while cur != zero:
        out.update(_add(s, cur, moduli) for s in sub)
        cur = _add(cur, x, moduli)
    return out


def span(moduli, gens):
    sub = {(0,) * len(moduli)}
    for g in gens:
        sub = extend_span(sub, g, moduli)
    return sub


@lru_cache(maxsize=None)
def aut_order(moduli):
    """|Aut(prod Z/m_i)| by exhausting generator images that span the group."""
    moduli = tuple(moduli)
    order = prod(moduli)
    elements = list(product(*(range(m) for m in moduli)))
    # the image of the i-th standard generator must be killed by m_i
    candidates = [
        [x for x in elements if all((m * xi) % mi == 0 for xi, mi in zip(x, moduli))]
        for m in moduli
    ]
    zero = (0,) * len(moduli)
    count = 0

    def rec(i, sub):
        nonlocal count
        # each later generator can grow the span by a factor of at most m_i
        if len(sub) * prod(moduli[i:]) < order:
            return
        if i == len(moduli):
            if len(sub) == order:
                count += 1
            return
        for x in candidates[i]:
            rec(i + 1, extend_span(sub, x, moduli))

    rec(0, {zero})
    return count


def surjection_count(q_moduli, h):
    """Number of surjections (Z/n)^h -> prod Z/m_i (every element is n-torsion)."""
    order = prod(q_moduli)
    elements = list(product(*(range(m) for m in q_moduli)))
    zero = (0,) * len(q_moduli)
    count = 0

    def rec(i, sub):
        nonlocal count
        if i == h:
            if len(sub) == order:
                count += 1
            return
        for x in elements:
            rec(i + 1, extend_span(sub, x, q_moduli))

    rec(0, {zero})
    return count


def subgroup_count(h, n):
    """Index-n subgroups of (Z/n)^h, counted through quotient isomorphism types.

    Each such subgroup is the kernel of a surjection onto some abelian
    group Q of order n, and each kernel arises from |Aut(Q)| surjections.
    """
    total = Fraction(0)
    for q in abelian_types(n):
        total += Fraction(surjection_count(q, h), aut_order(q))
    assert total.denominator == 1
    return total.numerator


def subgroups_bruteforce(h, n):
    """All index-n subgroups of (Z/n)^h as frozensets, via subgroup-lattice walk.

    Feasible only for very small groups; walks every subgroup of the whole
    group, then filters by order.
    """
    moduli = (n,) * h
    elements = list(product(*(range(n) for _ in range(h))))
    zero = frozenset({(0,) * h})
    seen = {zero}
    frontier = [zero]
    while frontier:
        sub = frontier.pop()
        for x in elements:
            if x in sub:
                continue
            bigger = frozenset(extend_span(sub, x, moduli))
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    target = n ** (h - 1)
    return [s for s in seen if len(s) == target]


def hnf_diagonals(h, n):
    """Positive h-tuples with product n, in lexicographic order."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [diag for diag in product(divisors, repeat=h) if prod(diag) == n]


def hnf_matrices_by_position(h, n):
    """Row-style HNF matrices of determinant n, filled one free entry at a time.

    For each diagonal, the free entries (i, j), i < j, range over
    0..d_j - 1 in row-major order, so the matrices come in the canonical
    orbit order.
    """
    out = []
    positions = [(i, j) for i in range(h) for j in range(i + 1, h)]
    for diag in hnf_diagonals(h, n):
        for values in product(*(range(diag[j]) for _, j in positions)):
            rows = [[0] * h for _ in range(h)]
            for i in range(h):
                rows[i][i] = diag[i]
            for (i, j), v in zip(positions, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def sublattice_count(h, n):
    """Index-n sublattices of Z^h: sum over d_1 ... d_h = n of prod_j d_j^(j-1)."""
    return sum(prod(d ** j for j, d in enumerate(diag)) for diag in hnf_diagonals(h, n))


def class_count(h, l, p=None):
    """Classes of commuting h-tuples of degree l, as the Euler transform of the orbit counts.

    A class is a multiset of orbits, and a(s) = sublattice_count(h, s) orbits
    of size s may be picked (s a power of p in p-power mode), so the count is
    [t^l] prod_s (1 - t^s)^(-a(s)).  Each factor is multiplied in as a(s)
    geometric series 1 / (1 - t^s).
    """
    def admissible(s):
        while p is not None and s % p == 0:
            s //= p
        return p is None or s == 1

    coeffs = [1] + [0] * l
    for s in range(1, l + 1):
        if not admissible(s):
            continue
        for _ in range(sublattice_count(h, s)):
            for n in range(s, l + 1):
                coeffs[n] += coeffs[n - s]
    return coeffs[l]


def from_cycles(l, cycles):
    """The permutation of degree l with the given cycles, fixing every other point."""
    img = list(range(l))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return Permutation(tuple(img))


def compose(a, b):
    """The permutation a after b: i goes to a(b(i)); ValueError unless the degrees agree."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(a.image[i] for i in b.image))


def identity(l):
    """The identity permutation of degree l."""
    return Permutation(tuple(range(l)))


def inverse(p):
    """The inverse of the permutation p."""
    inv = [0] * p.degree
    for i, j in enumerate(p.image):
        inv[j] = i
    return Permutation(tuple(inv))


def union(a, b):
    """The disjoint union of two classes: multiplicities add."""
    return OrbitTypeMultiset.from_pairs(a.h, a.mode, a.entries + b.entries)


def multiplicity(cls, orbit):
    """How often orbit occurs in the class cls, 0 if it does not."""
    return dict(cls.entries).get(orbit, 0)


def class_items(chi):
    """The (class, value) pairs of a class function, in canonical class order."""
    return list(zip(chi.classes, chi.values))


def indicator(target):
    """The class function that is 1 on the class target and 0 on the other classes of its degree."""
    return ClassFunction(
        target.h,
        target.mode,
        target.degree,
        [Fraction(1) if c == target else Fraction(0) for c in
         enumerate_classes(target.h, target.degree, target.mode)],
    )


def classfunction_to_json(chi):
    """A class function as JSON, read back from its text: h, mode, l, and its values with their
    classes in class order."""
    return json.loads(dumps({
        "h": chi.h,
        "mode": mode_to_json(chi.mode),
        "l": chi.l,
        "values": [
            {"class": class_to_json(c), "value": v}
            for c, v in zip(chi.classes, chi.values)
        ],
    }))


def value_json_reference(value):
    """The JSON of an exact value as plain lists and dicts, one dict per term and monomial entry,
    read through sorted_terms: the reference of the writer's term-by-term polynomial text."""
    if not isinstance(value, PsiPolynomial):
        return fraction_to_str(value)
    return terms_json_reference(value.sorted_terms())


def terms_json_reference(terms):
    """The JSON of (monomial, coefficient) pairs, in their order, as plain lists and dicts."""
    return [
        {
            "monomial": [
                {"family": sym.family, "orbit": orbit_to_json(sym.orbit), "power": e} for sym, e in mono
            ],
            "value": fraction_to_str(coeff),
        }
        for mono, coeff in terms
    ]


def terms_str_reference(terms):
    """The text of (monomial, coefficient) pairs, in their order, as str of a polynomial writes it."""
    parts = []
    for mono, coeff in terms:
        text = "*".join(str(sym) if e == 1 else f"{sym}^{e}" for sym, e in mono)
        parts.append(str(coeff) if not mono else text if coeff == 1 else f"{coeff}*{text}")
    return " + ".join(parts) or "0"


def mode_from_json(obj):
    """The mode that serialize.mode_to_json encodes as obj; ValueError for anything else."""
    if obj is None:
        return ALL_ORDERS
    if isinstance(obj, dict) and set(obj) == {"p"}:
        return Mode(_json_int(obj["p"], "mode field 'p'"))
    raise ValueError(f"not a mode object: {obj!r}")


def zero():
    """The zero polynomial."""
    return PsiPolynomial()


def variable(family, h):
    """The degree-one symbol of a family itself (its trivial-orbit value)."""
    return PsiPolynomial.symbol(PsiSymbol(family, enumerate_orbits(h, 1)[0]))


def degree(poly):
    """The total degree of a polynomial; the zero polynomial reports -1."""
    return max((sum(e for _, e in mono) for mono, _ in poly.sorted_terms()), default=-1)


def coefficient_of(poly, mono):
    """The coefficient in poly of (PsiSymbol, exponent) pairs, repeated symbols merged; 0 if absent."""
    exps = {}
    for sym, e in mono:
        exps[sym] = exps.get(sym, 0) + e
    for m, c in poly.sorted_terms():
        if dict(m) == exps:
            return c
    return Fraction(0)


def evaluate(poly, assignment):
    """Substitute a Fraction for every symbol of poly (a ring homomorphism to Q)."""
    total = Fraction(0)
    for mono, coeff in poly.sorted_terms():
        for sym, e in mono:
            coeff *= Fraction(assignment[sym]) ** e
        total += coeff
    return total


def reference_terms(pairs):
    """The Fraction-coefficient reference of (monomial, coefficient) pairs: a plain dict from
    monomial, a frozenset of (PsiSymbol, exponent) pairs with repeated symbols merged, to its
    nonzero Fraction coefficient.  It shares no code with PsiPolynomial's int numerators."""
    out = {}
    for mono, c in pairs:
        exps = {}
        for sym, e in mono:
            exps[sym] = exps.get(sym, 0) + e
        m = frozenset(exps.items())
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def reference_of(value):
    """The reference of a PsiPolynomial, read through sorted_terms, or of an int or Fraction."""
    return reference_terms(value.sorted_terms() if isinstance(value, PsiPolynomial) else [((), value)])


def reference_add(a, b, sign=1):
    """a + sign * b on references."""
    return reference_terms([*a.items(), *((m, sign * c) for m, c in b.items())])


def reference_mul(a, b):
    """a * b on references, term by term."""
    return reference_terms([([*m1, *m2], c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()])


def monomial_product_reference(a, b):
    """a * b for PsiPolynomials, term by term, each monomial the normal form _monomial(m1 + m2) of
    the two merged: the reference of the product that inserts a one-pair monomial in place."""
    acc = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            m = _monomial(m1 + m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return PsiPolynomial._from_terms(acc, a._den * b._den)


def lambda_operation(model, n, h=1, mode=ALL_ORDERS):
    """Coefficient of t^n in Lambda_t."""
    return lambda_series(model, n, h, mode).coefficient(n)


def key_of(cls):
    """The int key of an enumerated class: the key its class table puts at the class's position."""
    table = _enumerate_classes_cached(cls.h, cls.degree, cls.mode)
    return list(table.positions)[table.classes.index(cls)]


def class_of_key(h, mode, pool, key):
    """The class with this int key, rebuilt from the orbit pool as a checked OrbitTypeMultiset."""
    return OrbitTypeMultiset(h, mode, tuple((pool[i], m) for i, m in key))


def keyed_splits(m, degree):
    """The splits of the class m off the given degree, as (class, class, ways) triples.

    The split choices of m's key shape give each half's multiplicities, entry
    by entry; the halves are rebuilt with class_of_key, so a half that is not
    a valid sorted key raises.
    """
    pool = _orbit_pool(m.h, m.degree, m.mode)
    key = key_of(m)
    shape = tuple((pool[i].size, k) for i, k in key)
    return [
        (class_of_key(m.h, m.mode, pool, [(i, c) for (i, _), c in zip(key, choices) if c]),
         class_of_key(m.h, m.mode, pool, [(i, k - c) for (i, k), c in zip(key, choices) if c < k]),
         ways)
        for choices, ways in _split_choices(shape, degree)
    ]


def sub_multisets_reference(m, degree):
    """Every multiplicity choice up to m, filtered by degree, with z(m) / (z(a) z(b))."""
    for choice in product(*(range(k + 1) for _, k in m.entries)):
        if sum(c * o.size for (o, _), c in zip(m.entries, choice)) != degree:
            continue
        a = OrbitTypeMultiset(
            m.h, m.mode, tuple((o, c) for (o, _), c in zip(m.entries, choice) if c)
        )
        b = OrbitTypeMultiset(
            m.h, m.mode, tuple((o, k - c) for (o, k), c in zip(m.entries, choice) if k - c)
        )
        yield a, b, Fraction(centralizer_order(m), centralizer_order(a) * centralizer_order(b))


def primary_products(h, m, n):
    """The orbit of canonicalize(h, n rows(L_m) + m rows(L_n)) for each pair of orbits of coprime
    sizes m and n, in pair order.  That lattice is L_m meet L_n (1 = a m + b n splits each of its
    vectors), so by the primary decomposition of Z^h / L the map is a bijection onto the orbits of
    size m n."""
    return [
        canonicalize(h, [[n * x for x in row] for row in a.rows] + [[m * x for x in row] for row in b.rows])
        for a in enumerate_orbits(h, m) for b in enumerate_orbits(h, n)
    ]


# Filled by the acceptance suite; conftest prints it after the run so the
# per-criterion verdict lines survive pytest's output capture.
ACCEPTANCE_RESULTS: list = []
