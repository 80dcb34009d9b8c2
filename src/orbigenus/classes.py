"""Conjugacy classes of commuting h-tuples in symmetric groups.

A commuting h-tuple in Sigma_l is an action of Z^h on l points; its
conjugacy class is the multiset of isomorphism types of the orbits.  We
represent classes as multisets of canonical transitive orbits with total
size l, and provide the centralizer/class-size count, a decomposition map
from explicit permutation tuples, explicit representatives, and a
brute-force enumeration over all tuples for cross-checking.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod

from .orbits import (
    ALL_ORDERS, Mode, ModeError, TransitiveOrbit, _check_mode, _count, _expect, _Value, canonicalize,
    enumerate_orbits,
)


class GuardExceededError(ValueError):
    """A brute-force computation was asked to exceed its size guard."""


class Permutation(_Value):
    """A permutation of {0, ..., l-1} stored as its image tuple."""

    __slots__ = _fields = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if any(type(x) is not int for x in image):
            raise TypeError(f"each image entry must be an int, got {image!r}")
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image!r}")
        self._set(image)

    @property
    def degree(self) -> int:
        return len(self.image)

    def cycle_lengths(self) -> list[int]:
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            n = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.image[j]
                n += 1
            out.append(n)
        return out

    def order_admissible(self, mode: Mode) -> bool:
        # the order is the lcm of the cycle lengths, so p-power order is
        # exactly "every cycle length is a p-power"
        _check_mode(mode)
        return all(mode.admits_size(n) for n in self.cycle_lengths())


def _on_one_point_set(perms) -> list[Permutation]:
    """perms as a list: TypeError unless each is a Permutation, ValueError unless they share a degree."""
    perms = [_expect(a, Permutation) for a in perms]
    if len({a.degree for a in perms}) > 1:
        raise ValueError("permutations act on different point sets")
    return perms


def commute(a: Permutation, b: Permutation) -> bool:
    ia, ib = (x.image for x in _on_one_point_set((a, b)))
    return all(ia[ib[i]] == ib[ia[i]] for i in range(len(ia)))


class OrbitTypeMultiset(_Value):
    """A conjugacy class of commuting h-tuples: orbits with multiplicities.

    ``entries`` is sorted by orbit, with multiplicities >= 1; the degree l
    is the total number of points moved.  Entries are stored as a tuple of pairs.
    An entry that is not a TransitiveOrbit and an int (not a bool) raises TypeError.
    """

    __slots__ = _fields = ("h", "mode", "entries")

    def __init__(self, h: int, mode: Mode, entries):
        _check_mode(mode)
        entries = tuple(map(tuple, entries))
        for orbit, mult in entries:
            if _expect(orbit, TransitiveOrbit).h != h:
                raise ValueError("orbit rank does not match h")
            if _count(mult, "multiplicity") < 1:
                raise ValueError("multiplicities must be positive")
            if not mode.admits_size(orbit.size):
                raise ModeError(f"orbit size {orbit.size} not admissible in {mode} mode")
        if not all(a < b for (a, _), (b, _) in zip(entries, entries[1:])):
            raise ValueError("entries must be sorted by orbit and duplicate-free")
        self._set(h, mode, entries)

    @classmethod
    def from_pairs(cls, h: int, mode: Mode, pairs) -> "OrbitTypeMultiset":
        acc: dict[TransitiveOrbit, int] = {}
        for orbit, mult in pairs:
            acc[orbit] = acc.get(orbit, 0) + mult
        return cls(h, mode, tuple((o, m) for o, m in sorted(acc.items()) if m))

    @property
    def degree(self) -> int:
        return sum(orbit.size * mult for orbit, mult in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "[]"
        return " + ".join(
            (f"{m}*{o}" if m > 1 else str(o)) for o, m in self.entries
        )


def centralizer_order(cls: OrbitTypeMultiset) -> int:
    """Size of the simultaneous centralizer of a representative tuple.

    Product over orbit types of |T|^mult * mult!: automorphisms of each
    copy, times permutations of identical copies.
    """
    entries = _expect(cls, OrbitTypeMultiset).entries
    return prod(orbit.size ** mult * factorial(mult) for orbit, mult in entries)


def class_size(cls: OrbitTypeMultiset) -> int:
    n = factorial(_expect(cls, OrbitTypeMultiset).degree)
    z = centralizer_order(cls)
    assert n % z == 0
    return n // z


def _check_walk(h: int, top: int, mode: Mode, name: str = "precision") -> None:
    """Gate h >= 1, then top >= 0 as name, then mode: at top = 0 no orbit is built to check them."""
    _count(h, "h", "positive")
    _count(top, name, "nonnegative")
    _check_mode(mode)


def _orbit_pool(h: int, top: int, mode: Mode) -> list[TransitiveOrbit]:
    """The orbits of every admissible size <= top, by size, each size in canonical order, after _check_walk."""
    _check_walk(h, top, mode)
    pool: list[TransitiveOrbit] = []
    for s in mode.sizes_up_to(top):
        pool.extend(enumerate_orbits(h, s, mode))
    return pool


def _walk_classes(pool: list[TransitiveOrbit], top: int):
    """Walk the tree of orbit multisets from the pool of total size <= top, depth first.

    A node adds mult copies of pool[i] to its parent, whose entries all come
    from pool[:i]; the root is the empty class and is not yielded.  Every
    other node is yielded once, on the way down, as (depth, i, mult, degree):
    the node's entries are those of the last node yielded at each smaller
    depth, then (pool[i], mult).  Taking pool[i] before pool[i + 1], and
    fewer copies before more, visits the classes of each degree in canonical
    order: lexicographic in their (orbit, multiplicity) entries.
    """
    sizes = [orbit.size for orbit in pool]
    n = len(sizes)
    stack: list[tuple[int, int, int]] = []  # (i, mult, parent degree) per depth
    i, mult, base = 0, 1, 0  # the next node to try: the root's first child
    while True:
        degree = base + mult * sizes[i] if i < n else top + 1
        if degree <= top:
            stack.append((i, mult, base))
            yield len(stack), i, mult, degree
            i, mult, base = i + 1, 1, degree  # its first child
        elif mult > 1:
            i, mult = i + 1, 1  # no more copies fit: the next orbit
        elif stack:
            # pool[i] does not fit once, and the pool is sorted by size, so
            # nothing later fits either: the parent's next sibling
            i, mult, base = stack.pop()
            mult += 1
        else:
            return


class _ClassTable(_Value):
    """The classes of one (h, l, mode) in canonical order, with int keys and sizes; frozen, as it is cached.

    A key is ((pool index, multiplicity), ...).  Each degree's orbit pool is a prefix of the
    next one's, so keys of all degrees share one numbering.  positions maps key -> position,
    built in canonical order; counts holds the class sizes l! / z, sizes the orbit size by pool index.
    """

    __slots__ = _fields = ("classes", "positions", "counts", "sizes")

    def __init__(self, classes: tuple, positions: dict, counts: tuple, sizes: tuple):
        self._set(classes, positions, counts, sizes)


@lru_cache(maxsize=None)
def _enumerate_classes_cached(h: int, l: int, mode: Mode) -> _ClassTable:
    """The class table of (h, l, mode), from one walk of the class tree."""
    pool = _orbit_pool(h, l, mode)
    classes, positions = ([OrbitTypeMultiset(h, mode, ())], {(): 0}) if l == 0 else ([], {})
    key: list[tuple[int, int]] = []
    new = OrbitTypeMultiset.__new__  # the walk yields sorted admissible rank-h entries: no check
    for depth, i, mult, degree in _walk_classes(pool, l):
        del key[depth - 1:]
        key.append((i, mult))
        if degree == l:
            positions[tuple(key)] = len(classes)
            cls = new(OrbitTypeMultiset)
            cls._set(h, mode, tuple([(pool[i], m) for i, m in key]))
            classes.append(cls)
    counts = tuple([factorial(l) // centralizer_order(cls) for cls in classes])
    return _ClassTable(tuple(classes), positions, counts, tuple(orbit.size for orbit in pool))


def _split_choices(shape, degree: int) -> list:
    """The ways to take the given degree off a key of shape ((orbit size, multiplicity), ...).

    Each is (choices, ways): choices holds the copies of each entry's orbit taken, in
    lexicographic order, and ways = prod_T C(m_T, c_T) is the centralizer ratio z(m) / (z(a) z(b)).
    """
    partial = [((), 1, degree)]  # choices for the entries so far, and the degree left to take
    room = sum(m * s for s, m in shape)
    for s, m in shape:
        room -= m * s  # what the later entries can still take
        partial = [
            (choices + (c,), ways * comb(m, c), rest - c * s)
            for choices, ways, rest in partial
            # c copies of this orbit, so that 0 <= rest - c * s <= room
            for c in range(max(0, -((room - rest) // s)), min(m, rest // s) + 1)
        ]
    return [(choices, ways) for choices, ways, rest in partial if not rest]


def _merge_keys(a, b) -> tuple:
    """The key of the union of the classes with keys a and b: multiplicities add."""
    merged = dict(a)
    for i, m in b:
        merged[i] = merged.get(i, 0) + m
    return tuple(sorted(merged.items()))


@lru_cache(maxsize=1)
def _young_splits(h: int, n: int, mode: Mode, j: int) -> tuple:
    """The split plan: per class of degree n, in table order, one (ways, position at degree j, position
    at degree n - j) per split from _split_choices, searched once per key shape; one plan is kept."""
    table = _enumerate_classes_cached(h, n, mode)
    left, right = (_enumerate_classes_cached(h, d, mode).positions for d in (j, n - j))
    by_shape: dict = {}  # shape -> [(left multiplicities, right multiplicities, ways)]
    plan = []
    for key in table.positions:
        shape = tuple([(table.sizes[i], m) for i, m in key])
        if shape not in by_shape:
            by_shape[shape] = [(c, tuple([m - x for (_, m), x in zip(shape, c)]), ways)
                               for c, ways in _split_choices(shape, j)]
        ids = [i for i, _ in key]
        plan.append(tuple([  # compress drops the entries a half takes no copy of
            (ways, left[tuple(itertools.compress(zip(ids, c), c))],
             right[tuple(itertools.compress(zip(ids, r), r))])
            for c, r, ways in by_shape[shape]
        ]))
    return tuple(plan)


@lru_cache(maxsize=1)
def _young_unions(h: int, j: int, k: int, mode: Mode) -> tuple:
    """The union plan of degrees j and k: for each class a of degree j, a row holding, for each class b
    of degree k, the position at degree j + k of _merge_keys(a, b); only the last plan is kept."""
    keys_j, keys_k = (_enumerate_classes_cached(h, d, mode).positions for d in (j, k))
    positions = _enumerate_classes_cached(h, j + k, mode).positions
    return tuple(tuple([positions[_merge_keys(ka, kb)] for kb in keys_k]) for ka in keys_j)


def enumerate_classes(h: int, l: int, mode: Mode = ALL_ORDERS) -> tuple[OrbitTypeMultiset, ...]:
    """All conjugacy classes of commuting h-tuples of degree l, canonical order.

    In p-power mode only tuples of p-power-order permutations count, which
    restricts the orbit sizes to powers of p.  l = 0 gives the empty class.
    """
    _check_walk(h, l, mode, "degree")
    return _enumerate_classes_cached(h, l, mode).classes


def _orbit_type_from_images(h: int, images: list[tuple[int, ...]], mode: Mode) -> OrbitTypeMultiset:
    """Decompose an action of Z^h given by commuting image tuples on 0..l-1."""
    l = len(images[0])
    seen = [False] * l
    pairs = []
    for start in range(l):
        if seen[start]:
            continue
        # walk the orbit of the smallest unvisited point, recording for each
        # point one exponent vector reaching it; each closed edge yields a
        # stabilizer relation, and those span the stabilizer lattice
        vecs: dict[int, tuple[int, ...]] = {start: (0,) * h}
        queue = [start]
        relations = []
        while queue:
            x = queue.pop()
            vx = vecs[x]
            for i in range(h):
                y = images[i][x]
                vy = tuple(vx[j] + (1 if j == i else 0) for j in range(h))
                if y in vecs:
                    relations.append(tuple(a - b for a, b in zip(vy, vecs[y])))
                else:
                    vecs[y] = vy
                    queue.append(y)
        for x in vecs:
            seen[x] = True
        orbit = canonicalize(h, relations)
        assert orbit.size == len(vecs)
        pairs.append((orbit, 1))
    return OrbitTypeMultiset.from_pairs(h, mode, pairs)


def orbit_type_of_tuple(perms, mode: Mode = ALL_ORDERS) -> OrbitTypeMultiset:
    """Conjugacy class of a commuting tuple of permutations; h is the tuple length.

    Validates that the permutations commute pairwise and, in p-power mode,
    that each has p-power order.  The result is conjugation invariant.
    """
    _check_mode(mode)
    perms = _on_one_point_set(perms)
    h = len(perms)
    if h < 1:
        raise ValueError("need a nonempty tuple of permutations")
    for a in perms:
        if not a.order_admissible(mode):
            raise ModeError(f"permutation order not admissible in {mode} mode")
    for a, b in itertools.combinations(perms, 2):
        if not commute(a, b):
            raise ValueError("permutations do not commute")
    return _orbit_type_from_images(h, [a.image for a in perms], mode)


def class_representative(cls: OrbitTypeMultiset) -> tuple[Permutation, ...]:
    """A concrete commuting tuple with the given orbit type.

    Points are laid out orbit by orbit (entries in canonical order, copies
    consecutively); on each orbit, generator i acts as translation by e_i
    on the coset representatives.
    """
    l = _expect(cls, OrbitTypeMultiset).degree
    images = [[None] * l for _ in range(cls.h)]
    offset = 0
    for orbit, mult in cls.entries:
        pts = orbit.points()
        index = {pt: k for k, pt in enumerate(pts)}
        local = []
        for i in range(cls.h):
            e_i = tuple(int(j == i) for j in range(cls.h))
            local.append(
                [index[orbit.reduce(tuple(a + b for a, b in zip(pt, e_i)))] for pt in pts]
            )
        for _ in range(mult):
            for i in range(cls.h):
                for k, target in enumerate(local[i]):
                    images[i][offset + k] = offset + target
            offset += orbit.size
    out = tuple(Permutation(tuple(img)) for img in images)
    assert orbit_type_of_tuple(out, cls.mode) == cls
    return out


def brute_force_classes(
    h: int, l: int, mode: Mode = ALL_ORDERS, guard: int | None = None
) -> dict[OrbitTypeMultiset, int]:
    """Count commuting h-tuples in Sigma_l by conjugacy class, by enumeration.

    Walks every tuple of pairwise-commuting mode-admissible permutations
    and buckets it through orbit_type_of_tuple.  Exponential; refuses when
    l exceeds the guard (default 6 for h <= 2, else 5) rather than hang.
    """
    _check_walk(h, l, mode, "degree")
    limit = (6 if h <= 2 else 5) if guard is None else _count(guard, "guard", "nonnegative")
    if l > limit:
        raise GuardExceededError(f"degree {l} exceeds brute-force guard {limit}")
    admissible = [
        p
        for p in itertools.permutations(range(l))
        if Permutation(p).order_admissible(mode)
    ]

    def compose(a, b):
        return tuple(a[b[i]] for i in range(l))

    counts: dict[OrbitTypeMultiset, int] = {}

    def extend(prefix: list, candidates: list):
        if len(prefix) == h:
            cls = _orbit_type_from_images(h, prefix, mode)
            counts[cls] = counts.get(cls, 0) + 1
            return
        need_filter = len(prefix) + 1 < h
        for q in candidates:
            rest = (
                [r for r in candidates if compose(q, r) == compose(r, q)]
                if need_filter
                else candidates
            )
            extend(prefix + [q], rest)

    extend([], admissible)
    return counts


def hom_count(h: int, l: int, mode: Mode = ALL_ORDERS) -> int:
    """Number of commuting h-tuples of degree l: the class sizes of the class table, summed."""
    _check_walk(h, l, mode, "degree")
    return sum(_enumerate_classes_cached(h, l, mode).counts)
