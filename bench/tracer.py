"""Per-layer spans and counts for one CLI run, installed from outside the package.

A layer is one module of ``orbigenus``.  ``Tracer.install`` wraps, in place:

- every public function a layer module defines, in every ``orbigenus``
  module namespace that imported it, so calls across layers go through the
  wrapper;
- the public methods of the classes a layer defines, and the arithmetic
  dunders of its non-dataclass classes (``PsiPolynomial``,
  ``TruncatedSeries``, ``ClassFunction``);
- generator functions twice: their creation, and each step of their
  iteration, so the work a generator does is charged to its own layer and
  not to the consumer that drives it.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the spans it encloses, so the self times of all layers add up to the
inclusive time of ``cli.main``.  ``<layer>.total_s`` is inclusive: the
duration of the layer's outermost spans.

Dataclass dunders and properties (``TransitiveOrbit.sort_key``,
``__eq__``, ``__hash__``) are deliberately not wrapped: they run hundreds
of thousands of times per workload inside dictionary operations, and a
wrapper would cost more than the work it times.  Their time is charged to
the layer of the span that calls them.
"""
from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from math import prod

LAYERS = ("orbits", "classes", "psipoly", "series", "genus", "classfun", "serialize", "cli")

_DUNDERS = frozenset(
    {
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__truediv__", "__neg__", "__pow__", "__eq__",
    }
)

# cheap predicates called once per orbit entry when a class is validated;
# tracing them would multiply the cost of validation several times over
_UNTRACED = frozenset({"Mode.admits_size"})


class Tracer:
    def __init__(self):
        self._children = [0]
        self._depth = [0] * len(LAYERS)
        self._total = [0] * len(LAYERS)
        # (layer index, qualified name) -> [calls, self ns, items yielded]
        self._cells: dict[tuple[int, str], list[int]] = {}
        self.counts = {
            "orbits.enumerated": 0,
            "classes.enumerated": 0,
            "classes.split_choices": 0,
            "psipoly.max_terms": 0,
        }

    # -- wrappers -----------------------------------------------------------

    def _cell(self, layer: int, name: str) -> list[int]:
        return self._cells.setdefault((layer, name), [0, 0, 0])

    def _span(self, fn, layer: int, cell: list[int]):
        children, depth, total = self._children, self._depth, self._total
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            depth[layer] += 1
            children.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += 1
                cell[1] += dt - children.pop()
                children[-1] += dt
                depth[layer] -= 1
                if not depth[layer]:
                    total[layer] += dt

        return traced

    def _generator(self, fn, layer: int, cell: list[int]):
        create = self._span(fn, layer, cell)
        step = self._span(next, layer, self._cell(layer, fn.__qualname__ + ".next"))

        def iterate(gen):
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                cell[2] += 1
                yield item

        def traced(*args, **kwargs):
            return iterate(create(*args, **kwargs))

        return traced

    def _wrap(self, fn, layer: int):
        name = fn.__qualname__
        cell = self._cell(layer, name)
        if inspect.isgeneratorfunction(fn):
            traced = self._generator(fn, layer, cell)
        else:
            traced = self._span(fn, layer, cell)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        return hook(traced) if hook else traced

    # -- counters that need the arguments or the result ---------------------

    def _new_items(self, traced, module: str, cache_name: str, counter: str):
        """Count the items a cached enumerator builds on cache misses only."""
        cached = _lru_cache(module, cache_name)
        if cached is None:
            return traced
        counts = self.counts

        def counted(*args, **kwargs):
            before = cached.cache_info().misses
            result = traced(*args, **kwargs)
            if cached.cache_info().misses != before:
                counts[counter] += len(result)
            return result

        return counted

    def _hook_enumerate_orbits(self, traced):
        return self._new_items(traced, "orbits", "_enumerate_orbits_cached", "orbits.enumerated")

    def _hook_enumerate_classes(self, traced):
        return self._new_items(traced, "classes", "_enumerate_classes_cached", "classes.enumerated")

    def _hook_OrbitTypeMultiset_sub_multisets(self, traced):
        counts = self.counts

        def counted(multiset, *args, **kwargs):
            counts["classes.split_choices"] += prod(m + 1 for _, m in multiset.entries)
            return traced(multiset, *args, **kwargs)

        return counted

    def _hook_value_to_json(self, traced):
        counts = self.counts

        def counted(value):
            result = traced(value)
            if isinstance(result, list) and len(result) > counts["psipoly.max_terms"]:
                counts["psipoly.max_terms"] = len(result)
            return result

        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        replaced = {}
        for layer, name in enumerate(LAYERS):
            module = sys.modules["orbigenus." + name]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if obj not in replaced:
                        replaced[obj] = self._wrap(obj, layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(obj, layer)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orbigenus" and not mod_name.startswith("orbigenus."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _install_methods(self, cls, layer: int):
        dunders = set() if dataclasses.is_dataclass(cls) else _DUNDERS
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            if f"{cls.__name__}.{attr}" in _UNTRACED:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, layer))

    # -- results ------------------------------------------------------------

    def calls(self, layer: str, *names: str) -> int:
        index = LAYERS.index(layer)
        return sum(c[0] for (i, n), c in self._cells.items() if i == index and n in names)

    def cache_info(self, module: str, cache_name: str) -> tuple[int, int]:
        cached = _lru_cache(module, cache_name)
        if cached is None:
            return (0, 0)
        info = cached.cache_info()
        return (info.hits, info.misses)

    def report(self) -> dict:
        """Self and inclusive nanoseconds per layer, and the named counts."""
        self_ns = [0] * len(LAYERS)
        yields = {}
        for (layer, name), (calls, ns, items) in self._cells.items():
            self_ns[layer] += ns
            if items:
                yields[name] = items
        orbit_hits, orbit_misses = self.cache_info("orbits", "_enumerate_orbits_cached")
        class_hits, class_misses = self.cache_info("classes", "_enumerate_classes_cached")
        counts = dict(self.counts)
        counts.update(
            {
                "orbits.cache_hits": orbit_hits,
                "orbits.cache_misses": orbit_misses,
                "classes.cache_hits": class_hits,
                "classes.cache_misses": class_misses,
                "classes.centralizer_order_calls": self.calls("classes", "centralizer_order"),
                "classes.sub_multisets_calls": self.calls("classes", "OrbitTypeMultiset.sub_multisets"),
                "classes.splits_yielded": yields.get("OrbitTypeMultiset.sub_multisets", 0),
                "psipoly.mul_calls": self.calls("psipoly", "PsiPolynomial.__mul__"),
                "psipoly.pow_calls": self.calls("psipoly", "PsiPolynomial.__pow__"),
                "psipoly.add_calls": self.calls("psipoly", "PsiPolynomial.__add__"),
                "series.exp_calls": self.calls("series", "TruncatedSeries.exp"),
                "series.invert_calls": self.calls("series", "TruncatedSeries.invert"),
                "series.log_calls": self.calls("series", "TruncatedSeries.log"),
                "genus.psi_of_class_calls": self.calls("genus", "psi_of_class"),
                "genus.sigma_calls": self.calls("genus", "sigma"),
                "genus.hecke_operator_calls": self.calls("genus", "hecke_operator"),
                "classfun.induce_young_calls": self.calls("classfun", "induce_young"),
                "classfun.restrict_young_calls": self.calls("classfun", "restrict_young"),
                "classfun.pairing_calls": self.calls(
                    "classfun", "inner_product", "product_inner_product"
                ),
                "serialize.orbit_to_json_calls": self.calls("serialize", "orbit_to_json"),
            }
        )
        return {
            "self_ns": dict(zip(LAYERS, self_ns)),
            "total_ns": dict(zip(LAYERS, self._total)),
            "counts": counts,
        }


def _lru_cache(module: str, name: str):
    """A module's ``functools.lru_cache`` function, or None if it has none by that name."""
    cached = getattr(sys.modules.get("orbigenus." + module), name, None)
    return cached if hasattr(cached, "cache_info") else None
