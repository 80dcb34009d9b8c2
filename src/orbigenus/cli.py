"""Command line interface.

Subcommands expose the enumerations (orbits, classes), the identity
verifiers (verify dmvv / frobenius / oracle), the genus series (genus
sigma / hecke / lambda / todd), and the canonical pairing (inner-product).
Output is byte-deterministic; exit code 0 means success (and, for
verifiers, that the identity holds), 1 means a verified identity failed,
2 means bad usage or configuration.
"""
from __future__ import annotations

import argparse
import operator
import random
import re
import sys
from fractions import Fraction

from . import serialize
from .classes import brute_force_classes, centralizer_order, class_size, enumerate_classes, hom_count
from .classfun import (
    ClassFunction,
    augmentation,
    induce_young,
    inner_product,
    product_inner_product,
    restrict_young,
)
from .genus import (
    IntegerModel,
    SymbolicModel,
    geometric_power_series,
    hecke_log_series,
    lambda_series,
    symmetric_power_series,
    todd_orbifold_series,
    verify_product_formula,
)
from .orbits import Mode, enumerate_orbits


def _model_from_spec(spec: str | None):
    if spec is None or spec == "symbolic":
        return SymbolicModel("x")
    if spec.startswith("integer:"):
        d = spec.split(":", 1)[1]
        if not re.fullmatch(r"-?[0-9]+", d):  # as a psi table reads an integer
            raise ValueError(f"model {spec!r}: D must be an integer literal")
        return IntegerModel(int(d))
    if spec.startswith("table:"):
        return serialize.load_table_model(spec.split(":", 1)[1])
    raise ValueError(
        f"unknown model {spec!r}; expected 'symbolic', 'integer:D', or 'table:PATH'"
    )


def _emit_json(obj):
    """Write obj as indented JSON and a newline; lists may be generators.

    The text goes out in chunks while it is rendered, so everything that can
    fail must be computed before this is called.
    """
    serialize.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def _cmd_orbits(args, mode: Mode) -> int:
    orbits = enumerate_orbits(args.h, args.size, mode)
    if args.format == "json":
        _emit_json(orbits)
    else:
        print("size\thnf")
        for t in orbits:
            print(f"{t.size}\t{t.label()}")
    return 0


def _cmd_classes(args, mode: Mode) -> int:
    classes = enumerate_classes(args.h, args.l, mode)
    total = hom_count(args.h, args.l, mode)
    if args.format == "json":
        _emit_json(
            {
                "classes": (serialize.class_to_json(c) for c in classes),
                "count": len(classes),
                "total_tuples": str(total),
            }
        )
    else:
        print("type\tcentralizer_order\tclass_size")
        for c in classes:
            type_label = ";".join(f"{m}x{o.label()}" for o, m in c.entries) or "-"
            print(f"{type_label}\t{centralizer_order(c)}\t{class_size(c)}")
        print(f"total\t{len(classes)}\t{total}")
    return 0


def _cmd_verify_dmvv(args, mode: Mode) -> int:
    model = _model_from_spec(args.model)
    report = verify_product_formula(model, args.n, args.h, mode)
    _emit_json(serialize.comparison_to_json(report))
    return 0 if report.equal else 1


# row n + 6 holds Fraction(n, d), d = 1..4; choosing a row, then an entry, draws as randint does
_DRAWS = tuple(tuple(Fraction(n, d) for d in range(1, 5)) for n in range(-6, 7))


def _random_classfunction(h, mode, l, rng) -> ClassFunction:
    """Fraction(rng.randint(-6, 6), rng.randint(1, 4)) per class, read from _DRAWS."""
    choice = rng.choice
    values = [choice(choice(_DRAWS)) for _ in enumerate_classes(h, l, mode)]
    return ClassFunction._trusted(h, mode, l, values)


def _cmd_verify_frobenius(args, mode: Mode) -> int:
    if args.l < 2 or args.trials < 1:
        raise ValueError("nothing to check: frobenius needs --l >= 2 and --trials >= 1")
    rng = random.Random(args.seed)
    failures = []  # each check that failed, with both of its sides
    for j in range(1, args.l // 2 + 1):
        k = args.l - j
        for trial in range(args.trials):
            chi = _random_classfunction(args.h, mode, j, rng)
            xi = _random_classfunction(args.h, mode, k, rng)
            zeta = _random_classfunction(args.h, mode, args.l, rng)
            induced = induce_young(chi, xi)
            sides = (("reciprocity", inner_product(induced, zeta),
                      product_inner_product(chi, xi, restrict_young(zeta, j, k))),
                     ("augmentation", augmentation(induced), augmentation(chi) * augmentation(xi)))
            failures += [{"j": j, "k": k, "trial": trial, "check": check,
                          "lhs": serialize.fraction_to_str(lhs), "rhs": serialize.fraction_to_str(rhs)}
                         for check, lhs, rhs in sides if lhs != rhs]
    report = {"h": args.h, "mode": serialize.mode_to_json(mode), "l": args.l,
              "trials": args.l // 2 * args.trials, "equal": not failures}
    _emit_json({**report, "first_failure": failures[0]} if failures else report)
    return 1 if failures else 0


def _cmd_verify_oracle(args, mode: Mode) -> int:
    counted = brute_force_classes(args.h, args.l, mode, guard=args.guard)
    expected = {c: class_size(c) for c in enumerate_classes(args.h, args.l, mode)}
    ok = counted == expected
    report = {
        "h": args.h,
        "mode": serialize.mode_to_json(mode),
        "l": args.l,
        "classes": len(expected),
        "tuples": str(sum(expected.values())),
        "equal": ok,
    }
    if not ok:  # the first class, in canonical order, counted otherwise than class_size says
        differs = [c for c in expected.keys() | counted.keys() if counted.get(c, 0) != expected.get(c, 0)]
        cls = min(differs, key=operator.attrgetter("entries"))
        report["first_failure"] = {"class": serialize.class_to_json(cls), "counted": str(counted.get(cls, 0))}
    _emit_json(report)
    return 0 if ok else 1


def _emit_value_rows(rows, fmt: str):
    """rows: list of (n, value); json gives records, tsv a header plus lines."""
    if fmt == "json":
        _emit_json([{"n": n, "value": serialize.value_to_json(v)} for n, v in rows])
    else:
        print("n\tvalue")
        for n, v in rows:
            print(f"{n}\t{v}")


def _cmd_genus(args, mode: Mode) -> int:
    if args.kind == "todd":
        if args.h != 1 or args.p is not None:
            raise ValueError("genus todd is defined only at h = 1 in all-orders mode")
        if args.model is not None:
            raise ValueError("genus todd takes no --model; its psi values are fixed by --d")
        d = 1 if args.d is None else args.d
        series = todd_orbifold_series(d, args.n)
        equal = series == geometric_power_series(d, args.n)
        if args.format == "json":
            _emit_json(
                {
                    "d": d,
                    "precision": args.n,
                    "series": serialize.series_to_json(series),
                    "closed_form": equal,
                }
            )
        else:
            _emit_value_rows(list(enumerate(series.coeffs)), "tsv")
            print(f"closed_form\t{'true' if equal else 'false'}")
        return 0 if equal else 1
    if args.d is not None:
        raise ValueError(f"genus {args.kind} takes no --d; only genus todd reads it")
    model = _model_from_spec(args.model)
    if args.kind == "sigma":
        series = symmetric_power_series(model, args.n, args.h, mode)
        _emit_value_rows([(args.n, series.coefficient(args.n))], args.format)
    elif args.kind == "hecke":
        series = hecke_log_series(model, args.n, args.h, mode)
        rows = [(n, series.coefficient(n)) for n in mode.sizes_up_to(args.n)]
        _emit_value_rows(rows, args.format)
    else:  # lambda
        series = lambda_series(model, args.n, args.h, mode)
        _emit_value_rows(list(enumerate(series.coeffs)), args.format)
    return 0


def _cmd_inner_product(args, mode: Mode) -> int:
    one = ClassFunction.one(args.h, mode, args.l)
    value = inner_product(one, one)
    print(serialize.fraction_to_str(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbigenus",
        description="Exact commuting-tuple combinatorics and symmetric-power series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, l=False, n=False, size=False, d=False, model=False, fmt=False):
        p.add_argument("--h", type=int, default=1, help="rank of the acting lattice")
        p.add_argument("--p", type=int, default=None, help="prime for p-power mode (omit for all orders)")
        if l:
            p.add_argument("--l", type=int, required=True, help="symmetric group degree")
        if n:
            p.add_argument("--n", type=int, required=True, help="degree / precision")
        if size:
            p.add_argument("--size", type=int, required=True, help="orbit size")
        if d:
            p.add_argument("--d", type=int, help="dimension parameter of genus todd (default 1)")
        if model:
            p.add_argument(
                "--model",
                help="psi model: 'symbolic' (the default), 'integer:D', or 'table:PATH'",
            )
        if fmt:
            p.add_argument("--format", choices=("json", "tsv"), default="json")

    p_orbits = sub.add_parser("orbits", help="list transitive orbits of one size")
    add_common(p_orbits, size=True, fmt=True)
    p_orbits.set_defaults(func=_cmd_orbits)

    p_classes = sub.add_parser("classes", help="list commuting-tuple conjugacy classes")
    add_common(p_classes, l=True, fmt=True)
    p_classes.set_defaults(func=_cmd_classes)

    p_verify = sub.add_parser("verify", help="check one of the exact identities")
    vsub = p_verify.add_subparsers(dest="which", required=True)

    p_dmvv = vsub.add_parser("dmvv", help="symmetric-power series vs exponential of Hecke sum")
    add_common(p_dmvv, n=True, model=True)
    p_dmvv.set_defaults(func=_cmd_verify_dmvv)

    p_frob = vsub.add_parser("frobenius", help="randomized Frobenius reciprocity check")
    add_common(p_frob, l=True)
    p_frob.add_argument("--trials", type=int, default=20)
    p_frob.add_argument("--seed", type=int, default=0)
    p_frob.set_defaults(func=_cmd_verify_frobenius)

    p_oracle = vsub.add_parser("oracle", help="class list and sizes vs brute-force enumeration")
    add_common(p_oracle, l=True)
    p_oracle.add_argument("--guard", type=int, default=None, help="override the size guard")
    p_oracle.set_defaults(func=_cmd_verify_oracle)

    p_genus = sub.add_parser("genus", help="genus series and operations")
    p_genus.add_argument("kind", choices=("sigma", "hecke", "lambda", "todd"))
    add_common(p_genus, n=True, d=True, model=True, fmt=True)
    p_genus.set_defaults(func=_cmd_genus)

    p_ip = sub.add_parser("inner-product", help="pairing of the trivial character with itself")
    add_common(p_ip, l=True)
    p_ip.set_defaults(func=_cmd_inner_product)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may have any number of digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, Mode(args.p))  # every command reads --p first
    except (ValueError, TypeError, OSError, RecursionError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
