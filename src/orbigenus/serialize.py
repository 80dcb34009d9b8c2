"""Canonical JSON encodings for orbits, classes, values, and reports.

Counts and sizes are emitted as decimal strings so arbitrarily large exact
integers survive any JSON reader; rationals are "num/den" with the
denominator omitted when it is one.  All list orders are the canonical
enumeration orders, so equal objects serialize to identical bytes.

``dumps`` and ``dump`` render the layout of ``json.dumps(obj, indent=2)``
with their own writer: CPython's C encoder does not handle ``indent``, and
its pure-Python fallback rebuilds every repeated orbit object.  An orbit, a
Fraction and a polynomial are their own JSON values, which only this writer
renders: an orbit as the object orbit_to_json gives, a Fraction as the string
fraction_to_str gives, and a polynomial as a list with one object
{"monomial": [{"family", "orbit", "power"}, ...], "value": "n/d"} per term of
sorted_terms.  An int stays a JSON number.  ``dump`` streams, so the CLI
writes long orbit and class lists as it produces them, and a polynomial term
by term.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .classes import OrbitTypeMultiset, centralizer_order, class_size
from .genus import SeriesComparison, TableModel
from .orbits import Mode, TransitiveOrbit, _expect
from .psipoly import PsiPolynomial, exact


def fraction_to_str(q: Fraction) -> str:
    """"n" or "n/d" for an int or Fraction; TypeError for anything else, a polynomial included."""
    q = exact(q)
    if not isinstance(q, Fraction):
        raise TypeError(f"not an int or Fraction: {q!r}")
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # "n" or "n/d", d nonzero


def fraction_from_str(s: str) -> Fraction:
    """Read "n" or "n/d": ASCII digits, an optional leading minus, d nonzero; else ValueError."""
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        return Fraction(s)
    raise ValueError(f"not a rational literal: {s!r}")


def _json_int(value, field: str) -> int:
    """A JSON integer, read exactly: floats, strings and booleans raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def orbit_to_json(orbit: TransitiveOrbit) -> dict:
    """{"h", "size", "hnf"}: the JSON object as which dump and dumps write a TransitiveOrbit."""
    _expect(orbit, TransitiveOrbit)
    return {"h": orbit.h, "size": str(orbit.size), "hnf": [list(row) for row in orbit.rows]}


def orbit_from_json(obj) -> TransitiveOrbit:
    if not isinstance(obj, dict) or "h" not in obj or "hnf" not in obj:
        raise ValueError(f"not an orbit object: {obj!r}")
    for key in obj:
        if key not in ("h", "hnf", "size"):
            raise ValueError(f"orbit object has unknown field {key!r}")
    try:
        orbit = TransitiveOrbit(
            _json_int(obj["h"], "'h'"),
            tuple(tuple(_json_int(x, "each 'hnf' entry") for x in row) for row in obj["hnf"]),
        )
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid orbit: {e}") from e
    if "size" in obj and obj["size"] != str(orbit.size):
        raise ValueError(f"orbit field 'size' must be {str(orbit.size)!r}, got {obj['size']!r}")
    return orbit


def mode_to_json(mode: Mode):
    return None if mode.p is None else {"p": mode.p}


def class_to_json(cls: OrbitTypeMultiset) -> dict:
    """{"type": [{"orbit", "mult"}, ...], "centralizer_order", "class_size"}, each orbit as itself."""
    return {
        "type": [{"orbit": orbit, "mult": mult} for orbit, mult in _expect(cls, OrbitTypeMultiset).entries],
        "centralizer_order": str(centralizer_order(cls)),
        "class_size": str(class_size(cls)),
    }


def comparison_to_json(report: SeriesComparison) -> dict:
    """{"h", "p", "precision", "equal", "lhs", "rhs"}, and unless equal "first_mismatch" and
    "difference", lhs minus rhs there; each coefficient as itself."""
    _expect(report, SeriesComparison)
    out = {
        "h": report.h,
        "p": report.mode.p,
        "precision": report.precision,
        "equal": report.equal,
        "lhs": report.lhs.coeffs,
        "rhs": report.rhs.coeffs,
    }
    if not report.equal:
        n = report.first_mismatch
        out["first_mismatch"] = n
        out["difference"] = report.lhs.coeffs[n] - report.rhs.coeffs[n]
    return out


def table_model_from_json(obj) -> TableModel:
    """Parse a psi table: a JSON list of {"orbit": ..., "psi": "num/den"}, read exactly:
    an orbit has only h and hnf (JSON integers) and an optional size; psi as fraction_from_str."""
    if not isinstance(obj, list):
        raise ValueError("psi table must be a JSON list")
    table = {}
    for entry in obj:
        if not isinstance(entry, dict) or set(entry) != {"orbit", "psi"}:
            raise ValueError(f"psi table entries need 'orbit' and 'psi' keys: {entry!r}")
        orbit = orbit_from_json(entry["orbit"])
        if orbit in table:
            raise ValueError(f"duplicate psi table entry for orbit {orbit}")
        try:
            table[orbit] = fraction_from_str(entry["psi"])
        except ValueError as e:
            raise ValueError(f"psi table field 'psi': {e}") from None
    return TableModel(table)


def _unique_fields(pairs) -> dict:
    """A JSON object as a dict; ValueError if a field name repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"psi table repeats field {key!r}")
        obj[key] = value
    return obj


def load_table_model(path: str) -> TableModel:
    with open(path) as f:
        try:
            obj = json.load(f, object_pairs_hook=_unique_fields)
        except json.JSONDecodeError as e:
            raise ValueError(f"psi table {path} is not valid JSON: {e}") from e
    return table_model_from_json(obj)


def dump(obj, fp) -> None:
    """Write ``dumps(obj)`` to the text stream fp, in chunks of at least 64 KiB but the last.

    Lists may be given as any iterable, generators included, so a long list
    is written while it is produced and never held whole.
    """
    _write(obj, fp.write)


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, ASCII only, for an encoded object; lists may be any iterable."""
    chunks: list[str] = []
    _write(obj, chunks.append)
    return "".join(chunks)


_CHUNK_CHARS = 1 << 16  # write() gets at least this much text at a time
_CHECK_PARTS = 256  # rendered fragments between two looks at the buffered size
_MAX_CACHED = 4096  # rendered orbits and monomial entries kept by one _write call


def _write(obj, write) -> None:
    """Render obj in the layout of ``json.dumps(obj, indent=2)``, passing the text to write().

    Strings, ints, bools, None, dicts with string keys, orbits, Fractions and polynomials (as the
    module docstring says), and any other iterable as a list; anything else, floats included,
    raises TypeError.  An orbit is rendered once per nesting depth and then copied, and
    so is each (symbol, power) entry of a polynomial's monomials; a dict is always rendered anew.
    """
    encode_str = json.encoder.encode_basestring_ascii
    parts: list[str] = []  # rendered text, not yet joined
    joined: list[str] = []  # joined runs of parts, not yet written
    size = 0  # characters in joined
    # (orbit, depth) or (id(symbol), power, depth) -> (the orbit or symbol, held so no id is reused, text)
    rendered: dict[tuple, tuple] = {}

    def flush(final: bool = False):
        nonlocal size
        text = "".join(parts)
        parts.clear()
        joined.append(text)
        size += len(text)
        if final or size >= _CHUNK_CHARS:
            write("".join(joined))
            joined.clear()
            size = 0

    def remember(key: tuple, o, text: str) -> str:
        if len(rendered) >= _MAX_CACHED:
            rendered.clear()
        rendered[key] = (o, text)
        return text

    def value(o, depth: int, out: list):
        if isinstance(o, TransitiveOrbit):
            out.append(orbit(o, depth))
        elif isinstance(o, dict):
            mapping(o, depth, out)
        elif isinstance(o, str):
            out.append(encode_str(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, PsiPolynomial):
            polynomial(o, depth, out)
        elif isinstance(o, Fraction):
            out.append(f'"{fraction_to_str(o)}"')
        else:
            sequence(o, depth, out)

    def orbit(o: TransitiveOrbit, depth: int) -> str:
        hit = rendered.get((o, depth))
        if hit is not None:
            return hit[1]
        own: list[str] = []
        mapping(orbit_to_json(o), depth, own)
        return remember((o, depth), o, "".join(own))

    def polynomial(p: PsiPolynomial, depth: int, out: list):
        # the list of the module docstring, one fragment per term, never the whole text
        i1, i2, i3, i4 = ("\n" + "  " * (depth + k) for k in range(1, 5))
        sep = "[" + i1
        for mono, num, den in p._ordered_terms():
            texts = []
            for sym, e in mono:
                hit = rendered.get((id(sym), e, depth))
                texts.append(hit[1] if hit is not None else remember((id(sym), e, depth), sym, (
                    f'{i3}{{{i4}"family": {encode_str(sym.family)},{i4}"orbit": '
                    f'{orbit(sym.orbit, depth + 4)},{i4}"power": {e}{i3}}}')))
            monomial = f'[{",".join(texts)}{i2}]' if texts else "[]"
            coeff = num if den == 1 else f"{num}/{den}"
            out.append(f'{sep}{{{i2}"monomial": {monomial},{i2}"value": "{coeff}"{i1}}}')
            sep = "," + i1
            if out is parts and len(parts) >= _CHECK_PARTS:
                flush()
        out.append("[]" if sep[0] == "[" else "\n" + "  " * depth + "]")

    def mapping(o: dict, depth: int, out: list):
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for k, v in o.items():
            head = sep + encode_str(k) + ": "  # TypeError unless k is a str
            # the common leaves inline, one fragment per item
            if type(v) is str:
                out.append(head + encode_str(v))
            elif type(v) is int:
                out.append(head + int.__repr__(v))
            else:
                out.append(head)
                value(v, depth + 1, out)
            sep = "," + inner
        out.append("{}" if sep[0] == "{" else "\n" + "  " * depth + "}")

    def sequence(o, depth: int, out: list):
        try:
            items = iter(o)
        except TypeError:
            raise TypeError(f"cannot serialize value of type {type(o).__name__}") from None
        inner = "\n" + "  " * (depth + 1)
        sep = "[" + inner
        for item in items:
            out.append(sep)
            value(item, depth + 1, out)
            sep = "," + inner
            if out is parts and len(parts) >= _CHECK_PARTS:
                flush()
        out.append("[]" if sep[0] == "[" else "\n" + "  " * depth + "]")

    value(obj, 0, parts)
    flush(final=True)
