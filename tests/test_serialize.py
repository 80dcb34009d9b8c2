"""JSON encodings: round trips, canonical forms, malformed-input errors."""
import json
from fractions import Fraction

import pytest

from orbigenus.classes import centralizer_order, class_representative, class_size, enumerate_classes
from orbigenus.classfun import ClassFunction
from orbigenus.genus import IntegerModel, SeriesComparison, psi_of_class, symmetric_power_series, SymbolicModel
from orbigenus.orbits import ALL_ORDERS, Mode, TransitiveOrbit, enumerate_orbits
from orbigenus.psipoly import PsiPolynomial, PsiSymbol
from orbigenus.serialize import (
    _MAX_CACHED,
    class_to_json,
    comparison_to_json,
    dump,
    dumps,
    fraction_from_str,
    fraction_to_str,
    load_table_model,
    mode_to_json,
    orbit_from_json,
    orbit_to_json,
    series_to_json,
    table_model_from_json,
    value_to_json,
)
from orbigenus.series import TruncatedSeries

from helpers import classfunction_to_json, mode_from_json, value_json_reference

P2 = Mode(2)


def test_fraction_strings():
    assert fraction_to_str(Fraction(3)) == "3"
    assert fraction_to_str(Fraction(-3, 2)) == "-3/2"
    assert fraction_to_str(7) == "7"
    # a polynomial, even a constant one, is no rational literal: TypeError, as for a float
    for bad in (0.5, PsiPolynomial.constant(1), PsiPolynomial()):
        with pytest.raises(TypeError):
            fraction_to_str(bad)
    assert fraction_from_str("3") == 3
    assert fraction_from_str("-3/2") == Fraction(-3, 2)
    for q in [Fraction(0), Fraction(22, 7), Fraction(-10**30, 3)]:
        assert fraction_from_str(fraction_to_str(q)) == q


@pytest.mark.parametrize(
    "bad",
    ["", "x", "1/0", "1/2/3", "1.5", "5_0", " 5", "5 ", "+3", "1/-2", "1/00", "\u0663", 5, None],
)
def test_fraction_from_str_rejects(bad):
    with pytest.raises(ValueError):
        fraction_from_str(bad)


def test_orbit_json_round_trip():
    for orbit in enumerate_orbits(2, 4, P2) + enumerate_orbits(3, 4, ALL_ORDERS):
        obj = orbit_to_json(orbit)
        assert obj["size"] == str(orbit.size)
        assert orbit_from_json(obj) == orbit
        assert orbit_from_json(json.loads(dumps(obj))) == orbit


def test_orbit_json_errors():
    orbit = enumerate_orbits(2, 1)[0]
    obj = orbit_to_json(orbit)
    obj["size"] = "99"
    with pytest.raises(ValueError, match="size"):
        orbit_from_json(obj)
    with pytest.raises(ValueError):
        orbit_from_json({"h": 2})
    with pytest.raises(ValueError):
        orbit_from_json([1, 2])
    with pytest.raises(ValueError):
        orbit_from_json({"h": 2, "hnf": [[0, 0], [0, 1]]})
    # h and every hnf entry are JSON integers, read exactly
    with pytest.raises(ValueError, match="'h'"):
        orbit_from_json({"h": 1.0, "hnf": [[1]]})
    for entry in (1.9, "2", True):
        with pytest.raises(ValueError, match="'hnf'"):
            orbit_from_json({"h": 1, "hnf": [[entry]]})
    # a misspelled field is an error, not ignored along with the check it names
    with pytest.raises(ValueError, match="unknown field 'szie'"):
        orbit_from_json({"h": 1, "hnf": [[2]], "szie": "7"})


def test_orbit_json_size_is_a_decimal_string():
    # the writer emits "4"; a JSON number is not the format, even if it matches
    assert orbit_from_json({"h": 1, "hnf": [[4]], "size": "4"}) == TransitiveOrbit(1, ((4,),))
    for size in (4, 4.0, [4], " 4", "04"):
        with pytest.raises(ValueError, match="'size'"):
            orbit_from_json({"h": 1, "hnf": [[4]], "size": size})


def test_mode_json():
    assert mode_to_json(ALL_ORDERS) is None
    assert mode_to_json(P2) == {"p": 2}
    assert mode_from_json(None) == ALL_ORDERS
    assert mode_from_json({"p": 3}) == Mode(3)
    with pytest.raises(ValueError):
        mode_from_json({"prime": 3})
    with pytest.raises(ValueError):
        mode_from_json(2)
    for p in (2.9, 2.0, "2", True):
        with pytest.raises(ValueError, match="'p'"):
            mode_from_json({"p": p})


def test_class_json_frozen():
    # the class of two disjoint size-2 orbits at l = 4 in the 2-power mode
    target = None
    for cls in enumerate_classes(2, 4, P2):
        if len(cls.entries) == 1 and cls.entries[0][1] == 2 and cls.entries[0][0].size == 2:
            target = cls
            break
    assert target is not None
    obj = json.loads(dumps(class_to_json(target)))
    assert obj["centralizer_order"] == "8"
    assert obj["class_size"] == "3"
    assert len(obj["type"]) == 1
    assert obj["type"][0]["mult"] == 2
    assert obj["type"][0]["orbit"]["size"] == "2"


@pytest.mark.parametrize("call, kind, got", [
    (lambda: centralizer_order((1, 2)), "an OrbitTypeMultiset", "tuple"),
    (lambda: class_size((1, 2)), "an OrbitTypeMultiset", "tuple"),
    (lambda: class_representative(3), "an OrbitTypeMultiset", "int"),
    (lambda: psi_of_class(IntegerModel(1), []), "an OrbitTypeMultiset", "list"),
    (lambda: class_to_json(enumerate_orbits(1, 1)[0]), "an OrbitTypeMultiset", "TransitiveOrbit"),
    (lambda: orbit_to_json((1,)), "a TransitiveOrbit", "tuple"),
    (lambda: series_to_json([1]), "a TruncatedSeries", "list"),
    (lambda: comparison_to_json(1), "a SeriesComparison", "int"),
], ids=["centralizer_order", "class_size", "class_representative", "psi_of_class", "class_to_json",
        "orbit_to_json", "series_to_json", "comparison_to_json"])
def test_calls_that_take_a_class_orbit_series_or_report_gate_its_type(call, kind, got):
    # each raised AttributeError on the first field it read
    with pytest.raises(TypeError, match=f"^expected {kind}, got {got}$"):
        call()


def test_value_json():
    assert value_to_json(Fraction(5, 3)) == "5/3"
    assert value_to_json(4) == "4"
    orbit = enumerate_orbits(2, 2, P2)[0]
    poly = PsiPolynomial.symbol(PsiSymbol("x", orbit)) * Fraction(1, 2) + 3
    obj = json.loads(dumps(value_to_json(poly)))
    assert isinstance(obj, list) and len(obj) == 2
    assert obj[0] == {"monomial": [], "value": "3"}
    assert obj[1]["value"] == "1/2"
    assert obj[1]["monomial"][0]["family"] == "x"
    assert obj[1]["monomial"][0]["power"] == 1
    with pytest.raises(TypeError):
        value_to_json("7")


def test_series_json():
    s = TruncatedSeries([1, Fraction(1, 2), 0], prec=2)
    assert series_to_json(s) == ["1", "1/2", "0"]


def test_classfunction_json():
    chi = ClassFunction.one(2, P2, 2) * Fraction(1, 3)
    obj = classfunction_to_json(chi)
    assert obj["h"] == 2 and obj["l"] == 2 and obj["mode"] == {"p": 2}
    assert len(obj["values"]) == len(enumerate_classes(2, 2, P2))
    assert all(v["value"] == "1/3" for v in obj["values"])
    # values are aligned with the canonical class order
    assert obj["values"][0]["class"] == json.loads(dumps(class_to_json(chi.classes[0])))


def test_comparison_json():
    a = TruncatedSeries([1, 2], prec=1)
    b = TruncatedSeries([1, 3], prec=1)
    ok = comparison_to_json(SeriesComparison.compare(1, P2, a, a))
    assert ok == {
        "h": 1,
        "p": 2,
        "precision": 1,
        "equal": True,
        "lhs": ["1", "2"],
        "rhs": ["1", "2"],
    }
    bad = comparison_to_json(SeriesComparison.compare(1, ALL_ORDERS, a, b))
    assert bad["p"] is None
    assert bad["equal"] is False
    assert bad["first_mismatch"] == 1
    assert bad["difference"] == "-1"  # lhs - rhs at the first mismatch


def test_table_model_round_trip(tmp_path):
    orbits = enumerate_orbits(2, 2, P2)
    obj = [
        {"orbit": orbit_to_json(t), "psi": fraction_to_str(Fraction(i + 1, 2))}
        for i, t in enumerate(orbits)
    ]
    model = table_model_from_json(obj)
    for i, t in enumerate(orbits):
        assert model.psi(t) == Fraction(i + 1, 2)
    path = tmp_path / "table.json"
    path.write_text(dumps(obj))
    loaded = load_table_model(str(path))
    for t in orbits:
        assert loaded.psi(t) == model.psi(t)


def test_table_model_errors(tmp_path):
    orbit = orbit_to_json(enumerate_orbits(1, 1)[0])
    with pytest.raises(ValueError, match="list"):
        table_model_from_json({"orbit": orbit, "psi": "1"})
    with pytest.raises(ValueError, match="keys"):
        table_model_from_json([{"orbit": orbit}])
    with pytest.raises(ValueError, match="duplicate"):
        table_model_from_json([{"orbit": orbit, "psi": "1"}, {"orbit": orbit, "psi": "2"}])
    with pytest.raises(ValueError, match="rational"):
        table_model_from_json([{"orbit": orbit, "psi": "0.5"}])
    with pytest.raises(ValueError, match="'psi'"):
        table_model_from_json([{"orbit": orbit, "psi": 5}])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_table_model(str(bad))
    with pytest.raises(OSError):
        load_table_model(str(tmp_path / "missing.json"))
    # a repeated field is an error, not its last value; names in different objects may match
    bad.write_text('[{"orbit": {"h": 1, "hnf": [[1]]}, "psi": "1", "psi": "5"}]')
    with pytest.raises(ValueError, match="repeats field 'psi'"):
        load_table_model(str(bad))
    bad.write_text('[{"orbit": {"h": 1, "hnf": [[1]], "hnf": [[2]]}, "psi": "1"}]')
    with pytest.raises(ValueError, match="repeats field 'hnf'"):
        load_table_model(str(bad))
    bad.write_text('[{"orbit": {"h": 1, "hnf": [[1]]}, "psi": "1"},'
                   ' {"orbit": {"h": 1, "hnf": [[2]]}, "psi": "5"}]')
    assert load_table_model(str(bad)).psi(TransitiveOrbit(1, ((2,),))) == 5


def test_dumps_deterministic():
    S = symmetric_power_series(SymbolicModel("x"), 3, 2, P2)
    one = dumps(series_to_json(S))
    two = dumps(series_to_json(symmetric_power_series(SymbolicModel("x"), 3, 2, P2)))
    assert one == two
    json.loads(one)


class _Recorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


def test_dump_streams_in_big_chunks():
    orbits = enumerate_orbits(4, 8, ALL_ORDERS)  # 0.4 MB of JSON
    obj = {"orbits": [orbit_to_json(t) for t in orbits], "count": len(orbits)}
    out = _Recorder()
    dump({"orbits": (orbit_to_json(t) for t in orbits), "count": len(orbits)}, out)
    assert "".join(out.chunks) == json.dumps(obj, indent=2) == dumps(obj)
    assert len(out.chunks) > 4
    assert all(len(c) >= 1 << 16 for c in out.chunks[:-1])
    small = _Recorder()
    dump([], small)
    assert small.chunks == ["[]"]


def test_dump_streams_a_long_polynomial_in_big_chunks():
    orbits = [t for n in (1, 2, 4, 8) for t in enumerate_orbits(2, n, P2)]
    p = sum(PsiPolynomial.symbol(PsiSymbol(f, t)) for f in ("x", "y") for t in orbits) ** 2
    text = json.dumps(value_json_reference(p), indent=2)
    assert len(text) > 4 << 16
    out = _Recorder()
    dump(value_to_json(p), out)
    assert "".join(out.chunks) == text
    assert len(out.chunks) > 4
    assert all(len(c) >= 1 << 16 for c in out.chunks[:-1])


def test_writer_renders_each_orbit_object_by_its_fields():
    t, u = enumerate_orbits(2, 2, P2)[:2]
    a, b = orbit_to_json(t), orbit_to_json(t)
    b["size"] = "99"  # same orbit, other fields: must not reuse a's text
    obj = [a, {"k": [a, b]}, b, a, orbit_to_json(u), [[a]], orbit_to_json(t)]
    assert dumps(obj) == json.dumps(obj, indent=2)
    assert dumps(iter(obj)) == json.dumps(obj, indent=2)


def test_writer_cache_eviction_keeps_the_text_exact():
    # more distinct orbits than the writer keeps rendered, so its cache is cleared mid-list
    orbits = enumerate_orbits(4, 12)
    assert len(orbits) == 6200 > _MAX_CACHED
    objs = [orbit_to_json(t) for t in orbits]
    obj = objs + [objs[0]]
    assert dumps(obj) == json.dumps(obj, indent=2)
    # one orbit twice, the second object with a changed field, on both sides of the clearing
    changed = orbit_to_json(orbits[0])
    changed["size"] = "99"
    obj = [objs[0], changed, *objs, changed, objs[0]]
    assert dumps(obj) == json.dumps(obj, indent=2)
    # the orbits themselves, then one again after the clearing, and one next to its changed object
    assert dumps([*orbits, orbits[0]]) == json.dumps([*objs, objs[0]], indent=2)
    assert dumps([orbits[0], changed, [orbits[0]]]) == json.dumps([objs[0], changed, [objs[0]]], indent=2)
    # a polynomial with more distinct monomial entries than that, twice, next to an orbit object
    p = PsiPolynomial([(((PsiSymbol("x", t), 1),), i % 7 - 3) for i, t in enumerate(orbits)])
    ref = value_json_reference(p)
    assert dumps([value_to_json(p), objs[0], value_to_json(p)]) == json.dumps([ref, objs[0], ref], indent=2)


@pytest.mark.parametrize("bad", [0.5, [1, 2.0], {1: "x"}, {"a": Fraction(1, 2)}, object()])
def test_writer_rejects_what_is_not_json(bad):
    with pytest.raises(TypeError):
        dumps(bad)
