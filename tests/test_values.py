"""The value classes keep the observable contract of frozen dataclasses: repr text,
field-tuple hash and equality, pickling through the checked constructor, and
immutability, with no instance __dict__; list input builds the same values as
tuples; and importing the CLI loads neither dataclasses, typing nor inspect."""
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbigenus
from orbigenus.classes import OrbitTypeMultiset, Permutation, _ClassTable, _enumerate_classes_cached
from orbigenus.classfun import ClassFunction, augmentation
from orbigenus.genus import IntegerModel, TableModel, verify_product_formula
from orbigenus.orbits import ALL_ORDERS, Mode, TransitiveOrbit, _Value, enumerate_orbits
from orbigenus.psipoly import PsiSymbol

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

T = TransitiveOrbit(2, ((1, 1), (0, 2)))
ONE = enumerate_orbits(2, 1)[0]
SERIES = "TruncatedSeries([Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)], prec=2)"

# (value, its field tuple, the repr the frozen dataclass printed)
FIXED = [
    (Mode(), (None,), "Mode(p=None)"),
    (Mode(2), (2,), "Mode(p=2)"),
    (Permutation((1, 2, 0)), ((1, 2, 0),), "Permutation(image=(1, 2, 0))"),
    (
        OrbitTypeMultiset.from_pairs(2, Mode(2), [(T, 2), (ONE, 1)]),
        (2, Mode(2), ((ONE, 1), (T, 2))),
        "OrbitTypeMultiset(h=2, mode=Mode(p=2), entries=((TransitiveOrbit(h=2, rows=((1, 0), (0, 1))), 1),"
        " (TransitiveOrbit(h=2, rows=((1, 1), (0, 2))), 2)))",
    ),
    (PsiSymbol("x", T), ("x", T), "PsiSymbol(family='x', orbit=TransitiveOrbit(h=2, rows=((1, 1), (0, 2))))"),
]
REPORT = verify_product_formula(IntegerModel(1), 2, 1)
FIXED.append((
    REPORT, (1, ALL_ORDERS, 2, REPORT.lhs, REPORT.rhs, True, None),
    f"SeriesComparison(h=1, mode=Mode(p=None), precision=2, lhs={SERIES}, rhs={SERIES},"
    " equal=True, first_mismatch=None)",
))


def _hash(x):
    """hash(x), or the text of the TypeError an unhashable field raises."""
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


def check_contract(value, fields: tuple, text: str):
    assert repr(value) == text
    assert _hash(value) == _hash(fields)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value) and repr(copy) == text
    assert not hasattr(value, "__dict__")
    for name in (*type(value).__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text  # unchanged by the refused writes


@pytest.mark.parametrize("value,fields,text", FIXED, ids=[type(v).__name__ for v, _, _ in FIXED])
def test_value_classes_keep_the_frozen_dataclass_contract(value, fields, text):
    check_contract(value, fields, text)


def test_the_cached_class_table_refuses_to_set_or_delete_a_field():
    # one table serves the whole run, so a write would change every later result for its (h, l, mode)
    table = _enumerate_classes_cached(2, 2, Mode(2))
    fields = table._astuple()
    assert isinstance(table, _Value) and not hasattr(table, "__dict__")
    for name in (*_ClassTable._fields, "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(table, name, (1,))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(table, name)
    assert _enumerate_classes_cached(2, 2, Mode(2)) is table and table._astuple() == fields
    assert augmentation(ClassFunction.one(2, Mode(2), 2)) == 2


@st.composite
def hnf_rows(draw):
    h = draw(st.integers(1, 4))
    diagonal = [draw(st.integers(1, 6 - h)) for _ in range(h)]  # sizes <= 27: quick to enumerate
    return h, tuple(
        tuple(0 if j < i else diagonal[i] if j == i else draw(st.integers(0, diagonal[j] - 1))
              for j in range(h))
        for i in range(h)
    )


@SETTINGS
@given(hnf_rows())
def test_orbits_keep_the_frozen_dataclass_contract_on_both_construction_paths(case):
    h, rows = case
    built = TransitiveOrbit(h, rows)
    # the same orbit as enumeration builds it, from rows it checked once
    (enumerated,) = [t for t in enumerate_orbits(h, built.size) if t.rows == rows]
    for orbit in (built, enumerated):
        check_contract(orbit, (h, rows), f"TransitiveOrbit(h={h!r}, rows={rows!r})")
        assert orbit == built and orbit.size == built.size
    assert built.sort_key == enumerated.sort_key


def test_constructors_store_tuples_so_list_input_builds_equal_hashable_values():
    listed, tupled = TransitiveOrbit(1, [[2]]), TransitiveOrbit(1, ((2,),))
    assert listed == tupled and hash(listed) == hash(tupled) and listed.rows == ((2,),)
    assert TableModel({listed: 1}).psi(tupled) == 1
    assert Permutation([1, 0]) == Permutation((1, 0))
    assert hash(Permutation([1, 0])) == hash(Permutation((1, 0)))
    t = enumerate_orbits(1, 2)[0]
    listed = OrbitTypeMultiset(1, ALL_ORDERS, [[t, 2]])
    assert listed == OrbitTypeMultiset(1, ALL_ORDERS, ((t, 2),)) and listed.entries == ((t, 2),)
    assert {listed: Fraction(1, 8)}[OrbitTypeMultiset.from_pairs(1, ALL_ORDERS, [(t, 2)])] == Fraction(1, 8)


def test_importing_the_cli_loads_no_dataclasses_typing_or_inspect():
    # -S: no site hook may preload them, so what is loaded is what the package imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbigenus.__file__)))
    code = "import sys, orbigenus.cli; print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
