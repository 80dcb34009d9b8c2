"""CLI behavior: output shapes, exit codes, determinism, error paths."""
import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from orbigenus import cli, genus
from orbigenus.classes import enumerate_classes
from orbigenus.classfun import ClassFunction
from orbigenus.cli import main
from orbigenus.orbits import ALL_ORDERS, Mode, enumerate_orbits
from orbigenus.serialize import dumps, orbit_to_json
from orbigenus.series import TruncatedSeries

import golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbits_json(capsys):
    code, out, err = run(capsys, "orbits", "--h", "2", "--p", "2", "--size", "2")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert [t["hnf"] for t in obj] == [[[1, 0], [0, 2]], [[1, 1], [0, 2]], [[2, 0], [0, 1]]]
    assert all(t["size"] == "2" for t in obj)


def test_orbits_tsv(capsys):
    code, out, _ = run(capsys, "orbits", "--h", "2", "--p", "2", "--size", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size\thnf"
    assert lines[1:] == ["2\t1,0|0,2", "2\t1,1|0,2", "2\t2,0|0,1"]


def test_orbits_inadmissible_size(capsys):
    code, out, err = run(capsys, "orbits", "--h", "2", "--p", "2", "--size", "6")
    assert code == 2
    assert "error:" in err


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", "--h", "2", "--p", "2", "--l", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 17
    assert obj["total_tuples"] == "88"
    assert len(obj["classes"]) == 17


def test_classes_tsv(capsys):
    code, out, _ = run(capsys, "classes", "--h", "2", "--p", "2", "--l", "4", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type\tcentralizer_order\tclass_size"
    assert lines[-1] == "total\t17\t88"
    assert len(lines) == 19
    # degree 0 has the single empty class
    _, out, _ = run(capsys, "classes", "--h", "1", "--l", "0", "--format", "tsv")
    assert out.splitlines()[1] == "-\t1\t1"


def test_verify_dmvv(capsys):
    code, out, _ = run(capsys, "verify", "dmvv", "--h", "2", "--p", "2", "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["p"] == 2
    assert "first_mismatch" not in obj


def test_verify_dmvv_integer_model(capsys):
    code, out, _ = run(
        capsys, "verify", "dmvv", "--h", "1", "--n", "8", "--model", "integer:3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] is None
    assert obj["lhs"][2] == "6"


def test_verify_frobenius(capsys):
    code, out, _ = run(
        capsys,
        "verify", "frobenius", "--h", "2", "--p", "2", "--l", "3",
        "--trials", "4", "--seed", "11",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["trials"] == 4  # one (j, k) split with j <= k at l = 3
    for l in ("4", "5"):  # two splits each: 1+3 and 2+2, or 1+4 and 2+3
        code, out, _ = run(capsys, "verify", "frobenius", "--h", "1", "--l", l, "--trials", "2")
        assert code == 0 and json.loads(out)["trials"] == 4


@pytest.mark.parametrize("h", [1, 2, 3])
def test_random_class_functions_draw_as_randint_does(h):
    # stdout shows only whether the checks held, so a change in the draws is seen here alone
    for mode in (ALL_ORDERS, Mode(2), Mode(3)):
        for l in range(7):
            for seed in range(20):
                rng, reference = random.Random(seed), random.Random(seed)
                chi = cli._random_classfunction(h, mode, l, rng)
                want = [Fraction(reference.randint(-6, 6), reference.randint(1, 4))
                        for _ in enumerate_classes(h, l, mode)]
                assert [(type(v), v) for v in chi.values] == [(Fraction, v) for v in want]
                assert chi == ClassFunction(h, mode, l, want)
                assert rng.getstate() == reference.getstate(), (h, mode, l, seed)


@pytest.mark.parametrize("extra", [("--l", "1"), ("--l", "4", "--trials", "0"),
                                   ("--l", "4", "--trials", "-1"), ("--h", "0", "--l", "1")])
def test_verify_frobenius_that_checks_nothing_is_an_error(capsys, extra):
    code, out, err = run(capsys, "verify", "frobenius", "--h", "2", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: nothing to check")


def test_verify_oracle(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--h", "2", "--p", "2", "--l", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "h": 2,
        "mode": {"p": 2},
        "l": 4,
        "classes": 17,
        "tuples": "88",
        "equal": True,
    }


def _perturb_hecke_log(real):
    def perturbed(*args):
        s = real(*args)
        return s + TruncatedSeries([0, 1], prec=s.prec)  # T_1 off by one
    return perturbed


def _scale_one_restricted_value(real):
    def scaled(*args):
        first, *rest = real(*args)
        return ((2 * first[0] + 1, *first[1:]), *rest)  # + 1: stays wrong where the value is 0
    return scaled


def _drop_one_class(real):
    def dropped(*args, **kwargs):
        counts = real(*args, **kwargs)
        del counts[next(iter(counts))]
        return counts
    return dropped


def _perturb_closed_form(real):
    return lambda *args: real(*args) + 1


@pytest.mark.parametrize(
    "module, name, wrap, argv, expected",
    [
        # lhs_1 = x, rhs_1 = x + 1
        (genus, "hecke_log_series", _perturb_hecke_log,
         ("verify", "dmvv", "--h", "2", "--p", "2", "--n", "4"),
         {"equal": False, "first_mismatch": 1, "difference": [{"monomial": [], "value": "-1"}]}),
        # trial 0 holds: its chi is 0 on the class whose row is scaled
        (cli, "restrict_young", _scale_one_restricted_value,
         ("verify", "frobenius", "--h", "2", "--p", "2", "--l", "4", "--trials", "2"),
         {"equal": False, "first_failure": {"j": 1, "k": 3, "trial": 1, "check": "reciprocity",
                                            "lhs": "-519/64", "rhs": "-513/64"}}),
        (cli, "augmentation", _perturb_closed_form,
         ("verify", "frobenius", "--h", "2", "--p", "2", "--l", "4", "--trials", "2"),
         {"equal": False, "first_failure": {"j": 1, "k": 3, "trial": 0, "check": "augmentation",
                                            "lhs": "1", "rhs": "11/36"}}),
        # the dropped class, the first that brute force finds, is the identity tuple's
        (cli, "brute_force_classes", _drop_one_class,
         ("verify", "oracle", "--h", "2", "--p", "2", "--l", "3"),
         {"equal": False, "first_failure": {
             "class": {"type": [{"orbit": {"h": 2, "size": "1", "hnf": [[1, 0], [0, 1]]}, "mult": 3}],
                       "centralizer_order": "6", "class_size": "1"},
             "counted": "0"}}),
        (cli, "geometric_power_series", _perturb_closed_form,
         ("genus", "todd", "--d", "2", "--n", "4"), {"closed_form": False}),
    ],
    ids=["dmvv", "frobenius", "frobenius-augmentation", "oracle", "todd"],
)
def test_a_failed_identity_exits_1_with_its_full_report(capsys, monkeypatch, module, name, wrap,
                                                         argv, expected):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    obj = json.loads(out)  # the whole report, not a prefix
    assert {k: obj[k] for k in expected} == expected


def test_verify_oracle_guard(capsys):
    code, _, err = run(capsys, "verify", "oracle", "--h", "1", "--l", "7")
    assert code == 2
    assert "guard" in err
    code, out, _ = run(capsys, "verify", "oracle", "--h", "1", "--l", "7", "--guard", "7")
    assert code == 0
    assert json.loads(out)["tuples"] == "5040"
    code, out, err = run(capsys, "verify", "oracle", "--h", "1", "--l", "0", "--guard", "-1")
    assert (code, out) == (2, "") and "guard must be nonnegative" in err


def test_genus_sigma(capsys):
    code, out, _ = run(
        capsys, "genus", "sigma", "--h", "1", "--p", "2", "--n", "4", "--model", "integer:1"
    )
    assert code == 0
    assert json.loads(out) == [{"n": 4, "value": "2/3"}]
    _, out, _ = run(
        capsys,
        "genus", "sigma", "--h", "1", "--p", "2", "--n", "4",
        "--model", "integer:1", "--format", "tsv",
    )
    assert out.splitlines() == ["n\tvalue", "4\t2/3"]


def test_genus_hecke(capsys):
    code, out, _ = run(
        capsys,
        "genus", "hecke", "--h", "1", "--n", "3", "--model", "integer:6", "--format", "tsv",
    )
    assert code == 0
    assert out.splitlines() == ["n\tvalue", "1\t6", "2\t3", "3\t2"]
    # p-power mode lists only admissible degrees
    _, out, _ = run(
        capsys,
        "genus", "hecke", "--h", "1", "--p", "2", "--n", "5",
        "--model", "integer:4", "--format", "tsv",
    )
    assert out.splitlines() == ["n\tvalue", "1\t4", "2\t2", "4\t1"]


def test_genus_hecke_bad_rank_or_precision_exits_2(capsys):
    # once printed [] with exit 0: no orbit size was walked, so nothing checked
    code, out, err = run(capsys, "genus", "hecke", "--h", "0", "--n", "0")
    assert (code, out, err) == (2, "", "error: h must be positive\n")
    code, out, err = run(capsys, "genus", "hecke", "--h", "2", "--n", "-4")
    assert (code, out, err) == (2, "", "error: precision must be nonnegative\n")
    # precision 0 is valid and has no Hecke operator to print
    code, out, err = run(capsys, "genus", "hecke", "--h", "2", "--n", "0")
    assert (code, out.strip(), err) == (0, "[]", "")


def test_genus_lambda(capsys):
    code, out, _ = run(
        capsys, "genus", "lambda", "--h", "1", "--n", "5", "--model", "integer:4"
    )
    assert code == 0
    values = [row["value"] for row in json.loads(out)]
    assert values == ["1", "4", "6", "4", "1", "0"]


def test_genus_todd(capsys):
    code, out, _ = run(capsys, "genus", "todd", "--d", "2", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["closed_form"] is True
    assert obj["series"] == ["1", "2", "3", "4", "5", "6"]
    code, out, _ = run(capsys, "genus", "todd", "--d", "2", "--n", "5", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1] == "closed_form\ttrue"


def test_genus_todd_rejects_rank_and_prime(capsys):
    # once printed the h = 1 all-orders series with exit 0 whatever --h and --p said
    for args in (("--h", "0"), ("--h", "3", "--p", "2")):
        code, out, err = run(capsys, "genus", "todd", *args, "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: genus todd is defined only at h = 1 in all-orders mode\n"


def test_genus_rejects_options_the_kind_does_not_read(capsys):
    # once exit 0: sigma, hecke and lambda ignored --d, and todd ignored --model
    for kind in ("sigma", "hecke", "lambda"):
        for d in ("7", "1"):
            code, out, err = run(capsys, "genus", kind, "--h", "1", "--n", "3", "--d", d)
            assert (code, out) == (2, "")
            assert err == f"error: genus {kind} takes no --d; only genus todd reads it\n"
    for model in ("integer:5", "symbolic"):
        code, out, err = run(capsys, "genus", "todd", "--d", "2", "--n", "3", "--model", model)
        assert (code, out) == (2, "")
        assert err == "error: genus todd takes no --model; its psi values are fixed by --d\n"
    # without them, each kind still runs with its defaults
    code, out, _ = run(capsys, "genus", "todd", "--n", "2")
    assert code == 0 and json.loads(out)["d"] == 1
    code, out, _ = run(capsys, "genus", "sigma", "--h", "1", "--n", "1", "--format", "tsv")
    assert (code, out) == (0, "n\tvalue\n1\tx\n")


def test_genus_symbolic_sigma_json(capsys):
    code, out, _ = run(capsys, "genus", "sigma", "--h", "2", "--p", "2", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    terms = obj[0]["value"]
    assert isinstance(terms, list)
    assert all(t["value"] == "1/2" for t in terms)
    assert len(terms) == 4  # x^2/2 plus three orbit symbols


def test_inner_product(capsys):
    code, out, _ = run(capsys, "inner-product", "--h", "1", "--l", "3")
    assert code == 0 and out.strip() == "1"
    _, out, _ = run(capsys, "inner-product", "--h", "2", "--p", "2", "--l", "2")
    assert out.strip() == "2"
    _, out, _ = run(capsys, "inner-product", "--h", "2", "--p", "3", "--l", "3")
    assert out.strip() == "3/2"


def test_integer_model_reads_d_as_a_psi_table_reads_an_integer(capsys):
    # int() takes the first four: an underscore, a space, a plus sign, an Arabic-Indic digit
    for d in ("5_0", " 5", "+3", "\u0663", "", "-"):
        spec = f"integer:{d}"
        code, out, err = run(capsys, "genus", "sigma", "--h", "1", "--n", "2", "--model", spec)
        assert (code, out, err) == (2, "", f"error: model {spec!r}: D must be an integer literal\n")
    code, out, err = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "2", "--model", "integer:-2", "--format", "tsv"
    )
    assert (code, out, err) == (0, "n\tvalue\n2\t1\n", "")


def test_model_spec_errors(capsys, tmp_path):
    code, _, err = run(capsys, "genus", "sigma", "--n", "2", "--model", "bogus")
    assert code == 2 and "model" in err
    code, _, err = run(capsys, "genus", "sigma", "--n", "2", "--model", "integer:x")
    assert code == 2
    code, _, err = run(
        capsys, "genus", "sigma", "--n", "2", "--model", f"table:{tmp_path}/nope.json"
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[{]")
    code, _, err = run(capsys, "genus", "sigma", "--n", "2", "--model", f"table:{bad}")
    assert code == 2 and "JSON" in err


def test_table_model_cli(capsys, tmp_path):
    table = tmp_path / "psi.json"
    table.write_text(
        dumps([{"orbit": orbit_to_json(enumerate_orbits(1, 1)[0]), "psi": "5"}])
    )
    code, out, _ = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "1", "--model", f"table:{table}"
    )
    assert code == 0
    assert json.loads(out) == [{"n": 1, "value": "5"}]
    # a table missing a needed orbit is a configuration error
    code, _, err = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "2", "--model", f"table:{table}"
    )
    assert code == 2 and "psi value" in err


def test_table_model_cli_rejects_inexact_entries(capsys, tmp_path):
    # a non-integer hnf entry is an error, not truncated to a valid orbit
    table = tmp_path / "psi.json"
    table.write_text('[{"orbit": {"h": 1, "size": "1", "hnf": [[1.9]]}, "psi": "5"}]')
    code, out, err = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "1", "--model", f"table:{table}",
        "--format", "tsv",
    )
    assert code == 2 and out == "" and "'hnf'" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('[{"orbit": {"h": 1, "hnf": [[1]]}, "psi": "1"},'
         ' {"orbit": {"h": 1, "hnf": [[2]], "szie": "7"}, "psi": "1"}]', "'szie'"),
        ('[{"orbit": {"h": 1, "hnf": [[1]]}, "psi": "1"},'
         ' {"orbit": {"h": 1, "hnf": [[2]]}, "psi": "1", "psi": "5"}]', "'psi'"),
        ('[{"orbit": {"h": 1, "h": 1, "hnf": [[1]]}, "psi": "1"},'
         ' {"orbit": {"h": 1, "hnf": [[2]]}, "psi": "1"}]', "'h'"),
    ],
    ids=["unknown-orbit-field", "repeated-psi", "repeated-h"],
)
def test_table_model_cli_rejects_unknown_and_repeated_fields(capsys, tmp_path, text, field):
    table = tmp_path / "psi.json"
    table.write_text(text)
    code, out, err = run(
        capsys, "genus", "hecke", "--h", "1", "--n", "2", "--model", f"table:{table}",
        "--format", "tsv",
    )
    assert (code, out) == (2, "") and err.startswith("error:") and field in err


def test_table_model_cli_rejects_a_numeric_size(capsys, tmp_path):
    table = tmp_path / "psi.json"
    table.write_text('[{"orbit": {"h": 1, "size": 1, "hnf": [[1]]}, "psi": "5"}]')
    code, out, err = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "1", "--model", f"table:{table}"
    )
    assert code == 2 and out == "" and "'size'" in err


def test_values_past_the_int_string_limit_print_in_full(capsys):
    # sigma_5 of a trivial class of dimension D at h = 1 is C(D + 4, 5): 5,000 digits
    d = 10**1000 - 1
    code, out, err = run(
        capsys, "genus", "sigma", "--h", "1", "--n", "5", "--model", f"integer:{d}",
        "--format", "tsv",
    )
    expected = d * (d + 1) * (d + 2) * (d + 3) * (d + 4) // 120
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header == "n\tvalue"
    n, value = row.split("\t")
    assert n == "5" and len(value) == 4998 and int(value) == expected


def test_a_large_prime_answers_and_p_past_the_primality_bound_exits_2(capsys):
    # once ran trial division to the square root of p, so this never returned
    code, out, err = run(capsys, "orbits", "--p", "1000000000000000003", "--size", "1", "--format", "tsv")
    assert (code, out, err) == (0, "size\thnf\n1\t1\n", "")
    bound = "3317044064679887385961981"
    code, out, err = run(capsys, "orbits", "--p", bound, "--size", "1")
    assert (code, out) == (2, "")
    assert err == f"error: p must be below {bound}, where the primality test is exact\n"


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--h", "2"])  # --size is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_resource_exhaustion_exits_2(capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "enumerate_classes", too_deep)
    code, out, err = run(capsys, "classes", "--h", "4", "--p", "2", "--l", "8")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err

    def exhausted(*args):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "enumerate_classes", exhausted)
    code, _, err = run(capsys, "classes", "--h", "1", "--l", "3")
    assert (code, err) == (2, "error: out of memory\n")


def test_genus_lambda_on_a_deep_orbit_pool(capsys):
    # once exit 2: class enumeration overflowed the stack on the 1,566 orbits
    # of size <= 8
    code, out, err = run(
        capsys,
        "genus", "lambda", "--h", "4", "--p", "2", "--n", "8",
        "--model", "integer:1", "--format", "tsv",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "8\t-85648/315"


def test_invalid_mode_prime(capsys):
    # every command reads --p before anything else, even where a later check would also fail
    for argv in (
        ("orbits", "--h", "1", "--size", "6"),
        ("classes", "--l", "2"),
        ("inner-product", "--l", "2"),
        ("verify", "dmvv", "--n", "2", "--model", "bogus"),
        ("verify", "frobenius", "--l", "1"),
        ("verify", "oracle", "--l", "2"),
        ("genus", "sigma", "--n", "2", "--model", "bogus"),
        ("genus", "hecke", "--n", "2", "--d", "1"),
        ("genus", "lambda", "--n", "2"),
        ("genus", "todd", "--n", "2"),
    ):
        got = run(capsys, *argv, "--p", "6")
        assert got == (2, "", "error: p must be prime, got 6\n"), argv


def test_json_streams_in_chunks_and_errors_write_nothing(capsys, monkeypatch):
    # everything that can fail is computed before the first byte goes out
    for argv in (
        ("orbits", "--h", "2", "--p", "2", "--size", "6"),
        ("classes", "--h", "0", "--l", "3"),
        ("verify", "dmvv", "--h", "0", "--n", "3"),
        ("verify", "dmvv", "--h", "2", "--n", "3", "--model", "table:/nonexistent.json"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:")
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["orbits", "--h", "4", "--size", "8"]) == 0
    monkeypatch.undo()
    expected = [orbit_to_json(t) for t in enumerate_orbits(4, 8)]
    assert "".join(writes) == json.dumps(expected, indent=2) + "\n"
    # the JSON in chunks of at least 64 KiB, then the last chunk and a newline
    assert len(writes) > 4
    assert all(len(w) >= 1 << 16 for w in writes[:-2])


def test_determinism(capsys):
    args = ("classes", "--h", "2", "--p", "3", "--l", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("command", list(golden.GOLDEN))
def test_pinned_stdout(capsys, tmp_path, command):
    # tests/golden.py holds every pinned output; tests/cold_cli.py runs the same table cold
    code, out, err = run(capsys, *golden.argv(command, golden.write_tables(tmp_path)))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == golden.GOLDEN[command], command
