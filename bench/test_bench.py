"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

They use the ``--smoke`` sizes, so the whole file takes a few seconds.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_workloads_in_one_command_print_error_ratio_with_units():
    proc, lines = bench("--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in run.WORKLOADS:
        rows = {line.split()[1]: line.split()[3] for line in lines if line.startswith(name)}
        assert rows == {
            "error_ratio": "ratio", "cpu_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"
        }
    assert set(json.loads(lines[-1])["metrics"]) == {
        f"{name}.{metric}" for name in run.WORKLOADS for metric in declared("end_to_end")
    }


def test_changed_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(
        run.WORKLOADS, "todd-integer", dict(run.WORKLOADS["todd-integer"], smoke_sha256="0" * 64)
    )
    assert run.main(["--workload", "todd-integer", "--seconds", "0", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_failures_name_each_reason():
    sample = run.Sample(
        wall_s=1.0, cpu_s=1.0, peak_rss_mib=10.0, exit_code=1, stdout_sha256="ab",
        stdout_bytes=2, head=b"{}", tail=b"{}", stderr=b"Traceback\nboom\n",
    )
    reasons = run.failures(sample, run.WORKLOADS["dmvv-symbolic"], smoke=False)
    assert reasons == [
        "exit code 1",
        "stderr: boom",
        f"stdout sha256 ab is not the pinned {run.WORKLOADS['dmvv-symbolic']['sha256']}",
        'stdout lacks "equal": true',
        "no report from the child",
    ]
    sample.stderr = b"\n"
    assert "stderr: b'\\n'" in run.failures(sample, run.WORKLOADS["dmvv-symbolic"], smoke=False)


def test_peak_rss_is_the_childs_own():
    big = run.spawn("plain", ["orbits", "--h", "4", "--size", "32", "--format", "tsv"], 120)
    small = run.spawn("probe", [], 60)
    assert big.exit_code == 0 and small.exit_code == 0
    assert small.peak_rss_mib < big.peak_rss_mib / 2


def test_traced_counts_repeat_and_self_times_account_for_wall():
    args = ["verify", "frobenius", "--h", "2", "--p", "2", "--l", "10", "--trials", "1"]
    first, second = (run.spawn("trace", args, 120) for _ in range(2))
    for sample in (first, second):
        assert sample.exit_code == 0 and not sample.stderr
    assert first.report["trace"]["counts"] == second.report["trace"]["counts"]
    assert first.stdout_sha256 == second.stdout_sha256
    for sample in (first, second):
        traced = sum(sample.report["trace"]["self_ns"].values()) / 1e9
        unaccounted = sample.wall_s - sample.setup_s - traced
        assert traced > 0.2
        assert 0 <= unaccounted < 0.1 * sample.wall_s + 0.05


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_generator_iteration_is_charged_to_the_generator_layer():
    def steps():
        for _ in range(4):
            busy(0.02)
            yield None

    def consume(gen):
        for _ in gen:
            pass

    tracer = Tracer()
    produce = tracer._wrap(steps, LAYERS.index("classes"))
    drive = tracer._wrap(consume, LAYERS.index("classfun"))
    drive(produce())
    self_ns = tracer.report()["self_ns"]
    assert self_ns["classes"] >= 0.08e9
    assert self_ns["classfun"] < 0.01e9


def test_without_source_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench("--workload", "hecke-orbits", "--seed", "1", "--seconds", "1",
                        "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert not lines
