"""End-to-end and per-layer benchmark of the orbigenus CLI.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Each sample is one cold CLI process, ``bench/child.py`` running
``orbigenus.cli.main`` from this checkout's ``src`` as the installed
``orbigenus`` entry point would.  Load is a closed loop with one client: one
child at a time, the next started when the last has exited.  Repetitions run
every selected workload once, round-robin, in an order that alternates
between repetitions, so that drift in machine speed hits each workload
alike.  A run keeps starting repetitions until the next one would end after
``--seconds``.

End-to-end metrics (``--trace 0``), medians over the samples of a run:
    wall_s        spawn to exit of the CLI process
    setup_s       spawn to the end of ``import orbigenus.cli``, in that same
                  process; import-only probes run between samples add to it
    peak_rss_mib  the child's own peak RSS, from its ``wait4`` record
    cpu_s         the child's own user plus system time, from the same record
                  (printed only: it tracks wall_s)
    error_ratio   failed samples / attempted samples (printed; in the JSON
                  line it is ``failed`` / ``attempted``)

A sample fails on a nonzero exit, on any stderr output, on a stdout SHA-256
other than the one pinned for the workload, or when the report the CLI
output must contain (``"equal": true``, ``"closed_form": true``) is missing.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``tracer.py``: self time per layer (medians), the work
counts (which must repeat exactly across the traced samples of a run), and
``trace.overhead_s``, the median traced minus the median untraced wall time.

``--smoke`` runs the same four command paths at tiny sizes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means every sample
was correct, 1 that some sample failed, 2 that the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Each workload makes one layer do most of the work, and another layer almost
# none, so that a change to one layer moves one row and leaves the others flat:
#   dmvv-symbolic    psipoly, serialize (4.6 MB of JSON) and series (exp over
#                    polynomial coefficients)
#   todd-integer     classes (18,460 classes: the partitions of n <= 28) and
#                    genus Fraction sums
#   frobenius-young  classes.sub_multisets driven by classfun's Young
#                    induction, with enumerate_classes cache hits
#   hecke-orbits     orbits (63,777 HNF lattices)
# Sizes keep each sample near two seconds, so that a 30-second run holds twelve
# or more samples per workload: on a shared two-core machine single samples of
# the same command spread by about 13% (interquartile range over the median).
# Digests are of stdout at the seed commit; outputs do not depend on --seed.
WORKLOADS = {
    "dmvv-symbolic": {
        "args": ["verify", "dmvv", "--h", "2", "--p", "2", "--n", "12"],
        "smoke": ["verify", "dmvv", "--h", "2", "--p", "2", "--n", "4"],
        "sha256": "6ea40d7663c509b59febce193f48a33fb7e4dec1c6b3b8bb7229a858397b3379",
        "smoke_sha256": "5a14a42e7e5550d02f758e6a19c872cd210f6a879b17d4a8601a7a64d5bdc04c",
        "marker": b'"equal": true',
    },
    "todd-integer": {
        "args": ["genus", "todd", "--d", "3", "--n", "28"],
        "smoke": ["genus", "todd", "--d", "3", "--n", "6"],
        "sha256": "0f10cfe813097a003ba9150b0329c7e827fdc1968f3933d1a05a6512a791a926",
        "smoke_sha256": "469ff45a3c572c86cb1c30b3bf4b5abf77cc4f56de822582051c880ee51166da",
        "marker": b'"closed_form": true',
    },
    "frobenius-young": {
        "args": ["verify", "frobenius", "--h", "2", "--p", "2", "--l", "10", "--trials", "3"],
        "smoke": ["verify", "frobenius", "--h", "2", "--p", "2", "--l", "4", "--trials", "2"],
        "sha256": "571b5b991e645933bafc56429ef2002a669f1c687091550b9d8522114f04cf8d",
        "smoke_sha256": "9e3c5a1a95a862adcefff833c3d58a3e0516480eb6bb471ef119bd7b0f1e722d",
        "marker": b'"equal": true',
        "seeded": True,
    },
    "hecke-orbits": {
        "args": ["genus", "hecke", "--h", "4", "--n", "18", "--model", "integer:1"],
        "smoke": ["genus", "hecke", "--h", "4", "--n", "4", "--model", "integer:1"],
        "sha256": "edc18442e9417c15eb5f055caa6c7791d0cff2e9f38d845d1a3ff593627e75bc",
        "smoke_sha256": "d417db2ad394302f04a2ffd8cb8fb48f983b967ed2958a9402f7bcc48f4a0b36",
        "marker": None,
    },
}

PROBES_PER_SAMPLE = 1  # import-only children run before each CLI sample
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # children are stopped by then (or by --seconds, if longer)
KEEP_BYTES = 4096  # head and tail of stdout kept for the report markers

COUNTS = (
    "orbits.enumerated", "orbits.cache_hits", "orbits.cache_misses",
    "classes.enumerated", "classes.cache_hits", "classes.cache_misses",
    "classes.centralizer_order_calls", "classes.sub_multisets_calls",
    "psipoly.mul_calls", "psipoly.pow_calls", "psipoly.add_calls", "psipoly.max_terms",
    "series.exp_calls", "series.invert_calls", "series.log_calls",
    "genus.psi_of_class_calls", "genus.sigma_calls", "genus.hecke_operator_calls",
    "classfun.induce_young_calls", "classfun.restrict_young_calls", "classfun.pairing_calls",
    "serialize.orbit_to_json_calls",
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong package imported)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    head: bytes
    tail: bytes
    stderr: bytes
    setup_s: float | None = None  # None when the child sent no report
    report: dict = field(default_factory=dict)
    timed_out: bool = False


def spawn(mode: str, cli_args: list[str], timeout_s: float) -> Sample:
    """Run one child to exit, hashing its stdout from the pipe as it arrives."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report_r, report_w = os.pipe()
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(report_w), mode, *cli_args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(report_w,),
            env=env,
            cwd=ROOT,
        )
    finally:
        os.close(report_w)
    digest = hashlib.sha256()
    nbytes = 0
    head = bytearray()
    tail = b""
    stderr = bytearray()
    report = bytearray()
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout.fileno(), selectors.EVENT_READ, "out")
        sel.register(proc.stderr.fileno(), selectors.EVENT_READ, "err")
        sel.register(report_r, selectors.EVENT_READ, "report")
        deadline = time.monotonic() + timeout_s
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fd)
                elif key.data == "out":
                    digest.update(chunk)
                    nbytes += len(chunk)
                    if len(head) < KEEP_BYTES:
                        head += chunk[: KEEP_BYTES - len(head)]
                    tail = (tail + chunk)[-KEEP_BYTES:]
                elif key.data == "err":
                    stderr += chunk[: 65536 - len(stderr)]
                else:
                    report += chunk
    # reap this child alone: its own rusage, not the running maximum of
    # RUSAGE_CHILDREN over every child this process has waited for
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(report_r)
    try:
        parsed = json.loads(report) if report else {}
    except json.JSONDecodeError:
        parsed = {}
    return Sample(
        wall_s=(t1 - t0) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,  # KiB on Linux
        exit_code=proc.returncode,
        stdout_sha256=digest.hexdigest(),
        stdout_bytes=nbytes,
        head=bytes(head),
        tail=tail,
        stderr=bytes(stderr),
        setup_s=(parsed["setup_done_ns"] - t0) / 1e9 if "setup_done_ns" in parsed else None,
        report=parsed,
        timed_out=timed_out,
    )


def failures(sample: Sample, workload: dict, smoke: bool) -> list[str]:
    """Why a CLI sample is not correct; empty when it is."""
    out = []
    if sample.timed_out:
        out.append("timed out")
    if sample.exit_code != 0:
        out.append(f"exit code {sample.exit_code}")
    if sample.stderr:
        text = sample.stderr.decode(errors="replace").strip()
        out.append("stderr: " + (text.splitlines()[-1] if text else repr(sample.stderr)))
    pinned = workload["smoke_sha256" if smoke else "sha256"]
    if sample.stdout_sha256 != pinned:
        out.append(f"stdout sha256 {sample.stdout_sha256} is not the pinned {pinned}")
    marker = workload["marker"]
    if marker is not None and marker not in sample.head + sample.tail:
        out.append(f"stdout lacks {marker.decode()}")
    if sample.setup_s is None:
        out.append("no report from the child")
    return out


def cli_args(name: str, seed: int, smoke: bool) -> list[str]:
    workload = WORKLOADS[name]
    args = list(workload["smoke" if smoke else "args"])
    if workload.get("seeded"):
        args += ["--seed", str(seed)]
    return args


def loadavg() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def warm_up() -> dict:
    """One discarded import, which also shows what is measured.

    It writes the bytecode caches, as installing the package would, so the
    first timed sample does not pay for compilation.
    """
    probe = spawn("probe", [], CHILD_TIMEOUT_S)
    if probe.exit_code != 0 or probe.stderr or "orbigenus" not in probe.report:
        raise BenchError(
            "cannot import orbigenus.cli from the checkout: "
            + probe.stderr.decode(errors="replace").strip()
        )
    imported = Path(probe.report["orbigenus"]).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"orbigenus was imported from {imported}, not from {SRC}")
    return {
        "orbigenus": str(imported),
        "git": git_sha(),
        "python": probe.report["python"],
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
    }


class Run:
    """The samples of one benchmark run, with its failures."""

    def __init__(self, names, seed: int, seconds: float, smoke: bool, trace: bool):
        self.names, self.seed, self.smoke, self.trace = names, seed, smoke, trace
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.hard_stop = self.start + max(RUN_LIMIT_S, seconds)
        self.plain = {n: [] for n in names}
        self.traced = {n: [] for n in names}
        self.setup = {n: [] for n in names}
        self.problems: list[str] = []
        self.attempted = {n: 0 for n in names}
        self.failed = {n: 0 for n in names}

    def _child_timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.hard_stop - time.monotonic()))

    def _sample(self, name: str, mode: str):
        for _ in range(PROBES_PER_SAMPLE):
            probe = spawn("probe", [], self._child_timeout())
            if probe.setup_s is not None and probe.exit_code == 0:
                self.setup[name].append(probe.setup_s)
        sample = spawn(mode, cli_args(name, self.seed, self.smoke), self._child_timeout())
        self.attempted[name] += 1
        bad = failures(sample, WORKLOADS[name], self.smoke)
        if mode == "trace" and "trace" not in sample.report:
            bad.append("no trace in the child's report")
        if bad:
            self.failed[name] += 1
            self.problems.append(f"{name} ({mode}): " + "; ".join(bad))
        else:
            self.setup[name].append(sample.setup_s)
            (self.traced if mode == "trace" else self.plain)[name].append(sample)

    def go(self):
        rep = 0
        while True:
            began = time.monotonic()
            order = self.names if rep % 2 == 0 else self.names[::-1]
            for name in order:
                modes = ["plain", "trace"] if self.trace else ["plain"]
                for mode in modes if rep % 2 == 0 else modes[::-1]:
                    self._sample(name, mode)
            rep += 1
            now = time.monotonic()
            if now + (now - began) > self.deadline:
                break

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, name: str) -> dict:
        plain = self.plain[name]
        if not plain:
            return {}
        return {
            "wall_s": (statistics.median(s.wall_s for s in plain), "s", len(plain)),
            "setup_s": (statistics.median(self.setup[name]), "s", len(self.setup[name])),
            "peak_rss_mib": (
                statistics.median(s.peak_rss_mib for s in plain), "MiB", len(plain)
            ),
        }

    def per_layer(self, name: str) -> dict:
        traced, plain = self.traced[name], self.plain[name]
        if not traced or not plain:
            return {}
        first = traced[0].report["trace"]["counts"]
        for other in traced[1:]:
            if other.report["trace"]["counts"] != first:
                self.problems.append(f"{name}: counts differ between traced runs")
                self.failed[name] += 1
        n = len(traced)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                statistics.median(s.report["trace"]["self_ns"][layer] / 1e9 for s in traced),
                "s", n,
            )
        out["series.total_s"] = (
            statistics.median(s.report["trace"]["total_ns"]["series"] / 1e9 for s in traced),
            "s", n,
        )
        for key in COUNTS:
            out[key] = (first[key], "count", n)
        choices = first["classes.split_choices"]
        out["classes.split_yield_ratio"] = (
            first["classes.splits_yielded"] / choices if choices else 0.0, "ratio", n,
        )
        out["serialize.output_bytes"] = (traced[0].stdout_bytes, "bytes", n)
        out["trace.overhead_s"] = (
            statistics.median(s.wall_s for s in traced)
            - statistics.median(s.wall_s for s in plain),
            "s", n,
        )
        out["trace.unaccounted_s"] = (
            statistics.median(
                s.wall_s - s.setup_s - sum(s.report["trace"]["self_ns"].values()) / 1e9
                for s in traced
            ),
            "s", n,
        )
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same command paths")
    args = parser.parse_args(argv)

    if not (SRC / "orbigenus" / "cli.py").is_file():
        print(f"error: no orbigenus source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        env = warm_up()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(env), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = Run(names, args.seed, args.seconds, args.smoke, bool(args.trace))
    run.go()

    metrics = {}
    for name in names:
        rows = run.per_layer(name) if args.trace else run.end_to_end(name)
        n = run.attempted[name]
        print(f"{name:16s} {'error_ratio':32s} {run.failed[name] / n:12.4f} ratio  (n={n})")
        if run.plain[name] and not args.trace:
            cpu = statistics.median(s.cpu_s for s in run.plain[name])
            print(f"{name:16s} {'cpu_s':32s} {cpu:12.4f} s      (n={len(run.plain[name])})")
        print(f"samples {name} wall_s " + " ".join(f"{s.wall_s:.3f}" for s in run.plain[name]))
        for key, (value, unit, n) in rows.items():
            print(f"{name:16s} {key:32s} {value:12.4f} {unit:5s}  (n={n})")
            metric = key if len(names) == 1 else f"{name}.{key}"
            metrics[metric] = {"value": value, "unit": unit}
    for problem in run.problems:
        print("FAILED " + problem)
    print("environment " + json.dumps({"loadavg_end": loadavg()}))
    attempted, failed = sum(run.attempted.values()), sum(run.failed.values())
    correct = failed == 0 and all(
        (run.traced if args.trace else run.plain)[name] for name in names
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
