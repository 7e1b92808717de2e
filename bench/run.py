"""Benchmark of the polycauchy2 CLI: fixed invocations, each in a fresh interpreter.

Run from the root of a polycauchy2 checkout:

    python3 bench/run.py --workload sequence --seed 1 --seconds 30 --trace 0

A run repeats passes over the workload's invocations for about
``--seconds`` seconds. Each invocation is a new ``python3 bench/child.py``
process, started only after the previous one has ended, because a CLI user
pays interpreter start and imports on every call. The seed permutes the invocation order of
every pass and names the cache files; the invocations themselves are fixed,
so the stdout references in ``references.json`` stay valid.

Every invocation's exit code and stdout SHA-256 are checked against its
reference, and ``verify`` output must end in ``status: pass``. A mismatch is
counted as failed and never stops the run. ``correct`` is false when any
invocation failed, except the digit-limit probe refusing with exit 2 and no
stdout, the known defect it is there to show. Only the invocations that did
not make ``correct`` false are timed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run that alternates traced and
untraced passes. Everything else goes to stderr. ``--negative-control``
corrupts one reference, to show that the check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import layer_metrics
from workloads import PREDICTED_ZERO, PROBE, WORKLOADS, probe_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCES = BENCH / "references.json"

# Every time a child measures is scaled by CALIBRATION_S / (the calibration
# kernel's time just before the child is spawned plus just after it ends), so
# times are in seconds of a host on which those two readings add up to
# CALIBRATION_S, their median on the 2-vCPU host the benchmark was defined on.
# This cancels the drift of a shared host's speed, which alone moves a run's
# raw wall_s by 10-20%; raw times go to stderr.
CALIBRATION_S = 0.018

# Whole-run limit: no child is given time past it, so a run ends well within
# three minutes even when the program under test gets much slower.
RUN_LIMIT_S = 150.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Time a fixed exact-arithmetic kernel in this process, with the GC off.

    It runs in the runner, not in the child, so its reading does not depend
    on the state the program under test builds up.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(1, i * i)
        product = 1
        for i in range(1, 2500):
            product = product * (2 * i + 1) // (i if i % 7 else 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Outcome:
    label: str
    main_s: float | None  # calibrated, as is setup_s; None when not timed
    setup_s: float | None
    scale: float  # calibrated / raw
    maxrss_kb: int
    stdout_bytes: int
    cache_bytes: int
    failed: bool
    wrong: bool
    trace: dict | None


def spawn(argv: list[str], trace: bool, spans_path: str, timeout: float) -> tuple[float, dict | None, str]:
    """Run one CLI invocation in a fresh interpreter; return spawn time, report, stderr."""
    command = [sys.executable, str(BENCH / "child.py"), str(SRC), "1" if trace else "0", spans_path, *argv]
    spawned = monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = b"", f"timed out after {timeout:.1f} s".encode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    return spawned, report, err.decode("utf-8", "replace")


def file_state(path: Path | None) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except (AttributeError, OSError):
        return None
    return stat.st_size, stat.st_mtime_ns


class Runner:
    def __init__(self, workload: str, seed: int, references: dict, run_dir: Path, started: float):
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.references = references
        self.run_dir = run_dir
        self.started = started
        # Cache file names come from the seed; a cold invocation gets a new one every pass.
        self.warm_paths = {label: self._cache_name() for label in self.workload.invocations}

    def _cache_name(self) -> Path:
        return self.run_dir / f"cache-{self.rng.getrandbits(64):016x}.json"

    def time_left(self) -> float:
        return RUN_LIMIT_S - (monotonic() - self.started)

    def argv(self, label: str, cache: Path | None) -> list[str]:
        return label.split() + (["--cache", str(cache)] if cache is not None else [])

    def invoke(self, label: str, trace: bool, spans_path: str = "-") -> Outcome:
        cache = None
        if self.workload.cache == "cold":
            cache = self._cache_name()
        elif self.workload.cache == "warm":
            cache = self.warm_paths[label]
        before = file_state(cache)
        calibration = calibrate()
        spawned, report, err = spawn(self.argv(label, cache), trace, spans_path, max(self.time_left(), 1.0))
        calibration += calibrate()
        scale = CALIBRATION_S / calibration
        after = file_state(cache)
        cache_bytes = after[0] if after is not None and after != before else 0
        if self.workload.cache == "cold" and cache is not None:
            cache.unlink(missing_ok=True)
        if report is None:
            print(f"bench: {label}: no report from the child: {err.strip()[-500:]}", file=sys.stderr)
            return Outcome(label, None, None, scale, 0, 0, cache_bytes, True, True, None)
        reference = self.references[label]
        matches = report["exit"] == reference["exit"] and report["sha256"] == reference["sha256"]
        if label.startswith("verify ") and not report["tail"].endswith("status: pass\n"):
            matches = False
        # The known defect: the digit-limit probe refuses instead of printing.
        refused = label == PROBE and report["exit"] == 2 and report["bytes"] == 0
        if not matches:
            reason = err.strip().splitlines()[-1] if err.strip() else "stdout differs from its reference"
            print(f"bench: FAILED {label}: exit {report['exit']}, {report['bytes']} bytes: {reason}", file=sys.stderr)
        wrong = not matches and not refused
        return Outcome(
            label=label,
            main_s=None if wrong else report["main_s"] * scale,
            setup_s=None if wrong else (report["imported"] - spawned) * scale,
            scale=scale,
            maxrss_kb=report["maxrss_kb"],
            stdout_bytes=report["bytes"],
            cache_bytes=cache_bytes,
            failed=not matches,
            wrong=wrong,
            trace=report.get("trace"),
        )

    def set_up(self) -> None:
        """Untimed: compile the package's bytecode, and fill the warm caches."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        spawn(["--help"], False, "-", max(self.time_left(), 1.0))
        if self.workload.cache == "warm":
            for label in self.workload.invocations:
                spawn(self.argv(label, self.warm_paths[label]), False, "-", max(self.time_left(), 1.0))

    def run_pass(self, trace: bool, spans_dir: Path | None = None) -> list[Outcome]:
        order = list(self.workload.invocations)
        self.rng.shuffle(order)
        outcomes = []
        for index, label in enumerate(order):
            if self.time_left() <= 0:
                break
            spans_path = "-"
            if spans_dir is not None:
                spans_path = str(spans_dir / f"{index:02d}-{label.replace(' ', '_')}.json.gz")
            outcomes.append(self.invoke(label, trace, spans_path))
        return outcomes


def quartiles(values: list[float]) -> str:
    if not values:
        return "no samples"
    if len(values) < 2:
        return f"median {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g} (quartiles {q1:.6g}..{q3:.6g})"


def median(values: list[float]) -> float:
    """The median, and 0 for a run in which nothing was timed (it is not correct)."""
    return statistics.median(values) if values else 0.0


def pass_wall(outcomes: list[Outcome]) -> float | None:
    """A pass's wall_s, or None when one of its invocations was not timed."""
    if any(o.main_s is None for o in outcomes):
        return None
    return sum(o.main_s for o in outcomes)


def end_to_end(passes: list[list[Outcome]]) -> dict[str, tuple[float, str]]:
    outcomes = [o for p in passes for o in p]
    walls = [w for w in map(pass_wall, passes) if w is not None]
    per_label: dict[str, list[float]] = {}
    for o in outcomes:
        if o.main_s is not None:
            per_label.setdefault(o.label, []).append(o.main_s)
    # The slowest command is the one with the longest median time, so one
    # slow call on a noisy host does not stand for the command.
    typical = [statistics.median(times) for times in per_label.values()]
    setups = [o.setup_s for o in outcomes if o.setup_s is not None]
    failed = sum(o.failed for o in outcomes)
    print(f"bench: {len(passes)} passes, {len(outcomes)} invocations", file=sys.stderr)
    for label, times in per_label.items():
        print(f"bench:   {label}: {quartiles(times)} s", file=sys.stderr)
    print(f"bench: wall_s per pass: {quartiles(walls)}", file=sys.stderr)
    raw_walls = [sum(o.main_s / o.scale for o in p) for p in passes if pass_wall(p) is not None]
    scales = [o.scale for o in outcomes]
    print(f"bench: raw wall_s per pass: {quartiles(raw_walls)}; calibration scale {quartiles(scales)}", file=sys.stderr)
    print(f"bench: setup_s per invocation: {quartiles(setups)}", file=sys.stderr)
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "slowest_invocation_s": (max(typical, default=0.0), "s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) / 1024, "MB"),
        "pass_ratio": ((len(outcomes) - failed) / len(outcomes), "ratio"),
    }


_UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio", "_bytes": "bytes", "bytes": "bytes"}


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in _UNITS.items() if metric.endswith(suffix)), "count")


def per_layer(name: str, traced: list[list[Outcome]], plain: list[list[Outcome]]) -> dict[str, tuple[float, str]]:
    samples: dict[str, list[float]] = {}
    for outcomes in traced:
        metrics = layer_metrics(
            [(o.trace, o.scale) for o in outcomes if o.trace is not None and not o.wrong],
            sum(o.stdout_bytes for o in outcomes),
            sum(o.cache_bytes for o in outcomes),
        )
        for metric, value in metrics.items():
            samples.setdefault(metric, []).append(value)
    result = {metric: (statistics.median(values), unit_of(metric)) for metric, values in samples.items()}
    traced_wall = median([w for w in map(pass_wall, traced) if w is not None])
    plain_wall = median([w for w in map(pass_wall, plain) if w is not None])
    result["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(
        f"bench: {len(traced)} traced and {len(plain)} untraced passes; wall_s {traced_wall:.4f} traced, "
        f"{plain_wall:.4f} untraced",
        file=sys.stderr,
    )
    print("bench: no wait metrics: the program is single-threaded and has no queues", file=sys.stderr)
    for metric, workloads in PREDICTED_ZERO.items():
        if name in workloads and result[metric][0] != 0:
            print(f"bench: prediction violated: {metric} = {result[metric][0]} on {name}, predicted 0", file=sys.stderr)
    return result


def load_references(negative_control: bool, workload: str) -> dict:
    references = json.loads(REFERENCES.read_text())
    references[PROBE] = probe_reference()
    if negative_control:
        label = WORKLOADS[workload].invocations[0]
        wrong = dict(references[label])
        wrong["sha256"] = ("0" if wrong["sha256"][0] != "0" else "1") + wrong["sha256"][1:]
        references[label] = wrong
        print(f"bench: negative control: wrong reference for {label!r}", file=sys.stderr)
    return references


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    started = monotonic()

    if not (SRC / "polycauchy2" / "cli.py").is_file():
        print(f"bench: no polycauchy2 sources under {SRC}; run from a polycauchy2 checkout", file=sys.stderr)
        return 2

    references = load_references(args.negative_control, args.workload)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, references, run_dir, started)
    spans_dir = None
    if args.trace:
        spans_dir = WORK / "trace" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    try:
        runner.set_up()
        plain: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        # Start a pass only if it is expected to end within --seconds, so that
        # a run takes about as long as asked whatever the pass length.
        measuring = monotonic()
        deadline = measuring + args.seconds
        while runner.time_left() > 0:
            enough = plain and (traced or not args.trace)
            mean_pass = (monotonic() - measuring) / max(len(plain) + len(traced), 1)
            if enough and monotonic() + mean_pass > deadline:
                break
            if args.trace and len(traced) < len(plain):
                traced.append(runner.run_pass(True, spans_dir if not traced else None))
            else:
                plain.append(runner.run_pass(False))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = [o for p in plain + traced for o in p]
    complete = len(WORKLOADS[args.workload].invocations)
    plain = [p for p in plain if len(p) == complete]
    traced = [p for p in traced if len(p) == complete]
    if not plain or (args.trace and not traced):
        print("bench: the time limit ended the run before a complete pass", file=sys.stderr)
        return 1
    if spans_dir is not None:
        print(f"bench: spans of the first traced pass are in {spans_dir}", file=sys.stderr)

    metrics = per_layer(args.workload, traced, plain) if args.trace else end_to_end(plain)
    result = {
        "correct": not any(o.wrong for o in everything),
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
