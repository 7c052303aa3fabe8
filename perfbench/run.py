"""grlogic benchmark: one closed-loop caller, one operation at a time.

    python3 perfbench/run.py --workload plane-decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats whole rounds of seeded operations until the operations have
taken --seconds in total and at least 100 have completed.  It checks every
output outside the timed region, scales operation times to a reference
machine speed (see the probe below), and prints the metrics, then one JSON
line as its last line.  With
--trace 1 each round runs once plainly and once under the tracer, and the
per-layer metrics come from the traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle  # the benchmark's own code; this file's directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("plane-decide", "exact-lattice", "ring-compile")
END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
MIN_OPS = 100  # completed operations per run, so ten lie beyond the 90th percentile


def load_library() -> None:
    """Put the checkout's own src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "grlogic" / "__init__.py").is_file():
        raise SystemExit(f"error: no grlogic sources under {src}")
    sys.path.insert(0, str(src))


def make_workload(name: str):
    if name == "plane-decide":
        from plane_decide import PlaneDecide

        return PlaneDecide()
    if name == "exact-lattice":
        from exact_lattice import ExactLattice

        return ExactLattice()
    from ring_compile import RingCompile

    return RingCompile()


# Operation times are scaled to a reference machine speed.  The CPU speed of
# a shared host swings by tens of percent within a minute, and that swing
# would swamp the library's own changes.  So a fixed pure-Python probe, the
# benchmark's own Gaussian-rational row reduction that shares no code with
# grlogic, is timed before the first operation and again whenever
# PROBE_EVERY_S of operation time has passed.  Each operation's time is
# multiplied by REFERENCE_PROBE_S over the mean of the two probes around it.
PROBE_EVERY_S = 0.15
REFERENCE_PROBE_S = 0.010
PROBE_ROWS = [
    [(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4), Fraction((i + 2 * j) % 5 - 2)) for j in range(6)]
    for i in range(5)
]


def probe_seconds() -> float:
    start = time.perf_counter()
    for _ in range(5):
        oracle.rref(PROBE_ROWS, 6)
    return time.perf_counter() - start


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters that import grlogic.cli and
    build the workload's fixed inputs, scaled like operation times."""
    times = []
    before = probe_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload], check=True)
        elapsed = time.perf_counter() - start
        after = probe_seconds()
        times.append(elapsed * REFERENCE_PROBE_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # scaled, completed operations only
        self.seconds = 0.0  # scaled, all operations
        self.raw_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.by_kind: dict[str, list[float]] = {}
        self.check_seconds = 0.0
        self.probes: list[float] = []
        self._pending: list[tuple[float, str | None]] = []  # (raw seconds, kind or None if failed)
        self._since_probe = 0.0

    def probe(self) -> None:
        """Time the probe and scale the operations run since the previous one."""
        p = probe_seconds()
        if self.probes:
            factor = REFERENCE_PROBE_S / ((self.probes[-1] + p) / 2)
            for raw, kind in self._pending:
                self.seconds += raw * factor
                if kind is not None:
                    self.latencies.append(raw * factor)
                    self.by_kind.setdefault(kind, []).append(raw * factor)
        self.probes.append(p)
        self._pending.clear()
        self._since_probe = 0.0

    def run(self, ops, tracer=None) -> None:
        for op in ops:
            if not self.probes or self._since_probe >= PROBE_EVERY_S:
                self.probe()
            self.attempted += 1
            if tracer:
                tracer.install()
            start = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
                out, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
            self.raw_seconds += elapsed
            self._since_probe += elapsed
            if error is not None:
                self._pending.append((elapsed, None))
                self.failed += 1
                if not (op.fails_with and isinstance(error, op.fails_with)):
                    self.errors.append(f"{op.kind}: unexpected {type(error).__name__}: {error}")
                continue
            self._pending.append((elapsed, op.kind))
            start = time.perf_counter()
            try:
                op.check(out)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            self.check_seconds += time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(workload)
    rng = random.Random(seed)
    plain = Tally()
    traced = Tally()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = 0
    while plain.raw_seconds + traced.raw_seconds < seconds or plain.attempted - plain.failed < MIN_OPS:
        ops = wl.round(rng)
        plain.run(ops)
        if tracer:
            traced.run(ops, tracer)
            tracer.forget_formulas()
        rounds += 1
    plain.probe()
    if tracer:
        traced.probe()
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    errors = plain.errors + traced.errors
    if tracer:
        overhead = 100.0 * (traced.seconds / plain.seconds - 1.0)
        metrics = tracer.metrics(overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-{seed}.spans")
    else:
        lat = sorted(plain.latencies)
        metrics = {
            "setup_s": setup_seconds(workload),
            "ops_per_s": (plain.attempted - plain.failed) / plain.seconds,
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "rounds": rounds,
        "errors": errors,
        "check_seconds": plain.check_seconds + traced.check_seconds,
        "raw_operation_seconds": plain.raw_seconds,
        "scaled_operation_seconds": plain.seconds,
        "probe_ms": {
            "median": 1000.0 * statistics.median(plain.probes),
            "min": 1000.0 * min(plain.probes),
            "max": 1000.0 * max(plain.probes),
            "count": len(plain.probes),
        },
        "kinds": {
            k: {"ops": len(v), "seconds": sum(v), "median_ms": 1000.0 * statistics.median(v)}
            for k, v in sorted(plain.by_kind.items())
        },
        "result": {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def units() -> dict[str, str]:
    from tracer import PER_LAYER

    return {**END_TO_END, **PER_LAYER}


def report(workload: str, seed: int, trace: bool, outcome: dict) -> None:
    result = outcome["result"]
    unit = units()
    result["metrics"] = {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()}
    for err in outcome["errors"][:20]:
        print(f"CHECK FAILED {err}")
    print(f"workload {workload} seed {seed} rounds {outcome['rounds']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(outcome, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_library()
    if args.setup_only:
        import grlogic.cli  # noqa: F401 - the import every CLI call pays

        make_workload(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
