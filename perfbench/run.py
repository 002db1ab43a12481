"""Benchmark of tropgc: timed workloads, answer checks, end-to-end metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; tropgc is imported from ./src. Every
sample is a fresh process (perfbench/sample.py), one at a time, with its own
TROPGC_CACHE under ./.perfbench-tmp, which is removed on exit. Warm
workloads fill the cache in separate processes first, so the canonical-form
memo of the timed process starts empty.

--trace 0 reports the median over samples of
  wall_s       wall time of the timed section
  cpu_s        user + sys CPU time of the timed process in that section
  setup_s      process start and import, plus the cache fill when warm
  peak_rss_mb  peak resident set of the timed process
The three times are scaled by the host's speed at the moment they were
taken (see REFERENCE_S). Lines before the result also give each unscaled
median, the highest percentile with at least ten samples beyond it, the
sample count, and failed_frac (failed / attempted).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics (perfbench/spans.py) of the traced sample with the median wall time.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --workload all the workloads run in turn, each
ending in its own result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

from sample import WORKLOADS  # noqa: E402
from spans import PER_LAYER  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
WORK_DIR = os.path.join(ROOT, ".perfbench-tmp")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
FILLS = 3             # set-up is repeated and its median reported
MIN_SAMPLES = 3
MIN_TRACED = 2        # two traced samples must agree on every count
CHILD_TIMEOUT_S = 120
# Timings are scaled to a host that does sample.reference_s's work in this
# many seconds (about what it took on the 2-CPU host the benchmark was
# defined on). The reference is timed next to every timed section, so the
# host's speed at that moment, which drifts by a quarter or more on a
# shared machine, cancels out of the ratio.
REFERENCE_S = 0.085


class Run:
    """Scratch space and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.samples = 0
        self.template = os.path.join(work, "filled")

    def _spawn(self, extra: list[str], cache: str):
        env = dict(os.environ, TROPGC_CACHE=cache,
                   PYTHONPYCACHEPREFIX=os.path.join(self.work, "pycache"))
        spawned = time.monotonic()
        cmd = [sys.executable, SAMPLE, "--workload", self.workload,
               "--seed", str(self.seed), "--spawned-at", repr(spawned), *extra]
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)

    def fill(self) -> tuple[float, float]:
        """Fill the cache FILLS times from empty; keep the last copy as the
        template for every sample. Returns the median fill time, scaled
        (see REFERENCE_S) and unscaled; zeros when the workload runs cold."""
        if WORKLOADS[self.workload][1] is None:
            os.makedirs(self.template)
            return 0.0, 0.0
        fills = []
        for _ in range(FILLS):
            shutil.rmtree(self.template, ignore_errors=True)
            try:
                proc = self._spawn(["--fill"], self.template)
            except subprocess.TimeoutExpired:
                raise RuntimeError("cache fill timed out") from None
            if proc.returncode != 0:
                raise RuntimeError(f"cache fill failed:\n{proc.stderr}")
            fills.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return (statistics.median(_scaled(fills, "fill_s")),
                statistics.median(f["fill_s"] for f in fills))

    def sample(self, trace: bool) -> dict:
        self.samples += 1
        cache = os.path.join(self.work, f"cache-{self.samples}")
        shutil.copytree(self.template, cache)
        try:
            proc = self._spawn(["--trace"] if trace else [], cache)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False,
                    "error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
        return json.loads(lines[-1])


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    k = n - 11  # sorted index with exactly ten samples above it
    return f"p{100 * (k + 1) / n:.0f} {sorted(values)[k]:.4f}, n={n}"


def _collect(run: Run, seconds: float, traces: tuple[bool, ...],
             minimum: int) -> list[list[dict]]:
    """Run rounds of samples, one per entry of traces, until the next round
    would end past the deadline and at least `minimum` rounds are done."""
    rounds: list[list[dict]] = []
    deadline = time.monotonic() + seconds
    durations = []
    while True:
        t = time.monotonic()
        rounds.append([run.sample(trace) for trace in traces])
        durations.append(time.monotonic() - t)
        if (len(rounds) >= minimum
                and time.monotonic() + statistics.median(durations) > deadline):
            return rounds


def _scaled(samples: list[dict], key: str) -> list[float]:
    """Each sample's time `key` on a host whose reference work takes
    REFERENCE_S; see sample.reference_s."""
    return [s[key] * REFERENCE_S / s["reference_s"] for s in samples]


def _timed(run: Run, seconds: float, fill: tuple[float, float]):
    samples = [s for (s,) in _collect(run, seconds, (False,), MIN_SAMPLES)]
    good = [s for s in samples if s["ok"]]
    if not good:
        return samples, None
    scaled_fill, raw_fill = fill
    values = {
        "wall_s": _scaled(good, "wall_s"),
        "cpu_s": _scaled(good, "cpu_s"),
        "setup_s": [scaled_fill + x for x in _scaled(good, "startup_s")],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    raw = {"wall_s": [s["wall_s"] for s in good],
           "cpu_s": [s["cpu_s"] for s in good],
           "setup_s": [raw_fill + s["startup_s"] for s in good]}
    metrics = {name: statistics.median(values[name]) for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        unscaled = (f" (unscaled {statistics.median(raw[name]):.4f})"
                    if name in raw else "")
        print(f"{run.workload} {name}: median {metrics[name]:.4f} {unit}"
              f"{unscaled}, {_tail(values[name])}")
    return samples, metrics


def _traced(run: Run, seconds: float):
    rounds = _collect(run, seconds, (False, True), MIN_TRACED)
    samples = [s for pair in rounds for s in pair]
    plain = [p for p, _ in rounds if p["ok"]]
    good = [t for _, t in rounds if t["ok"]]
    if not good or not plain:
        return samples, None
    # Counts must repeat exactly between traced samples of one seed.
    counts = [{k: v for k, v in s["layers"].items() if not k.endswith("_s")}
              for s in good]
    if any(c != counts[0] for c in counts):
        for s in good:
            s["ok"], s["error"] = False, "traced counts differ between samples"
    good.sort(key=lambda s: s["wall_s"])
    metrics = dict(good[(len(good) - 1) // 2]["layers"])
    metrics["trace.overhead_s"] = (
        statistics.median(_scaled(good, "wall_s"))
        - statistics.median(_scaled(plain, "wall_s")))
    metrics["trace.reference_s"] = statistics.median(
        s["reference_s"] for s in plain + good)
    print(f"{run.workload} trace: {len(good)} traced, {len(plain)} untraced "
          f"samples; unattributed {metrics['trace.unattributed_s']:.4f} s of "
          f"{metrics['trace.wall_s']:.4f} s")
    return samples, metrics


def _bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its result line; returns the exit code."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        run = Run(workload, seed, work)
        fill = run.fill()
        if trace:
            samples, metrics = _traced(run, seconds)
            units = dict(PER_LAYER)
        else:
            samples, metrics = _timed(run, seconds, fill)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # not empty: another run is using it
    failed = [s for s in samples if not s["ok"]]
    for s in failed[:5]:
        print(f"{workload} failed sample: {s['error']}", file=sys.stderr)
    print(f"{workload} failed_frac: {len(failed) / len(samples):.4f} "
          f"({len(failed)}/{len(samples)})")
    if metrics is None:
        print("perfbench: no sample succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tropgc", "__init__.py")):
        print(f"perfbench: no tropgc source under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(_bench(name, args.seed, args.seconds, bool(args.trace))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
