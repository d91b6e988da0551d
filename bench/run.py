"""Benchmark of the prismatic CLI: one workload, one seed, one run.

    python3 bench/run.py --workload {sweep,queries,large} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout that holds ``src/prismatic``.  It
spawns the workload's process several times to time set-up (interpreter
start until ``prismatic.cli`` is imported); one of the spawns runs the
workload in-process for ``--seconds``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The times ``setup_s`` and ``wall_s`` are scaled to a
nominal host speed measured alongside them (see ``hostspeed.py``).  Lines
before it record the environment, the failed requests, the figures that are
printed but not gated (``fail_frac`` and the per-request latencies
``op_p50_s`` and ``op_p90_s`` with their sample count) and the unscaled
times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import HostMeter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed on this many spawns that only import, half before and half
# after the workload's own spawn, so that the median spans the whole run.
SETUP_SPAWNS = 12
# Share of each set-up time spent sampling the host's speed right after it;
# each set-up time is scaled by its own sample.
SETUP_HOST_SHARE = 0.25
# Whole run, set-up included, must end well within three minutes.
RUN_LIMIT_S = 170
# Single-threaded load on a shared machine: keep BLAS to one thread.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    src = ROOT / "src" / "prismatic"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "pinned_threads": PINNED,
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unavailable"
    return ref


def spawn(extra: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ``ready`` line; (set-up seconds, process)."""
    env = dict(os.environ, **PINNED)
    argv = [sys.executable, str(BENCH / "worker.py"), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        fail("worker did not start")
    return setup, proc


def setup_only(deadline: float) -> tuple[float, float]:
    """Set-up seconds of one spawn, as measured and scaled to the nominal host speed."""
    seconds, proc = spawn(["--setup-only"], deadline)
    finish(proc, deadline)
    meter = HostMeter(SETUP_HOST_SHARE)
    meter.sample(seconds)
    return seconds, seconds * meter.scale()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until the deadline, kill it if it overruns; its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker overran the time limit")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    return out


def tail_percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile if at least TAIL_SAMPLES samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "prismatic" / "cli.py").is_file():
        fail(f"no src/prismatic under {ROOT}; run from a checkout of the repository")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()

    setups = [setup_only(deadline) for _ in range(SETUP_SPAWNS // 2)]
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    _, proc = spawn(extra, deadline)
    report = json.loads(finish(proc, deadline).splitlines()[-1])
    setups += [setup_only(deadline) for _ in range(SETUP_SPAWNS // 2)]

    env["numpy"] = report["numpy"]
    print("env:", json.dumps(env, sort_keys=True))
    reasons = Counter((f["command"], f["bad"], f["why"]) for f in report["failures"])
    for (command, bad, why), count in sorted(reasons.items()):
        print(f"failed: {count} x {'bad' if bad else 'valid'} {command} request: {why}")

    plain = [p for p in report["passes"] if not p["traced"]]
    ops = [t for p in plain for t in p["op_s"]]
    attempted = report["attempted"]
    failed = len(report["failures"])
    correct = not any(not f["bad"] for f in report["failures"])
    wall_s = statistics.fmean(p["wall_s"] for p in plain)
    setup_s = statistics.median(raw for raw, _ in setups)
    p90 = tail_percentile(ops, 90)
    print(f"workload={args.workload} seed={args.seed} passes={len(report['passes'])} "
          f"fail_frac={failed / attempted:.6f} ({failed}/{attempted}) "
          f"op_p50_s={statistics.median(ops):.6f} op_p90_s={'n/a' if p90 is None else f'{p90:.6f}'} "
          f"(samples={len(ops)}; a percentile needs >= {TAIL_SAMPLES} samples beyond it)")
    print(f"host seconds, before scaling to the nominal host speed: wall_s={wall_s:.6f} "
          f"setup_s={setup_s:.6f}; scale {report['host_scale']:.6f}")

    if args.trace:
        # Passes come in pairs on the same requests: untraced, then traced.
        passes = report["passes"]
        layers = report["layers"]
        layers["trace.overhead"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(passes[0::2], passes[1::2]))
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
            "wall_s": {"value": wall_s * report["host_scale"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_frac") or stat == "overhead":
        return "ratio"
    return {"bytes": "B"}.get(stat, "count")


if __name__ == "__main__":
    sys.exit(main())
