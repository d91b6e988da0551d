"""One workload in one fresh process, driven by ``bench/run.py``.

The worker imports ``prismatic.cli`` from ``src`` of the checkout that holds
this file, prints ``ready``
and, unless it only measures set-up, runs passes over the workload's request
list until the time is up, calling ``prismatic.cli.main(argv)`` in-process
with stdout and stderr captured.  Answers are checked against the frozen
references after each pass, outside the timed region.  During untraced
passes a ``HostMeter`` samples the host's speed for a small share of the
time, and the report carries the factor that scales their times to a
nominal host speed (see ``hostspeed.py``).  With ``--trace 1``
passes come in pairs, an untraced pass and then a traced pass on the same
request list, and the spans of the first traced pass are written to
``bench/out/spans-<workload>.txt``.  The last line printed is a JSON report
for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Share of the time of an untraced pass spent sampling the host's speed, and
# the time between two samples.
HOST_SHARE = 0.05
HOST_EVERY_S = 0.1


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_request(main, argv: list[str]):
    """(seconds, exit code, stdout, stderr, escaped exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # the benchmark counts it as a failed request
            error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), error


def main() -> int:
    args = parse_args()
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    import prismatic.cli as cli

    if not str(Path(cli.__file__).resolve()).startswith(src):
        raise SystemExit(f"imported prismatic from {cli.__file__}, not from {src}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy

    from answers import check_bad, check_valid
    from hostspeed import HostMeter
    from tracing import Tracer
    from workloads import load_reference, make_pass

    ref = load_reference()
    tracer = Tracer() if args.trace else None
    meter = HostMeter(HOST_SHARE)
    # A traced pass always follows the untraced pass it is compared with.
    group = 2 if tracer else 1
    passes = []
    failures = []
    attempted = 0
    begin = time.perf_counter()
    while True:
        index = len(passes)
        traced = index % group == 1
        if index >= group and index % group == 0:
            elapsed = time.perf_counter() - begin
            estimate = group * max(p["wall_s"] for p in passes[-2:]) * (1 + HOST_SHARE)
            if elapsed + estimate > args.seconds:
                break
        requests = make_pass(args.workload, args.seed, index // group, ref)
        gc.collect()
        if traced:
            tracer.install()
        else:
            meter.start(HOST_EVERY_S)
        results = []
        for number, req in enumerate(requests):
            if traced:
                tracer.request = index * len(requests) + number
            paused = meter.paused
            seconds, *rest = run_request(cli.main, req.argv)
            # Leave out the time the meter spent sampling during the request.
            results.append((seconds - (meter.paused - paused), *rest))
        wall = sum(r[0] for r in results)
        if traced:
            tracer.uninstall()
            tracer.end_pass()
        else:
            meter.stop()
        for req, (_, rc, out, err, error) in zip(requests, results):
            if req.bad:
                why = check_bad(rc, out, err, error)
            else:
                why = check_valid(req.kind, req.argv, ref["answers"][req.ref], rc, out, error)
            if why is not None:
                failures.append({"command": req.argv[0], "bad": req.bad, "why": why})
        attempted += len(requests)
        passes.append({"wall_s": wall, "traced": traced, "op_s": [r[0] for r in results]})

    report = {
        "passes": passes,
        "host_scale": meter.scale(),
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.txt")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
