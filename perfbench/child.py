"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed S [--trace] [--limit K] [--setup-only]

Starts a ``speed.Sampler`` first, imports weylbranch from ``src/`` of the
checkout, builds the item list, stamps the monotonic clock just before the
first item (run.py subtracts its own stamp taken before starting the process,
giving ``setup_s``), runs the item loop, and prints one JSON object: per-item
and loop times at reference speed (and as measured), peak RSS, the canonical
record of every item, every reference sample and, with --trace, per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

import speed  # first, so that its sampler also covers the set-up

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, help="item-order seed (any string)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = speed.Sampler().start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler):
    sys.path.insert(0, str(SRC))
    import numpy
    import weylbranch as wb
    from weylbranch import kernels

    import layers
    import workloads

    if not Path(wb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"weylbranch imported from {wb.__file__}, not from {SRC}")
    tracer = layers.Tracer().install() if args.trace else None
    if tracer:
        sampler.stack = tracer.stack
    items = workloads.order(workloads.setup(wb, args.workload), args.seed, args.limit)
    t_ready = speed.clock()
    result = {
        "t_ready": t_ready,
        "spent_ready": sampler.spent,
        "env": {
            "kernel_path": "numba" if kernels.HAVE_NUMBA else "pure",
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if args.setup_only:
        result["samples"] = sampler.samples
        print(json.dumps(result))
        return 0

    name = args.workload
    call = workloads.call
    clock = speed.clock
    outputs = []
    spans = []  # (start, end, seconds of work: the span less the sampler's time)
    errors = {}
    busy0 = tracer.busy_s() if tracer else 0.0
    first = len(sampler.samples)
    t0, spent0 = clock(), sampler.spent
    for item_id, item_args in items:
        t, spent = clock(), sampler.spent
        try:
            outputs.append((item_id, call(wb, name, item_args)))
        except Exception:  # one broken item must not hide the others
            errors[item_id] = traceback.format_exc(limit=3)
        end = clock()
        spans.append((t, end, end - t - (sampler.spent - spent)))
    wall_raw = clock() - t0 - (sampler.spent - spent0)
    sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = speed.Scale(sampler.samples)
    item_s = [scale(start, end, work) for start, end, work in spans]

    result.update({
        "samples": sampler.samples,
        "wall_s": sum(item_s),
        "wall_raw_s": wall_raw,
        "ref_ms": 1000 * statistics.median(d for _, d in sampler.samples[first:] or sampler.samples),
        "item_s": item_s,
        "rss_mb": rss_kb / 1024,
        "records": {item_id: workloads.record(name, out) for item_id, out in outputs},
        "errors": errors,
    })
    if tracer:
        result["layers"] = tracer.metrics(wall_raw, tracer.busy_s() - busy0)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
