#!/usr/bin/env python3
"""weylbranch benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload {scan_p0,verify_tables,freudenthal_sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; weylbranch is imported from its ``src/``.
Each pass is a fresh ``child.py`` process, because command-line users pay the
cache fills on every invocation.  Every time is reported at reference speed
(see ``speed.py``): scaled by how fast a fixed reference computation ran
around it, so that the host's changing speed does not show as a change of
the program.  Pass k shuffles the items with the order seed "<seed>.<k>",
so one run covers several item orders.  The run first starts SETUP_SAMPLES
processes that stop before the first item, then runs MIN_PASSES whole
passes, and more while the next one is expected to end within --seconds.  Every record of every pass is checked against the
workload's oracle, the committed digest and (for verify_tables) the committed
verdict counts, in this process, after timing.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones plus trace.overhead_frac.  Information lines go first; the
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 8
MIN_PASSES = 2  # a median needs more than one pass; with --trace 1, one of each kind
DEADLINE_S = 170  # every run must end within 180 s
PRE_SAMPLES = 5  # reference samples taken just before starting a child, for its set-up
SETUP_WINDOW_S = 2.0
# settings that change which code runs or how much; a run never inherits them
SCRUBBED_ENV = ("WEYLBRANCH_CAP", "WEYLBRANCH_NO_NUMBA", "PYTHONPATH", "PYTHONHASHSEED")


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, trace=False, limit=None, setup_only=False, timeout=DEADLINE_S):
    """Run one child process.

    Its JSON result, plus ``t0`` (just before the start), ``setup_raw_s``,
    ``proc_s``, and in ``samples`` the reference samples taken by this process
    just before ``t0`` as well as the child's own.
    """
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if limit:
        cmd += ["--limit", str(limit)]
    if setup_only:
        cmd.append("--setup-only")
    pre = speed.sample(PRE_SAMPLES)
    t0 = speed.clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["t0"] = t0
    out["setup_raw_s"] = out["t_ready"] - t0 - out["spent_ready"]
    out["samples"] = pre + [tuple(s) for s in out["samples"]]
    out["proc_s"] = speed.clock() - t0
    return out


def setup_times(procs):
    """Each process's set-up time at reference speed.

    A set-up lasts a few tenths of a second, too short for the samples taken
    during it to give a steady speed, so it is scaled by the median of every
    sample of the run within SETUP_WINDOW_S of it, with the set-up exponent.
    """
    scale = speed.Scale([s for p in procs for s in p["samples"]], SETUP_WINDOW_S, speed.SETUP_EXPONENT)
    return [scale(p["t0"], p["t_ready"], p["setup_raw_s"]) for p in procs]


def tail_rank(n):
    """(percentile, 1-based rank) of the highest percentile with >= 10 items beyond it."""
    if n <= 10:
        return 100, n
    q = math.floor(100 * (n - 10) / n)
    return q, math.ceil(q * n / 100)


def end_to_end(passes, setups):
    walls = [p["wall_s"] for p in passes]
    n = len(passes[0]["item_s"])
    _, rank = tail_rank(n)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (statistics.median(n / w for w in walls), "1/s"),
        "item_p50_ms": (statistics.median(1000 * statistics.median(p["item_s"]) for p in passes), "ms"),
        "item_tail_ms": (statistics.median(1000 * sorted(p["item_s"])[rank - 1] for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def per_layer(traced, untraced):
    out = {}
    for name, unit in layers.metric_names().items():
        if name == "trace.overhead_frac":
            t = statistics.median(p["wall_s"] for p in traced)
            u = statistics.median(p["wall_s"] for p in untraced)
            out[name] = (t / u - 1, unit)
        else:
            out[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    return out


def check(workload, passes, expected, limited=False):
    """(correct, attempted, failed, digest, problems) over every pass."""
    sys.path.insert(0, str(SRC))
    import weylbranch as wb

    oracle = workloads.Oracle(wb, workload)
    spec = expected["workloads"][workload]
    attempted = failed = 0
    problems = []
    digests = set()
    for p in passes:
        n = len(p["item_s"])
        attempted += n
        bad = set(p["errors"])
        bad.update(i for i, rec in p["records"].items() if oracle.failed(i, rec))
        digest = workloads.digest(p["records"])
        digests.add(digest)
        if not limited:
            if n != spec["items"]:
                problems.append(f"{n} items, expected {spec['items']}")
            if digest != spec["digest"]:
                problems.append(f"digest {digest} differs from the committed one")
                bad.update(p["records"])
            if workload == "verify_tables" and workloads.verdict_counts(p["records"]) != spec["verdicts"]:
                problems.append(f"verdict counts {workloads.verdict_counts(p['records'])}")
        for i in sorted(bad)[:5]:
            problems.append(f"item {i} failed: {p['errors'].get(i, 'wrong output')}")
        failed += len(bad)
    if len(digests) > 1:
        problems.append("passes disagree on the digest")
    correct = failed == 0 and not problems
    return correct, attempted, failed, sorted(digests)[0], problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "weylbranch" / "__init__.py").is_file():
        print(f"error: no weylbranch sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    if args.workload not in expected["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = speed.clock()
    try:
        samples = 0 if args.trace else SETUP_SAMPLES
        setups = [spawn(args.workload, args.seed, setup_only=True) for _ in range(samples)]
        passes = []
        last_s = {}
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            left = start + DEADLINE_S - speed.clock()
            order = f"{args.seed}.{len(passes)}"
            passes.append(spawn(args.workload, order, trace=traced, timeout=left))
            last_s[traced] = passes[-1]["proc_s"]
            if len(passes) < MIN_PASSES:
                continue
            next_traced = bool(args.trace) and len(passes) % 2 == 1
            estimate = last_s.get(next_traced, passes[-1]["proc_s"])
            if speed.clock() - start + estimate > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    envs = {json.dumps(r["env"], sort_keys=True) for r in setups + passes}
    env = json.loads(envs.pop())
    if envs or env["kernel_path"] != expected["kernel_path"]:
        print(f"error: kernel path {env['kernel_path']} differs from the committed "
              f"{expected['kernel_path']!r} baseline; results are not comparable", file=sys.stderr)
        return 3

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    correct, attempted, failed, digest, problems = check(args.workload, passes, expected)
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setup_times(setups + passes))
    n_items = len(passes[0]["item_s"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "items_per_pass": n_items,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_wall_raw_s": [round(p["wall_raw_s"], 4) for p in passes],
        "pass_ref_ms": [round(p["ref_ms"], 4) for p in passes],
        "setup_samples_s": [round(s, 4) for s in setup_times(setups + passes)],
        "setup_samples_raw_s": [round(r["setup_raw_s"], 4) for r in setups + passes],
        "item_tail_percentile": tail_rank(n_items)[0],
        "digest": digest,
        "nproc": len(os.sched_getaffinity(0)),
        **env,
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
