"""Tests of the benchmark itself, on the first few items of each workload."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

LIMIT = 4
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())


@pytest.fixture(scope="module")
def passes():
    """(workload, seed, traced) -> one child pass over the first LIMIT items."""
    cache = {}

    def get(workload, seed=1, traced=False):
        key = (workload, seed, traced)
        if key not in cache:
            cache[key] = run.spawn(workload, seed, trace=traced, limit=LIMIT)
        return cache[key]

    return get


def _corrupt(workload, rec):
    if workload == "scan_p0":
        lam, verdict = rec[0]
        rec[0] = [lam, "REDUCIBLE" if verdict == "IRREDUCIBLE" else "IRREDUCIBLE"]
    elif workload == "verify_tables":
        rec["verdict"] = "FAIL"
    else:
        rec["total_dim"] += 1


def test_scan_pool_is_the_criterion_7_pool_at_rank_5():
    from weylbranch import build_embedding
    from weylbranch.embeddings import existence_ok
    from weylbranch.rootsys import LieType
    from weylbranch.tables import _family_from_params, _int_solutions

    pool = []
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 6):
            for tag in ("c1", "c2", "c3", "c4i", "c4ii", "c6"):
                for params in _int_solutions(tag, fam, n):
                    gf = _family_from_params(tag, params)
                    try:
                        e = build_embedding(LieType(fam, n), gf)
                    except ValueError:
                        continue
                    if existence_ok(e, 0):
                        pool.append(f"{fam}{n} {gf}")
    assert tuple(pool) == workloads.SCAN_EMBEDDINGS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(passes, workload):
    good = passes(workload)
    correct, attempted, failed, _, _ = run.check(workload, [good], EXPECTED, limited=True)
    assert (correct, attempted, failed) == (True, LIMIT, 0)
    bad = json.loads(json.dumps(good))
    _corrupt(workload, bad["records"][min(bad["records"])])
    correct, attempted, failed, _, _ = run.check(workload, [bad], EXPECTED, limited=True)
    assert not correct and failed == 1 and failed / attempted > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digest_ignores_seed_and_tracing(passes, workload):
    digests = {
        workloads.digest(passes(workload, seed, traced)["records"])
        for seed, traced in ((1, False), (2, False), (1, True))
    }
    assert len(digests) == 1


def test_trace_emits_exactly_the_listed_layers(passes):
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed == layers.metric_names()
    for workload in workloads.WORKLOADS:
        traced = passes(workload, traced=True)
        untraced = passes(workload)
        emitted = run.per_layer([traced], [untraced])
        assert {k: unit for k, (_, unit) in emitted.items()} == listed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_values_are_zero_only_on_bypassed_layers(passes, workload):
    emitted = run.per_layer([passes(workload, traced=True)], [passes(workload)])
    values = {name: value for name, (value, _) in emitted.items()}
    assert all(math.isfinite(v) for v in values.values())
    assert 0 < values["trace.coverage"] <= 1
    for _, _, layer, work, _ in layers.TIMED:
        calls = values[f"{layer}.calls"]
        assert calls >= 0
        assert (values[f"{layer}.s"] > 0) == (calls > 0), layer
        if work:
            extra = values[f"{layer}.reject_ratio" if work == "rejects" else f"{layer}.{work}"]
            assert extra >= 0 and (calls > 0 or extra == 0), layer
    for layer in layers.CACHES:
        ratio = values[f"{layer}.hit_ratio"]
        assert 0 <= ratio <= 1 and (values[f"{layer}.calls"] > 0 or ratio == 0), layer


def test_end_to_end_metrics_are_the_listed_ones(passes):
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    emitted = run.end_to_end([passes("freudenthal_sweep")], [0.5])
    assert {k: unit for k, (_, unit) in emitted.items()} == listed
    assert all(value > 0 for value, _ in emitted.values())


def test_scale_uses_the_reference_samples_around_an_interval():
    fast, slow = speed.REF_S, 2 * speed.REF_S
    scale = speed.Scale([(t / 10, fast if t < 50 else slow) for t in range(100)])
    assert scale(1.0, 2.0, 3.0) == pytest.approx(3.0)
    slowed = 3.0 * 0.5 ** speed.EXPONENT
    assert scale(7.0, 8.0, 3.0) == pytest.approx(slowed)
    # outside the samples: the three nearest
    assert scale(-5.0, -4.0, 3.0) == pytest.approx(3.0)
    assert scale(100.0, 101.0, 3.0) == pytest.approx(slowed)
    setup_scale = speed.Scale(scale.samples, exponent=speed.SETUP_EXPONENT)
    assert setup_scale(7.0, 8.0, 3.0) == pytest.approx(3.0 * 0.5 ** speed.SETUP_EXPONENT)


def test_sampler_books_its_time_outside_the_open_span():
    stack = [[speed.clock(), 0.0]]
    sampler = speed.Sampler(stack).start()
    try:
        t = speed.clock()
        while speed.clock() - t < 5 * speed.TICK_S:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(d for _, d in sampler.samples))
    assert stack[0][1] == pytest.approx(sampler.spent)


def test_pass_times_are_scaled_item_times(passes):
    p = passes("freudenthal_sweep")
    assert p["samples"] and all(s > 0 for s in p["item_s"])
    assert p["wall_s"] == pytest.approx(sum(p["item_s"]))
    assert p["wall_raw_s"] > 0 and p["setup_raw_s"] > 0
    assert all(s > 0 for s in run.setup_times([p, passes("scan_p0")]))


def test_tail_rank_leaves_ten_items_beyond():
    for n in (42, 794, 1334):
        q, rank = run.tail_rank(n)
        assert n - rank >= 10
        assert n - math.ceil((q + 1) * n / 100) < 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "scan_p0",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
