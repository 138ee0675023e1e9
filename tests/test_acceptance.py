"""Acceptance suite: one test per criterion, each printing a PASS line.

Regression values were frozen from the first calibrated run of the seeded
workloads below; they are deterministic given the seeds, and the asserted
tolerance is +/-0.05 around the frozen means.
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

import pytest

from reordermon.checkmodel import check_model_presets, empirical_guarantee
from reordermon.cli import main as cli_main
from reordermon.controlplane import AggregatorMode
from reordermon.harness import ExperimentSpec, detector_params, run_experiment
from reordermon.heavyhitter import HHParams, ReorderHeavyHitter
from reordermon.hybrid import HybridDetector
from reordermon.model import Prefix, ReorderDef
from reordermon.oracle import compute_stats, mean_pearson_correlation
from reordermon.reports import ReportColumns
from reordermon.sampling import FlowSamplingArray, SamplerParams
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays

from conftest import per_packet_rows, random_trace, report_rows, stats_tables
from test_oracle import quadratic_recount
from test_sampling import find_injective_seed

DEF1 = ReorderDef.DEF1_DECREASE
DEF2 = ReorderDef.DEF2_GAP

# seeded workload shared by criteria 5 and 6; regression means frozen from
# its first run
ACCEPTANCE_WORKLOAD = SynthConfig(
    n_prefixes=4096,
    seed=2024,
    duration_seconds=10.0,
    bad_prefix_fraction=0.05,
    bad_reorder_prob=0.05,
    good_reorder_prob=0.0,
    noisy_flow_fraction=0.012,
    flows_per_prefix_zipf_exponent=1.0,
    max_flows_per_prefix=96,
    mean_flow_size=64,
)
FROZEN_ACC_B32 = 0.70625
FROZEN_ACC_B1024 = 0.7984375
REGRESSION_TOLERANCE = 0.05

CORRELATED_TRACE = SynthConfig(
    n_prefixes=2048,
    seed=77,
    duration_seconds=8.0,
    bad_prefix_fraction=0.05,
    bad_reorder_prob=0.08,
    good_reorder_prob=0.001,
    mean_flow_size=80,
)
UNCORRELATED_CONTROL = SynthConfig(
    n_prefixes=2048,
    seed=78,
    duration_seconds=8.0,
    bad_prefix_fraction=0.0,
    bad_reorder_prob=0.05,
    good_reorder_prob=0.003,
    mean_flow_size=80,
)


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS - {detail}")


@functools.lru_cache(maxsize=1)
def acceptance_workload():
    arrays, _ = generate_synthetic_arrays(ACCEPTANCE_WORKLOAD)
    return arrays, compute_stats(arrays)


def test_c01_oracle_exactness_on_randomized_traces() -> None:
    """50 randomized traces: single-pass stats equal an independent
    quadratic recomputation under all three definitions, exactly."""
    start = time.perf_counter()
    for seed in range(50):
        records = random_trace(
            1000 + seed, n_packets=2000, n_flows=25, n_prefixes=6, burstiness=0.5
        )
        arrays = PacketArrays.from_records(records)
        flows, _ = stats_tables(compute_stats(arrays), arrays)
        expected = quadratic_recount(records)
        assert set(flows) == set(expected)
        for flow, (n, o1, o2, o3) in expected.items():
            assert flows[flow] == (n, o1, o2, o3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("C1", f"50 traces, exact match under all definitions, {elapsed:.1f}s")


@pytest.mark.parametrize("def_", [DEF1, DEF2])
def test_c02_no_collision_equivalence(def_: ReorderDef) -> None:
    """One flow per prefix, injective placement, T and C effectively
    infinite, report_all: per-prefix report totals equal the exhaustive
    tracker's counts minus the untracked admission packet, exactly."""
    cfg = SynthConfig(
        n_prefixes=64,
        seed=909,
        duration_seconds=5.0,
        bad_prefix_fraction=0.3,
        bad_reorder_prob=0.05,
        good_reorder_prob=0.002,
        mean_flow_size=300,
        max_flows_per_prefix=1,
    )
    arrays, _ = generate_synthetic_arrays(cfg)
    _, prefixes = stats_tables(compute_stats(arrays), arrays)
    assert all(flows == 1 for _, flows, *_ in prefixes.values())
    prefix_bits = sorted(prefix.bits for prefix in prefixes)
    n_buckets = 8192  # injective placement needs headroom over the 64 prefixes
    seed = find_injective_seed(prefix_bits, n_buckets)
    params = SamplerParams(
        n_buckets=n_buckets,
        stale_after=1e9,
        max_packets=10**9,
        report_threshold=1,
        reorder_def=def_,
        report_all=True,
        hash_seed=seed,
    )
    detector = FlowSamplingArray(params)
    reports = report_rows(ReportColumns.merge(detector.process_trace(arrays), detector.flush()))
    ref = FlowSamplingArray(params)
    assert reports == per_packet_rows(
        arrays.iter_records(), lambda pkt: [ref.process_packet(pkt)], ref.flush
    )
    totals: dict[Prefix, list[int]] = {}
    for _, bits, n, o, _ in reports:
        agg = totals.setdefault(Prefix(bits), [0, 0])
        agg[0] += n
        agg[1] += o
    assert set(totals) == set(prefixes)
    for prefix, (sum_n, sum_o) in totals.items():
        n, _, *ooo = prefixes[prefix]
        assert sum_n == n - 1, prefix
        assert sum_o == ooo[def_.value - 1], prefix
    report("C2", f"{len(totals)} prefixes, exact (n, o) equality under {def_.name}")


def test_c03_degenerate_hybrid_is_bitwise_identical() -> None:
    """x=0 reproduces the standalone array report stream bitwise; x=1
    reproduces the standalone HH stream bitwise."""
    cfg = SynthConfig(
        n_prefixes=256, seed=555, duration_seconds=2.0, bad_prefix_fraction=0.2,
        bad_reorder_prob=0.06, mean_flow_size=48,
    )
    arrays, _ = generate_synthetic_arrays(cfg)
    records = list(arrays.iter_records())
    total_buckets = 64

    def params(algorithm: str, x: float = math.nan):
        spec = ExperimentSpec(
            algorithm=algorithm, bucket_counts=(total_buckets,), hh_fractions=(x,)
        )
        return detector_params(spec, total_buckets, x, seed=7)

    zero = HybridDetector(params("hybrid", 0.0))
    zero_stream = per_packet_rows(records, zero.process_packet, zero.flush)
    array = FlowSamplingArray(params("array"))
    array_stream = per_packet_rows(records, lambda rec: [array.process_packet(rec)], array.flush)
    assert zero_stream == array_stream

    one = HybridDetector(params("hybrid", 1.0))
    one_stream = per_packet_rows(records, one.process_packet, one.flush)
    solo = ReorderHeavyHitter(params("hh"))
    hh_stream = per_packet_rows(records, lambda rec: [solo.process_packet(rec)[1]], solo.flush)
    assert one_stream == hh_stream
    report("C3", f"x=0 matches array ({len(array_stream)} reports), x=1 matches HH "
                 f"({len(hh_stream)} reports), bitwise")


def test_c04_per_packet_access_budget() -> None:
    """Instrumented counters: at most one bucket access per packet for the
    array, at most d probes plus one write for the HH table."""
    traces = [
        random_trace(71, n_packets=4000, n_flows=25, n_prefixes=7, burstiness=0.7),
        random_trace(72, n_packets=4000, n_flows=40, n_prefixes=3, burstiness=0.2),
    ]
    cfg = SynthConfig(n_prefixes=128, seed=31, duration_seconds=1.0, bad_prefix_fraction=0.2)
    arrays, _ = generate_synthetic_arrays(cfg)
    traces.append(list(arrays.iter_records()))
    for i, records in enumerate(traces):
        array = FlowSamplingArray(SamplerParams(n_buckets=8, stale_after=1e-4, hash_seed=i))
        for rec in records:
            array.process_packet(rec)
        assert array.meter.max_distinct_per_packet <= 1
        assert array.meter.max_writes_per_packet <= 1
        assert array.meter.reads == len(records)

        d = 3
        hh = ReorderHeavyHitter(
            HHParams(n_stages=d, buckets_per_stage=4, hash_seed=i, rng_seed=i)
        )
        for rec in records:
            hh.process_packet(rec)
        assert hh.meter.max_distinct_per_packet <= d + 1
        assert hh.meter.max_writes_per_packet <= 1
        assert hh.meter.reads <= d * len(records)
    report("C4", "array <= 1 bucket/packet, HH <= d probes + 1 write, all traces")


def test_c05_detection_power_memory_sweep() -> None:
    """Flow-sampling accuracy on the seeded workload: >= 0.35 at B=2^5
    averaged over 5 seeds, improving at B=2^10; frozen regression means
    held to +/-0.05."""
    start = time.perf_counter()
    arrays, stats = acceptance_workload()
    assert ACCEPTANCE_WORKLOAD.n_prefixes >= 2**12
    spec = ExperimentSpec(
        algorithm="array", bucket_counts=(32, 1024), seeds=(0, 1, 2, 3, 4)
    )
    results = run_experiment(arrays, spec, stats)
    acc32 = sum(r.accuracy for r in results if r.buckets == 32) / 5
    acc1024 = sum(r.accuracy for r in results if r.buckets == 1024) / 5
    elapsed = time.perf_counter() - start
    assert acc32 >= 0.35
    assert acc1024 > acc32
    assert abs(acc32 - FROZEN_ACC_B32) <= REGRESSION_TOLERANCE
    assert abs(acc1024 - FROZEN_ACC_B1024) <= REGRESSION_TOLERANCE
    assert elapsed < 300.0
    report(
        "C5",
        f"accuracy B=32: {acc32:.4f} (frozen {FROZEN_ACC_B32}), "
        f"B=1024: {acc1024:.4f} (frozen {FROZEN_ACC_B1024}), {elapsed:.0f}s",
    )


def test_c06_fraction_mode_trade_off() -> None:
    """report_all + fraction mode with c=0.5: strictly lower false-positive
    rate than count-only at equal B, at higher communication overhead."""
    arrays, stats = acceptance_workload()
    buckets = 256
    seeds = (0, 1, 2, 3, 4)
    count_spec = ExperimentSpec(algorithm="array", bucket_counts=(buckets,), seeds=seeds)
    count_rows = run_experiment(arrays, count_spec, stats)
    fraction_spec = ExperimentSpec(
        algorithm="array",
        bucket_counts=(buckets,),
        seeds=seeds,
        report_all=True,
        mode=AggregatorMode.FRACTION,
        scale_c=0.5,
    )
    fraction_rows = run_experiment(arrays, fraction_spec, stats)
    fp_count = sum(r.false_positive_rate for r in count_rows) / len(seeds)
    fp_fraction = sum(r.false_positive_rate for r in fraction_rows) / len(seeds)
    ovh_count = sum(r.communication_overhead for r in count_rows) / len(seeds)
    ovh_fraction = sum(r.communication_overhead for r in fraction_rows) / len(seeds)
    assert fp_fraction < fp_count
    assert ovh_fraction > ovh_count
    report(
        "C6",
        f"B={buckets}: FP {fp_count:.3f} -> {fp_fraction:.3f}, "
        f"overhead {ovh_count:.5f} -> {ovh_fraction:.5f}",
    )


def test_c07_correlation_sanity() -> None:
    """Mean correlation over 100 repetitions: > 0.2 on the correlated
    workload, within +/-0.1 of 0 on the independent control."""
    start = time.perf_counter()
    arrays, _ = generate_synthetic_arrays(CORRELATED_TRACE)
    stats = compute_stats(arrays)
    correlated = mean_pearson_correlation(stats, DEF1, repetitions=100, seed=0)
    assert correlated.mean_r > 0.2

    control_arrays, _ = generate_synthetic_arrays(UNCORRELATED_CONTROL)
    control_stats = compute_stats(control_arrays)
    control = mean_pearson_correlation(control_stats, DEF1, repetitions=100, seed=0)
    assert abs(control.mean_r) <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "C7",
        f"correlated mean r = {correlated.mean_r:.3f}, control = {control.mean_r:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_c08_check_count_guarantee_monte_carlo() -> None:
    """Three hand-built flow distributions with failure bound < 0.5: the
    empirical success fraction over 10^4 trials meets 1 - bound."""
    start = time.perf_counter()
    presets = check_model_presets()
    assert len(presets) >= 3
    details = []
    for name, model in presets.items():
        assert model.failure_bound < 0.5, name
        result = empirical_guarantee(model, trials=10_000, seed=2024)
        assert not result.vacuous
        assert result.success_fraction >= 1.0 - result.failure_bound, name
        details.append(f"{name}: {result.success_fraction:.4f} >= {1 - result.failure_bound:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("C8", "; ".join(details) + f", {elapsed:.0f}s")


def _run_cli_twice(tmp_path: Path, name: str, argv_for) -> None:
    dirs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / f"{name}-{tag}"
        out_dir.mkdir()
        assert cli_main(argv_for(out_dir)) == 0
        dirs.append(out_dir)
    first, second = dirs
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files and first_files, name
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), f"{name}/{rel}"


def test_c09_cli_determinism(tmp_path: Path) -> None:
    """Every subcommand, run twice with identical arguments, writes
    byte-identical files."""
    _run_cli_twice(
        tmp_path,
        "generate",
        lambda d: [
            "generate", "--out", str(d / "trace.csv"), "--sidecar", str(d / "side.csv"),
            "--prefixes", "48", "--duration", "2.0", "--seed", "5",
            "--bad-fraction", "0.3", "--bad-prob", "0.1", "--mean-flow-size", "64",
        ],
    )
    trace = tmp_path / "generate-first" / "trace.csv"
    _run_cli_twice(
        tmp_path,
        "analyze",
        lambda d: ["analyze", "--trace", str(trace), "--out", str(d), "--pcc-reps", "10"],
    )
    _run_cli_twice(
        tmp_path,
        "run",
        lambda d: [
            "run", "--trace", str(trace), "--out", str(d),
            "--algo", "array", "--buckets", "16", "--seeds", "0,1",
        ],
    )
    _run_cli_twice(
        tmp_path,
        "sweep",
        lambda d: [
            "sweep", "--trace", str(trace), "--out", str(d),
            "--algo", "hh", "--buckets", "8,16", "--seeds", "0",
        ],
    )
    _run_cli_twice(
        tmp_path,
        "grid",
        lambda d: [
            "grid-hybrid", "--trace", str(trace), "--out", str(d),
            "--buckets", "16", "--hh-fraction", "0.3,0.6", "--seeds", "0",
        ],
    )
    _run_cli_twice(
        tmp_path,
        "lemma",
        lambda d: [
            "validate-lemma", "--preset", "uniform-fifty", "--trials", "100",
            "--seed", "3", "--out", str(d),
        ],
    )
    report("C9", "generate/analyze/run/sweep/grid-hybrid/validate-lemma byte-identical")


def test_c10_throughput_floor() -> None:
    """The batch array detector sustains at least 2M packets/second on a
    10^7-packet synthetic trace, single-threaded."""
    cfg = SynthConfig(
        n_prefixes=16384,
        seed=4242,
        duration_seconds=10.0,
        mean_flow_size=240,
        max_flows_per_prefix=64,
        bad_prefix_fraction=0.05,
        bad_reorder_prob=0.05,
    )
    arrays, _ = generate_synthetic_arrays(cfg)
    assert len(arrays) >= 10**7
    detector = FlowSamplingArray(SamplerParams(n_buckets=4096, hash_seed=3))
    start = time.perf_counter()
    reports = detector.process_trace(arrays)
    elapsed = time.perf_counter() - start
    rate = len(arrays) / elapsed
    assert rate >= 2e6
    report(
        "C10",
        f"{len(arrays):,} packets in {elapsed:.2f}s = {rate/1e6:.2f} M pkts/s "
        f"({len(reports)} reports)",
    )
