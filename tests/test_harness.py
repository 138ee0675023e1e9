from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest

from reordermon.controlplane import AggregatorMode, AggregatorParams
from reordermon.harness import (
    AGGREGATOR_FIELDS,
    HH_FIELDS,
    HYBRID_FIELDS,
    SAMPLER_FIELDS,
    AnalysisParams,
    ExperimentSpec,
    RESULT_COLUMNS,
    analyze_trace,
    collect_reports,
    detector_class,
    detector_params,
    grid_search_hybrid,
    result_rows,
    run_experiment,
    truth_sets,
    write_csv,
)
from reordermon.heavyhitter import HHParams, ReorderHeavyHitter
from reordermon.hybrid import HybridDetector, HybridParams
from reordermon.model import ReorderDef
from reordermon.oracle import compute_stats, mean_pearson_correlation
from reordermon.sampling import FlowSamplingArray, SamplerParams
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays

from conftest import per_packet_rows, report_rows, stats_tables


@pytest.fixture(scope="module")
def small_workload() -> PacketArrays:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(
            n_prefixes=192,
            seed=17,
            duration_seconds=2.0,
            bad_prefix_fraction=0.15,
            bad_reorder_prob=0.08,
            mean_flow_size=40,
        )
    )
    return arrays


def test_run_experiment_row_per_configuration(small_workload: PacketArrays) -> None:
    spec = ExperimentSpec(algorithm="array", bucket_counts=(16, 64), seeds=(0, 1))
    results = run_experiment(small_workload, spec)
    assert len(results) == 4
    rows = result_rows(results)
    for res, row in zip(results, rows):
        assert set(RESULT_COLUMNS) <= set(row)
        assert 0.0 <= res.accuracy <= 1.0
        assert res.false_positive_rate >= 0.0
        assert res.communication_overhead >= 0.0
        assert row["accuracy"] == res.accuracy


def test_run_experiment_deterministic(small_workload: PacketArrays) -> None:
    spec = ExperimentSpec(algorithm="array", bucket_counts=(32,), seeds=(3,))
    assert run_experiment(small_workload, spec) == run_experiment(small_workload, spec)


def test_all_algorithms_produce_rows(small_workload: PacketArrays) -> None:
    stats = compute_stats(small_workload)
    for algo in ("array", "hh", "hybrid"):
        spec = ExperimentSpec(algorithm=algo, bucket_counts=(32,), seeds=(0,))
        rows = run_experiment(small_workload, spec, stats)
        expected = len(spec.hh_fractions) if algo == "hybrid" else 1
        assert len(rows) == expected


def test_truth_sets_alpha_vs_beta(small_workload: PacketArrays) -> None:
    stats = compute_stats(small_workload)
    spec = ExperimentSpec(alpha=16, beta=128, eps=0.01)
    beta_set, alpha_set = truth_sets(stats, spec)
    # every beta-level prefix also clears the (strictly smaller) alpha bar
    assert beta_set <= alpha_set
    _, prefixes = stats_tables(stats, small_workload)
    for prefix in beta_set:
        assert prefixes[prefix][0] >= 128


def test_report_all_fraction_mode_cuts_false_positives(small_workload: PacketArrays) -> None:
    stats = compute_stats(small_workload)
    base = ExperimentSpec(algorithm="array", bucket_counts=(32,), seeds=(0, 1, 2))
    plain_rows = result_rows(run_experiment(small_workload, base, stats))
    strict = ExperimentSpec(
        algorithm="array",
        bucket_counts=(32,),
        seeds=(0, 1, 2),
        report_all=True,
        mode=AggregatorMode.FRACTION,
        scale_c=0.5,
    )
    strict_rows = result_rows(run_experiment(small_workload, strict, stats))
    mean_fp_plain = sum(r["false_positive_rate"] for r in plain_rows) / 3
    mean_fp_strict = sum(r["false_positive_rate"] for r in strict_rows) / 3
    mean_ovh_plain = sum(r["communication_overhead"] for r in plain_rows) / 3
    mean_ovh_strict = sum(r["communication_overhead"] for r in strict_rows) / 3
    assert mean_fp_strict <= mean_fp_plain
    assert mean_ovh_strict > mean_ovh_plain


def test_grid_search_returns_best_x_with_tie_to_smaller(small_workload: PacketArrays) -> None:
    stats = compute_stats(small_workload)
    spec = ExperimentSpec(
        algorithm="hybrid", bucket_counts=(32,), hh_fractions=(0.3, 0.6), seeds=(0,)
    )
    results, best = grid_search_hybrid(small_workload, spec, stats)
    assert len(results) == 2 and len(best) == 1
    assert best[0]["buckets"] == 32
    assert best[0]["best_hh_fraction"] in (0.3, 0.6)

    single = ExperimentSpec(
        algorithm="hybrid", bucket_counts=(16,), hh_fractions=(0.4,), seeds=(0,)
    )
    _, best_single = grid_search_hybrid(small_workload, single, stats)
    assert best_single[0]["best_hh_fraction"] == 0.4


def test_grid_search_tie_breaks_to_smaller_x() -> None:
    # ample memory on a tiny all-bad workload: every split reaches accuracy
    # 1.0, so the tie must resolve to the smaller fraction
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(
            n_prefixes=8,
            seed=5,
            duration_seconds=2.0,
            bad_prefix_fraction=1.0,
            bad_reorder_prob=0.2,
            good_reorder_prob=0.01,
            mean_flow_size=64,
        )
    )
    stats = compute_stats(arrays)
    spec = ExperimentSpec(
        algorithm="hybrid", bucket_counts=(64,), hh_fractions=(0.3, 0.6), seeds=(0, 1)
    )
    results, best = grid_search_hybrid(arrays, spec, stats)
    assert all(res.accuracy == 1.0 for res in results)
    assert best[0]["best_hh_fraction"] == 0.3


def test_grid_search_requires_hybrid(small_workload: PacketArrays) -> None:
    with pytest.raises(ValueError):
        grid_search_hybrid(small_workload, ExperimentSpec(algorithm="array"))


# one packet through each reference detector, as a list of reports
PER_PACKET = {
    "array": lambda det, pkt: [det.process_packet(pkt)],
    "hh": lambda det, pkt: [det.process_packet(pkt)[1]],
    "hybrid": lambda det, pkt: det.process_packet(pkt),
}


def test_collect_reports_paths_agree_for_array(small_workload: PacketArrays) -> None:
    # every algorithm goes through its batch implementation; hold it to a
    # per-packet run of the same parameters (hh and hybrid included)
    for algo, x in (("array", 0.0), ("hh", 0.0), ("hybrid", 0.3), ("hybrid", 0.7)):
        for reorder_def in (ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP):
            spec = ExperimentSpec(
                algorithm=algo, reorder_def=reorder_def, bucket_counts=(16,), seeds=(4,),
                min_report_packets=4,
            )
            fast = collect_reports(small_workload, spec, 16, x, 4)
            ref = detector_class(algo)(detector_params(spec, 16, x, 4))
            slow = per_packet_rows(
                small_workload.iter_records(), lambda pkt: PER_PACKET[algo](ref, pkt), ref.flush
            )
            assert report_rows(fast) == slow, (algo, x, reorder_def)


def test_collect_reports_never_runs_per_packet(
    small_workload: PacketArrays, monkeypatch: pytest.MonkeyPatch
) -> None:
    def refuse(self, pkt):
        raise AssertionError("per-packet path used")

    for cls in (FlowSamplingArray, ReorderHeavyHitter, HybridDetector):
        monkeypatch.setattr(cls, "process_packet", refuse)
    for algo in ("array", "hh", "hybrid"):
        spec = ExperimentSpec(algorithm=algo, bucket_counts=(16,), seeds=(0,))
        for x in spec.fractions:
            assert len(collect_reports(small_workload, spec, 16, x, 0))


def test_analyze_trace_writes_all_artifacts(tmp_path: Path, small_workload: PacketArrays) -> None:
    analyze_trace(small_workload, tmp_path, AnalysisParams(pcc_repetitions=5))
    for name in (
        "meta.json",
        "prefix_stats.csv",
        "ground_truth.csv",
        "pcc.csv",
        "interarrival.csv",
        "size_breakdown.csv",
    ):
        assert (tmp_path / name).exists(), name
    header = (tmp_path / "prefix_stats.csv").read_text().splitlines()[0]
    assert header == "prefix,packets,flows,ooo_def1,ooo_def2,ooo_def3"


def test_analyze_empty_trace_is_an_error(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        analyze_trace(PacketArrays.from_records([]), tmp_path)


def test_write_csv_formatting(tmp_path: Path) -> None:
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [{"a": 1, "b": 0.5}, {"a": "x", "b": 2.0}])
    assert path.read_text() == "a,b\n1,0.5\nx,2.0\n"


def test_defaults_pin_the_standard_evaluation_setup() -> None:
    spec = ExperimentSpec()
    assert spec.stale_after == 2.0**-15
    assert spec.max_packets == 16
    assert spec.report_threshold == 1
    assert spec.hh_report_fraction == 0.01
    assert spec.hh_stages == 2
    assert (spec.alpha, spec.beta, spec.eps) == (16, 128, 0.01)
    assert spec.seeds == (0, 1, 2, 3, 4)
    # the harness imports no detector module, so the spec restates the
    # parameter defaults: hold each equal to the default of the field it sets
    # (HHParams.n_stages has none)
    for params, table in (
        (SamplerParams, SAMPLER_FIELDS),
        (HHParams, HH_FIELDS),
        (HybridParams, HYBRID_FIELDS),
        (AggregatorParams, AGGREGATOR_FIELDS),
    ):
        defaults = {f.name: f.default for f in dataclasses.fields(params)}
        for field, param in table.items():
            if defaults[param] is not dataclasses.MISSING:
                assert getattr(spec, field) == defaults[param], (params.__name__, field)
    pcc = inspect.signature(mean_pearson_correlation).parameters
    analysis = AnalysisParams()
    assert analysis.pcc_repetitions == pcc["repetitions"].default
    assert analysis.pcc_sample_fraction == pcc["sample_fraction"].default
    assert analysis.pcc_seed == pcc["seed"].default


def test_bucket_split_arithmetic() -> None:
    # B = 100, x = 0.37, d = 2: floor(x*B) = 37 HH buckets, 18 a stage with
    # one left over, and the other 63 for the array
    spec = ExperimentSpec(algorithm="hybrid", bucket_counts=(100,), hh_fractions=(0.37,))
    params = detector_params(spec, 100, 0.37, seed=0)
    assert (params.hh.n_stages, params.hh.buckets_per_stage) == (2, 18)
    assert params.array.n_buckets == 63
    # the HH table alone spreads all B over its stages, flooring too
    hh = detector_params(dataclasses.replace(spec, algorithm="hh"), 101, 0.37, seed=0)
    assert (hh.n_stages, hh.buckets_per_stage) == (2, 50)


def test_memory_sweep_regression_curve() -> None:
    """Frozen from the first run of this seeded sweep: accuracy climbs with
    memory, and the exact means stay pinned (deterministic seeds)."""
    cfg = SynthConfig(
        n_prefixes=1024,
        seed=404,
        duration_seconds=4.0,
        bad_prefix_fraction=0.08,
        bad_reorder_prob=0.05,
        good_reorder_prob=0.0,
        mean_flow_size=48,
    )
    arrays, _ = generate_synthetic_arrays(cfg)
    stats = compute_stats(arrays)
    spec = ExperimentSpec(algorithm="array", bucket_counts=(8, 32, 128), seeds=(0, 1, 2))
    results = run_experiment(arrays, spec, stats)
    means = {
        buckets: sum(r.accuracy for r in results if r.params["buckets"] == buckets) / 3
        for buckets in (8, 32, 128)
    }
    frozen = {8: 0.6944444444444445, 32: 0.7222222222222222, 128: 0.888888888888889}
    for buckets, expected in frozen.items():
        assert means[buckets] == pytest.approx(expected, abs=1e-12)
    assert means[8] <= means[32] <= means[128]
