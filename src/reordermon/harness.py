"""Experiment driver: detector runs, sweeps, grid search, trace analysis.

Everything here is deterministic given (spec, seeds): detectors are seeded,
output rows follow loop order, and files are written with stable formatting,
so identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .checkmodel import CheckModel
from .controlplane import AggregatorMode, AggregatorParams, ReportAggregator
from .heavyhitter import HHParams, ReorderHeavyHitter
from .hybrid import HybridDetector, HybridParams
from .metrics import EvalResult, accuracy, communication_overhead, false_positive_rate
from .model import Prefix, ReorderDef
from .oracle import (
    TraceStats,
    UndefinedCorrelationError,
    compute_stats,
    flow_size_reorder_breakdown,
    ground_truth,
    interarrival_histogram,
    mean_pearson_correlation,
)
from .reports import Report
from .sampling import FlowSamplingArray, SamplerParams
from .traceio import PacketArrays, parse_trace

DEF_BY_NUMBER = {1: ReorderDef.DEF1_DECREASE, 2: ReorderDef.DEF2_GAP}
NUMBER_BY_DEF = {v: k for k, v in DEF_BY_NUMBER.items()}
DETECTORS = {"array": FlowSamplingArray, "hh": ReorderHeavyHitter, "hybrid": HybridDetector}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: detector family, parameter sweeps, seeds, thresholds.

    Defaults mirror the standard evaluation setup: T = 2^-15 s, C = 16,
    R = 1 for the array, a 1% fraction threshold and 2 stages for the HH
    table, and reporting thresholds alpha = 16, beta = 128, eps = 0.01.
    """

    algorithm: str = "array"  # array | hh | hybrid
    reorder_def: ReorderDef = ReorderDef.DEF1_DECREASE
    bucket_counts: tuple[int, ...] = (256,)
    hh_fractions: tuple[float, ...] = (0.5,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    stale_after: float = 2.0**-15
    max_packets: int = 16
    report_threshold: int = 1
    hh_report_fraction: float = 0.01
    hh_stages: int = 2
    min_report_packets: int = 16
    report_all: bool = False
    alpha: int = 16
    beta: int = 128
    eps: float = 0.01
    scale_c: float = 1.0
    mode: AggregatorMode = AggregatorMode.COUNT_ONLY
    filter_by_prefix: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in DETECTORS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.alpha >= self.beta:
            raise ValueError("alpha must be smaller than beta")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        for name, values in (
            ("bucket_counts", self.bucket_counts),
            ("seeds", self.seeds),
            ("hh_fractions", self.fractions),
        ):
            if not values:
                raise ValueError(f"{name} must not be empty")
        # build every parameter set a run uses, so a bad value fails here,
        # before any trace is read
        aggregator_params(self)
        for buckets in self.bucket_counts:
            for x in self.fractions:
                detector_params(self, buckets, x, seed=0)

    @property
    def fractions(self) -> tuple[float, ...]:
        """HH memory fractions to run; NaN stands for "not a hybrid"."""
        return self.hh_fractions if self.algorithm == "hybrid" else (math.nan,)


def load_trace_arrays(path: str | Path) -> PacketArrays:
    return parse_trace(path)[0]


def sampler_params(spec: ExperimentSpec, buckets: int, seed: int) -> SamplerParams:
    return SamplerParams(
        n_buckets=buckets,
        stale_after=spec.stale_after,
        max_packets=spec.max_packets,
        report_threshold=spec.report_threshold,
        reorder_def=spec.reorder_def,
        report_all=spec.report_all,
        hash_seed=seed,
    )


def hh_params(spec: ExperimentSpec, buckets_per_stage: int, seed: int) -> HHParams:
    return HHParams(
        n_stages=spec.hh_stages,
        buckets_per_stage=buckets_per_stage,
        report_fraction=spec.hh_report_fraction,
        min_report_packets=spec.min_report_packets,
        reorder_def=spec.reorder_def,
        hash_seed=seed,
        rng_seed=seed,
    )


def detector_params(
    spec: ExperimentSpec, buckets: int, hh_fraction: float, seed: int
) -> SamplerParams | HHParams | HybridParams:
    """Parameters of the ``spec.algorithm`` detector at one configuration."""
    if spec.algorithm == "array":
        return sampler_params(spec, buckets, seed)
    if spec.algorithm == "hh":
        return hh_params(spec, max(1, buckets // spec.hh_stages), seed)
    params = HybridParams(
        total_buckets=buckets,
        hh_fraction=hh_fraction,
        sampler=sampler_params(spec, buckets, seed),
        hh=hh_params(spec, 1, seed),
        filter_by_prefix=spec.filter_by_prefix,
    )
    if params.hh_buckets_per_stage < 1 and params.array_buckets < 1:
        raise ValueError(
            f"hybrid with {buckets} buckets and HH fraction {hh_fraction} builds "
            f"neither an HH table (needs {spec.hh_stages} buckets, one per stage) "
            "nor an array"
        )
    return params


def aggregator_params(spec: ExperimentSpec) -> AggregatorParams:
    return AggregatorParams(
        min_packets=spec.alpha, eps=spec.eps, scale=spec.scale_c, mode=spec.mode
    )


def collect_reports(
    arrays: PacketArrays,
    spec: ExperimentSpec,
    buckets: int,
    hh_fraction: float,
    seed: int,
) -> list[Report]:
    """Stream the trace through one freshly built detector; eviction reports
    followed by the end-of-interval flush."""
    detector = DETECTORS[spec.algorithm](detector_params(spec, buckets, hh_fraction, seed))
    reports = detector.process_trace(arrays)
    reports.extend(detector.flush())
    return reports


def truth_sets(
    stats: TraceStats, spec: ExperimentSpec
) -> tuple[frozenset[Prefix], frozenset[Prefix]]:
    """(beta-level, alpha-level) ground-truth heavy sets.

    The beta set requires at least beta packets; the alpha set requires
    strictly more than alpha packets (it is the false-positive reference)."""
    beta_set = ground_truth(stats, spec.eps, spec.alpha, spec.beta, spec.reorder_def).heavy_set
    # packet counts are integers: more than alpha is at least alpha + 1
    alpha_set = ground_truth(
        stats, spec.eps, spec.alpha, spec.alpha + 1, spec.reorder_def
    ).heavy_set
    return beta_set, alpha_set


def evaluate_reports(
    reports: Sequence[Report],
    stream_length: int,
    beta_set: frozenset[Prefix],
    alpha_set: frozenset[Prefix],
    spec: ExperimentSpec,
    buckets: int,
    hh_fraction: float,
    seed: int,
) -> EvalResult:
    """Aggregate the report stream and score it against the ground truth."""
    aggregator = ReportAggregator()
    aggregator.ingest_all(reports)
    output = aggregator.finalize(aggregator_params(spec))
    return EvalResult(
        accuracy=accuracy(output, beta_set),
        false_positive_rate=false_positive_rate(output, alpha_set),
        communication_overhead=communication_overhead(len(reports), stream_length),
        seed=seed,
        params={
            "algorithm": spec.algorithm,
            "def": NUMBER_BY_DEF[spec.reorder_def],
            "buckets": buckets,
            "hh_fraction": "" if math.isnan(hh_fraction) else hh_fraction,
            "mode": spec.mode.value,
            "report_all": int(spec.report_all),
            "report_count": len(reports),
            "output_size": len(output),
            "truth_size": len(beta_set),
        },
    )


RESULT_COLUMNS = (
    "algorithm",
    "def",
    "buckets",
    "hh_fraction",
    "seed",
    "mode",
    "report_all",
    "accuracy",
    "false_positive_rate",
    "communication_overhead",
    "report_count",
    "output_size",
    "truth_size",
)


def result_rows(results: Sequence[EvalResult]) -> list[dict]:
    """Flatten results into the CSV row shape (RESULT_COLUMNS order)."""
    rows = []
    for res in results:
        row = dict(res.params)
        row.update(
            seed=res.seed,
            accuracy=res.accuracy,
            false_positive_rate=res.false_positive_rate,
            communication_overhead=res.communication_overhead,
        )
        rows.append(row)
    return rows


def run_experiment(
    arrays: PacketArrays, spec: ExperimentSpec, stats: Optional[TraceStats] = None
) -> list[EvalResult]:
    """One result per (buckets, hh_fraction, seed) configuration."""
    if stats is None:
        stats = compute_stats(arrays)
    beta_set, alpha_set = truth_sets(stats, spec)
    results = []
    for buckets in spec.bucket_counts:
        for x in spec.fractions:
            for seed in spec.seeds:
                reports = collect_reports(arrays, spec, buckets, x, seed)
                results.append(
                    evaluate_reports(
                        reports, len(arrays), beta_set, alpha_set, spec, buckets, x, seed
                    )
                )
    return results


def grid_search_hybrid(
    arrays: PacketArrays, spec: ExperimentSpec, stats: Optional[TraceStats] = None
) -> tuple[list[EvalResult], list[dict]]:
    """Evaluate the hybrid split over the fraction grid; per bucket count,
    pick the x maximizing mean accuracy over seeds (ties -> smaller x)."""
    if spec.algorithm != "hybrid":
        raise ValueError("grid search applies to the hybrid algorithm")
    results = run_experiment(arrays, spec, stats)
    best_rows = []
    for buckets in spec.bucket_counts:
        best_x = None
        best_acc = -1.0
        for x in spec.hh_fractions:
            accs = [
                res.accuracy
                for res in results
                if res.params["buckets"] == buckets and res.params["hh_fraction"] == x
            ]
            mean_acc = sum(accs) / len(accs)
            if mean_acc > best_acc:
                best_acc = mean_acc
                best_x = x
        best_rows.append({"buckets": buckets, "best_hh_fraction": best_x, "mean_accuracy": best_acc})
    return results, best_rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[col]) for col in columns) + "\n")


def write_json(path: str | Path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


@dataclass(frozen=True)
class AnalysisParams:
    eps: float = 0.01
    alpha: int = 16
    beta: int = 128
    pcc_repetitions: int = 100
    pcc_sample_fraction: float = 0.005
    pcc_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.alpha >= self.beta:
            raise ValueError("alpha must be smaller than beta")
        if self.pcc_repetitions < 1:
            raise ValueError("pcc_repetitions must be >= 1")
        # written so that NaN fails too
        if not 0.0 < self.pcc_sample_fraction <= 1.0:
            raise ValueError("pcc_sample_fraction must lie in (0, 1]")


def analyze_trace(
    arrays: PacketArrays, out_dir: str | Path, params: AnalysisParams = AnalysisParams()
) -> TraceStats:
    """Full trace characterization: per-prefix stats, ground truth, flow/
    prefix reorder correlation, inter-arrival histograms, and the per-prefix
    flow-size reordering breakdown.  One CSV/JSON artifact per analysis."""
    if len(arrays) == 0:
        raise ValueError("cannot characterize an empty trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats = compute_stats(arrays)
    d1, d2 = ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP

    write_json(
        out / "meta.json",
        {
            "packet_count": len(arrays),
            # the stats have a row for each flow and prefix with packets
            "flow_count": len(stats.flow_id),
            "prefix_count": len(stats.prefix_bits),
            "duration_seconds": arrays.duration_seconds,
            "eps": params.eps,
            "alpha": params.alpha,
            "beta": params.beta,
        },
    )

    prefix_rows = [
        {
            "prefix": Prefix(bits).dotted(),
            "packets": n,
            "flows": flows,
            "ooo_def1": o1,
            "ooo_def2": o2,
            "ooo_def3": o3,
        }
        for bits, n, flows, (o1, o2, o3) in zip(
            stats.prefix_bits.tolist(),
            stats.prefix_n.tolist(),
            stats.prefix_flows.tolist(),
            stats.prefix_ooo.tolist(),
        )
    ]
    write_csv(
        out / "prefix_stats.csv",
        ("prefix", "packets", "flows", "ooo_def1", "ooo_def2", "ooo_def3"),
        prefix_rows,
    )

    truth_rows = []
    for def_ in (d1, d2):
        truth = ground_truth(stats, params.eps, params.alpha, params.beta, def_)
        for prefix in sorted(truth.heavy_set, key=lambda p: p.bits):
            row = int(np.searchsorted(stats.prefix_bits, prefix.bits))
            truth_rows.append(
                {
                    "def": NUMBER_BY_DEF[def_],
                    "prefix": prefix.dotted(),
                    "packets": int(stats.prefix_n[row]),
                    "ooo": int(stats.prefix_ooo[row, def_.value - 1]),
                }
            )
    write_csv(out / "ground_truth.csv", ("def", "prefix", "packets", "ooo"), truth_rows)

    pcc_rows = []
    for def_ in (d1, d2):
        try:
            summary = mean_pearson_correlation(
                stats,
                def_,
                repetitions=params.pcc_repetitions,
                sample_fraction=params.pcc_sample_fraction,
                seed=params.pcc_seed,
            )
            row = {
                "def": NUMBER_BY_DEF[def_],
                "mean_r": summary.mean_r,
                "repetitions": summary.repetitions,
                "undefined_repetitions": summary.undefined_repetitions,
                "n_samples": summary.n_samples,
            }
        except UndefinedCorrelationError:
            # tiny or reorder-free traces: every sample had zero variance;
            # record that instead of aborting the whole characterization
            row = {
                "def": NUMBER_BY_DEF[def_],
                "mean_r": "",
                "repetitions": 0,
                "undefined_repetitions": params.pcc_repetitions,
                "n_samples": 0,
            }
        pcc_rows.append(row)
    write_csv(
        out / "pcc.csv",
        ("def", "mean_r", "repetitions", "undefined_repetitions", "n_samples"),
        pcc_rows,
    )

    hist = interarrival_histogram(arrays)
    hist_rows = []
    for name, dist in (
        ("in_order", hist.in_order),
        ("def1_ooo", hist.def1_ooo),
        ("def2_ooo", hist.def2_ooo),
    ):
        for bin_, count in sorted(dist.counts.items()):
            hist_rows.append({"class": name, "bin_log2": bin_, "count": count})
    write_csv(out / "interarrival.csv", ("class", "bin_log2", "count"), hist_rows)

    breakdown_rows = []
    for prefix, entry in flow_size_reorder_breakdown(stats, d1).items():
        for bin_, count in entry.flow_count_by_bin.items():
            fraction = ""
            if entry.ooo_fraction_by_bin is not None:
                fraction = entry.ooo_fraction_by_bin[bin_]
            breakdown_rows.append(
                {
                    "prefix": prefix.dotted(),
                    "size_bin": bin_,
                    "flow_count": count,
                    "ooo_fraction": fraction,
                }
            )
    write_csv(
        out / "size_breakdown.csv",
        ("prefix", "size_bin", "flow_count", "ooo_fraction"),
        breakdown_rows,
    )
    return stats


# --- check-count model presets ------------------------------------------------


def check_model_presets() -> dict[str, CheckModel]:
    """Hand-built flow distributions whose analytic failure bound is small
    enough to test the check-count guarantee empirically."""
    two_flows = CheckModel(
        flow_probs=(0.5, 0.5),
        flow_prefix=(0, 1),
        prefix_bucket=(0, 0),
        bucket=0,
        target_prefix=0,
        p_min=0.4,
        packets_per_check=8,
        stream_length=8_000,
        epsilon=0.5,
        delta=0.5,
    )
    uniform_fifty = CheckModel(
        flow_probs=(0.02,) * 50,
        flow_prefix=(0,) * 10 + tuple(range(1, 41)),
        prefix_bucket=(0,) * 41,
        bucket=0,
        target_prefix=0,
        p_min=0.01,
        packets_per_check=8,
        stream_length=24_000,
        epsilon=0.6,
        delta=0.6,
    )
    one_heavy = CheckModel(
        flow_probs=(0.5,) + (0.025,) * 20,
        flow_prefix=(0,) + tuple(1 + (i // 5) for i in range(20)),
        prefix_bucket=(0,) * 5,
        bucket=0,
        target_prefix=1,
        p_min=0.01,
        packets_per_check=8,
        stream_length=20_000,
        epsilon=0.6,
        delta=0.5,
    )
    return {
        "two-equal-flows": two_flows,
        "uniform-fifty": uniform_fifty,
        "one-heavy": one_heavy,
    }
