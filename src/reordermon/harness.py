"""Experiment driver: detector runs, sweeps, grid search, trace analysis.

Everything here is deterministic given (spec, seeds): detectors are seeded,
output rows follow loop order, and files are written with stable formatting,
so identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .controlplane import AggregatorMode, AggregatorParams, ReportAggregator
from .metrics import EvalResult, accuracy, communication_overhead, false_positive_rate
from .model import Prefix, ReorderDef
from .oracle import (
    PccSummary,
    TraceStats,
    UndefinedCorrelationError,
    compute_stats,
    flow_size_reorder_breakdown,
    ground_truth,
    interarrival_histogram,
    mean_pearson_correlation,
)
from .reports import ReportColumns
from .traceio import PacketArrays, parse_trace
from .writers import write_csv, write_json

if TYPE_CHECKING:
    from .heavyhitter import HHParams
    from .hybrid import HybridParams
    from .sampling import SamplerParams

ALGORITHMS = ("array", "hh", "hybrid")


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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.alpha >= self.beta:
            raise ValueError("alpha must be smaller than beta")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        configurations = self.configurations()
        if not configurations:  # hh_fractions counts only for the hybrid
            for name in ("bucket_counts", "seeds", "hh_fractions"):
                if not getattr(self, name):
                    raise ValueError(f"{name} must not be empty")
        if min(self.seeds) < 0:  # random.Random(-s) draws as random.Random(s)
            raise ValueError("seeds must be >= 0")
        # build every parameter set a run uses, so a bad value fails here,
        # before any trace is read
        aggregator_params(self)
        for config in configurations:
            detector_params(self, *config)

    def configurations(self) -> list[tuple[int, Optional[float], int]]:
        """(buckets, hh_fraction, seed) of each run, in results order;
        hh_fraction is None outside the hybrid."""
        fractions = self.hh_fractions if self.algorithm == "hybrid" else (None,)
        return list(itertools.product(self.bucket_counts, fractions, self.seeds))


def load_trace_arrays(path: str | Path) -> PacketArrays:
    return parse_trace(path)[0]


def detector_class(algorithm: str) -> type:
    """The detector class of one of ``ALGORITHMS``.

    Here and in the parameter builders below, a detector's module is
    imported when a spec of its algorithm is built or run, so a command
    loads only the detector it runs."""
    if algorithm == "array":
        from .sampling import FlowSamplingArray

        return FlowSamplingArray
    if algorithm == "hh":
        from .heavyhitter import ReorderHeavyHitter

        return ReorderHeavyHitter
    from .hybrid import HybridDetector

    return HybridDetector


# Each table maps an ExperimentSpec field to the parameter field it sets.
# The builders below read them, and so does DETECTOR_FIELDS, the spec fields
# each algorithm reads: the CLI refuses an option its detector does not read.
SAMPLER_FIELDS = {
    "stale_after": "stale_after",
    "max_packets": "max_packets",
    "report_threshold": "report_threshold",
    "reorder_def": "reorder_def",
    "report_all": "report_all",
}
HH_FIELDS = {
    "hh_stages": "n_stages",
    "hh_report_fraction": "report_fraction",
    "min_report_packets": "min_report_packets",
    "reorder_def": "reorder_def",
}
HYBRID_FIELDS = {"filter_by_prefix": "filter_by_prefix"}
AGGREGATOR_FIELDS = {"alpha": "min_packets", "eps": "eps", "scale_c": "scale", "mode": "mode"}
DETECTOR_FIELDS = {
    "array": frozenset(SAMPLER_FIELDS),
    "hh": frozenset(HH_FIELDS),
    "hybrid": frozenset({*SAMPLER_FIELDS, *HH_FIELDS, *HYBRID_FIELDS, "hh_fractions"}),
}


def _from_spec(spec: ExperimentSpec, table: dict[str, str]) -> dict:
    return {param: getattr(spec, field) for field, param in table.items()}


def sampler_params(spec: ExperimentSpec, buckets: int, seed: int) -> SamplerParams:
    from .sampling import SamplerParams

    return SamplerParams(n_buckets=buckets, hash_seed=seed, **_from_spec(spec, SAMPLER_FIELDS))


def hh_params(spec: ExperimentSpec, buckets_per_stage: int, seed: int) -> HHParams:
    from .heavyhitter import HHParams

    return HHParams(
        buckets_per_stage=buckets_per_stage,
        hash_seed=seed,
        rng_seed=seed,
        **_from_spec(spec, HH_FIELDS),
    )


def detector_params(
    spec: ExperimentSpec, buckets: int, hh_fraction: Optional[float], seed: int
) -> SamplerParams | HHParams | HybridParams:
    """Parameters of the ``spec.algorithm`` detector at one configuration.

    The only place where a budget of B buckets becomes sizes.  The array
    gets all B, the HH table (d stages) B // d per stage.  The hybrid gives
    floor(x*B) buckets to its HH table, floored to a multiple of d, and the
    rest, B - floor(x*B), to its array.  The up to d-1 HH buckets that the
    flooring leaves over go unused, not to the array, so a split can run on
    fewer than B buckets (B=1024, d=2: x = 0.3, 0.4, 0.8 and 0.9 each lose
    one).  A split with no room for either structure is an error; one with
    room for a single structure builds only that one.
    """
    if spec.algorithm == "array":
        return sampler_params(spec, buckets, seed)
    if spec.algorithm == "hh":
        if buckets < spec.hh_stages:
            raise ValueError(
                f"hh with {buckets} buckets builds no HH table "
                f"(needs {spec.hh_stages} buckets, one per stage)"
            )
        # max() leaves a stage count below 1 for HHParams to reject
        return hh_params(spec, buckets // max(1, spec.hh_stages), seed)
    from .hybrid import HybridParams

    # every field is checked at every split, also those of a structure the
    # split leaves out: the array's at B buckets, the HH table's at one a stage
    sampler_params(spec, buckets, seed)
    hh_params(spec, 1, seed)
    if not 0.0 <= hh_fraction <= 1.0:  # written so that NaN fails too
        raise ValueError("hh_fraction must lie in [0, 1]")
    hh_buckets = math.floor(hh_fraction * buckets)
    per_stage = hh_buckets // spec.hh_stages
    array_buckets = buckets - hh_buckets
    if per_stage < 1 and array_buckets < 1:
        raise ValueError(
            f"hybrid with {buckets} buckets and HH fraction {hh_fraction} builds "
            f"neither an HH table (needs {spec.hh_stages} buckets, one per stage) "
            "nor an array"
        )
    return HybridParams(
        array=sampler_params(spec, array_buckets, seed) if array_buckets >= 1 else None,
        hh=hh_params(spec, per_stage, seed) if per_stage >= 1 else None,
        **_from_spec(spec, HYBRID_FIELDS),
    )


def aggregator_params(spec: ExperimentSpec) -> AggregatorParams:
    return AggregatorParams(**_from_spec(spec, AGGREGATOR_FIELDS))


def collect_reports(
    arrays: PacketArrays,
    spec: ExperimentSpec,
    buckets: int,
    hh_fraction: Optional[float],
    seed: int,
) -> ReportColumns:
    """Stream the trace through one freshly built detector; eviction reports
    followed by the end-of-interval flush."""
    detector = detector_class(spec.algorithm)(detector_params(spec, buckets, hh_fraction, seed))
    return ReportColumns.merge(detector.process_trace(arrays), detector.flush())


def truth_sets(
    stats: TraceStats, spec: ExperimentSpec
) -> tuple[frozenset[Prefix], frozenset[Prefix]]:
    """(beta-level, alpha-level) ground-truth heavy sets.

    The beta set requires at least beta packets; the alpha set requires
    strictly more than alpha packets (it is the false-positive reference)."""
    beta_set = ground_truth(stats, spec.eps, spec.beta, spec.reorder_def)
    # packet counts are integers: more than alpha is at least alpha + 1
    alpha_set = ground_truth(stats, spec.eps, spec.alpha + 1, spec.reorder_def)
    return beta_set, alpha_set


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


def result_rows(spec: ExperimentSpec, results: Sequence[EvalResult]) -> list[dict]:
    """The results.csv rows: the run's own cells and each result's fields."""
    run = {
        "algorithm": spec.algorithm,
        "def": spec.reorder_def.value,
        "mode": spec.mode.value,
        "report_all": spec.report_all,
    }
    return [{**run, **asdict(res)} for res in results]


def run_experiment(
    arrays: PacketArrays, spec: ExperimentSpec, stats: Optional[TraceStats] = None
) -> list[EvalResult]:
    """One result per configuration, in ``spec.configurations()`` order: the
    detector's report stream aggregated and scored against the ground truth."""
    if stats is None:
        stats = compute_stats(arrays)
    beta_set, alpha_set = truth_sets(stats, spec)
    results = []
    for buckets, x, seed in spec.configurations():
        reports = collect_reports(arrays, spec, buckets, x, seed)
        aggregator = ReportAggregator()
        aggregator.ingest_all(reports)
        output = aggregator.finalize(aggregator_params(spec))
        results.append(
            EvalResult(
                buckets=buckets,
                hh_fraction=x,
                seed=seed,
                accuracy=accuracy(output, beta_set),
                false_positive_rate=false_positive_rate(output, alpha_set),
                communication_overhead=communication_overhead(len(reports), len(arrays)),
                report_count=len(reports),
                output_size=len(output),
                truth_size=len(beta_set),
            )
        )
    return results


def grid_search_hybrid(
    arrays: PacketArrays, spec: ExperimentSpec, stats: Optional[TraceStats] = None
) -> tuple[list[EvalResult], list[dict]]:
    """Evaluate the hybrid split over the fraction grid; per bucket count,
    pick the x maximizing mean accuracy over seeds.  Of the x that tie at
    the best mean, the smallest wins, whatever order ``hh_fractions`` has."""
    if spec.algorithm != "hybrid":
        raise ValueError("grid search applies to the hybrid algorithm")
    results = run_experiment(arrays, spec, stats)
    best_rows = []
    for buckets in spec.bucket_counts:
        best_x = None
        best_acc = -1.0
        for x in sorted(spec.hh_fractions):
            accs = [
                res.accuracy for res in results if res.buckets == buckets and res.hh_fraction == x
            ]
            mean_acc = sum(accs) / len(accs)
            if mean_acc > best_acc:
                best_acc = mean_acc
                best_x = x
        best_rows.append({"buckets": buckets, "best_hh_fraction": best_x, "mean_accuracy": best_acc})
    return results, best_rows


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
        if not 1 <= self.alpha < self.beta:  # alpha >= 1: the aggregator's rule
            raise ValueError("need 1 <= alpha < beta")
        if self.pcc_repetitions < 1:
            raise ValueError("pcc_repetitions must be >= 1")
        # written so that NaN fails too
        if not 0.0 < self.pcc_sample_fraction <= 1.0:
            raise ValueError("pcc_sample_fraction must lie in (0, 1]")
        if self.pcc_seed < 0:  # numpy's generators take no negative seed
            raise ValueError("pcc_seed must be >= 0")


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
        truth = ground_truth(stats, params.eps, params.beta, def_)
        truth_rows += [
            {
                "def": def_.value,
                "prefix": row["prefix"],
                "packets": row["packets"],
                "ooo": row[f"ooo_def{def_.value}"],
            }
            for bits, row in zip(stats.prefix_bits.tolist(), prefix_rows)
            if Prefix(bits) in truth
        ]
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
        except UndefinedCorrelationError:
            # tiny or reorder-free traces: every sample had zero variance;
            # record that instead of aborting the whole characterization
            summary = PccSummary(math.nan, 0, params.pcc_repetitions, 0)
        pcc_rows.append({"def": def_.value, **asdict(summary)})
    write_csv(out / "pcc.csv", ("def", *(f.name for f in fields(PccSummary))), pcc_rows)

    hist_rows = [
        {"class": name, "bin_log2": bin_, "count": count}
        for name, counts in interarrival_histogram(arrays).items()
        for bin_, count in counts.items()
    ]
    write_csv(out / "interarrival.csv", ("class", "bin_log2", "count"), hist_rows)

    breakdown_rows = [
        {
            "prefix": Prefix(bits).dotted(),
            "size_bin": bin_,
            "flow_count": count,
            "ooo_fraction": fraction,
        }
        for bits, bin_, count, fraction in zip(
            *(column.tolist() for column in flow_size_reorder_breakdown(stats, d1))
        )
    ]
    write_csv(
        out / "size_breakdown.csv",
        ("prefix", "size_bin", "flow_count", "ooo_fraction"),
        breakdown_rows,
    )
    return stats
