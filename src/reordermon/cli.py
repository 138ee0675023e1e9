"""Command-line experiment driver.

Subcommands: ``generate`` (synthetic trace + ground-truth sidecar),
``analyze`` (trace characterization), ``run``/``sweep`` (detector
evaluation over bucket counts and seeds), ``grid-hybrid`` (memory split
search), and ``validate-lemma`` (Monte Carlo check of the sampling
guarantee).

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags always override the file.  Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .checkmodel import CheckModel, empirical_guarantee
from .controlplane import AggregatorMode
from .harness import (
    DEF_BY_NUMBER,
    RESULT_COLUMNS,
    AnalysisParams,
    ExperimentSpec,
    analyze_trace,
    check_model_presets,
    grid_search_hybrid,
    load_trace_arrays,
    result_rows,
    run_experiment,
    write_csv,
)
from .traceio import (
    SynthConfig,
    TraceFormatError,
    flow_table_meta,
    generate_synthetic_arrays,
    write_sidecar,
    write_trace_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(text: str, parse: Callable[[str], object]) -> tuple:
    values: list = []
    for part in text.split(","):
        if not part.strip():
            raise ValueError(f"empty item in {text!r}")
        value = parse(part)
        if value in values:
            raise ValueError(f"{part.strip()} is listed twice in {text!r}")
        values.append(value)
    return tuple(values)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(text, float)


def _parse_mode(text: str) -> AggregatorMode:
    try:
        return AggregatorMode(text)
    except ValueError:
        raise ValueError("mode must be 'count' or 'fraction'")


@dataclass(frozen=True)
class Opt:
    name: str  # flag spelling without the leading dashes
    parse: Callable[[str], object]
    default: object
    help: str


def _add_opts(parser: argparse.ArgumentParser, opts: Sequence[Opt]) -> None:
    for opt in opts:
        if opt.parse is _parse_bool:
            # usable both as a bare flag and with an explicit true/false
            parser.add_argument(
                f"--{opt.name}", type=str, nargs="?", const="true", default=None,
                help=opt.help,
            )
        else:
            parser.add_argument(f"--{opt.name}", type=str, default=None, help=opt.help)


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _resolve(
    args: argparse.Namespace, opts: Sequence[Opt]
) -> tuple[dict[str, object], frozenset[str]]:
    """The value of each option, and the names of those given as a flag or
    in the config file.  Merge precedence: explicit flag > config file >
    built-in default."""
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
        known = {opt.name for opt in opts}
        unknown = sorted(set(config) - known)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    resolved: dict[str, object] = {}
    given = set()
    for opt in opts:
        dest = opt.name.replace("-", "_")
        raw = getattr(args, dest)
        if raw is None and opt.name in config:
            raw = config[opt.name]
        if raw is None:
            resolved[dest] = opt.default
        else:
            given.add(opt.name)
            try:
                resolved[dest] = opt.parse(raw)
            except ValueError as exc:
                raise UsageError(f"--{opt.name}: {exc}")
    return resolved, frozenset(given)


# --- option tables ------------------------------------------------------------

GENERATE_OPTS = (
    Opt("prefixes", int, 1024, "number of 24-bit source prefixes"),
    Opt("flows-zipf", float, 1.8, "zipf exponent of flows per prefix"),
    Opt("size-zipf", float, 1.5, "zipf exponent of flow sizes"),
    Opt("mean-flow-size", float, 48.0, "target mean packets per flow"),
    Opt("bad-fraction", float, 0.05, "probability a prefix lies on a bad path"),
    Opt("bad-prob", float, 0.05, "per-packet displacement probability on bad paths"),
    Opt("good-prob", float, 0.001, "per-packet displacement probability elsewhere"),
    Opt("displacement-max", int, 2, "maximum positions a packet is delayed"),
    Opt("duration", float, 10.0, "trace duration in seconds"),
    Opt("seed", int, 0, "generator seed"),
    Opt("noisy-fraction", float, 0.0, "share of flows with one transient loss episode"),
    Opt("max-flows", int, 48, "cap on flows per prefix"),
)

DETECTOR_OPTS = (
    Opt("algo", str, "array", "detector: array | hh | hybrid"),
    Opt("def", int, 1, "reorder definition: 1 (decrease) or 2 (gap)"),
    Opt("buckets", _parse_int_list, (256,), "bucket counts, comma separated"),
    Opt("hh-fraction", _parse_float_list, (0.5,), "hybrid memory fractions for the HH table"),
    Opt("seeds", _parse_int_list, (0, 1, 2, 3, 4), "hash/RNG seeds, comma separated"),
    Opt("T", float, 2.0**-15, "staleness timeout in seconds"),
    Opt("C", int, 16, "per-record packet cap"),
    Opt("R", int, 1, "array out-of-order report threshold"),
    Opt("r-hh", float, 0.01, "HH out-of-order fraction threshold"),
    Opt("d", int, 2, "HH stage count"),
    Opt("min-report-packets", int, 16, "minimum packets before an HH fraction counts"),
    Opt("alpha", int, 16, "minimum aggregated packets before output"),
    Opt("beta", int, 128, "ground-truth minimum prefix size"),
    Opt("eps", float, 0.01, "target out-of-order fraction"),
    Opt("c", float, 1.0, "fraction-mode scaling in (0, 1]"),
    Opt("mode", _parse_mode, AggregatorMode.COUNT_ONLY, "aggregator rule: count | fraction"),
    Opt("report-all", _parse_bool, False, "report on every array eviction"),
    Opt("filter-by-prefix", _parse_bool, False, "hybrid filters by prefix residency"),
)

ANALYZE_OPTS = (
    Opt("eps", float, 0.01, "target out-of-order fraction"),
    Opt("alpha", int, 16, "small-prefix exemption threshold"),
    Opt("beta", int, 128, "ground-truth minimum prefix size"),
    Opt("pcc-reps", int, 100, "correlation test repetitions"),
    Opt("pcc-frac", float, 0.005, "fraction of eligible flows sampled per test"),
    Opt("pcc-seed", int, 0, "correlation sampling seed"),
)

# The detector options each algorithm reads, as harness.detector_params
# builds it: the array from the sampler options, the HH table from the HH
# options, and the hybrid from both and its own two.
_SAMPLER_OPTS = frozenset({"T", "C", "R", "report-all"})
_HH_OPTS = frozenset({"d", "r-hh", "min-report-packets"})
ALGO_OPTS = {
    "array": _SAMPLER_OPTS,
    "hh": _HH_OPTS,
    "hybrid": _SAMPLER_OPTS | _HH_OPTS | {"hh-fraction", "filter-by-prefix"},
}

LEMMA_OPTS = (
    Opt("trials", int, 10_000, "Monte Carlo trials"),
    Opt("seed", int, 0, "simulation seed"),
    Opt("preset", str, "all", "preset name or 'all'"),
)


def _spec_from(resolved: dict[str, object], algorithm: Optional[str] = None) -> ExperimentSpec:
    if resolved["def"] not in DEF_BY_NUMBER:
        raise UsageError("--def must be 1 or 2")
    try:
        return ExperimentSpec(
            algorithm=algorithm if algorithm is not None else resolved["algo"],
            reorder_def=DEF_BY_NUMBER[resolved["def"]],
            bucket_counts=resolved["buckets"],
            hh_fractions=resolved["hh_fraction"],
            seeds=resolved["seeds"],
            stale_after=resolved["T"],
            max_packets=resolved["C"],
            report_threshold=resolved["R"],
            hh_report_fraction=resolved["r_hh"],
            hh_stages=resolved["d"],
            min_report_packets=resolved["min_report_packets"],
            report_all=resolved["report_all"],
            alpha=resolved["alpha"],
            beta=resolved["beta"],
            eps=resolved["eps"],
            scale_c=resolved["c"],
            mode=resolved["mode"],
            filter_by_prefix=resolved["filter_by_prefix"],
        )
    except ValueError as exc:  # bad parameter values, found before any trace is read
        raise UsageError(str(exc)) from exc


# --- subcommand handlers --------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args, GENERATE_OPTS)
    cfg = SynthConfig(
        n_prefixes=resolved["prefixes"],
        flows_per_prefix_zipf_exponent=resolved["flows_zipf"],
        flow_size_zipf_exponent=resolved["size_zipf"],
        mean_flow_size=resolved["mean_flow_size"],
        bad_prefix_fraction=resolved["bad_fraction"],
        bad_reorder_prob=resolved["bad_prob"],
        good_reorder_prob=resolved["good_prob"],
        displacement_max=resolved["displacement_max"],
        duration_seconds=resolved["duration"],
        seed=resolved["seed"],
        noisy_flow_fraction=resolved["noisy_fraction"],
        max_flows_per_prefix=resolved["max_flows"],
    )
    try:
        cfg.validate()
    except ValueError as exc:  # bad option values, found before any file is opened
        raise UsageError(str(exc)) from exc
    arrays, injected = generate_synthetic_arrays(cfg)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="ascii", newline="\n") as out:
        write_trace_csv(arrays, out)
    if args.sidecar:
        with open(args.sidecar, "w", encoding="ascii", newline="\n") as out:
            write_sidecar(arrays, injected, out)
    meta = flow_table_meta(arrays)  # every generated flow has packets
    print(
        f"wrote {meta.packet_count} packets, {meta.flow_count} flows, "
        f"{meta.prefix_count} prefixes to {out_path}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args, ANALYZE_OPTS)
    try:
        params = AnalysisParams(
            eps=resolved["eps"],
            alpha=resolved["alpha"],
            beta=resolved["beta"],
            pcc_repetitions=resolved["pcc_reps"],
            pcc_sample_fraction=resolved["pcc_frac"],
            pcc_seed=resolved["pcc_seed"],
        )
    except ValueError as exc:  # bad parameter values, found before any trace is read
        raise UsageError(str(exc)) from exc
    arrays = load_trace_arrays(args.trace)
    analyze_trace(arrays, args.out, params)
    print(f"analysis written to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    resolved, given = _resolve(args, DETECTOR_OPTS)
    spec = _spec_from(resolved)
    # the hybrid reads every algorithm-specific option
    unread = (given & ALGO_OPTS["hybrid"]) - ALGO_OPTS[spec.algorithm]
    if unread:
        raise UsageError(
            f"--algo {spec.algorithm} does not read "
            + ", ".join(f"--{name}" for name in sorted(unread))
        )
    arrays = load_trace_arrays(args.trace)
    rows = result_rows(run_experiment(arrays, spec))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", RESULT_COLUMNS, rows)
    print(f"{len(rows)} result rows written to {out_dir / 'results.csv'}")
    return 0


# grid-hybrid always runs the hybrid, so it takes no --algo
GRID_DETECTOR_OPTS = tuple(
    Opt(o.name, o.parse, tuple(round(0.1 * k, 1) for k in range(1, 10)), o.help)
    if o.name == "hh-fraction"
    else o
    for o in DETECTOR_OPTS
    if o.name != "algo"
)


def _cmd_grid_hybrid(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args, GRID_DETECTOR_OPTS)
    spec = _spec_from(resolved, algorithm="hybrid")
    arrays = load_trace_arrays(args.trace)
    results, best = grid_search_hybrid(arrays, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", RESULT_COLUMNS, result_rows(results))
    write_csv(out_dir / "best_x.csv", ("buckets", "best_hh_fraction", "mean_accuracy"), best)
    print(f"grid search written to {out_dir}")
    return 0


def _cmd_validate_lemma(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args, LEMMA_OPTS)
    if resolved["trials"] < 1:
        raise UsageError("--trials must be >= 1")
    models: dict[str, CheckModel] = {}
    if args.model:
        raw = json.loads(Path(args.model).read_text(encoding="ascii"))
        if not isinstance(raw, dict):
            raise ValueError(f"{args.model}: expected a JSON object")
        for key in ("flow_probs", "flow_prefix", "prefix_bucket"):
            if not isinstance(raw[key], list):
                raise ValueError(f"{key} must be a list")
        models["model"] = CheckModel(
            flow_probs=tuple(raw["flow_probs"]),
            flow_prefix=tuple(raw["flow_prefix"]),
            prefix_bucket=tuple(raw["prefix_bucket"]),
            bucket=raw["bucket"],
            target_prefix=raw["target_prefix"],
            p_min=raw["p_min"],
            packets_per_check=raw["packets_per_check"],
            stream_length=raw["stream_length"],
            epsilon=raw["epsilon"],
            delta=raw["delta"],
        )
    else:
        presets = check_model_presets()
        name = resolved["preset"]
        if name == "all":
            models.update(presets)
        elif name in presets:
            models[name] = presets[name]
        else:
            raise UsageError(f"unknown preset {name!r}; have {', '.join(sorted(presets))}")
    rows = []
    for name, model in models.items():
        result = empirical_guarantee(model, resolved["trials"], resolved["seed"])
        if result.vacuous:
            print(f"{name}: SKIPPED (failure bound {result.failure_bound:.3f} >= 1)")
        else:
            status = "ok" if result.holds else "VIOLATED"
            print(
                f"{name}: {status} success={result.success_fraction:.4f} "
                f">= 1-bound={1 - result.failure_bound:.4f} "
                f"(threshold {result.threshold_checks:.2f} checks, "
                f"mean {result.mean_checks:.2f})"
            )
        rows.append(
            {
                "name": name,
                "trials": result.trials,
                "threshold_checks": result.threshold_checks,
                "mean_checks": result.mean_checks,
                "success_fraction": result.success_fraction,
                "failure_bound": result.failure_bound,
                "vacuous": int(result.vacuous),
                "holds": int(result.holds),
            }
        )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(
            out_dir / "check_guarantee.csv",
            (
                "name",
                "trials",
                "threshold_checks",
                "mean_checks",
                "success_fraction",
                "failure_bound",
                "vacuous",
                "holds",
            ),
            rows,
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="reordermon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic trace + sidecar")
    p_gen.add_argument("--out", required=True, help="trace CSV path")
    p_gen.add_argument("--sidecar", help="ground-truth sidecar CSV path")
    p_gen.add_argument("--config", help="key=value config file")
    _add_opts(p_gen, GENERATE_OPTS)
    p_gen.set_defaults(handler=_cmd_generate)

    p_an = sub.add_parser("analyze", help="characterize a trace")
    p_an.add_argument("--trace", required=True)
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--config", help="key=value config file")
    _add_opts(p_an, ANALYZE_OPTS)
    p_an.set_defaults(handler=_cmd_analyze)

    for name, help_text in (
        ("run", "evaluate detector configurations"),
        ("sweep", "memory sweep over bucket counts"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--trace", required=True)
        p_run.add_argument("--out", required=True, help="output directory")
        p_run.add_argument("--config", help="key=value config file")
        _add_opts(p_run, DETECTOR_OPTS)
        p_run.set_defaults(handler=_cmd_run)

    p_grid = sub.add_parser("grid-hybrid", help="grid search the hybrid memory split")
    p_grid.add_argument("--trace", required=True)
    p_grid.add_argument("--out", required=True, help="output directory")
    p_grid.add_argument("--config", help="key=value config file")
    _add_opts(p_grid, GRID_DETECTOR_OPTS)
    p_grid.set_defaults(handler=_cmd_grid_hybrid)

    p_lem = sub.add_parser(
        "validate-lemma", help="Monte Carlo check of the sampling guarantee"
    )
    p_lem.add_argument("--model", help="JSON model file (overrides --preset)")
    p_lem.add_argument("--out", help="output directory for the results CSV")
    p_lem.add_argument("--config", help="key=value config file")
    _add_opts(p_lem, LEMMA_OPTS)
    p_lem.set_defaults(handler=_cmd_validate_lemma)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
