"""Command-line experiment driver.

Subcommands: ``generate`` (synthetic trace + ground-truth sidecar),
``analyze`` (trace characterization), ``run``/``sweep`` (detector
evaluation over bucket counts and seeds), ``grid-hybrid`` (memory split
search), and ``validate-lemma`` (Monte Carlo check of the sampling
guarantee).

Each option sets one field of the parameter object its command builds
(``SynthConfig``, ``AnalysisParams`` or ``ExperimentSpec``), and an option
left out keeps that field's default, so every default is stated once, in
the library.  Options may come from a flat ``key = value`` config file
(``--config``); explicit flags always override the file.  Exit codes: 0
success, 1 usage error, 2 data error (also an input that cannot be read
or an output that cannot be created).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .controlplane import AggregatorMode

# The names the commands take from the other layers, and the module of each.
# argv is parsed before any of them is imported (the layers import numpy),
# and a command imports only the modules it runs (``_bind``).  Once bound,
# each is a global of the running module, so a caller can wrap it there
# (the traced benchmark run does); binding never replaces a name already
# set.
_LAZY = {
    "CheckModel": "checkmodel",
    "GuaranteeResult": "checkmodel",
    "check_model_presets": "checkmodel",
    "empirical_guarantee": "checkmodel",
    "RESULT_COLUMNS": "harness",
    "AnalysisParams": "harness",
    "ExperimentSpec": "harness",
    "DETECTOR_FIELDS": "harness",
    "analyze_trace": "harness",
    "grid_search_hybrid": "harness",
    "load_trace_arrays": "harness",
    "result_rows": "harness",
    "run_experiment": "harness",
    "SynthConfig": "traceio",
    "flow_table_meta": "traceio",
    "generate_synthetic_arrays": "traceio",
    "write_sidecar": "traceio",
    "write_trace_csv": "traceio",
    "write_csv": "writers",
}


def _bind(*names: str) -> None:
    scope = globals()
    for name in names:
        if name not in scope:
            module = importlib.import_module(f".{_LAZY[name]}", __package__)
            scope.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


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
    from .controlplane import AggregatorMode

    try:
        return AggregatorMode(text)
    except ValueError:
        raise ValueError("mode must be 'count' or 'fraction'")


class Opt(NamedTuple):
    name: str  # flag spelling without the leading dashes
    parse: Callable[[str], object]
    field: str  # the parameter field the option sets
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


def _resolve(args: argparse.Namespace, opts: Sequence[Opt]) -> dict[str, object]:
    """The parsed value of each option given as a flag or in the config
    file, keyed by the field it sets; a flag overrides the file."""
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
        unknown = sorted(set(config) - {opt.name for opt in opts})
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    values: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.name.replace("-", "_"))
        if raw is None:
            raw = config.get(opt.name)
        if raw is not None:
            try:
                values[opt.field] = opt.parse(raw)
            except ValueError as exc:
                raise UsageError(f"--{opt.name}: {exc}")
    return values


# --- option tables ------------------------------------------------------------

GENERATE_OPTS = (
    Opt("prefixes", int, "n_prefixes", "number of 24-bit source prefixes"),
    Opt("flows-zipf", float, "flows_per_prefix_zipf_exponent", "zipf exponent of flows per prefix"),
    Opt("size-zipf", float, "flow_size_zipf_exponent", "zipf exponent of flow sizes"),
    Opt("mean-flow-size", float, "mean_flow_size", "target mean packets per flow"),
    Opt("bad-fraction", float, "bad_prefix_fraction", "probability a prefix lies on a bad path"),
    Opt("bad-prob", float, "bad_reorder_prob", "per-packet displacement probability on bad paths"),
    Opt("good-prob", float, "good_reorder_prob", "per-packet displacement probability elsewhere"),
    Opt("displacement-max", int, "displacement_max", "maximum positions a packet is delayed"),
    Opt("duration", float, "duration_seconds", "trace duration in seconds"),
    Opt("seed", int, "seed", "generator seed"),
    Opt("noisy-fraction", float, "noisy_flow_fraction",
        "share of flows with one transient loss episode"),
    Opt("max-flows", int, "max_flows_per_prefix", "cap on flows per prefix"),
)

DETECTOR_OPTS = (
    Opt("algo", str, "algorithm", "detector: array | hh | hybrid"),
    Opt("def", int, "reorder_def", "reorder definition: 1 (decrease) or 2 (gap)"),
    Opt("buckets", _parse_int_list, "bucket_counts", "bucket counts, comma separated"),
    Opt("hh-fraction", _parse_float_list, "hh_fractions",
        "hybrid memory fractions for the HH table"),
    Opt("seeds", _parse_int_list, "seeds", "hash/RNG seeds, comma separated"),
    Opt("T", float, "stale_after", "staleness timeout in seconds"),
    Opt("C", int, "max_packets", "per-record packet cap"),
    Opt("R", int, "report_threshold", "array out-of-order report threshold"),
    Opt("r-hh", float, "hh_report_fraction", "HH out-of-order fraction threshold"),
    Opt("d", int, "hh_stages", "HH stage count"),
    Opt("min-report-packets", int, "min_report_packets",
        "minimum packets before an HH fraction counts"),
    Opt("alpha", int, "alpha", "minimum aggregated packets before output"),
    Opt("beta", int, "beta", "ground-truth minimum prefix size"),
    Opt("eps", float, "eps", "target out-of-order fraction"),
    Opt("c", float, "scale_c", "fraction-mode scaling in (0, 1]"),
    Opt("mode", _parse_mode, "mode", "aggregator rule: count | fraction"),
    Opt("report-all", _parse_bool, "report_all", "report on every array eviction"),
    Opt("filter-by-prefix", _parse_bool, "filter_by_prefix", "hybrid filters by prefix residency"),
)

# grid-hybrid always runs the hybrid, so it takes no --algo; without
# --hh-fraction it searches these splits
GRID_DETECTOR_OPTS = tuple(opt for opt in DETECTOR_OPTS if opt.name != "algo")
GRID_HH_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

ANALYZE_OPTS = (
    Opt("eps", float, "eps", "target out-of-order fraction"),
    Opt("alpha", int, "alpha", "small-prefix exemption threshold"),
    Opt("beta", int, "beta", "ground-truth minimum prefix size"),
    Opt("pcc-reps", int, "pcc_repetitions", "correlation test repetitions"),
    Opt("pcc-frac", float, "pcc_sample_fraction", "fraction of eligible flows sampled per test"),
    Opt("pcc-seed", int, "pcc_seed", "correlation sampling seed"),
)

LEMMA_OPTS = (
    Opt("trials", int, "trials", "Monte Carlo trials"),
    Opt("seed", int, "seed", "simulation seed"),
    Opt("preset", str, "preset", "preset name or 'all'"),
)


def _spec_from(values: dict[str, object]) -> ExperimentSpec:
    from .model import DEF_BY_NUMBER

    if "reorder_def" in values:
        if values["reorder_def"] not in DEF_BY_NUMBER:
            raise UsageError("--def must be 1 or 2")
        values = {**values, "reorder_def": DEF_BY_NUMBER[values["reorder_def"]]}
    _bind("ExperimentSpec")
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:  # bad parameter values, found before any trace is read
        raise UsageError(str(exc)) from exc


# --- subcommand handlers --------------------------------------------------------


def _open_output(files: contextlib.ExitStack, path: Path) -> IO[str]:
    path.parent.mkdir(parents=True, exist_ok=True)
    return files.enter_context(open(path, "w", encoding="ascii", newline="\n"))


def _cmd_generate(args: argparse.Namespace) -> int:
    values = _resolve(args, GENERATE_OPTS)
    _bind(
        "SynthConfig",
        "generate_synthetic_arrays",
        "write_trace_csv",
        "write_sidecar",
        "flow_table_meta",
    )
    try:
        cfg = SynthConfig(**values)
    except ValueError as exc:  # bad option values, found before any file is opened
        raise UsageError(str(exc)) from exc
    arrays, injected = generate_synthetic_arrays(cfg)
    out_path = Path(args.out)
    with contextlib.ExitStack() as files:
        # the sidecar opens first, so that a bad sidecar path writes nothing
        sidecar = _open_output(files, Path(args.sidecar)) if args.sidecar else None
        write_trace_csv(arrays, _open_output(files, out_path))
        if sidecar is not None:
            write_sidecar(arrays, injected, sidecar)
    meta = flow_table_meta(arrays)  # every generated flow has packets
    print(
        f"wrote {meta.packet_count} packets, {meta.flow_count} flows, "
        f"{meta.prefix_count} prefixes to {out_path}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    values = _resolve(args, ANALYZE_OPTS)
    _bind("AnalysisParams", "load_trace_arrays", "analyze_trace")
    try:
        params = AnalysisParams(**values)
    except ValueError as exc:  # bad parameter values, found before any trace is read
        raise UsageError(str(exc)) from exc
    arrays = load_trace_arrays(args.trace)
    analyze_trace(arrays, args.out, params)
    print(f"analysis written to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    values = _resolve(args, DETECTOR_OPTS)
    spec = _spec_from(values)
    _bind("DETECTOR_FIELDS")
    # the hybrid reads every algorithm-specific field
    unread = (values.keys() & DETECTOR_FIELDS["hybrid"]) - DETECTOR_FIELDS[spec.algorithm]
    if unread:
        flags = sorted(opt.name for opt in DETECTOR_OPTS if opt.field in unread)
        raise UsageError(
            f"--algo {spec.algorithm} does not read " + ", ".join(f"--{f}" for f in flags)
        )
    _bind("load_trace_arrays", "run_experiment", "result_rows", "RESULT_COLUMNS", "write_csv")
    arrays = load_trace_arrays(args.trace)
    rows = result_rows(spec, run_experiment(arrays, spec))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", RESULT_COLUMNS, rows)
    print(f"{len(rows)} result rows written to {out_dir / 'results.csv'}")
    return 0


def _cmd_grid_hybrid(args: argparse.Namespace) -> int:
    values = _resolve(args, GRID_DETECTOR_OPTS)
    spec = _spec_from({"hh_fractions": GRID_HH_FRACTIONS, **values, "algorithm": "hybrid"})
    _bind("load_trace_arrays", "grid_search_hybrid", "result_rows", "RESULT_COLUMNS", "write_csv")
    arrays = load_trace_arrays(args.trace)
    results, best = grid_search_hybrid(arrays, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", RESULT_COLUMNS, result_rows(spec, results))
    write_csv(out_dir / "best_x.csv", ("buckets", "best_hh_fraction", "mean_accuracy"), best)
    print(f"grid search written to {out_dir}")
    return 0


def _cmd_validate_lemma(args: argparse.Namespace) -> int:
    import dataclasses

    # no library object holds these three, so their defaults live here
    values = {"trials": 10_000, "seed": 0, "preset": "all", **_resolve(args, LEMMA_OPTS)}
    if values["trials"] < 1:
        raise UsageError("--trials must be >= 1")
    if values["seed"] < 0:  # numpy's generators take no negative seed
        raise UsageError("--seed must be >= 0")
    _bind(
        "CheckModel", "GuaranteeResult", "check_model_presets", "empirical_guarantee", "write_csv"
    )
    models: dict[str, CheckModel] = {}
    if args.model:
        raw = json.loads(Path(args.model).read_text(encoding="ascii"))
        if not isinstance(raw, dict):
            raise ValueError(f"{args.model}: expected a JSON object")
        try:
            models["model"] = CheckModel.from_dict(raw)
        except ValueError as exc:
            raise ValueError(f"{args.model}: {exc}") from exc
    else:
        presets = check_model_presets()
        name = values["preset"]
        if name == "all":
            models.update(presets)
        elif name in presets:
            models[name] = presets[name]
        else:
            raise UsageError(f"unknown preset {name!r}; have {', '.join(sorted(presets))}")
    rows = []
    for name, model in models.items():
        result = empirical_guarantee(model, values["trials"], values["seed"])
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
        rows.append({"name": name, **dataclasses.asdict(result)})
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = ("name", *(field.name for field in dataclasses.fields(GuaranteeResult)))
        write_csv(out_dir / "check_guarantee.csv", columns, rows)
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

    p_run = sub.add_parser("run", aliases=["sweep"], help="evaluate detector configurations")
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
    # a malformed trace (TraceFormatError) or model file is a ValueError; an
    # OSError is a file that cannot be read or an output that cannot be made
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
