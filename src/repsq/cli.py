"""Batch command line front end.

Five subcommands: ``alpha`` prints the cell width and accuracy
tolerance implied by a repeatability contract; ``init``, ``replicate``,
``pairwise``, and ``effort`` run the corresponding harness workflows
and write machine-readable outputs into a directory.

Each command renders its output files as texts; one writer then makes
the directory, writes each file through a temp-file-plus-rename, and
writes ``manifest.json`` last. The manifest holds the command, the
resolved configuration (for ``replicate``, the one read from the
artifact), the stopping rule's radius mode and whether its range term
is sound, timing, the numpy SIMD target that AIS and tracking bits
depend on, and a checksum of each output file. A run that fails
before writing leaves no output directory. Result files themselves
carry no timestamps, so re-running a command reproduces them byte for
byte.

Exit codes: 0 success, 1 configuration or input errors, 2 infeasible
repeatability contract, 3 campaign hit its sample budget without
terminating, 4 artifact rejected (format, checksum, or sealed content
a config file could not hold).

Numbers in result, report and manifest files are JSON numbers in
Python's shortest round-trip form, as in the artifact, so they read
back as the same binary64 values. A non-finite value is written as an
empty CSV cell and is refused by the JSON writers (exit 1). Set
REPSQ_VERBOSE=1 to log each written file to stderr.
"""

import argparse
import csv
import datetime
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from ._fields import mapping
from .artifact import dump_artifact, load_artifact
from .errors import (
    ArtifactVersionMismatch,
    DomainError,
    InfeasibleRepeatability,
    NonTerminated,
    RepsqError,
)
from ._kernels import RANGE_TERM_MODES
from .harness import (
    OFFSET_POLICIES,
    CampaignConfig,
    effort_comparison,
    initiator,
    pairwise_experiment,
    replication,
    run_quantized_sq,
)
from .quantize import AccuracySpec, compute_alpha

MANIFEST_VERSION = "repsq-manifest-1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NON_TERMINATED = 3
EXIT_ARTIFACT = 4


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    if os.environ.get("REPSQ_VERBOSE", "") not in ("", "0"):
        print(f"wrote {path}", file=sys.stderr)


def _json_text(payload: dict) -> str:
    """Indented, key-sorted JSON; a non-finite float raises ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else ""
    return str(value)


def _csv_text(rows: list[dict]) -> str:
    """CSV of named rows, with the first row's keys as the header."""
    header = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[k]) for k in header])
    return buf.getvalue()


def _resolve_config_path(value: str) -> Path:
    """A filesystem path, or the bare name of a bundled config."""
    p = Path(value)
    if p.exists():
        return p
    if p.name == value and "/" not in value:
        bundled = resources.files("repsq") / "configs" / f"{value}.json"
        if bundled.is_file():
            return Path(str(bundled))
    raise DomainError(f"config not found: {value}")


def _load_config(args) -> tuple[CampaignConfig, dict]:
    """The config a run uses, with the flags that override it, and the
    manifest's invocation entry naming the file and the resolved config."""
    path = _resolve_config_path(args.config)
    try:
        raw = mapping(json.loads(path.read_text(encoding="utf-8")), "campaign config")
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    # Each overriding flag's dest is the config key it overrides.
    for key in ("seed", "n_max", "range_term_mode", "offset_policy"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    config = CampaignConfig.from_dict(raw)
    return config, {"config": str(path), "resolved": config.to_dict()}


def _stop_rule_entry(config: CampaignConfig) -> dict:
    """The manifest's ``stop_rule`` entry: the radius mode, whether its
    range term is sound, the range P, the derived weight cap and the
    efficiency bound (no campaign stops before n_floor, every campaign
    stops by n_hoeffding).
    Warns on stderr when the range term is too small to make a valid
    confidence radius, and when n_max < n_hoeffding leaves the run
    without a worst-case budget."""
    rule = config.stop_rule
    if not rule.range_term_sound:
        print(
            f"repsq: warning: range_term_mode {config.range_term_mode!r} is not a valid "
            f"confidence radius at the range P = {rule.product:.6g}; "
            f"the accuracy of the estimate is not guaranteed",
            file=sys.stderr,
        )
    if config.n_max < rule.n_hoeffding:
        print(
            f"repsq: warning: n_max {config.n_max} is below n_hoeffding "
            f"{rule.n_hoeffding}, the n by which every campaign stops; "
            f"a campaign that has not stopped by n_max exits 3",
            file=sys.stderr,
        )
    return {"range_term_mode": config.range_term_mode, "range_term_sound": rule.range_term_sound,
            "range": rule.product, "weight_cap": config.weight_cap,
            "n_floor": rule.n_floor, "n_hoeffding": rule.n_hoeffding}


def _write_run(args, invocation: dict, stop_rule: dict, outputs: dict[str, str]) -> int:
    """Make the output directory, write each rendered output, then the
    manifest with a checksum of each file as written. Called only once
    every output is rendered, so a failed run leaves no directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        _atomic_write(out / name, text)
    try:  # the float64 SIMD target of the functions AIS and tracking bits depend on
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 cannot say
        dispatch = None
    else:
        info = opt_func_info(func_name="^(exp|log|log1p|expm1)$")
        dispatch = {name: entry.get("dd", {}).get("current") for name, entry in info.items()}
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "invocation": invocation,
        "stop_rule": stop_rule,
        "outputs": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numpy_dispatch": dispatch,
            "kernel_backend": _kernels.ACTIVE_BACKEND,
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - args.started,
    }
    _atomic_write(out / "manifest.json", _json_text(manifest))
    return EXIT_OK


def cmd_alpha(args) -> int:
    spec = AccuracySpec(gamma=args.gamma, c=args.c, beta=args.beta)
    alpha = compute_alpha(spec)
    margin = (1.0 - spec.c) ** 2
    print(f"feasible: (1 - c)^2 = {margin:.6g} >= 1 - beta = {1.0 - spec.beta:.6g}")
    print(f"alpha     = {alpha:.6g}  (exact {alpha!r})")
    tol = spec.gamma + alpha / 2.0
    print(f"tolerance = {tol:.6g}  (exact {tol!r})")
    return EXIT_OK


def cmd_init(args) -> int:
    config, invocation = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    artifact, result = initiator(config)
    return _write_run(args, invocation, stop_rule, {
        "artifact.json": dump_artifact(artifact),
        "result.json": _json_text(result.to_dict()),
    })


def cmd_replicate(args) -> int:
    path = Path(args.artifact)
    if not path.exists():
        raise DomainError(f"artifact not found: {path}")
    artifact = load_artifact(path.read_text(encoding="utf-8"))
    config, partition, stream = replication(artifact, args.seed)
    stop_rule = _stop_rule_entry(config)
    result = run_quantized_sq(config, partition, stream)
    invocation = {
        "artifact": str(path),
        "seed": args.seed,
        "checksum": artifact["checksum"],
        "resolved": config.to_dict(),
    }
    return _write_run(args, invocation, stop_rule, {
        "result.json": _json_text(result.to_dict()),
    })


def cmd_pairwise(args) -> int:
    config, invocation = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    report = pairwise_experiment(config, args.pairs)
    return _write_run(args, {**invocation, "pairs": args.pairs}, stop_rule, {
        "pairs.csv": _csv_text(report.rows),
        "report.json": _json_text(report.to_dict()),
    })


def cmd_effort(args) -> int:
    config, invocation = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    comp = effort_comparison(config)
    return _write_run(args, invocation, stop_rule, {
        "effort.csv": _csv_text(comp.rows()),
        "report.json": _json_text(comp.to_dict()),
    })


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; config errors are exit 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_campaign_flags(sub, *, offset: bool = True) -> None:
    sub.add_argument("--config", required=True, help="config file path or bundled config name")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--n-max", type=int, default=None, dest="n_max",
                     help="override the sample budget")
    sub.add_argument("--range-term-mode", choices=RANGE_TERM_MODES,
                     default=None, dest="range_term_mode",
                     help="second-order term variant of the adaptive stopping radius")
    if offset:
        sub.add_argument("--offset-policy", choices=OFFSET_POLICIES,
                         default=None, dest="offset_policy",
                         help="grid offset selection policy")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repsq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"repsq {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_alpha = commands.add_parser(
        "alpha", help="print the cell width for a repeatability contract"
    )
    p_alpha.add_argument("--gamma", type=float, required=True)
    p_alpha.add_argument("--c", type=float, required=True)
    p_alpha.add_argument("--beta", type=float, required=True)
    p_alpha.set_defaults(func=cmd_alpha)

    p_init = commands.add_parser(
        "init", help="run an initiator campaign and export its artifact"
    )
    _add_campaign_flags(p_init)
    p_init.set_defaults(func=cmd_init)

    p_rep = commands.add_parser(
        "replicate", help="re-run a campaign from an exported artifact"
    )
    p_rep.add_argument("--artifact", required=True, help="artifact file from init")
    p_rep.add_argument("--seed", type=int, required=True, help="replicator seed")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_replicate)

    p_pair = commands.add_parser(
        "pairwise", help="run paired campaigns and report the repeat rate"
    )
    _add_campaign_flags(p_pair)
    p_pair.add_argument("--pairs", type=int, required=True,
                        help="number of (initiator, replicator) pairs")
    p_pair.set_defaults(func=cmd_pairwise)

    p_eff = commands.add_parser(
        "effort", help="trace one campaign against the fixed-range sample bound"
    )
    _add_campaign_flags(p_eff, offset=False)
    p_eff.set_defaults(func=cmd_effort)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        return args.func(args)
    except InfeasibleRepeatability as exc:
        print(f"repsq: infeasible contract: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonTerminated as exc:
        print(f"repsq: {exc}", file=sys.stderr)
        return EXIT_NON_TERMINATED
    except ArtifactVersionMismatch as exc:
        print(f"repsq: artifact rejected: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except (DomainError, RepsqError, OSError, ValueError) as exc:
        print(f"repsq: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
