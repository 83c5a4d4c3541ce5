"""Batch command line front end.

Five subcommands: ``alpha`` prints the cell width and accuracy
tolerance implied by a repeatability contract; ``init``, ``replicate``,
``pairwise``, and ``effort`` run the corresponding harness workflows
and write machine-readable outputs into a directory.

Every run directory gets a ``manifest.json`` holding the command, the
resolved configuration, the stopping rule's radius mode and whether
its range term is sound, timing, and a checksum per output file; the
manifest is written last, after all result files, and all writes go
through a temp-file-plus-rename so a crashed run leaves no partial
output behind. Result files themselves carry no timestamps, so
re-running a command reproduces them byte for byte.

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
    config_from_artifact,
    effort_comparison,
    initiator,
    pairwise_experiment,
    replicator,
)
from .quantize import AccuracySpec, compute_alpha

MANIFEST_VERSION = "repsq-manifest-1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NON_TERMINATED = 3
EXIT_ARTIFACT = 4


def _verbose() -> bool:
    return os.environ.get("REPSQ_VERBOSE", "") not in ("", "0")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    if _verbose():
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


def _load_config(args) -> tuple[CampaignConfig, str]:
    path = _resolve_config_path(args.config)
    try:
        raw = mapping(json.loads(path.read_text(encoding="utf-8")), "campaign config")
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.n_max is not None:
        raw["n_max"] = args.n_max
    if args.range_term_mode is not None:
        raw["range_term_mode"] = args.range_term_mode
    if getattr(args, "offset_policy", None) is not None:
        raw["offset_policy"] = args.offset_policy
    return CampaignConfig.from_dict(raw), str(path)


def _stop_rule_entry(config: CampaignConfig) -> dict:
    """The manifest's ``stop_rule`` entry; warns on stderr when the
    rule's range term is too small to make a valid confidence radius."""
    sound = config.stop_rule.range_term_sound
    if not sound:
        print(
            f"repsq: warning: range_term_mode {config.range_term_mode!r} is not a valid "
            f"confidence radius at the declared bound {config.stop_rule.product:.6g}; "
            f"the accuracy of the estimate is not guaranteed",
            file=sys.stderr,
        )
    return {"range_term_mode": config.range_term_mode, "range_term_sound": sound}


def _write_manifest(
    out_dir: Path,
    command: str,
    started: float,
    invocation: dict,
    stop_rule: dict,
    outputs: list[str],
) -> None:
    checksums = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in outputs
    }
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "tool_version": __version__,
        "command": command,
        "invocation": invocation,
        "stop_rule": stop_rule,
        "outputs": checksums,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": _kernels.ACTIVE_BACKEND,
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - started,
    }
    _atomic_write(out_dir / "manifest.json", _json_text(manifest))


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    started = time.monotonic()
    config, config_path = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    out = _prepare_out(args)
    artifact, result = initiator(config)
    _atomic_write(out / "artifact.json", dump_artifact(artifact))
    _atomic_write(out / "result.json", _json_text(result.to_dict()))
    _write_manifest(
        out,
        "init",
        started,
        {"config": config_path, "resolved": config.to_dict()},
        stop_rule,
        ["artifact.json", "result.json"],
    )
    return EXIT_OK


def cmd_replicate(args) -> int:
    started = time.monotonic()
    path = Path(args.artifact)
    if not path.exists():
        raise DomainError(f"artifact not found: {path}")
    artifact = load_artifact(path.read_text(encoding="utf-8"))
    result = replicator(artifact, seed=args.seed)
    stop_rule = _stop_rule_entry(config_from_artifact(artifact, args.seed))
    out = _prepare_out(args)
    _atomic_write(out / "result.json", _json_text(result.to_dict()))
    _write_manifest(
        out,
        "replicate",
        started,
        {"artifact": str(path), "seed": args.seed, "checksum": artifact["checksum"]},
        stop_rule,
        ["result.json"],
    )
    return EXIT_OK


def cmd_pairwise(args) -> int:
    started = time.monotonic()
    config, config_path = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    out = _prepare_out(args)
    report = pairwise_experiment(config, args.pairs)
    _atomic_write(out / "pairs.csv", _csv_text(report.rows))
    _atomic_write(out / "report.json", _json_text(report.to_dict()))
    _write_manifest(
        out,
        "pairwise",
        started,
        {"config": config_path, "pairs": args.pairs, "resolved": config.to_dict()},
        stop_rule,
        ["pairs.csv", "report.json"],
    )
    return EXIT_OK


def cmd_effort(args) -> int:
    started = time.monotonic()
    config, config_path = _load_config(args)
    stop_rule = _stop_rule_entry(config)
    out = _prepare_out(args)
    comp = effort_comparison(config)
    _atomic_write(out / "effort.csv", _csv_text(comp.rows()))
    _atomic_write(out / "report.json", _json_text(comp.to_dict()))
    _write_manifest(
        out,
        "effort",
        started,
        {"config": config_path, "resolved": config.to_dict()},
        stop_rule,
        ["effort.csv", "report.json"],
    )
    return EXIT_OK


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
