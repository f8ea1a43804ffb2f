"""Command-line interface: score, report, simulate, and validate datasets.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
Handlers import what only they use, so a call loads only its subcommand's modules:
only ``simulate`` loads numpy, no command loads ``dataclasses``, and none loads the object
model of ``tcscore.model``: ``simulate`` writes the simulator's lines as they are drawn.
``run``, the process entry point, freezes the heap before exiting; ``main`` does not.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .macro import DEFAULT_CONFIG, ScoreConfig, join_samples, score_rows
from .records import IngestError, file_writer, load_sample_groups, load_score_rows

__all__ = ["build_parser", "main", "run"]

# The level_row fields `tcscore score` prints, in order.
_SCORE_KEYS = ("t", "S", "ES", "alpha", "beta", "lambda", "eta", "gamma", "total", "correct", "errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcscore",
        description="Correctness-aware speedup scoring for tensor-compiler benchmark runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.set_defaults(func=func)
        return cmd

    def add_scoring_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--p", type=float, default=None, help="slowdown penalty exponent in (0,1)")
        cmd.add_argument("--b", type=float, default=None, help="failure penalty factor in (0,1)")
        cmd.add_argument(
            "--grid",
            default=None,
            help="comma-separated tolerance levels (use --grid='-10,...,4' for negatives)",
        )

    def add_output_flags(cmd: argparse.ArgumentParser, formats) -> None:
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument("--format", choices=formats, default=formats[0], help="output format")

    cmd = add_command("score", _cmd_scoring, "Score a records file at a single tolerance level.")
    cmd.add_argument("--records", required=True)
    cmd.add_argument("--manifests", default=None, help="optional; enables join validation")
    cmd.add_argument("--t", type=float, default=0.0, help="tolerance level (must be on the grid)")
    add_scoring_flags(cmd)

    csv_first, json_first = ("csv", "json", "md"), ("json", "csv", "md")
    for name, formats, help_text in (
        ("curve", csv_first, "Export full-precision scores over the whole grid."),
        ("report", csv_first, "Render the score table (3 decimals, '-' for S at t > 0)."),
        ("violin", json_first, "Per-group log2 speedups of correct samples at level 0."),
    ):
        cmd = add_command(name, _cmd_scoring, help_text)
        cmd.add_argument("--records", required=True)
        cmd.add_argument("--manifests", required=True)
        add_scoring_flags(cmd)
        add_output_flags(cmd, formats)

    cmd = add_command("stats", _cmd_stats, "Category shares and operator-count histograms.")
    cmd.add_argument("--manifests", required=True)
    add_output_flags(cmd, json_first)

    cmd = add_command("dedup", _cmd_dedup, "Drop graph-hash duplicates, keeping first occurrences.")
    cmd.add_argument("--manifests", required=True)
    cmd.add_argument("--out", required=True, help="output manifests file")

    cmd = add_command("simulate", _cmd_simulate, "Generate a synthetic manifests/records pair.")
    cmd.add_argument("--spec", default=None, help="JSON workload spec file")
    cmd.add_argument("--seed", type=int, default=None, help="override the spec seed")
    cmd.add_argument("--n", type=int, default=None, help="override the sample count")
    cmd.add_argument("--manifests", default="manifests.jsonl", help="output manifests file")
    cmd.add_argument("--records", default="records.jsonl", help="output records file")
    add_scoring_flags(cmd)

    cmd = add_command("validate", _cmd_validate, "Validate dataset files and their cross-references.")
    cmd.add_argument("--manifests", default=None)
    cmd.add_argument("--records", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and args.manifests is None and args.records is None:
        parser.error("nothing to validate: pass --manifests and/or --records")
    try:
        return args.func(args)
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Entry point of ``python -m tcscore`` and the ``tcscore`` script: exit with ``main``'s code.

    The heap is frozen first, so the interpreter's exit-time collections skip
    every object left from start-up instead of walking them all; stdout is
    still flushed and atexit handlers still run.
    """
    status = main()
    gc.freeze()
    raise SystemExit(status)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad grid {text!r}: expected comma-separated numbers") from None


def _config(args, header=None) -> ScoreConfig:
    """Assemble scoring settings: defaults, then file header, then flags.

    With a header, every numeric level (t <= 0) of ``--grid`` must be one
    the records producer measured.
    """
    cfg = DEFAULT_CONFIG if header is None else ScoreConfig.from_header(header)
    grid = cfg.grid
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        if header is not None:
            unmeasured = [t for t in grid if t <= 0 and t not in header.grid]
            if unmeasured:
                from .report import level_label
                levels = ", ".join(map(level_label, unmeasured))
                raise ValueError(f"--grid levels not on the records header grid: {levels}")
    return ScoreConfig(
        degradation_penalty=args.p if args.p is not None else cfg.degradation_penalty,
        failure_penalty=args.b if args.b is not None else cfg.failure_penalty,
        grid=grid,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with file_writer(out) as write:
            write(text)


def _cmd_scoring(args) -> int:
    """Shared handler of ``score``, ``curve``, ``report`` and ``violin``: each reads score rows."""
    from . import report

    header, rows = load_score_rows(args.records)
    cfg = _config(args, header)
    manifests = None if args.manifests is None else load_sample_groups(args.manifests)
    if args.command == "violin":
        _emit(report.render_violin(report.violin_data(manifests, rows, cfg), args.format), args.out)
        return 0
    if manifests is not None:
        join_samples(manifests, rows)
    if args.command == "score":
        row = report.level_row(score_rows(rows, cfg, (args.t,)).points[0])
        print(json.dumps({key: row[key] for key in _SCORE_KEYS}))
    else:
        render = report.render_curve if args.command == "curve" else report.render_table
        _emit(render(score_rows(rows, cfg), args.format), args.out)
    return 0


def _cmd_stats(args) -> int:
    from .dataset import stats
    from .report import render_stats

    _emit(render_stats(stats(load_sample_groups(args.manifests)), args.format), args.out)
    return 0


def _cmd_dedup(args) -> int:
    from .dataset import dedup_file

    kept, dropped = dedup_file(args.manifests, args.out)
    print(f"kept {kept} dropped {dropped}")
    return 0


def _cmd_simulate(args) -> int:
    from .records import _encode_line, header_to_dict
    from .simulator import SimSpec, records_header, simulate_blocks

    if Path(args.manifests).resolve() == Path(args.records).resolve():
        raise ValueError(f"--manifests and --records are the same file: {args.records}")
    spec = SimSpec()
    if args.spec is not None:
        try:
            spec = SimSpec.from_dict(json.loads(Path(args.spec).read_text(encoding="utf-8")))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{args.spec}: {exc}") from exc
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    if args.n is not None:
        spec = spec._replace(n_samples=args.n)
    cfg = _config(args)
    # Write each block's lines and drop it: memory stays one block whatever the count.
    with file_writer(args.manifests) as put_manifests, file_writer(args.records) as put_records:
        put_records(_encode_line(header_to_dict(records_header(spec, cfg))) + "\n")
        for manifest_lines, record_lines in simulate_blocks(spec, cfg):
            put_manifests("".join(manifest_lines))
            put_records("".join(record_lines))
    print(
        f"wrote {spec.n_samples} manifests to {args.manifests}"
        f" and {spec.n_samples} records to {args.records}"
    )
    return 0


def _cmd_validate(args) -> int:
    manifests = None
    if args.manifests is not None:
        mismatched: list[str] = []
        manifests = load_sample_groups(args.manifests, mismatched)
        if mismatched:
            preview = ", ".join(repr(s) for s in mismatched[:5])
            raise ValueError(
                f"graph_hash does not match recorded inputs for {len(mismatched)}"
                f" samples: {preview}"
            )
    records = None
    if args.records is not None:
        _, records = load_score_rows(args.records)
    if manifests is not None and records is not None:
        join_samples(manifests, records)
    parts = []
    if manifests is not None:
        parts.append(f"{len(manifests)} manifests")
    if records is not None:
        parts.append(f"{len(records)} records")
    print("ok: " + ", ".join(parts))
    return 0
