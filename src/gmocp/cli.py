"""Command-line entry point: run, sweep, oracle and gen-stream subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .oracles import ORACLES, run_oracle
from .runner import TOP_KEYS, load_config, parse_stream_config, run_experiment, run_sweep
from .streams import generate_stream, save_stream


def _parse_grid(items) -> dict:
    """``--grid N=1,3 J=1,2`` as {"N": [1, 3], "J": [1, 2]}."""
    grid = {}
    for item in items:
        key, _, vals = item.partition("=")
        try:
            grid[key.upper()] = [int(v) for v in vals.split(",") if v]
        except ValueError:
            raise ValueError(f"sweep grid {item!r} is not a comma-separated list of "
                             "integers") from None
    if set(grid) != {"N", "J"}:
        raise ValueError("sweep grid must specify N=... and J=...")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmocp",
                                     description="online conformal prediction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config over its seeds")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--resume", action="store_true",
                       help="skip seeds already present in the results CSV")
    p_run.add_argument("--trace", action="store_true", help="write per-step trace CSVs")
    p_run.add_argument("--timing", action="store_true",
                       help="record wall-clock runtime (output no longer byte-stable)")

    p_sweep = sub.add_parser("sweep", help="cross product over graph sizes N and J")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", nargs=2, required=True, metavar=("N=...", "J=..."),
                         help="e.g. --grid N=1,3,5 J=1,2,4")
    p_sweep.add_argument("--resume", action="store_true")
    p_sweep.add_argument("--timing", action="store_true")

    p_oracle = sub.add_parser("oracle", help="check a fast routine against its slow oracle")
    p_oracle.add_argument("name", choices=sorted(ORACLES))

    p_gen = sub.add_parser("gen-stream", help="materialize a synthetic stream to CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a config, stream or out-of-memory error prints one line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, MemoryError) as exc:  # ValueError: StreamFormatError, bad JSON
        line = " ".join(str(exc).split())
        if isinstance(exc, MemoryError):  # numpy's names the size, a tuple's is empty
            line = f"out of memory ({line})" if line else "out of memory"
        print(f"gmocp {args.command}: {line}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "run":
        cfg = load_config(args.config)
        rows = run_experiment(cfg, resume=args.resume, timing=args.timing, trace=args.trace)
        print(f"wrote {len(rows)} rows to {cfg.output}.csv")
        return 0

    if args.command == "sweep":
        cfg, grid = load_config(args.config), _parse_grid(args.grid)
        by_id = run_sweep(cfg, grid["N"], grid["J"], resume=args.resume, timing=args.timing)
        print(f"swept {len(by_id)} configs -> {cfg.output}.csv")
        return 0

    if args.command == "oracle":
        report = run_oracle(args.name)
        print(report.summary())
        return 0 if report.passed else 1

    # gen-stream
    with open(args.config) as fh:
        doc = json.load(fh)
    # an experiment config, or a bare stream document
    is_experiment = isinstance(doc, dict) and doc.keys() & TOP_KEYS
    stream_cfg = load_config(args.config).stream if is_experiment else parse_stream_config(doc)
    if stream_cfg is None:
        raise ValueError("gen-stream needs a synthetic stream, not a stream file")
    save_stream(generate_stream(stream_cfg, master_seed=args.seed), stream_cfg.n_labels, args.out)
    print(f"wrote {stream_cfg.horizon} steps to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
