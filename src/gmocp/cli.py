"""Command-line entry point: run, sweep, oracle and gen-stream subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .oracles import ORACLES, run_oracle
from .runner import TOP_KEYS, load_config, parse_stream_config, run_experiment, run_sweep
from .streams import generate_stream, save_stream


def _parse_grid(text: str) -> list:
    return [int(v) for v in text.split(",") if v]


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
    args = build_parser().parse_args(argv)

    if args.command == "run":
        cfg = load_config(args.config)
        rows = run_experiment(cfg, resume=args.resume, timing=args.timing, trace=args.trace)
        print(f"wrote {len(rows)} rows to {cfg.output}.csv")
        return 0

    if args.command == "sweep":
        cfg = load_config(args.config)
        grid = {}
        for item in args.grid:
            key, _, vals = item.partition("=")
            try:
                grid[key.upper()] = _parse_grid(vals)
            except ValueError:
                print(f"sweep grid {item!r} is not a comma-separated list of integers",
                      file=sys.stderr)
                return 2
        if set(grid) != {"N", "J"}:
            print("sweep grid must specify N=... and J=...", file=sys.stderr)
            return 2
        by_id = run_sweep(cfg, grid["N"], grid["J"], resume=args.resume, timing=args.timing)
        print(f"swept {len(by_id)} configs -> {cfg.output}.csv")
        return 0

    if args.command == "oracle":
        report = run_oracle(args.name)
        print(report.summary())
        return 0 if report.passed else 1

    if args.command == "gen-stream":
        with open(args.config) as fh:
            doc = json.load(fh)
        # an experiment config, or a bare stream document
        is_experiment = isinstance(doc, dict) and doc.keys() & TOP_KEYS
        stream_cfg = load_config(args.config).stream if is_experiment else parse_stream_config(doc)
        if stream_cfg is None:
            print("gen-stream needs a synthetic stream, not a stream file", file=sys.stderr)
            return 2
        save_stream(generate_stream(stream_cfg, master_seed=args.seed),
                    stream_cfg.n_labels, args.out)
        print(f"wrote {stream_cfg.horizon} steps to {args.out}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
