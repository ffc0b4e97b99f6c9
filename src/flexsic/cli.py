"""Command-line front end.

Two subcommands:

  run       simulate a scenario config and write reports
  tables    dump the tuple counts and predicted basis powers for a config

Configs are JSON objects whose keys mirror ScenarioSpec; unknown keys
are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import argparse
import sys

from .imd import mu_tables, q_size
from .scenario import emit_report, load_spec, run_scenario


def _cmd_run(args) -> int:
    spec = load_spec(args.config)
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    report = run_scenario(spec, seed=args.seed)
    paths = emit_report(report, args.out, fmt=args.format)
    for name in spec.cancellers:
        print(f"{name}: SICR {report.sicr_db[name]:.2f} dB")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_tables(args) -> int:
    """Write CSV rows `k,p,q_size,mu`: |Q^{2k+1}_p| and the predicted E|Phi_{2k+1}[p]|^2."""
    spec = load_spec(args.config)
    grid = spec.build_grid()
    counts = q_size(grid, spec.k_max)
    mu = mu_tables(grid, spec.build_imbalance(), spec.drive_amplitude(grid), spec.k_max)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,p,q_size,mu\n")
        for k in range(spec.k_max + 1):
            for p in range(grid.num_subcarriers):
                fh.write(f"{k},{p},{int(counts[k, p])},{float(mu[k, p])!r}\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flexsic",
        description="Flexible-duplex OFDM self-interference cancellation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write reports")
    p_run.add_argument("--config", required=True, help="JSON scenario config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_tab = sub.add_parser("tables", help="dump distortion prediction tables")
    p_tab.add_argument("--config", required=True, help="JSON scenario config")
    p_tab.add_argument("--out", required=True, help="output CSV path")
    p_tab.set_defaults(func=_cmd_tables)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
