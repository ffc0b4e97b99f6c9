"""Command-line front end.

Three subcommands:

  run       simulate a scenario config and write reports
  tables    build and dump the distortion prediction tables for a config
  validate  run the built-in oracle checks against a config's grid

Configs are JSON objects whose keys mirror ScenarioSpec; unknown keys
are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .imd import (
    basis_chain,
    dump_imd_tables,
    impulse_pilot,
    impulse_pilot_basis,
    make_imd_tables,
    q_size,
)
from .impairments import apply_iq_freq, apply_pa
from .ofdm import dft, gen_qam_symbols, idft, mirror_values
from .scenario import emit_report, load_spec, run_scenario
from .sic import basis_stack, perfect_coefficients, precombine, run_sic


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
    spec = load_spec(args.config)
    grid = spec.build_grid()
    tables = make_imd_tables(grid, spec.build_imbalance(), spec.drive_amplitude(grid), spec.k_max)
    dump_imd_tables(tables, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    """Cheap self-consistency oracle suite for one config."""
    spec = load_spec(args.config)
    grid = spec.build_grid()
    b_iq = spec.build_imbalance()
    a = spec.build_pa()
    a_digi = spec.drive_amplitude(grid)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    p = grid.num_subcarriers
    x = gen_qam_symbols(grid, spec.qam_order, a_digi, 1, spec.seed)[0]
    t = idft(x)
    back = dft(t)
    check("transform-roundtrip", bool(np.allclose(back, x, atol=1e-9 * a_digi)))
    par_t = float(np.sum(np.abs(t) ** 2))
    par_f = float(np.sum(np.abs(x) ** 2)) / p
    check("parseval", abs(par_t - par_f) <= 1e-9 * max(par_f, 1.0))

    qs = q_size(grid, spec.k_max)
    ok = all(
        int(sum(int(v) for v in qs[k])) == grid.dl_size ** (2 * k + 1)
        for k in range(spec.k_max + 1)
    )
    check("tuple-count-identity", ok)

    xiq = apply_iq_freq(x, b_iq)
    k_top = min(spec.k_max, 2)
    chain = basis_chain(apply_iq_freq(impulse_pilot(grid, a_digi), b_iq), k_top)
    try:
        err = 0.0
        for k in range(1, k_top + 1):
            closed = impulse_pilot_basis(grid, b_iq, a_digi, k=k)
            scale = float(np.max(np.abs(chain[k]))) or 1.0
            err = max(err, float(np.max(np.abs(closed - chain[k]))) / scale)
        check("pilot-closed-form", err <= 1e-9, f"max rel err {err:.2e}")
    except ValueError as reason:
        print(f"SKIP pilot-closed-form ({reason})")

    pa_out = dft(apply_pa(idft(xiq), a))
    flat = np.ones(p, dtype=np.complex128)
    coeffs = perfect_coefficients(grid, flat, a)
    chain = basis_stack(x, b_iq, coeffs.k_max, grid)
    res = pa_out - run_sic(chain, coeffs, precombine(coeffs))
    ul = grid.ul_indices
    scale = float(np.max(np.abs(pa_out[ul]))) or 1.0
    err = float(np.max(np.abs(res[ul]))) / scale
    check("perfect-coefficients-cancel", err <= 1e-9, f"max residual {err:.2e}")

    mirrored = mirror_values(x)
    ok = all(mirrored[pp] == x[(p - pp) % p] for pp in range(0, p, max(1, p // 16)))
    check("mirror-convention", ok)

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


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

    p_val = sub.add_parser("validate", help="run oracle checks for a config")
    p_val.add_argument("--config", required=True, help="JSON scenario config")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
