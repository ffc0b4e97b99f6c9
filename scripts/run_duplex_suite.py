#!/usr/bin/env python3
"""Seed-averaged duplex comparison at desk scale.

Runs each requested duplex preset over a block of seeds, averages the
uplink residual PSD in linear power, and prints one row per canceller:
mean residual, fraction of uplink subcarriers within 3 dB of the noise
floor, and mean SICR. With --out, the averaged per-subcarrier PSDs are
written to one CSV per mode for plotting.

Example:
    python3 scripts/run_duplex_suite.py --seeds 20 --out /tmp/suite
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

import numpy as np

from flexsic.scenario import ScenarioSpec, run_scenario


def average_mode(
    mode: str, cancellers: tuple[str, ...], seeds: range
) -> tuple[dict[str, np.ndarray], dict[str, float], np.ndarray, float]:
    base = ScenarioSpec(duplex=mode, cancellers=cancellers)
    psd_mw = {c: None for c in cancellers}
    sicr = {c: 0.0 for c in cancellers}
    ul = None
    noise = 0.0
    for seed in seeds:
        rep = run_scenario(replace(base, seed=seed))
        ul = np.asarray(rep.ul_indices)
        noise = rep.noise_floor_dbm
        for c in cancellers:
            mw = 10.0 ** (np.asarray(rep.psd_dbm[c]) / 10.0)
            psd_mw[c] = mw if psd_mw[c] is None else psd_mw[c] + mw
            sicr[c] += rep.sicr_db[c]
    n = len(seeds)
    return (
        {c: v / n for c, v in psd_mw.items()},
        {c: v / n for c, v in sicr.items()},
        ul,
        noise,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds (1..N)")
    parser.add_argument(
        "--modes",
        nargs="+",
        default=["ibfd", "sbfd", "overlap"],
        choices=["ibfd", "sbfd", "overlap"],
    )
    parser.add_argument(
        "--cancellers",
        nargs="+",
        default=["none", "linear", "proposed", "pa_only", "iq_only"],
    )
    parser.add_argument("--out", default=None, help="directory for averaged PSD CSVs")
    args = parser.parse_args(argv)

    cancellers = tuple(args.cancellers)
    seeds = range(1, args.seeds + 1)
    for mode in args.modes:
        psd_mw, sicr, ul, noise = average_mode(mode, cancellers, seeds)
        print(f"\n{mode}  ({args.seeds} seeds, noise floor {noise:.1f} dBm)")
        print(f"  {'canceller':10s} {'mean dBm':>9s} {'<=noise+3dB':>11s} {'SICR dB':>8s}")
        for c in cancellers:
            psd_db = 10.0 * np.log10(psd_mw[c])
            mean_db = 10.0 * np.log10(np.mean(psd_mw[c]))
            frac = float(np.mean(psd_db <= noise + 3.0))
            print(f"  {c:10s} {mean_db:9.2f} {frac:11.2f} {sicr[c]:8.2f}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"psd_{mode}.csv")
            with open(path, "w") as fh:
                fh.write("p," + ",".join(cancellers) + "\n")
                for i, p in enumerate(ul):
                    row = ",".join(
                        f"{10.0 * np.log10(psd_mw[c][i]):.4f}" for c in cancellers
                    )
                    fh.write(f"{p},{row}\n")
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
