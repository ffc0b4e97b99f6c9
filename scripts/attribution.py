#!/usr/bin/env python3
"""Attribute the cancellers' SICR shortfall to the estimates behind it.

Runs a grid of scenarios, duplex presets x noise_dbm x pa_drive_rms x
seeds, and prints the SICR of proposed and full_ls on four rungs, each
replacing one more estimate with the simulated truth:

  as-is   every estimate as fitted;
  b       estimate_iq returns the true IQ image weight b;
  b,a     estimate_pa also returns the true amplifier polynomial, scaled
          as the fit scales it: h_los a, h_los the first nonzero
          beamformed tap, the direct path;
  b,a,h   estimate_channel also returns the true channel response on the
          uplink band, over h_los, so that h_hat a_hat = h a.

An estimator is replaced by patching the name flexsic.scenario binds, with
unittest.mock.patch.object, so no program file changes. Each patched
estimator still calls the real one and drops its result, so each estimator
charges its counter as in a plain run. full_ls fits its weights itself and
reads neither a_hat nor h_hat: its last three rungs agree.

Example:
    python3 scripts/attribution.py --presets ibfd --noise-dbm -250 --seeds 1
"""

from __future__ import annotations

import argparse
import contextlib
from unittest import mock

import numpy as np

import flexsic.scenario as scenario
from flexsic.scenario import DUPLEX_PRESETS, ScenarioSpec

RUNGS = ("as-is", "b", "b,a", "b,a,h")
# rung i replaces the first i of these
ESTIMATORS = ("estimate_iq", "estimate_pa", "estimate_channel")
CANCELLERS = ("proposed", "full_ls")


def ladder(spec: ScenarioSpec) -> dict[str, dict[str, float]]:
    """SICR in dB of each canceller of spec on each rung, as {rung: {canceller: dB}}."""
    grid = spec.build_grid()
    b_true, a_true = spec.build_imbalance(), spec.build_pa()
    real = {name: getattr(scenario, name) for name in ESTIMATORS + ("apply_beams",)}
    seen = {}

    def apply_beams(*args, **kwargs):
        seen["taps"] = taps = real["apply_beams"](*args, **kwargs)
        seen["h_los"] = taps[np.flatnonzero(taps)[0]]
        return taps

    def estimate_iq(*args, **kwargs):
        real["estimate_iq"](*args, **kwargs)
        return b_true

    def estimate_pa(*args, **kwargs):
        a_hat = real["estimate_pa"](*args, **kwargs)
        truth = np.zeros_like(a_hat)
        n = min(len(a_true), len(a_hat))
        truth[:n] = a_true[:n]
        return seen["h_los"] * truth

    def estimate_channel(*args, **kwargs):
        real["estimate_channel"](*args, **kwargs)
        h = np.fft.fft(seen["taps"], n=grid.num_subcarriers)[grid.ul_band]
        return h / seen["h_los"]

    fakes = {"estimate_iq": estimate_iq, "estimate_pa": estimate_pa,
             "estimate_channel": estimate_channel}
    out = {}
    for i, rung in enumerate(RUNGS):
        with contextlib.ExitStack() as patches:
            patches.enter_context(mock.patch.object(scenario, "apply_beams", apply_beams))
            for name in ESTIMATORS[:i]:
                patches.enter_context(mock.patch.object(scenario, name, fakes[name]))
            out[rung] = scenario.run_scenario(spec).sicr_db
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", default=list(DUPLEX_PRESETS),
                        choices=DUPLEX_PRESETS)
    parser.add_argument("--noise-dbm", nargs="+", type=float, default=[-90.0, -110.0, -250.0])
    parser.add_argument("--drives", nargs="+", type=float, default=[0.5, 3.0],
                        help="pa_drive_rms values")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)

    print(f"{'preset':8s} {'noise_dbm':>9s} {'drive':>5s} {'seed':>4s} {'canceller':9s}"
          + "".join(f" {rung:>7s}" for rung in RUNGS))
    for preset in args.presets:
        for noise in args.noise_dbm:
            for drive in args.drives:
                for seed in args.seeds:
                    spec = ScenarioSpec(
                        duplex=preset, noise_dbm=noise, pa_drive_rms=drive, seed=seed,
                        cancellers=CANCELLERS,
                    )
                    sicr = ladder(spec)
                    for name in CANCELLERS:
                        print(f"{preset:8s} {noise:9.1f} {drive:5.1f} {seed:4d} {name:9s}"
                              + "".join(f" {sicr[rung][name]:7.1f}" for rung in RUNGS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
