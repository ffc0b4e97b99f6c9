#!/usr/bin/env python3
"""Compare run_scenario's outputs between the working tree and a parent revision.

Exports the parent revision with `git archive` and runs one fixed grid of
scenarios in each tree, each in a child interpreter that imports only the
public API of flexsic (ScenarioSpec, run_scenario, spec_to_dict,
CANCELLERS) from that tree's src/. The grid is P = 256 and 1024 on every
duplex preset with seeds 1-8, plus P = 4096 ibfd with seeds 1-2: 50
scenarios, all six cancellers each.

Prints, per canceller, the largest |delta| of SICR, of the residual PSD
and of the residual CDF samples, in dB, and the number of scenarios whose
SICR, PSD and CDF are bit-identical, then the number of scenarios whose
counter rows (stage, counter, value) differ, each differing
canceller.stage under it with the number of scenarios it differs in, and
the number whose spec_to_dict, which emit_report writes as config.json,
differs. Exits 1 when any counter row or config differs, 0 otherwise.

Example, from the repository root:

    python3 scripts/compare_outputs.py --parent HEAD
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export_revision  # noqa: E402

GRID = [(p, duplex, seed) for p in (256, 1024) for duplex in ("ibfd", "sbfd", "overlap")
        for seed in range(1, 9)] + [(4096, "ibfd", 1), (4096, "ibfd", 2)]

CHILD = """
import json, pickle, sys
from flexsic import CANCELLERS, ScenarioSpec, run_scenario, spec_to_dict

out = []
for p, duplex, seed in json.loads(sys.argv[2]):
    spec = ScenarioSpec(num_subcarriers=p, duplex=duplex, seed=seed, cancellers=CANCELLERS)
    report = run_scenario(spec)
    out.append({
        "config": json.dumps(spec_to_dict(spec), sort_keys=True),
        "outputs": {
            name: (report.sicr_db[name], report.psd_dbm[name], report.cdf_dbm[name],
                   report.counters[name].rows())
            for name in spec.cancellers
        },
    })
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""


def dump(tree: str, path: str, grid=GRID) -> list[dict]:
    """Outputs of grid run by the flexsic of tree/src in a child interpreter, also written to path.

    One dict per scenario holds its "config", spec_to_dict as JSON text,
    and its "outputs", which map each canceller to (SICR, PSD, CDF,
    counter rows).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run(
        [sys.executable, "-c", CHILD, path, json.dumps(list(grid))],
        cwd=tree, env=env, check=True,
    )
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _delta(a, b) -> float:
    """Largest |a - b| over matching entries, in the units of a and b; equal entries count 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    # where a == b, infinities included, the gap is 0 rather than nan
    gap = np.where(a == b, 0.0, np.abs(a - b))
    return float(gap.max()) if gap.size else 0.0


def _differing_stages(old: dict, new: dict) -> set[str]:
    """canceller.stage names whose (stage, counter, value) rows differ in two scenario outputs."""
    return {
        f"{name}.{row[0]}" for name in old
        for row in set(old[name][3]).symmetric_difference(new[name][3])
    }


def compare(parent: list[dict], change: list[dict]) -> tuple[list[str], int]:
    """Report lines and the number of scenarios whose counter rows or config differ in two dumps."""
    if len(parent) != len(change):
        raise ValueError(f"dumps hold {len(parent)} and {len(change)} scenarios")
    lines = [f"{'canceller':10s} {'max|dSICR| dB':>14s} {'max|dPSD| dB':>13s} "
             f"{'max|dCDF| dB':>13s} {'bit-identical':>14s}"]
    parent_outputs = [scenario["outputs"] for scenario in parent]
    change_outputs = [scenario["outputs"] for scenario in change]
    for name in parent_outputs[0] if parent else ():
        # per scenario: |dSICR|, |dPSD| and |dCDF|
        deltas = np.array([
            [_delta(old[name][i], new[name][i]) for i in range(3)]
            for old, new in zip(parent_outputs, change_outputs)
        ])
        d_sicr, d_psd, d_cdf = deltas.max(axis=0)
        same = int((deltas == 0).all(axis=1).sum())
        lines.append(f"{name:10s} {d_sicr:14.3g} {d_psd:13.3g} {d_cdf:13.3g} "
                     f"{same:>8d} of {len(parent)}")
    counters = [
        any(old[name][3] != new[name][3] for name in old)
        for old, new in zip(parent_outputs, change_outputs)
    ]
    stages = [_differing_stages(old, new) for old, new in zip(parent_outputs, change_outputs)]
    configs = [old["config"] != new["config"] for old, new in zip(parent, change)]
    lines.append(f"counter rows differ in {sum(counters)} of {len(parent)} scenarios")
    for stage in sorted(set().union(*stages)):
        count = sum(stage in names for names in stages)
        lines.append(f"  {stage} in {count} of {len(parent)}")
    lines.append(f"configs differ in {sum(configs)} of {len(parent)} scenarios")
    return lines, sum(c or d for c, d in zip(counters, configs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "parent")
        export_revision(args.parent, tree)
        parent = dump(tree, os.path.join(tmp, "parent.pkl"))
        change = dump(ROOT, os.path.join(tmp, "change.pkl"))
    lines, differ = compare(parent, change)
    print(f"{len(GRID)} scenarios: {args.parent} against the working tree")
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
