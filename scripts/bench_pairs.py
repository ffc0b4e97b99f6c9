#!/usr/bin/env python3
"""Paired benchmark runs: the working tree against a parent revision.

Runs bench/run.py alternately on a copy of this working tree and on a
`git archive` of the parent revision, in fresh interpreters. The two trees
are sibling directories whose names have the same length ("change" and
"parent"), because the checkout's path length alone can move the heap
layout, and with it the allocator's page-fault state, of the same code.
Both runs of a pair use the same workload seed, and the side that runs
first alternates from pair to pair, so slow drift of the machine falls on
both sides alike. For each run it records the metrics of the JSON last
line, the raw wall-time median of the `info` line, and the minor page
faults per scenario: the growth of RUSAGE_CHILDREN's ru_minflt over the
run (its set-up processes included) divided by the scenarios it ran. It
writes one JSON file with the machine, the settings, every pair and, per
metric, each side's median and quartiles, the number of pairs the working
tree won and a verdict, which it also prints per metric and workload:
"gain" when the working tree won at least nine tenths of the pairs and its
median gain exceeds the parent's interquartile range; "worse" when its
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json, a fraction of the parent's median; "unresolved" otherwise.
Each workload also records split_pairs, the number of
pairs whose two sides sat in different allocator states: exactly one side
above HIGH_FAULTS_PER_SCENARIO minor faults per scenario. The p50 gap of
such a pair measures the state as much as the code.

Example, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD --workload desk_suite \\
        --pairs 10 --seconds 30 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Directions of the figures recorded next to BENCHMARK.json's metrics.
EXTRA_BETTER = {"scenario_wall_s.p50": "lower", "minflt_per_scenario": "lower"}
ENV_KEYS = ("cpu_model", "nproc", "python", "numpy", "blas")
# Minor faults per scenario above which a run sits in the high-fault
# allocator state; wide_ibfd's low state reads 50-330, its high one 2100-5100.
HIGH_FAULTS_PER_SCENARIO = 1000


def export_revision(rev: str, dest: str) -> None:
    """Unpack `git archive rev` into dest."""
    os.makedirs(dest)
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def export_worktree(dest: str) -> None:
    """Copy the working tree's tracked and unignored files into dest."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True,
        check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a tracked file deleted in the tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def parse_output(stdout: str) -> tuple[dict, dict, dict]:
    """(last-line result, info, env) of one bench/run.py output."""
    lines = stdout.strip().splitlines()
    info = env = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[5:])
        elif line.startswith("env "):
            env = json.loads(line[4:])
    return json.loads(lines[-1]), info, env


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One bench/run.py run in tree; returns (record, env)."""
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    result, info, env = parse_output(done.stdout)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["scenario_wall_s.p50"] = info["scenario_wall_s.p50"]
    values["minflt_per_scenario"] = faults / info["scenarios"]
    record = {
        "values": values,
        "scenarios": info["scenarios"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    return record, env


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(summary: dict, bound: float | None) -> str:
    """The verdict on one metric's summary: gain, worse or unresolved (see the module docstring).

    bound is the largest relative worsening of the median allowed, or None
    for a metric that has none; such a metric is never "worse".
    """
    won = 10 * summary["change_wins"] >= 9 * summary["pairs"]
    if won and summary["gain"] > summary["parent_iqr"]:
        return "gain"
    if bound is not None and -summary["gain"] > bound * abs(summary["parent"]["median"]):
        return "worse"
    return "unresolved"


def summarize(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and the verdict.

    pairs holds {"parent": record, "change": record} entries whose records
    carry a "values" mapping; better maps a metric to "lower" or "higher",
    and bounds a metric to its relative bound, where it has one. A pair is
    a win when the change is strictly better. gain is the parent median
    minus the change median, signed so that positive is better, and
    parent_iqr is the spread it is read against.
    """
    out = {}
    for name, direction in better.items():
        sides = {
            side: [pair[side]["values"][name] for pair in pairs] for side in ("parent", "change")
        }
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(
            sign * (pair["parent"]["values"][name] - pair["change"]["values"][name]) > 0
            for pair in pairs
        )
        summary = {"better": direction, "pairs": len(pairs), "change_wins": wins}
        for side, xs in sides.items():
            q1, median, q3 = quartiles(xs)
            summary[side] = {"median": median, "q1": q1, "q3": q3}
        summary["gain"] = sign * (summary["parent"]["median"] - summary["change"]["median"])
        summary["parent_iqr"] = summary["parent"]["q3"] - summary["parent"]["q1"]
        summary["verdict"] = verdict(summary, (bounds or {}).get(name))
        out[name] = summary
    return out


def split_pairs(pairs: list[dict]) -> int:
    """Number of pairs where exactly one side is in the high-fault state."""
    return sum(
        (pair["parent"]["values"]["minflt_per_scenario"] > HIGH_FAULTS_PER_SCENARIO)
        != (pair["change"]["values"]["minflt_per_scenario"] > HIGH_FAULTS_PER_SCENARIO)
        for pair in pairs
    )


def pair_line(workload: str, pair: dict) -> str:
    """One printed line per pair: each side's p50 and minor faults per scenario."""
    sides = (pair["first"], "parent" if pair["first"] == "change" else "change")
    runs = "  ".join(
        f"{side} {pair[side]['values']['scenario_s.p50'] * 1e3:.3f} ms "
        f"{pair[side]['values']['minflt_per_scenario']:.0f} faults"
        for side in sides
    )
    return f"{workload} seed {pair['seed']}: {runs}"


def verdict_line(workload: str, name: str, summary: dict) -> str:
    """One printed line per metric: the verdict, the wins and each side's median."""
    return (
        f"{workload} {name}: {summary['verdict']} ({summary['change_wins']} of "
        f"{summary['pairs']} pairs; median {summary['parent']['median']:.6g} -> "
        f"{summary['change']['median']:.6g}, parent IQR {summary['parent_iqr']:.3g})"
    )


def benchmark_metrics() -> tuple[dict[str, str], dict[str, float]]:
    """Directions and relative bounds of BENCHMARK.json's end-to-end metrics, and EXTRA_BETTER's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    better.update(EXTRA_BETTER)
    return better, bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1, help="pair i runs seed first_seed + i")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.parent], capture_output=True, text=True, check=True
    ).stdout.strip()
    better, bounds = benchmark_metrics()
    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {"parent": rev, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("change", "parent")}
        export_worktree(trees["change"])
        export_revision(rev, trees["parent"])
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(trees[side], workload, seed, args.seconds)
                    report.setdefault("machine", {key: env.get(key) for key in ENV_KEYS})
                pairs.append(pair)
                print(pair_line(workload, pair))
            summary = summarize(pairs, better, bounds)
            for name in better:
                print(verdict_line(workload, name, summary[name]))
            report["workloads"][workload] = {
                "pairs": pairs,
                "summary": summary,
                "split_pairs": split_pairs(pairs),
            }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
