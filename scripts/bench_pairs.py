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
line, the raw wall-time median and the probe median (probe_s.p50, the
seconds of the speed probe the scaled times are divided by) of the `info`
line, and, per scenario, the minor page faults and the CPU time: the
growth of RUSAGE_CHILDREN's ru_minflt, and of its ru_utime + ru_stime,
over the run (its set-up processes included) divided by the scenarios it
ran.

Every pair has two legs. The default leg runs in this process's
environment. The pinned leg runs with glibc's heap pinned (PINNED_ENV: no
trimming, no mmap below 256 MiB), set in the child's environment alone,
so its allocations fault in no fresh pages and its times read the code
without the allocator's page-fault state; the default leg's children get
none of those variables, even when this process has them.

It writes one JSON file with the machine (libc included), the settings,
every pair and, per leg and metric, each side's median and quartiles, the
number of pairs the working tree won and a verdict, which it also prints
per metric and workload: "gain" when the working tree won at least nine
tenths of the pairs and its median gain exceeds the parent's interquartile
range; "worse" when its median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, a fraction of the parent's median;
"unresolved" otherwise. Beside the verdict, each summary and its printed
line carry the paired reading: the median and the interquartile range of
the per-pair gains. Both sides of a pair ran back to back, so a drift of
the machine over the run widens the parent's IQR but not the spread of the
pairs' gains; the verdict itself does not read them. A time metric then
gets one verdict from its legs (leg_verdict): "gain" only when the default
(scaled), the raw wall-time (for scenario_s.p50) and the pinned legs all
read gain, and "state-dependent", printed with each leg's fault levels,
when the default and pinned legs disagree. Next to those verdicts it
prints each leg's probe median per side (probe_line): a verdict whose
scaled and raw readings split then shows whether the probe itself moved
beside the change, which scales the change's times as much as its code
does. Each workload also records split_pairs, the number of default pairs
whose two sides sat in different allocator states: exactly one side above
HIGH_FAULTS_PER_SCENARIO minor faults per scenario. The p50 gap of such a
pair measures the state as much as the code. --pairs counts the pairs of
each leg, and the JSON records it as pairs_per_leg: 5 per leg take as long
as 10 pairs of one leg did.

Example, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD --workload desk_suite \\
        --pairs 10 --seconds 30 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Directions of the figures recorded next to BENCHMARK.json's metrics.
EXTRA_BETTER = {
    "scenario_wall_s.p50": "lower",
    "cpu_s_per_scenario": "lower",
    "minflt_per_scenario": "lower",
    "probe_s.p50": "lower",
}
# The time metrics that leg_verdict judges over both legs: BENCHMARK.json's
# metrics in seconds and EXTRA_BETTER's; a raw wall-time twin is one more leg.
EXTRA_TIMES = ("scenario_wall_s.p50", "cpu_s_per_scenario")
RAW_OF = {"scenario_s.p50": "scenario_wall_s.p50"}
# glibc's heap pinned in the pinned leg's children: never trim, and no mmap
# below 256 MiB, so no scenario faults in fresh pages.
PINNED_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
    "MALLOC_TOP_PAD_": str(64 << 20),
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
}
LEGS = ("default", "pinned")
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


def child_env(leg: str) -> dict[str, str]:
    """The environment of a leg's bench run: this one's, with PINNED_ENV in the pinned leg only."""
    env = {key: value for key, value in os.environ.items() if key not in PINNED_ENV}
    if leg == "pinned":
        env.update(PINNED_ENV)
    return env


def run_once(
    tree: str, workload: str, seed: int, seconds: float, leg: str = "default"
) -> tuple[dict, dict]:
    """One bench/run.py run in tree, in leg's environment; returns (record, env)."""
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        args, cwd=tree, env=child_env(leg), capture_output=True, text=True, check=True
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result, info, env = parse_output(done.stdout)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["scenario_wall_s.p50"] = info["scenario_wall_s.p50"]
    values["probe_s.p50"] = info["probe_s.p50"]
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    values["cpu_s_per_scenario"] = cpu / info["scenarios"]
    values["minflt_per_scenario"] = (after.ru_minflt - before.ru_minflt) / info["scenarios"]
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
    parent_iqr is the spread it is read against. paired_gain and
    paired_iqr are the median and the interquartile range of the per-pair
    gains, parent minus change signed the same way.
    """
    out = {}
    for name, direction in better.items():
        sides = {
            side: [pair[side]["values"][name] for pair in pairs] for side in ("parent", "change")
        }
        sign = 1.0 if direction == "lower" else -1.0
        # each pair's gain, parent minus change signed so that positive is better
        diffs = [sign * (p - c) for p, c in zip(sides["parent"], sides["change"])]
        wins = sum(diff > 0 for diff in diffs)
        summary = {"better": direction, "pairs": len(pairs), "change_wins": wins}
        for side, xs in sides.items():
            q1, median, q3 = quartiles(xs)
            summary[side] = {"median": median, "q1": q1, "q3": q3}
        summary["gain"] = sign * (summary["parent"]["median"] - summary["change"]["median"])
        summary["parent_iqr"] = summary["parent"]["q3"] - summary["parent"]["q1"]
        q1, paired, q3 = quartiles(diffs)
        summary["paired_gain"], summary["paired_iqr"] = paired, q3 - q1
        summary["verdict"] = verdict(summary, (bounds or {}).get(name))
        out[name] = summary
    return out


def leg_verdict(default: str, pinned: str, raw: str | None = None) -> str:
    """One time metric's verdict from the verdicts of its legs (see the module docstring).

    default is the scaled metric's verdict in the default leg, pinned the
    same metric's in the pinned leg and raw its raw wall-time twin's in the
    default leg, None for a metric without one. Legs that agree keep their
    verdict, except that "gain" needs the raw leg's gain too.
    """
    if default != pinned:
        return "state-dependent"
    if default == "gain" and raw not in (None, "gain"):
        return "unresolved"
    return default


def leg_verdicts(summaries: dict[str, dict], times: list[str]) -> dict[str, str]:
    """leg_verdict of each time metric, from the per-leg summaries of summarize."""
    default, pinned = summaries["default"], summaries["pinned"]
    return {
        name: leg_verdict(
            default[name]["verdict"],
            pinned[name]["verdict"],
            default[RAW_OF[name]]["verdict"] if name in RAW_OF else None,
        )
        for name in times
    }


def split_pairs(pairs: list[dict]) -> int:
    """Number of pairs where exactly one side is in the high-fault state."""
    return sum(
        (pair["parent"]["values"]["minflt_per_scenario"] > HIGH_FAULTS_PER_SCENARIO)
        != (pair["change"]["values"]["minflt_per_scenario"] > HIGH_FAULTS_PER_SCENARIO)
        for pair in pairs
    )


def pair_line(workload: str, pair: dict, leg: str = "default") -> str:
    """One printed line per pair and leg: each side's p50 and minor faults per scenario.

    A pinned leg's line names its leg after the seed; the default leg's names none.
    """
    runs, label = (pair, "") if leg == "default" else (pair[leg], f" {leg}")
    sides = (pair["first"], "parent" if pair["first"] == "change" else "change")
    text = "  ".join(
        f"{side} {runs[side]['values']['scenario_s.p50'] * 1e3:.3f} ms "
        f"{runs[side]['values']['minflt_per_scenario']:.0f} faults"
        for side in sides
    )
    return f"{workload} seed {pair['seed']}{label}: {text}"


def verdict_line(workload: str, name: str, summary: dict) -> str:
    """One printed line per metric: the verdict, the wins, each side's median and the paired gain."""
    return (
        f"{workload} {name}: {summary['verdict']} ({summary['change_wins']} of "
        f"{summary['pairs']} pairs; median {summary['parent']['median']:.6g} -> "
        f"{summary['change']['median']:.6g}, parent IQR {summary['parent_iqr']:.3g}; "
        f"paired gain {summary['paired_gain']:.3g}, IQR {summary['paired_iqr']:.3g})"
    )


def leg_line(workload: str, name: str, judged: str, summaries: dict[str, dict]) -> str:
    """One printed line per time metric: its verdict over the legs, and when the
    legs disagree, each leg's verdict and fault levels (parent -> change medians)."""
    line = f"{workload} {name} over the legs: {judged}"
    if judged == "state-dependent":
        levels = ", ".join(
            f"{leg} {summaries[leg][name]['verdict']} at "
            f"{summaries[leg]['minflt_per_scenario']['parent']['median']:.0f} -> "
            f"{summaries[leg]['minflt_per_scenario']['change']['median']:.0f} faults"
            for leg in LEGS
        )
        line += f" ({levels} per scenario)"
    return line


def probe_line(workload: str, summaries: dict[str, dict]) -> str:
    """One printed line per workload: each leg's probe median, parent -> change, in µs."""
    legs = ", ".join(
        f"{leg} {summaries[leg]['probe_s.p50']['parent']['median'] * 1e6:.1f} -> "
        f"{summaries[leg]['probe_s.p50']['change']['median'] * 1e6:.1f} us"
        for leg in LEGS
    )
    return f"{workload} probe_s.p50: {legs}"


def benchmark_metrics() -> tuple[dict[str, str], dict[str, float], list[str]]:
    """Directions and relative bounds of BENCHMARK.json's end-to-end metrics, and EXTRA_BETTER's,
    and the time metrics among them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    times = [metric["name"] for metric in declared["end_to_end"] if metric["unit"] == "s"]
    better.update(EXTRA_BETTER)
    return better, bounds, times + list(EXTRA_TIMES)


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
    better, bounds, times = benchmark_metrics()
    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {
        "parent": rev,
        "seconds": args.seconds,
        "seeds": seeds,
        "pairs_per_leg": args.pairs,
        "pinned_env": PINNED_ENV,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("change", "parent")}
        export_worktree(trees["change"])
        export_revision(rev, trees["parent"])
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                # the default leg's records sit on the pair itself, the pinned leg's under "pinned"
                pair = {"seed": seed, "first": order[0], "pinned": {}}
                for leg in LEGS:
                    runs = pair if leg == "default" else pair[leg]
                    for side in order:
                        runs[side], env = run_once(trees[side], workload, seed, args.seconds, leg)
                        machine = {key: env.get(key) for key in ENV_KEYS}
                        machine["libc"] = " ".join(platform.libc_ver())
                        report.setdefault("machine", machine)
                    print(pair_line(workload, pair, leg))
                pairs.append(pair)
            summaries = {
                "default": summarize(pairs, better, bounds),
                "pinned": summarize([pair["pinned"] for pair in pairs], better, bounds),
            }
            verdicts = leg_verdicts(summaries, times)
            for leg in LEGS:
                for name in better:
                    print(verdict_line(f"{workload} {leg}", name, summaries[leg][name]))
            for name, judged in verdicts.items():
                print(leg_line(workload, name, judged, summaries))
            print(probe_line(workload, summaries))
            report["workloads"][workload] = {
                "pairs": pairs,
                "summary": summaries["default"],
                "pinned_summary": summaries["pinned"],
                "verdicts": verdicts,
                "split_pairs": split_pairs(pairs),
            }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
