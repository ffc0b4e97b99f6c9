"""Closed-loop workloads, output checks and metrics for the flexsic benchmark.

One caller sends back-to-back ``flexsic.scenario.run_scenario`` calls; the
next call starts when the previous one returns. Every scenario seed, and
the warm-up seed outside that set, derives from the workload seed.

Counts (SICR, counted multiplies, calls per scenario) are means over the
workload's first ``n_checked`` scenarios, which a run always completes, so
they repeat exactly for a given seed. Times use every scenario the run
timed, and a run ends on a whole cycle of the workload's presets.

The end-to-end times (set-up and scenario) are scaled to a fixed machine
speed by the probe in speed.py, sampled inside each timed call; the raw
wall-time medians are printed next to them in the ``info`` line. The
traced run is not scaled: its self times are raw wall time.

Why each workload, and which layers it loads most and least (shares from
traced single runs on a 2-CPU machine; rough):

desk_suite
    P = 256, cycling ibfd -> sbfd -> overlap, with the five cancellers of
    scripts/run_duplex_suite.py and the default 20 run symbols. This is the
    traffic the desk configs and the suite script produce: many short
    scenarios (about 55-160 ms each), where fixed per-scenario costs are
    about a quarter of the time and the O(P^2) table build about 3%. The
    fixed costs (channel build, estimate_pa, estimate_channel,
    select_basis) move it most; run_sic moves it little on the sbfd third,
    whose uplink is narrow; baseline_full_ls is absent.
wide_ibfd
    P = 4096, ibfd, all six cancellers, 20 run symbols: the roadmap's
    headline size. Every per-subcarrier Python loop runs over about 3300
    uplink subcarriers and estimation dominates: run_sic about 40%,
    estimate_iq with its ~12.8k ls_solve calls about 30%, make_imd_tables
    10-14%, baseline_full_ls about 8%.
long_run
    P = 1024, overlap, cancellers none, proposed and full_ls, 200 run
    symbols. The per-symbol running path does most of the work (run_sic
    about 55%; basis_chain, run_full_ls, the transmit chain and
    run_scenario's own double canceller pass) and training is amortised:
    estimate_iq is about 12%, make_imd_tables at most 3%. An optimisation
    that touches only the estimators should show no change here. The
    uplink only partly overlaps the downlink, so |K_p| varies across it.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import flexsic
import flexsic.scenario as scenario
import speed
from tracer import COUNTED, HOOKS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Median of this many set-ups: the run's own plus fresh processes.
SETUP_REPEATS = 5
# A tail percentile needs at least ten samples beyond it; below this many
# samples that percentile would fall under the median.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND


@dataclass(frozen=True)
class Workload:
    presets: tuple[str, ...]
    num_subcarriers: int
    cancellers: tuple[str, ...]
    n_run_symbols: int
    n_checked: int

    def specs(self) -> list:
        return [
            scenario.ScenarioSpec(
                num_subcarriers=self.num_subcarriers,
                duplex=preset,
                cancellers=self.cancellers,
                n_run_symbols=self.n_run_symbols,
            )
            for preset in self.presets
        ]


SUITE_CANCELLERS = ("none", "linear", "proposed", "pa_only", "iq_only")

WORKLOADS = {
    "desk_suite": Workload(("ibfd", "sbfd", "overlap"), 256, SUITE_CANCELLERS, 20, 60),
    "wide_ibfd": Workload(("ibfd",), 4096, scenario.CANCELLERS, 20, 12),
    "long_run": Workload(("overlap",), 1024, ("none", "proposed", "full_ls"), 200, 36),
}

COUNTER_STAGES = {
    "proposed": (
        "estimate_iq",
        "estimate_pa",
        "estimate_channel",
        "train_basis",
        "select_basis",
        "coeff_combine",
        "run_basis",
        "run",
    ),
    "full_ls": ("estimate_iq", "full_ls_basis", "full_ls_est", "full_ls_run_basis", "full_ls_run"),
}
RUN_STAGES = {"sic.run_sic": ("run", "run_basis"), "sic.run_full_ls": ("full_ls_run", "full_ls_run_basis")}


def scenario_seeds(seed: int):
    """Endless stream of scenario seeds for a workload seed."""
    rng = np.random.default_rng([seed, 0])
    while True:
        yield int(rng.integers(2**31))


def warmup_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(2**31))


def check_report(report, spec) -> list[str]:
    """Problems with one report; empty when it passes every output check."""
    wanted = set(spec.cancellers)
    problems = [
        f"{table} holds {sorted(getattr(report, table))}, expected {sorted(wanted)}"
        for table in ("psd_dbm", "cdf_dbm", "sicr_db", "counters")
        if set(getattr(report, table)) != wanted
    ]
    if problems:
        return problems
    n_ul = spec.build_grid().ul_size
    n_run = spec.n_run_symbols
    full_width = n_run * (spec.k_max + 1) * n_ul
    for name in spec.cancellers:
        psd = np.asarray(report.psd_dbm[name])
        cdf = np.asarray(report.cdf_dbm[name])
        if psd.shape != (n_ul,) or not np.all(np.isfinite(psd)):
            problems.append(f"{name}: PSD is not {n_ul} finite values")
        if cdf.size == 0 or not np.all(np.isfinite(cdf)):
            problems.append(f"{name}: CDF is empty or not finite")
    if "none" in wanted and report.sicr_db["none"] != 0.0:
        problems.append(f"none: SICR is {report.sicr_db['none']!r}, expected exactly 0")
    if "full_ls" in wanted:
        mults = report.counters["full_ls"].mults("full_ls_run")
        if mults != full_width:
            problems.append(f"full_ls: full_ls_run charged {mults} multiplies, expected {full_width}")
    if "proposed" in wanted:
        mults = report.counters["proposed"].mults("run")
        if mults % n_run or mults > full_width:
            problems.append(
                f"proposed: run charged {mults} multiplies, not a multiple of {n_run} at most {full_width}"
            )
    return problems


def emitted_csvs(report) -> dict[str, bytes]:
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = {}
        for path in scenario.emit_report(report, tmp, "csv"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = fh.read()
        return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than 20 samples that percentile lies below the median, so
    the median is reported and the percentile reads 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_once(name: str, seed: int, import_s: float) -> tuple[float, float]:
    """(scaled, wall) seconds of set-up: the flexsic import plus one warm-up scenario.

    The probe needs numpy, so the import is scaled by the speed the probe
    sees during the warm-up scenario right after it.
    """
    spec = WORKLOADS[name].specs()[0]
    with speed.window() as warm:
        scenario.run_scenario(spec, warmup_seed(seed))
    return warm.scale(import_s + warm.net_s), import_s + warm.wall_s


def fresh_setup(name: str, seed: int) -> tuple[float, float]:
    """setup_once in a new interpreter, so the import is cold again."""
    run_py = os.path.join(BENCH_DIR, "run.py")
    args = [sys.executable, run_py, "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=170, check=True)
    scaled, wall = done.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(wall)


class Loop:
    """Runs scenarios, checks each report and counts attempts and failures.

    With ``scaled`` each call is timed in a speed.window; otherwise by the
    clock alone, as the traced run needs.
    """

    def __init__(self, name: str, seed: int, scaled: bool = False):
        self.scaled = scaled
        self.workload = WORKLOADS[name]
        self.specs = self.workload.specs()
        self.seeds = scenario_seeds(seed)
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.first_csvs = None
        self.probe_means: list[float] = []

    def next_scenario(self, index: int):
        return self.specs[index % len(self.specs)], next(self.seeds)

    def call(self, index: int, spec, seed: int):
        """(report or None, scaled seconds, wall seconds) for one checked run_scenario call.

        Without ``scaled`` the two times are the same wall time.
        """
        self.attempted += 1
        timing = speed.window() if self.scaled else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with timing as stretch:
                report = scenario.run_scenario(spec, seed)
        except Exception:
            self._fail(index, spec, seed, traceback.format_exc())
            return None, 0.0, 0.0
        wall = time.perf_counter() - start
        seconds = wall
        if self.scaled:
            seconds = stretch.scaled_s
            self.probe_means.append(statistics.fmean(stretch.samples))
        problems = check_report(report, spec)
        if problems:
            self._fail(index, spec, seed, "; ".join(problems))
            return None, seconds, wall
        if index == 0 and self.first is None:
            self.first = (spec, seed)
            self.first_csvs = emitted_csvs(report)
        return report, seconds, wall

    def recheck_first(self) -> None:
        """Re-run the first scenario; emit_report must write the same bytes."""
        if self.first is None:
            return
        spec, seed = self.first
        report, _, _ = self.call(-1, spec, seed)
        if report is not None and emitted_csvs(report) != self.first_csvs:
            self._fail(-1, spec, seed, "re-run wrote different CSV bytes")

    def done(self, index: int, deadline: float) -> bool:
        return (
            index >= self.workload.n_checked
            and index % len(self.specs) == 0
            and time.perf_counter() >= deadline
        )

    def _fail(self, index: int, spec, seed: int, why: str) -> None:
        self.failed += 1
        print(f"FAIL scenario {index} ({spec.duplex}, seed {seed}): {why}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, import_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run; returns (metrics, info)."""
    setups = [setup_once(name, seed, import_s)]
    loop = Loop(name, seed, scaled=True)
    times: list[float] = []
    walls: list[float] = []
    sicr: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not loop.done(index, deadline):
        spec, s = loop.next_scenario(index)
        report, scaled, wall = loop.call(index, spec, s)
        if report is not None:
            times.append(scaled)
            walls.append(wall)
            if index < loop.workload.n_checked:
                sicr.append(report.sicr_db["proposed"])
        index += 1
    loop.recheck_first()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [fresh_setup(name, seed) for _ in range(SETUP_REPEATS - 1)]

    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "scenario_s.p50": (statistics.median(times), "s"),
        "scenario_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sicr_db.proposed": (statistics.fmean(sicr), "dB"),
    }
    info = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "scenarios": index,
        "scenario_s.samples": len(times),
        "scenario_wall_s.p50": statistics.median(walls),
        "setup_wall_s.p50": statistics.median(w for _, w in setups),
        "probe_s.p50": statistics.median(loop.probe_means),
        "scenario_s.tail.percentile": tail_pct,
        "sicr_db.proposed.scenarios": len(sicr),
        "setup_repeats": len(setups),
    }
    return metrics, info


def trace(name: str, seed: int, seconds: float, import_s: float) -> tuple[dict, dict]:
    """Per-layer metrics: each scenario runs untraced and traced, in alternating order."""
    setup_once(name, seed, import_s)
    loop = Loop(name, seed)
    n_checked = loop.workload.n_checked
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    counters: dict[str, float] = {}
    run_mults = {hook: 0 for hook in COUNTED}
    deadline = time.perf_counter() + seconds
    index = 0
    while not loop.done(index, deadline):
        spec, s = loop.next_scenario(index)
        for traced_pass in (index % 2 == 1, index % 2 == 0):
            if traced_pass:
                tracer.scenario = index
                with tracer.installed():
                    report, wall, _ = loop.call(index, spec, s)
            else:
                report, wall, _ = loop.call(index, spec, s)
            if report is None:
                continue
            (traced if traced_pass else plain).append(wall)
            if not traced_pass:
                continue
            for hook, stages in RUN_STAGES.items():
                run_mults[hook] += sum(c.mults(st) for c in report.counters.values() for st in stages)
            if index < n_checked:
                for canceller, stages in COUNTER_STAGES.items():
                    counter = report.counters.get(canceller)
                    for stage in stages:
                        key = f"counters.{canceller}.{stage}.mults"
                        counters[key] = counters.get(key, 0) + (counter.mults(stage) if counter else 0)
        index += 1
    loop.recheck_first()

    self_ns = tracer.self_times()
    calls = {hook: 0 for hook in HOOKS}
    own = {hook: 0 for hook in HOOKS}
    singular = 0
    counted_ns = {hook: 0 for hook in COUNTED}
    for span, ns in zip(tracer.spans, self_ns):
        hook, start, end, _, scen, error, was_counted = span
        own[hook] += ns
        if scen < n_checked:
            calls[hook] += 1
            if hook == "sic.ls_solve" and error == "SingularSystemError":
                singular += 1
        if was_counted:
            counted_ns[hook] += end - start

    metrics = {}
    for hook in HOOKS:
        metrics[f"{hook}.calls"] = (calls[hook] / n_checked, "count")
        metrics[f"{hook}.self_ms"] = (own[hook] / 1e6 / index, "ms")
    metrics["sic.ls_solve.singular"] = (singular / n_checked, "count")
    for key, total in counters.items():
        metrics[key] = (total / n_checked, "count")
    for hook in COUNTED:
        mults = run_mults[hook]
        metrics[f"{hook}.ns_per_mult"] = (counted_ns[hook] / mults if mults else 0.0, "ns")
    overhead_s = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_ms"] = (overhead_s * 1e3, "ms")
    metrics["trace.accounted_share"] = (sum(self_ns) / 1e9 / sum(traced), "fraction")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans_{name}_seed{seed}.csv")
    tracer.write(spans_path)
    info = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "scenarios": index,
        "traced_samples": len(traced),
        "untraced_samples": len(plain),
        "untraced_p50_s": statistics.median(plain),
        "traced_p50_s": statistics.median(traced),
        "counted_scenarios": n_checked,
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "spans_file": os.path.relpath(spans_path, os.path.dirname(BENCH_DIR)),
    }
    return metrics, info


def environment(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "flexsic": flexsic.__version__,
    }
