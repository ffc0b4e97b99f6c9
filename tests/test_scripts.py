"""Smoke runs of the command-line scripts under scripts/ and of the README examples."""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_complexity_scaling_prints_both_sweeps(capsys):
    script = load_script("complexity_scaling")
    assert script.main(["--widths", "16", "--sizes", "256"]) == 0
    out = capsys.readouterr().out.splitlines()
    width_rows = [line.split() for line in out if line.strip().startswith("16 ")]
    assert len(width_rows) == 1
    size_rows = [line.split() for line in out if line.strip().startswith("256 ")]
    assert len(size_rows) == 1
    # the running cost per symbol stays within |UL| (k_max + 1) multiplies
    run_sym, full_sym, bound = (float(v.replace(",", "")) for v in size_rows[0][3:6])
    assert 0 < run_sym <= bound
    assert full_sym == bound


def test_run_duplex_suite_writes_one_csv_per_mode(tmp_path, capsys):
    script = load_script("run_duplex_suite")
    assert script.main(["--seeds", "1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("SICR dB") == 3
    for mode in ("ibfd", "sbfd", "overlap"):
        lines = (tmp_path / f"psd_{mode}.csv").read_text().splitlines()
        assert lines[0] == "p,none,linear,proposed,pa_only,iq_only"
        assert len(lines) > 1
        assert all(len(line.split(",")) == 6 for line in lines)


def test_attribution_ladder_reaches_the_true_parameter_ceiling(capsys):
    script = load_script("attribution")
    argv = ["--noise-dbm", "-250", "--drives", "0.5", "--seeds", "1"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-4:] == ["as-is", "b", "b,a", "b,a,h"]
    rows = {(cols[0], cols[4]): [float(v) for v in cols[5:]] for cols in map(str.split, out[1:])}
    presets = ("ibfd", "sbfd", "overlap")
    assert set(rows) == {(p, c) for p in presets for c in ("proposed", "full_ls")}
    for preset in presets:
        # with the true b and h_los a, proposed cancels far below any noise floor;
        # the last rung sits at the double-precision floor and is not asserted
        assert rows[preset, "proposed"][2] >= 170.0
        # full_ls reads neither a_hat nor h_hat
        assert rows[preset, "full_ls"][1] == rows[preset, "full_ls"][2]
    # sbfd full_ls fits no ridge, so with the true b it reaches proposed's ceiling
    assert rows["sbfd", "full_ls"][1] >= rows["sbfd", "proposed"][2] - 1.0


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart: library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # SICR and noise floor, total multiplies, then the |K_p| row
    assert len(out) >= 3


def test_compare_outputs_finds_equal_dumps_and_reports_a_perturbed_value(tmp_path):
    script = load_script("compare_outputs")
    grid = [(64, "ibfd", 1), (64, "overlap", 2)]
    first = script.dump(str(ROOT), str(tmp_path / "first.pkl"), grid)
    second = script.dump(str(ROOT), str(tmp_path / "second.pkl"), grid)
    lines, differ = script.compare(first, second)
    assert differ == 0 and lines[-2:] == [
        "counter rows differ in 0 of 2 scenarios", "configs differ in 0 of 2 scenarios"
    ]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-2]}
    assert set(rows) == {"none", "linear", "proposed", "full_ls", "iq_only", "pa_only"}
    assert all(row == ["0", "0", "0", "2", "of", "2"] for row in rows.values())

    # one residual PSD value of proposed moves by 0.25 dB, one counter row of full_ls by 1
    second[1]["outputs"]["proposed"][1][3] += 0.25
    stage, kind, value = second[0]["outputs"]["full_ls"][3][0]
    second[0]["outputs"]["full_ls"][3][0] = (stage, kind, value + 1)
    lines, differ = script.compare(first, second)
    # the differing canceller.stage is named under the count, with its scenarios
    assert differ == 1 and lines[-3:] == [
        "counter rows differ in 1 of 2 scenarios",
        f"  full_ls.{stage} in 1 of 2",
        "configs differ in 0 of 2 scenarios",
    ]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-3]}
    assert rows["proposed"] == ["0", "0.25", "0", "1", "of", "2"]
    assert rows["full_ls"] == ["0", "0", "0", "2", "of", "2"]

    # a config that a schema change moves is counted though every output is equal
    second = [dict(scenario) for scenario in first]
    second[1]["config"] = second[1]["config"].replace('"seed": 2', '"seed": true')
    lines, differ = script.compare(first, second)
    assert differ == 1 and lines[-2:] == [
        "counter rows differ in 0 of 2 scenarios", "configs differ in 1 of 2 scenarios"
    ]


def test_bench_pairs_summary_of_canned_runs():
    script = load_script("bench_pairs")

    def run(p50, sicr):
        return {"values": {"scenario_s.p50": p50, "sicr_db.proposed": sicr}}

    parent = [5.9, 6.0, 6.1, 5.8, 6.3]
    change = [5.5, 5.4, 6.2, 5.5, 5.6]  # slower on the third pair only
    pairs = [
        {"seed": i, "parent": run(p, 40.0), "change": run(c, 40.0 + (i == 4))}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = script.summarize(pairs, {"scenario_s.p50": "lower", "sicr_db.proposed": "higher"})
    p50 = summary["scenario_s.p50"]
    assert p50["pairs"] == 5 and p50["change_wins"] == 4
    assert p50["parent"] == {"median": 6.0, "q1": 5.9, "q3": 6.1}
    assert p50["change"] == {"median": 5.5, "q1": 5.5, "q3": 5.6}
    assert abs(p50["gain"] - 0.5) < 1e-12 and abs(p50["parent_iqr"] - 0.2) < 1e-12
    # equal values are no win; higher is better for SICR
    sicr = summary["sicr_db.proposed"]
    assert sicr["change_wins"] == 1 and sicr["gain"] == 0.0
    # 4 of 5 pairs is short of nine tenths, whatever the gain: no verdict
    assert p50["verdict"] == sicr["verdict"] == "unresolved"


def test_bench_pairs_verdicts():
    script = load_script("bench_pairs")
    parent = [30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0, 37.0, 38.0, 39.0]

    def verdict(change, better="lower", bound=0.25):
        pairs = [
            {"parent": {"values": {"m": p}}, "change": {"values": {"m": c}}}
            for p, c in zip(parent, change)
        ]
        return script.summarize(pairs, {"m": better}, {"m": bound})["m"]["verdict"]

    # 9 of 10 pairs won with a median gain of 2.5, under the parent IQR of
    # 4.5, is no gain; with a median gain of 5 it is
    assert verdict([p - 2.5 for p in parent[:9]] + [40.0]) == "unresolved"
    assert verdict([p - 5.0 for p in parent[:9]] + [40.0]) == "gain"
    # worse counts against the bound, a fraction of the parent median (34.5)
    assert verdict([p + 8.0 for p in parent]) == "unresolved"
    assert verdict([p + 9.0 for p in parent]) == "worse"
    assert verdict([p - 9.0 for p in parent], better="higher") == "worse"
    # a metric with no bound is never worse
    pairs = [{"parent": {"values": {"m": p}}, "change": {"values": {"m": 2 * p}}} for p in parent]
    assert script.summarize(pairs, {"m": "lower"})["m"]["verdict"] == "unresolved"
    summary = script.summarize(pairs[:2], {"m": "lower"})["m"]
    assert script.verdict_line("long_run", "m", summary) == (
        "long_run m: unresolved (0 of 2 pairs; median 30.5 -> 61, parent IQR 0.5; "
        "paired gain -30.5, IQR 0.5)"
    )


def test_bench_pairs_reads_the_gain_pair_by_pair_under_drift():
    # the machine slows over the run: the parent's p50 climbs 30 -> 48, and
    # each change run, taken beside its parent, is 0.5 faster give or take
    # 0.02. The parent IQR carries the drift, so the verdict, which weighs
    # the median gain against it, stays unresolved although all ten pairs
    # are won; the per-pair gains show the 0.5 with a spread of a few 0.01
    script = load_script("bench_pairs")
    parent = [30.0 + 2.0 * i for i in range(10)]
    jitter = [0.02, -0.01, 0.0, 0.01, -0.02, 0.02, -0.01, 0.0, 0.01, -0.02]
    pairs = [
        {"parent": {"values": {"m": p}}, "change": {"values": {"m": p - 0.5 + j}}}
        for p, j in zip(parent, jitter)
    ]
    summary = script.summarize(pairs, {"m": "lower"}, {"m": 0.25})["m"]
    assert summary["change_wins"] == 10
    assert summary["parent_iqr"] == pytest.approx(9.0)
    assert summary["verdict"] == "unresolved"
    assert summary["paired_gain"] == pytest.approx(0.5)
    assert summary["paired_iqr"] == pytest.approx(0.02)
    assert script.verdict_line("long_run", "m", summary).endswith(
        "parent IQR 9; paired gain 0.5, IQR 0.02)"
    )
    # higher-is-better metrics sign the per-pair gains the same way
    flipped = script.summarize(pairs, {"m": "higher"})["m"]
    assert flipped["paired_gain"] == pytest.approx(-0.5)
    assert flipped["paired_iqr"] == pytest.approx(0.02)


def test_bench_pairs_reads_the_run_output():
    script = load_script("bench_pairs")
    stdout = "\n".join(
        [
            "desk_suite  seed 1  trace 0",
            'info {"scenario_wall_s.p50": 0.006, "scenarios": 60}',
            'env {"nproc": 2, "numpy": "2.0"}',
            '{"correct": true, "attempted": 61, "failed": 0, "metrics": {}}',
        ]
    )
    result, info, env = script.parse_output(stdout)
    assert result["attempted"] == 61 and info["scenarios"] == 60 and env["nproc"] == 2


def test_bench_pairs_counts_pairs_split_across_fault_states():
    script = load_script("bench_pairs")
    high = script.HIGH_FAULTS_PER_SCENARIO

    def run(p50, faults):
        return {"values": {"scenario_s.p50": p50, "minflt_per_scenario": faults}}

    faults = [(238, 3700), (250, 260), (4000, 3500), (high, high + 1), (high + 1, 50)]
    pairs = [
        {"seed": i, "first": "change", "parent": run(0.0432, p), "change": run(0.0489, c)}
        for i, (p, c) in enumerate(faults)
    ]
    # both low and both high are not split; the named limit itself counts as low
    assert script.split_pairs(pairs) == 3
    pairs[1]["first"] = "parent"
    assert script.pair_line("wide_ibfd", pairs[1]) == (
        "wide_ibfd seed 1: parent 43.200 ms 250 faults  change 48.900 ms 260 faults"
    )
    pairs[1]["pinned"] = {"parent": run(0.0400, 0), "change": run(0.0401, 1)}
    assert script.pair_line("wide_ibfd", pairs[1], "pinned") == (
        "wide_ibfd seed 1 pinned: parent 40.000 ms 0 faults  change 40.100 ms 1 faults"
    )


def test_bench_pairs_leg_verdicts():
    script = load_script("bench_pairs")
    # gain needs every leg; legs that disagree name the state, not the code
    assert script.leg_verdict("gain", "gain", "gain") == "gain"
    assert script.leg_verdict("gain", "gain") == "gain"
    assert script.leg_verdict("gain", "gain", "unresolved") == "unresolved"
    assert script.leg_verdict("gain", "unresolved", "gain") == "state-dependent"
    assert script.leg_verdict("unresolved", "gain") == "state-dependent"
    assert script.leg_verdict("worse", "worse", "unresolved") == "worse"
    assert script.leg_verdict("unresolved", "unresolved", "gain") == "unresolved"

    parent = [30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0, 37.0, 38.0, 39.0]

    def run(p50, wall, faults):
        values = {"scenario_s.p50": p50, "scenario_wall_s.p50": wall}
        return {"values": {**values, "minflt_per_scenario": faults}}

    # the change is faster scaled and raw in the default leg, but not pinned
    pairs = [
        {
            "parent": run(p, p, 2500.0),
            "change": run(p - 5.0, p - 5.0, 1200.0),
            "pinned": {"parent": run(p, p, 0.0), "change": run(p, p, 0.0)},
        }
        for p in parent
    ]
    better = {name: "lower" for name in ("scenario_s.p50", "scenario_wall_s.p50",
                                         "minflt_per_scenario")}
    summaries = {
        "default": script.summarize(pairs, better),
        "pinned": script.summarize([pair["pinned"] for pair in pairs], better),
    }
    verdicts = script.leg_verdicts(summaries, ["scenario_s.p50", "scenario_wall_s.p50"])
    assert verdicts == {"scenario_s.p50": "state-dependent",
                        "scenario_wall_s.p50": "state-dependent"}
    assert script.leg_line("wide_ibfd", "scenario_s.p50", "state-dependent", summaries) == (
        "wide_ibfd scenario_s.p50 over the legs: state-dependent (default gain at "
        "2500 -> 1200 faults, pinned unresolved at 0 -> 0 faults per scenario)"
    )
    for pair in pairs:
        pair["pinned"]["change"] = run(pair["parent"]["values"]["scenario_s.p50"] - 5.0, 0.0, 0.0)
    summaries["pinned"] = script.summarize([pair["pinned"] for pair in pairs], better)
    assert script.leg_verdicts(summaries, ["scenario_s.p50"]) == {"scenario_s.p50": "gain"}
    assert script.leg_line("desk_suite", "scenario_s.p50", "gain", summaries) == (
        "desk_suite scenario_s.p50 over the legs: gain"
    )


def test_bench_pairs_pins_the_child_heap_only_and_reads_cpu_time(monkeypatch):
    script = load_script("bench_pairs")
    # a variable of the pinned set in this process reaches no default child
    monkeypatch.setenv("MALLOC_TOP_PAD_", "1")
    parent_env = dict(script.os.environ)
    seen = []
    stdout = "\n".join(
        [
            'info {"probe_s.p50": 4e-05, "scenario_wall_s.p50": 0.004, "scenarios": 50}',
            'env {"nproc": 2}',
            '{"attempted": 51, "failed": 0, "metrics": {"scenario_s.p50": {"value": 0.005}}}',
        ]
    )

    def fake_run(args, cwd, env, **kwargs):
        seen.append(env)
        return script.subprocess.CompletedProcess(args, 0, stdout=stdout)

    usages = iter(
        [
            script.resource.struct_rusage((10.0, 2.0) + (0,) * 4 + (1000,) + (0,) * 9),
            script.resource.struct_rusage((10.5, 2.25) + (0,) * 4 + (1500,) + (0,) * 9),
        ]
        * 2
    )
    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(script.resource, "getrusage", lambda who: next(usages))
    default, _ = script.run_once("tree", "desk_suite", 1, 1.0)
    pinned, _ = script.run_once("tree", "desk_suite", 1, 1.0, "pinned")
    assert not set(script.PINNED_ENV) & set(seen[0])
    assert {key: seen[1][key] for key in script.PINNED_ENV} == script.PINNED_ENV
    assert dict(script.os.environ) == parent_env
    for record in (default, pinned):
        # 0.75 s of user and system time and 500 faults over 50 scenarios
        assert record["values"]["cpu_s_per_scenario"] == 0.015
        assert record["values"]["minflt_per_scenario"] == 10.0
        assert record["values"]["scenario_wall_s.p50"] == 0.004
        assert record["values"]["probe_s.p50"] == 4e-05


def test_bench_pairs_records_the_probe_and_prints_it_per_leg(monkeypatch):
    script = load_script("bench_pairs")
    # the probe ran about 9% faster beside the change in the default leg and
    # alike in the pinned one: the default leg's scaled times moved with it
    probes = {
        ("parent", "default"): [4.09e-05, 4.12e-05, 4.05e-05],
        ("change", "default"): [3.72e-05, 3.70e-05, 3.75e-05],
        ("parent", "pinned"): [4.0e-05, 4.01e-05, 3.99e-05],
        ("change", "pinned"): [4.0e-05, 3.98e-05, 4.02e-05],
    }

    def fake_run(args, cwd, env, **kwargs):
        leg = "pinned" if "MALLOC_TOP_PAD_" in env else "default"
        probe = probes[cwd, leg].pop(0)
        stdout = "\n".join(
            [
                "long_run  seed 1  trace 0",
                f'info {{"probe_s.p50": {probe}, "scenario_wall_s.p50": 0.02, "scenarios": 40}}',
                'env {"nproc": 2}',
                '{"attempted": 41, "failed": 0, "metrics": {"scenario_s.p50": {"value": 0.025}}}',
            ]
        )
        return script.subprocess.CompletedProcess(args, 0, stdout=stdout)

    usage = script.resource.struct_rusage((1.0,) * 16)
    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(script.resource, "getrusage", lambda who: usage)
    pairs = []
    for seed in (1, 2, 3):
        pair = {"seed": seed, "pinned": {}}
        for leg in script.LEGS:
            runs = pair if leg == "default" else pair["pinned"]
            for side in ("parent", "change"):
                runs[side] = script.run_once(side, "long_run", seed, 1.0, leg)[0]
        pairs.append(pair)
    assert pairs[0]["change"]["values"]["probe_s.p50"] == 3.72e-05
    assert pairs[2]["pinned"]["parent"]["values"]["probe_s.p50"] == 3.99e-05
    better, _, _ = script.benchmark_metrics()
    assert better["probe_s.p50"] == "lower"
    probe = {"probe_s.p50": "lower"}
    summaries = {
        "default": script.summarize(pairs, probe),
        "pinned": script.summarize([pair["pinned"] for pair in pairs], probe),
    }
    assert script.probe_line("long_run", summaries) == (
        "long_run probe_s.p50: default 40.9 -> 37.2 us, pinned 40.0 -> 40.0 us"
    )
