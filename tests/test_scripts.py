"""Smoke runs of the command-line scripts under scripts/ and of the README examples."""

import importlib.util
import pathlib
import re

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


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart: library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # SICR and noise floor, total multiplies, then the |K_p| row
    assert len(out) >= 3
