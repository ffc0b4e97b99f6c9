import json
import pathlib

import pytest

from flexsic.cli import main
from flexsic.imd import mu_tables, q_size
from flexsic.scenario import ScenarioSpec, load_spec, spec_from_dict

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "num_subcarriers": 64,
        "cp_length": 20,
        "duplex": "ibfd",
        "n_run_symbols": 3,
        "cancellers": ["none", "linear", "proposed"],
        "seed": 11,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_command_writes_reports(tmp_path, config_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "proposed: SICR" in captured
    assert "wrote" in captured
    for name in ("psd.csv", "cdf.csv", "complexity.csv", "config.json"):
        assert (out_dir / name).exists()


def test_run_command_seed_override(tmp_path, config_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a), "--seed", "42"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b), "--seed", "42"]) == 0
    capsys.readouterr()
    assert (out_a / "psd.csv").read_bytes() == (out_b / "psd.csv").read_bytes()
    assert json.loads((out_a / "config.json").read_text())["seed"] == 42


def test_run_command_json_format(tmp_path, config_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        ["run", "--config", str(config_path), "--out", str(out_dir), "--format", "json"]
    )
    assert rc == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "report.json").read_text())
    assert "sicr_db" in payload and "proposed" in payload["sicr_db"]


def test_tables_command(tmp_path, config_path, capsys):
    out_csv = tmp_path / "tables.csv"
    rc = main(["tables", "--config", str(config_path), "--out", str(out_csv)])
    assert rc == 0
    capsys.readouterr()
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "k,p,q_size,mu"
    assert len(lines) == 1 + 3 * 64  # k_max + 1 rows per subcarrier
    # every row is the exact count and the prediction, mu round-tripping exactly
    spec = load_spec(config_path)
    grid = spec.build_grid()
    counts = q_size(grid, spec.k_max)
    mu = mu_tables(grid, spec.build_imbalance(), spec.drive_amplitude(grid), spec.k_max)
    for i, line in enumerate(lines[1:]):
        k, p, count, power = line.split(",")
        assert (int(k), int(p)) == divmod(i, 64)
        assert int(count) == counts[int(k), int(p)]
        assert float(power) == mu[int(k), int(p)]
    assert counts[0, grid.dl_start] == 1
    assert mu[0, grid.dl_start] == pytest.approx(
        (1 + abs(spec.build_imbalance()) ** 2) * spec.drive_amplitude(grid) ** 2
    )


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_configs_run_and_dump_tables(tmp_path, capsys, path):
    # the configs README's quickstart runs
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    cancellers = load_spec(path).cancellers
    assert [line.split(":")[0] for line in lines if "SICR" in line] == list(cancellers)
    assert main(["tables", "--config", str(path), "--out", str(tmp_path / "tables.csv")]) == 0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_subcarrier": 64}))
    rc = main(["tables", "--config", str(path), "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "unknown config keys" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# one malformed value per row, each refused by a message that starts with its key
MALFORMED = [
    ("channel", [1, 2]),
    ("pa_coeffs", [1, 2]),
    ("tx_array", [4, 4]),
    ("num_subcarriers", "256"),
    ("noise_dbm", "x"),
    ("n_run_symbols", 2.5),
    ("cancellers", "proposed"),
    ("impulse_amp_range", [0.6]),
    ("n_train_symbols", 2),
    ("seed", -1),
    ("k_max", 0),
    ("n_impulse_symbols", 2),
    ("pa_drive_rms", 0.0),
    ("impulse_amp_range", [2.0, 0.6]),
    ("n_train_symbols", 5),
    ("pa_coeffs", {"2": [1, 0]}),
    ("pa_coeffs", {"0": 1.0, "1": 1.0}),
    ("pa_coeffs", {"3": 1.0}),
    ("qam_order", 8),
    ("tx_array", [0, 4, 0.5]),
    ("rx_array", [4, 4, 0.0]),
    ("cp_length", 16),
    # json.load reads NaN and Infinity
    ("pa_drive_rms", float("nan")),
    ("subcarrier_spacing", float("inf")),
    ("iq_phase", float("nan")),
]


@pytest.mark.parametrize("key, value", MALFORMED)
def test_malformed_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_subcarriers": 64, "cp_length": 20, key: value}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {key} must")


@pytest.mark.parametrize("key, value", MALFORMED)
def test_malformed_value_is_refused_alike_from_a_config_and_from_python(key, value):
    # a spec built in Python meets the config file's rules, message for message
    data = {"num_subcarriers": 64, "cp_length": 20, key: value}
    with pytest.raises(ValueError) as from_config:
        spec_from_dict(json.loads(json.dumps(data)))
    with pytest.raises(ValueError) as from_python:
        ScenarioSpec(**data)
    assert str(from_python.value) == str(from_config.value)
    assert str(from_config.value).startswith(f"{key} must")


@pytest.mark.parametrize(
    "key, spans",
    [("dl_span", ([10, 5], [0, 3])), ("ul_span", ([10, 20], [30, 64]))],
)
def test_custom_span_outside_the_grid_exits_2_naming_the_span(tmp_path, capsys, key, spans):
    path = tmp_path / "bad.json"
    dl_span, ul_span = spans
    config = {"num_subcarriers": 64, "cp_length": 20, "duplex": "custom"}
    path.write_text(json.dumps(dict(config, dl_span=dl_span, ul_span=ul_span)))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must")


def test_negative_seed_override_exits_2_naming_the_option(tmp_path, config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --seed must be nonnegative")
    assert not (tmp_path / "out").exists()


def test_tables_rejects_a_config_that_run_rejects(tmp_path, capsys):
    # both subcommands share one validity rule; run's cases are in the malformed-value test
    path = tmp_path / "bad.json"
    # a 16-sample prefix cannot hold the default channel's last ray, on tap 16
    for key, value in [("k_max", 0), ("cp_length", 16)]:
        path.write_text(json.dumps({"num_subcarriers": 64, "cp_length": 20, key: value}))
        rc = main(["tables", "--config", str(path), "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must")
