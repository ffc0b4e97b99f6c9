import fractions
import gc
import json
import pathlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from flexsic.channel import ChannelProfile, Ray, save_taps
from flexsic.imd import impulse_pilot, mu_tables
from flexsic.impairments import apply_pa, default_measured_pa
from flexsic.ofdm import gen_qam_symbols, idft
import flexsic.scenario as scenario
import flexsic.sic as sic
from flexsic.scenario import (
    _build_effective_channel,
    _build_training,
    CANCELLERS,
    DUPLEX_PRESETS,
    MetricsReport,
    ScenarioSpec,
    duplex_allocation,
    emit_report,
    load_spec,
    residual_cdf,
    run_scenario,
    sicr,
    spec_from_dict,
    spec_to_dict,
)
from oracles import rx_body_loop


def small_spec(**overrides):
    kwargs = dict(
        num_subcarriers=64,
        cp_length=20,
        n_run_symbols=4,
        cancellers=("none", "linear", "proposed"),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# ---------------------------------------------------------------- allocations


def test_duplex_allocation_desk_scale():
    assert duplex_allocation("ibfd", 256) == ((28, 228), (28, 228))
    assert duplex_allocation("sbfd", 256) == ((28, 194), (230, 253))
    assert duplex_allocation("overlap", 256) == ((28, 194), (150, 226))
    with pytest.raises(ValueError, match="unknown duplex preset"):
        duplex_allocation("tdd", 256)


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_duplex_allocation_fits_every_small_grid_or_names_its_size(preset):
    # sbfd's uplink ends at round(0.988 P), past the grid up to P = 41, and
    # ibfd's shared span ends at P - round(0.109 P), past it up to P = 4
    refused = []
    for p in range(1, 65):
        try:
            spans = duplex_allocation(preset, p)
        except ValueError as err:
            assert f"num_subcarriers={p}" in str(err)
            refused.append(p)
            continue
        for start, end in spans:
            assert 0 <= start <= end < p
    assert refused == list(range(1, max(refused) + 1))
    assert max(refused) == {"ibfd": 4, "sbfd": 41, "overlap": 4}[preset]
    with pytest.raises(ValueError, match="num_subcarriers=32 is too small"):
        ScenarioSpec(num_subcarriers=32, cp_length=20, duplex="sbfd")


def test_preset_grids_classify_as_expected():
    # ibfd shares one band, sbfd splits the bands apart, overlap shares part of them
    for p in (64, 256, 1024):
        grids = {
            preset: ScenarioSpec(num_subcarriers=p, duplex=preset).build_grid()
            for preset in DUPLEX_PRESETS
        }
        shared = {
            preset: np.intersect1d(g.dl_indices, g.ul_indices).size for preset, g in grids.items()
        }
        assert grids["ibfd"].dl_set == grids["ibfd"].ul_set
        assert shared["sbfd"] == 0
        partial = grids["overlap"]
        assert 0 < shared["overlap"] < min(partial.dl_size, partial.ul_size)
    # the shared band is mirror symmetric, as the IQ estimator needs
    g = ScenarioSpec(duplex="ibfd").build_grid()
    assert g.dl_start + g.dl_end == g.num_subcarriers


def test_sbfd_uplink_clears_downlink_and_its_image():
    # every grid the preset takes, from the smallest (P = 42) up
    for p in [*range(42, 1025), 4096]:
        dl, ul = duplex_allocation("sbfd", p)
        downlink = set(range(dl[0], dl[1] + 1))
        mirror = {(p - q) % p for q in downlink}
        uplink = set(range(ul[0], ul[1] + 1))
        assert ul[0] <= ul[1] < p, p
        assert not uplink & downlink, p
        assert not uplink & mirror, p


# ---------------------------------------------------------------- spec handling


def test_scenario_spec_validation():
    with pytest.raises(ValueError, match="not a preset"):
        ScenarioSpec(duplex="fdd")
    with pytest.raises(ValueError, match="requires dl_span"):
        ScenarioSpec(duplex="custom")
    # a preset fixes the bands, so spans given with it would be dropped
    with pytest.raises(ValueError, match="^dl_span and ul_span set with duplex='ibfd'"):
        ScenarioSpec(duplex="ibfd", dl_span=(10, 20), ul_span=(30, 40))
    with pytest.raises(ValueError, match="^ul_span set with duplex='sbfd'"):
        ScenarioSpec(duplex="sbfd", ul_span=(30, 40))
    with pytest.raises(ValueError, match="^dl_span set with duplex='overlap'"):
        spec_from_dict({"duplex": "overlap", "dl_span": [10, 20]})
    with pytest.raises(ValueError, match="below tx_power_dbm"):
        ScenarioSpec(noise_dbm=30.0, tx_power_dbm=23.0)
    with pytest.raises(ValueError, match="unknown cancellers"):
        ScenarioSpec(cancellers=("none", "magic"))
    with pytest.raises(ValueError, match="repeat"):
        ScenarioSpec(cancellers=("none", "none"))
    with pytest.raises(ValueError, match="tap_file"):
        ScenarioSpec(tap_file="/nonexistent/taps.csv")
    with pytest.raises(ValueError, match="pa_drive_rms"):
        ScenarioSpec(pa_drive_rms=0.0)
    with pytest.raises(ValueError, match="n_run_symbols"):
        ScenarioSpec(n_run_symbols=0)


def test_spec_rejects_bad_estimator_values():
    # every message starts with the config key it is about
    nan, inf = float("nan"), float("inf")
    span_rule = r"must be a \(start, end\) pair in 0\.\.255, got"
    cases = [
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"k_max": 0}, "k_max must be at least 1, got 0"),
        ({"n_impulse_symbols": 2}, r"n_impulse_symbols must be at least k_max \+ 1 = 3"),
        (
            {"k_max": 3, "n_impulse_symbols": 3},
            r"n_impulse_symbols must be at least k_max \+ 1 = 4",
        ),
        ({"n_train_symbols": 4}, "n_train_symbols must leave at least one data training symbol"),
        (
            {"n_train_symbols": 5},
            "n_train_symbols must leave at least two data training symbols after the 4 impulse "
            "symbols to estimate the IQ image weight for proposed, got 5",
        ),
        ({"impulse_amp_range": (2.0, 0.6)}, "impulse_amp_range must be increasing and positive"),
        ({"impulse_amp_range": (0.0, 2.0)}, "impulse_amp_range must be increasing and positive"),
        # a spec built in Python is refused NaN and infinity as a config file is
        ({"pa_drive_rms": nan}, "pa_drive_rms must be finite, got nan$"),
        ({"subcarrier_spacing": inf}, "subcarrier_spacing must be finite, got inf$"),
        ({"gamma_dbm": nan}, "gamma_dbm must be finite, got nan$"),
        ({"dl_beam_angle": inf}, "dl_beam_angle must be finite, got inf$"),
        ({"pa_coeffs": {1: complex(1.0, nan)}}, r"pa_coeffs must be finite, got \(1\+nanj\)$"),
        ({"tx_array": (4, 4, inf)}, "tx_array must be finite, got inf$"),
        # custom spans must lie on the grid
        ({"duplex": "custom", "dl_span": (10, 5), "ul_span": (0, 3)}, f"dl_span {span_rule}"),
        ({"duplex": "custom", "dl_span": (-1, 5), "ul_span": (0, 3)}, f"dl_span {span_rule}"),
        ({"duplex": "custom", "dl_span": (10, 20), "ul_span": (30, 256)}, f"ul_span {span_rule}"),
        (
            {"duplex": "custom", "dl_span": (1, 2), "ul_span": (3, 4, 5)},
            "ul_span must hold 2 values, got 3$",
        ),
        # integer fields take integers, and no bool, as a config file does
        ({"k_max": 2.5}, "k_max must be an integer, got 2.5$"),
        ({"n_run_symbols": 2.5}, "n_run_symbols must be an integer, got 2.5$"),
        (
            {"duplex": "custom", "dl_span": (10.7, 200.2), "ul_span": (20, 100)},
            "dl_span must be an integer, got 10.7$",
        ),
        (
            {"duplex": "custom", "dl_span": (10, 200), "ul_span": (20, 100.0)},
            "ul_span must be an integer, got 100.0$",
        ),
        ({"tx_array": (4.0, 4, 0.5)}, "tx_array must be an integer, got 4.0$"),
        ({"rx_array": (4, True, 0.5)}, "rx_array must be an integer, got True$"),
        ({"seed": True}, "seed must be an integer, got True$"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0$"),
        ({"num_subcarriers": 256.0}, "num_subcarriers must be an integer, got 256.0$"),
        # every field has its type, not only the integer and float ones
        ({"tx_array": (4, 4)}, "tx_array must hold 3 values, got 2$"),
        ({"irr_db": "25"}, "irr_db must be float, got '25'$"),
        ({"irr_db": True}, "irr_db must be float, got True$"),
        ({"pa_coeffs": {1: "a"}}, "pa_coeffs must be complex, got 'a'$"),
        ({"noise_dbm": None}, "noise_dbm must be float, got None$"),
        ({"channel": {"taps": 4}}, "unknown channel keys: taps$"),
        # the grid and the image weight are checked as the spec is built, not at run time
        (
            {"num_subcarriers": 16, "cp_length": 32},
            "cp_length must satisfy 0 < cp_length < num_subcarriers, "
            "got cp_length=32 with num_subcarriers=16$",
        ),
        ({"subcarrier_spacing": -1.0}, "subcarrier_spacing must be positive, got -1.0$"),
        ({"irr_db": -5.0}, "irr_db must be positive, got -5.0$"),
    ]
    for overrides, message in cases:
        with pytest.raises(ValueError, match="^" + message):
            ScenarioSpec(**overrides)
    with pytest.raises(ValueError, match="^los_gain_db must be finite, got nan$"):
        ScenarioSpec(channel=ChannelProfile(los_gain_db=nan))
    with pytest.raises(ValueError, match="^n_rays must be an integer, got 2.5$"):
        ChannelProfile(n_rays=2.5)
    # numpy integers are integers
    assert ScenarioSpec(seed=np.int64(3), k_max=np.int32(2)).seed == 3


def test_one_data_training_symbol_serves_the_cancellers_without_b_hat():
    # estimate_iq needs two data symbols; none, linear and pa_only need one
    report = run_scenario(small_spec(n_train_symbols=5, cancellers=("none", "linear", "pa_only")))
    assert report.sicr_db["pa_only"] > report.sicr_db["linear"] > 0.0
    for name in ("full_ls", "iq_only"):
        with pytest.raises(ValueError, match=f"^n_train_symbols must .* for {name}, got 5$"):
            small_spec(n_train_symbols=5, cancellers=("pa_only", name))


def test_run_scenario_rejects_a_negative_seed_argument():
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        run_scenario(small_spec(), seed=-1)
    # the override has the seed field's type
    for seed in (True, 2.0):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            run_scenario(small_spec(), seed=seed)


def test_run_scenario_rejects_a_threshold_that_underflows():
    # gamma is derived from gamma_dbm in run_scenario, so the check lives there
    with pytest.raises(ValueError, match="^gamma_dbm=-5000.0 gives a selection threshold"):
        run_scenario(small_spec(gamma_dbm=-5000.0))


def test_spec_rejects_a_prefix_the_synthetic_channel_outruns(tmp_path):
    # NLoS ray i sits on tap i * nlos_tap_step, so the default channel's last ray is on tap 16
    with pytest.raises(ValueError, match="cp_length must exceed the synthetic channel's longest tap 16"):
        ScenarioSpec(num_subcarriers=64, cp_length=16)
    ScenarioSpec(num_subcarriers=64, cp_length=17)
    ScenarioSpec(num_subcarriers=64, cp_length=16, channel=ChannelProfile(n_rays=4))
    # a tap file's delays are checked where they are put on taps, in apply_beams
    path = tmp_path / "taps.csv"
    save_taps([Ray(gain=1e-3, delay_s=0.0, aoa=0.0, aod=0.0, is_los=True)], path)
    ScenarioSpec(num_subcarriers=64, cp_length=16, tap_file=str(path))


def tap_file_spec(tmp_path, rays_db, **overrides):
    """A P = 256 ibfd spec on a tap file of boresight rays given as (gain dB or None, tap, is_los)."""
    ts = ScenarioSpec(num_subcarriers=256).build_grid().sampling_interval
    rays = []
    for db, tap, is_los in rays_db:
        gain = 0.0 if db is None else 10.0 ** (db / 20.0)
        rays.append(Ray(gain=gain, delay_s=tap * ts, aoa=0.0, aod=0.0, is_los=is_los))
    path = tmp_path / "taps.csv"
    save_taps(rays, path)
    return ScenarioSpec(num_subcarriers=256, duplex="ibfd", seed=1, tap_file=str(path), **overrides)


# every canceller set stops on it, also those that fit no amplifier and
# would otherwise divide a zero reception into an infinite SICR
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["proposed", "iq_only", "pa_only", "none", "linear", "full_ls"])
def test_a_zero_channel_stops_the_amplifier_fit_by_name(tmp_path, name):
    cancellers = tuple(dict.fromkeys(("none", name)))
    spec = tap_file_spec(tmp_path, [(None, 0, True), (None, 4, False)], cancellers=cancellers)
    with pytest.raises(ValueError, match="^the self-interference channel is zero"):
        run_scenario(spec)


@pytest.mark.parametrize(
    "rays_db",
    [
        # a line-of-sight gain of 0: the first nonzero tap is the echo on tap 4
        # (48.3 dB; sampling the empty tap 0 instead gave 38.1 dB)
        [(None, 0, True), (-52.0, 4, False), (-80.0, 8, False)],
        # every ray arrives late, the direct path on tap 3
        # (47.8 dB; sampling the pilot peaks at tap 0 instead gave 35.1 dB)
        [(-52.0, 3, True), (-80.0, 7, False), (-86.0, 11, False)],
    ],
    ids=["zero-los-gain", "late-los"],
)
def test_the_amplifier_fit_samples_behind_the_first_nonzero_tap(tmp_path, rays_db):
    spec = tap_file_spec(tmp_path, rays_db)
    assert run_scenario(spec).sicr_db["proposed"] >= 45.0


def test_spec_dict_roundtrip():
    spec = small_spec(
        duplex="custom",
        dl_span=(8, 40),
        ul_span=(46, 62),
        pa_coeffs={1: 20.0, 3: -1.0 + 0.5j},
        channel=ChannelProfile(n_rays=3),
    )
    data = spec_to_dict(spec)
    assert data["pa_coeffs"] == {"1": [20.0, 0.0], "3": [-1.0, 0.5]}
    back = spec_from_dict(json.loads(json.dumps(data)))
    assert back == spec


def test_python_values_take_the_normal_form_a_report_can_write(tmp_path):
    spec = small_spec(
        cancellers=["none", "proposed"],
        channel={"n_rays": 3},
        seed=np.int64(3),
        irr_db=np.float32(25.5),
        tx_array=[np.int64(4), 4, np.float64(0.5)],
    )
    assert spec.cancellers == ("none", "proposed") and spec.channel == ChannelProfile(n_rays=3)
    assert spec.tx_array == (4, 4, 0.5) and type(spec.tx_array[0]) is int
    assert type(spec.seed) is int and type(spec.irr_db) is float
    assert hash(spec) == hash(replace(spec))
    report = run_scenario(spec)
    emit_report(report, tmp_path / "csv")
    emit_report(report, tmp_path / "json", fmt="json")
    config = json.loads((tmp_path / "csv" / "config.json").read_text())
    assert config["seed"] == 3 and spec_from_dict(config["config"]) == spec
    assert json.loads((tmp_path / "json" / "report.json").read_text())["config"] == config["config"]


def test_a_fraction_for_a_float_field_becomes_a_float(tmp_path):
    spec = small_spec(irr_db=fractions.Fraction(51, 2), noise_dbm=-90, cancellers=["none"])
    assert type(spec.irr_db) is float and spec.irr_db == 25.5
    assert type(spec.noise_dbm) is int  # a plain int stays as given, so config.json keeps it
    json.dumps(spec_to_dict(spec))
    emit_report(run_scenario(spec), tmp_path, fmt="json")
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config["irr_db"] == 25.5 and spec_from_dict(config) == spec


def test_pa_coeffs_validation_and_build_pa():
    # the odd-order dict is the config form; build_pa puts a_{2k+1} at index k
    a = ScenarioSpec(pa_coeffs={5: 0.1j, 1: 2.0, 3: -1.0}).build_pa()
    assert a.dtype == np.complex128
    assert np.array_equal(a, [2.0, -1.0, 0.1j])
    assert np.array_equal(ScenarioSpec(pa_coeffs={1: 2.0, 7: 0.5}).build_pa(), [2.0, 0, 0, 0.5])
    assert np.array_equal(ScenarioSpec().build_pa(), default_measured_pa())
    for bad in ({2: 1.0}, {0: 1.0, 1: 1.0}, {-1: 1.0, 1: 1.0}, {3: 1.0}, {1: 0.0, 3: 1.0}, {}):
        with pytest.raises(ValueError, match="^pa_coeffs must map odd orders"):
            ScenarioSpec(pa_coeffs=bad)


def test_pa_coeffs_gap_reports_match_explicit_zero(tmp_path):
    # an order left out of pa_coeffs is the same amplifier as that order at zero
    reports = {}
    for name, coeffs in (("gap", {1: 30.0, 5: 0.01}), ("zero", {1: 30.0, 3: 0.0, 5: 0.01})):
        spec = small_spec(pa_coeffs=coeffs, cancellers=CANCELLERS)
        emit_report(run_scenario(spec), tmp_path / name)
        reports[name] = {
            f: (tmp_path / name / f).read_bytes() for f in ("psd.csv", "cdf.csv", "complexity.csv")
        }
    assert reports["gap"] == reports["zero"]


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: frequency"):
        spec_from_dict({"frequency": 3.5e9})
    with pytest.raises(ValueError, match="unknown channel keys: taps"):
        spec_from_dict({"channel": {"taps": 4}})
    # the ridge knob is gone: every solve keeps the automatic guard rails
    with pytest.raises(ValueError, match="unknown config keys: regularization"):
        spec_from_dict({"regularization": 0.0})


def test_load_spec_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_spec(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_spec(path)
    path.write_text(json.dumps({"num_subcarriers": 64, "cp_length": 20}))
    assert load_spec(path).num_subcarriers == 64
    # json.load reads NaN and Infinity; a nested field and a [re, im] pair are checked too
    for data, key in [
        ({"channel": {"los_gain_db": float("nan")}}, "channel.los_gain_db"),
        ({"pa_coeffs": {"1": [1.0, float("inf")]}}, "pa_coeffs"),
    ]:
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{key} must be finite, got (nan|inf)$"):
            load_spec(path)


# ---------------------------------------------------------------- metrics


def test_sicr_values_and_guards():
    # the powers are sums over the same band and symbols
    assert sicr(8.0, 0.8) == pytest.approx(10.0)
    assert sicr(8.0, 0.0) == float("inf")
    for raw, residual in [(8.0, -0.8), (-8.0, 0.8), (8.0, float("nan")), (float("inf"), 0.8)]:
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            sicr(raw, residual)


def test_residual_cdf_sorts():
    out = residual_cdf([3.0, -1.0, 2.0])
    assert np.array_equal(out, [-1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least one"):
        residual_cdf([])


# ---------------------------------------------------------------- runs


def assert_reception_matches_time_domain_chain(spec, taps, window):
    """_receive equals the prefixed time-domain chain, rx_body_loop, on one window.

    The training window is read through _build_training: its noisy spectra
    must equal the FFT of the oracle's bodies, the noise drawn symbol by
    symbol from the same stream, and the inverse FFT of its pilot rows the
    oracle's pilot bodies, both to 1e-13 relative. The run window's
    noiseless uplink bins must equal the oracle's to 1e-12 relative.
    Returns the symbols received.
    """
    grid = spec.build_grid()
    b_iq, pa = spec.build_imbalance(), spec.build_pa()
    a_digi = spec.drive_amplitude(grid)
    h = np.fft.fft(taps, n=grid.num_subcarriers)

    def oracle(tx, sigma, seed):
        return rx_body_loop(
            tx, b_iq, lambda t: apply_pa(t, pa), taps, grid.cp_length, sigma,
            np.random.default_rng(seed),
        )

    if window == "training":
        sigma = 1e-3 * a_digi / grid.num_subcarriers
        buf = _build_training(spec, grid, b_iq, pa, h, a_digi, sigma, seed_data=12, seed_noise=13)
        assert buf.n_impulse == spec.n_impulse_symbols
        bodies = oracle(buf.tx, sigma, 13)
        pilots, ref_pilots = idft(buf.rx[: buf.n_impulse]), bodies[: buf.n_impulse]
        assert pilots.shape == ref_pilots.shape == (buf.n_impulse, grid.num_subcarriers)
        assert np.max(np.abs(pilots - ref_pilots)) <= 1e-13 * np.max(np.abs(ref_pilots))
        tx, got, ref, bound = buf.tx, buf.rx, np.fft.fft(bodies, axis=-1), 1e-13
        shape = (spec.n_train_symbols, grid.num_subcarriers)
    else:
        tx = gen_qam_symbols(grid, spec.qam_order, a_digi, 12, seed=21)
        got = scenario._receive(idft(tx), b_iq, pa, h, grid.ul_band)
        ref = np.fft.fft(oracle(tx, 0.0, 0), axis=-1)[:, grid.ul_band]
        bound, shape = 1e-12, (12, grid.ul_size)
    assert got.shape == ref.shape == shape
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
    return tx


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_stacked_training_window_matches_symbol_by_symbol_chain(preset):
    # the window goes through the transmit chain as one stack; each row must
    # equal the chain run on that symbol alone, with the noise drawn per symbol
    spec = ScenarioSpec(duplex=preset, num_subcarriers=256, seed=3)
    grid = spec.build_grid()
    a_digi = spec.drive_amplitude(grid)
    assert a_digi == spec.pa_drive_rms * 256 / np.sqrt(grid.dl_size)
    taps = _build_effective_channel(spec, grid, seed=11)
    tx = assert_reception_matches_time_domain_chain(spec, taps, "training")

    lo, hi = spec.impulse_amp_range
    scale = 256 / grid.dl_size
    pilots = [
        impulse_pilot(grid, float(peak) * scale)
        for peak in np.linspace(lo, hi, spec.n_impulse_symbols)
    ]
    n_data = spec.n_train_symbols - spec.n_impulse_symbols
    ref = np.array(pilots + list(gen_qam_symbols(grid, spec.qam_order, a_digi, n_data, 12)))
    assert np.array_equal(tx, ref)


@pytest.mark.parametrize("p", [256, 1024])
@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_run_reception_per_subcarrier_matches_time_domain_chain(preset, p):
    # the run window skips the prefix and the FIR filter: with every tap
    # inside the prefix, the channel is one gain per subcarrier
    spec = ScenarioSpec(num_subcarriers=p, duplex=preset, seed=4)
    taps = _build_effective_channel(spec, spec.build_grid(), seed=17)
    assert 1 < len(taps) <= spec.cp_length
    assert_reception_matches_time_domain_chain(spec, taps, "run")


def edge_tap_spec(tmp_path):
    """A tap file with taps 0 and cp_length - 1, the last one the prefix absorbs."""
    spec = tap_file_spec(tmp_path, [(-52.0, 0, True), (-60.0, 31, False)])
    assert spec.cp_length == 32
    taps = _build_effective_channel(spec, spec.build_grid(), seed=0)
    assert np.flatnonzero(taps).tolist() == [0, spec.cp_length - 1]
    return spec, taps


def test_run_reception_per_subcarrier_holds_with_a_tap_on_the_prefix_edge(tmp_path):
    # one tap further, circular and linear convolution would part
    assert_reception_matches_time_domain_chain(*edge_tap_spec(tmp_path), "run")


def test_training_reception_holds_with_a_tap_on_the_prefix_edge(tmp_path):
    assert_reception_matches_time_domain_chain(*edge_tap_spec(tmp_path), "training")


def test_run_noise_is_drawn_on_the_uplink_bins_at_the_noise_floor(monkeypatch):
    # the run noise is drawn per uplink bin with the variance a per-sample
    # noise of the floor's power has after the DFT, noise_f; in dBm that
    # is noise_dbm, split evenly over uncorrelated real and imaginary parts
    spec = ScenarioSpec(num_subcarriers=256, duplex="ibfd", n_run_symbols=20, seed=2)
    grid = spec.build_grid()
    drawn = []
    noise = scenario._noise

    def recording(shape, sigma, rng, out=None):
        # the run window draws into a workspace it reuses, so keep a copy
        values = noise(shape, sigma, rng, out=out)
        drawn.append(values.copy())
        return values

    monkeypatch.setattr(scenario, "_noise", recording)
    run_scenario(spec)
    # the training window draws on (M, P) bodies, the run window on its uplink bins
    train, *run = drawn
    assert train.shape == (spec.n_train_symbols, 256)
    noise = np.concatenate(run)
    assert noise.shape == (spec.n_run_symbols, grid.ul_size)
    unit_power = abs(spec.build_pa()[0] * spec.drive_amplitude(grid)) ** 2
    mw_per_unit = 10.0 ** (spec.tx_power_dbm / 10.0) / unit_power
    floor = 10.0 ** (spec.noise_dbm / 10.0) / mw_per_unit
    n = noise.size
    assert n >= 2000

    def within_5_se(samples, mean):
        return abs(samples.mean() - mean) <= 5 * samples.std() / np.sqrt(n)

    noise = noise.ravel()
    assert within_5_se(np.abs(noise) ** 2, floor)
    assert within_5_se(noise.real**2, floor / 2)
    assert within_5_se(noise.imag**2, floor / 2)
    assert within_5_se(noise.real * noise.imag, 0.0)


@pytest.mark.parametrize("n_run", [7, 1])
@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_blocked_run_window_matches_one_symbol_blocks(monkeypatch, preset, n_run):
    # at P = 4096 the default block holds 4 symbols, so 7 leaves a short last block
    spec = ScenarioSpec(
        num_subcarriers=4096, duplex=preset, n_run_symbols=n_run, cancellers=CANCELLERS
    )
    assert scenario._RUN_BLOCK_SAMPLES // 4096 == 4
    blocked = run_scenario(spec)
    monkeypatch.setattr(scenario, "_RUN_BLOCK_SAMPLES", 4096)
    single = run_scenario(spec)
    for name in CANCELLERS:
        assert np.max(np.abs(blocked.psd_dbm[name] - single.psd_dbm[name])) <= 1e-10
        assert np.max(np.abs(blocked.cdf_dbm[name] - single.cdf_dbm[name])) <= 1e-10
        assert blocked.sicr_db[name] == pytest.approx(single.sicr_db[name], rel=0, abs=1e-10)
        assert blocked.counters[name].rows() == single.counters[name].rows()


def test_run_window_memory_does_not_grow_with_its_length():
    # each block is worked in buffers allocated once per scenario and its
    # residuals reduced to running sums, so no array grows with n_run
    def peak(n_run):
        spec = ScenarioSpec(
            num_subcarriers=1024,
            duplex="overlap",
            cancellers=("none", "proposed", "full_ls"),
            n_run_symbols=n_run,
        )
        tracemalloc.start()
        try:
            run_scenario(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(40)  # the first run fills caches a later one finds
    short, long = peak(40), peak(2000)
    assert long <= 1.25 * short, f"peak {long} B at 2000 symbols, {short} B at 40"


def test_noise_draws_each_symbol_real_then_imaginary():
    # a stack draws the same numbers as its rows drawn one after another,
    # and the noisy samples equal the textbook expression bit for bit
    rng = np.random.default_rng(0)
    body = rng.standard_normal((3, 2, 16)) + 1j * rng.standard_normal((3, 2, 16))
    noisy = body + scenario._noise(body.shape, 0.7, np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    for row, clean in zip(noisy.reshape(-1, 16), body.reshape(-1, 16)):
        noise = ref_rng.standard_normal(16) + 1j * ref_rng.standard_normal(16)
        assert np.array_equal(row, clean + (0.7 / np.sqrt(2.0)) * noise)
    # a zero sigma leaves the samples as they are, bit for bit
    assert np.array_equal(body + scenario._noise(body.shape, 0.0, rng), body)


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_smallest_training_window_runs_every_canceller(preset):
    # two data training symbols, the fewest the spec allows where b_hat is
    # estimated: estimate_iq solves square 2 x 2 mirror-pair systems
    spec = ScenarioSpec(duplex=preset, n_train_symbols=6, cancellers=CANCELLERS)
    assert spec.n_train_symbols == spec.n_impulse_symbols + 2
    report = run_scenario(spec)
    assert set(report.sicr_db) == set(CANCELLERS)
    assert np.isfinite(list(report.sicr_db.values())).all()


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_each_canceller_alone_matches_the_shared_run(preset, k_max):
    # 70 run symbols at P = 256 make two blocks, of 64 and 6 symbols. The
    # cancellers share the fits, the training basis stack and one run stack
    # per block; none of that sharing may reach another canceller's output
    # or counters
    spec = ScenarioSpec(
        num_subcarriers=256, duplex=preset, k_max=k_max, n_run_symbols=70, cancellers=CANCELLERS
    )
    together = run_scenario(spec)
    for name in CANCELLERS:
        alone = run_scenario(replace(spec, cancellers=(name,)))
        assert alone.sicr_db[name] == together.sicr_db[name]
        assert np.array_equal(alone.psd_dbm[name], together.psd_dbm[name])
        assert np.array_equal(alone.cdf_dbm[name], together.cdf_dbm[name])
        assert alone.counters[name].rows() == together.counters[name].rows()


@pytest.mark.parametrize(
    "cancellers, stacks",
    [
        (CANCELLERS, 2),
        (("none", "proposed", "full_ls"), 1),
        (("iq_only",), 1),
        (("pa_only",), 1),
        (("none", "linear"), 0),
    ],
)
def test_each_block_builds_one_basis_stack_per_image_weight(monkeypatch, cancellers, stacks):
    # the cancellers built on b_hat read one training stack and one stack per
    # run block; pa_only builds the same again with no image. A training
    # stack holds the data rows alone, the only ones estimate_channel reads,
    # unless full_ls runs: it fits every training row
    calls = []
    build = sic.basis_chain

    def counted(x_iq, k_max, **kwargs):
        calls.append(np.shape(x_iq)[0])
        return build(x_iq, k_max, **kwargs)

    monkeypatch.setattr(sic, "basis_chain", counted)
    spec = ScenarioSpec(num_subcarriers=256, n_run_symbols=70, cancellers=cancellers)
    run_scenario(spec)
    data = spec.n_train_symbols - spec.n_impulse_symbols
    train = [spec.n_train_symbols if "full_ls" in cancellers else data] + [data]
    assert calls == train[:stacks] + [64] * stacks + [6] * stacks


def test_fits_hold_one_training_basis_stack_at_a_time(monkeypatch):
    # the b_hat group's training stack must be released before pa_only's
    # is built: at P = 4096 one (M, k_max + 1, P) stack of 14 rows is 2.75 MB
    stacks = []
    build = scenario.basis_stack

    def tracked(x, b, k_max, grid, *args, **kwargs):
        if len(stacks) == 1:
            assert b == 0.0  # pa_only's training stack comes second
            gc.collect()
            assert stacks[0]() is None, "the b_hat training stack is still alive"
        chain = build(x, b, k_max, grid, *args, **kwargs)
        stacks.append(weakref.ref(chain))
        return chain

    monkeypatch.setattr(scenario, "basis_stack", tracked)
    spec = ScenarioSpec(num_subcarriers=256, n_run_symbols=4, cancellers=CANCELLERS)
    run_scenario(spec)
    assert len(stacks) == 2 + 2  # two training stacks, then one run block of two


@pytest.mark.parametrize(
    "cancellers, overrides, tops",
    [
        (("iq_only",), {}, {"b_hat": 0}),
        (("full_ls",), {}, {"b_hat": 2}),
        (("proposed",), {}, {"b_hat": 1}),
        (("proposed",), {"gamma_dbm": 100.0}, {"b_hat": 0}),
        (("pa_only",), {}, {0.0: 1}),
        (CANCELLERS, {}, {"b_hat": 2, 0.0: 1}),
    ],
)
def test_each_run_stack_reaches_the_top_order_its_group_runs(
    monkeypatch, cancellers, overrides, tops
):
    # a group's run stack holds the orders up to the highest one any member
    # reads: k_max for full_ls, top_order(W) for the others. The outputs do
    # not show it; only the transforms spent on the stack do
    run_tops = []
    build = scenario.basis_stack

    def recorded(x, b, k_max, grid, *args, **kwargs):
        if "out" in kwargs:  # a run block's stack; training stacks take no workspace
            run_tops.append(("b_hat" if b != 0 else 0.0, k_max))
        return build(x, b, k_max, grid, *args, **kwargs)

    monkeypatch.setattr(scenario, "basis_stack", recorded)
    spec = ScenarioSpec(num_subcarriers=256, n_run_symbols=4, cancellers=cancellers, **overrides)
    run_scenario(spec)
    assert run_tops == list(tops.items())


def test_run_scenario_smoke_and_shapes():
    spec = small_spec()
    report = run_scenario(spec, seed=2)
    assert isinstance(report, MetricsReport)
    grid = spec.build_grid()
    assert report.ul_indices == tuple(int(p) for p in grid.ul_indices)
    for name in spec.cancellers:
        assert report.psd_dbm[name].shape == (grid.ul_size,)
        assert report.cdf_dbm[name].shape == (spec.n_run_symbols,)
        assert np.all(np.isfinite(report.psd_dbm[name]))
        assert name in report.counters
    # no cancellation leaves the clean self-interference untouched
    assert report.sicr_db["none"] == 0.0
    assert report.sicr_db["proposed"] > report.sicr_db["linear"] + 10.0
    assert report.noise_floor_dbm == spec.noise_dbm


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_none_cancels_exactly_nothing(preset):
    # none's noiseless residual is the raw self-interference, summed block
    # by block in the same order, so its SICR is 0 dB exactly, as the bench
    # harness demands; 70 symbols at P = 256 make two blocks
    spec = ScenarioSpec(
        num_subcarriers=256, duplex=preset, n_run_symbols=70, cancellers=("none", "proposed")
    )
    assert run_scenario(spec).sicr_db["none"] == 0.0


def test_residual_totals_take_dot_products_short_of_blas_threading(monkeypatch):
    # a wide block, 4 rows of 3205 uplink bins, is longer than one dot
    # product may be: each is cut to _DOT_ENTRIES entries, and together they
    # give the total power
    sizes = []
    vdot = np.vdot

    def spied(a, b):
        sizes.append(np.size(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spied)
    spec = ScenarioSpec(num_subcarriers=4096, n_run_symbols=4, cancellers=("none", "linear"))
    run_scenario(spec)
    entries = 4 * spec.build_grid().ul_size
    assert entries > scenario._DOT_ENTRIES
    # the raw total, then linear's residual: one chunk of _DOT_ENTRIES and the rest
    rest = entries - scenario._DOT_ENTRIES
    assert sizes == [scenario._DOT_ENTRIES, rest] * 2
    r = np.random.default_rng(3).standard_normal((4, 3205)) * (1 + 2j)
    assert scenario._total_power(r) == pytest.approx(np.sum(np.abs(r) ** 2), rel=1e-13)


def test_run_scenario_takes_each_inverse_transform_once(monkeypatch):
    """One six-canceller run takes the training window's transmit samples once, its
    pilot bodies once and one inverse FFT per run block, and the training window
    holds the first two bit for bit."""
    spec = small_spec(cancellers=CANCELLERS, n_run_symbols=5)
    grid = spec.build_grid()
    p = grid.num_subcarriers
    monkeypatch.setattr(scenario, "_RUN_BLOCK_SAMPLES", 2 * p)
    shapes, buffers = [], []

    def counted(spectrum, out=None):
        shapes.append(np.shape(spectrum))
        return idft(spectrum, out=out)

    def kept(*args, **kwargs):
        buffers.append(_build_training(*args, **kwargs))
        return buffers[-1]

    for module in (scenario, sic):
        monkeypatch.setattr(module, "idft", counted)
    monkeypatch.setattr(scenario, "_build_training", kept)
    report = run_scenario(spec, seed=3)
    assert set(report.sicr_db) == set(CANCELLERS)
    (buf,) = buffers
    m = spec.n_train_symbols
    assert shapes == [(m, p), (buf.n_impulse, p), (2, p), (2, p), (1, p)]
    assert np.array_equal(buf.samples, idft(buf.tx))
    assert np.array_equal(buf.bodies, idft(buf.rx[: buf.n_impulse]))


def test_run_scenario_takes_one_basis_power_recursion(monkeypatch):
    """proposed and pa_only read tables at two image weights, b_hat and 0, from
    one recursion: one real FFT of the pair count and one per order above the
    first. Each group's table is mu_tables at its own weight."""
    spec = small_spec(cancellers=("proposed", "pa_only"), k_max=2)
    grid = spec.build_grid()
    rffts, b_hats, tables = [], [], []
    rfft, estimate_iq, select_basis = np.fft.rfft, scenario.estimate_iq, scenario.select_basis

    def counted(*args, **kwargs):
        rffts.append(1)
        return rfft(*args, **kwargs)

    def kept_b(*args, **kwargs):
        b_hats.append(estimate_iq(*args, **kwargs))
        return b_hats[-1]

    def kept_mu(a_hat, mu, *args, **kwargs):
        tables.append(mu)
        return select_basis(a_hat, mu, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    monkeypatch.setattr(scenario, "estimate_iq", kept_b)
    monkeypatch.setattr(scenario, "select_basis", kept_mu)
    run_scenario(spec, seed=4)
    assert len(rffts) == 1 + spec.k_max
    monkeypatch.undo()
    assert len(tables) == 2
    a_digi = spec.drive_amplitude(grid)
    for mu, b in zip(tables, [b_hats[0], 0j]):
        ref = mu_tables(grid, b, a_digi, spec.k_max)
        assert mu.shape == ref.shape
        assert (np.abs(mu - ref) <= 1e-15 * ref.max(axis=1, keepdims=True)).all()


def test_run_scenario_is_deterministic():
    spec = small_spec()
    a = run_scenario(spec, seed=5)
    b = run_scenario(spec, seed=5)
    c = run_scenario(spec, seed=6)
    for name in spec.cancellers:
        assert np.array_equal(a.psd_dbm[name], b.psd_dbm[name])
        assert a.counters[name].rows() == b.counters[name].rows()
    assert not np.array_equal(a.psd_dbm["proposed"], c.psd_dbm["proposed"])


def test_run_scenario_uses_spec_seed_by_default():
    spec = small_spec(seed=9)
    a = run_scenario(spec)
    b = run_scenario(spec, seed=9)
    assert a.seed == b.seed == 9
    assert np.array_equal(a.psd_dbm["proposed"], b.psd_dbm["proposed"])


def test_emit_report_csv_and_determinism(tmp_path):
    spec = small_spec()
    report = run_scenario(spec, seed=3)
    out_a = tmp_path / "a"
    files = emit_report(report, out_a)
    names = [f.rsplit("/", 1)[-1] for f in files]
    assert names == ["psd.csv", "cdf.csv", "complexity.csv", "config.json"]

    grid = spec.build_grid()
    psd_lines = (out_a / "psd.csv").read_text().strip().splitlines()
    assert psd_lines[0] == "canceller,p,residual_dbm"
    assert len(psd_lines) == 1 + len(spec.cancellers) * grid.ul_size
    cdf_lines = (out_a / "cdf.csv").read_text().strip().splitlines()
    assert len(cdf_lines) == 1 + len(spec.cancellers) * spec.n_run_symbols

    cfg = json.loads((out_a / "config.json").read_text())
    assert cfg["seed"] == 3
    assert spec_from_dict(cfg["config"]) == spec

    # identical run, identical bytes
    report2 = run_scenario(spec, seed=3)
    out_b = tmp_path / "b"
    emit_report(report2, out_b)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_emit_report_json(tmp_path):
    spec = small_spec(cancellers=("none", "proposed"))
    report = run_scenario(spec, seed=4)
    files = emit_report(report, tmp_path, fmt="json")
    assert len(files) == 1 and files[0].endswith("report.json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload["psd_dbm"]) == {"none", "proposed"}
    assert payload["noise_floor_dbm"] == spec.noise_dbm
    assert len(payload["ul_indices"]) == spec.build_grid().ul_size
    assert any(row["stage"].startswith("proposed.") for row in payload["complexity"])
    # an unknown format is refused before the directory is made
    fresh = tmp_path / "fresh"
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(report, fresh, fmt="yaml")
    assert not fresh.exists()


def test_all_cancellers_run_together():
    spec = small_spec(cancellers=CANCELLERS)
    report = run_scenario(spec, seed=7)
    assert set(report.sicr_db) == set(CANCELLERS)
    assert report.sicr_db["full_ls"] > report.sicr_db["linear"]
    assert report.sicr_db["pa_only"] > 0.0


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_run_path_has_no_quadratic_kernel(monkeypatch, preset):
    # every per-allocation table on the run path costs O(P log P) or less
    def quadratic(*args, **kwargs):
        raise AssertionError("O(P^2) convolution on the run path")

    monkeypatch.setattr(np, "convolve", quadratic)
    monkeypatch.setattr(np, "correlate", quadratic)
    report = run_scenario(ScenarioSpec(num_subcarriers=256, duplex=preset, cancellers=CANCELLERS))
    assert set(report.sicr_db) == set(CANCELLERS)


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
def test_complexity_csv_matches_golden_counts(tmp_path, preset):
    # the goldens pin each stage's multiply and add counts at this spec under
    # the counters.py conventions: the *basis rows charge one IFFT plus one
    # FFT per order, and the scalar-LS stages one division per solved subcarrier
    spec = small_spec(duplex=preset, n_run_symbols=3, cancellers=CANCELLERS)
    emit_report(run_scenario(spec), tmp_path)
    golden = pathlib.Path(__file__).parent / "golden" / f"complexity_{preset}.csv"
    assert (tmp_path / "complexity.csv").read_bytes() == golden.read_bytes()
