import numpy as np
import pytest

from flexsic.channel import (
    ArrayGeometry,
    ChannelProfile,
    Ray,
    apply_beams,
    array_response,
    load_taps,
    save_taps,
    synth_channel,
    validate_rays,
)
from flexsic.ofdm import SubcarrierGrid


def grid256():
    return SubcarrierGrid(256, 120e3, 32, (28, 228), (28, 228))


def los_only(gain=1.0):
    return [Ray(gain=gain, delay_s=0.0, aoa=0.0, aod=0.0, is_los=True)]


# ---------------------------------------------------------------- arrays, beams


def test_array_response_broadside_is_all_ones():
    geom = ArrayGeometry(rows=2, cols=4)
    v = array_response(geom, 0.0)
    assert v.shape == (8,)
    assert np.allclose(v, 1.0)


def test_array_response_two_element_endfire():
    # lambda/2 line array towards angle pi/2: phases {0, pi}
    geom = ArrayGeometry(rows=1, cols=2, spacing=0.5)
    v = array_response(geom, np.pi / 2)
    assert v[0] == pytest.approx(1.0)
    assert v[1] == pytest.approx(np.exp(1j * np.pi))


def test_matched_beams_give_the_full_array_gain():
    # one ray: the beams matched to its angles gain |g| sqrt(N_tx N_rx), others less
    g = grid256()
    geom_tx, geom_rx = ArrayGeometry(2, 2), ArrayGeometry(1, 3)
    aod, aoa = 0.4, -0.3
    gain = 0.02 - 0.01j
    rays = [Ray(gain=gain, delay_s=0.0, aoa=aoa, aod=aod, is_los=True)]
    matched = abs(apply_beams(rays, geom_tx, geom_rx, aod, aoa, g)[0])
    assert matched == pytest.approx(abs(gain) * np.sqrt(4 * 3))
    for dl_angle, ul_angle in [(aod, 0.0), (0.0, aoa), (-0.5, 1.0)]:
        off = abs(apply_beams(rays, geom_tx, geom_rx, dl_angle, ul_angle, g)[0])
        assert off < matched


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(rows=0, cols=2)
    with pytest.raises(ValueError):
        ArrayGeometry(rows=1, cols=1, spacing=0.0)
    for args, message in [
        ((2.5, 4), "rows must be an integer, got 2.5$"),
        ((2, True), "cols must be an integer, got True$"),
        ((2, 4, float("nan")), "spacing must be finite, got nan$"),
    ]:
        with pytest.raises(ValueError, match="^" + message):
            ArrayGeometry(*args)


# ---------------------------------------------------------------- ray validation


def test_validate_rays_rules():
    with pytest.raises(ValueError, match="no rays"):
        validate_rays([])
    with pytest.raises(ValueError, match="exactly one LoS"):
        validate_rays([Ray(1.0, 0.0, 0, 0, is_los=False)])
    with pytest.raises(ValueError, match="exactly one LoS"):
        validate_rays([Ray(1.0, 0.0, 0, 0, True), Ray(1.0, 1e-9, 0, 0, True)])
    with pytest.raises(ValueError, match="negative delay"):
        validate_rays([Ray(1.0, -1e-9, 0, 0, True)])
    with pytest.raises(ValueError, match="exceeds the"):
        validate_rays(
            [Ray(1.0, 1e-7, 0, 0, True), Ray(0.1, 0.0, 0, 0, False)]
        )


def test_build_rejects_delays_reaching_cp():
    g = grid256()
    too_late = g.cp_length * g.sampling_interval
    rays = los_only() + [Ray(0.1, too_late, 0, 0, False)]
    geom = ArrayGeometry(1, 1)
    with pytest.raises(ValueError, match="^ray 1: delay .* maps to tap 32, which reaches the cyclic"):
        apply_beams(rays, geom, geom, 0.0, 0.0, g)


# ---------------------------------------------------------------- effective channel


def test_siso_los_channel_is_flat():
    g = grid256()
    geom = ArrayGeometry(1, 1)
    taps = apply_beams(los_only(gain=0.5 + 0.1j), geom, geom, 0.0, 0.0, g)
    assert len(taps) == 1
    assert taps[0] == pytest.approx(0.5 + 0.1j)
    assert np.allclose(np.fft.fft(taps, n=g.num_subcarriers), 0.5 + 0.1j)


def beamformed_mimo_taps(rays, geom_tx, geom_rx, dl_angle, ul_angle, grid):
    """w^H H[n] f per tap n, H the (n_taps, n_rx, n_tx) sum of the rays' g e_rx(aoa) e_tx(aod)^H."""
    taps = [round(r.delay_s / grid.sampling_interval) for r in rays]
    on_tap = np.eye(max(taps) + 1)[taps]
    gains = np.array([r.gain for r in rays])
    e_rx = np.array([array_response(geom_rx, r.aoa) for r in rays])
    e_tx = np.array([array_response(geom_tx, r.aod) for r in rays])
    mimo = np.einsum("r,rn,ri,rj->nij", gains, on_tap, e_rx, e_tx.conj())
    w = array_response(geom_rx, ul_angle) / np.sqrt(geom_rx.n_elements)
    f = array_response(geom_tx, dl_angle) / np.sqrt(geom_tx.n_elements)
    return np.einsum("i,nij,j->n", w.conj(), mimo, f)


def test_apply_beams_equals_the_beamformed_mimo_channel(tmp_path):
    g = grid256()
    geom_tx, geom_rx = ArrayGeometry(2, 3, 0.5), ArrayGeometry(4, 1, 0.7)
    ts = g.sampling_interval
    # two rays on tap 5 (delays 5 and 5.2 samples) behind a line of sight on tap 3
    path = tmp_path / "taps.csv"
    save_taps(
        [
            Ray(gain=3e-3 + 1e-3j, delay_s=3 * ts, aoa=0.2, aod=-0.1, is_los=True),
            Ray(gain=-4e-4j, delay_s=5 * ts, aoa=-0.7, aod=0.9),
            Ray(gain=2e-4, delay_s=5.2 * ts, aoa=0.5, aod=0.3),
            Ray(gain=1e-5 - 3e-5j, delay_s=9 * ts, aoa=1.1, aod=-1.2),
        ],
        path,
    )
    ray_sets = [synth_channel(ChannelProfile(), g, seed) for seed in range(6)]
    ray_sets.append(load_taps(path))
    for rays in ray_sets:
        taps = apply_beams(rays, geom_tx, geom_rx, 0.4, -0.4, g)
        ref = beamformed_mimo_taps(rays, geom_tx, geom_rx, 0.4, -0.4, g)
        assert taps.shape == ref.shape
        assert np.linalg.norm(taps - ref) <= 1e-13 * np.linalg.norm(ref)
    # the taps ahead of the line of sight are exactly zero
    assert len(taps) == 10 and not taps[:3].any() and taps[3] != 0


# ---------------------------------------------------------------- synthesis, IO


def test_synth_channel_structure_and_determinism():
    g = grid256()
    prof = ChannelProfile(n_rays=5, los_gain_db=-52.0, nlos_start_db=-28.0)
    rays = synth_channel(prof, g, seed=11)
    assert len(rays) == 5
    assert rays[0].is_los and rays[0].delay_s == 0.0
    assert abs(rays[0].gain) == pytest.approx(10 ** (-52 / 20))
    # first NLoS sits 28 dB below LoS, later ones decay 6 dB per step
    assert abs(rays[1].gain) == pytest.approx(10 ** ((-52 - 28) / 20))
    assert abs(rays[2].gain) == pytest.approx(10 ** ((-52 - 28 - 6) / 20))
    steps = [round(r.delay_s / g.sampling_interval) for r in rays]
    assert steps == [0, 4, 8, 12, 16]
    again = synth_channel(prof, g, seed=11)
    assert all(a.gain == b.gain for a, b in zip(rays, again))
    other = synth_channel(prof, g, seed=12)
    assert any(a.gain != b.gain for a, b in zip(rays, other))


def test_ray_csv_roundtrip(tmp_path):
    g = grid256()
    rays = synth_channel(ChannelProfile(), g, seed=2)
    path = tmp_path / "taps.csv"
    save_taps(rays, path)
    back = load_taps(path)
    assert len(back) == len(rays)
    for a, b in zip(rays, back):
        assert a.gain == b.gain
        assert a.delay_s == b.delay_s
        assert a.aoa == b.aoa and a.aod == b.aod
        assert a.is_los == b.is_los


def test_rays_with_numpy_scalar_fields_save_and_load(tmp_path):
    # numpy 2's repr of a numpy scalar, np.float64(0.0), is no float literal
    rays = [
        Ray(gain=np.complex128(0.5 - 0.25j), delay_s=np.float64(0.0), aoa=np.float64(0.1),
            aod=np.float32(-0.5), is_los=True),
        Ray(gain=0.01j, delay_s=np.float64(4e-9), aoa=-0.3, aod=0.2),
    ]
    path = tmp_path / "taps.csv"
    save_taps(rays, path)
    assert "np." not in path.read_text()
    back = load_taps(path)
    for a, b in zip(rays, back, strict=True):
        assert (a.gain, a.delay_s, a.aoa, a.aod, a.is_los) == (
            b.gain, b.delay_s, b.aoa, b.aod, b.is_los
        )


def test_load_taps_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_taps(path)
    path.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="line 1"):
        load_taps(path)
    path.write_text(
        "ray,delay_s,gain_re,gain_im,aoa_rad,aod_rad,is_los\n0,0.0,1.0,oops,0,0,1\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        load_taps(path)
    # float() reads nan and inf; the line that holds one is named
    for row, what in [("1,nan,0.1,0,0,0,0", "delay_s must be finite, got nan"),
                      ("1,1e-8,inf,0,0,0,0", "gain_re must be finite, got inf")]:
        path.write_text(
            "ray,delay_s,gain_re,gain_im,aoa_rad,aod_rad,is_los\n0,0.0,1.0,0,0,0,1\n" + row + "\n"
        )
        with pytest.raises(ValueError, match=f"^{path}: line 3: {what}$"):
            load_taps(path)
