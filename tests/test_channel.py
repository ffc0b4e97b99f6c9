import numpy as np
import pytest

from flexsic.channel import (
    ArrayGeometry,
    BeamVector,
    ChannelProfile,
    Ray,
    apply_beams,
    array_response,
    build_mimo_taps,
    conjugate_beam,
    load_taps,
    normalize_beam,
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


def test_conjugate_beam_maximizes_gain():
    geom = ArrayGeometry(rows=2, cols=2)
    angle = 0.4
    beam = conjugate_beam(geom, angle)
    matched = abs(np.conj(beam.weights) @ array_response(geom, angle))
    assert matched == pytest.approx(np.sqrt(geom.n_elements))
    for other in (-0.5, 0.0, 1.0):
        off = abs(np.conj(beam.weights) @ array_response(geom, other))
        assert off <= matched + 1e-12


def test_beam_vector_modulus_constraint():
    with pytest.raises(ValueError, match="unit modulus"):
        BeamVector(weights=np.array([1.0, 0.5]))
    beam = normalize_beam(np.array([1.0, 2j, -3.0]))
    assert np.allclose(np.abs(beam.weights), 1 / np.sqrt(3))
    with pytest.raises(ValueError, match="zero"):
        normalize_beam(np.array([1.0, 0.0]))


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
    with pytest.raises(ValueError, match="cyclic prefix"):
        build_mimo_taps(rays, geom, geom, g)


# ---------------------------------------------------------------- effective channel


def test_siso_los_channel_is_flat():
    g = grid256()
    geom = ArrayGeometry(1, 1)
    mimo = build_mimo_taps(los_only(gain=0.5 + 0.1j), geom, geom, g)
    taps = apply_beams(mimo, BeamVector([1.0]), BeamVector([1.0]))
    assert len(taps) == 1
    assert taps[0] == pytest.approx(0.5 + 0.1j)
    assert np.allclose(np.fft.fft(taps, n=g.num_subcarriers), 0.5 + 0.1j)


def test_beam_dimension_mismatch_is_reported():
    g = grid256()
    mimo = build_mimo_taps(los_only(), ArrayGeometry(2, 2), ArrayGeometry(2, 2), g)
    with pytest.raises(ValueError, match="do not\n?\\s*match"):
        apply_beams(mimo, BeamVector([1.0]), conjugate_beam(ArrayGeometry(2, 2), 0.0))


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
