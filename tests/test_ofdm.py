import numpy as np
import pytest
from hypothesis import given, strategies as st

from flexsic.ofdm import (
    SubcarrierGrid,
    dft,
    gen_qam_symbols,
    idft,
    qam_constellation,
)
from flexsic.scenario import DUPLEX_PRESETS, duplex_allocation
from oracles import dft_ref, idft_ref, mirror_values


def small_grid(p=16, dl=(2, 6), ul=(10, 14)):
    return SubcarrierGrid(p, 15e3, 4, dl, ul)


# ---------------------------------------------------------------- grid


def test_grid_basic_properties():
    g = small_grid()
    assert g.dl_size == 5
    assert g.ul_size == 5
    assert list(g.dl_indices) == [2, 3, 4, 5, 6]
    assert g.dl_mask.sum() == 5
    assert g.dl_mask[2] and g.dl_mask[6] and not g.dl_mask[7]
    assert 10 in g.ul_indices and 9 not in g.ul_indices
    assert g.sampling_interval == pytest.approx(1.0 / (16 * 15e3))


@pytest.mark.parametrize("p", [64, 256, 1024, 4096])
def test_band_slices_select_the_index_arrays(p):
    # every preset, plus a one-subcarrier band, bands ending at P - 1 and
    # bands starting at 0
    spans = [duplex_allocation(preset, p) for preset in DUPLEX_PRESETS]
    spans += [((5, 5), (p - 1, p - 1)), ((0, p // 2), (p // 4, p - 1)), ((0, 0), (0, p - 1))]
    axis = np.arange(p)
    for dl, ul in spans:
        g = SubcarrierGrid(p, 15e3, 4, dl, ul)
        assert np.array_equal(axis[g.dl_band], g.dl_indices)
        assert np.array_equal(axis[g.ul_band], g.ul_indices)
        assert np.array_equal(np.flatnonzero(g.dl_mask), g.dl_indices)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_subcarriers=0),
        dict(subcarrier_spacing=0.0),
        dict(cp_length=0),
        dict(cp_length=16),
        dict(dl_set=(6, 2)),
        dict(dl_set=(2, 16)),
        dict(ul_set=(-1, 4)),
    ],
)
def test_grid_rejects_bad_parameters(kwargs):
    base = dict(
        num_subcarriers=16, subcarrier_spacing=15e3, cp_length=4,
        dl_set=(2, 6), ul_set=(10, 14),
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        SubcarrierGrid(**base)


# ---------------------------------------------------------------- mirror


@given(st.integers(min_value=2, max_value=64), st.integers(0, 2**32 - 1))
def test_mirror_values_matches_indexwise_map(p, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    mirrored = mirror_values(v)
    for q in range(p):
        assert mirrored[q] == v[(p - q) % p]


# ---------------------------------------------------------------- transforms


def test_dft_single_tone_convention():
    # x[n] = e^{+j 2 pi 3 n / P}  ->  X[3] = P, everything else 0
    p = 16
    n = np.arange(p)
    spec = dft(np.exp(2j * np.pi * 3 * n / p))
    assert spec[3] == pytest.approx(p)
    others = np.delete(spec, 3)
    assert np.max(np.abs(others)) < 1e-10


@given(st.integers(min_value=2, max_value=128), st.integers(0, 2**32 - 1))
def test_transforms_roundtrip_and_match_reference(p, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    time = idft(values)
    back = dft(time)
    assert np.allclose(back, values, atol=1e-9 * max(1.0, np.abs(values).max()))
    assert np.allclose(time, idft_ref(values), atol=1e-9)
    assert np.allclose(dft(time), dft_ref(time), atol=1e-9)


@given(st.integers(min_value=2, max_value=128), st.integers(0, 2**32 - 1))
def test_parseval_scaling(p, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    time = idft(values)
    lhs = np.sum(np.abs(time) ** 2)
    rhs = np.sum(np.abs(values) ** 2) / p
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transforms_act_row_by_row_on_stacks():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    time = idft(stack)
    assert time.shape == (3, 16)
    for row, spectrum in zip(time, stack):
        assert np.array_equal(row, idft(spectrum))
    assert np.array_equal(dft(time)[1], dft(time[1]))


# ---------------------------------------------------------------- QAM


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_constellation_unit_power(order):
    pts = qam_constellation(order)
    assert len(pts) == order
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)
    # square grid: as many distinct rails as sqrt(order)
    assert len(np.unique(np.round(pts.real, 12))) == int(np.sqrt(order))


def test_qam_rejects_unknown_order():
    with pytest.raises(ValueError):
        qam_constellation(8)


def test_gen_qam_symbols_support_and_determinism():
    g = small_grid()
    syms = gen_qam_symbols(g, 16, amplitude=2.0, count=5, seed=9)
    assert syms.shape == (5, 16)
    off_band = np.delete(syms, g.dl_indices, axis=1)
    assert np.all(off_band == 0)
    assert np.all(np.abs(syms[:, g.dl_indices]) > 0)
    again = gen_qam_symbols(g, 16, amplitude=2.0, count=5, seed=9)
    assert np.array_equal(syms, again)
    other = gen_qam_symbols(g, 16, amplitude=2.0, count=5, seed=10)
    assert any(not np.array_equal(a, b) for a, b in zip(syms, other))


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("block", [1, 4, 64])
def test_qam_draws_split_across_calls_bit_for_bit(block, order):
    # the run window draws its symbols block by block from one generator,
    # into a buffer it reuses; together they must be the symbols of one call
    g = SubcarrierGrid(256, 15e3, 20, (10, 200), (0, 5))
    assert g.dl_size % 2 == 1
    count = 70
    whole = gen_qam_symbols(g, order, amplitude=1.5, count=count, seed=9)
    rng = np.random.default_rng(9)
    buffer = np.full((block, 256), 7.0 + 7.0j)  # stale values must not survive
    parts = []
    for start in range(0, count, block):
        n = min(block, count - start)
        rows = gen_qam_symbols(g, order, amplitude=1.5, count=n, seed=rng, out=buffer[:n])
        assert rows.base is buffer or rows is buffer
        parts.append(rows.copy())
    assert np.array_equal(np.concatenate(parts), whole)


def test_gen_qam_symbols_power_statistics():
    g = SubcarrierGrid(64, 15e3, 8, (8, 55), (8, 55))
    syms = gen_qam_symbols(g, 16, amplitude=3.0, count=400, seed=1)
    powers = np.abs(syms[:, g.dl_indices]) ** 2
    assert np.mean(powers) == pytest.approx(9.0, rel=0.02)
