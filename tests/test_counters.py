import pytest

from flexsic.counters import OpCounter, fft_adds, fft_mults, ls_costs


def test_fft_cost_formulas():
    assert fft_mults(256) == 1024  # (256/2) * 8
    assert fft_adds(256) == 2048
    assert fft_mults(1) == 0 and fft_adds(1) == 0
    # non powers of two round the log up
    assert fft_mults(12) == (12 * 4) // 2


def test_ls_cost_formula():
    m, k = 10, 3
    mults, adds = ls_costs(m, k)
    assert mults == 9 * 10 + 3 * 10 + 27
    assert adds == 9 * 9 + 3 * 9 + 27
    assert ls_costs(0, 2)[1] == 8  # max(m - 1, 0) guards the add count


def test_counter_charges_and_totals():
    c = OpCounter()
    c.charge("alpha", mults=5, adds=2)
    c.charge("alpha", mults=1)
    c.charge("beta", adds=7)
    assert c.mults("alpha") == 6
    assert c.adds("alpha") == 2
    assert c.mults("beta") == 0
    assert c.mults("missing") == 0
    assert c.stages == ["alpha", "beta"]
    assert c.total_mults() == 6
    assert c.adds("beta") == 7
    with pytest.raises(ValueError, match="nonnegative"):
        c.charge("alpha", mults=-1)


def test_counter_fft_and_ls_helpers():
    c = OpCounter()
    c.charge_fft("t", 64, count=3)
    assert c.mults("t") == 3 * fft_mults(64)
    assert c.adds("t") == 3 * fft_adds(64)
    mults, adds = ls_costs(8, 2)
    c.charge("t", mults, adds)
    assert c.mults("t") == 3 * fft_mults(64) + mults
    assert c.adds("t") == 3 * fft_adds(64) + adds


def test_counter_rows_are_sorted():
    c = OpCounter()
    c.charge("y", adds=4)
    c.charge("x", mults=11, adds=2)
    c.charge("sub.x", mults=10)
    assert c.rows() == [
        ("sub.x", "multiplies", 10),
        ("sub.x", "adds", 0),
        ("x", "multiplies", 11),
        ("x", "adds", 2),
        ("y", "multiplies", 0),
        ("y", "adds", 4),
    ]
