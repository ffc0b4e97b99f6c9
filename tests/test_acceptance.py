"""Acceptance suite: one test per headline requirement of the library.

Each test checks a single quantitative claim at its stated tolerance,
prints one summary line with the measured numbers, and enforces a wall
clock budget. The tests are self-contained and deliberately verbose in
their failure messages: a red test here should explain itself without a
debugger.

Known red: the fifth-order basis-power prediction on the split (sbfd)
allocation at b = 0 deviates from Monte Carlo by about -9%, outside the
5% tolerance. The deviation is intrinsic to the recursion's independence
approximation, not a sampling artifact (61 standard errors at 1e6
symbols); test_predicted_basis_powers_match_monte_carlo documents it in
its assertion message and fails honestly.
"""

import time
from dataclasses import replace

import numpy as np

from flexsic.channel import (
    ArrayGeometry,
    ChannelProfile,
    apply_beams,
    build_mimo_taps,
    conjugate_beam,
    synth_channel,
)
from flexsic.counters import OpCounter
from flexsic.imd import (
    impulse_pilot,
    mu_tables,
    q_size,
)
from flexsic.impairments import (
    apply_pa,
    default_measured_pa,
    irr_to_b,
)
from flexsic.ofdm import (
    SubcarrierGrid,
    gen_qam_symbols,
)
from flexsic.scenario import ScenarioSpec, run_scenario
from flexsic.sic import (
    TrainingBuffer,
    estimate_iq,
    estimate_pa,
    precombine,
    basis_stack,
    run_sic,
    select_basis,
)
from oracles import (
    apply_iq_freq,
    basis_recursion,
    brute_q_size,
    impulse_pilot_basis,
    mc_mu,
    mirror_values,
    mu_tables_conv,
    rx_body_loop,
    whole_grid_chain,
)

NOISE_DBM = -90.0
PA_TRUTH = np.array([35.89, -2.24, 0.0015])  # a[k] = a_{2k+1}


def _finish(t0: float, budget_s: float, label: str, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] {label}: PASS  ({detail}; {elapsed:.1f}s / {budget_s:.0f}s)")
    assert elapsed < budget_s, (
        f"{label} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
    )


def test_intermodulation_tuple_counts_match_enumeration():
    """Recursive tuple-set sizes equal brute-force enumeration exactly.

    P = 64, downlink widths 4, 8 and 16, orders k = 1, 2 everywhere and
    k = 3 for width 8; every row must also sum to |DL|^(2k+1).
    """
    t0 = time.perf_counter()
    checked = []
    for width in (4, 8, 16):
        grid = SubcarrierGrid(64, 120e3, 8, (10, 10 + width - 1), (40, 48))
        k_top = 3 if width == 8 else 2
        qs = q_size(grid, k_top)
        for k in range(k_top + 1):
            total = int(np.sum(qs[k].astype(object)))
            expect = width ** (2 * k + 1)
            assert total == expect, (
                f"|DL|={width}, k={k}: counts sum to {total}, expected {expect}"
            )
        for k in range(1, k_top + 1):
            brute = brute_q_size(grid, k)
            assert np.array_equal(qs[k].astype(np.int64), brute.astype(np.int64)), (
                f"|DL|={width}, k={k}: recursive tuple counts differ from "
                f"enumeration on {int(np.sum(qs[k] != brute))} subcarriers"
            )
            checked.append((width, k))
    detail = "exact match and counting identity for " + ", ".join(
        f"|DL|={w} k={k}" for w, k in checked
    )
    _finish(t0, 120.0, "tuple counts", detail)


def test_recursive_basis_matches_direct_computation():
    """Recursive distortion bases agree with the direct computation.

    50 random 16-QAM symbols on the P = 256 full-overlap grid with IQ
    imbalance, orders up to k = 3. Agreement is required to 1e-8 of each
    order's peak magnitude, and elementwise to 1e-8 relative on every bin
    carrying at least 1e-3 of the peak (bins below that are dominated by
    cancellation and carry no usable signal either way).
    """
    t0 = time.perf_counter()
    grid = ScenarioSpec(duplex="ibfd").build_grid()
    b_iq = irr_to_b(25.0, 0.3)
    worst_norm = 0.0
    worst_elem = 0.0
    for seed in range(50):
        sym = gen_qam_symbols(grid, 16, 1.0, 1, 4000 + seed)[0]
        xiq = sym + b_iq * np.conj(mirror_values(sym))
        recursion = basis_recursion(xiq, 3)
        chain = whole_grid_chain(xiq, 3)
        for k in range(4):
            direct = chain[k]
            diff = np.abs(recursion[k] - direct)
            peak = float(np.max(np.abs(direct)))
            worst_norm = max(worst_norm, float(np.max(diff)) / peak)
            strong = np.abs(direct) >= 1e-3 * peak
            worst_elem = max(
                worst_elem, float(np.max(diff[strong] / np.abs(direct[strong])))
            )
    assert worst_norm <= 1e-8, (
        f"recursive basis deviates from direct computation by {worst_norm:.3e} "
        "of the peak magnitude (tolerance 1e-8)"
    )
    assert worst_elem <= 1e-8, (
        f"recursive basis elementwise relative error {worst_elem:.3e} on "
        "strong bins (tolerance 1e-8)"
    )
    _finish(
        t0,
        60.0,
        "basis recursion",
        f"50 symbols, k <= 3: max {worst_norm:.1e} of peak, "
        f"max {worst_elem:.1e} relative on strong bins",
    )


def test_predicted_basis_powers_match_monte_carlo():
    """Closed-form basis powers against 1e6-symbol Monte Carlo.

    Both duplex presets, with and without IQ imbalance (image rejection
    25 dB), orders k = 1 and 2. Tolerance per uplink subcarrier:
    |MC - prediction| <= max(5% of prediction, 3 standard errors); the
    b = 0, k = 1 cases must additionally sit within 3 standard errors
    everywhere (the prediction is exact there).

    The same Monte Carlo settles which second-moment weighting the
    recursion's in-band term should use: scaling by the composed
    per-subcarrier power (1 + |b|^2)^2 a^4 ("biq") or by a^4 alone
    ("a4"). On the full-overlap allocation, where that term acts on the
    uplink band and the rest of the recursion is accurate, "biq" must
    beat "a4" at both orders. On the split allocation the term vanishes
    on the uplink band at k = 1 (identical predictions) and at k = 2 the
    comparison is confounded by the fifth-order deficit below.
    """
    t0 = time.perf_counter()
    n_sym = 1_000_000
    cases = []
    mode_devs = {}
    for duplex in ("ibfd", "sbfd"):
        grid = ScenarioSpec(duplex=duplex).build_grid()
        ul = grid.ul_indices
        for b_label, b_iq in (("b=0", 0.0), ("irr25", irr_to_b(25.0, 0.3))):
            mc, se = mc_mu(grid, b_iq, n_sym, seed=77, k_max=2)
            pred = mu_tables(grid, b_iq, 1.0, 2)
            if b_label == "irr25":
                pred_a4 = mu_tables_conv(grid, b_iq, 1.0, 2, "a4")
                for k in (1, 2):
                    mode_devs[(duplex, k)] = (
                        float(np.max(np.abs(mc[k, ul] - pred[k, ul]) / pred[k, ul])),
                        float(
                            np.max(np.abs(mc[k, ul] - pred_a4[k, ul]) / pred_a4[k, ul])
                        ),
                    )
            for k in (1, 2):
                dev = mc[k, ul] - pred[k, ul]
                rel = np.abs(dev) / pred[k, ul]
                z = np.abs(dev) / se[k, ul]
                ok = bool(
                    np.all(np.abs(dev) <= np.maximum(0.05 * pred[k, ul], 3.0 * se[k, ul]))
                )
                if b_label == "b=0" and k == 1:
                    ok = ok and bool(np.all(z <= 3.0))
                cases.append((duplex, b_label, k, float(rel.max()), float(z.max()), ok))

    for k in (1, 2):
        biq_dev, a4_dev = mode_devs[("ibfd", k)]
        assert biq_dev < a4_dev, (
            f"moment weighting: on the full-overlap uplink band at k={k} the "
            f"'biq' prediction should track Monte Carlo more closely than 'a4' "
            f"(got biq {biq_dev:.4f} vs a4 {a4_dev:.4f})"
        )

    table = "\n".join(
        f"  {duplex:5s} {b_label:6s} k={k}: max|dev|/pred {rel * 100:6.2f}%  "
        f"max|dev|/se {z:6.1f}  -> {'ok' if ok else 'OUT OF TOLERANCE'}"
        for duplex, b_label, k, rel, z, ok in cases
    )
    print("[acceptance] basis power prediction vs Monte Carlo (1e6 symbols/case):")
    print(table)
    all_ok = all(ok for *_, ok in cases)
    print(
        f"[acceptance] basis powers: {'PASS' if all_ok else 'FAIL'}  "
        f"({sum(ok for *_, ok in cases)}/{len(cases)} cases within tolerance; "
        f"{time.perf_counter() - t0:.0f}s / 600s)"
    )
    assert all_ok, (
        "basis-power prediction outside tolerance on at least one case:\n"
        + table
        + "\n  The failing case is the fifth order on the split allocation at "
        "b = 0: the prediction overstates the measured power by ~9%, far "
        "beyond sampling noise (61 standard errors at 1e6 symbols). The "
        "recursion treats subcarrier products as independent when folding "
        "third-order powers into fifth-order ones; the neglected pairings "
        "matter most where only spectral regrowth reaches the uplink band. "
        "All other cases, including every third-order case and both "
        "allocations with IQ imbalance, are within tolerance."
    )
    assert time.perf_counter() - t0 < 600.0


def test_impulse_pilot_closed_form_basis_is_exact():
    """Closed-form pilot bases equal the direct computation to 1e-9.

    P = 256 full-overlap grid, IQ imbalance at 25 dB image rejection,
    orders k = 0, 1, 2.
    """
    t0 = time.perf_counter()
    grid = ScenarioSpec(duplex="ibfd").build_grid()
    b_iq = irr_to_b(25.0, 0.3)
    a_digi = 1.1
    chain = whole_grid_chain(apply_iq_freq(impulse_pilot(grid, a_digi), b_iq), 2)
    worst = 0.0
    for k in (0, 1, 2):
        closed = impulse_pilot_basis(grid, b_iq, a_digi, k)
        direct = chain[k]
        peak = float(np.max(np.abs(direct)))
        support = np.abs(direct) > 1e-6 * peak
        rel = float(np.max(np.abs(closed - direct)[support] / np.abs(direct[support])))
        norm = float(np.max(np.abs(closed - direct))) / peak
        worst = max(worst, rel, norm)
        assert rel <= 1e-9 and norm <= 1e-9, (
            f"pilot closed form deviates from direct basis at k={k}: "
            f"{rel:.3e} relative on support, {norm:.3e} of peak (tolerance 1e-9)"
        )
    _finish(t0, 10.0, "pilot closed form", f"k <= 2, max deviation {worst:.1e}")


def test_cancellers_reach_noise_floor_across_duplex_modes():
    """End-to-end cancellation at desk scale, 20 seeds averaged.

    P = 256, measured amplifier polynomial, 25 dB image rejection,
    synthetic 5-tap channel, -90 dBm noise at 23 dBm transmit power.
    Claims checked on the seed-averaged uplink residual PSD:
      - proposed canceller within 3 dB of noise on >= 90% of uplink
        subcarriers in all three duplex modes;
      - linear baseline at least 6 dB worse than proposed in full overlap;
      - linear baseline moves the split-allocation uplink band by < 1 dB
        (it cannot touch out-of-band distortion);
      - amplifier-only variant (no IQ estimate) within 3 dB of the linear
        baseline in full overlap;
      - IQ-only variant no better than the linear baseline on the split
        allocation.
    """
    t0 = time.perf_counter()
    cancellers = ("none", "linear", "proposed", "pa_only", "iq_only")
    avg = {}
    for mode in ("ibfd", "sbfd", "overlap"):
        base = ScenarioSpec(duplex=mode, cancellers=cancellers)
        acc = {c: None for c in cancellers}
        for seed in range(1, 21):
            rep = run_scenario(replace(base, seed=seed))
            for c in cancellers:
                mw = 10.0 ** (np.asarray(rep.psd_dbm[c]) / 10.0)
                acc[c] = mw if acc[c] is None else acc[c] + mw
        avg[mode] = {c: acc[c] / 20.0 for c in cancellers}

    def mean_db(mode: str, canceller: str) -> float:
        return float(10.0 * np.log10(np.mean(avg[mode][canceller])))

    fracs = {}
    for mode in ("ibfd", "sbfd", "overlap"):
        psd_db = 10.0 * np.log10(avg[mode]["proposed"])
        fracs[mode] = float(np.mean(psd_db <= NOISE_DBM + 3.0))
        assert fracs[mode] >= 0.90, (
            f"{mode}: proposed canceller within 3 dB of the noise floor on only "
            f"{fracs[mode]:.1%} of uplink subcarriers (need >= 90%); "
            f"mean residual {mean_db(mode, 'proposed'):+.2f} dBm vs noise {NOISE_DBM:+.1f} dBm"
        )

    gap = mean_db("ibfd", "linear") - mean_db("ibfd", "proposed")
    assert gap >= 6.0, (
        f"full overlap: linear baseline only {gap:.2f} dB above the proposed "
        "canceller (expected >= 6 dB)"
    )
    sbfd_linear_move = abs(mean_db("sbfd", "linear") - mean_db("sbfd", "none"))
    assert sbfd_linear_move < 1.0, (
        f"split allocation: linear baseline changed the uplink band by "
        f"{sbfd_linear_move:.2f} dB; it should be inert there (< 1 dB)"
    )
    pa_only_gap = abs(mean_db("ibfd", "pa_only") - mean_db("ibfd", "linear"))
    assert pa_only_gap <= 3.0, (
        f"full overlap: amplifier-only variant sits {pa_only_gap:.2f} dB from "
        "the linear baseline (expected within 3 dB: without the IQ estimate "
        "the mirrored third-order terms stay)"
    )
    iq_only_gap = abs(mean_db("sbfd", "iq_only") - mean_db("sbfd", "linear"))
    assert iq_only_gap <= 1.0, (
        f"split allocation: IQ-only variant deviates from the linear baseline "
        f"by {iq_only_gap:.2f} dB (expected linear-level cancellation only)"
    )
    _finish(
        t0,
        600.0,
        "duplex scenarios",
        "within-3dB fraction "
        + ", ".join(f"{m} {fracs[m]:.2f}" for m in ("ibfd", "sbfd", "overlap"))
        + f"; linear gap {gap:.1f} dB, sbfd linear move {sbfd_linear_move:.2f} dB, "
        f"pa_only gap {pa_only_gap:.2f} dB, iq_only gap {iq_only_gap:.2f} dB",
    )


def test_arithmetic_cost_scaling_and_baseline_comparison():
    """Multiply counts: cheaper than full LS, and the stated scaling laws.

    At P = 2048 (split allocation, k_max = 2) the proposed estimation
    stages must cost fewer multiplies than the per-subcarrier full LS
    baseline. Across uplink widths 64/128/256 at fixed P the polynomial
    stage must not grow and the channel stage must grow linearly. The
    running stage must stay at or below |UL| (k_max + 1) multiplies per
    symbol, strictly below when basis selection has thinned any set.
    """
    t0 = time.perf_counter()
    run_stages = ("run", "run_basis", "full_ls_run", "full_ls_run_basis", "linear_run")
    spec = ScenarioSpec(
        num_subcarriers=2048,
        cp_length=144,
        duplex="sbfd",
        n_run_symbols=2,
        seed=1,
        cancellers=("proposed", "full_ls"),
    )
    rep = run_scenario(spec)
    est = {
        name: ctr.total_mults([s for s in ctr.stages if s not in run_stages])
        for name, ctr in rep.counters.items()
    }
    assert est["proposed"] < est["full_ls"], (
        f"P=2048 estimation multiplies: proposed {est['proposed']:,} is not "
        f"below full LS {est['full_ls']:,}"
    )
    grid_2048 = spec.build_grid()
    run_per_symbol = rep.counters["proposed"].mults("run") / spec.n_run_symbols
    run_bound = grid_2048.ul_size * (spec.k_max + 1)
    assert run_per_symbol < run_bound, (
        f"P=2048 running stage: {run_per_symbol:.0f} multiplies per symbol, "
        f"expected strictly below |UL|(k_max+1) = {run_bound} (selection thins "
        "high orders on far subcarriers)"
    )

    pa_mults = {}
    ch_mults = {}
    for width in (64, 128, 256):
        s = ScenarioSpec(
            num_subcarriers=1024,
            duplex="custom",
            dl_span=(100, 400),
            ul_span=(500, 500 + width - 1),
            n_run_symbols=2,
            seed=3,
            cancellers=("pa_only",),
        )
        r = run_scenario(s)
        pa_mults[width] = r.counters["pa_only"].mults("estimate_pa")
        ch_mults[width] = r.counters["pa_only"].mults("estimate_channel")
    assert pa_mults[64] == pa_mults[128] == pa_mults[256], (
        f"polynomial stage cost varies with the uplink width: {pa_mults}"
    )
    assert ch_mults[128] == 2 * ch_mults[64] and ch_mults[256] == 4 * ch_mults[64], (
        f"channel stage cost is not linear in the uplink width: {ch_mults}"
    )

    grid_hot = SubcarrierGrid(256, 120e3, 32, (20, 80), (90, 200))
    a_digi = 1.2 * 256 / np.sqrt(grid_hot.dl_size)
    mu = mu_tables(grid_hot, 0.0, a_digi, 2)
    h_flat = np.full(grid_hot.ul_size, 0.01, dtype=np.complex128)
    retained = select_basis(PA_TRUTH, mu, h_flat, 5e-6, 2, grid_hot)
    weights = precombine(h_flat, PA_TRUTH, retained, grid_hot)
    counter = OpCounter()
    x = gen_qam_symbols(grid_hot, 16, a_digi, 1, 11)[0]
    run_sic(basis_stack(x, 0.0, 2, grid_hot), weights, grid_hot, counter=counter)
    expected = sum(1 + int(n_kept) for n_kept in retained[1:].sum(axis=0))
    got = counter.mults("run")
    hot_bound = grid_hot.ul_size * 3
    assert got == expected, (
        f"running-stage multiplies {got} != sum over subcarriers of "
        f"(1 + |K_p|) = {expected}"
    )
    assert got < hot_bound, (
        f"running-stage multiplies {got} not strictly below the full-basis "
        f"bound {hot_bound} despite thinned selection"
    )
    _finish(
        t0,
        300.0,
        "arithmetic cost",
        f"P=2048 estimation {est['proposed']:,} < {est['full_ls']:,}; "
        f"polynomial stage constant at {pa_mults[64]:,}; channel stage "
        f"{ch_mults[64]:,}/{ch_mults[128]:,}/{ch_mults[256]:,}; "
        f"run {run_per_symbol:.0f} < {run_bound} and {got} < {hot_bound}",
    )


def test_basis_selection_thins_away_from_downlink():
    """Selected basis sets shrink with distance from the downlink band.

    On a split grid the per-subcarrier kept-order count must be
    non-increasing as the uplink subcarrier moves away from the downlink
    edge, stepping through full, partial and empty sets. At one shared
    threshold the split allocation must keep fewer total orders than the
    full overlap.
    """
    t0 = time.perf_counter()
    grid_hot = SubcarrierGrid(256, 120e3, 32, (20, 80), (90, 200))
    a_digi = 1.2 * 256 / np.sqrt(grid_hot.dl_size)
    mu = mu_tables(grid_hot, 0.0, a_digi, 2)
    retained = select_basis(PA_TRUTH, mu, np.full(grid_hot.ul_size, 0.01), 5e-6, 2, grid_hot)
    sizes = retained[1:].sum(axis=0)
    assert np.all(np.diff(sizes) <= 0), (
        "kept-order count increases away from the downlink edge: "
        f"{sizes.tolist()}"
    )
    assert sizes[0] == 2 and sizes[-1] == 0 and set(sizes) == {0, 1, 2}, (
        f"selection should step through full, partial and empty sets across "
        f"the uplink band; got counts {np.bincount(sizes, minlength=3).tolist()} "
        "for sizes 0/1/2"
    )

    pa = default_measured_pa()
    b_iq = irr_to_b(25.0, 0.3)
    sums = {}
    gamma_shared = None
    for duplex in ("ibfd", "sbfd"):
        g = ScenarioSpec(duplex=duplex).build_grid()
        drive = 0.5 * 256 / np.sqrt(g.dl_size)
        if gamma_shared is None:
            gamma_shared = abs(pa[0] * drive) ** 2 * 10.0 ** (
                (NOISE_DBM - 23.0) / 10.0
            )
        mu_g = mu_tables(g, b_iq, drive, 2)
        sel = select_basis(
            PA_TRUTH, mu_g, np.full(g.ul_size, 0.01), gamma_shared, 2, g
        )
        sums[duplex] = int(sel[1:].sum())
    assert sums["sbfd"] < sums["ibfd"], (
        f"total kept orders at one shared threshold: split {sums['sbfd']} "
        f"should be below full overlap {sums['ibfd']}"
    )
    assert sums["ibfd"] >= ScenarioSpec(duplex="ibfd").build_grid().ul_size > 0
    _finish(
        t0,
        120.0,
        "basis selection",
        f"monotone counts {np.bincount(sizes, minlength=3).tolist()} (sizes 0/1/2); "
        f"shared-threshold totals sbfd {sums['sbfd']} < ibfd {sums['ibfd']}",
    )


def test_amplifier_coefficients_recovered_from_pilots():
    """Impulse-pilot polynomial estimation at desk scale.

    The pilot stage returns the polynomial scaled by the direct path's
    gain h_los, which the synthetic channel's tap 0 holds alone, so it is
    compared with h_los times the truth. Noiseless over a line-of-sight
    channel it must recover {35.89, -2.24, 0.0015} to 1e-6 relative per
    coefficient. At the desk noise level (-90 dBm at 23 dBm transmit)
    with 8 pilots the coefficient vector, weighted by each order's share
    of the amplifier response over the pilot sweep, must land within 5%
    (median over 15 channel draws); the fifth-order term alone sits below
    the noise floor at this SNR and is reported, not asserted. Longer
    training windows must not make the end-to-end residual worse.
    """
    t0 = time.perf_counter()
    spec = ScenarioSpec(duplex="ibfd", n_impulse_symbols=8, n_train_symbols=14)
    grid = spec.build_grid()
    pa = default_measured_pa()
    b_iq = irr_to_b(25.0, 0.3)
    a_digi = 0.5 * 256 / np.sqrt(grid.dl_size)
    unit = abs(pa[0] * a_digi) ** 2
    sigma_t = float(np.sqrt(unit * 10.0 ** ((NOISE_DBM - 23.0) / 10.0) / 256))
    truth = PA_TRUTH

    def build_chan(profile: ChannelProfile, seed: int):
        rays = synth_channel(profile, grid, seed)
        geom = ArrayGeometry(4, 4, 0.5)
        mimo = build_mimo_taps(rays, geom, geom, grid)
        return apply_beams(mimo, conjugate_beam(geom, 0.4), conjugate_beam(geom, -0.4))

    def training(chan, seed, sigma):
        scale = 256 / grid.dl_size
        pilots = impulse_pilot(grid, np.linspace(0.6, 2.0, 8) * scale)
        tx = np.concatenate([pilots, gen_qam_symbols(grid, 16, a_digi, 6, seed + 7000)])
        bodies = rx_body_loop(
            tx, b_iq, lambda t: apply_pa(t, pa), chan, grid.cp_length, sigma,
            np.random.default_rng(seed),
        )
        return TrainingBuffer(grid=grid, tx=tx, rx=np.fft.fft(bodies, axis=-1), n_impulse=8)

    chan_los = build_chan(ChannelProfile(n_rays=1), seed=10)
    buf = training(chan_los, 0, 0.0)
    a_hat = estimate_pa(buf, b_iq, 2)
    scaled = chan_los[0] * truth
    rel_noiseless = np.abs(a_hat - scaled) / np.abs(scaled)
    assert np.all(rel_noiseless <= 1e-6), (
        "noiseless pilot estimation misses a coefficient: relative errors "
        f"{rel_noiseless.tolist()} (tolerance 1e-6)"
    )

    alphas = np.abs(np.linspace(0.6, 2.0, 8) * (1 + b_iq))
    weights = np.array(
        [np.sqrt(np.mean(alphas ** (2 * (2 * k + 1)))) for k in range(3)]
    )
    vec_errs = []
    per_coeff = []
    for seed in range(15):
        chan = build_chan(ChannelProfile(), seed=100 + seed)
        buf = training(chan, seed, sigma_t)
        b_hat = estimate_iq(buf)
        est = estimate_pa(buf, b_hat, 2)
        scaled = chan[0] * truth
        vec_errs.append(
            float(np.linalg.norm(weights * (est - scaled)) / np.linalg.norm(weights * scaled))
        )
        per_coeff.append(np.abs(est - scaled) / np.abs(scaled))
    median_vec = float(np.median(vec_errs))
    med_coeff = np.median(np.array(per_coeff), axis=0)
    print(
        "[acceptance] pilot estimation, noisy per-coefficient median relative "
        f"errors: a1 {med_coeff[0]:.3f}, a3 {med_coeff[1]:.3f}, a5 {med_coeff[2]:.1f} "
        "(a5 below the noise floor at this SNR; asserted via the weighted vector)"
    )
    assert median_vec <= 0.05, (
        f"noisy pilot estimation: median weighted coefficient-vector error "
        f"{median_vec:.4f} over 15 channel draws (tolerance 0.05); "
        f"per-draw errors {np.round(vec_errs, 4).tolist()}"
    )

    residuals = []
    lengths = (10, 12, 16, 20)
    base = ScenarioSpec(
        duplex="ibfd", n_impulse_symbols=8, n_run_symbols=10, cancellers=("proposed",)
    )
    for n_train in lengths:
        vals = []
        for seed in range(8):
            s = replace(base, n_train_symbols=n_train, seed=500 + seed)
            rep = run_scenario(s)
            vals.append(float(np.mean(10.0 ** (np.asarray(rep.psd_dbm["proposed"]) / 10.0))))
        residuals.append(float(np.mean(vals)))
    for i in range(len(lengths) - 1):
        assert residuals[i + 1] <= residuals[i] * 1.05, (
            "mean residual got worse with a longer training window: "
            + ", ".join(
                f"{n}: {r:.3e} mW" for n, r in zip(lengths, residuals)
            )
        )
    _finish(
        t0,
        300.0,
        "amplifier recovery",
        f"noiseless max {rel_noiseless.max():.1e}; noisy weighted median "
        f"{median_vec:.4f} (max {max(vec_errs):.4f}); residual vs training "
        "window " + "/".join(f"{r:.2e}" for r in residuals) + " mW",
    )
