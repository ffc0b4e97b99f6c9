"""Flexible-duplex OFDM baseband with low-complexity nonlinear SI cancellation.

The package splits into small layers: ofdm (grids, transforms, QAM),
impairments (IQ imbalance and the odd-order amplifier polynomial), channel
(rays, arrays, beamformed channel taps), imd (distortion bases, tuple-count
and power-prediction tables, the impulse pilot), sic (estimators, basis
selection, the running canceller and baselines), counters (arithmetic
accounting), and scenario/cli (end-to-end runs, where the channel acts as
one complex gain per subcarrier). Signals are plain complex arrays, one
symbol per row.
"""

from .channel import (
    ArrayGeometry,
    BeamVector,
    ChannelProfile,
    Ray,
    apply_beams,
    array_response,
    build_mimo_taps,
    conjugate_beam,
    load_taps,
    save_taps,
    synth_channel,
    validate_rays,
)
from .counters import OpCounter
from .imd import (
    basis_chain,
    impulse_pilot,
    lambda_dl,
    mu_tables,
    pilot_profile,
    predict_si_power,
    q_size,
)
from .impairments import (
    apply_iq_time,
    apply_pa,
    default_measured_pa,
    irr_to_b,
)
from .ofdm import (
    SubcarrierGrid,
    dft,
    gen_qam_symbols,
    idft,
    qam_constellation,
)
from .scenario import (
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
from .sic import (
    SingularSystemError,
    TrainingBuffer,
    baseline_full_ls,
    baseline_linear,
    basis_stack,
    estimate_channel,
    estimate_iq,
    estimate_linear_channel,
    estimate_pa,
    ls_solve,
    precombine,
    run_full_ls,
    run_sic,
    select_basis,
)

__version__ = "0.1.0"
