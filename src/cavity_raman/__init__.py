"""Raman photon emission from a driven three-level emitter in a lossy cavity.

Truncated single-excitation master equation, dressed-state phonon coupling,
emission spectra via the quantum regression theorem, Raman rate formulas,
least-squares fitting of the resulting lines, and independent oracles
(full photon ladder, exact time propagation) to check it all against.
"""

from .errors import (
    AmbiguousAssignment,
    CavityRamanError,
    ConfigError,
    DegeneratePeaks,
    DegenerateSpectrum,
    DomainError,
    FitError,
    IllConditioned,
    NoConvergence,
    NonDecaying,
    NonUniqueSteadyState,
    ParseError,
    UnstableLiouvillian,
    VanishingSpontaneous,
)
from .fit import (
    ExponentialFit,
    LorentzianFit,
    PeakFit,
    PhononFit,
    RsPoint,
    fit_emission_lines,
    fit_exponential,
    fit_lorentzian,
    fit_phonon_exponent,
    lorentzian_profile,
    predict_rs,
    rs_ratio,
)
from .liouvillian import phonon_channels, trace_distance
from .model import (
    DIM,
    E_0,
    G1_0,
    G2_0,
    G2_1,
    ModelParams,
    build_hamiltonian,
    dressed_states,
    n_thermal,
)
from .oracle import (
    LadderBasis,
    adiabatic_populations,
    bare_lambda_evolve,
    full_ladder_steady_state,
    ladder_convergence,
    truncation_error,
)
from .rates import (
    PurcellBoundInputs,
    RateReport,
    effective_rabi,
    g_from_lifetimes,
    gamma_bare_bound,
    lifetime_on,
    purcell_factor,
    quality_factor,
    raman_rate_bare,
    raman_rate_bare_ideal,
    raman_rate_cavity,
    rate_report,
)
from .spectrum import (
    FilterWindow,
    Spectrum,
    apply_filter,
    emission_spectrum,
)

__version__ = "0.1.0"
