"""Hamiltonian, dressed states, thermal occupation and parameter validation."""
import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from cavity_raman import (
    DegenerateSpectrum,
    DomainError,
    G2_0,
    ModelParams,
    build_hamiltonian,
    dressed_states,
    n_thermal,
)
from reference_values import N_THERMAL_55_83, OMEGA_MINUS_REF, OMEGA_PLUS_REF


def test_hamiltonian_uncoupled_is_diagonal():
    params = ModelParams(g=0.0, omega_drive=0.0, delta_laser=55.0, delta_cavity=40.0)
    h = build_hamiltonian(params)
    assert np.allclose(h, np.diag([0.0, 0.0, 15.0, 55.0]))


def test_hamiltonian_default_entries(paper_params):
    h = build_hamiltonian(paper_params)
    assert h[3, 0] == pytest.approx(1.29)
    assert h[3, 2] == pytest.approx(0.80)
    assert h[3, 3] == pytest.approx(55.0)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_hamiltonian_largest_eigenvalue(paper_params):
    vals = np.linalg.eigvalsh(build_hamiltonian(paper_params))
    assert vals[-1] == pytest.approx(OMEGA_PLUS_REF, abs=1e-10)


def test_hamiltonian_eigenvalues_satisfy_cubic():
    rng = np.random.default_rng(7)
    for _ in range(50):
        drawn = helpers.random_valid_params(rng)
        # The cubic only factors this cleanly with the detunings matched.
        params = replace(drawn, delta_cavity=drawn.delta_laser)
        h = build_hamiltonian(params)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        coupling_sq = (params.omega_drive / 2.0) ** 2 + params.g**2
        delta = params.delta_laser
        for lam in np.linalg.eigvalsh(h):
            residual = lam * (lam * (lam - delta) - coupling_sq)
            assert abs(residual) <= 1e-10 * max(delta, 1.0) ** 3


def test_dressed_frequencies_and_weights(paper_params):
    (_, _, plus), (omega_dark, omega_minus, omega_plus) = dressed_states(paper_params)
    assert omega_plus == pytest.approx(OMEGA_PLUS_REF, abs=1e-10)
    assert omega_minus == pytest.approx(OMEGA_MINUS_REF, abs=1e-10)
    assert abs(omega_dark) < 1e-10
    # |+> is mostly the excited state this far into the dispersive regime.
    assert abs(plus[3]) ** 2 > 0.998


def test_dressed_states_orthonormal_with_empty_g2_slot():
    rng = np.random.default_rng(11)
    for _ in range(50):
        (dark, minus, plus), _ = dressed_states(helpers.random_valid_params(rng))
        basis = np.column_stack([plus, minus, dark])
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.all(basis[G2_0, :] == 0.0)


def test_dressed_dark_state_without_drive():
    (dark, _, _), (omega_dark, _, _) = dressed_states(ModelParams(omega_drive=0.0))
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(dark, expected, atol=1e-12)
    assert omega_dark == pytest.approx(0.0, abs=1e-12)


def test_dressed_degenerate_block_raises():
    with pytest.raises(DegenerateSpectrum):
        dressed_states(ModelParams(g=0.0, omega_drive=0.0))


def test_dressed_perturbative_matches_exact_at_large_detuning():
    rng = np.random.default_rng(13)
    for _ in range(25):
        omega = rng.uniform(0.5, 3.0)
        g = rng.uniform(0.2, 1.5)
        delta = rng.uniform(10.0, 40.0) * max(omega, 2.0 * g)
        params = ModelParams(
            omega_drive=omega, g=g, delta_laser=delta, delta_cavity=delta
        )
        _, (_, omega_minus, omega_plus) = dressed_states(params)
        # Leading-order light shift of the large-detuning expansion.
        shift = ((omega / 2.0) ** 2 + g**2) / delta
        bound = 5.0 * ((omega / 2.0) ** 2 + g**2) / delta**2
        assert abs((delta + shift) / omega_plus - 1.0) < bound
        assert abs(-shift / omega_minus - 1.0) < bound


def test_n_thermal_reference_value():
    assert n_thermal(55.0, 83.0) == pytest.approx(N_THERMAL_55_83, rel=1e-15)


def test_n_thermal_special_points():
    # Occupation one at splitting kT ln 2, for any temperature.
    for kt in (1.0, 83.0, 400.0):
        assert n_thermal(kt * math.log(2.0), kt) == pytest.approx(1.0, abs=1e-14)
    assert n_thermal(5000.0, 83.0) < 1e-26


def test_n_thermal_classical_limit_and_monotonicity():
    kt = 83.0
    for delta in np.linspace(0.1, kt / 10.0, 20):
        classical = kt / delta - 0.5
        assert abs(n_thermal(delta, kt) / classical - 1.0) < 0.02
    grid = np.linspace(0.5, 600.0, 200)
    values = [n_thermal(d, kt) for d in grid]
    assert np.all(np.diff(values) < 0.0)


def test_n_thermal_vanishes_past_expm1_range():
    """Past the largest argument expm1 takes (about 709.78), the occupation
    is zero instead of an OverflowError; below it, 1 / expm1 unchanged."""
    assert n_thermal(800.0, 1.0) == 0.0
    assert n_thermal(1e6, 1e-3) == 0.0
    assert n_thermal(709.0, 1.0) == 1.0 / math.expm1(709.0)
    assert 0.0 < n_thermal(709.0, 1.0) < 1e-307


def test_n_thermal_domain():
    with pytest.raises(DomainError):
        n_thermal(0.0, 83.0)
    with pytest.raises(DomainError):
        n_thermal(55.0, 0.0)


def test_params_reject_negative_rates():
    with pytest.raises(DomainError):
        ModelParams(kappa=-1.0)
    with pytest.raises(DomainError):
        ModelParams(gamma_flip=-0.1)


def test_params_reject_nonfinite_and_bool():
    with pytest.raises(DomainError):
        ModelParams(g=math.nan)
    with pytest.raises(DomainError):
        ModelParams(kT=math.inf)
    with pytest.raises(DomainError):
        ModelParams(g=True)


def test_params_allow_signed_detunings_and_exponent():
    params = ModelParams(delta_laser=-30.0, delta_cavity=-45.0, phonon_n=-0.5)
    assert params.delta_laser == -30.0
    assert params.phonon_n == -0.5


def test_regime_flags(paper_params):
    assert paper_params.adiabatic_valid
    assert paper_params.truncation_valid
    assert not ModelParams(delta_laser=2.58).adiabatic_valid
    assert not ModelParams(gamma_flip=53.7).truncation_valid
