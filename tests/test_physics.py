"""Uncertainty-relation momentum and energy pipeline in CGS units."""

import math

import pytest

from codonlab import (
    InvalidParamsError,
    PhysicalParams,
    erg_to_ev,
    erg_to_joule,
    fluctuation_energy,
    kinetic_energy,
    momentum_uncertainty,
    scale_comparison,
)


def test_default_momentum_uncertainty():
    params = PhysicalParams()
    dp = momentum_uncertainty(params)
    assert dp == params.hbar / params.delta_x
    assert abs(dp / 6.2e-20 - 1.0) <= 0.02


def test_default_fluctuation_energy():
    params = PhysicalParams()
    energy = fluctuation_energy(params)
    dp = momentum_uncertainty(params)
    assert energy == dp * dp / (2.0 * params.mass)
    assert abs(energy / 1.2e-15 - 1.0) <= 0.05


def test_energy_is_far_below_the_bond_scale():
    params = PhysicalParams()
    ratio = fluctuation_energy(params) / params.hbond_energy
    assert abs(ratio / (1.2e-15 / 7e-14) - 1.0) <= 0.05
    assert ratio < 0.1


def test_momentum_halves_when_confinement_doubles():
    params = PhysicalParams()
    wider = PhysicalParams(delta_x=2.0 * params.delta_x)
    assert momentum_uncertainty(wider) == pytest.approx(
        momentum_uncertainty(params) / 2.0, rel=1e-15
    )


def test_kinetic_energy_scales_quadratically():
    assert kinetic_energy(0.0, 1.0) == 0.0
    base = kinetic_energy(3e-20, 1.67e-24)
    assert kinetic_energy(6e-20, 1.67e-24) == pytest.approx(4.0 * base, rel=1e-15)


def test_energy_decreases_with_length_scale():
    energies = [
        fluctuation_energy(PhysicalParams(delta_x=1.7e-8 * c)) for c in (1, 2, 3, 5, 10)
    ]
    assert all(b < a for a, b in zip(energies, energies[1:]))


# --- scale comparison ---------------------------------------------------------


def test_scale_three_gives_exact_one_ninth():
    comparison = scale_comparison(PhysicalParams(), 3.0)
    assert comparison.energy_ratio == 1.0 / 9.0
    assert comparison.energy_scaled == comparison.energy_base * (1.0 / 9.0)


def test_scaled_energy_matches_direct_evaluation():
    params = PhysicalParams()
    for factor in (2.0, 3.0, 7.5):
        comparison = scale_comparison(params, factor)
        direct = fluctuation_energy(
            PhysicalParams(
                hbar=params.hbar,
                delta_x=params.delta_x * factor,
                mass=params.mass,
                hbond_energy=params.hbond_energy,
            )
        )
        assert comparison.energy_scaled == pytest.approx(direct, rel=1e-12)


def test_scale_comparison_hbond_ratios():
    params = PhysicalParams()
    comparison = scale_comparison(params, 3.0)
    assert comparison.base_to_hbond == fluctuation_energy(params) / params.hbond_energy
    assert comparison.scaled_to_hbond == comparison.energy_scaled / params.hbond_energy
    assert comparison.scaled_to_hbond < comparison.base_to_hbond


def test_scale_factor_must_be_positive():
    for bad in (0.0, -1.0, math.nan, math.inf, 10**400, "3", None, True):
        with pytest.raises(InvalidParamsError):
            scale_comparison(PhysicalParams(), bad)


# --- parameter validation and conversions ---------------------------------------


@pytest.mark.parametrize("field", ["hbar", "delta_x", "mass", "hbond_energy"])
@pytest.mark.parametrize("value", [0.0, -1e-20, math.nan, math.inf,
                                   pytest.param(10**400, id="10**400"), "1", None, True])
def test_params_must_be_positive(field, value):
    with pytest.raises(InvalidParamsError):
        PhysicalParams(**{field: value})


def test_overflowing_results_are_rejected():
    with pytest.raises(InvalidParamsError):
        momentum_uncertainty(PhysicalParams(hbar=1e300, delta_x=1e-300))
    with pytest.raises(InvalidParamsError):
        kinetic_energy(1e200, 1.0)
    with pytest.raises(InvalidParamsError):
        scale_comparison(PhysicalParams(), 1e-200)
    with pytest.raises(InvalidParamsError):
        scale_comparison(PhysicalParams(hbar=1e-10, hbond_energy=1e-300), 1.0)
    with pytest.raises(InvalidParamsError):
        erg_to_ev(1e300)


def test_kinetic_energy_rejects_bad_mass():
    for bad in (0.0, 10**400, "2", None):
        with pytest.raises(InvalidParamsError):
            kinetic_energy(1e-20, bad)


def test_energy_helpers_refuse_non_numbers():
    for bad in ("2", None, 10**400):
        for call in (lambda: kinetic_energy(bad, 1.0), lambda: erg_to_ev(bad),
                     lambda: erg_to_joule(bad)):
            with pytest.raises(InvalidParamsError):
                call()


def test_unit_conversions():
    assert erg_to_joule(1e7) == 1.0
    assert erg_to_joule(1.0) == 1e-7
    assert erg_to_ev(1.602176634e-12) == 1.0
    assert erg_to_ev(0.0) == 0.0
