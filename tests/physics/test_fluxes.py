"""Convective and viscous flux vectors."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.fluxes import (
    combined_rhs_fluxes,
    convective_fluxes,
    viscous_fluxes,
)
from repro.physics.gas import GasProperties
from repro.physics.viscous import stress_tensor


@pytest.fixture()
def gas():
    return GasProperties()


class TestConvective:
    def test_stationary_gas_carries_only_pressure(self):
        n = 8
        fluxes = convective_fluxes(
            rho=np.ones(n),
            velocity=np.zeros((3, n)),
            pressure=np.full(n, 5.0),
            total_energy=np.full(n, 12.0),
        )
        assert np.allclose(fluxes.mass, 0.0)
        assert np.allclose(fluxes.energy, 0.0)
        # momentum flux = p * I
        assert np.allclose(fluxes.momentum[..., 0, 0], 5.0)
        assert np.allclose(fluxes.momentum[..., 0, 1], 0.0)

    def test_uniform_flow_values(self):
        rho = np.array([2.0])
        vel = np.array([[3.0], [0.0], [0.0]])
        p = np.array([10.0])
        e_tot = np.array([50.0])
        fluxes = convective_fluxes(rho, vel, p, e_tot)
        assert fluxes.mass[0, 0] == pytest.approx(6.0)  # rho u
        assert fluxes.momentum[0, 0, 0] == pytest.approx(2 * 9 + 10)
        assert fluxes.energy[0, 0] == pytest.approx((50 + 10) * 3)

    def test_momentum_flux_symmetric(self, rng):
        n = 10
        fluxes = convective_fluxes(
            rho=np.abs(rng.normal(size=n)) + 1.0,
            velocity=rng.normal(size=(3, n)),
            pressure=np.abs(rng.normal(size=n)) + 1.0,
            total_energy=np.abs(rng.normal(size=n)) + 5.0,
        )
        assert np.allclose(
            fluxes.momentum, np.swapaxes(fluxes.momentum, -1, -2)
        )

    def test_velocity_shape_checked(self):
        with pytest.raises(PhysicsError):
            convective_fluxes(
                np.ones(3), np.ones((2, 3)), np.ones(3), np.ones(3)
            )

    def test_stacked_layout(self):
        n = 4
        fluxes = convective_fluxes(
            np.ones(n), np.zeros((3, n)), np.ones(n), np.ones(n)
        )
        stacked = fluxes.stacked()
        assert stacked.shape == (5, n, 3)


class TestViscous:
    def test_mass_flux_is_zero(self, gas, rng):
        n = 6
        fluxes = viscous_fluxes(
            velocity=rng.normal(size=(3, n)),
            grad_u=rng.normal(size=(n, 3, 3)),
            grad_t=rng.normal(size=(n, 3)),
            gas=gas,
        )
        assert np.allclose(fluxes.mass, 0.0)

    def test_heat_conduction_term(self, gas):
        n = 4
        grad_t = np.zeros((n, 3))
        grad_t[:, 0] = 2.0
        fluxes = viscous_fluxes(
            velocity=np.zeros((3, n)),
            grad_u=np.zeros((n, 3, 3)),
            grad_t=grad_t,
            gas=gas,
        )
        assert np.allclose(
            fluxes.energy[:, 0], gas.thermal_conductivity * 2.0
        )
        assert np.allclose(fluxes.momentum, 0.0)

    def test_energy_flux_includes_stress_work(self, gas):
        n = 2
        grad_u = np.zeros((n, 3, 3))
        grad_u[:, 0, 1] = 1.0  # shear du/dy
        vel = np.zeros((3, n))
        vel[1] = 4.0  # v = 4
        fluxes = viscous_fluxes(vel, grad_u, np.zeros((n, 3)), gas)
        # tau_xy = mu; energy flux_x = tau_xy * v
        assert np.allclose(
            fluxes.energy[:, 0], gas.viscosity * 4.0
        )


class TestCombination:
    def test_combined_is_difference(self, gas, rng):
        n = 5
        conv = convective_fluxes(
            np.abs(rng.normal(size=n)) + 1,
            rng.normal(size=(3, n)),
            np.abs(rng.normal(size=n)) + 1,
            np.abs(rng.normal(size=n)) + 5,
        )
        visc = viscous_fluxes(
            rng.normal(size=(3, n)),
            rng.normal(size=(n, 3, 3)),
            rng.normal(size=(n, 3)),
            gas,
        )
        # The net flux is written into the convective set's own buffer,
        # so the expected differences are taken before combining.
        mass = conv.mass - visc.mass
        momentum = conv.momentum - visc.momentum
        energy = conv.energy - visc.energy
        net = combined_rhs_fluxes(conv, visc)
        assert net is conv
        assert np.allclose(net.mass, mass)
        assert np.allclose(net.momentum, momentum)
        assert np.allclose(net.energy, energy)


def _flux_inputs(seed, dtype, shape=(4, 27)):
    """Positive-state primitives and gradients at element-node shape."""
    rng = np.random.default_rng(seed)
    return {
        "rho": (np.abs(rng.normal(size=shape)) + 1.0).astype(dtype),
        "velocity": rng.normal(size=(3,) + shape).astype(dtype),
        "pressure": (np.abs(rng.normal(size=shape)) + 1.0).astype(dtype),
        "total_energy": (np.abs(rng.normal(size=shape)) + 5.0).astype(dtype),
        "grad_u": rng.normal(size=shape + (3, 3)).astype(dtype),
        "grad_t": rng.normal(size=shape + (3,)).astype(dtype),
    }


def _all_fluxes(x, gas):
    """Copies of every array the four flux kernels return for ``x``."""
    tau = stress_tensor(x["grad_u"], gas.viscosity).copy()
    conv = convective_fluxes(
        x["rho"], x["velocity"], x["pressure"], x["total_energy"]
    )
    conv_arrays = [a.copy() for a in (conv.mass, conv.momentum, conv.energy)]
    visc = viscous_fluxes(x["velocity"], x["grad_u"], x["grad_t"], gas)
    visc_arrays = [a.copy() for a in (visc.mass, visc.momentum, visc.energy)]
    net = combined_rhs_fluxes(conv, visc)
    net_arrays = [a.copy() for a in (net.mass, net.momentum, net.energy)]
    return [tau] + conv_arrays + visc_arrays + net_arrays


def _textbook_fluxes(x, gas):
    """The same fluxes as plain allocating numpy expressions, with the
    association the kernels document."""
    grad_u, u = x["grad_u"], np.moveaxis(x["velocity"], 0, -1)
    idx = np.arange(3)
    div_u = np.trace(grad_u, axis1=-2, axis2=-1)
    tau = gas.viscosity * (grad_u + np.swapaxes(grad_u, -1, -2))
    tau[..., idx, idx] -= (2.0 / 3.0) * gas.viscosity * div_u[..., None]
    rho = x["rho"]
    conv = [
        rho[..., None] * u,
        rho[..., None, None] * u[..., :, None] * u[..., None, :],
        (x["total_energy"] + x["pressure"])[..., None] * u,
    ]
    conv[1][..., idx, idx] += x["pressure"][..., None]
    visc = [
        np.zeros_like(u),
        tau,
        np.einsum("...ij,...j->...i", tau, u)
        + gas.thermal_conductivity * x["grad_t"],
    ]
    net = [c - v for c, v in zip(conv, visc)]
    return [tau] + conv + visc + net


class TestTextbookParity:
    """The plane-layout flux kernels return bitwise the values of the
    plain allocating numpy expressions."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fluxes_equal_textbook_bitwise(self, gas, dtype):
        x = _flux_inputs(3, dtype)
        for a, c in zip(_all_fluxes(x, gas), _textbook_fluxes(x, gas)):
            assert a.dtype == np.dtype(dtype)
            assert a.shape == c.shape
            assert np.array_equal(a, c)
