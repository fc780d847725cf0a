"""The FEM Navier-Stokes spatial operator."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.physics.gas import GasProperties
from repro.physics.state import FlowState
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.solver.navier_stokes import NavierStokesOperator


@pytest.fixture(scope="module")
def operator():
    from repro.mesh.hexmesh import periodic_box_mesh

    mesh = periodic_box_mesh(3, 2)
    return NavierStokesOperator(mesh, DEFAULT_TGV.gas())


@pytest.fixture()
def tgv_state(operator):
    return taylor_green_initial(operator.mesh.coords, DEFAULT_TGV)


class TestStructure:
    def test_wall_mesh_gets_wall_nodes(self):
        from repro.mesh.hexmesh import box_mesh

        op = NavierStokesOperator(box_mesh(2, 2), GasProperties())
        # all six faces of a 5^3-node box are walls
        assert op.wall_nodes.size == 5**3 - 3**3

    def test_periodic_mesh_has_no_walls(self, operator):
        assert operator.wall_nodes.size == 0

    def test_residual_shape(self, operator, tgv_state):
        rhs = operator.residual(tgv_state.as_stacked())
        assert rhs.shape == (5, operator.mesh.num_nodes)

    def test_residual_shape_validation(self, operator):
        with pytest.raises(SolverError):
            operator.residual(np.zeros((5, 3)))

    def test_fused_and_unfused_agree(self, tgv_state):
        from repro.mesh.hexmesh import periodic_box_mesh

        mesh = periodic_box_mesh(3, 2)
        gas = DEFAULT_TGV.gas()
        plain = NavierStokesOperator(mesh, gas, fusion="none")
        fused = NavierStokesOperator(mesh, gas, fusion="gather")
        stacked = tgv_state.as_stacked()
        assert np.allclose(plain.residual(stacked), fused.residual(stacked))


class TestPhysics:
    def test_uniform_state_is_steady(self, operator):
        """Free-stream preservation: a uniform quiescent gas has zero
        residual (no spurious forcing from the discretization)."""
        n = operator.mesh.num_nodes
        state = FlowState.from_primitive(
            np.full(n, 1.0),
            np.zeros((3, n)),
            np.full(n, 300.0),
            operator.gas,
        )
        rhs = operator.residual(state.as_stacked())
        scale = np.abs(state.as_stacked()).max()
        assert np.abs(rhs).max() < 1e-9 * scale

    def test_uniform_flow_is_steady(self, operator):
        """Uniform translation is also a steady state on a periodic mesh."""
        n = operator.mesh.num_nodes
        vel = np.zeros((3, n))
        vel[0] = 3.0
        state = FlowState.from_primitive(
            np.full(n, 1.0), vel, np.full(n, 300.0), operator.gas
        )
        rhs = operator.residual(state.as_stacked())
        assert np.abs(rhs).max() < 1e-8 * np.abs(state.as_stacked()).max()

    def test_mass_residual_sums_to_zero(self, operator, tgv_state):
        """Discrete conservation: the mass equation's assembled residual
        integrates to zero on a periodic mesh."""
        rhs = operator.residual(tgv_state.as_stacked())
        weighted = rhs[0] * operator.mass
        assert weighted.sum() == pytest.approx(0.0, abs=1e-9)

    def test_momentum_residual_integral_zero(self, operator, tgv_state):
        """Total momentum is conserved (no external forces)."""
        rhs = operator.residual(tgv_state.as_stacked())
        for i in (1, 2, 3):
            assert (rhs[i] * operator.mass).sum() == pytest.approx(
                0.0, abs=1e-9
            )

    def test_viscosity_dissipates_kinetic_energy(self, operator, tgv_state):
        """The energy-weighted residual of momentum against velocity must
        be negative for the viscous TGV (dissipation)."""
        stacked = tgv_state.as_stacked()
        rhs = operator.residual(stacked)
        vel = tgv_state.velocity()
        # dE_k/dt ~= sum_i m_i u_i . d(rho u)_i/dt (leading order)
        dekdt = sum(
            float((operator.mass * vel[i] * rhs[1 + i]).sum())
            for i in range(3)
        )
        assert dekdt < 0.0

    def test_inviscid_convection_only_antisymmetric(self, operator, tgv_state):
        """With mu = 0 the diffusion residual vanishes entirely."""
        state_elem = operator._gather_state(tgv_state.as_stacked())
        gas0 = GasProperties(viscosity=0.0)
        op0 = NavierStokesOperator(operator.mesh, gas0)
        diff = op0.diffusion_element_residuals(state_elem)
        assert np.abs(diff).max() == pytest.approx(0.0, abs=1e-14)


class TestGradientDiagnostics:
    def test_nodal_gradient_of_uniform_flow_is_zero(self, operator):
        n = operator.mesh.num_nodes
        vel = np.zeros((3, n))
        vel[1] = 2.0
        state = FlowState.from_primitive(
            np.ones(n), vel, np.full(n, 300.0), operator.gas
        )
        grad = operator.nodal_velocity_gradient(state)
        assert np.abs(grad).max() < 1e-10

    def test_nodal_tgv_vorticity_converges(self):
        """The mass-averaged nodal vorticity converges to the analytic
        TGV field 2 sin(x) sin(y) cos(z) as the mesh refines."""
        from repro.mesh.hexmesh import periodic_box_mesh

        errors = []
        for k in (3, 5):
            mesh = periodic_box_mesh(k, 2)
            op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
            state = taylor_green_initial(mesh.coords, DEFAULT_TGV)
            grad = op.nodal_velocity_gradient(state)
            omega_z = grad[:, 1, 0] - grad[:, 0, 1]
            x, y, z = mesh.coords.T
            exact = 2.0 * np.sin(x) * np.sin(y) * np.cos(z)
            errors.append(float(np.sqrt(np.mean((omega_z - exact) ** 2))))
        assert errors[1] < errors[0] / 2.0
        assert errors[1] < 0.06

    def test_stable_dt_inputs(self, operator, tgv_state):
        spacing, wave = operator.stable_dt_inputs(tgv_state)
        assert spacing > 0
        assert wave > DEFAULT_TGV.sound_speed0 * 0.9
