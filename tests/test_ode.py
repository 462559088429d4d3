"""Tests for the RK4 solver, the reconstruction dynamics, and the adjoint pass.

The solver is pinned against problems with known answers: exact quadrature
of cubics, the measured fourth-order error decay on dx/dt = -x, and a
hand-written textbook RK4 loop.  The adjoint gradients are checked against
central finite differences of a scalar loss through the full solve, and
the fixed working-buffer counts are asserted with an allocation probe.
"""

import csv
import math

import numpy as np
import pytest

from tomoflow import (
    DivergenceError,
    NetArch,
    NetParams,
    OdeConfig,
    Sinogram,
    Volume,
    VolumeGrid,
    bind,
    fbp_fan,
    fdk_cone,
    forward_project,
    init_params,
    initial_volume,
    make_cone_geometry,
    make_fan_geometry,
    reconstruct_node,
)
from tomoflow.network import net_apply_array
from tomoflow.ode import AllocationProbe, NodeDynamics, adjoint_backward, rk4_solve


def small_problem(net_seed=1, net_scale=0.1):
    """8x8 phantom, 8-angle fan scan, single-level net with live projection."""
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(8, 11, 30.0, 20.0, detector_pixel_size=1.5)
    rng = np.random.default_rng(0)
    truth = rng.uniform(0.0, 0.05, (8, 8))
    p = forward_project(Volume(grid, truth), geom)
    params = init_params(NetArch(n_levels=1, base_channels=2), net_seed)
    params.weights[-1][...] = rng.normal(0.0, net_scale, params.weights[-1].shape)
    return grid, geom, truth, p, params


# --- solver on scalar problems ---


def test_zero_dynamics_returns_initial_state_unchanged():
    x0 = np.random.default_rng(2).normal(0.0, 1.0, (6, 7))
    x_T, log = rk4_solve(lambda x, t: np.zeros_like(x), x0.copy(), OdeConfig())
    assert np.array_equal(x_T, x0)
    assert log.n_steps == 20


def test_exponential_decay_error_band_and_fourth_order_ratio():
    # classic RK4 on dx/dt = -x over [0, 1]; halving the step divides the
    # error by close to 2^4
    exact = math.exp(-1.0)
    x_fine, _ = rk4_solve(lambda x, t: -x, 1.0, OdeConfig(step_size=0.05))
    x_coarse, _ = rk4_solve(lambda x, t: -x, 1.0, OdeConfig(step_size=0.1))
    err_fine = abs(x_fine - exact)
    err_coarse = abs(x_coarse - exact)
    assert 1.9e-8 < err_fine < 2.1e-8
    assert 12.0 < err_coarse / err_fine < 20.0


def test_cubic_time_dependence_is_integrated_exactly():
    # the RK4 quadrature rule is exact for polynomials in t up to degree 3
    x_T, _ = rk4_solve(lambda x, t: t**3, 0.0, OdeConfig())
    assert abs(x_T - 0.25) < 1e-14


def test_default_config_runs_20_steps_and_80_evaluations():
    calls = []

    def f(x, t):
        calls.append(t)
        return -x

    x_T, log = rk4_solve(f, 1.0, OdeConfig())
    assert log.n_steps == 20
    assert log.n_evals == 80
    assert len(calls) == 80


def test_scalar_input_returns_python_float():
    x_T, _ = rk4_solve(lambda x, t: -x, 1.0, OdeConfig())
    assert isinstance(x_T, float)


def test_divergence_reports_failing_step_and_last_finite_magnitude():
    # dynamics turn non-finite at t = 0.15, reached by the final stage of
    # step 2 (stages sample t, t + h/2, t + h)
    def f(x, t):
        if t >= 0.15:
            return np.full_like(x, np.inf)
        return -x

    with pytest.raises(DivergenceError) as excinfo:
        rk4_solve(f, np.ones(4), OdeConfig())
    assert excinfo.value.step_index == 2
    assert 0.0 < excinfo.value.max_abs < 1.0  # decayed from 1 for two steps


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_end": 0.0},
        {"t_end": -1.0},
        {"step_size": 0.0},
        {"step_size": -0.05},
        {"t_end": 0.3, "step_size": 0.07},
    ],
)
def test_ode_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        OdeConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_end": math.inf},
        {"step_size": math.inf},
        {"lam": math.nan},
        {"mu": math.inf},
        {"lam": -math.inf},
    ],
    ids=["t_end-inf", "step_size-inf", "lam-nan", "mu-inf", "lam-minus-inf"],
)
def test_ode_config_rejects_non_finite_values(kwargs):
    # round(t_end / step_size) of an infinite ratio raises OverflowError, not ValueError
    with pytest.raises(ValueError, match="finite"):
        OdeConfig(**kwargs)


def test_n_steps_property():
    assert OdeConfig().n_steps == 20
    assert OdeConfig(t_end=2.0, step_size=0.1).n_steps == 20
    assert OdeConfig(t_end=1.0, step_size=1.0).n_steps == 1


# --- reconstruction dynamics ---


def test_dynamics_is_the_documented_composition():
    grid, geom, _, p, params = small_problem()
    x = Volume(grid, np.random.default_rng(5).normal(0.0, 0.1, (8, 8)))
    cfg = OdeConfig(lam=0.7, mu=2.0)
    gamma = 0.03

    out = NodeDynamics(p, grid, params, gamma, cfg)(x.values)

    op = bind(geom, grid)
    residual = op.forward(x.values) - p.values.reshape(-1)
    reg, _ = net_apply_array(params, x.values)
    expected = -cfg.lam * (gamma * op.adjoint(residual) + cfg.mu * reg)
    assert np.array_equal(out, expected)


def test_consistent_state_is_an_equilibrium():
    # Ax = p and a fresh (zero-output) network: the right-hand side vanishes
    grid, geom, truth, _, _ = small_problem()
    zero_net = init_params(NetArch(n_levels=1, base_channels=2), 0)
    p = forward_project(Volume(grid, truth), geom)
    dyn = NodeDynamics(p, grid, zero_net, 0.05, OdeConfig())

    x_T, _ = rk4_solve(dyn, truth.copy(), OdeConfig())
    assert np.array_equal(x_T, truth)


def test_gamma_zero_with_fresh_network_is_stationary():
    grid, geom, truth, p, _ = small_problem()
    zero_net = init_params(NetArch(n_levels=1, base_channels=2), 3)
    dyn = NodeDynamics(p, grid, zero_net, 0.0, OdeConfig())
    x0 = initial_volume(p, grid)
    x_T, _ = rk4_solve(dyn, x0.values.copy(), OdeConfig())
    assert np.array_equal(x_T, x0.values)


def test_data_branch_alone_decreases_the_residual():
    grid, geom, truth, p, _ = small_problem()
    zero_net = init_params(NetArch(n_levels=1, base_channels=2), 0)
    dyn = NodeDynamics(p, grid, zero_net, 0.02, OdeConfig())
    x0 = initial_volume(p, grid)
    x_T, _ = rk4_solve(dyn, x0.values.copy(), OdeConfig())
    assert dyn.residual_norm(x_T) < 0.9 * dyn.residual_norm(x0.values)


def test_solver_matches_textbook_rk4_loop():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x0 = initial_volume(p, grid)

    x_T, _ = rk4_solve(dyn, x0.values.copy(), cfg)

    x = x0.values.copy()
    h = cfg.step_size
    for step in range(cfg.n_steps):
        t = step * h
        k1 = dyn(x, t)
        k2 = dyn(x + (h / 2.0) * k1, t + h / 2.0)
        k3 = dyn(x + (h / 2.0) * k2, t + h / 2.0)
        k4 = dyn(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    np.testing.assert_allclose(x_T, x, rtol=1e-12, atol=1e-16)


def test_adjoint_matches_textbook_backward_rk4_loop():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x_T, _ = rk4_solve(dyn, initial_volume(p, grid).values.copy(), cfg)

    result = adjoint_backward(dyn, Volume(grid, x_T), Volume(grid, x_T - truth), cfg)

    x, a = x_T.copy(), x_T - truth
    g_theta, g_gamma = np.zeros(params.n_params), 0.0
    h = cfg.step_size
    for _ in range(cfg.n_steps):
        k1 = dyn.aug(x, a)
        k2 = dyn.aug(x - (h / 2.0) * k1[0], a - (h / 2.0) * k1[1])
        k3 = dyn.aug(x - (h / 2.0) * k2[0], a - (h / 2.0) * k2[1])
        k4 = dyn.aug(x - h * k3[0], a - h * k3[1])
        x, a, g_theta, g_gamma = (
            y - (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            for y, r1, r2, r3, r4 in zip((x, a, g_theta, g_gamma), k1, k2, k3, k4)
        )
    np.testing.assert_allclose(result.x0_recovered.values, x, rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(result.grad_x0.values, a, rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(result.grad_params.flatten(), g_theta, rtol=1e-12, atol=1e-16)
    assert result.grad_gamma == pytest.approx(g_gamma, rel=1e-12)


def test_adjoint_divergence_reports_failing_backward_step():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x_T, _ = rk4_solve(dyn, initial_volume(p, grid).values.copy(), cfg)
    aug = dyn.aug
    n_calls = 0

    def failing_aug(x, a):
        # from the second stage of the fourth backward step on, the adjoint
        # rate is non-finite
        nonlocal n_calls
        n_calls += 1
        fx, fa, rate_theta, rate_gamma = aug(x, a)
        if n_calls >= 3 * 4 + 2:
            fa = np.full_like(fa, np.nan)
        return fx, fa, rate_theta, rate_gamma

    dyn.aug = failing_aug
    with pytest.raises(DivergenceError) as excinfo:
        adjoint_backward(dyn, Volume(grid, x_T), Volume(grid, x_T - truth), cfg)
    assert excinfo.value.step_index == cfg.n_steps - 4  # steps count down
    assert 0.0 < excinfo.value.max_abs < np.inf
    assert n_calls == 3 * 4 + 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_gain_raises_divergence_error():
    grid, geom, truth, p, _ = small_problem()
    zero_net = init_params(NetArch(n_levels=1, base_channels=2), 0)
    with pytest.raises(DivergenceError):
        reconstruct_node(p, grid, zero_net, 1e6, OdeConfig())


# --- initial value and full reconstruction ---


def test_initial_volume_is_fbp_for_fan_data():
    grid, geom, truth, p, _ = small_problem()
    direct = fbp_fan(p, grid, "ram-lak")
    assert np.array_equal(initial_volume(p, grid).values, direct.values)
    hann = fbp_fan(p, grid, "hann")
    assert np.array_equal(initial_volume(p, grid, "hann").values, hann.values)


def test_initial_volume_is_fdk_for_cone_data():
    grid = VolumeGrid((8, 8, 8), 1.0)
    geom = make_cone_geometry(6, 9, 9, 30.0, 20.0, detector_pixel_size=2.0)
    rng = np.random.default_rng(4)
    p = forward_project(Volume(grid, rng.uniform(0.0, 0.02, (8, 8, 8))), geom)
    assert np.array_equal(
        initial_volume(p, grid).values, fdk_cone(p, grid, "ram-lak").values
    )


def test_reconstruct_node_composes_initializer_and_solve(tmp_path):
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    log_path = tmp_path / "solve.csv"

    out = reconstruct_node(p, grid, params, 0.01, cfg, log_path=log_path)

    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    manual, _ = rk4_solve(dyn, initial_volume(p, grid), cfg)
    assert np.array_equal(out.values, manual.values)

    with open(log_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.n_steps + 1
    assert list(rows[0].keys()) == ["step", "t", "x_norm", "f_norm", "residual_norm"]
    assert rows[-1]["f_norm"] == ""  # no evaluation after the last step
    assert float(rows[0]["residual_norm"]) == pytest.approx(
        dyn.residual_norm(initial_volume(p, grid).values), abs=1e-12
    )


# --- adjoint gradients ---


def solve_loss(p, grid, arch, theta_vec, gamma, cfg, x0, target):
    params = NetParams.from_flat(arch, theta_vec)
    dyn = NodeDynamics(p, grid, params, gamma, cfg)
    x_T, _ = rk4_solve(dyn, x0.copy(), cfg)
    return 0.5 * float(np.sum((x_T - target) ** 2))


def test_adjoint_gradients_match_finite_differences():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    gamma = 0.01
    x0 = initial_volume(p, grid)
    dyn = NodeDynamics(p, grid, params, gamma, cfg)
    x_T, _ = rk4_solve(dyn, x0.values.copy(), cfg)

    result = adjoint_backward(
        dyn, Volume(grid, x_T), Volume(grid, x_T - truth), cfg
    )
    theta = params.flatten()
    h = 1e-6

    loss = lambda t, g: solve_loss(p, grid, params.arch, t, g, cfg, x0.values, truth)

    fd_gamma = (loss(theta, gamma + h) - loss(theta, gamma - h)) / (2.0 * h)
    assert abs(fd_gamma - result.grad_gamma) < 1e-6 * abs(fd_gamma)

    grad_theta = result.grad_params.flatten()
    for k in range(3):
        d = np.random.default_rng(40 + k).normal(0.0, 1.0, theta.size)
        fd = (loss(theta + h * d, gamma) - loss(theta - h * d, gamma)) / (2.0 * h)
        analytic = float(grad_theta @ d)
        assert abs(fd - analytic) < 1e-6 * abs(analytic)


def test_adjoint_input_gradient_matches_finite_differences():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x0 = initial_volume(p, grid)
    x_T, _ = rk4_solve(dyn, x0.values.copy(), cfg)
    result = adjoint_backward(dyn, Volume(grid, x_T), Volume(grid, x_T - truth), cfg)

    def loss(x0v):
        out, _ = rk4_solve(dyn, x0v.copy(), cfg)
        return 0.5 * float(np.sum((out - truth) ** 2))

    h = 1e-6
    d = np.random.default_rng(99).normal(0.0, 1.0, (8, 8))
    fd = (loss(x0.values + h * d) - loss(x0.values - h * d)) / (2.0 * h)
    analytic = float(np.sum(result.grad_x0.values * d))
    assert abs(fd - analytic) < 1e-8 * abs(analytic)


def test_adjoint_recovers_the_initial_state():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x0 = initial_volume(p, grid)
    x_T, _ = rk4_solve(dyn, x0.values.copy(), cfg)
    result = adjoint_backward(
        dyn, Volume(grid, x_T), Volume(grid, np.zeros((8, 8))), cfg
    )
    assert np.max(np.abs(result.x0_recovered.values - x0.values)) < 1e-9
    assert result.n_evals == 80


def test_adjoint_zero_cotangent_gives_zero_gradients():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x_T, _ = rk4_solve(dyn, initial_volume(p, grid).values.copy(), cfg)
    result = adjoint_backward(
        dyn, Volume(grid, x_T), Volume(grid, np.zeros((8, 8))), cfg
    )
    assert result.grad_gamma == 0.0
    assert np.array_equal(result.grad_params.flatten(), np.zeros(dyn.params.n_params))
    assert np.array_equal(result.grad_x0.values, np.zeros((8, 8)))


def test_adjoint_rejects_mismatched_config_and_shapes():
    grid, geom, truth, p, params = small_problem()
    cfg = OdeConfig()
    dyn = NodeDynamics(p, grid, params, 0.01, cfg)
    x_T, _ = rk4_solve(dyn, initial_volume(p, grid).values.copy(), cfg)
    with pytest.raises(ValueError):
        adjoint_backward(
            dyn, Volume(grid, x_T), Volume(grid, x_T), OdeConfig(step_size=0.1)
        )
    small = VolumeGrid((4, 4), 1.0)
    with pytest.raises(ValueError):
        adjoint_backward(dyn, Volume(grid, x_T), Volume(small, np.zeros((4, 4))), cfg)


# --- memory behavior ---


def test_working_buffers_do_not_scale_with_step_count():
    grid, geom, truth, p, params = small_problem()
    x0 = initial_volume(p, grid)
    peaks = {}
    for label, cfg in {"short": OdeConfig(), "long": OdeConfig(step_size=0.005)}.items():
        dyn = NodeDynamics(p, grid, params, 0.01, cfg)
        fwd_probe = AllocationProbe()
        x_T, _ = rk4_solve(dyn, x0.values.copy(), cfg, probe=fwd_probe)
        bwd_probe = AllocationProbe()
        adjoint_backward(
            dyn, Volume(grid, x_T), Volume(grid, x_T - truth), cfg, probe=bwd_probe
        )
        peaks[label] = (fwd_probe.peak, bwd_probe.peak)

    assert peaks["short"] == (3, 6)
    assert peaks["long"] == (3, 6)
