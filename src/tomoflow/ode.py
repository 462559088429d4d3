"""Reconstruction dynamics, fixed-step RK4 solver, and adjoint backward pass.

The reconstruction is the solution at t = T of

    dx/dt = f(x) = -lam * (gamma * A^T(A x - p) + mu * N_theta(x)),
    x(0)  = analytic reconstruction of p (FBP in 2D, FDK in 3D),

integrated with classic RK4 at fixed step h (S = T/h steps, 4 evaluations of
f per step).  Gradients for training come from the adjoint sensitivity
method: the augmented system

    dx/dt = f(x)                     (state, recomputed backward from x_T)
    da/dt = -(df/dx)^T a             (adjoint,  a(T) = dL/dx_T)
    dg_theta/dt = -(df/dtheta)^T a   (g(T) = 0)
    dg_gamma/dt = -(df/dgamma)^T a

is integrated from T down to 0 by the same RK4 step (_rk4_step, which both
solvers call) with step -h, yielding a(0) = dL/dx0, g_theta(0) = dL/dtheta,
g_gamma(0) = dL/dgamma.  No forward trajectory is stored: the working set is
a fixed handful of volume-sized buffers (3 forward, 6 backward) regardless of
S, which an AllocationProbe can count.  The price of recomputation is a small
reversibility error, measurable by comparing the recovered x(0) against the
true initializer.

The dynamics is autonomous; the solver still passes t to f so the test
harness can integrate time-dependent toy problems.

Precision: the state, the projector and the RK4 arithmetic are float64.
NodeDynamics runs the network in the dtype of the parameters it is given,
and the network output joins the float64 rate in the sum above.  Training
and the adjoint pass give it float64 parameters; reconstruct_node gives it
one float32 copy per solve, which makes the network forward, most of a 3D
solve, cheaper (BENCH_17.json has the numbers).  A state that leaves the float32 range, or drives
the network's activations out of it, then makes the network output
non-finite, so such a solve raises DivergenceError.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .analytic import fbp_fan, fdk_cone
from .errors import DivergenceError
from .geometry import VolumeGrid
from .network import NetParams, net_apply_array, net_vjp_array
from .projector import Sinogram, Volume, bind


@dataclass(frozen=True)
class OdeConfig:
    """Integration horizon, step size, and branch scalings.

    lam and mu default to 1: the trainable gamma and the network's own output
    scale absorb them.  t_end / step_size must be a whole number of steps.
    """

    t_end: float = 1.0
    step_size: float = 0.05
    lam: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        for name in ("t_end", "step_size", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        ratio = self.t_end / self.step_size
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"t_end / step_size = {ratio} is not a positive whole number of steps"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.step_size))


class AllocationProbe:
    """Counts live volume-sized working buffers the solver acquires.

    new() hands out arrays whose lifetimes are tracked via finalizers; peak
    is the highest simultaneous count, the quantity asserted to be step-count
    independent.
    """

    def __init__(self):
        self.live = 0
        self.peak = 0
        self.total = 0

    def new(self, shape, dtype=np.float64) -> np.ndarray:
        arr = np.empty(shape, dtype)
        self.live += 1
        self.total += 1
        self.peak = max(self.peak, self.live)
        weakref.finalize(arr, self._release)
        return arr

    def _release(self):
        self.live -= 1


class _NullProbe:
    @staticmethod
    def new(shape, dtype=np.float64):
        return np.empty(shape, dtype)


_NULL_PROBE = _NullProbe()


@dataclass
class SolveLog:
    """Step/evaluation counters plus optional per-step rows for debugging."""

    n_steps: int = 0
    n_evals: int = 0
    rows: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "t", "x_norm", "f_norm", "residual_norm"])
            writer.writerows(self.rows)


def _check_finite(k: np.ndarray, step: int, x: np.ndarray):
    if not np.all(np.isfinite(k)):
        finite = x[np.isfinite(x)]
        max_abs = float(np.max(np.abs(finite), initial=0.0))
        raise DivergenceError(step, max_abs)


# Classic RK4 time nodes; the stage weights are 1, 2, 2, 1 (over 6).
_RK4_NODES = (0.0, 0.5, 0.5, 1.0)


def _rk4_step(f, ys, t, h, stage, acc, step):
    """Advance the arrays ys in place by one classic RK4 step of size h.

    f(zs, t) returns one rate per array of zs.  stage and acc are work
    buffers shaped like ys; h may be negative.  Every rate is checked for
    non-finite values (DivergenceError reports step).  Returns the first
    stage's rates.
    """
    zs = ys
    for i, c in enumerate(_RK4_NODES):
        # a diverging state overflows inside f (the float32 cast, then NaN
        # products); _check_finite turns every such rate into DivergenceError,
        # so numpy's warnings would only precede that message
        with np.errstate(over="ignore", invalid="ignore"):
            ks = f(zs, t + c * h)
        if i == 0:
            first = ks
        for k, y, z, a in zip(ks, ys, stage, acc):
            _check_finite(k, step, y)
            if i == 0:
                np.copyto(a, k)
            else:
                a += k
            if i in (1, 2):
                a += k  # weight 2: a second add makes no scaled temporary
            if i < 3:
                np.multiply(k, _RK4_NODES[i + 1] * h, out=z)
                z += y
        zs = stage
    for y, a in zip(ys, acc):
        a *= h / 6.0
        y += a
    return first


def rk4_solve(f, x0, cfg: OdeConfig, probe=None, capture=False):
    """Integrate dx/dt = f(x, t) from 0 to t_end with classic RK4.

    Parameters
    ----------
    f : callable(x, t) -> array_like
        The dynamics.  Called exactly 4 * n_steps times.
    x0 : Volume, ndarray, or float
        Initial state; the result has the same type.
    probe : AllocationProbe, optional
        Receives the solver's working-buffer allocations (3 buffers,
        regardless of step count).
    capture : bool
        Record per-step norms in the returned log.  When f has a
        residual_norm method it supplies the last column.

    Returns
    -------
    (x_T, SolveLog)
    """
    alloc = probe if probe is not None else _NULL_PROBE
    is_volume = isinstance(x0, Volume)
    scalar_input = np.isscalar(x0)
    x0_arr = np.asarray(x0.values if is_volume else x0, dtype=np.float64)

    x = alloc.new(x0_arr.shape)
    np.copyto(x, x0_arr)
    xt = alloc.new(x0_arr.shape)
    acc = alloc.new(x0_arr.shape)

    h = cfg.step_size
    log = SolveLog()
    residual_fn = getattr(f, "residual_norm", None)

    def rates(zs, t):
        return (np.asarray(f(zs[0], t), dtype=np.float64),)

    def record(step, f_norm):
        res = float(residual_fn(x)) if residual_fn is not None else ""
        log.rows.append([step, step * h, float(np.linalg.norm(x)), f_norm, res])

    for step in range(cfg.n_steps):
        if capture:
            record(step, None)
        (k1,) = _rk4_step(rates, [x], step * h, h, [xt], [acc], step)
        if capture:
            log.rows[-1][3] = float(np.linalg.norm(k1))
        log.n_steps += 1
        log.n_evals += 4

    if capture:
        record(cfg.n_steps, "")

    if is_volume:
        return Volume(x0.grid, x), log
    if scalar_input:
        return float(x), log
    return x, log


class NodeDynamics:
    """The reconstruction dynamics bound to one measurement, with VJPs.

    Callable as f(x, t) on bare arrays (t is ignored; the system is
    autonomous).  aug() evaluates the augmented backward rates.
    """

    def __init__(
        self,
        p: Sinogram,
        grid: VolumeGrid,
        params: NetParams,
        gamma: float,
        cfg: OdeConfig,
    ):
        self.op = bind(p.geom, grid)
        self.grid = grid
        self.p_flat = p.values.reshape(-1).copy()
        self.params = params
        self.gamma = float(gamma)
        self.cfg = cfg

    def _rates(self, x: np.ndarray):
        """f(x), with A^T(Ax - p) and the network tape that aug reuses."""
        residual = self.op.forward(x) - self.p_flat
        dc = self.op.adjoint(residual)
        reg, tape = net_apply_array(self.params, x)
        return -self.cfg.lam * (self.gamma * dc + self.cfg.mu * reg), dc, tape

    def __call__(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        return self._rates(x)[0]

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.op.forward(x) - self.p_flat))

    def aug(self, x: np.ndarray, a: np.ndarray):
        """Backward-time rates (dx/dt, da/dt, dg_theta/dt, dg_gamma/dt).

        da/dt = -(df/dx)^T a = +lam (gamma A^T A a + mu (dN/dx)^T a);
        the g rates are -(df/d.)^T a so that integrating them from T down to
        0 with g(T) = 0 accumulates the true gradients.
        """
        lam, mu, gamma = self.cfg.lam, self.cfg.mu, self.gamma
        fx, dc, tape = self._rates(x)
        gtheta, gx_net = net_vjp_array(self.params, tape, a)
        fa = lam * (gamma * self.op.adjoint(self.op.forward(a)) + mu * gx_net)
        rate_theta = lam * mu * gtheta.flatten()
        rate_gamma = lam * float(dc.ravel() @ a.ravel())
        return fx, fa, rate_theta, rate_gamma


@dataclass
class AdjointResult:
    """Gradients from the backward pass, plus recomputation diagnostics."""

    grad_x0: Volume
    grad_params: NetParams
    grad_gamma: float
    x0_recovered: Volume
    n_evals: int


def adjoint_backward(
    f: NodeDynamics, x_T: Volume, dL_dxT: Volume, cfg: OdeConfig, probe=None
) -> AdjointResult:
    """Adjoint sensitivity method: integrate the augmented system T -> 0.

    f must be the NodeDynamics the forward solve used, with the same config;
    x_T its output.  Memory: six volume-sized working buffers regardless of
    the step count (the parameter-gradient accumulators are parameter-sized).
    """
    if f.cfg != cfg:
        raise ValueError("adjoint_backward config does not match the dynamics config")
    if x_T.values.shape != dL_dxT.values.shape:
        raise ValueError("dL_dxT shape does not match x_T")
    alloc = probe if probe is not None else _NULL_PROBE
    shape = x_T.values.shape

    x = alloc.new(shape)
    np.copyto(x, x_T.values)
    a = alloc.new(shape)
    np.copyto(a, dL_dxT.values)
    ys = [x, a, np.zeros(f.params.n_params), np.zeros(())]
    # aug never reads the g stage states (the gradient rates do not depend on
    # g), so only the x and a work buffers are volume-sized probe allocations
    stage = [alloc.new(shape), alloc.new(shape)] + [np.empty_like(g) for g in ys[2:]]
    acc = [alloc.new(shape), alloc.new(shape)] + [np.empty_like(g) for g in ys[2:]]
    h = cfg.step_size

    def rates(zs, t):
        return f.aug(zs[0], zs[1])

    for step in reversed(range(cfg.n_steps)):
        _rk4_step(rates, ys, (step + 1) * h, -h, stage, acc, step)

    grid = x_T.grid
    return AdjointResult(
        grad_x0=Volume(grid, a),
        grad_params=NetParams.from_flat(f.params.arch, ys[2]),
        grad_gamma=float(ys[3]),
        x0_recovered=Volume(grid, x),
        n_evals=4 * cfg.n_steps,
    )


def initial_volume(p: Sinogram, grid: VolumeGrid, window: str = "ram-lak") -> Volume:
    """The ODE initial value x0: FBP for fan data, FDK for cone data."""
    if grid.ndim == 2:
        return fbp_fan(p, grid, window)
    return fdk_cone(p, grid, window)


def reconstruct_node(
    p: Sinogram,
    grid: VolumeGrid,
    params: NetParams,
    gamma: float,
    cfg: OdeConfig,
    window: str = "ram-lak",
    log_path=None,
) -> Volume:
    """Full learned reconstruction: analytic initializer, then the ODE solve.

    The solve runs the network on a float32 copy of params; the state, the
    projector and the RK4 arithmetic stay float64.
    """
    x0 = initial_volume(p, grid, window)
    dyn = NodeDynamics(p, grid, params.astype(np.float32), gamma, cfg)
    x_T, log = rk4_solve(dyn, x0, cfg, capture=log_path is not None)
    if log_path is not None:
        log.to_csv(log_path)
    return x_T
