"""Spans around the calls into tomoflow's modules, recorded from outside the
package.

tomoflow itself has no instrumentation, so the traced run replaces module
attributes and class methods with timing wrappers while a unit runs and
restores them afterwards.  ``ode``, ``classical``, ``training`` and
``phantoms`` import the functions they call by name, so each name is wrapped
in the namespace of the module that calls it; methods are wrapped on the
class itself.  A span's self time is its duration minus the time covered by
the spans it encloses.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

from tomoflow import analytic, classical, ode, phantoms, projector, training
from tomoflow.errors import DivergenceError

# (owner, attribute, span name, record peak traced memory)
PATCHES = [
    (projector.BoundProjector, "forward", "projector.A", False),
    (projector.BoundProjector, "adjoint", "projector.AT", False),
    (classical, "bind", "projector.bind", True),
    (ode, "bind", "projector.bind", True),
    # forward_project, back_project and op_norm_estimate all reach the
    # unbound operator through these two names in the projector namespace
    (projector, "forward_project_array", "projector.unbound", False),
    (projector, "back_project_array", "projector.unbound", False),
    (classical, "op_norm_estimate", "projector.op_norm", False),
    (projector, "ray_bundle", "geometry.ray_bundle", False),
    (analytic, "fbp_fan", "analytic.fbp", False),
    (ode, "fbp_fan", "analytic.fbp", False),
    (analytic, "fdk_cone", "analytic.fdk", False),
    (ode, "fdk_cone", "analytic.fdk", False),
    (analytic, "ramp_filter", "analytic.ramp_filter", False),
    (classical, "sirt", "classical.iter", False),
    (classical, "tv_reconstruct", "classical.iter", False),
    (classical, "_tv_gradient_array", "classical.tv_gradient", False),
    (ode, "net_apply_array", "network.fwd", False),
    (ode, "net_vjp_array", "network.vjp", False),
    (ode.NodeDynamics, "__call__", "ode.rhs", False),
    (ode.NodeDynamics, "aug", "ode.aug", False),
    (ode, "rk4_solve", "ode.rk4", False),
    (training, "rk4_solve", "ode.rk4", False),
    (training, "adjoint_backward", "ode.adjoint", False),
    (ode, "initial_volume", "ode.init", False),
    (training, "initial_volume", "ode.init", False),
    (training, "_sample_loss_and_grads", "training.sample", False),
    (training, "_val_loss", "training.val", False),
    (training, "adam_step", "training.adam", False),
    (training, "fov_mask", "training.fov_mask", False),
    (phantoms, "make_phantom", "phantoms.make", False),
    (phantoms, "simulate_measurement", "phantoms.simulate", False),
]

# per-layer metric -> (span, field, scale); field is calls, total, self,
# peak (bytes) or diverged (spans that raised DivergenceError)
LAYER_METRICS = {
    "projector.A.calls": ("projector.A", "calls", 1),
    "projector.A.self_ms": ("projector.A", "self", 1e3),
    "projector.AT.calls": ("projector.AT", "calls", 1),
    "projector.AT.self_ms": ("projector.AT", "self", 1e3),
    "projector.bind.calls": ("projector.bind", "calls", 1),
    "projector.bind.ms": ("projector.bind", "total", 1e3),
    "projector.bind.mb": ("projector.bind", "peak", 1 / 2**20),
    "projector.unbound.calls": ("projector.unbound", "calls", 1),
    "projector.unbound.total_s": ("projector.unbound", "total", 1),
    "projector.op_norm.total_s": ("projector.op_norm", "total", 1),
    "geometry.ray_bundle.calls": ("geometry.ray_bundle", "calls", 1),
    "geometry.ray_bundle.total_s": ("geometry.ray_bundle", "total", 1),
    "analytic.fbp.ms": ("analytic.fbp", "total", 1e3),
    "analytic.fdk.ms": ("analytic.fdk", "total", 1e3),
    "analytic.ramp_filter.ms": ("analytic.ramp_filter", "total", 1e3),
    "classical.iter.self_ms": ("classical.iter", "self", 1e3),
    "classical.tv_gradient.total_s": ("classical.tv_gradient", "total", 1),
    "network.fwd.calls": ("network.fwd", "calls", 1),
    "network.fwd.self_ms": ("network.fwd", "self", 1e3),
    "network.vjp.calls": ("network.vjp", "calls", 1),
    "network.vjp.self_ms": ("network.vjp", "self", 1e3),
    "ode.rhs.calls": ("ode.rhs", "calls", 1),
    "ode.rhs.self_ms": ("ode.rhs", "self", 1e3),
    "ode.aug.calls": ("ode.aug", "calls", 1),
    "ode.aug.self_ms": ("ode.aug", "self", 1e3),
    "ode.rk4.self_s": ("ode.rk4", "self", 1),
    "ode.adjoint.self_s": ("ode.adjoint", "self", 1),
    "ode.init.ms": ("ode.init", "total", 1e3),
    "training.sample.s": ("training.sample", "total", 1),
    "training.val.s": ("training.val", "total", 1),
    "training.adam.ms": ("training.adam", "total", 1e3),
    "training.fov_mask.ms": ("training.fov_mask", "total", 1e3),
    "training.divergence_retries": ("training.sample", "diverged", 1),
    "phantoms.make.ms": ("phantoms.make", "total", 1e3),
    "phantoms.simulate.ms": ("phantoms.simulate", "total", 1e3),
}


class Tracer:
    """Installs the wrappers and accumulates per-span calls and times."""

    def __init__(self):
        self.spans: dict[str, dict[str, float]] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, peak_memory: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by enclosed spans
            tracer._stack.append(frame)
            if peak_memory:
                tracemalloc.start()
            diverged = 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except DivergenceError:
                diverged = 1
                raise
            finally:
                dt = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1] if peak_memory else 0
                if peak_memory:
                    tracemalloc.stop()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                s = tracer.spans.setdefault(
                    name, {"calls": 0, "total": 0.0, "self": 0.0, "peak": 0, "diverged": 0})
                s["calls"] += 1
                s["total"] += dt
                s["self"] += dt - frame[0]
                s["peak"] = max(s["peak"], peak)
                s["diverged"] += diverged

        return traced

    def install(self) -> None:
        self.spans = {}
        for owner, attr, name, peak_memory in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, peak_memory))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since install()."""
        out = {}
        for metric, (span, field, scale) in LAYER_METRICS.items():
            value = self.spans.get(span, {}).get(field, 0)
            out[metric] = value * scale if scale != 1 else value
        return out
