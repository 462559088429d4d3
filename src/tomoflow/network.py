"""Trainable regularizer network with hand-written vector-Jacobian products.

A small encoder-decoder convolutional net, dimension-generic over 2D and 3D:
conv -> (optional instance norm) -> ReLU blocks, 2x average-pool downsampling,
nearest-neighbour 2x upsampling, encoder-decoder skip connections by channel
concatenation, and a final 1x1 projection.  The projection layer initializes
to exact zeros so an untrained network is the zero map.

Everything is plain numpy, in the dtype of the parameters: float64 for
training, the VJPs and the parameter file, and float32 for the forward
passes of an inference solve, which ode.reconstruct_node runs on a float32
copy (NetParams.astype).  A convolution is one im2col GEMM per slab of
rows along the first spatial axis.  The slab's patch matrix gathers the
shifted views of the padded input over every kernel axis but the last, with
the padded last axis kept whole, so it has c_in * k^(d-1) rows.  The last
axis's k taps become extra GEMM output rows (k * c_out of them), and the
output sums those k partial results, each shifted by its tap along the last
axis; the k - 1 padding columns of each line are computed and dropped.  Each
slab's patches and GEMM output together fit a fixed byte budget, so no conv
builds its whole patch matrix.  The VJPs are the exact transposes of that
linearization, built from the forward primitives: the kernel gradient is a
sum of per-slab products of the shifted output gradient with the patches,
the input gradient is the same conv with the kernel flipped and transposed
in (c_out, c_in), and pooling and upsampling are each other's adjoints up to
a power-of-two scale.
ReLU uses the subgradient 0 at exactly 0.  Padding is zero ("same") by
default; periodic padding exists for the shift-equivariance test mode.

Parameters live in per-kind tensor lists (kernels, biases, norm scales and
shifts) and flatten to a single vector, the one the optimizer and the
checkpoint format use.  Its order is written once, in _layout: per conv,
kernel, bias, then instance-norm scale and shift when enabled.  from_flat,
flatten, init_params and the VJP's gradient all walk it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import read_record, record_values, write_record
from .errors import DataFormatError, ShapeMismatchError

_NORM_VAR_FLOOR = 1e-5

PARAMS_MAGIC = b"CTNP"
# version, n_levels, base_channels, kernel_size, dims, instance_norm
PARAMS_HEADER = "<6I"


@dataclass(frozen=True)
class NetArch:
    """Architecture of the regularizer network.

    n_levels is the encoder depth: n_levels - 1 pooled encoder stages plus a
    bottom stage.  Channel width doubles per level from base_channels.
    Spatial input sides must be divisible by 2^(n_levels - 1).
    """

    n_levels: int = 2
    base_channels: int = 4
    kernel_size: int = 3
    dims: int = 2
    instance_norm: bool = False

    def __post_init__(self):
        if not isinstance(self.n_levels, int) or self.n_levels < 1:
            raise ValueError(f"n_levels must be an integer >= 1, got {self.n_levels!r}")
        if not isinstance(self.base_channels, int) or self.base_channels < 1:
            raise ValueError(
                f"base_channels must be an integer >= 1, got {self.base_channels!r}"
            )
        if (
            not isinstance(self.kernel_size, int)
            or self.kernel_size < 1
            or self.kernel_size % 2 == 0
        ):
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size!r}")
        if self.dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {self.dims!r}")

    @property
    def pool_factor(self) -> int:
        return 2 ** (self.n_levels - 1)


def _conv_plan(arch: NetArch) -> list[tuple[int, int, tuple[int, ...], bool]]:
    """Per-conv (c_in, c_out, kernel shape, is_projection) in forward order."""
    k = (arch.kernel_size,) * arch.dims
    width = lambda lvl: arch.base_channels * 2**lvl
    plan = []
    prev = 1
    for lvl in range(arch.n_levels - 1):
        plan.append((prev, width(lvl), k, False))
        prev = width(lvl)
    plan.append((prev, width(arch.n_levels - 1), k, False))
    cur = width(arch.n_levels - 1)
    for lvl in reversed(range(arch.n_levels - 1)):
        plan.append((cur + width(lvl), width(lvl), k, False))
        cur = width(lvl)
    plan.append((cur, 1, (1,) * arch.dims, True))
    return plan


@functools.cache
def _layout(arch: NetArch) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(NetParams list name, shape) of every tensor in flat-vector order: per
    conv of _conv_plan its kernel and bias, then its instance-norm scale and
    shift when enabled; the projection has no norm."""
    layout = []
    for c_in, c_out, k, is_proj in _conv_plan(arch):
        layout += [("weights", (c_out, c_in) + k), ("biases", (c_out,))]
        if arch.instance_norm and not is_proj:
            layout += [("norm_scales", (c_out,)), ("norm_shifts", (c_out,))]
    return tuple(layout)


def _n_params(arch: NetArch) -> int:
    """Length of the flat parameter vector of arch."""
    return sum(math.prod(shape) for _, shape in _layout(arch))


@dataclass
class NetParams:
    """All trainable tensors of one network, in _conv_plan order."""

    arch: NetArch
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_scales: list[np.ndarray] | None = None
    norm_shifts: list[np.ndarray] | None = None

    @property
    def n_params(self) -> int:
        return _n_params(self.arch)

    @property
    def dtype(self) -> np.dtype:
        """The dtype net_apply_array computes in."""
        return self.weights[0].dtype

    def astype(self, dtype) -> "NetParams":
        """A copy with every tensor cast to dtype."""
        cast = lambda tensors: None if tensors is None else [t.astype(dtype) for t in tensors]
        return NetParams(
            self.arch,
            cast(self.weights),
            cast(self.biases),
            cast(self.norm_scales),
            cast(self.norm_shifts),
        )

    def flatten(self) -> np.ndarray:
        """Single parameter vector; inverse of from_flat.  Reads the lists as
        they are now, so a rebound entry is seen."""
        layout = _layout(self.arch)
        lists = {name: iter(getattr(self, name)) for name in {n for n, _ in layout}}
        return np.concatenate([next(lists[name]).ravel() for name, _ in layout])

    @classmethod
    def from_flat(cls, arch: NetArch, vec: np.ndarray) -> "NetParams":
        """Tensors that are views of one private copy of vec."""
        vec = np.array(vec, dtype=np.float64)
        needed = _n_params(arch)
        if vec.size != needed:
            raise ShapeMismatchError(
                f"parameter vector has {vec.size} entries, architecture needs {needed}"
            )
        lists = {}
        pos = 0
        for name, shape in _layout(arch):
            size = math.prod(shape)
            lists.setdefault(name, []).append(vec[pos : pos + size].reshape(shape))
            pos += size
        return cls(arch, **lists)


def init_params(arch: NetArch, seed: int) -> NetParams:
    """He-initialized hidden layers, unit norm scales, everything else zero.

    The exactly-zero final projection makes the untrained network the zero
    map, so it has no influence on the dynamics until training moves it.
    """
    rng = np.random.default_rng(seed)
    params = NetParams.from_flat(arch, np.zeros(_n_params(arch)))
    for w in params.weights[:-1]:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w[0].size), w.shape)
    for scale in params.norm_scales or ():
        scale[...] = 1.0
    return params


# ---------------------------------------------------------------------------
# layer primitives, dimension-generic over (channels, *spatial) arrays


_PAD_MODES = ("zeros", "periodic")

# byte budget of one row slab of a conv: its patch matrix plus its GEMM
# output; a slab holds at least one row, so a row larger than the budget is
# built alone
_PATCH_BYTES = 4 * 2**20


def _pad_input(x: np.ndarray, k: tuple[int, ...], pad_mode: str) -> np.ndarray:
    if all(ki == 1 for ki in k):
        return x
    pads = [ki // 2 for ki in k]
    if pad_mode == "periodic":
        return np.pad(x, [(0, 0)] + [(p, p) for p in pads], mode="wrap")
    spatial = x.shape[1:]
    xp = np.zeros((x.shape[0],) + tuple(s + 2 * p for s, p in zip(spatial, pads)), x.dtype)
    xp[(slice(None),) + tuple(slice(p, p + s) for s, p in zip(spatial, pads))] = x
    return xp


def _row_slabs(x: np.ndarray, w: np.ndarray) -> list[tuple[int, int]]:
    """Ranges r0:r1 of output rows (first spatial axis), at least one row
    each, whose patch matrix and GEMM output together fit _PATCH_BYTES."""
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2:]
    spatial = x.shape[1:]
    # one column per output row, inner output site and padded last-axis site
    row_cols = int(np.prod(spatial[1:-1])) * (spatial[-1] + k[-1] - 1)
    rows_per_col = c_in * int(np.prod(k[:-1])) + k[-1] * c_out
    step = max(1, _PATCH_BYTES // (rows_per_col * row_cols * x.itemsize))
    n_rows = spatial[0]
    return [(r0, min(r0 + step, n_rows)) for r0 in range(0, n_rows, step)]


def _patch_matrix(xp: np.ndarray, k: tuple[int, ...], r0: int, r1: int) -> np.ndarray:
    """The shifted views of the padded input xp over every kernel axis but
    the last, for output rows r0:r1 of the first spatial axis; the padded
    last axis stays whole.  Shape (c_in * prod(k[:-1]), columns) with the
    columns in C order over (r1 - r0, *inner spatial sides, padded last side).
    """
    inner = [n - ki + 1 for n, ki in zip(xp.shape[2:-1], k[1:-1])]
    slab = xp[:, r0 : r1 + k[0] - 1]
    views = sliding_window_view(slab, (r1 - r0, *inner), axis=tuple(range(1, xp.ndim - 1)))
    # views: (c_in, *k[:-1], padded last side, r1 - r0, *inner); one copy
    # puts the window axes back in front of the last axis
    last = views.ndim - len(k) + 1
    order = tuple(range(len(k))) + tuple(range(last, views.ndim)) + (len(k),)
    return views.transpose(order).reshape(xp.shape[0] * int(np.prod(k[:-1])), -1)


def _conv_forward(x, w, b, pad_mode):
    c_out, k = w.shape[0], w.shape[2:]
    s = x.shape[-1]
    xp = _pad_input(x, k, pad_mode)
    # the last kernel axis's taps become GEMM output rows: z[a] is the
    # correlation over the other axes with w[..., a], and y sums z[a]
    # shifted left by a along the last axis
    ws = np.moveaxis(w, -1, 0).reshape(k[-1] * c_out, -1)
    y = np.empty((c_out,) + x.shape[1:], x.dtype)
    for r0, r1 in _row_slabs(x, w):
        z = (ws @ _patch_matrix(xp, k, r0, r1)).reshape(
            (k[-1], c_out, r1 - r0) + x.shape[2:-1] + xp.shape[-1:]
        )
        out = y[:, r0:r1]
        out[...] = z[0, ..., :s]
        for a in range(1, k[-1]):
            out += z[a, ..., a : a + s]
        del z  # else it outlives the next slab's product, over the budget
    y += b.reshape((c_out,) + (1,) * (y.ndim - 1))
    return y


def _conv_vjp(gy, x, w, pad_mode):
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2:]
    s = x.shape[-1]
    xp = _pad_input(x, k, pad_mode)
    gb = gy.reshape(c_out, -1).sum(axis=1)
    gws = np.zeros((k[-1] * c_out, c_in * int(np.prod(k[:-1]))))
    for r0, r1 in _row_slabs(x, w):
        # adjoint of the shifted sum: gz[a, ..., j + a] = gy[..., j]
        gz = np.zeros((k[-1], c_out, r1 - r0) + x.shape[2:-1] + xp.shape[-1:])
        for a in range(k[-1]):
            gz[a, ..., a : a + s] = gy[:, r0:r1]
        gws += gz.reshape(k[-1] * c_out, -1) @ _patch_matrix(xp, k, r0, r1).T
        del gz
    del xp  # the input gradient does not need it; freeing it lowers the peak
    gw = np.moveaxis(gws.reshape((k[-1], c_out, c_in) + k[:-1]), 0, -1)
    # the adjoint of a same-padded correlation is the correlation with the
    # kernel flipped spatially and transposed in (c_out, c_in), padded the
    # same way; exact for zero padding and for circular wrap of any width
    w_adj = np.flip(w, axis=tuple(range(2, w.ndim))).swapaxes(0, 1)
    gx = _conv_forward(gy, w_adj, np.zeros(c_in), pad_mode)
    return gx, gw, gb


def _avgpool_forward(x):
    c = x.shape[0]
    spatial = x.shape[1:]
    shape = (c,)
    for s in spatial:
        shape += (s // 2, 2)
    axes = tuple(range(2, 2 * len(spatial) + 1, 2))
    return x.reshape(shape).mean(axis=axes)


def _upsample_forward(x):
    for axis in range(1, x.ndim):
        x = np.repeat(x, 2, axis=axis)
    return x


def _instance_norm_forward(x, scale, shift):
    spatial_axes = tuple(range(1, x.ndim))
    mu = x.mean(axis=spatial_axes, keepdims=True)
    var = x.var(axis=spatial_axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_VAR_FLOOR)
    xhat = (x - mu) * inv
    bcast = (slice(None),) + (None,) * (x.ndim - 1)
    return scale[bcast] * xhat + shift[bcast], xhat, inv


def _instance_norm_vjp(gy, xhat, inv, scale):
    spatial_axes = tuple(range(1, gy.ndim))
    bcast = (slice(None),) + (None,) * (gy.ndim - 1)
    gshift = gy.sum(axis=spatial_axes)
    gscale = (gy * xhat).sum(axis=spatial_axes)
    gxhat = gy * scale[bcast]
    mean_g = gxhat.mean(axis=spatial_axes, keepdims=True)
    mean_gx = (gxhat * xhat).mean(axis=spatial_axes, keepdims=True)
    gx = inv * (gxhat - mean_g - xhat * mean_gx)
    return gx, gscale, gshift


# ---------------------------------------------------------------------------
# full network walk


def _check_input_shape(arch: NetArch, shape: tuple[int, ...]):
    if len(shape) != arch.dims:
        raise ShapeMismatchError(
            f"network expects {arch.dims}D input, got shape {shape}"
        )
    factor = arch.pool_factor
    for s in shape:
        if s % factor != 0:
            raise ShapeMismatchError(
                f"input sides must be divisible by {factor}, got shape {shape}"
            )


def net_apply_array(params: NetParams, x: np.ndarray, pad_mode: str = "zeros"):
    """Forward pass on a bare spatial array; returns (output, tape).

    Computes in params.dtype: x is cast to it, and the output and tape are
    in it.  The tape holds every intermediate needed by net_vjp_array.
    """
    arch = params.arch
    if pad_mode not in _PAD_MODES:
        raise ValueError(f"pad_mode must be 'zeros' or 'periodic', got {pad_mode!r}")
    x = np.asarray(x, dtype=params.dtype)
    _check_input_shape(arch, x.shape)
    use_norm = arch.instance_norm
    levels = arch.n_levels

    def block(h, idx):
        z = _conv_forward(h, params.weights[idx], params.biases[idx], pad_mode)
        cache = {"x": h}
        if use_norm:
            z, xhat, inv = _instance_norm_forward(
                z, params.norm_scales[idx], params.norm_shifts[idx]
            )
            cache["xhat"], cache["inv"] = xhat, inv
        cache["active"] = z > 0
        return np.maximum(z, 0.0), cache

    h = x[None]
    tape = {"blocks": [], "pad_mode": pad_mode}
    skips = []
    idx = 0
    for _ in range(levels - 1):
        h, cache = block(h, idx)
        tape["blocks"].append(cache)
        skips.append(h)
        h = _avgpool_forward(h)
        idx += 1
    h, cache = block(h, idx)
    tape["blocks"].append(cache)
    idx += 1
    for lvl in reversed(range(levels - 1)):
        h = _upsample_forward(h)
        # the concatenation copies the skip; popping it frees the list's copy
        # before the decoder conv, the forward's memory peak
        h = np.concatenate([skips.pop(), h], axis=0)
        h, cache = block(h, idx)
        tape["blocks"].append(cache)
        idx += 1
    tape["proj_in"] = h
    y = _conv_forward(h, params.weights[idx], params.biases[idx], pad_mode)
    return y[0], tape


def net_vjp_array(params: NetParams, tape, gy: np.ndarray):
    """Backward pass from a forward tape: returns (grad NetParams, grad input)."""
    arch = params.arch
    pad_mode = tape["pad_mode"]
    use_norm = arch.instance_norm
    levels = arch.n_levels
    grads = NetParams.from_flat(arch, np.zeros(_n_params(arch)))

    def block_backward(g, idx):
        cache = tape["blocks"][idx]
        g = g * cache["active"]
        if use_norm:
            g, grads.norm_scales[idx][...], grads.norm_shifts[idx][...] = _instance_norm_vjp(
                g, cache["xhat"], cache["inv"], params.norm_scales[idx]
            )
        gx, grads.weights[idx][...], grads.biases[idx][...] = _conv_vjp(
            g, cache["x"], params.weights[idx], pad_mode
        )
        return gx

    idx = len(params.weights) - 1
    g, grads.weights[idx][...], grads.biases[idx][...] = _conv_vjp(
        gy[None], tape["proj_in"], params.weights[idx], pad_mode
    )
    idx -= 1

    width = lambda lvl: arch.base_channels * 2**lvl
    skip_grads = []
    for lvl in range(levels - 1):
        g = block_backward(g, idx)
        idx -= 1
        skip_grads.append((lvl, g[: width(lvl)]))
        # upsampling's adjoint sums each 2^d block: the mean times 2^d
        g = _avgpool_forward(g[width(lvl) :]) * 2**arch.dims
    g = block_backward(g, idx)
    idx -= 1
    skip_by_level = dict(skip_grads)
    for lvl in reversed(range(levels - 1)):
        # mean pooling's adjoint spreads g / 2^d over each block
        g = _upsample_forward(g) / 2**arch.dims + skip_by_level[lvl]
        g = block_backward(g, idx)
        idx -= 1

    return grads, g[0]


# ---------------------------------------------------------------------------
# serialization: a dataio record whose header holds the arch as u32 words and
# whose payload is the flat parameter vector as <f8


def save_net_params(path, params: NetParams) -> None:
    """Write parameters as a single binary file."""
    arch = params.arch
    fields = (
        arch.n_levels,
        arch.base_channels,
        arch.kernel_size,
        arch.dims,
        1 if arch.instance_norm else 0,
    )
    write_record(path, PARAMS_MAGIC, PARAMS_HEADER, fields, params.flatten(), "<f8")


def load_net_params(path) -> NetParams:
    (n_levels, base_channels, kernel_size, dims, norm), payload = read_record(
        path, PARAMS_MAGIC, PARAMS_HEADER
    )
    if norm not in (0, 1):
        raise DataFormatError(f"{path}: instance_norm word must be 0 or 1, got {norm}")
    # the bottom conv alone has 2^(n_levels - 1) biases; a larger word would
    # make _n_params count with huge integers before the payload check
    if n_levels > len(payload).bit_length():
        raise DataFormatError(f"{path}: {n_levels} levels need more parameters than the file holds")
    try:
        arch = NetArch(
            n_levels=n_levels,
            base_channels=base_channels,
            kernel_size=kernel_size,
            dims=dims,
            instance_norm=bool(norm),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: header holds no valid architecture: {exc}") from exc
    return NetParams.from_flat(arch, record_values(path, payload, _n_params(arch), "<f8"))
