"""Trainable regularizer network with hand-written vector-Jacobian products.

A small encoder-decoder convolutional net, dimension-generic over 2D and 3D:
conv -> ReLU blocks, 2x average-pool downsampling, nearest-neighbour 2x
upsampling, encoder-decoder skip connections by channel concatenation, and a
final 1x1 projection.  The projection layer initializes to exact zeros so an
untrained network is the zero map.

Neither the upsampled map nor the concatenation is ever built.  A decoder
conv of concat(skip, upsample(h)) is the conv of the skip channels plus, for
each of the 2^d output parities, a smaller conv of the coarse h: nearest
upsampling followed by a conv is a sub-pixel conv.  Along an axis, parity
p of a k-tap decoder reads only (k + 1)//2 coarse taps, from offset
(p - k//2)//2 (_parity_fold): 2 of 3, so 2^d taps per parity for the 3-tap
default.  The 2^d parity kernels are one folded kernel of that many taps
(_fold_kernel, a fixed 0/1 map of the decoder kernel), so the coarse part is
one conv of h at the coarse resolution, padded so that every parity's
window fits in its output (n + 1 sites per axis for k = 3).  Parity p's
window of its output group adds into the strided view y[:, p0::2, p1::2,
...].  Pooling likewise sums the 2^d strided views.

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
builds its whole patch matrix.  A conv writes its padded input, patches and
GEMM output into one workspace per thread, a byte buffer that grows to the
largest request and is then reused, so repeated convs take no fresh pages;
what a conv returns is always a fresh array.  The VJPs are the exact transposes of that
linearization, built from the forward primitives: the kernel gradient is a
sum of per-slab products of the shifted output gradient with the patches,
the input gradient is the same conv with the kernel flipped and transposed
in (c_out, c_in).  A decoder's VJP is the VJP of its two convs: the parity
conv's input gradient is already the coarse gradient, so the upsample's
adjoint folds into it, and the kernel gradient unfolds through the transpose
of the 0/1 map.  Pooling's adjoint adds g / 2^d into each strided view.
ReLU uses the subgradient 0 at exactly 0.  Padding is zero: "same" for
the network's convs, and for the parity conv whatever its windows need.

Parameters live in per-kind tensor lists (kernels and biases) and flatten
to a single vector, the one the optimizer and the checkpoint format use.  Its
order is written once, in _layout: per conv, kernel then bias.  from_flat,
flatten, init_params and the VJP's gradient all walk it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataio import read_record, record_values, write_record
from .errors import DataFormatError, ShapeMismatchError

PARAMS_MAGIC = b"CTNP"
# version, n_levels, base_channels, kernel_size, dims, and a word that is
# always 0: it held an instance_norm flag, so a file with 1 there has norm
# parameters this network does not have
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


def _conv_plan(arch: NetArch) -> list[tuple[int, int, tuple[int, ...]]]:
    """Per-conv (c_in, c_out, kernel shape) in forward order."""
    k = (arch.kernel_size,) * arch.dims
    width = lambda lvl: arch.base_channels * 2**lvl
    plan = []
    prev = 1
    for lvl in range(arch.n_levels - 1):
        plan.append((prev, width(lvl), k))
        prev = width(lvl)
    plan.append((prev, width(arch.n_levels - 1), k))
    cur = width(arch.n_levels - 1)
    for lvl in reversed(range(arch.n_levels - 1)):
        plan.append((cur + width(lvl), width(lvl), k))
        cur = width(lvl)
    plan.append((cur, 1, (1,) * arch.dims))
    return plan


@functools.cache
def _layout(arch: NetArch) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(NetParams list name, shape) of every tensor in flat-vector order: per
    conv of _conv_plan its kernel and bias."""
    layout = []
    for c_in, c_out, k in _conv_plan(arch):
        layout += [("weights", (c_out, c_in) + k), ("biases", (c_out,))]
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

    @property
    def n_params(self) -> int:
        return _n_params(self.arch)

    @property
    def dtype(self) -> np.dtype:
        """The dtype net_apply_array computes in."""
        return self.weights[0].dtype

    def astype(self, dtype) -> "NetParams":
        """A copy with every tensor cast to dtype."""
        cast = lambda tensors: [t.astype(dtype) for t in tensors]
        return NetParams(self.arch, cast(self.weights), cast(self.biases))

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
    """He-initialized hidden kernels, everything else zero.

    The exactly-zero final projection makes the untrained network the zero
    map, so it has no influence on the dynamics until training moves it.
    """
    rng = np.random.default_rng(seed)
    params = NetParams.from_flat(arch, np.zeros(_n_params(arch)))
    for w in params.weights[:-1]:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w[0].size), w.shape)
    return params


# ---------------------------------------------------------------------------
# layer primitives, dimension-generic over (channels, *spatial) arrays


# byte budget of one row slab of a conv: its patch matrix plus its GEMM
# output; a slab holds at least one row, so a row larger than the budget is
# built alone
_PATCH_BYTES = 4 * 2**20

# each thread's conv workspace (_scratch)
_workspace = threading.local()


def _scratch(nbytes: int) -> np.ndarray:
    """This thread's workspace, a byte buffer of at least nbytes.  It grows to
    the largest request and is reused after that, so a conv takes no fresh
    pages for its padded input, patches and GEMM output."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < nbytes:
        buf = _workspace.buf = np.empty(nbytes, np.uint8)
    return buf


def _centred_pads(k: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """k//2 zero sites before and after each axis: "same" for an odd k."""
    return tuple((ki // 2, ki // 2) for ki in k)


def _conv_sides(x, k, pads):
    """(padded sides, output sides) of a conv of x with a k kernel."""
    padded = tuple(n + lo + hi for n, (lo, hi) in zip(x.shape[1:], pads))
    return padded, tuple(p - ki + 1 for p, ki in zip(padded, k))


def _row_slabs(x: np.ndarray, w: np.ndarray, pads=None) -> list[tuple[int, int]]:
    """Ranges r0:r1 of output rows (first spatial axis), at least one row
    each, whose patch matrix and GEMM output together fit _PATCH_BYTES."""
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2:]
    padded, out = _conv_sides(x, k, pads or _centred_pads(k))
    # one column per output row, inner output site and padded last-axis site
    row_cols = math.prod(out[1:-1]) * padded[-1]
    rows_per_col = c_in * math.prod(k[:-1]) + k[-1] * c_out
    step = max(1, _PATCH_BYTES // (rows_per_col * row_cols * x.itemsize))
    return [(r0, min(r0 + step, out[0])) for r0 in range(0, out[0], step)]


def _conv_slabs(x, w, pads):
    """The row slabs of a conv of x with w's kernel, built in this thread's
    workspace.  Yields (r0, r1, patches, z) per slab: the patch matrix of
    output rows r0:r1 and the (k[-1] * c_out, columns) GEMM operand that goes
    with it.  The padded input is written once, ahead of the slabs.

    The patch matrix gathers the windows of the padded input over every
    kernel axis but the last, with the padded last axis kept whole: shape
    (c_in * prod(k[:-1]), columns), the columns in C order over (r1 - r0,
    *inner output sides, padded last side).  Everything yielded is a view of
    the workspace (or, unpadded, of x), valid until the next slab.
    """
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2:]
    item = x.itemsize
    padded, out = _conv_sides(x, k, pads)
    slabs = _row_slabs(x, w, pads)
    cols = (slabs[0][1] - slabs[0][0]) * math.prod(out[1:-1]) * padded[-1]
    patch_rows = c_in * math.prod(k[:-1])
    gathered = patch_rows > c_in  # else the patches are whole rows of xp
    # byte offsets of the padded input, the patches and the GEMM operand,
    # each 64-byte aligned
    sizes = [
        c_in * math.prod(padded) if any(lo or hi for lo, hi in pads) else 0,
        patch_rows * cols if gathered else 0,
        k[-1] * c_out * cols,
    ]
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + -(-size * item // 64) * 64)
    buf = _scratch(offsets[-1])
    region = lambda i: buf[offsets[i] : offsets[i] + sizes[i] * item].view(x.dtype)

    if sizes[0]:
        xp = region(0).reshape((c_in,) + padded)
        inner = tuple(slice(lo, lo + n) for n, (lo, _) in zip(x.shape[1:], pads))
        xp[(slice(None),) + inner] = x
        # the workspace holds stale values: zero the pad sites, axis by axis
        for axis, (n, (lo, hi)) in enumerate(zip(x.shape[1:], pads), start=1):
            before = (slice(None),) * axis
            xp[before + (slice(None, lo),)] = 0
            xp[before + (slice(lo + n, None),)] = 0
    else:
        xp = np.ascontiguousarray(x)
    # windows[c, *taps, *out sites] = xp[c, *(out sites + taps)], over every
    # axis but the last, whose padded sites stay whole
    s = xp.strides
    windows = as_strided(
        xp, (c_in, *k[:-1], *out[:-1], padded[-1]), (s[0], *s[1:-1], *s[1:-1], s[-1])
    )
    lead = (slice(None),) * len(k)
    for r0, r1 in slabs:
        view = windows[lead + (slice(r0, r1),)]
        n_cols = view.size // patch_rows
        if gathered:
            patches = region(1)[: view.size].reshape(view.shape)
            patches[...] = view
            patches = patches.reshape(patch_rows, n_cols)
        else:
            patches = view.reshape(patch_rows, n_cols)
        yield r0, r1, patches, region(2)[: k[-1] * c_out * n_cols].reshape(-1, n_cols)


def _conv_forward(x, w, b, pads=None):
    """Correlation of x (c_in, *spatial) with w (c_out, c_in, *k), plus b,
    over x zero-padded by pads, per axis (before, after) sites; by default
    k//2 each side, "same" for an odd k."""
    c_out, k = w.shape[0], w.shape[2:]
    pads = pads or _centred_pads(k)
    padded, out = _conv_sides(x, k, pads)
    s = out[-1]
    # the last kernel axis's taps become GEMM output rows: z[a] is the
    # correlation over the other axes with w[..., a], and y sums z[a]
    # shifted left by a along the last axis
    ws = np.moveaxis(w, -1, 0).reshape(k[-1] * c_out, -1)
    y = np.empty((c_out,) + out, x.dtype)
    for r0, r1, patches, z in _conv_slabs(x, w, pads):
        np.matmul(ws, patches, out=z)
        z = z.reshape((k[-1], c_out, r1 - r0) + out[1:-1] + padded[-1:])
        dst = y[:, r0:r1]
        dst[...] = z[0, ..., :s]
        for a in range(1, k[-1]):
            dst += z[a, ..., a : a + s]
    if b is not None:
        y += b.reshape((c_out,) + (1,) * (y.ndim - 1))
    return y


def _conv_vjp(gy, x, w, pads=None):
    """(gx, gw, gb) of _conv_forward(x, w, b, pads) for output gradient gy."""
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2:]
    pads = pads or _centred_pads(k)
    s = gy.shape[-1]
    gb = gy.reshape(c_out, -1).sum(axis=1)
    gws = np.zeros((k[-1] * c_out, c_in * math.prod(k[:-1])), x.dtype)
    for r0, r1, patches, gz in _conv_slabs(x, w, pads):
        # adjoint of the shifted sum: gz[a, ..., j + a] = gy[..., j], zero
        # elsewhere
        gz = gz.reshape((k[-1], c_out, r1 - r0) + gy.shape[2:-1] + (s + k[-1] - 1,))
        for a in range(k[-1]):
            gz[a, ..., :a] = 0
            gz[a, ..., a : a + s] = gy[:, r0:r1]
            gz[a, ..., a + s :] = 0
        gws += gz.reshape(k[-1] * c_out, -1) @ patches.T
    gw = np.moveaxis(gws.reshape((k[-1], c_out, c_in) + k[:-1]), 0, -1)
    # the adjoint of a zero-padded correlation is the correlation with the
    # kernel flipped spatially and transposed in (c_out, c_in), padded by
    # k - 1 - pad on the opposite sides
    w_adj = np.flip(w, axis=tuple(range(2, w.ndim))).swapaxes(0, 1)
    adj_pads = tuple((ki - 1 - lo, ki - 1 - hi) for ki, (lo, hi) in zip(k, pads))
    gx = _conv_forward(gy, w_adj, None, adj_pads)
    return gx, gw, gb


def _parity_views(x):
    """The 2^d strided views x[:, p0::2, p1::2, ...] of a (channels, *spatial)
    array, one per parity (p0, p1, ...) in C order."""
    return [
        x[(slice(None),) + tuple(slice(p, None, 2) for p in parity)]
        for parity in np.ndindex(*(2,) * (x.ndim - 1))
    ]


def _avgpool_forward(x):
    views = _parity_views(x)
    y = views[0] + views[1]
    for view in views[2:]:
        y += view
    y *= 1.0 / len(views)
    return y


def _parity_offsets(k: int) -> tuple[int, int]:
    """Along an axis, the coarse offset of the first tap that parity 0 and
    parity 1 of a k-tap decoder read (see _parity_fold)."""
    return (-(k // 2)) // 2, (1 - k // 2) // 2


@functools.cache
def _parity_fold(k: int, dims: int) -> np.ndarray:
    """The 0/1 map Q from a k^d kernel on the 2x nearest-upsampled map to the
    2^d parity kernels on the coarse map, shape (2,)*d + (kp,)*d + (k,)*d
    with kp = (k + 1)//2.

    Along an axis, output site 2m + p reads the upsampled map at
    2m + p + t - k//2, which is coarse site m + (p + t - k//2) // 2.  Over the
    k fine taps t these are the kp coarse sites from m + o_p on, where
    o_p = (p - k//2) // 2 (_parity_offsets), so fine tap t of parity p lands
    on coarse tap (p + t - k//2) // 2 - o_p, and every coarse tap is read.
    """
    r = k // 2
    offsets = _parity_offsets(k)
    q = np.zeros((2,) * dims + ((k + 1) // 2,) * dims + (k,) * dims)
    for parity in np.ndindex(*(2,) * dims):
        for tap in np.ndindex(*(k,) * dims):
            coarse = tuple((p + t - r) // 2 - offsets[p] for p, t in zip(parity, tap))
            q[parity + coarse + tap] = 1.0
    q.setflags(write=False)  # the cache hands the same array to every caller
    return q


def _parity_windows(k: int, coarse: tuple[int, ...]):
    """The padding of the parity conv of a k-tap decoder on a coarse map of
    sides `coarse`, and each parity's window into that conv's output, in
    _parity_views order.

    Output site j of the conv reads coarse sites j - before onward, so
    padding by -o_0 before and o_1 + kp - 1 after gives parity p its sites
    at j = m + o_p - o_0: n + o_1 - o_0 output sites per axis, one more than
    the coarse side when k//2 is odd.
    """
    o = _parity_offsets(k)
    pads = ((-o[0], o[1] + (k + 1) // 2 - 1),) * len(coarse)
    windows = [
        (slice(None),) + tuple(slice(o[p] - o[0], o[p] - o[0] + n) for p, n in zip(parity, coarse))
        for parity in np.ndindex(*(2,) * len(coarse))
    ]
    return pads, windows


def _fold_kernel(w_up):
    """The parity kernel of w_up (c_out, c_up, k, ...): shape
    (2^d * c_out, c_up, kp, ...) with kp = (k + 1)//2, output groups in
    _parity_views order."""
    d = w_up.ndim - 2
    q = _parity_fold(w_up.shape[-1], d)
    kernel = np.tensordot(w_up, q, axes=(range(2, d + 2), range(2 * d, 3 * d)))
    kernel = np.moveaxis(kernel, range(2, d + 2), range(d))
    # q is float64: without the cast a float32 forward's parity conv runs in float64
    return kernel.reshape((-1,) + kernel.shape[d + 1 :]).astype(w_up.dtype)


def _unfold_gradient(g_kernel, k):
    """Adjoint of _fold_kernel for fine kernel size k: the gradient of w_up
    from that of its parity kernel."""
    d = g_kernel.ndim - 2
    g_kernel = g_kernel.reshape((2,) * d + (-1,) + g_kernel.shape[1:])
    axes = [*range(d), *range(d + 2, 2 * d + 2)]
    return np.tensordot(g_kernel, _parity_fold(k, d), axes=(axes, range(2 * d)))


def _decoder_conv_forward(skip, h, w, b):
    """conv(concat(skip, upsample(h)), w) + b without building either: the
    conv of the skip channels plus one parity conv of the coarse h, whose
    2^d output groups add, each through its window, into the strided views
    of the output."""
    c_skip = skip.shape[0]
    y = _conv_forward(skip, w[:, :c_skip], b)
    pads, windows = _parity_windows(w.shape[-1], h.shape[1:])
    z = _conv_forward(h, _fold_kernel(w[:, c_skip:]), None, pads)
    groups = z.reshape((len(windows), -1) + z.shape[1:])
    for view, group, window in zip(_parity_views(y), groups, windows):
        view += group[window]
    return y


def _decoder_conv_vjp(g, skip, h, w):
    """(gskip, gh, gw, gb) of _decoder_conv_forward; gh is at the coarse
    resolution: the upsample's adjoint folds into the parity conv's VJP."""
    c_skip = skip.shape[0]
    gskip, gw_skip, gb = _conv_vjp(g, skip, w[:, :c_skip])
    k = w.shape[-1]
    pads, windows = _parity_windows(k, h.shape[1:])
    sides = _conv_sides(h, ((k + 1) // 2,) * (h.ndim - 1), pads)[1]
    gz = np.zeros((len(windows), g.shape[0]) + sides, g.dtype)
    for group, view, window in zip(gz, _parity_views(g), windows):
        group[window] = view
    gh, g_kernel, _ = _conv_vjp(
        gz.reshape((-1,) + sides), h, _fold_kernel(w[:, c_skip:]), pads
    )
    gw = np.concatenate([gw_skip, _unfold_gradient(g_kernel, k)], axis=1)
    return gskip, gh, gw, gb


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


def net_apply_array(params: NetParams, x: np.ndarray):
    """Forward pass on a bare spatial array; returns (output, tape).

    Computes in params.dtype: x is cast to it, and the output and tape are
    in it.  The tape holds every intermediate needed by net_vjp_array.
    """
    arch = params.arch
    x = np.asarray(x, dtype=params.dtype)
    _check_input_shape(arch, x.shape)
    levels = arch.n_levels

    def block(h, idx, skip=None):
        w, b = params.weights[idx], params.biases[idx]
        if skip is None:
            z = _conv_forward(h, w, b)
        else:
            z = _decoder_conv_forward(skip, h, w, b)
        return np.maximum(z, 0.0), {"x": h, "skip": skip, "active": z > 0}

    h = x[None]
    tape = {"blocks": []}
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
    for _ in range(levels - 1):
        h, cache = block(h, idx, skips.pop())
        tape["blocks"].append(cache)
        idx += 1
    tape["proj_in"] = h
    y = _conv_forward(h, params.weights[idx], params.biases[idx])
    return y[0], tape


def net_vjp_array(params: NetParams, tape, gy: np.ndarray):
    """Backward pass from a forward tape: returns (grad NetParams, grad input)."""
    arch = params.arch
    levels = arch.n_levels
    grads = NetParams.from_flat(arch, np.zeros(_n_params(arch)))

    def block_backward(g, idx):
        """(input gradient, skip gradient or None) of block idx."""
        cache = tape["blocks"][idx]
        g = g * cache["active"]
        w = params.weights[idx]
        if cache["skip"] is None:
            gx, grads.weights[idx][...], grads.biases[idx][...] = _conv_vjp(g, cache["x"], w)
            return gx, None
        gskip, gx, grads.weights[idx][...], grads.biases[idx][...] = _decoder_conv_vjp(
            g, cache["skip"], cache["x"], w
        )
        return gx, gskip

    idx = len(params.weights) - 1
    g, grads.weights[idx][...], grads.biases[idx][...] = _conv_vjp(
        gy[None], tape["proj_in"], params.weights[idx]
    )
    idx -= 1

    skip_grads = []
    for _ in range(levels - 1):
        g, gskip = block_backward(g, idx)
        skip_grads.append(gskip)
        idx -= 1
    g, _ = block_backward(g, idx)
    idx -= 1
    for gskip in reversed(skip_grads):
        # mean pooling's adjoint spreads g / 2^d over each block
        g = g / 2**arch.dims
        for view in _parity_views(gskip):
            view += g
        g, _ = block_backward(gskip, idx)
        idx -= 1

    return grads, g[0]


# ---------------------------------------------------------------------------
# serialization: a dataio record whose header holds the arch as u32 words and
# whose payload is the flat parameter vector as <f8


def save_net_params(path, params: NetParams) -> None:
    """Write parameters as a single binary file."""
    arch = params.arch
    fields = (arch.n_levels, arch.base_channels, arch.kernel_size, arch.dims, 0)
    write_record(path, PARAMS_MAGIC, PARAMS_HEADER, fields, params.flatten(), "<f8")


def load_net_params(path) -> NetParams:
    (n_levels, base_channels, kernel_size, dims, norm), payload = read_record(
        path, PARAMS_MAGIC, PARAMS_HEADER
    )
    if norm != 0:
        raise DataFormatError(
            f"{path}: instance_norm word must be 0, got {norm}; this network has no "
            "instance norm"
        )
    # the bottom conv alone has 2^(n_levels - 1) biases; a larger word would
    # make _n_params count with huge integers before the payload check
    if n_levels > len(payload).bit_length():
        raise DataFormatError(f"{path}: {n_levels} levels need more parameters than the file holds")
    try:
        arch = NetArch(n_levels, base_channels, kernel_size, dims)
    except ValueError as exc:
        raise DataFormatError(f"{path}: header holds no valid architecture: {exc}") from exc
    return NetParams.from_flat(arch, record_values(path, payload, _n_params(arch), "<f8"))
