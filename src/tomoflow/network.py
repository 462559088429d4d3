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
the training sample, the VJPs and the parameter file, float32 for the
forward passes of ode.reconstruct_node, the solve of reconstruction and
validation (NetParams.astype).  A convolution is one im2col GEMM per slab of
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
what a conv returns is always a fresh array.

What a conv does that depends only on its shapes is worked out once, as its
plan (_conv_plan), cached per (input shape, kernel shape, padding, dtype,
slab budget): the padded and output sides, the slabs, the workspace offsets,
the window strides, the interior and pad-face indices and the weight
transposes.  Each thread binds a plan's views into its workspace on first
use: the padded input's interior and pad faces, and per slab the windows it
gathers, where the patches go, and the GEMM operand with its per-tap views.
So a conv runs only its numpy kernels.  The pad faces are zeroed on every
call, since other convs write the same bytes.  When the workspace grows,
every bound view is dropped with the old buffer, and plans bind again.

The VJPs are the exact transposes of the conv's linearization, built from
the forward primitives: the kernel gradient is a sum of per-slab products of
the shifted output gradient with the patches, the input gradient is the same
conv with the kernel flipped and transposed in (c_out, c_in).  A decoder's VJP is the VJP of its two convs: the parity
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
from typing import NamedTuple

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


def _conv_shapes(arch: NetArch) -> list[tuple[int, int, tuple[int, ...]]]:
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
    conv of _conv_shapes its kernel and bias."""
    layout = []
    for c_in, c_out, k in _conv_shapes(arch):
        layout += [("weights", (c_out, c_in) + k), ("biases", (c_out,))]
    return tuple(layout)


def _n_params(arch: NetArch) -> int:
    """Length of the flat parameter vector of arch."""
    return sum(math.prod(shape) for _, shape in _layout(arch))


@dataclass
class NetParams:
    """All trainable tensors of one network, in _conv_shapes order."""

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

# each thread's conv workspace (_scratch) and the plan views bound into it
# (_bound_views)
_workspace = threading.local()


def _scratch(nbytes: int) -> np.ndarray:
    """This thread's workspace, a byte buffer of at least nbytes.  It grows to
    the largest request and is reused after that, so a conv takes no fresh
    pages for its padded input, patches and GEMM output.  Growing drops every
    view bound into the old buffer, so that nothing keeps it alive."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < nbytes:
        _workspace.buf = _workspace.views = buf = None
        buf = _workspace.buf = np.empty(nbytes, np.uint8)
        _workspace.views = {}
    return buf


def _centred_pads(k: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """k//2 zero sites before and after each axis: "same" for an odd k."""
    return tuple((ki // 2, ki // 2) for ki in k)


class _Slab(NamedTuple):
    """Output rows r0:r1 of a conv plan, with their index into the output
    (rows), into the windows (window), and the shapes of their patches and of
    their GEMM operand split by last-axis tap (taps_shape)."""

    r0: int
    r1: int
    rows: tuple
    window: tuple
    patch_shape: tuple[int, ...]
    n_cols: int
    taps_shape: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class _ConvPlan:
    """Everything about a conv that depends only on its shapes (_conv_plan).

    The workspace holds three regions at 64-byte aligned byte offsets: the
    padded input, one slab's patches and one slab's GEMM operand; sizes are
    in elements, 0 for patches that are whole rows of the padded input.
    windows (shape window_shape, strides window_strides) is the strided view
    of the padded input whose slabs the patches gather.  taps and margins index a slab's
    GEMM operand, reshaped to taps_shape: per last-axis tap a, its shifted
    window (a, ..., a:a + s), and the sites on either side of it.
    """

    padded: tuple[int, ...]
    out: tuple[int, ...]
    slabs: tuple[_Slab, ...]
    sizes: tuple[int, int, int]
    offsets: tuple[int, ...]
    dtype: np.dtype
    window_shape: tuple[int, ...]
    window_strides: tuple[int, ...]
    interior: tuple
    faces: tuple
    taps: tuple
    margins: tuple
    patch_rows: int
    # the weight matrices: w.transpose(w_perm).reshape(ws_shape) is the
    # forward's GEMM operand; the kernel gradient is
    # gws.reshape(gw_shape).transpose(gw_perm); w[flip] flips the kernel
    w_perm: tuple[int, ...]
    ws_shape: tuple[int, int]
    gw_shape: tuple[int, ...]
    gw_perm: tuple[int, ...]
    flip: tuple
    adj_pads: tuple[tuple[int, int], ...]
    bias_shape: tuple[int, ...]


@functools.cache
def _conv_plan(x_shape, w_shape, pads, dtype, budget) -> _ConvPlan:
    """The plan of a conv of an x_shape input with a w_shape kernel, zero-
    padded by pads (None: _centred_pads), with row slabs of at most budget
    bytes."""
    c_out, c_in, k = w_shape[0], w_shape[1], w_shape[2:]
    pads = pads or _centred_pads(k)
    dtype = np.dtype(dtype)
    item = dtype.itemsize
    padded = tuple(n + lo + hi for n, (lo, hi) in zip(x_shape[1:], pads))
    out = tuple(p - ki + 1 for p, ki in zip(padded, k))

    # slabs of output rows (first spatial axis), at least one row each,
    # whose patch matrix and GEMM output together fit the budget: one column
    # per output row, inner output site and padded last-axis site
    row_cols = math.prod(out[1:-1]) * padded[-1]
    patch_rows = c_in * math.prod(k[:-1])
    step = max(1, budget // ((patch_rows + k[-1] * c_out) * row_cols * item))
    lead = (slice(None),) * len(k)
    slabs = []
    for r0 in range(0, out[0], step):
        r1 = min(r0 + step, out[0])
        patch_shape = (c_in, *k[:-1], r1 - r0, *out[1:-1], padded[-1])
        slabs.append(_Slab(
            r0, r1, (slice(None), slice(r0, r1)), lead + (slice(r0, r1),), patch_shape,
            (r1 - r0) * row_cols, (k[-1], c_out, r1 - r0, *out[1:-1], padded[-1]),
        ))
    cols = slabs[0].n_cols

    sizes = (
        c_in * math.prod(padded),
        patch_rows * cols if patch_rows > c_in else 0,
        k[-1] * c_out * cols,
    )
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + -(-size * item // 64) * 64)

    # windows[c, *taps, *out sites] = xp[c, *(out sites + taps)], over every
    # axis but the last, whose padded sites stay whole; xp is C-contiguous
    s = [item]
    for n in reversed(padded):
        s.insert(0, s[0] * n)
    inner = tuple(slice(lo, lo + n) for n, (lo, _) in zip(x_shape[1:], pads))
    faces = []
    for axis, (n, (lo, hi)) in enumerate(zip(x_shape[1:], pads), start=1):
        before = (slice(None),) * axis
        faces += [before + (slice(None, lo),)] * (lo > 0)
        faces += [before + (slice(lo + n, None),)] * (hi > 0)

    width = out[-1]
    d = len(k) + 2
    return _ConvPlan(
        padded=padded,
        out=out,
        slabs=tuple(slabs),
        sizes=sizes,
        offsets=tuple(offsets),
        dtype=dtype,
        window_shape=(c_in, *k[:-1], *out[:-1], padded[-1]),
        window_strides=(s[0], *s[1:-1], *s[1:-1], s[-1]),
        interior=(slice(None),) + inner,
        faces=tuple(faces),
        taps=tuple((a, Ellipsis, slice(a, a + width)) for a in range(k[-1])),
        margins=tuple((a, Ellipsis, slice(None, a)) for a in range(1, k[-1]))
        + tuple((a, Ellipsis, slice(a + width, None)) for a in range(k[-1] - 1)),
        patch_rows=patch_rows,
        w_perm=(d - 1, *range(d - 1)),
        ws_shape=(k[-1] * c_out, patch_rows),
        gw_shape=(k[-1], c_out, c_in, *k[:-1]),
        gw_perm=(*range(1, d), 0),
        flip=(slice(None), slice(None)) + (slice(None, None, -1),) * len(k),
        adj_pads=tuple((ki - 1 - lo, ki - 1 - hi) for ki, (lo, hi) in zip(k, pads)),
        bias_shape=(c_out,) + (1,) * len(k),
    )


def _row_slabs(x: np.ndarray, w: np.ndarray, pads=None) -> list[tuple[int, int]]:
    """Ranges r0:r1 of output rows (first spatial axis), at least one row
    each, whose patch matrix and GEMM output together fit _PATCH_BYTES."""
    plan = _conv_plan(x.shape, w.shape, pads, x.dtype, _PATCH_BYTES)
    return [(slab.r0, slab.r1) for slab in plan.slabs]


class _BoundSlab(NamedTuple):
    """A slab's views into this thread's workspace: the windows its patches
    gather, where they go (None when the patches are whole rows of the padded
    input), the patch matrix, the GEMM operand z, and z's tap and margin
    views."""

    source: np.ndarray
    dst: np.ndarray | None
    patches: np.ndarray
    z: np.ndarray
    taps: tuple[np.ndarray, ...]
    margins: tuple[np.ndarray, ...]


class _Bound(NamedTuple):
    """A plan's views into this thread's workspace: the padded input's
    interior and pad faces, and the slabs."""

    interior: np.ndarray
    faces: tuple[np.ndarray, ...]
    slabs: tuple[_BoundSlab, ...]


def _bind(plan: _ConvPlan, buf: np.ndarray) -> _Bound:
    """plan's views into buf (_Bound)."""
    item = plan.dtype.itemsize
    region = lambda i: buf[
        plan.offsets[i] : plan.offsets[i] + plan.sizes[i] * item
    ].view(plan.dtype)
    xp = region(0).reshape((plan.window_shape[0],) + plan.padded)
    windows = as_strided(xp, plan.window_shape, plan.window_strides)
    slabs = []
    for slab in plan.slabs:
        source, dst = windows[slab.window], None
        if plan.sizes[1]:
            dst = region(1)[: math.prod(slab.patch_shape)].reshape(slab.patch_shape)
            patches = dst.reshape(plan.patch_rows, slab.n_cols)
        else:
            # whole rows of xp, contiguous in each channel: a view of xp
            patches = source.reshape(plan.patch_rows, slab.n_cols)
        z = region(2)[: plan.ws_shape[0] * slab.n_cols].reshape(-1, slab.n_cols)
        by_tap = z.reshape(slab.taps_shape)
        slabs.append(_BoundSlab(
            source, dst, patches, z,
            tuple(by_tap[t] for t in plan.taps), tuple(by_tap[m] for m in plan.margins),
        ))
    return _Bound(xp[plan.interior], tuple(xp[face] for face in plan.faces), tuple(slabs))


def _bound_views(plan: _ConvPlan) -> _Bound:
    """plan's views into this thread's workspace, bound on first use."""
    buf = _scratch(plan.offsets[-1])
    bound = _workspace.views.get(plan)
    if bound is None:
        bound = _workspace.views[plan] = _bind(plan, buf)
    return bound


def _conv_slabs(x, plan: _ConvPlan):
    """The row slabs of plan's conv of x, built in this thread's workspace.
    Yields (slab, views) per slab: the plan's _Slab and its _BoundSlab views,
    with its patches gathered.  The padded input is written once, ahead of
    the slabs.

    The patch matrix gathers the windows of the padded input over every
    kernel axis but the last, with the padded last axis kept whole: shape
    (c_in * prod(k[:-1]), columns), the columns in C order over (r1 - r0,
    *inner output sides, padded last side).  Everything yielded is a view of
    the workspace, valid until the next slab.
    """
    bound = _bound_views(plan)
    bound.interior[...] = x
    # other convs share the workspace: zero the pad faces on every call
    for face in bound.faces:
        face[...] = 0
    for slab, views in zip(plan.slabs, bound.slabs):
        if views.dst is not None:
            views.dst[...] = views.source
        yield slab, views


def _conv_forward(x, w, b, pads=None):
    """Correlation of x (c_in, *spatial) with w (c_out, c_in, *k), plus b,
    over x zero-padded by pads, per axis (before, after) sites; by default
    k//2 each side, "same" for an odd k."""
    plan = _conv_plan(x.shape, w.shape, pads, x.dtype, _PATCH_BYTES)
    # the last kernel axis's taps become GEMM output rows: z[a] is the
    # correlation over the other axes with w[..., a], and y sums z[a]
    # shifted left by a along the last axis
    ws = w.transpose(plan.w_perm).reshape(plan.ws_shape)
    y = np.empty((w.shape[0],) + plan.out, x.dtype)
    for slab, views in _conv_slabs(x, plan):
        np.matmul(ws, views.patches, out=views.z)
        dst = y[slab.rows]
        dst[...] = views.taps[0]
        for tap in views.taps[1:]:
            dst += tap
    if b is not None:
        y += b.reshape(plan.bias_shape)
    return y


def _conv_vjp(gy, x, w, pads=None):
    """(gx, gw, gb) of _conv_forward(x, w, b, pads) for output gradient gy."""
    plan = _conv_plan(x.shape, w.shape, pads, x.dtype, _PATCH_BYTES)
    gb = gy.reshape(w.shape[0], -1).sum(axis=1)
    gws = np.zeros(plan.ws_shape, x.dtype)
    for slab, views in _conv_slabs(x, plan):
        # adjoint of the shifted sum: gz[a, ..., j + a] = gy[..., j], zero
        # elsewhere
        for margin in views.margins:
            margin[...] = 0
        g = gy[slab.rows]
        for tap in views.taps:
            tap[...] = g
        gws += views.z @ views.patches.T
    gw = gws.reshape(plan.gw_shape).transpose(plan.gw_perm)
    # the adjoint of a zero-padded correlation is the correlation with the
    # kernel flipped spatially and transposed in (c_out, c_in), padded by
    # k - 1 - pad on the opposite sides
    gx = _conv_forward(gy, w[plan.flip].swapaxes(0, 1), None, plan.adj_pads)
    return gx, gw, gb


@functools.cache
def _parity_slices(ndim: int) -> tuple[tuple[slice, ...], ...]:
    """The indices of _parity_views for an ndim-dimensional array."""
    return tuple(
        (slice(None),) + tuple(slice(p, None, 2) for p in parity)
        for parity in np.ndindex(*(2,) * (ndim - 1))
    )


def _parity_views(x):
    """The 2^d strided views x[:, p0::2, p1::2, ...] of a (channels, *spatial)
    array, one per parity (p0, p1, ...) in C order."""
    return [x[index] for index in _parity_slices(x.ndim)]


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


@functools.cache
def _parity_windows(k: int, coarse: tuple[int, ...]):
    """The padding of the parity conv of a k-tap decoder on a coarse map of
    sides `coarse`, each parity's window into that conv's output, in
    _parity_views order, and the conv's output sides.

    Output site j of the conv reads coarse sites j - before onward, so
    padding by -o_0 before and o_1 + kp - 1 after gives parity p its sites
    at j = m + o_p - o_0: n + o_1 - o_0 output sites per axis, one more than
    the coarse side when k//2 is odd.
    """
    o = _parity_offsets(k)
    pads = ((-o[0], o[1] + (k + 1) // 2 - 1),) * len(coarse)
    windows = tuple(
        (slice(None),) + tuple(slice(o[p] - o[0], o[p] - o[0] + n) for p, n in zip(parity, coarse))
        for parity in np.ndindex(*(2,) * len(coarse))
    )
    return pads, windows, tuple(n + o[1] - o[0] for n in coarse)


@functools.cache
def _fold_matrix(k: int, dims: int) -> np.ndarray:
    """_parity_fold as the (k^d, 2^d * kp^d) matrix of _fold_kernel's GEMM,
    laid out as np.tensordot lays it out, so the GEMM is the same."""
    q = _parity_fold(k, dims)
    m = q.transpose((*range(2 * dims, 3 * dims), *range(2 * dims))).reshape(k**dims, -1)
    m.setflags(write=False)
    return m


def _fold_kernel(w_up):
    """The parity kernel of w_up (c_out, c_up, k, ...): shape
    (2^d * c_out, c_up, kp, ...) with kp = (k + 1)//2, output groups in
    _parity_views order."""
    c_out, c_up, k = w_up.shape[0], w_up.shape[1], w_up.shape[-1]
    d = w_up.ndim - 2
    kp = ((k + 1) // 2,) * d
    kernel = np.dot(w_up.reshape(c_out * c_up, -1), _fold_matrix(k, d))
    # parity axes first
    kernel = kernel.reshape((c_out, c_up) + (2,) * d + kp).transpose(
        (*range(2, d + 2), 0, 1, *range(d + 2, 2 * d + 2))
    )
    # the map is float64: without the cast a float32 forward's parity conv
    # runs in float64
    return kernel.reshape((-1, c_up) + kp).astype(w_up.dtype, copy=False)


def _unfold_gradient(g_kernel, k):
    """Adjoint of _fold_kernel for fine kernel size k: the gradient of w_up
    from that of its parity kernel."""
    d = g_kernel.ndim - 2
    c_out, c_up = g_kernel.shape[0] // 2**d, g_kernel.shape[1]
    # (c_out, c_up) first, then the parity and coarse tap axes
    g = g_kernel.reshape((2,) * d + (c_out,) + g_kernel.shape[1:]).transpose(
        (d, d + 1, *range(d), *range(d + 2, 2 * d + 2))
    )
    q = _parity_fold(k, d).reshape(-1, k**d)
    return np.dot(g.reshape(c_out * c_up, -1), q).reshape((c_out, c_up) + (k,) * d)


def _decoder_conv_forward(skip, h, w, b):
    """conv(concat(skip, upsample(h)), w) + b without building either: the
    conv of the skip channels plus one parity conv of the coarse h, whose
    2^d output groups add, each through its window, into the strided views
    of the output."""
    c_skip = skip.shape[0]
    y = _conv_forward(skip, w[:, :c_skip], b)
    pads, windows, _ = _parity_windows(w.shape[-1], h.shape[1:])
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
    pads, windows, sides = _parity_windows(k, h.shape[1:])
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
