"""Tests for the regularizer network and its hand-written backward pass.

Gradient correctness is checked against central finite differences of the
scalar loss <c, N(x)> in random directions, for parameters and for the
input, across 2D, 3D and three-level variants.  Forward behavior is
pinned with a hand-built identity configuration.
"""

import gc
import math
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from tomoflow import (
    DataFormatError,
    NetArch,
    NetParams,
    ShapeMismatchError,
    init_params,
    load_net_params,
    save_net_params,
)
from tomoflow import network
from tomoflow.network import (
    _avgpool_forward,
    _conv_forward,
    _conv_vjp,
    _decoder_conv_forward,
    _decoder_conv_vjp,
    _fold_kernel,
    _parity_fold,
    _row_slabs,
    _unfold_gradient,
    net_apply_array,
    net_vjp_array,
)

from decoder_oracle import concat_decoder_forward, concat_decoder_vjp, reshape_mean_pool

# every conv pads with zeros; the tests of padded convs name that rule in
# their ids
zero_padding = pytest.mark.parametrize("padding", ["zeros"])


def unzero_projection(params, seed):
    # init_params leaves the final 1x1 projection at zero; give it random
    # weights so gradients flow through every layer
    params.weights[-1][...] = np.random.default_rng(seed).normal(
        0.0, 0.3, params.weights[-1].shape
    )
    return params


# --- initialization and forward behavior ---


def test_fresh_network_is_the_zero_map():
    for seed in range(5):
        params = init_params(NetArch(), seed)
        x = np.random.default_rng(seed + 50).normal(0.0, 1.0, (8, 8))
        out, _ = net_apply_array(params, x)
        assert np.array_equal(out, np.zeros((8, 8)))


def test_init_is_deterministic_per_seed():
    arch = NetArch()
    a = init_params(arch, 5).flatten()
    b = init_params(arch, 5).flatten()
    c = init_params(arch, 6).flatten()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_default_architecture_parameter_count():
    # encoder 1->4 (3x3), bottom 4->8 (3x3), decoder 12->4 (3x3), proj 4->1 (1x1)
    expected = (1 * 4 * 9 + 4) + (4 * 8 * 9 + 8) + (12 * 4 * 9 + 4) + (4 * 1 + 1)
    assert expected == 777
    params = init_params(NetArch(), 0)
    assert params.n_params == 777
    assert params.flatten().size == 777


def test_hand_built_identity_configuration():
    # single level, zeroed kernels except a center tap on channel 0, unit
    # projection from that channel: the network is the identity on x >= 0
    arch = NetArch(n_levels=1, base_channels=4, kernel_size=3)
    params = init_params(arch, 0)
    for w in params.weights:
        w[...] = 0.0
    params.weights[0][0, 0, 1, 1] = 1.0
    params.weights[1][0, 0] = 1.0

    x = np.random.default_rng(0).uniform(0.0, 1.0, (10, 10))
    out, _ = net_apply_array(params, x)
    assert np.array_equal(out, x)


def test_output_shape_matches_input_shape():
    params = unzero_projection(init_params(NetArch(), 0), 1)
    x = np.random.default_rng(2).normal(0.0, 1.0, (12, 16))
    assert net_apply_array(params, x)[0].shape == (12, 16)


# --- gradients ---


def directional_fd_errors(arch, shape, seed, n_dirs=4, h=1e-6):
    """Worst relative FD mismatch over random directions, (params, input)."""
    params = unzero_projection(init_params(arch, seed), seed + 100)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.0, 1.0, shape)
    c = rng.normal(0.0, 1.0, shape)

    _, tape = net_apply_array(params, x)
    grads, gx = net_vjp_array(params, tape, c)
    gflat = grads.flatten()
    theta = params.flatten()

    def loss_theta(vec):
        net = NetParams.from_flat(arch, vec)
        return float(np.sum(c * net_apply_array(net, x)[0]))

    def loss_x(values):
        return float(np.sum(c * net_apply_array(params, values)[0]))

    worst_p = worst_x = 0.0
    for k in range(n_dirs):
        d = np.random.default_rng(200 + k).normal(0.0, 1.0, theta.size)
        fd = (loss_theta(theta + h * d) - loss_theta(theta - h * d)) / (2.0 * h)
        analytic = float(gflat @ d)
        worst_p = max(worst_p, abs(fd - analytic) / abs(analytic))

        dx = np.random.default_rng(300 + k).normal(0.0, 1.0, shape)
        fdx = (loss_x(x + h * dx) - loss_x(x - h * dx)) / (2.0 * h)
        analytic_x = float(np.sum(gx * dx))
        worst_x = max(worst_x, abs(fdx - analytic_x) / abs(analytic_x))
    return worst_p, worst_x


def test_gradients_match_finite_differences_single_level():
    err_p, err_x = directional_fd_errors(NetArch(n_levels=1, base_channels=2), (5, 5), 0)
    assert err_p < 1e-6
    assert err_x < 1e-6


@zero_padding
def test_gradients_match_finite_differences_default_arch(padding):
    err_p, err_x = directional_fd_errors(NetArch(), (8, 8), 1)
    assert err_p < 1e-6
    assert err_x < 1e-6


@zero_padding
def test_gradients_match_finite_differences_3d(padding):
    err_p, err_x = directional_fd_errors(
        NetArch(n_levels=2, base_channels=2, dims=3), (4, 4, 4), 2
    )
    assert err_p < 1e-6
    assert err_x < 1e-6


@pytest.mark.parametrize(
    "dims, shape", [(2, (8, 8)), (3, (8, 8, 8))], ids=["2d", "3d"]
)
def test_gradients_match_finite_differences_three_levels(dims, shape):
    # two decoders: the skip gradient of each level and the coarse gradient
    # of the parity conv both reach the input
    arch = NetArch(n_levels=3, base_channels=2, dims=dims)
    err_p, err_x = directional_fd_errors(arch, shape, 6)
    assert err_p < 1e-6
    assert err_x < 1e-6


@zero_padding
@pytest.mark.parametrize(
    "c_in, c_out, k, spatial",
    [(3, 2, 3, (6, 5)), (2, 4, 5, (4, 6)), (2, 3, 1, (4, 4)), (2, 3, 3, (4, 3, 5))],
)
def test_conv_input_gradient_is_the_exact_adjoint(padding, c_in, c_out, k, spatial):
    rng = np.random.default_rng(15)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + (k,) * len(spatial))
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)
    y = _conv_forward(x, w, np.zeros(c_out))
    gx, _, _ = _conv_vjp(gy, x, w)
    assert abs(np.sum(y * gy) - np.sum(x * gx)) < 1e-12 * np.sum(np.abs(y * gy))


@zero_padding
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("spatial", [(5, 4), (5, 3, 4)])
def test_row_slabs_match_a_single_slab(monkeypatch, padding, k, spatial):
    rng = np.random.default_rng(16)
    c_in = c_out = 2
    kernel = (k,) * len(spatial)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + kernel)
    b = rng.normal(0.0, 1.0, c_out)
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)

    def conv_and_vjp():
        return (_conv_forward(x, w, b),) + _conv_vjp(gy, x, w)

    monkeypatch.setattr(network, "_PATCH_BYTES", 2**40)
    assert _row_slabs(x, w) == [(0, 5)]
    reference = conv_and_vjp()

    # a row's patch matrix has c_in * k^(d-1) rows and its GEMM output
    # k * c_out rows, over the inner sides and the padded last side
    row_cols = int(np.prod(spatial[1:-1])) * (spatial[-1] + k - 1)
    row_bytes = (c_in * k ** (len(spatial) - 1) + k * c_out) * row_cols * 8
    # one row per slab, then two rows per slab with a partial last slab
    for budget, slabs in [
        (1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        (2 * row_bytes, [(0, 2), (2, 4), (4, 5)]),
        (3 * row_bytes - 1, [(0, 2), (2, 4), (4, 5)]),
    ]:
        monkeypatch.setattr(network, "_PATCH_BYTES", budget)
        assert _row_slabs(x, w) == slabs
        for got, want in zip(conv_and_vjp(), reference):
            # relative to the array's scale: gw and gx entries that cancel
            # to near zero differ by an ulp of the summands
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def shifted(x, shift):
    """x moved so that out[j] = x[j + shift] on every spatial axis; sites
    beyond the edge read zero."""
    out = np.zeros_like(x)
    dst, src = [slice(None)], [slice(None)]
    for s, n in zip(shift, x.shape[1:]):
        dst.append(slice(max(0, -s), min(n, n - s)))
        src.append(slice(max(0, s), min(n, n + s)))
    out[tuple(dst)] = x[tuple(src)]
    return out


def direct_conv_and_vjp(x, w, b, gy):
    """Same-padded correlation as a sum over all k^d taps of shifted inputs,
    with its kernel and input gradients tap by tap."""
    c_out, c_in, *k = w.shape
    y = np.zeros((c_out,) + x.shape[1:]) + b.reshape((c_out,) + (1,) * (x.ndim - 1))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for tap in np.ndindex(*k):
        shift = [t - ki // 2 for t, ki in zip(tap, k)]
        wt = w[(slice(None), slice(None)) + tap]
        xs = shifted(x, shift)
        y += np.tensordot(wt, xs, axes=(1, 0))
        gw[(slice(None), slice(None)) + tap] = np.tensordot(
            gy, xs, axes=(range(1, x.ndim), range(1, x.ndim))
        )
        gx += shifted(np.tensordot(wt, gy, axes=(0, 0)), [-s for s in shift])
    return y, gx, gw, gy.reshape(c_out, -1).sum(axis=1)


@zero_padding
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize(
    "c_in, c_out, spatial",
    [(1, 3, (6, 5)), (4, 2, (5, 6)), (1, 2, (4, 3, 5)), (3, 2, (5, 4, 3)), (2, 4, (3, 5, 4))],
)
def test_conv_matches_a_direct_shifted_sum(monkeypatch, padding, k, c_in, c_out, spatial):
    rng = np.random.default_rng(18)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + (k,) * len(spatial))
    b = rng.normal(0.0, 1.0, c_out)
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)
    want = direct_conv_and_vjp(x, w, b, gy)
    # one slab under the default budget, then one row per slab
    for budget, n_slabs in ((network._PATCH_BYTES, 1), (1, spatial[0])):
        monkeypatch.setattr(network, "_PATCH_BYTES", budget)
        assert len(_row_slabs(x, w)) == n_slabs
        y = _conv_forward(x, w, b)
        gx, gw, gb = _conv_vjp(gy, x, w)
        for got, ref in zip((y, gx, gw, gb), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- the decoder at the coarse resolution ---


@zero_padding
@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize(
    # coarse sides 1 and 2 are below the radius of a 5x5 or 7x7 kernel, so the
    # parity kernel's padding is wider than the map it pads
    "spatial", [(1, 2), (3, 4), (2, 2, 2), (1, 3, 2)], ids=["2d-1x2", "2d-3x4", "3d-2", "3d-1x3x2"]
)
def test_decoder_matches_the_concatenation_oracle(padding, k, spatial):
    rng = np.random.default_rng(19)
    c_skip, c_up, c_out = 2, 3, 4
    fine = tuple(2 * s for s in spatial)
    skip = rng.normal(0.0, 1.0, (c_skip,) + fine)
    h = rng.normal(0.0, 1.0, (c_up,) + spatial)
    w = rng.normal(0.0, 1.0, (c_out, c_skip + c_up) + (k,) * len(spatial))
    b = rng.normal(0.0, 1.0, c_out)
    g = rng.normal(0.0, 1.0, (c_out,) + fine)

    want = (concat_decoder_forward(skip, h, w, b),) + concat_decoder_vjp(g, skip, h, w)
    got = (_decoder_conv_forward(skip, h, w, b),) + _decoder_conv_vjp(g, skip, h, w)
    # forward, gskip, gh, kernel gradient, bias gradient
    for a, ref in zip(got, want):
        assert a.shape == ref.shape
        assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

    single = lambda a: a.astype(np.float32)
    got32 = _decoder_conv_forward(single(skip), single(h), single(w), single(b))
    assert got32.dtype == np.float32
    assert np.max(np.abs(got32 - want[0])) <= 1e-6 * np.max(np.abs(want[0]))


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_parity_fold_and_its_adjoint(dims, k):
    q = _parity_fold(k, dims)
    # every fine tap of every parity lands on exactly one coarse tap
    coarse_axes = tuple(range(dims, 2 * dims))
    assert np.array_equal(q.sum(axis=coarse_axes), np.ones((2,) * dims + (k,) * dims))
    assert set(np.unique(q)) <= {0.0, 1.0}

    # output site 2m + p of the upsampled map's conv reads fine site
    # 2m + p + t - k//2 at fine tap t: coarse site m + floor((p + t - k//2) / 2).
    # A parity reads (k + 1)//2 coarse taps per axis, from (p - k//2)//2 on
    r = k // 2
    start = [min(math.floor((p + t - r) / 2) for t in range(k)) for p in (0, 1)]
    assert start == [(p - r) // 2 for p in (0, 1)]
    assert network._parity_offsets(k) == tuple(start)
    assert q.shape == (2,) * dims + ((k + 1) // 2,) * dims + (k,) * dims
    for parity in np.ndindex(*(2,) * dims):
        for tap in np.ndindex(*(k,) * dims):
            coarse = np.argwhere(q[parity + (Ellipsis,) + tap])
            want = [math.floor((p + t - r) / 2) - start[p] for p, t in zip(parity, tap)]
            assert coarse.tolist() == [want]
        # every coarse tap is read: none is a structural zero
        assert np.all(q[parity].sum(axis=coarse_axes) > 0)

    rng = np.random.default_rng(20)
    w = rng.normal(0.0, 1.0, (3, 2) + (k,) * dims)
    folded = _fold_kernel(w)
    kc = q.shape[dims]
    assert folded.shape == (2**dims * 3, 2) + (kc,) * dims
    g = rng.normal(0.0, 1.0, folded.shape)
    # <Q w, K> = <w, Q^T K>
    lhs, rhs = np.sum(folded * g), np.sum(w * _unfold_gradient(g, k))
    assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(folded * g))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(4, 8, 6), (3, 4, 6, 8)], ids=["2d", "3d"])
def test_avgpool_matches_a_reshape_mean(dtype, shape):
    x = np.random.default_rng(21).normal(0.0, 1.0, shape).astype(dtype)
    got = _avgpool_forward(x)
    want = reshape_mean_pool(x.astype(np.float64))
    assert got.dtype == dtype
    bound = 1e-15 if dtype == np.float64 else 1e-6
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


@pytest.mark.parametrize("dims, side", [(2, 16), (3, 8)])
def test_float32_forward_computes_in_float32(monkeypatch, dims, side):
    # a parity kernel folded with the float64 map and left uncast would run
    # the parity conv in float64, about twice as slow, with equal outputs
    seen = []
    conv = network._conv_forward

    def recording_conv(x, w, b, *pads):
        seen.append((x.dtype, w.dtype))
        return conv(x, w, b, *pads)

    monkeypatch.setattr(network, "_conv_forward", recording_conv)
    params = unzero_projection(init_params(NetArch(n_levels=3, dims=dims), 0), 1)
    x = np.random.default_rng(22).uniform(0.0, 1.0, (side,) * dims)
    y, _ = net_apply_array(params.astype(np.float32), x)
    assert y.dtype == np.float32
    # 2 encoders, the bottom, 2 decoders of two convs each, the projection
    assert len(seen) == 8
    assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}


def test_3d_network_memory_is_bounded():
    # building each conv's whole 32^3 patch matrix peaked at 92 MiB in the
    # forward pass and 121 MiB in the VJP
    params = unzero_projection(init_params(NetArch(dims=3), 0), 1)
    rng = np.random.default_rng(17)
    x = rng.normal(0.0, 1.0, (32, 32, 32))
    gy = rng.normal(0.0, 1.0, (32, 32, 32))
    tracemalloc.start()
    try:
        _, tape = net_apply_array(params, x)
        fwd_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before_vjp = tracemalloc.get_traced_memory()[0]
        net_vjp_array(params, tape, gy)
        vjp_peak = tracemalloc.get_traced_memory()[1] - before_vjp
    finally:
        tracemalloc.stop()
    assert fwd_peak <= 24 * 2**20
    assert vjp_peak <= 24 * 2**20


def test_float32_forward_matches_float64():
    params = unzero_projection(init_params(NetArch(dims=3), 0), 1)
    x = np.random.default_rng(18).uniform(0.0, 1.0, (32, 32, 32))
    want, _ = net_apply_array(params, x)
    got, tape = net_apply_array(params.astype(np.float32), x)
    assert got.dtype == np.float32 and tape["proj_in"].dtype == np.float32
    # measured 2.6e-7 to 4.4e-7 over seeds, a few float32 roundings
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_astype_copies_every_tensor():
    params = init_params(NetArch(n_levels=3, base_channels=2), 0)
    single = params.astype(np.float32)
    assert single.dtype == np.float32 and params.dtype == np.float64
    assert single.n_params == params.n_params
    assert np.array_equal(single.flatten(), params.flatten().astype(np.float32))
    single.weights[0][...] = 0.0
    assert np.any(params.weights[0] != 0.0)


@pytest.mark.parametrize(
    "c_in, c_out, k, side",
    # the convs of NetArch(dims=3) on a 32^3 volume (the decoder's skip conv
    # and its 2^3-parity conv of the coarse map: 2 taps per axis, padded by
    # one site on each side), plus the 12-channel conv of a concatenated
    # decoder, the only one that needs more than one slab, and the 3-tap
    # parity conv that the 2-tap one replaced
    [
        (1, 4, 3, 32), (4, 8, 3, 16), (12, 4, 3, 32), (4, 1, 1, 32), (4, 4, 3, 32),
        (8, 32, 3, 16), (8, 32, 2, 16),
    ],
)
def test_row_slabs_count_the_itemsize(c_in, c_out, k, side):
    kernel = (k,) * 3

    def slab_bytes(x, w):
        """(rows, patch-matrix plus GEMM-output bytes) of each slab as built."""
        out = []
        slabs = network._conv_slabs(
            x, network._conv_plan(x.shape, w.shape, None, x.dtype, network._PATCH_BYTES)
        )
        for (slab, views), want in zip(slabs, _row_slabs(x, w), strict=True):
            assert (slab.r0, slab.r1) == want
            patches, z = views.patches, views.z
            assert patches.dtype == z.dtype == x.dtype
            assert z.shape == (k * c_out, patches.shape[1])
            out.append((slab.r1 - slab.r0, patches.nbytes + z.nbytes))
        return out

    x = np.zeros((c_in,) + (side,) * 3, np.float32)
    w = np.zeros((c_out, c_in) + kernel, np.float32)
    single = slab_bytes(x, w)
    for rows, nbytes in single:
        assert rows == 1 or nbytes <= network._PATCH_BYTES
    if len(single) > 1:
        # as many rows as the budget holds: one more would not fit
        rows, nbytes = single[0]
        assert nbytes // rows * (rows + 1) > network._PATCH_BYTES
    double = slab_bytes(x.astype(np.float64), w.astype(np.float64))
    assert single[0][0] >= double[0][0]


def test_zero_cotangent_gives_zero_gradients():
    params = unzero_projection(init_params(NetArch(), 0), 1)
    x = np.random.default_rng(5).normal(0.0, 1.0, (8, 8))
    _, tape = net_apply_array(params, x)
    grads, gx = net_vjp_array(params, tape, np.zeros((8, 8)))
    assert np.array_equal(grads.flatten(), np.zeros(params.n_params))
    assert np.array_equal(gx, np.zeros((8, 8)))


# --- shape contract ---


def test_input_sides_must_divide_by_pool_factor():
    params = init_params(NetArch(), 0)  # pool factor 2
    with pytest.raises(ShapeMismatchError):
        net_apply_array(params, np.zeros((7, 8)))

    deep = init_params(NetArch(n_levels=3, base_channels=2), 0)  # pool factor 4
    with pytest.raises(ShapeMismatchError):
        net_apply_array(deep, np.zeros((10, 10)))
    ok, _ = net_apply_array(deep, np.zeros((12, 12)))
    assert ok.shape == (12, 12)


def test_dimensionality_mismatch_is_rejected():
    params = init_params(NetArch(dims=2), 0)
    with pytest.raises(ShapeMismatchError):
        net_apply_array(params, np.zeros((4, 4, 4)))


def test_three_level_3d_network_runs_on_a_one_site_bottom():
    # 4^3 pooled twice leaves one bottom site: the smallest input this
    # architecture takes
    params = unzero_projection(init_params(NetArch(n_levels=3, base_channels=2, dims=3), 0), 1)
    x = np.random.default_rng(23).normal(0.0, 1.0, (4, 4, 4))
    out, tape = net_apply_array(params, x)
    assert out.shape == (4, 4, 4) and np.all(np.isfinite(out))
    grads, gx = net_vjp_array(params, tape, np.ones((4, 4, 4)))
    assert gx.shape == (4, 4, 4) and np.all(np.isfinite(grads.flatten()))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_levels": 0},
        {"n_levels": 1.5},
        {"base_channels": 0},
        {"kernel_size": 2},
        {"kernel_size": -3},
        {"dims": 4},
    ],
)
def test_arch_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        NetArch(**kwargs)


# --- parameter vector and serialization ---


def test_flatten_from_flat_round_trip():
    for arch in (NetArch(), NetArch(n_levels=3, base_channels=2)):
        params = unzero_projection(init_params(arch, 7), 8)
        vec = params.flatten()
        rebuilt = NetParams.from_flat(arch, vec)
        assert np.array_equal(rebuilt.flatten(), vec)
        for a, b in zip(rebuilt.weights, params.weights):
            assert np.array_equal(a, b)


def test_from_flat_rejects_wrong_length():
    with pytest.raises(ShapeMismatchError):
        NetParams.from_flat(NetArch(), np.zeros(776))


def test_save_load_round_trip(tmp_path):
    # every arch word differs from the default
    arch = NetArch(n_levels=3, base_channels=3, kernel_size=5, dims=3)
    params = unzero_projection(init_params(arch, 11), 12)
    path = tmp_path / "net.bin"
    save_net_params(path, params)

    loaded = load_net_params(path)
    assert loaded.arch == arch
    assert np.array_equal(loaded.flatten(), params.flatten())


def test_param_file_layout(tmp_path):
    params = init_params(NetArch(), 4)
    path = tmp_path / "net.bin"
    save_net_params(path, params)
    raw = path.read_bytes()
    assert raw[:4] == b"CTNP"
    version, n_levels, base_channels, kernel_size, dims, norm = struct.unpack(
        "<6I", raw[4:28]
    )
    assert (n_levels, base_channels, kernel_size, dims, norm) == (2, 4, 3, 2, 0)
    payload = np.frombuffer(raw[28:], dtype="<f8")
    assert np.array_equal(payload, params.flatten())


def test_flat_order_is_kernel_then_bias_per_conv(tmp_path):
    # encoders 1->2 and 2->4, bottom 4->8, decoders 12->4 and 6->2 (3x3),
    # proj 2->1 (1x1); every tensor holds its own run of values
    arch = NetArch(n_levels=3, base_channels=2)
    start = iter(range(0, 10**6, 1000))
    tensor = lambda *shape: next(start) + np.arange(np.prod(shape), dtype=float).reshape(shape)
    kernels = [(2, 1, 3, 3), (4, 2, 3, 3), (8, 4, 3, 3), (4, 12, 3, 3), (2, 6, 3, 3), (1, 2, 1, 1)]
    weights, biases = [], []
    for shape in kernels:
        weights.append(tensor(*shape))
        biases.append(tensor(shape[0]))
    expected = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    params = NetParams(arch, weights, biases)
    assert params.n_params == expected.size
    assert np.array_equal(params.flatten(), expected)
    path = tmp_path / "net.bin"
    save_net_params(path, params)
    assert np.array_equal(np.frombuffer(path.read_bytes()[28:], dtype="<f8"), expected)
    rebuilt = NetParams.from_flat(arch, expected)
    for name in ("weights", "biases"):
        for a, b in zip(getattr(rebuilt, name), getattr(params, name), strict=True):
            assert np.array_equal(a, b)


def test_from_flat_and_vjp_results_do_not_share_memory():
    arch = NetArch(n_levels=3, base_channels=2)
    vec = unzero_projection(init_params(arch, 2), 3).flatten()
    params = NetParams.from_flat(arch, vec)
    vec[:] = 0.0
    params.weights[0][...] = 7.0
    assert not vec.any()
    assert np.array_equal(NetParams.from_flat(arch, vec).flatten(), np.zeros(vec.size))

    x = np.random.default_rng(4).normal(0.0, 1.0, (8, 8))
    out, tape = net_apply_array(params, x)
    g1, _ = net_vjp_array(params, tape, np.ones_like(out))
    g2, _ = net_vjp_array(params, tape, np.ones_like(out))
    before = g2.flatten()
    for name in ("weights", "biases"):
        for g in getattr(g1, name):
            g[...] = np.nan
    assert np.array_equal(g2.flatten(), before)


def test_rebound_projection_is_seen_by_forward_and_flatten():
    arch = NetArch(n_levels=3, base_channels=2)
    params = init_params(arch, 5)
    proj = np.random.default_rng(6).normal(0.0, 1.0, params.weights[-1].shape)
    params.weights[-1] = proj
    flat = params.flatten()
    assert np.array_equal(flat[-1 - proj.size : -1], proj.ravel())
    out, tape = net_apply_array(params, np.random.default_rng(7).normal(0.0, 1.0, (8, 8)))
    expected = np.tensordot(proj[0, :, 0, 0], tape["proj_in"], axes=1)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)
    assert np.abs(out).max() > 0.0


def test_load_rejects_corrupt_files(tmp_path):
    params = init_params(NetArch(), 0)
    path = tmp_path / "net.bin"
    save_net_params(path, params)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataFormatError):
        load_net_params(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(bytes(raw[:4]) + struct.pack("<I", 999) + bytes(raw[8:]))
    with pytest.raises(DataFormatError):
        load_net_params(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(bytes(raw[:-16]))
    with pytest.raises(DataFormatError):
        load_net_params(truncated)

    # cut inside the header, and to a payload that is not whole f8 values
    for name, cut in (("header.bin", 10), ("ragged.bin", len(raw) - 3)):
        (tmp_path / name).write_bytes(bytes(raw[:cut]))
        with pytest.raises(DataFormatError):
            load_net_params(tmp_path / name)


@pytest.mark.parametrize(
    "offset, word",
    [(8, 0), (8, 20000), (12, 0), (16, 2), (20, 4), (24, 1)],
    ids=["n-levels-0", "n-levels-20000", "base-channels-0", "kernel-size-2", "dims-4", "norm-1"],
)
def test_load_rejects_out_of_range_arch_words(tmp_path, offset, word):
    path = tmp_path / "net.bin"
    save_net_params(path, init_params(NetArch(n_levels=3, base_channels=2), 0))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = struct.pack("<I", word)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="net.bin"):
        load_net_params(path)


def test_load_rejects_a_file_written_with_instance_norm(tmp_path):
    # a default-arch file with the norm word 1 holds a scale and a shift per
    # hidden conv after its bias (777 + 2 * (4 + 8 + 4) values); this network
    # has no norm, so loading it must fail, not drop or misplace them
    path = tmp_path / "net.bin"
    header = struct.pack("<4s6I", b"CTNP", 1, 2, 4, 3, 2, 1)
    path.write_bytes(header + np.zeros(809, "<f8").tobytes())
    with pytest.raises(DataFormatError, match="instance_norm word"):
        load_net_params(path)


# --- the conv workspace ---


def test_results_never_share_the_workspace():
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 1.0, (2, 6, 5))
    w = rng.normal(0.0, 1.0, (3, 2, 3, 3))
    gy = rng.normal(0.0, 1.0, (3, 6, 5))
    skip, h = rng.normal(0.0, 1.0, (2, 4, 6)), rng.normal(0.0, 1.0, (3, 2, 3))
    w_dec = rng.normal(0.0, 1.0, (4, 5, 3, 3))
    g_dec = rng.normal(0.0, 1.0, (4, 4, 6))
    results = [
        _conv_forward(x, w, np.ones(3)),
        *_conv_vjp(gy, x, w),
        _decoder_conv_forward(skip, h, w_dec, np.ones(4)),
        *_decoder_conv_vjp(g_dec, skip, h, w_dec),
    ]
    copies = [r.copy() for r in results]
    # later convs of other shapes and dtypes, large enough to grow the buffer
    params = unzero_projection(init_params(NetArch(dims=3), 0), 1)
    big = rng.uniform(0.0, 1.0, (16, 16, 16))
    _, tape = net_apply_array(params, big)
    net_vjp_array(params, tape, big)
    net_apply_array(params.astype(np.float32), big)
    for got, want in zip(results, copies):
        assert not np.shares_memory(got, network._workspace.buf)
        assert np.array_equal(got, want)


def test_a_second_forward_reuses_the_workspace(monkeypatch):
    monkeypatch.setattr(network, "_workspace", threading.local())
    params = unzero_projection(init_params(NetArch(dims=3), 0), 1).astype(np.float32)
    x = np.random.default_rng(24).uniform(0.0, 1.0, (16, 16, 16))
    first, _ = net_apply_array(params, x)
    buf = network._workspace.buf
    second, _ = net_apply_array(params, x)
    assert network._workspace.buf is buf
    assert np.array_equal(first, second)


def test_pad_faces_are_zeroed_on_every_call(monkeypatch):
    monkeypatch.setattr(network, "_workspace", threading.local())
    rng = np.random.default_rng(26)
    # grow the workspace first, so that no conv below replaces it
    _conv_forward(rng.normal(0.0, 1.0, (4, 16, 16)), rng.normal(0.0, 1.0, (4, 4, 3, 3)), None)
    x = rng.normal(0.0, 1.0, (2, 6, 5))
    w = rng.normal(0.0, 1.0, (3, 2, 3, 3))
    first = _conv_forward(x, w, np.ones(3))
    # an unpadded 1x1 conv writes its GEMM output from offset 0, over the
    # padded input of the first conv and its pad faces
    _conv_forward(rng.normal(0.0, 1.0, (3, 8, 8)), rng.normal(0.0, 1.0, (4, 3, 1, 1)), None)
    plan = network._conv_plan(x.shape, w.shape, None, x.dtype, network._PATCH_BYTES)
    faces = network._workspace.views[plan].faces
    assert len(faces) == 4 and all(np.all(face != 0) for face in faces)
    assert _conv_forward(x, w, np.ones(3)).tobytes() == first.tobytes()


def test_a_grown_workspace_releases_the_old_buffer(monkeypatch):
    monkeypatch.setattr(network, "_workspace", threading.local())
    rng = np.random.default_rng(27)
    w = rng.normal(0.0, 1.0, (2, 2, 3, 3))
    _conv_vjp(rng.normal(0.0, 1.0, (2, 4, 4)), rng.normal(0.0, 1.0, (2, 4, 4)), w)
    old = weakref.ref(network._workspace.buf)
    assert network._workspace.views  # views bound into the old buffer
    _conv_forward(rng.normal(0.0, 1.0, (2, 32, 32)), w, None)
    gc.collect()
    assert old() is None


def test_a_second_forward_builds_no_plan():
    params = unzero_projection(init_params(NetArch(n_levels=3), 0), 1)
    x = np.random.default_rng(28).uniform(0.0, 1.0, (16, 24))
    first, tape = net_apply_array(params, x)
    net_vjp_array(params, tape, x)
    before = network._conv_plan.cache_info()
    second, tape = net_apply_array(params, x)
    net_vjp_array(params, tape, x)
    after = network._conv_plan.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert np.array_equal(first, second)


def test_threads_have_their_own_workspace():
    # a 2D and a 3D net, forward and VJP, each in two threads at once (more
    # threads than cores, switching often); each gives what it gives run alone
    jobs = []
    for dims, shape in ((2, (32, 32)), (3, (16, 16, 16))):
        params = unzero_projection(init_params(NetArch(dims=dims), dims), 1)
        rng = np.random.default_rng(25 + dims)
        jobs.append((params, rng.uniform(0.0, 1.0, shape), rng.normal(0.0, 1.0, shape)))

    def run(params, x, gy):
        y, tape = net_apply_array(params, x)
        grads, gx = net_vjp_array(params, tape, gy)
        y32, _ = net_apply_array(params.astype(np.float32), x)
        return [y, grads.flatten(), gx, y32]

    want = [run(*job) for job in jobs]
    workers = [0, 1, 0, 1]
    got = [[] for _ in workers]
    start = threading.Barrier(len(workers))

    def worker(i):
        start.wait()
        for _ in range(3):
            got[i].append(run(*jobs[workers[i]]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(workers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for job, runs in zip(workers, got):
        assert len(runs) == 3
        for result in runs:
            for a, b in zip(result, want[job]):
                assert np.array_equal(a, b)
