"""Tests for the regularizer network and its hand-written backward pass.

Gradient correctness is checked against central finite differences of the
scalar loss <c, N(x)> in random directions, for parameters and for the
input, across 2D, 3D, instance-norm and periodic-padding variants.  Forward
behavior is pinned with a hand-built identity configuration and a
periodic-padding shift-equivariance check.
"""

import struct
import tracemalloc

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
    _conv_forward,
    _conv_vjp,
    _row_slabs,
    net_apply_array,
    net_vjp_array,
)


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


def test_instance_norm_adds_scale_and_shift_per_hidden_conv():
    params = init_params(NetArch(instance_norm=True), 0)
    assert params.n_params == 777 + 2 * (4 + 8 + 4)


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


def test_periodic_padding_gives_even_shift_equivariance():
    params = unzero_projection(init_params(NetArch(), 3), 9)
    x = np.random.default_rng(4).normal(0.0, 1.0, (16, 16))

    y, _ = net_apply_array(params, x, pad_mode="periodic")
    y_shifted, _ = net_apply_array(
        params, np.roll(x, (2, 4), axis=(0, 1)), pad_mode="periodic"
    )
    # shifts by multiples of the pooling factor commute with the whole net
    assert np.max(np.abs(y_shifted - np.roll(y, (2, 4), axis=(0, 1)))) < 1e-12


def test_output_shape_matches_input_shape():
    params = unzero_projection(init_params(NetArch(), 0), 1)
    x = np.random.default_rng(2).normal(0.0, 1.0, (12, 16))
    assert net_apply_array(params, x)[0].shape == (12, 16)


# --- gradients ---


def directional_fd_errors(arch, shape, seed, pad_mode="zeros", n_dirs=4, h=1e-6):
    """Worst relative FD mismatch over random directions, (params, input)."""
    params = unzero_projection(init_params(arch, seed), seed + 100)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.0, 1.0, shape)
    c = rng.normal(0.0, 1.0, shape)

    _, tape = net_apply_array(params, x, pad_mode)
    grads, gx = net_vjp_array(params, tape, c)
    gflat = grads.flatten()
    theta = params.flatten()

    def loss_theta(vec):
        net = NetParams.from_flat(arch, vec)
        return float(np.sum(c * net_apply_array(net, x, pad_mode)[0]))

    def loss_x(values):
        return float(np.sum(c * net_apply_array(params, values, pad_mode)[0]))

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


@pytest.mark.parametrize("pad_mode", ["zeros", "periodic"])
def test_gradients_match_finite_differences_default_arch(pad_mode):
    err_p, err_x = directional_fd_errors(NetArch(), (8, 8), 1, pad_mode)
    assert err_p < 1e-6
    assert err_x < 1e-6


@pytest.mark.parametrize("pad_mode", ["zeros", "periodic"])
def test_gradients_match_finite_differences_3d(pad_mode):
    err_p, err_x = directional_fd_errors(
        NetArch(n_levels=2, base_channels=2, dims=3), (4, 4, 4), 2, pad_mode
    )
    assert err_p < 1e-6
    assert err_x < 1e-6


def test_gradients_match_finite_differences_with_instance_norm():
    err_p, err_x = directional_fd_errors(NetArch(instance_norm=True), (8, 8), 3)
    assert err_p < 1e-6
    assert err_x < 1e-6


def test_periodic_gradients_when_kernel_radius_exceeds_a_side():
    # radius 3 against the 2x2 bottom level: the padding wraps more than once
    err_p, err_x = directional_fd_errors(
        NetArch(n_levels=2, base_channels=2, kernel_size=7), (4, 4), 4, "periodic"
    )
    assert err_p < 1e-6
    assert err_x < 1e-6


@pytest.mark.parametrize("pad_mode", ["zeros", "periodic"])
@pytest.mark.parametrize(
    "c_in, c_out, k, spatial",
    [(3, 2, 3, (6, 5)), (2, 4, 5, (4, 6)), (2, 3, 1, (4, 4)), (2, 3, 3, (4, 3, 5))],
)
def test_conv_input_gradient_is_the_exact_adjoint(pad_mode, c_in, c_out, k, spatial):
    rng = np.random.default_rng(15)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + (k,) * len(spatial))
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)
    y = _conv_forward(x, w, np.zeros(c_out), pad_mode)
    gx, _, _ = _conv_vjp(gy, x, w, pad_mode)
    assert abs(np.sum(y * gy) - np.sum(x * gx)) < 1e-12 * np.sum(np.abs(y * gy))


@pytest.mark.parametrize("pad_mode", ["zeros", "periodic"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("spatial", [(5, 4), (5, 3, 4)])
def test_row_slabs_match_a_single_slab(monkeypatch, pad_mode, k, spatial):
    rng = np.random.default_rng(16)
    c_in = c_out = 2
    kernel = (k,) * len(spatial)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + kernel)
    b = rng.normal(0.0, 1.0, c_out)
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)

    def conv_and_vjp():
        return (_conv_forward(x, w, b, pad_mode),) + _conv_vjp(gy, x, w, pad_mode)

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


def shifted(x, shift, pad_mode):
    """x moved so that out[j] = x[j + shift] on every spatial axis; sites
    beyond the edge read zero, or wrap around for periodic padding."""
    if pad_mode == "periodic":
        return np.roll(x, [-s for s in shift], axis=tuple(range(1, x.ndim)))
    out = np.zeros_like(x)
    dst, src = [slice(None)], [slice(None)]
    for s, n in zip(shift, x.shape[1:]):
        dst.append(slice(max(0, -s), min(n, n - s)))
        src.append(slice(max(0, s), min(n, n + s)))
    out[tuple(dst)] = x[tuple(src)]
    return out


def direct_conv_and_vjp(x, w, b, gy, pad_mode):
    """Same-padded correlation as a sum over all k^d taps of shifted inputs,
    with its kernel and input gradients tap by tap."""
    c_out, c_in, *k = w.shape
    y = np.zeros((c_out,) + x.shape[1:]) + b.reshape((c_out,) + (1,) * (x.ndim - 1))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for tap in np.ndindex(*k):
        shift = [t - ki // 2 for t, ki in zip(tap, k)]
        wt = w[(slice(None), slice(None)) + tap]
        xs = shifted(x, shift, pad_mode)
        y += np.tensordot(wt, xs, axes=(1, 0))
        gw[(slice(None), slice(None)) + tap] = np.tensordot(
            gy, xs, axes=(range(1, x.ndim), range(1, x.ndim))
        )
        gx += shifted(np.tensordot(wt, gy, axes=(0, 0)), [-s for s in shift], pad_mode)
    return y, gx, gw, gy.reshape(c_out, -1).sum(axis=1)


@pytest.mark.parametrize("pad_mode", ["zeros", "periodic"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize(
    "c_in, c_out, spatial",
    [(1, 3, (6, 5)), (4, 2, (5, 6)), (1, 2, (4, 3, 5)), (3, 2, (5, 4, 3)), (2, 4, (3, 5, 4))],
)
def test_conv_matches_a_direct_shifted_sum(monkeypatch, pad_mode, k, c_in, c_out, spatial):
    rng = np.random.default_rng(18)
    w = rng.normal(0.0, 1.0, (c_out, c_in) + (k,) * len(spatial))
    b = rng.normal(0.0, 1.0, c_out)
    x = rng.normal(0.0, 1.0, (c_in,) + spatial)
    gy = rng.normal(0.0, 1.0, (c_out,) + spatial)
    want = direct_conv_and_vjp(x, w, b, gy, pad_mode)
    # one slab under the default budget, then one row per slab
    for budget, n_slabs in ((network._PATCH_BYTES, 1), (1, spatial[0])):
        monkeypatch.setattr(network, "_PATCH_BYTES", budget)
        assert len(_row_slabs(x, w)) == n_slabs
        y = _conv_forward(x, w, b, pad_mode)
        gx, gw, gb = _conv_vjp(gy, x, w, pad_mode)
        for got, ref in zip((y, gx, gw, gb), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("instance_norm", [False, True])
def test_float32_forward_matches_float64(instance_norm):
    params = unzero_projection(init_params(NetArch(dims=3, instance_norm=instance_norm), 0), 1)
    x = np.random.default_rng(18).uniform(0.0, 1.0, (32, 32, 32))
    want, _ = net_apply_array(params, x)
    got, tape = net_apply_array(params.astype(np.float32), x)
    assert got.dtype == np.float32 and tape["proj_in"].dtype == np.float32
    # measured 2.6e-7 to 4.4e-7 over seeds, a few float32 roundings
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_astype_copies_every_tensor():
    params = init_params(NetArch(instance_norm=True), 0)
    single = params.astype(np.float32)
    assert single.dtype == np.float32 and params.dtype == np.float64
    assert single.n_params == params.n_params
    assert np.array_equal(single.flatten(), params.flatten().astype(np.float32))
    single.weights[0][...] = 0.0
    assert np.any(params.weights[0] != 0.0)


@pytest.mark.parametrize(
    "c_in, c_out, k, side",
    # the convs of NetArch(dims=3) on a 32^3 volume; only the decoder conv
    # needs more than one slab
    [(1, 4, 3, 32), (4, 8, 3, 16), (12, 4, 3, 32), (4, 1, 1, 32)],
)
def test_row_slabs_count_the_itemsize(c_in, c_out, k, side):
    kernel = (k,) * 3

    def slab_bytes(x, w):
        """(rows, patch-matrix plus GEMM-output bytes) of each slab as built."""
        xp = network._pad_input(x, kernel, "zeros")
        out = []
        for r0, r1 in _row_slabs(x, w):
            patches = network._patch_matrix(xp, kernel, r0, r1)
            assert patches.dtype == x.dtype
            out.append((r1 - r0, patches.nbytes + k * c_out * patches.shape[1] * x.itemsize))
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


def test_unknown_pad_mode_is_rejected():
    with pytest.raises(ValueError):
        net_apply_array(init_params(NetArch(), 0), np.zeros((8, 8)), pad_mode="zero")


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
    for arch in (NetArch(), NetArch(n_levels=3, base_channels=2, instance_norm=True)):
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
    arch = NetArch(n_levels=2, base_channels=3, kernel_size=3, instance_norm=True)
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


def test_flat_order_is_kernel_bias_scale_shift_per_conv(tmp_path):
    # encoder 1->2, bottom 2->4, decoder 6->2 (3x3, with norm), proj 2->1
    # (1x1, no norm); every tensor holds its own run of values
    arch = NetArch(n_levels=2, base_channels=2, instance_norm=True)
    start = iter(range(0, 10**6, 1000))
    tensor = lambda *shape: next(start) + np.arange(np.prod(shape), dtype=float).reshape(shape)
    w0, b0, s0, h0 = tensor(2, 1, 3, 3), tensor(2), tensor(2), tensor(2)
    w1, b1, s1, h1 = tensor(4, 2, 3, 3), tensor(4), tensor(4), tensor(4)
    w2, b2, s2, h2 = tensor(2, 6, 3, 3), tensor(2), tensor(2), tensor(2)
    w3, b3 = tensor(1, 2, 1, 1), tensor(1)
    expected = np.concatenate([
        a.ravel() for a in (w0, b0, s0, h0, w1, b1, s1, h1, w2, b2, s2, h2, w3, b3)
    ])
    params = NetParams(arch, [w0, w1, w2, w3], [b0, b1, b2, b3], [s0, s1, s2], [h0, h1, h2])
    assert params.n_params == expected.size
    assert np.array_equal(params.flatten(), expected)
    path = tmp_path / "net.bin"
    save_net_params(path, params)
    assert np.array_equal(np.frombuffer(path.read_bytes()[28:], dtype="<f8"), expected)
    rebuilt = NetParams.from_flat(arch, expected)
    for name in ("weights", "biases", "norm_scales", "norm_shifts"):
        for a, b in zip(getattr(rebuilt, name), getattr(params, name), strict=True):
            assert np.array_equal(a, b)


def test_from_flat_and_vjp_results_do_not_share_memory():
    arch = NetArch(instance_norm=True)
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
    for name in ("weights", "biases", "norm_scales", "norm_shifts"):
        for g in getattr(g1, name):
            g[...] = np.nan
    assert np.array_equal(g2.flatten(), before)


def test_rebound_projection_is_seen_by_forward_and_flatten():
    arch = NetArch(instance_norm=True)
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
    [(8, 0), (8, 20000), (12, 0), (16, 2), (20, 4), (24, 2)],
    ids=["n-levels-0", "n-levels-20000", "base-channels-0", "kernel-size-2", "dims-4", "norm-2"],
)
def test_load_rejects_out_of_range_arch_words(tmp_path, offset, word):
    # with instance norm on, a norm word of 2 leaves the payload length right
    path = tmp_path / "net.bin"
    save_net_params(path, init_params(NetArch(instance_norm=True), 0))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = struct.pack("<I", word)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="net.bin"):
        load_net_params(path)
