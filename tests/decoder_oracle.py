"""The concatenation decoder and the reshape-mean pooling, as test oracles.

network.py runs each decoder conv at the coarse resolution, as a conv of the
skip channels plus a parity conv of the coarse map, and pools by summing
strided views.  These oracles keep what that replaced: the conv of
concat(skip, upsample(h)) built at the fine resolution, its VJP through the
concatenation and the upsample's adjoint, and pooling as a reshape-mean.
"""

import numpy as np

from tomoflow.network import _conv_forward, _conv_vjp


def reshape_mean_pool(x):
    """2x average pooling of a (channels, *spatial) array by a reshape-mean."""
    shape = (x.shape[0],)
    for s in x.shape[1:]:
        shape += (s // 2, 2)
    return x.reshape(shape).mean(axis=tuple(range(2, 2 * x.ndim - 1, 2)))


def upsample(x):
    """2x nearest-neighbour upsampling of a (channels, *spatial) array."""
    for axis in range(1, x.ndim):
        x = np.repeat(x, 2, axis=axis)
    return x


def concat_decoder_forward(skip, h, w, b):
    """conv(concat(skip, upsample(h)), w) + b, built at the fine resolution."""
    return _conv_forward(np.concatenate([skip, upsample(h)], axis=0), w, b)


def concat_decoder_vjp(g, skip, h, w):
    """(gskip, gh, gw, gb) of concat_decoder_forward: the conv VJP on the
    concatenation, split, with the upsample's adjoint summing each 2^d block."""
    x = np.concatenate([skip, upsample(h)], axis=0)
    gx, gw, gb = _conv_vjp(g, x, w)
    c_skip = skip.shape[0]
    gh = reshape_mean_pool(gx[c_skip:]) * 2 ** (h.ndim - 1)
    return gx[:c_skip], gh, gw, gb
