"""Matched projection operators on one cached sparse system matrix.

forward_project implements the line-integral operator A with Joseph's method:
for each ray the driving axis is the dominant component of the unit direction,
the ray is sampled once per voxel slice along that axis, and the remaining
axes are handled by linear interpolation.  The interpolation weights of every
ray, times its step length, are the rows of a scipy CSR matrix that is built
once per (geometry, grid) pair and cached.

Only one block of those rows is stored.  On a full turn with uniform views
over a grid whose in-plane shape is square and whose in-plane origin is 0,
a quarter turn of the scan is a quarter turn of the volume about z, which
permutes voxels.  There the matrix M holds the rows of the first n_angles/g
views, g = gcd(n_angles, 4), and block k of the sinogram (views k n/g to
(k+1) n/g) is M applied to the volume turned by -4k/g quarter turns:

    A x   = [M rot(x, 0), M rot(x, -4/g), ...]
    A^T y = sum_k rot(M^T y_k, 4k/g)

Any other setup has g = 1, so M is all of A; it is the same code with one
block.  The stored rows differ from a build over every ray only by the
rounding of cos/sin at the turned angles.  A is g sparse mat-vecs with M.
back_project applies A^T through M's transpose, which shares M's arrays, as
one multi-column product M^T [y_0 ... y_(g-1)] whose columns are then turned
and summed; each column is bitwise the mat-vec M^T y_k.
Every caller (the array functions, bind, dense_matrix, op_norm_estimate)
uses the same block, so ``<Ax, y> == <x, A^T y>`` holds by construction, up
to summation-order rounding, and no separate "pixel-driven" code path can
break it.

The cache is least-recently-used and bounded by the bytes of its blocks
(_CACHE_BYTES); an evicted block lives on in any BoundProjector holding it.

The mat-vec is single-threaded.

Out-of-grid interpolation taps are dropped (zero padding), never clamped,
which keeps A linear.  All arithmetic is double precision; single precision
is a file-format concern only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatchError, _count
from .geometry import FULL_TURN, Geometry, VolumeGrid, ray_bundle

def get_default_threads() -> int:
    """The projector's thread count: always 1, since its mat-vec is single-threaded."""
    return 1


def _shaped(values, shape: tuple[int, ...], kind: str, what: str) -> np.ndarray:
    """values as a float64 array of shape; only a flat one of its size is reshaped."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape == shape:
        return vals
    if vals.ndim == 1 and vals.size == math.prod(shape):
        return vals.reshape(shape)
    raise ShapeMismatchError(f"{kind} values shape {vals.shape} does not match {what} {shape}")


@dataclass
class Volume:
    """A 2D or 3D scalar attenuation field (mm^-1) on a regular grid.

    values has shape grid.shape and dtype float64; a flat array of matching
    length is accepted and reshaped.
    """

    grid: VolumeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _shaped(self.values, self.grid.shape, "volume", "grid shape")

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "Volume":
        return cls(grid, np.zeros(grid.shape))

    def copy(self) -> "Volume":
        return Volume(self.grid, self.values.copy())


def _values(v: Volume | np.ndarray) -> np.ndarray:
    """The values of a Volume, or an array-like as a float64 array."""
    return v.values if isinstance(v, Volume) else np.asarray(v, dtype=np.float64)


@dataclass
class Sinogram:
    """Projection data p: one detector reading per ray.

    values has shape (n_angles, n_detectors) for fan geometries and
    (n_angles, detector_rows, detector_cols) for cone geometries.
    """

    geom: Geometry
    values: np.ndarray

    def __post_init__(self):
        expected = (self.geom.n_angles,) + self.geom.detector_shape
        self.values = _shaped(self.values, expected, "sinogram", "geometry layout")

    @classmethod
    def zeros(cls, geom: Geometry) -> "Sinogram":
        return cls(geom, np.zeros((geom.n_angles,) + geom.detector_shape))

    def copy(self) -> "Sinogram":
        return Sinogram(self.geom, self.values.copy())


def _linear_taps(fi: np.ndarray, n: int, valid=True):
    """Linear-interpolation taps (j0, w0, j1, w1) at fractional indices fi.

    Indices are clipped into [0, n); a tap outside the row, or where valid is
    False, gets weight 0.
    """
    j = np.floor(fi).astype(np.int64)
    w = fi - j
    w0 = np.where(valid & (j >= 0) & (j < n), 1.0 - w, 0.0)
    w1 = np.where(valid & (j >= -1) & (j < n - 1), w, 0.0)
    return np.clip(j, 0, n - 1), w0, np.clip(j + 1, 0, n - 1), w1


# Cached system-matrix blocks by (geometry, grid), least recently used first.
# Both keys are frozen dataclasses, so equal setups share one entry however
# often they are rebuilt.  Entries are evicted, oldest first, once their
# arrays together pass _CACHE_BYTES; the newest entry is always kept, and a
# BoundProjector keeps working on the block it holds after it is evicted.
_MATRICES: dict[tuple[Geometry, VolumeGrid], tuple[sp.csr_matrix, int]] = {}
_CACHE_BYTES = 256 * 2**20

# Rays whose taps are expanded at once while a matrix is built.  The build's
# transient memory is then a chunk's taps plus the finished rows, not the
# taps of every ray.  The cold build of a 180-view 64^2 fan block peaked at
# 4.1x the block's bytes with 4096-ray chunks and at 2.2x with 1024.
_BUILD_CHUNK_RAYS = 1024


def _matrix_rows(grid: VolumeGrid, org: np.ndarray, dirs: np.ndarray) -> sp.csr_matrix:
    """Rows of A for a run of rays: scaled Joseph weights, zero taps dropped.

    Rays are grouped by driving axis, the dominant component of their
    direction.  A ray meets each slice along that axis once; on every other
    axis it gets two linear-interpolation taps, and the taps of all those
    axes are combined as an outer product, times the step length
    voxel_size / |d_axis|.  Each ray's taps fill one row of a dense
    (rays, taps) table, padded with zeros where its driving axis has fewer
    slices, so the kept entries come out in CSR order.
    """
    shape = grid.shape
    strides = [int(np.prod(shape[a + 1:], dtype=np.int64)) for a in range(grid.ndim)]
    n_taps = 2 ** (grid.ndim - 1) * max(shape)
    weights = np.zeros((len(org), n_taps))
    cols = np.zeros((len(org), n_taps), dtype=np.int64)
    driving = np.argmax(np.abs(dirs), axis=1)
    for axis in range(grid.ndim):
        gsel = np.flatnonzero(driving == axis)
        if len(gsel) == 0:
            continue
        o, d = org[gsel], dirs[gsel]
        t = (grid.axis_centers(axis)[None, :] - o[:, axis:axis + 1]) / d[:, axis:axis + 1]
        # per tap: (rays, slices) flat voxel indices and weights
        lins = [np.arange(shape[axis], dtype=np.int64) * strides[axis]]
        ws = []
        for p in range(grid.ndim):
            if p == axis:
                continue
            c0 = grid.origin[p] - (shape[p] - 1) / 2.0 * grid.voxel_size
            f = (o[:, p:p + 1] + t * d[:, p:p + 1] - c0) / grid.voxel_size
            j0, w0, j1, w1 = _linear_taps(f, shape[p])
            j0, j1 = j0 * strides[p], j1 * strides[p]
            lins = [lin + j for lin in lins for j in (j0, j1)]
            ws = [wt * wp for wt in ws for wp in (w0, w1)] if ws else [w0, w1]
        scale = grid.voxel_size / np.abs(d[:, axis])
        k = len(lins) * shape[axis]
        weights[gsel, :k] = (np.stack(ws, axis=-1) * scale[:, None, None]).reshape(len(gsel), k)
        cols[gsel, :k] = np.stack(lins, axis=-1).reshape(len(gsel), k)
    keep = weights != 0.0
    indptr = np.zeros(len(org) + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (weights[keep], cols[keep], indptr), shape=(len(org), grid.n_voxels)
    )


def _rotation_blocks(geom: Geometry, grid: VolumeGrid) -> int:
    """g, the number of quarter-turn copies of one block of views that make A.

    On a full uniform turn, view i + k n/g sees the volume rotated by k/g of a
    turn about the z axis, as view i does the unrotated one.  On a square,
    centred in-plane grid that rotation permutes voxels, so A is g copies of
    the first n_angles/g views' rows, with g = gcd(n_angles, 4).  A span
    within 1e-12 rad of a full turn counts as one, since a range given in
    degrees converts with rounding.  Any other scan or grid has g = 1: the
    block is all of A.
    """
    start, end = geom.angular_range
    symmetric = (
        abs(end - start - FULL_TURN) <= 1e-12
        and grid.shape[0] == grid.shape[1]
        and grid.origin[0] == 0.0
        and grid.origin[1] == 0.0
    )
    return math.gcd(geom.n_angles, 4) if symmetric else 1


def _turn(x: np.ndarray, q: int) -> np.ndarray:
    """x turned in-plane by q quarter turns, as np.rot90(x, q, axes=(0, 1)).

    A view, like rot90's, but without rot90's per-call cost, which was about
    5 % of a 64^2 fan A.
    """
    q %= 4
    if q == 1:
        return x[:, ::-1].swapaxes(0, 1)
    if q == 2:
        return x[::-1, ::-1]
    if q == 3:
        return x.swapaxes(0, 1)[:, ::-1]
    return x


def _system_matrix(geom: Geometry, grid: VolumeGrid) -> tuple[sp.csr_matrix, int]:
    """(M, g): A's first block of rows, and g, built once per (geom, grid).

    M holds the rows of the first n_angles/g views; block k of A is M applied
    to the volume turned by -4k/g quarter turns in-plane.  M's arrays are
    read-only: every caller shares them.
    """
    key = (geom, grid)
    entry = _MATRICES.pop(key, None)
    if entry is None:
        g = _rotation_blocks(geom, grid)
        org, dirs = ray_bundle(geom)
        n = len(org) // g
        bounds = range(_BUILD_CHUNK_RAYS, n, _BUILD_CHUNK_RAYS)
        mat = sp.vstack(
            [
                _matrix_rows(grid, o, d)
                for o, d in zip(np.split(org[:n], bounds), np.split(dirs[:n], bounds))
            ],
            format="csr",
        )
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        entry = (mat, g)
    _MATRICES[key] = entry
    _evict()
    return entry


def _matrix_bytes(mat: sp.csr_matrix) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _evict() -> None:
    """Drop least recently used entries until the cache fits _CACHE_BYTES."""
    total = sum(_matrix_bytes(mat) for mat, _ in _MATRICES.values())
    while total > _CACHE_BYTES and len(_MATRICES) > 1:
        mat, _ = _MATRICES.pop(next(iter(_MATRICES)))
        total -= _matrix_bytes(mat)


def _apply(mat: sp.csr_matrix, g: int, values: np.ndarray, grid: VolumeGrid) -> np.ndarray:
    """A x: block k is M @ (x turned by -4k/g quarter turns), flattened."""
    x = np.asarray(values, dtype=np.float64).reshape(grid.shape)
    n = mat.shape[0]
    out = np.empty(g * n)
    for k in range(g):
        out[k * n:(k + 1) * n] = mat @ _turn(x, -4 * k // g).reshape(-1)
    return out


def _apply_adjoint(
    mat_t: sp.csc_matrix, g: int, p: np.ndarray, grid: VolumeGrid
) -> np.ndarray:
    """A^T p, given the transpose view mat_t of the block M.

    One product M^T Y, with the g blocks p_k of p as the columns of Y, then
    the sum over k of column k turned back by 4k/g quarter turns.
    """
    p_flat = np.asarray(p, dtype=np.float64).reshape(-1)
    n = mat_t.shape[1]
    if len(p_flat) != g * n:
        raise ShapeMismatchError(f"expected {g * n} ray values, got {len(p_flat)}")
    z = mat_t @ p_flat.reshape(g, n).T
    turned = [_turn(z[:, k].reshape(grid.shape), 4 * k // g) for k in range(g)]
    # one expression: a strided += per block was slower on a 64^2 fan block
    return sum(turned[1:], turned[0])


def forward_project_array(values: np.ndarray, grid: VolumeGrid, geom: Geometry) -> np.ndarray:
    """Array-level forward projection; returns flat ray integrals, length R."""
    mat, g = _system_matrix(geom, grid)
    return _apply(mat, g, values, grid)


def back_project_array(p_values: np.ndarray, grid: VolumeGrid, geom: Geometry) -> np.ndarray:
    """Array-level exact adjoint; returns a volume-shaped array."""
    mat, g = _system_matrix(geom, grid)
    return _apply_adjoint(mat.T, g, p_values, grid)


def _check_dims(geom: Geometry, grid: VolumeGrid):
    if geom.ndim != grid.ndim:
        raise ShapeMismatchError(
            f"a {geom.kind} scan is {geom.ndim}D and does not fit a {grid.ndim}D grid"
        )


def forward_project(x: Volume, geom: Geometry) -> Sinogram:
    """Apply the forward operator A: line integrals of x along every ray.

    Linear in x, deterministic, and matched exactly to back_project.
    """
    _check_dims(geom, x.grid)
    if not np.all(np.isfinite(x.values)):
        raise ValueError("volume contains non-finite values")
    flat = forward_project_array(x.values, x.grid, geom)
    return Sinogram(geom, flat.reshape((geom.n_angles,) + geom.detector_shape))


def back_project(p: Sinogram, grid: VolumeGrid) -> Volume:
    """Apply the exact adjoint A^T (backprojection) onto the given grid."""
    _check_dims(p.geom, grid)
    if not np.all(np.isfinite(p.values)):
        raise ValueError("sinogram contains non-finite values")
    return Volume(grid, back_project_array(p.values, grid, p.geom))


def dense_matrix(geom: Geometry, grid: VolumeGrid) -> np.ndarray:
    """Materialize A as a dense (N, M) matrix.

    Only sensible at toy scale; used to cross-check the operators.  Block k
    is the cached block with its columns permuted by the block's rotation.
    """
    mat, g = _system_matrix(geom, grid)
    block = mat.toarray()
    voxels = np.arange(grid.n_voxels).reshape(grid.shape)
    return np.vstack([
        block[:, np.argsort(_turn(voxels, -4 * k // g).reshape(-1))] for k in range(g)
    ])


class BoundProjector:
    """A and A^T bound to one (geometry, grid) pair.

    Holds the pair's cached matrix block, so repeated applications
    (iterative solvers, ODE dynamics, training) are g sparse mat-vecs for A
    and one g-column sparse product for A^T.
    forward_project / back_project use the same block, so all of them agree
    exactly and the pair is adjoint by construction.
    """

    def __init__(self, geom: Geometry, grid: VolumeGrid):
        _check_dims(geom, grid)
        self.geom = geom
        self.grid = grid
        self.n_rays = geom.n_rays
        self._matrix, self._n_blocks = _system_matrix(geom, grid)
        # M^T is a CSC view on the same arrays; held so adjoint() does not
        # rebuild it on every call
        self._matrix_t = self._matrix.T

    def forward(self, values: np.ndarray) -> np.ndarray:
        """A applied to a grid-shaped (or flat) array; returns flat rays."""
        return _apply(self._matrix, self._n_blocks, values, self.grid)

    def adjoint(self, p: np.ndarray) -> np.ndarray:
        """A^T applied to flat (or detector-shaped) ray data; grid-shaped result."""
        return _apply_adjoint(self._matrix_t, self._n_blocks, p, self.grid)


def bind(geom: Geometry, grid: VolumeGrid) -> BoundProjector:
    """A and A^T for repeated application on one setup."""
    return BoundProjector(geom, grid)


def op_norm_estimate(geom: Geometry, grid: VolumeGrid, n_power_iters: int) -> float:
    """Power-iteration estimate of the spectral norm ||A||_2.

    One iteration applies A and A^T once.  The estimate is the Rayleigh
    quotient of A^T A, which is monotonically non-decreasing over iterations.
    Starts from the all-ones volume; A has non-negative entries, so the start
    overlaps the principal singular vector.
    """
    n_power_iters = _count("n_power_iters", n_power_iters)
    _check_dims(geom, grid)
    v = np.ones(grid.shape)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(n_power_iters):
        w = forward_project_array(v, grid, geom)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        z = back_project_array(w, grid, geom)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return sigma
        v = z / nz
    return sigma
