"""Dipole-array source model.

A set of point dipoles with one shared moment direction induces, at each
field point, a linear map from the moment vector to a traceless symmetric
3x3 matrix; applying that matrix to a test moment gives the translational
force direction (times 3*mu0/4pi in SI units).  This module builds that
map from magnet geometry, evaluates fields and forces directly, and
provides canonical configuration builders.

Units: positions in meters, moments in A*m^2.  The operator itself is
stored bare (entries ~ m^-4); only force() applies the SI prefactor.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg3 import det3

MU0_OVER_4PI = 1e-7  # T*m per A*m^2
FORCE_PREFACTOR = 3e-7  # 3*mu0/4pi, N per (A*m^2)^2 per m^-4
EPS_DIST = 1e-9  # m; closer field points are treated as singular


class SingularFieldPointError(ValueError):
    """Field point within EPS_DIST of a magnet; carries the magnet index."""

    def __init__(self, index, distance):
        super().__init__(
            f"singular field point: magnet {index} at distance {distance:.3e} m"
        )
        self.index = int(index)
        self.distance = float(distance)


class FarFieldError(ValueError):
    """Every magnet is so far from the field point that the operator underflows."""


class DipoleConfig:
    """Magnet positions ((n, 3) meters) plus one field point ((3,) meters); not to be modified.

    Construction validates shapes and finiteness only; proximity of the
    field point to a magnet is checked lazily so that configurations can
    be built first and analyzed per point.  A plain class: a frozen
    dataclass takes about 0.4 ms to create, at each import.
    """

    def __init__(self, magnet_positions, field_point, si_prefactor=False):
        pos = np.atleast_2d(np.asarray(magnet_positions, dtype=float))
        fp = np.asarray(field_point, dtype=float).reshape(3)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("magnet_positions must be a nonempty (n, 3) array")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(fp))):
            raise ValueError("positions and field point must be finite")
        self.magnet_positions, self.field_point, self.si_prefactor = pos, fp, si_prefactor

    @property
    def n_magnets(self) -> int:
        return self.magnet_positions.shape[0]

    def separations(self):
        """(unit directions, distances) from each magnet to the field point, computed once: read-only arrays.

        Raises SingularFieldPointError naming the first offending magnet, on every call.
        """
        return self._separations

    @cached_property
    def _separations(self):
        d = self.field_point[None, :] - self.magnet_positions
        dist = np.linalg.norm(d, axis=1)
        bad = np.flatnonzero(dist < EPS_DIST)
        if bad.size:
            raise SingularFieldPointError(bad[0], dist[bad[0]])
        u = d / dist[:, None]
        u.flags.writeable = dist.flags.writeable = False
        return u, dist

    def scaled(self, s) -> "DipoleConfig":
        """Uniformly rescale all lengths; the operator scales as s^-4."""
        return DipoleConfig(
            self.magnet_positions * s, self.field_point * s, self.si_prefactor
        )


class MagneticAlgebra:
    """Linear moment -> matrix map stored as its three basis images, (3, 3, 3); not to be modified.

    basis_images[k] is the matrix produced by the k-th unit moment; the
    image of any moment M follows by linearity.  Valid instances have
    traceless symmetric images satisfying the reciprocity identity
    images[i] @ e_j == images[j] @ e_i.  memo holds solve results by
    (name, args).
    """

    def __init__(self, basis_images):
        b = np.asarray(basis_images, dtype=float)
        if b.shape != (3, 3, 3):
            raise ValueError("basis_images must have shape (3, 3, 3)")
        self.basis_images, self.memo = b, {}

    def matrix(self, M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        return np.einsum("k,kab->ab", M, self.basis_images)

    def matrices(self, Ms) -> np.ndarray:
        Ms = np.asarray(Ms, dtype=float)
        return np.einsum("nk,kab->nab", Ms, self.basis_images)

    @cached_property
    def gram(self) -> np.ndarray:
        """3x3 matrix of pairwise Frobenius inner products of basis images, computed once: do not modify it."""
        b = self.basis_images
        return np.einsum("iab,jab->ij", b, b)

    @cached_property
    def scale(self) -> float:
        """Largest basis-image Frobenius norm; natural tolerance scale."""
        b = self.basis_images
        return float(np.sqrt(np.einsum("kab,kab->k", b, b).max()))

    def is_trivial(self) -> bool:
        return self.scale == 0.0

    def __add__(self, other) -> "MagneticAlgebra":
        return MagneticAlgebra(self.basis_images + other.basis_images)


def identity_residuals(images):
    """Reciprocity, trace and det residuals of basis images (3, 3, 3), or of each in an (..., 3, 3, 3) stack.

    Exact images make each zero: images[i] @ e_j == images[j] @ e_i,
    tr F == 0 and, for traceless F, det F == tr(F^3) / 3.
    """
    b = np.asarray(images, dtype=float)
    tr3 = np.einsum("...kab,...kbc,...kca->...k", b, b, b)
    return (np.abs(b - np.swapaxes(b, -3, -1)).max(axis=(-3, -2, -1)),
            np.abs(np.trace(b, axis1=-2, axis2=-1)).max(axis=-1),
            np.abs(det3(b) - tr3 / 3.0).max(axis=-1))


def p_vector(cfg: DipoleConfig) -> np.ndarray:
    """Source vector: sum of unit directions weighted by distance^-4."""
    u, dist = cfg.separations()
    return (u * dist[:, None] ** -4).sum(axis=0)


def build_algebra(cfg: DipoleConfig) -> MagneticAlgebra:
    """Assemble the moment -> gradient-matrix map of a configuration."""
    u, dist = cfg.separations()
    w = dist ** -4
    # the Gram matrix holds squares of the operator's entries, which scale as w
    if w.max() ** 2 < np.finfo(float).tiny:
        raise FarFieldError(f"field point too far from the magnets: the nearest is at "
                            f"{dist.min():.3e} m, where the operator's Gram matrix underflows")
    P = (w[:, None] * u).sum(axis=0)
    ident = np.eye(3)
    # third-moment tensor sum_i w_i u_i (x) u_i (x) u_i, first slot indexed by k
    t3 = np.einsum("i,ik,ia,ib->kab", w, u, u, u)
    # basis[k] = P e_k^T + e_k P^T + P_k I - 5 t3[k]
    basis = P[:, None] * ident[:, None, :] + ident[:, :, None] * P + P[:, None, None] * ident - 5.0 * t3
    # symmetric configurations (inversion-symmetric sets in particular)
    # cancel term by term; entries below the rounding floor of that
    # cancellation carry no significant digits, so snap them to an exact
    # zero operator instead of leaking summation noise into the analysis
    cancel_floor = 512.0 * np.finfo(float).eps * float(w.sum())
    if np.abs(basis).max() <= cancel_floor:
        basis[:] = 0.0
    return MagneticAlgebra(basis)


def gradient_matrix(cfg: DipoleConfig, M) -> np.ndarray:
    """Direct evaluation of the gradient matrix for one moment.

    Independent of build_algebra's basis route; used to cross-check it.
    """
    M = np.asarray(M, dtype=float)
    u, dist = cfg.separations()
    w = dist ** -4
    P = (w[:, None] * u).sum(axis=0)
    proj = u @ M
    s = np.einsum("i,ia,ib->ab", w * proj, u, u)
    return np.outer(P, M) + np.outer(M, P) + float(M @ P) * np.eye(3) - 5.0 * s


def field_B(magnet_pos, moment, at) -> np.ndarray:
    """Dipole magnetic field in tesla at a point, SI prefactor included."""
    p = np.asarray(at, dtype=float) - np.asarray(magnet_pos, dtype=float)
    d = float(np.linalg.norm(p))
    if d < EPS_DIST:
        raise SingularFieldPointError(0, d)
    ph = p / d
    moment = np.asarray(moment, dtype=float)
    return MU0_OVER_4PI * (3.0 * ph * float(ph @ moment) - moment) / d ** 3


def force(cfg: DipoleConfig, M, m) -> np.ndarray:
    """Translational force on a test moment m at the field point.

    Newtons when cfg.si_prefactor is set; bare operator output otherwise.
    """
    out = gradient_matrix(cfg, M) @ np.asarray(m, dtype=float)
    return FORCE_PREFACTOR * out if cfg.si_prefactor else out


def gen_pair(o_plus, o_minus, field_point=(0.0, 0.0, 0.0), si_prefactor=False) -> DipoleConfig:
    """Two-magnet configuration; the workhorse planar case."""
    o_plus = np.asarray(o_plus, dtype=float)
    o_minus = np.asarray(o_minus, dtype=float)
    if np.linalg.norm(o_plus - o_minus) < EPS_DIST:
        raise ValueError("coincident magnet positions")
    return DipoleConfig(np.stack([o_plus, o_minus]), field_point, si_prefactor)


def gen_mirror_symmetric(
    base_points,
    in_plane_points,
    plane_normal,
    field_point=(0.0, 0.0, 0.0),
    si_prefactor=False,
) -> DipoleConfig:
    """Magnet set mirror-symmetric about the plane through the origin.

    base_points is a list of (offset, height) pairs: each emits two
    magnets offset +- height along the normal.  Offsets and in-plane
    points are projected onto the plane, so the output is exactly
    invariant under reflection.  At any in-plane field point the plane
    direction is then invariant under the induced algebra.
    """
    n = np.asarray(plane_normal, dtype=float)
    nn = float(np.linalg.norm(n))
    if nn == 0.0:
        raise ValueError("zero plane normal")
    n = n / nn
    base_points = list(base_points)
    in_plane_points = list(in_plane_points)
    if not base_points and not in_plane_points:
        raise ValueError("empty configuration")
    magnets = []
    for u, t in base_points:
        t = float(t)
        if t <= 0.0:
            raise ValueError("mirror-pair height must be positive")
        u = np.asarray(u, dtype=float)
        u = u - float(u @ n) * n
        magnets.append(u + t * n)
        magnets.append(u - t * n)
    for q in in_plane_points:
        q = np.asarray(q, dtype=float)
        magnets.append(q - float(q @ n) * n)
    return DipoleConfig(np.stack(magnets), field_point, si_prefactor)


def gen_cubic_lattice(
    spacing,
    half_extent,
    exclude_origin=True,
    field_point=(0.0, 0.0, 0.0),
    si_prefactor=False,
) -> DipoleConfig:
    """Finite cubic lattice: all integer triples in [-k, k]^3 times spacing."""
    spacing = float(spacing)
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    k = int(half_extent)
    if k < 1:
        raise ValueError("half_extent must be at least 1")
    axis = np.arange(-k, k + 1)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if exclude_origin:
        grid = grid[np.any(grid != 0, axis=1)]
    return DipoleConfig(grid * spacing, field_point, si_prefactor)
