"""Small fixed-size 3D linear algebra kernel.

Vectors are plain numpy arrays of shape (3,), matrices of shape (3, 3);
no wrapper classes.  The one nontrivial routine is the closed-form
spectrum of a traceless symmetric matrix: principal_split takes the
principal eigenvalue and the pair half-spread from the trigonometric
solution of its depressed characteristic cubic

    t^3 - (tr A^2 / 2) t - (tr A^3 / 3) = 0,

exact up to rounding even at degenerate spectra; spread_ratio gives
r = 2 delta / |lam|.  Both work elementwise on arrays.  A seeded rotation
is corpus.random_frame(np.random.default_rng(seed)).
"""

from __future__ import annotations

import numpy as np

Vec3 = np.ndarray
Mat3 = np.ndarray


def unit(v) -> Vec3:
    """v / ||v||, or each row of (..., 3) v over its norm, rejecting the zero vector.

    The norm is the square root of a matmul, which rounds as
    np.linalg.norm of one vector does, row by row.
    """
    v = np.asarray(v, dtype=float)
    n = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    if not n.all():
        raise ValueError("cannot normalize a zero vector")
    return v / n


def canonical_sign(v) -> Vec3:
    """Flip v, or each row of (n, 3) v, so its largest-magnitude component (the first of tied ones) is positive.

    Gives a deterministic representative for quantities defined only up
    to sign (eigenvectors, plane normals).
    """
    v = np.asarray(v, dtype=float)
    i = np.abs(v).argmax(axis=-1)
    if v.ndim == 1:
        return -v if v[i] < 0.0 else v
    return np.where((v[np.arange(len(v)), i] < 0.0)[:, None], -v, v)


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # component i + 1 and i - 1, cyclically


def cross(a, b) -> np.ndarray:
    """Cross product of 3-vectors or of the rows of (..., 3) arrays, with np.cross's arithmetic and less overhead."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def cross_matrices(ns) -> np.ndarray:
    """Antisymmetric matrices [n] with [n] @ v == np.cross(n, v), one per row: (..., 3) -> (..., 3, 3)."""
    ns = np.asarray(ns, dtype=float)
    out = np.zeros(ns.shape[:-1] + (3, 3))
    n1, n2, n3 = ns[..., 0], ns[..., 1], ns[..., 2]
    out[..., 0, 1] = -n3
    out[..., 0, 2] = n2
    out[..., 1, 0] = n3
    out[..., 1, 2] = -n1
    out[..., 2, 0] = -n2
    out[..., 2, 1] = n1
    return out


def rot_about(axis, angle) -> Mat3:
    """Proper rotation by `angle` radians fixing `axis` (Rodrigues form); an array of angles gives one per angle."""
    axis = np.asarray(axis, dtype=float)
    na = float(np.linalg.norm(axis))
    if na == 0.0 or not np.isfinite(na):
        raise ValueError("degenerate axis")
    k = cross_matrices(axis / na)
    return np.eye(3) + np.sin(angle)[..., None, None] * k + (1.0 - np.cos(angle))[..., None, None] * (k @ k)


def det3(a) -> np.ndarray:
    """Determinant of (..., 3, 3) arrays, expanded explicitly."""
    a = np.asarray(a, dtype=float)
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )


def principal_split(j2, j3):
    """Principal eigenvalue and pair half-spread of t^3 - j2*t - j3 = 0.

    j2 = tr(A^2)/2 >= 0 and j3 = det(A) for traceless symmetric A.
    Accepts scalars or arrays.  The arccos argument is clamped to [-1, 1]
    against floating-point drift near degenerate spectra.
    """
    j2 = np.asarray(j2, dtype=float)
    j3 = np.asarray(j3, dtype=float)
    m = 2.0 * np.sqrt(np.maximum(j2, 0.0) / 3.0)
    # |det| <= m^3/4 for real spectra, so wherever m^3 underflows to zero
    # the determinant has underflowed first and the ratio is exactly 0
    m3 = m * m * m
    safe = np.where(m3 > 0.0, m3, 1.0)
    arg = np.clip(np.where(m3 > 0.0, 4.0 * j3 / safe, 0.0), -1.0, 1.0)
    phi = np.arccos(arg) / 3.0  # in [0, pi/3]
    e1 = m * np.cos(phi)
    e2 = m * np.cos(phi - 2.0 * np.pi / 3.0)
    e3 = m * np.cos(phi - 4.0 * np.pi / 3.0)
    # e1 >= e2 >= e3 and e1 >= 0 >= e3; a magnitude tie resolves to the
    # positive root, with an ulp-scale band so exact +-pairs that round
    # apart still count as tied
    take_low = -e3 > e1 + 32.0 * np.finfo(float).eps * m
    lam = np.where(take_low, e3, e1)
    delta = np.maximum(np.where(take_low, 0.5 * (e1 - e2), 0.5 * (e2 - e3)), 0.0)
    lam = np.where(m > 0.0, lam, 0.0)
    delta = np.where(m > 0.0, delta, 0.0)
    return lam, delta


def spread_ratio(lam, delta):
    """r = 2*delta/|lam| clipped to [0, 1]; 0 where lam == 0."""
    lam = np.asarray(lam, dtype=float)
    delta = np.asarray(delta, dtype=float)
    safe = np.where(lam == 0.0, 1.0, np.abs(lam))
    return np.where(lam == 0.0, 0.0, np.clip(2.0 * delta / safe, 0.0, 1.0))


def principal_axis(A):
    """(principal eigenvalue, unit eigenvector) of a symmetric 3x3 matrix, or arrays of them for an (n, 3, 3) stack.

    Principal means largest magnitude; a tie resolves to the positive
    eigenvalue, and the eigenvector sign is canonical.
    """
    w, v = np.linalg.eigh(np.asarray(A, dtype=float))
    i = np.where(-w[..., 0] > w[..., -1], 0, 2)
    if w.ndim == 1:
        return float(w[i]), canonical_sign(v[:, i])
    rows = np.arange(len(w))
    return w[rows, i], canonical_sign(v[rows, :, i])
