"""Seeded random configuration generators for the verification suites.

Coplanar and mirror-symmetric families come back with their construction
normal so tests can exercise the planar machinery without re-detecting
the plane.  Magnet distances are drawn log-uniform so the induced
operators span several decades of entry magnitude.
"""

from __future__ import annotations

import numpy as np

from .dipoles import DipoleConfig, build_algebra

R_MIN = 0.12
R_MAX = 3.0


def random_unit(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_frame(rng) -> np.ndarray:
    """Columns form a right-handed orthonormal basis."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _radii(rng, n):
    return 10.0 ** rng.uniform(np.log10(R_MIN), np.log10(R_MAX), size=n)


def random_coplanar_config(rng, n_min=1, n_max=8):
    """Magnets and field point in one affine plane; returns (cfg, normal)."""
    frame = random_frame(rng)
    e1, e2, n_hat = frame[:, 0], frame[:, 1], frame[:, 2]
    fp = rng.uniform(-1.0, 1.0, size=3)
    n = int(rng.integers(n_min, n_max + 1))
    radii = _radii(rng, n)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    offsets = radii[:, None] * (
        np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
    )
    cfg = DipoleConfig(fp - offsets, fp)
    return cfg, n_hat


def random_mirror_config(rng):
    """Magnet set mirror-symmetric about a random affine plane through the
    field point; returns (cfg, normal)."""
    frame = random_frame(rng)
    e1, e2, n_hat = frame[:, 0], frame[:, 1], frame[:, 2]
    fp = rng.uniform(-1.0, 1.0, size=3)
    n_pairs = int(rng.integers(1, 4))  # 1 to 3 mirror pairs
    n_in = int(rng.integers(0, 3))  # 0 to 2 magnets in the plane
    magnets = []
    for _ in range(n_pairs):
        rho = float(_radii(rng, 1)[0])
        t = float(10.0 ** rng.uniform(np.log10(R_MIN), np.log10(2.0)))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        u = rho * (np.cos(ang) * e1 + np.sin(ang) * e2)
        magnets.append(fp + u + t * n_hat)
        magnets.append(fp + u - t * n_hat)
    for _ in range(n_in):
        rho = float(_radii(rng, 1)[0])
        ang = rng.uniform(0.0, 2.0 * np.pi)
        magnets.append(fp + rho * (np.cos(ang) * e1 + np.sin(ang) * e2))
    cfg = DipoleConfig(np.stack(magnets), fp)
    return cfg, n_hat


def random_config(rng, n_min=2, n_max=6) -> DipoleConfig:
    """Generic 3D configuration with a safe distance floor."""
    fp = rng.uniform(-1.0, 1.0, size=3)
    n = int(rng.integers(n_min, n_max + 1))
    dirs = np.stack([random_unit(rng) for _ in range(n)])
    radii = _radii(rng, n)
    return DipoleConfig(fp - radii[:, None] * dirs, fp)


def random_algebra(rng):
    return build_algebra(random_config(rng))


def random_moments(rng, n) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
