"""Deterministic unit-sphere sampling and derivative-free local search.

The Fibonacci lattice gives near-uniform deterministic coverage; its
callers rotate it by corpus.random_frame(np.random.default_rng(seed)),
which decorrelates it from the coordinate axes while keeping runs
reproducible.  Local refinement is projected gradient ascent with central
finite differences and a step-halving line search, which tolerates the
kinks of piecewise-smooth objectives like eigenvalue magnitudes.
"""

from __future__ import annotations

import numpy as np

from .linalg3 import cross, unit

_GOLDEN = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_sphere(n) -> np.ndarray:
    """n near-uniform unit vectors, deterministic."""
    n = int(n)
    if n < 1:
        raise ValueError("need at least one sample")
    i = np.arange(n)
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - y * y, 0.0))
    phi = i * _GOLDEN
    return np.stack([np.cos(phi) * r, y, np.sin(phi) * r], axis=1)


def tangent_basis(n):
    """Two unit vectors spanning the plane orthogonal to unit n; for the rows of (m, 3) n, two (m, 3) arrays."""
    n = np.asarray(n, dtype=float)
    t1 = cross(n, np.eye(3)[np.argmin(np.abs(n), axis=-1)])
    t1 = t1 / np.sqrt(t1[..., None, :] @ t1[..., :, None])[..., 0]  # as unit() divides by sqrt(t1 . t1)
    return t1, cross(n, t1)


def sphere_ascent(f, x0, steps=100):
    """Maximize f over the unit sphere starting from x0.

    Projected gradient ascent: central differences of step 1e-6, gradient
    projected to the tangent plane, step-halving line search from 0.1.
    Monotone, deterministic, and never returns a worse point than x0.
    """
    x = unit(np.asarray(x0, dtype=float))
    fx = f(x)
    step = 0.1
    for _ in range(int(steps)):
        g = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            g[k] = (f(unit(x + e)) - f(unit(x - e))) / 2e-6
        g -= (g @ x) * x
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        d = g / gn
        s = step
        improved = False
        for _ in range(30):
            xn = unit(x + s * d)
            fn = f(xn)
            if fn > fx:
                x, fx = xn, fn
                step = min(2.0 * s, 0.1)
                improved = True
                break
            s *= 0.5
        if not improved:
            if s < 1e-15:
                break
            step = s
    return x, fx


def sphere_descent(f, x0):
    x, fx = sphere_ascent(lambda v: -f(v), x0)
    return x, -fx
