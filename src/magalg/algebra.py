"""Structure analysis of a moment -> matrix map.

Given an algebra of traceless symmetric images with reciprocity, this
module validates it, computes the Gram matrix of basis images and its top
eigenpair, detects invariant planes (2D subspaces closed under the
induced product), builds the orthonormal frame attached to a plane, and
constructs the one-parameter family of splits of the map into a part
equivariant under rotations about the coupling vector and a part mapping
everything into the plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, cross_matrices, cross_matrix, unit
from .sphere import fibonacci_sphere, seeded_rotation, sphere_descent, tangent_basis

PLANARITY_TOL = 1e-8  # relative to the largest basis-image Frobenius norm
_FRAME_TOL = 1e-12  # below this (relative), the coupling vector is treated as zero
GRAM_DEGENERACY_RTOL = 1e-9  # Gram eigenvalues this close (relative to the top one) count as equal
_FAMILY_SIZE = 8  # representatives returned for a continuous family of planes


class TrivialAlgebraError(ValueError):
    """All basis images vanish; structure analysis is undefined."""


class NotInvariantPlaneError(ValueError):
    """Candidate normal fails the planarity residual test."""

    def __init__(self, residual, threshold):
        super().__init__(
            f"not an invariant plane (residual {residual:.3e} > tol {threshold:.3e})"
        )
        self.residual = float(residual)
        self.threshold = float(threshold)


@dataclass(frozen=True)
class AlgebraCheck:
    reciprocity_residual: float
    trace_residual: float
    det_residual: float
    nontrivial: bool


def check_algebra(alg: MagneticAlgebra) -> AlgebraCheck:
    """Report-style validation; never raises."""
    return AlgebraCheck(
        reciprocity_residual=alg.reciprocity_residual(),
        trace_residual=alg.trace_residual(),
        det_residual=alg.det_residual(),
        nontrivial=not alg.is_trivial(),
    )


@dataclass(frozen=True, eq=False)
class GramSpectrum:
    """Gram matrix of the basis images with its full eigendecomposition.

    lambda_F is the largest eigenvalue (max of tr F_M^2 over unit M) and
    M_F an associated unit eigenvector.  When the top eigenvalue is
    degenerate the whole eigenbasis is available and multiplicity > 1
    flags that M_F is only one representative of an eigenspace.
    """

    gram: np.ndarray
    lambda_F: float
    M_F: np.ndarray
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, matching eigenvalues
    multiplicity: int


def gram_spectrum(alg: MagneticAlgebra, degeneracy_rtol=GRAM_DEGENERACY_RTOL) -> GramSpectrum:
    g = alg.gram
    w, v = np.linalg.eigh(g)
    lam = float(max(w[-1], 0.0))
    tol = degeneracy_rtol * max(lam, 1e-300)
    mult = int(np.sum(w >= lam - tol))
    return GramSpectrum(
        gram=g,
        lambda_F=lam,
        M_F=canonical_sign(v[:, -1]),
        eigenvalues=w,
        eigenvectors=v,
        multiplicity=mult,
    )


def plane_residual(alg: MagneticAlgebra, n_hat) -> float:
    """Frobenius norm of [n] F_n [n]; zero exactly on invariant-plane normals."""
    n = unit(n_hat)
    k = cross_matrix(n)
    return float(np.linalg.norm(k @ alg.matrix(n) @ k))


def plane_residual_batch(alg: MagneticAlgebra, ns) -> np.ndarray:
    ns = np.asarray(ns, dtype=float)
    ns = ns / np.linalg.norm(ns, axis=-1, keepdims=True)
    k = cross_matrices(ns)
    f = alg.matrices(ns)
    r = np.einsum("nab,nbc,ncd->nad", k, f, k)
    return np.sqrt(np.einsum("nab,nab->n", r, r))


@dataclass(frozen=True, eq=False)
class PlanarStructure:
    """Frame data of one invariant plane.

    n_hat is the unit normal, P = F_n n the coupling vector (always
    perpendicular to n_hat), and when P is nonzero (P_hat, Q_hat)
    complete n_hat to an orthonormal frame with Q_hat spanning the kernel
    of F_n.  degenerate marks members of a continuous family of planes.
    """

    n_hat: np.ndarray
    P: np.ndarray
    norm_P: float
    P_hat: np.ndarray | None
    Q_hat: np.ndarray | None
    residual: float
    gram_eigenvalue: float
    degenerate: bool = False

    def frame(self):
        """In-plane orthonormal pair, synthesized when P vanishes."""
        if self.P_hat is not None:
            return self.P_hat, self.Q_hat
        return tangent_basis(self.n_hat)


def planar_structure(alg: MagneticAlgebra, n_hat, tol=PLANARITY_TOL, degenerate=False) -> PlanarStructure:
    """Validate a normal candidate and build the attached frame.

    Raises NotInvariantPlaneError (carrying the residual) if [n] F_n [n]
    is not negligible against the algebra scale.
    """
    scale = alg.scale
    if scale == 0.0:
        raise TrivialAlgebraError("trivial algebra")
    n = unit(n_hat)
    res = plane_residual(alg, n)
    threshold = tol * scale
    if res > threshold:
        raise NotInvariantPlaneError(res, threshold)
    fn = alg.matrix(n)
    P = fn @ n
    norm_p = float(np.linalg.norm(P))
    if norm_p > _FRAME_TOL * scale:
        p_hat = P / norm_p
        q_hat = np.cross(n, p_hat)
    else:
        p_hat = None
        q_hat = None
    # cheap consistency check of the frame's defining action: in-plane
    # moments must send n to multiples of itself with factor P . M
    e1, e2 = (p_hat, q_hat) if p_hat is not None else tangent_basis(n)
    for m in (e1, e2):
        err = np.linalg.norm(alg.matrix(m) @ n - float(P @ m) * n)
        if err > 10.0 * max(threshold, 1e-13 * scale):
            raise NotInvariantPlaneError(float(err), threshold)
    g = alg.gram
    return PlanarStructure(
        n_hat=canonical_sign(n),
        P=P,
        norm_P=norm_p,
        P_hat=p_hat,
        Q_hat=q_hat,
        residual=res,
        gram_eigenvalue=float(n @ g @ n),
        degenerate=degenerate,
    )


def _group_eigenvalues(w, rtol):
    """Indices of eigh output grouped by near-equality."""
    groups = [[0]]
    tol = rtol * max(abs(w[-1]), 1e-300)
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _separated_seeds(points, res, max_seeds, min_dot=0.98):
    """Lowest-residual points, greedily kept angularly apart (mod sign)."""
    seeds = []
    for i in np.argsort(res):
        p = points[i]
        if all(abs(float(p @ q)) < min_dot for q in seeds):
            seeds.append(p)
            if len(seeds) >= max_seeds:
                break
    return seeds


def _dedupe_normals(normals):
    out = []
    for n in normals:
        n = canonical_sign(unit(n))
        if all(abs(float(n @ m)) < 1.0 - 1e-9 for m in out):
            out.append(n)
    return out


def _self_eigen_system(alg: MagneticAlgebra, m):
    """Residual r = F_m m - (m . F_m m) m of each row of m, with its tangent Jacobian.

    g = F_m m is quadratic in m and m^T F_m = g^T, so the derivative of
    r(m / |m|) at a unit m is J = [2 F_m - 3 m g^T - (m . g) I](I - m m^T).
    """
    f = alg.matrices(m)
    g = np.einsum("nab,nb->na", f, m)
    s = np.einsum("na,na->n", m, g)
    r = g - s[:, None] * m
    eye = np.eye(3)
    tangent = eye - m[:, :, None] * m[:, None, :]
    jac = (2.0 * f - 3.0 * m[:, :, None] * g[:, None, :] - s[:, None, None] * eye) @ tangent
    return r, jac


def _self_eigen_step(alg: MagneticAlgebra, x):
    """One projected Newton step for F_m m = lambda m on each row of x.

    The step is the minimum-norm solution of J step = -r, projected to
    the tangent plane, capped at length 0.5 and renormalized.  Returns
    the stepped rows and the residual norms before the step.
    """
    r, jac = _self_eigen_system(alg, x)
    # cutoff max(M, N) * eps, as in lstsq(rcond=None)
    pinv = np.linalg.pinv(jac, rcond=3.0 * np.finfo(float).eps)
    step = -np.einsum("nab,nb->na", pinv, r)
    step -= np.einsum("na,na->n", step, x)[:, None] * x
    length = np.linalg.norm(step, axis=1)
    capped = length > 0.5
    step[capped] *= (0.5 / length[capped])[:, None]
    x = x + step
    return x / np.linalg.norm(x, axis=1)[:, None], np.linalg.norm(r, axis=1)


def self_eigenvectors(alg: MagneticAlgebra, n_starts=50, seed=0) -> list[np.ndarray]:
    """Distinct unit moments x with F_x x parallel to x, sign-canonical.

    These are the Z-eigenvectors of the operator tensor, found by
    projected Newton from n_starts seeded Fibonacci starts at once.  A
    start is done once its residual is at most 1e-11 times the operator
    scale and is dropped if still above it after 60 residual checks; two
    moments whose cosine is within 1e-8 of +-1 count once.  The solve runs
    on the operator over its scale, where squared residuals cannot underflow.
    Memoized on alg per (n_starts, seed); the moments are read-only.
    """
    key = ("self_eigenvectors", int(n_starts), int(seed))
    if key in alg.memo:
        return list(alg.memo[key])
    unit_alg = alg * (1.0 / alg.scale)
    m = fibonacci_sphere(n_starts) @ seeded_rotation(seed).T
    converged = np.zeros(len(m), dtype=bool)
    active = np.arange(len(m))
    for _ in range(60):
        stepped, res = _self_eigen_step(unit_alg, m[active])
        done = res <= 1e-11
        converged[active[done]] = True
        m[active[~done]] = stepped[~done]
        active = active[~done]
        if not len(active):
            break
    found: list[np.ndarray] = []
    for x in m[converged]:
        x = canonical_sign(x)
        if all(abs(float(x @ f)) < 1.0 - 1e-8 for f in found):
            x.setflags(write=False)
            found.append(x)
    alg.memo[key] = tuple(found)
    return found


def _circle_normals(alg: MagneticAlgebra, axis, threshold):
    """Plane normals on the great circle orthogonal to axis, and whether they form a family.

    Along the circle, ||[n] F_n [n]||^2 is a trigonometric polynomial of
    degree 3 in 2t: twelve samples give it exactly, and its stationary
    points are the roots of a degree-6 polynomial in z = exp(2it).  If no
    sample or stationary point is above threshold the circle is a family;
    otherwise each arc between points above threshold gives its lowest.
    """
    u, v = tangent_basis(axis)

    def on_circle(t):
        return np.cos(t)[:, None] * u + np.sin(t)[:, None] * v

    t = np.arange(12) * (np.pi / 12)
    res = plane_residual_batch(alg, on_circle(t))
    # coefficient of z^k, k = 0..3, of the squared residual over the scale (unscaled,
    # it underflows in the far field); that of z^-k is its conjugate
    c = np.fft.rfft((res / alg.scale) ** 2)[:4] / 12
    k = np.arange(-3, 4)
    # z^3 f'(t) / 2i = sum_k k c_k z^(k+3); np.roots wants the highest power first
    t_stat = np.angle(np.roots((k * np.concatenate([np.conj(c[:0:-1]), c]))[::-1])) / 2
    t = np.concatenate([t, t_stat]) % np.pi
    res = np.concatenate([res, plane_residual_batch(alg, on_circle(t_stat))])
    low = res <= threshold
    if low.all():
        return on_circle(np.arange(_FAMILY_SIZE) * (np.pi / _FAMILY_SIZE)), True
    order = np.argsort(t)
    high = np.flatnonzero(~low[order])
    order = np.roll(order, -high[0])  # start the sweep at a point above threshold
    best = []
    for arc in np.split(order, high[1:] - high[0]):
        arc = arc[low[arc]]
        if arc.size:
            best.append(t[arc[np.argmin(res[arc])]])
    return on_circle(np.array(best)), False


def find_invariant_planes(
    alg: MagneticAlgebra,
    tol=PLANARITY_TOL,
    global_scan=False,
) -> list[PlanarStructure]:
    """All invariant-plane normals of the algebra.

    Candidates are restricted to eigenvectors of the Gram matrix, which
    is exhaustive for exact planes.  A 2-fold eigenspace is the great
    circle orthogonal to the third eigenvector; in a 3-fold one every
    normal lies on the circle orthogonal to a self-eigenvector (the
    maximizer of x^T F_x x on the plane).  Continuous families come back
    as representatives flagged degenerate.  global_scan additionally
    sweeps the whole sphere (Fibonacci lattice plus local descent) to
    catch near-planes of slightly perturbed configurations.
    """
    scale = alg.scale
    if scale == 0.0:
        raise TrivialAlgebraError("trivial algebra")
    threshold = tol * scale
    gs = gram_spectrum(alg)
    w, v = gs.eigenvalues, gs.eigenvectors

    accepted: list[np.ndarray] = []
    family: list[np.ndarray] = []

    for group in _group_eigenvalues(w, 1e-7):
        if len(group) == 1:
            n = v[:, group[0]]
            if plane_residual(alg, n) <= threshold:
                accepted.append(n)
            continue
        if len(group) == 3:
            # one more Newton step takes each axis from the 1e-11 acceptance to full precision
            axes, _ = _self_eigen_step(alg, np.reshape(self_eigenvectors(alg), (-1, 3)))
        else:
            axes = [v[:, 3 - sum(group)]]  # the eigenvector outside the adjacent pair
        found: list[np.ndarray] = []
        for axis in axes:
            normals, is_family = _circle_normals(alg, axis, threshold)
            (family if is_family else found).extend(normals)
        # several circles can pass through one normal and locate it with
        # different accuracy: the most accurate comes first, so dedupe keeps it
        res = [plane_residual(alg, n) for n in found]
        accepted.extend(found[i] for i in np.argsort(res, kind="stable") if res[i] <= threshold)

    if global_scan:
        pts = fibonacci_sphere(10_000)
        res = plane_residual_batch(alg, pts)
        for p in _separated_seeds(pts, res, max_seeds=16):
            n, r = sphere_descent(
                lambda x: plane_residual_batch(alg, [x])[0], p, steps=80
            )
            if r <= threshold:
                accepted.append(n)

    out = [planar_structure(alg, n, tol=tol) for n in _dedupe_normals(accepted)]
    seen = [p.n_hat for p in out]
    for n in _dedupe_normals(family):
        if all(abs(float(n @ m)) < 1.0 - 1e-9 for m in seen):
            out.append(planar_structure(alg, n, tol=tol, degenerate=True))
            seen.append(n)
    out.sort(key=lambda p: (-p.gram_eigenvalue, p.n_hat[0], p.n_hat[1], p.n_hat[2]))
    return out


@dataclass(frozen=True, eq=False)
class Decomposition:
    """One member of the family of splits F = E - Pi attached to a plane.

    E is equivariant under rotations fixing the coupling vector P and is
    affine in the free parameter gamma through -gamma * P P^T; the
    remainder Pi maps all of R^3 into the plane.
    """

    algebra: MagneticAlgebra
    plane: PlanarStructure
    gamma: float

    def equivariant_part(self, M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        P = self.plane.P
        return (
            np.outer(P, M)
            + np.outer(M, P)
            + float(M @ P) * np.eye(3)
            - self.gamma * np.outer(P, P)
        )

    def plane_part(self, M) -> np.ndarray:
        return self.equivariant_part(M) - self.algebra.matrix(M)


def decompose(alg: MagneticAlgebra, plane: PlanarStructure, gamma=0.0) -> Decomposition:
    return Decomposition(algebra=alg, plane=plane, gamma=float(gamma))
