"""Structure analysis of a moment -> matrix map.

Given an algebra of traceless symmetric images with reciprocity, this
module computes the Gram matrix of basis images and its top eigenpair,
detects invariant planes (2D subspaces closed under the induced
product), builds the orthonormal frame attached to a plane, and
constructs the one-parameter family of splits of the map into a part
equivariant under rotations about the coupling vector and a part mapping
everything into the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, cross, cross_matrices, rot_about, unit
# sphere_descent stays bound here for tracing; nothing in this module calls it
from .sphere import sphere_descent, tangent_basis

PLANARITY_TOL = 1e-8  # relative to the largest basis-image Frobenius norm
_FRAME_TOL = 1e-12  # below this (relative), the coupling vector is treated as zero
GRAM_DEGENERACY_RTOL = 1e-9  # Gram eigenvalues this close (relative to the top one) count as equal
_FAMILY_SIZE = 8  # representatives returned for a continuous family of planes
_FAMILY_ANGLES = np.arange(_FAMILY_SIZE) * (np.pi / _FAMILY_SIZE)  # their angles on the circle of normals
_EIGEN_TOL = 1e-11  # on the operator over its scale, a moment whose residual is at most this is a Z-eigenvector


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


def gram_spectrum(alg: MagneticAlgebra) -> GramSpectrum:
    """The Gram matrix with its eigh, memoized on alg: callers share it and must not modify it."""
    key = ("gram_spectrum",)
    if key not in alg.memo:
        g = alg.gram
        w, v = np.linalg.eigh(g)
        lam = float(max(w[-1], 0.0))
        mult = int(np.sum(w >= lam - GRAM_DEGENERACY_RTOL * max(lam, 1e-300)))
        alg.memo[key] = GramSpectrum(g, lam, canonical_sign(v[:, -1]), w, v, mult)
    return alg.memo[key]


def plane_residual_batch(alg: MagneticAlgebra, ns) -> np.ndarray:
    """Frobenius norm of [n] F_n [n] for each row n of ns, normalized first; zero exactly on invariant-plane normals."""
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
    res = float(plane_residual_batch(alg, n[None])[0])  # the value find_invariant_planes accepted n by
    threshold = tol * scale
    if res > threshold:
        raise NotInvariantPlaneError(res, threshold)
    fn = alg.matrix(n)
    P = fn @ n
    norm_p = float(np.linalg.norm(P))
    if norm_p > _FRAME_TOL * scale:
        p_hat = P / norm_p
        q_hat = cross(n, p_hat)
    else:
        p_hat = None
        q_hat = None
    # cheap consistency check of the frame's defining action: in-plane
    # moments must send n to multiples of itself with factor P . M
    e = np.array((p_hat, q_hat) if p_hat is not None else tangent_basis(n))
    err = float(np.linalg.norm(alg.matrices(e) @ n - (e @ P)[:, None] * n, axis=1).max())
    if err > 10.0 * max(threshold, 1e-13 * scale):
        raise NotInvariantPlaneError(err, threshold)
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
    """Indices of ascending values w grouped by near-equality: within rtol * |w[-1]| of the first of a group."""
    groups = [[0]]
    tol = rtol * max(abs(w[-1]), 1e-300)
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _self_eigen_system(alg, m):
    """Residual r = F_m m - (m . F_m m) m of each row of m, with its tangent Jacobian.

    alg is a MagneticAlgebra, or an (n, 3, 3, 3) stack of basis images,
    one per row of m.  g = F_m m is quadratic in m and m^T F_m = g^T, so
    the derivative of r(m / |m|) at a unit m is
    J = [2 F_m - 3 m g^T - (m . g) I](I - m m^T).
    """
    images = getattr(alg, "basis_images", alg)
    f = np.einsum("nk,kab->nab" if images.ndim == 3 else "nk,nkab->nab", m, images)
    g = np.einsum("nab,nb->na", f, m)
    s = np.einsum("na,na->n", m, g)
    r = g - s[:, None] * m
    eye = np.eye(3)
    tangent = eye - m[:, :, None] * m[:, None, :]
    jac = (2.0 * f - 3.0 * m[:, :, None] * g[:, None, :] - s[:, None, None] * eye) @ tangent
    return r, jac


def _newton_step(x, r, jac):
    """One projected Newton step for F_m m = lambda m on each row of x, from its residual and Jacobian.

    The step is the minimum-norm solution of J step = -r, projected to
    the tangent plane, capped at length 0.5 and renormalized.
    """
    # cutoff max(M, N) * eps, as in lstsq(rcond=None)
    pinv = np.linalg.pinv(jac, rcond=3.0 * np.finfo(float).eps)
    step = -np.einsum("nab,nb->na", pinv, r)
    step -= np.einsum("na,na->n", step, x)[:, None] * x
    length = np.linalg.norm(step, axis=1)
    capped = length > 0.5
    step[capped] *= (0.5 / length[capped])[:, None]
    x = x + step
    return x / np.linalg.norm(x, axis=1)[:, None]


def _converge(alg, m):
    """Projected Newton on each row of m until its residual is at most _EIGEN_TOL.

    alg is as in _self_eigen_system.  Returns the rows after Newton and a
    mask of those that converged: a row still above _EIGEN_TOL after 60
    residual checks has not.
    """
    m = np.array(m, dtype=float).reshape(-1, 3)
    images = getattr(alg, "basis_images", alg)
    converged = np.zeros(len(m), dtype=bool)
    active = np.arange(len(m))
    for _ in range(60):
        x = m[active]
        r, jac = _self_eigen_system(images if images.ndim == 3 else images[active], x)
        done = np.linalg.norm(r, axis=1) <= _EIGEN_TOL
        converged[active[done]] = True
        active = active[~done]
        if not len(active):
            break
        m[active] = _newton_step(x[~done], r[~done], jac[~done])
    return m, converged


def _distinct(m, cos_tol=1e-8) -> list[np.ndarray]:
    """Sign-canonical, read-only copies of the rows of m, in order, dropping each whose cosine with a kept one is within cos_tol of +-1."""
    x = np.array(m, dtype=float).reshape(-1, 3)
    keep: list[int] = []
    for i, near in enumerate((np.abs(x @ x.T) >= 1.0 - cos_tol).tolist()):
        if not any(near[j] for j in keep):
            keep.append(i)
    x = x[keep]
    x *= np.where(x[np.arange(len(x)), np.abs(x).argmax(axis=1)] < 0.0, -1.0, 1.0)[:, None]  # canonical_sign per row
    x.setflags(write=False)
    return list(x)


# Fixed proper rotations that move the chart's special directions (the great
# circles x0 = 0 and x2 = 0 of the rotated frame) off the axes and planes where
# symmetric operators put their Z-eigenvectors; each re-solves what those before it leave uncertified.
_CHART_ROTATIONS = tuple(rot_about(axis, angle) for axis, angle in [
    ([0.43, -0.71, 0.55], 0.97), ([-0.62, 0.18, 0.77], 1.91), ([0.29, 0.88, -0.37], 2.53),
    ([0.71, 0.05, 0.70], 0.61), ([-0.1, -0.6, 0.79], 2.2)])
_EIGENPOINTS = 7  # Z-eigenvectors in P^2 of a ternary cubic with finitely many, counted over C
_ROOT_RTOL = 1e-8  # chart roots closer than this (relative) count once; Jacobians this ill-conditioned are singular
_STEP_RTOL = 1e-10  # a chart root is polished once its last Newton step is this small (relative)


# q_a(1, y, z) = T(a, v, v) has the terms y^i z^j below, with coefficient t[a, b, c] (flat b c) times 1 or 2
_QUAD_TERMS = {(0, 0): (0, 1.0), (1, 0): (1, 2.0), (0, 1): (2, 2.0), (2, 0): (4, 1.0), (1, 1): (5, 2.0), (0, 2): (8, 1.0)}


def _chart_tables():
    """Gather tables of _chart_polynomials: p[k, i, j] = (q[plus] - q[minus]) * factor.

    q holds the 6 coefficients of each q_a and then a zero, so a term
    that does not exist reads 0.  C1 = q_1 - y q_0 at y^i z^j is
    q_1[i, j] - q_0[i - 1, j], C2 = q_2 - z q_0 is q_2[i, j] - q_0[i, j - 1],
    and d/dy at y^i z^j is (i + 1) times the coefficient at y^(i+1) z^j.
    """
    slots = {term: s for s, term in enumerate(_QUAD_TERMS)}

    def q(a, i, j):  # the slot of q_a's coefficient at y^i z^j
        return 7 * a + slots.get((i, j), 6)

    plus, minus = np.zeros((2, 6, 4, 4), dtype=int)
    factor = np.ones((6, 4, 4))
    for e, i, j in np.ndindex(2, 4, 4):
        for k, (ci, cj, f) in enumerate([(i, j, 1), (i + 1, j, i + 1), (i, j + 1, j + 1)]):
            plus[3 * e + k, i, j] = q(e + 1, ci, cj)
            minus[3 * e + k, i, j] = q(0, ci - 1, cj) if e == 0 else q(0, ci, cj - 1)
            factor[3 * e + k, i, j] = f
    return plus, minus, factor


_CHART_PLUS, _CHART_MINUS, _CHART_FACTOR = _chart_tables()
_QUAD_SLOTS, _QUAD_SCALES = (np.array(v) for v in zip(*_QUAD_TERMS.values()))


def _chart_polynomials(t):
    """Coefficients p[n, k, i, j] of y^i z^j in C1, dC1/dy, dC1/dz, C2, dC2/dy, dC2/dz of each tensor t[n].

    In the chart v = (1, y, z), with q(v) = T(., v, v), C1 = q_1 - y q_0
    and C2 = q_2 - z q_0 vanish exactly where q(v) is parallel to v.
    """
    q = np.zeros((len(t), 3, 7))
    q[..., :6] = t.reshape(-1, 3, 9)[..., _QUAD_SLOTS] * _QUAD_SCALES
    q = q.reshape(-1, 21)
    return (q[:, _CHART_PLUS] - q[:, _CHART_MINUS]) * _CHART_FACTOR


def _powers(x):
    """1, x, x^2, x^3 along a new last axis, multiplied out as np.vander does."""
    v = np.empty(x.shape + (4,), x.dtype)
    v[..., 0] = 1.0
    v[..., 1:] = x[..., None]
    np.multiply.accumulate(v[..., 1:], axis=-1, out=v[..., 1:])
    return v


def _chart_roots(t):
    """All chart solutions (y, z) of C1 = C2 = 0 over C of each tensor t[n], polished by Newton.

    C1 has degree 3 and C2 degree 2 in y; their 5x5 Sylvester matrix in
    y is a cubic S(z) = S0 + z S1 + z^2 S2 + z^3 S3, and the roots z are
    its eigenvalues.  In w = 1/z they are those of a 15x15 companion
    matrix; the Sylvester kernel at a root is (1, y, ..., y^4), so y is
    read from the last block of the eigenvector.  The tensors share one
    stacked solve, eig and Newton pass; each operator's arithmetic is the
    same as alone.  Returns (n, 15) arrays of y, z, the last Newton step
    length and |det J| / ||J||_F^2 of the chart Jacobian J, about its
    singular-value ratio when small.  Raises LinAlgError when an S0 is
    singular.
    """
    polys = _chart_polynomials(t)
    s = np.zeros((len(t), 4, 5, 5))  # s[:, j] multiplies z^j; columns are y^0..y^4
    for k in range(2):
        s[:, :, k, k:k + 4] = polys[:, 0].transpose(0, 2, 1)
    for k in range(3):
        s[:, :, 2 + k, k:k + 3] = polys[:, 3, :3].transpose(0, 2, 1)
    companion = np.zeros((len(t), 15, 15))
    companion[:, :5] = -np.linalg.solve(s[:, 0], np.concatenate([s[:, 1], s[:, 2], s[:, 3]], axis=2))
    companion[:, 5:, :10] = np.eye(10)
    w, vecs = np.linalg.eig(companion)
    with np.errstate(all="ignore"):  # roots of w near 0 lie at infinity; Newton may overflow on them
        y, z = vecs[:, 11] / vecs[:, 10], 1.0 / w
        for _ in range(8):
            c1, c1_y, c1_z, c2, c2_y, c2_z = np.einsum("nri,nkij,nrj->knr", _powers(y), polys, _powers(z))
            det = c1_y * c2_z - c1_z * c2_y
            dy = (c2_z * c1 - c1_z * c2) / det
            dz = (c1_y * c2 - c2_y * c1) / det
            y, z = y - dy, z - dz
        fro2 = np.abs(c1_y) ** 2 + np.abs(c1_z) ** 2 + np.abs(c2_y) ** 2 + np.abs(c2_z) ** 2
        return y, z, np.abs(dy) + np.abs(dz), np.abs(det) / fro2


def _chart_eigenvectors(r, images):
    """Z-eigenvectors of each operator tensor of images from the chart rotated by r, and whether they are certified complete.

    A ternary cubic with finitely many eigenpoints has 7 in P^2, counted
    with multiplicity over C (Cartwright & Sturmfels, LAA 2013).  When
    the chart yields 7 distinct roots with nonsingular Jacobians and
    every real one converges on the sphere, the real ones are all the
    Z-eigenvectors.  The operators share one _chart_roots call and one
    _converge call; one whose S0 is singular finds no roots.  Returns
    one (distinct converged moments, complete, its chart roots' y, z and
    size) per operator, in order.
    """
    try:
        y, z, step, conditioning = _chart_roots(np.einsum("ai,bj,ck,nijk->nabc", r, r, r, images))
    except np.linalg.LinAlgError:  # solve one at a time to find the singular S0
        return [([], False, np.empty((3, 0)))] if len(images) == 1 else [_chart_eigenvectors(r, t[None])[0] for t in images]
    size = 1.0 + np.abs(y) + np.abs(z)
    good = np.isfinite(size) & (step <= _STEP_RTOL * size) & (conditioning > _ROOT_RTOL)
    counts, starts, owner = [], [], []
    for i, keep in enumerate(good):
        roots: list[tuple[complex, complex, float]] = []
        for yi, zi, si in zip(y[i, keep], z[i, keep], size[i, keep]):
            if all(abs(yi - yj) + abs(zi - zj) > _ROOT_RTOL * si for yj, zj, _ in roots):
                roots.append((yi, zi, si))
        real = [(1.0, yi.real, zi.real) for yi, zi, si in roots if abs(yi.imag) + abs(zi.imag) <= _ROOT_RTOL * si]
        counts.append((len(roots), len(real)))
        starts += real
        owner += [i] * len(real)
    x = np.array(starts).reshape(-1, 3) @ r
    owner = np.array(owner, dtype=int)
    x, converged = _converge(images[owner], x / np.linalg.norm(x, axis=1, keepdims=True))
    out = []
    for i, (n_roots, n_real) in enumerate(counts):
        found = _distinct(x[converged & (owner == i)])
        out.append((found, n_roots == _EIGENPOINTS and len(found) == n_real, (y[i], z[i], size[i])))
    return out


def _algebraic_eigenvectors(unit_algs):
    """(moments, complete) of each operator from _chart_eigenvectors in each rotation in turn, till one certifies it.

    Each rotation solves the operators still uncertified as one stack.
    Those none certifies take one _converge call from the real part of
    every finite chart root of every rotation, and complete false: 3 of
    2700 random configs and 3 in verify --trials 400 --seed 123, all
    nearly zonal (Gram eigenvalues in the ratios (1, 1, 3) to 2e-6).
    """
    images = np.array([u.basis_images for u in unit_algs])
    out, todo, tried = [None] * len(images), list(range(len(images))), [[] for _ in images]
    for r in _CHART_ROTATIONS:
        for i, (found, complete, roots) in zip(todo, _chart_eigenvectors(r, images[todo])):
            out[i] = found, complete
            tried[i].append((r, *roots))
        if not (todo := [i for i in todo if not out[i][1]]):
            return out
    starts, owner = [], []
    for i in todo:
        for r, y, z, size in tried[i]:
            f = np.isfinite(size)  # over its size, a root far out gives its direction without overflow
            starts.append(np.stack([np.ones(f.sum()), y[f].real, z[f].real], axis=1) / size[f, None] @ r)
            owner += [i] * len(starts[-1])
    x, owner = np.concatenate(starts), np.array(owner, dtype=int)
    x, converged = _converge(images[owner], x / np.linalg.norm(x, axis=1, keepdims=True))
    for i in todo:
        out[i] = _distinct(x[converged & (owner == i)]), False
    return out


def _axis_form(t):
    """(moments, complete) of a unit-scale operator tensor t that is one harmonic about a Gram axis a, or None.

    Accepted only when the Gram eigenvalues group as [2, 1] or [1, 2] and
    ||t - form||_F <= _EIGEN_TOL; a Gram split alone makes neither form
    (a trigonal cubic can have it).  [2, 1]: form = t(a,a,a) Z_a about the
    top eigenvector, Z_a = (5 a⊗a⊗a - sym(a⊗I)) / 2 the zonal cubic, sym
    summing a⊗I over its 3 index placements.  The moments are a and 2
    _FAMILY_SIZE points of the cone at cosine 1/sqrt(5) about a, a
    continuum, so complete is false.  [1, 2]: form = Re(c e⊗e⊗e) about the
    null eigenvector, e = u + i v, with c = A - iB from t(x,x,x) = A cos 3p
    + B sin 3p on the circle orthogonal to a.  At x = a cos s + x' sin s,
    F_x x = sin^2 s t(x',x',.) is parallel to x only at s = 0 or pi/2, as a
    nonzero harmonic binary cubic has no double root.  So the moments, a
    and the 3 lines at 3p = atan2(B, A) + k pi, are all of them: complete
    is true.  At the acceptance tolerance the pair of eigenpoints that
    splits off a lies within _distinct's 1e-8 merge cosine, with |tau| ~ 0.
    """
    w, axes = np.linalg.eigh(np.einsum("iab,jab->ij", t, t))
    shape = [len(g) for g in _group_eigenvalues(w, 1e-7)]
    if shape == [2, 1]:
        a = axes[:, 2]
        a_eye = np.einsum("i,jk->ijk", a, np.eye(3))
        zonal = 0.5 * (5.0 * np.einsum("i,j,k->ijk", a, a, a)
                       - a_eye - a_eye.transpose(1, 0, 2) - a_eye.transpose(1, 2, 0))
        form = float(np.einsum("ijk,i,j,k->", t, a, a, a)) * zonal
        # a x n_j = n_(j+4) up to sign, so the pair (a +- 2 n_j) / sqrt(5) lies in a family plane
        u = (2.0 / np.sqrt(5.0)) * _great_circles(a[None])(_FAMILY_ANGLES, 0)
        moments, complete = np.vstack([a, a / np.sqrt(5.0) + np.concatenate([u, -u])]), False
    elif shape == [1, 2]:
        a = axes[:, 0]
        u, v = tangent_basis(a)
        circle = lambda p: np.cos(p)[:, None] * u + np.sin(p)[:, None] * v
        x = circle(np.arange(12) * (np.pi / 6))
        c = np.fft.rfft(np.einsum("ijk,ni,nj,nk->n", t, x, x, x))[3] / 6.0  # A - iB
        e = u + 1j * v
        form = (c * np.einsum("i,j,k->ijk", e, e, e)).real
        moments, complete = np.vstack([a, circle((np.arange(3) * np.pi - np.angle(c)) / 3.0)]), True
    else:
        return None
    return (moments, complete) if np.linalg.norm(t - form) <= _EIGEN_TOL else None


class ZEigenvectors(NamedTuple):
    """The Z-eigenvectors found, and whether the 7-root certificate holds."""

    moments: tuple  # read-only unit moments, sign-canonical
    complete: bool


def self_eigenvectors(alg: MagneticAlgebra) -> ZEigenvectors:
    """Distinct unit moments x with F_x x parallel to x, and whether they are all of them.

    These are the Z-eigenvectors of the operator tensor, sign-canonical
    and read-only.  _axis_form gives two classes in closed form.  An
    axisymmetric operator (a single dipole, a field point on a magnet
    axis or on a 4-fold axis) is zonal: its axis and a cone, with one
    pair of cone points in each meridian plane that find_invariant_planes
    reports for the family, and complete false.  A Gram-null one (a
    singular eigenpoint, such as the in-plane centre of an equilateral
    triangle of magnets) is sectoral: its null axis and 3 lines, complete.
    Any other operator is solved by _algebraic_eigenvectors, whose 7-root
    certificate decides complete; only nearly zonal or nearly Gram-null
    ones reach its last resort.  A moment is accepted once its residual
    is at most _EIGEN_TOL times the operator scale; two whose cosine is
    within 1e-8 of +-1 count once.  The solve runs on the operator over
    its scale, where squared residuals cannot underflow.  Memoized on
    alg: this is self_eigenvectors_batch of [alg], so it reads what a
    batch call already solved.
    """
    key = ("self_eigenvectors",)
    return alg.memo[key] if key in alg.memo else self_eigenvectors_batch([alg])[0]


def self_eigenvectors_batch(algs) -> list[ZEigenvectors]:
    """self_eigenvectors of each algebra of algs, with one stacked resultant solve for all of them.

    Each result is memoized on its algebra under the key self_eigenvectors
    reads, and is bitwise the one a solve of that algebra alone gives, in
    any order of algs.  Algebras already solved are not solved again;
    closed forms run one at a time, complete only if all their moments
    converge.  Raises TrivialAlgebraError on a zero operator.
    """
    key = ("self_eigenvectors",)
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))  # each object once
    if any(a.is_trivial() for a in todo):
        raise TrivialAlgebraError("trivial algebra")
    units = [a * (1.0 / a.scale) for a in todo]
    forms = [_axis_form(u.basis_images) for u in units]
    generic = [u for u, f in zip(units, forms) if f is None]
    solved = iter(_algebraic_eigenvectors(generic) if generic else [])
    for alg, unit_alg, form in zip(todo, units, forms):
        if form is not None:
            x, converged = _converge(unit_alg, form[0])
            found, complete = _distinct(x[converged]), form[1] and bool(converged.all())
        else:
            found, complete = next(solved)
        alg.memo[key] = ZEigenvectors(tuple(found), complete)
    return [a.memo[key] for a in algs]


def _great_circles(axes):
    """The map (t, i) -> unit vectors at angles t on the great circles orthogonal to rows i of (m, 3) axes."""
    u, v = tangent_basis(axes)
    return lambda t, i: np.cos(t)[..., None] * u[i] + np.sin(t)[..., None] * v[i]


def _circle_normals(alg: MagneticAlgebra, axes, threshold):
    """Plane normals on the great circles orthogonal to the rows of axes, and representatives of families.

    Along a circle, ||[n] F_n [n]||^2 is a trigonometric polynomial of
    degree 3 in 2t: twelve samples give it exactly, and its stationary
    points are the roots of a degree-6 polynomial in z = exp(2it).  The
    circles share one residual batch of samples, one rfft, one batch of
    companion eigenproblems built as np.roots builds them (a row whose
    leading coefficient is exactly 0 has lower degree and takes np.roots)
    and one residual batch at the stationary points.  A circle with no
    point above threshold is a family, given by _FAMILY_SIZE normals; on
    any other, each arc between points above threshold gives its lowest.
    """
    on_circle, m = _great_circles(axes), len(axes)
    t = np.arange(12) * (np.pi / 12)
    res = plane_residual_batch(alg, on_circle(t, np.arange(m)[:, None]).reshape(-1, 3)).reshape(m, 12)
    # coefficient of z^k, k = 0..3, of the squared residual over the scale (unscaled,
    # it underflows in the far field); that of z^-k is its conjugate
    c = np.fft.rfft((res / alg.scale) ** 2)[:, :4] / 12
    # z^3 f'(t) / 2i = sum_k k c_k z^(k+3), highest power first
    poly = (np.arange(-3, 4) * np.concatenate([np.conj(c[:, :0:-1]), c], axis=1))[:, ::-1]
    full = poly[:, 0] != 0
    companion = np.zeros((np.count_nonzero(full), 6, 6), complex)
    companion[:, 1:, :-1] = np.eye(5)
    companion[:, 0] = -poly[full, 1:] / poly[full, :1]
    roots = iter(np.linalg.eigvals(companion))
    t_stat = [np.angle(next(roots) if f else np.roots(p)) / 2 for f, p in zip(full, poly)]
    counts = [len(ts) for ts in t_stat]
    res_stat = plane_residual_batch(alg, on_circle(np.concatenate([[], *t_stat]), np.repeat(np.arange(m), counts)))
    best, rows, family = [], [], []
    for i, (ts, end) in enumerate(zip(t_stat, np.cumsum(counts).tolist())):
        ti = np.concatenate([t, ts]) % np.pi
        ri = np.concatenate([res[i], res_stat[end - len(ts):end]]).tolist()
        low = [r <= threshold for r in ri]
        if all(low):
            family.extend(on_circle(_FAMILY_ANGLES, i))
            continue
        order = np.argsort(ti).tolist()
        first = next(j for j, k in enumerate(order) if not low[k])
        lowest = None  # the lowest point so far of the arc being swept
        # sweep from a point above threshold round to it again; each such point closes an arc
        for k in order[first:] + order[:first + 1]:
            if low[k] and (lowest is None or ri[k] < ri[lowest]):
                lowest = k
            elif not low[k] and lowest is not None:
                best.append(ti[lowest])
                rows.append(i)
                lowest = None
    return on_circle(np.array(best), np.array(rows, dtype=int)), family


def find_invariant_planes(alg: MagneticAlgebra, tol=PLANARITY_TOL) -> list[PlanarStructure]:
    """All invariant-plane normals of the algebra, by Gram eigenvalue, largest first.

    Candidates are restricted to eigenvectors of the Gram matrix, which
    is exhaustive for exact planes.  A 2-fold eigenspace is the great
    circle orthogonal to the third eigenvector; in a 3-fold one every
    normal lies on the circle orthogonal to a self-eigenvector (the
    maximizer of x^T F_x x on the plane).  The circles of a group are
    searched in one batch; their normals and the simple eigenvectors are
    scored in one residual batch.  Families come back as representatives
    flagged degenerate.  Gram eigenvalues that group at GRAM_DEGENERACY_RTOL
    tie, and the normal up to sign orders a tie, so the order (and
    plane_used in an analyze record) does not follow rounding.
    """
    if alg.is_trivial():
        raise TrivialAlgebraError("trivial algebra")
    threshold = tol * alg.scale
    gs = gram_spectrum(alg)
    v, groups = gs.eigenvectors, _group_eigenvalues(gs.eigenvalues, 1e-7)
    found, family = [v[:, [g[0] for g in groups if len(g) == 1]].T], []
    for group in [g for g in groups if len(g) > 1]:
        if len(group) == 3:
            # one more Newton step takes each axis from the 1e-11 acceptance to full precision
            x = np.reshape(self_eigenvectors(alg).moments, (-1, 3))
            normals, reps = _circle_normals(alg, _newton_step(x, *_self_eigen_system(alg, x)), threshold)
        else:
            normals, reps = _circle_normals(alg, v[:, [3 - sum(group)]].T, threshold)  # about the third eigenvector
        found.append(normals)
        family.extend(reps)
    # several circles can pass through one normal and locate it with
    # different accuracy: the most accurate comes first, so dedupe keeps it
    found = np.concatenate(found)
    res = plane_residual_batch(alg, found)
    out = [planar_structure(alg, n, tol=tol)
           for n in _distinct([unit(found[i]) for i in np.argsort(res, kind="stable") if res[i] <= threshold], 1e-9)]
    # the isolated normals lead and are all kept, so the family normals follow them
    normals = _distinct([*(p.n_hat for p in out), *(unit(n) for n in family)], 1e-9)[len(out):] if family else []
    out = sorted(out + [planar_structure(alg, n, tol=tol, degenerate=True) for n in normals],
                 key=lambda p: p.gram_eigenvalue)
    ties = _group_eigenvalues([p.gram_eigenvalue for p in out], GRAM_DEGENERACY_RTOL) if out else []
    return [out[i] for tie in ties[::-1] for i in sorted(tie, key=lambda i: _sign_free_key(out[i].n_hat))]


def _sign_free_key(n) -> tuple:
    """n rounded to 9 decimals, signed so its first nonzero component is positive; the same for -n."""
    r = np.round(n, 9)
    nonzero = np.flatnonzero(r)
    return tuple(-r if nonzero.size and r[nonzero[0]] < 0.0 else r)


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
        """E(M) for one moment, or for each row of an (n, 3) array."""
        M = np.asarray(M, dtype=float)
        P = self.plane.P
        return (
            P[:, None] * M[..., None, :]
            + M[..., :, None] * P
            + (M @ P)[..., None, None] * np.eye(3)
            - self.gamma * np.outer(P, P)
        )

    def plane_part(self, M) -> np.ndarray:
        """Pi(M) = E(M) - F_M, shaped as equivariant_part."""
        M = np.asarray(M, dtype=float)
        return self.equivariant_part(M) - np.einsum("...k,kab->...ab", M, self.algebra.basis_images)


def decompose(alg: MagneticAlgebra, plane: PlanarStructure, gamma=0.0) -> Decomposition:
    return Decomposition(algebra=alg, plane=plane, gamma=float(gamma))
