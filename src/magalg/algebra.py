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

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, cross, cross_matrices, unit
# sphere_descent stays bound here for tracing; nothing in this module calls it
from .sphere import sphere_descent, tangent_basis

PLANARITY_TOL = 1e-8  # relative to the largest basis-image Frobenius norm
_FRAME_TOL = 1e-12  # below this (relative), the coupling vector is treated as zero
GRAM_DEGENERACY_RTOL = 1e-9  # Gram eigenvalues this close (relative to the top one) count as equal
# Gram eigenvalues this close (relative to the top one) share one great circle of candidate plane
# normals in find_invariant_planes.  Kept apart from GRAM_DEGENERACY_RTOL: grouping at 1e-9 changes
# the planes a report lists (a split of 2.3e-8 gives 2 isolated planes in place of a family of 8)
_PLANE_GROUP_RTOL = 1e-7
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
    """Full eigendecomposition of the Gram matrix of the basis images (alg.gram).

    lambda_F is the largest eigenvalue (max of tr F_M^2 over unit M) and
    M_F an associated unit eigenvector.  When the top eigenvalue is
    degenerate the whole eigenbasis is available and multiplicity > 1
    flags that M_F is only one representative of an eigenspace.
    """

    lambda_F: float
    M_F: np.ndarray
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, matching eigenvalues
    multiplicity: int


def gram_spectrum(alg: MagneticAlgebra) -> GramSpectrum:
    """The eigh of the Gram matrix, memoized on alg: callers share it and must not modify it."""
    key = ("gram_spectrum",)
    if key not in alg.memo:
        w, v = np.linalg.eigh(alg.gram)
        lam = float(max(w[-1], 0.0))
        mult = int(np.sum(w >= lam - GRAM_DEGENERACY_RTOL * max(lam, 1e-300)))
        alg.memo[key] = GramSpectrum(lam, canonical_sign(v[:, -1]), w, v, mult)
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


def planar_structure(alg: MagneticAlgebra, n_hat, degenerate=False) -> PlanarStructure:
    """Validate a normal candidate and build the attached frame.

    Raises NotInvariantPlaneError (carrying the residual) if [n] F_n [n]
    exceeds PLANARITY_TOL times the scale; by reciprocity, 1 + sqrt 2 times
    it bounds how far an in-plane unit e sends n from (e . P) n.
    """
    scale = alg.scale
    if scale == 0.0:
        raise TrivialAlgebraError("trivial algebra")
    n = unit(n_hat)
    res = float(plane_residual_batch(alg, n[None])[0])  # the value find_invariant_planes accepted n by
    threshold = PLANARITY_TOL * scale
    if res > threshold:
        raise NotInvariantPlaneError(res, threshold)
    P = alg.matrix(n) @ n
    norm_p = float(np.linalg.norm(P))
    if norm_p > _FRAME_TOL * scale:
        p_hat = P / norm_p
        q_hat = cross(n, p_hat)
    else:
        p_hat = q_hat = None
    return PlanarStructure(
        n_hat=canonical_sign(n),
        P=P,
        norm_P=norm_p,
        P_hat=p_hat,
        Q_hat=q_hat,
        residual=res,
        gram_eigenvalue=float(n @ alg.gram @ n),
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


def _converge(images, m):
    """Projected Newton on each row m[i] of m, of basis images images[i], until its residual is at most _EIGEN_TOL.

    Returns the rows after Newton and a mask of those that converged: a
    row still above _EIGEN_TOL after 60 residual checks has not.
    """
    m = np.array(m, dtype=float).reshape(-1, 3)
    converged = np.zeros(len(m), dtype=bool)
    active = np.arange(len(m))
    for _ in range(60):
        x = m[active]
        r, jac = _self_eigen_system(images[active], x)
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


_EIGENPOINTS = 7  # Z-eigenvectors in P^2 of a ternary cubic with finitely many, counted over C
_RANK_GAP = 1e-9  # s[7] / s[0] of the Macaulay matrix below this: its null space may not be 7-dimensional
_PAIRS = ((0, 1), (0, 2), (1, 2))
# g and h of the eigenvalues h / g, fixed.  At the axes and face and body diagonals, where symmetric
# operators put eigenpoints, g and h are at least 0.1 from 0 (as cosines), and g x h is as far from
# every plane two of them span, so no two of those eigenpoints share one h / g
_FORMS = ((0.34, -0.84, -0.2), (-0.94, -0.46, 0.24))


def _tables():
    """The Macaulay gather table, the quartic x_k times each cubic monomial, and the cubic x_a^2 x_k."""
    quartics = {m: i for i, m in enumerate(itertools.combinations_with_replacement(range(3), 4))}
    cubics = list(itertools.combinations_with_replacement(range(3), 3))
    terms = [[[] for _ in quartics] for _ in range(9)]
    for row, (k, (a, b)) in enumerate(itertools.product(range(3), _PAIRS)):
        for offset, u, v in ((0, a, b), (27, b, a)):  # x_k x_a q_b, then minus x_k x_b q_a
            for c, d in itertools.product(range(3), repeat=2):
                terms[row][quartics[tuple(sorted((k, u, c, d)))]].append(offset + 9 * v + 3 * c + d)
    gather = np.array([[entry + [54] * (4 - len(entry)) for entry in row] for row in terms])  # 54: the -0.0 pad
    times = np.array([[quartics[tuple(sorted(m + (k,)))] for m in cubics] for k in range(3)])
    return gather, times, np.array([[cubics.index(tuple(sorted((a, a, k)))) for k in range(3)] for a in range(3)])


_GATHER, _TIMES, _READ = _tables()


def _macaulay(t):
    """The 9x15 Macaulay matrix of each tensor t[n]: row 3 k + p is x_k (x_a q_b - x_b q_a) over the quartic monomials.

    (a, b) = _PAIRS[p] and q_b = T(b, x, x).  Each entry sums at most 4
    entries of [t.ravel(), -t.ravel()]; -0.0, the additive identity, pads it.
    """
    flat = t.reshape(-1, 27)
    g = np.concatenate([flat, -flat, np.full((len(t), 1), -0.0)], axis=1)[:, _GATHER]
    return g[..., 0] + g[..., 1] + g[..., 2] + g[..., 3]


def _eigenpoints(t):
    """Unit real parts (n, 7, 3) of the 7 eigenpoints of each tensor t[n], real masks (n, 7) and rank gaps s[7] / s[0].

    The eigenpoints are the zeros of the 2x2 minors of [x | T(., x, x)]
    (Abo, Seigal & Sturmfels, 2017).  The Macaulay matrix has rank 8, and
    its null space N holds the quartic monomials at the 7 points.  g N and
    h N, the cubic monomials times g and h there, reduce by the QR of g N
    to one 7x7 eigenproblem with eigenvalues h / g at the points (Telen,
    Mourrain & Van Barel, SIAM J. Matrix Anal. Appl. 39(3), 2018).  A
    point is real when its eigenvalue is, to the bit, and is read off g N
    times its eigenvector as x_a^2 x_k over x_a^3, at the largest |x_a^3|.
    """
    _, s, vh = np.linalg.svd(_macaulay(t))
    shifted = vh[:, 15 - _EIGENPOINTS:, _TIMES].transpose(2, 0, 3, 1)  # x_k times the cubic monomials, (3, n, 10, 7)
    gn, hn = (c[0] * shifted[0] + c[1] * shifted[1] + c[2] * shifted[2] for c in _FORMS)
    q, r = np.linalg.qr(gn)
    w, v = np.linalg.eig(np.linalg.solve(r, q.transpose(0, 2, 1) @ hn))
    p = gn @ v.astype(complex)  # complex always, so one operator's arithmetic does not follow its stack's
    pivot = np.abs(p[:, _READ.diagonal()]).argmax(axis=1)
    x = np.take_along_axis(p, _READ[pivot].transpose(0, 2, 1), axis=1)
    x = (x / np.take_along_axis(x, pivot[:, None], axis=1)).real.transpose(0, 2, 1)
    return x / np.linalg.norm(x, axis=2, keepdims=True), w.imag == 0.0, s[:, 7] / s[:, 0]


def _axis_form(t, w, axes):
    """(moments, complete) of a unit-scale operator tensor t, with Gram eigh (w, axes), if one harmonic about a Gram axis a; or None.

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
    The null-space solve cannot certify either form; one near a form but
    beyond _EIGEN_TOL falls back to Newton from the Gram axes there.
    """
    shape = [len(g) for g in _group_eigenvalues(w, GRAM_DEGENERACY_RTOL)]
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
        circle = _great_circles(a[None])
        x = circle(np.arange(12) * (np.pi / 6), 0)
        c = np.fft.rfft(np.einsum("ijk,ni,nj,nk->n", t, x, x, x))[3] / 6.0  # A - iB
        e = x[0] + 1j * cross(a, x[0])  # u + i v: x[0] is u, and tangent_basis makes v as a x u
        form = (c * np.einsum("i,j,k->ijk", e, e, e)).real
        moments, complete = np.vstack([a, circle((np.arange(3) * np.pi - np.angle(c)) / 3.0, 0)]), True
    else:
        return None
    return (moments, complete) if np.linalg.norm(t - form) <= _EIGEN_TOL else None


class ZEigenvectors(NamedTuple):
    """The Z-eigenvectors found, and whether they are certified to be all of them."""

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
    Any other operator is solved from its eigenpoints: complete certifies
    a 7-dimensional Macaulay null space whose real points converge to
    distinct moments; a nearly zonal or nearly Gram-null one that fails
    it also starts Newton from its Gram axes.  A moment is accepted once
    its residual is at most _EIGEN_TOL times the operator scale; two
    whose cosine is within 1e-8 of +-1 count once.  The solve runs on the
    operator over its scale, where squared residuals cannot underflow.
    This is self_eigenvectors_batch of [alg], so it reads what a batch
    call already solved.
    """
    return self_eigenvectors_batch([alg])[0]


def self_eigenvectors_batch(algs) -> list[ZEigenvectors]:
    """self_eigenvectors of each algebra of algs, in one pass over all of them.

    Each result is memoized on its algebra, and is bitwise the one a
    solve of that algebra alone gives, in any order of algs.  A call that
    finds every algebra solved reads the memo alone.  The others, over
    their scales, share one Gram eigh, which _axis_form classifies, one
    _eigenpoints call for those without a closed form, and one Newton call
    from every start: a closed form's moments, complete if the form is and
    they all converge; another operator's real eigenpoints, complete if
    its rank gap is at least _RANK_GAP and they converge to as many
    distinct moments (all 7 over C are then accounted for: Cartwright &
    Sturmfels, LAA 2013).  The rest share one more Newton call from their
    7 points and their Gram axes, the axis of a nearly zonal one.  Raises
    TrivialAlgebraError on a zero operator.
    """
    key = ("self_eigenvectors",)
    if all(key in a.memo for a in algs):
        return [a.memo[key] for a in algs]
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))  # each object once
    if any(a.is_trivial() for a in todo):
        raise TrivialAlgebraError("trivial algebra")
    t = np.array([a.basis_images * (1.0 / a.scale) for a in todo])
    w, axes = np.linalg.eigh(np.einsum("niab,njab->nij", t, t))
    forms = [_axis_form(*op) for op in zip(t, w, axes)]
    generic = [i for i, form in enumerate(forms) if form is None]
    x, real, gap = np.zeros((len(t), _EIGENPOINTS, 3)), np.zeros((len(t), _EIGENPOINTS), bool), np.zeros(len(t))
    if generic:
        x[generic], real[generic], gap[generic] = _eigenpoints(t[generic])
    starts = [x[i, real[i]] if form is None else form[0] for i, form in enumerate(forms)]
    counts = [len(s) for s in starts]
    moments, converged = _converge(np.repeat(t, counts, axis=0), np.concatenate(starts))
    fail = []
    for i, (alg, form, n, end) in enumerate(zip(todo, forms, counts, itertools.accumulate(counts))):
        m, c = moments[end - n:end], converged[end - n:end]
        found = _distinct(m[c])
        if form is not None:  # zonal or sectoral
            alg.memo[key] = ZEigenvectors(tuple(found), form[1] and bool(c.all()))
        elif gap[i] >= _RANK_GAP and len(found) == real[i].sum():  # certified
            alg.memo[key] = ZEigenvectors(tuple(found), True)
        else:  # one more Newton call below
            fail.append(i)
    if fail:
        starts = np.concatenate([x[fail], axes[fail].transpose(0, 2, 1)], axis=1)
        moments, converged = _converge(np.repeat(t[fail], starts.shape[1], axis=0), starts)
        for i, m, c in zip(fail, moments.reshape(starts.shape), converged.reshape(starts.shape[:2])):
            todo[i].memo[key] = ZEigenvectors(tuple(_distinct(m[c])), False)
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


def find_invariant_planes(alg: MagneticAlgebra) -> list[PlanarStructure]:
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
    threshold = PLANARITY_TOL * alg.scale
    gs = gram_spectrum(alg)
    v, groups = gs.eigenvectors, _group_eigenvalues(gs.eigenvalues, _PLANE_GROUP_RTOL)
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
    out = [planar_structure(alg, n)
           for n in _distinct([unit(found[i]) for i in np.argsort(res, kind="stable") if res[i] <= threshold], 1e-9)]
    # the isolated normals lead and are all kept, so the family normals follow them
    normals = _distinct([*(p.n_hat for p in out), *(unit(n) for n in family)], 1e-9)[len(out):] if family else []
    out = sorted(out + [planar_structure(alg, n, degenerate=True) for n in normals],
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
