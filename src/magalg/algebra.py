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
from typing import NamedTuple

import numpy as np

from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, cross, cross_matrices, unit
# sphere_descent stays bound here for tracing; nothing in this module calls it
from .sphere import sphere_descent, tangent_basis

PLANARITY_TOL = 1e-8  # relative to the largest basis-image Frobenius norm
_FRAME_TOL = 1e-12  # below this (relative), the in-plane part of the coupling vector is treated as zero
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


class GramSpectrum(NamedTuple):
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
    return gram_spectra([alg])[0]


def gram_spectra(algs) -> list[GramSpectrum]:
    """gram_spectrum of each algebra of algs, from one batched eigh of the Gram matrices not yet memoized."""
    key = ("gram_spectrum",)
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))
    if todo:
        w, v = np.linalg.eigh(np.array([a.gram for a in todo]))
        lam = np.maximum(w[:, -1], 0.0)
        mult = (w >= (lam - GRAM_DEGENERACY_RTOL * np.maximum(lam, 1e-300))[:, None]).sum(axis=1)
        for a, *spectrum in zip(todo, lam.tolist(), canonical_sign(v[:, :, -1]), w, v, mult.tolist()):
            a.memo[key] = GramSpectrum(*spectrum)
    return [a.memo[key] for a in algs]


def plane_residual_batch(alg, ns) -> np.ndarray:
    """Frobenius norm of [n] F_n [n] for each row n of ns, normalized first; zero exactly on invariant-plane normals.

    alg is a MagneticAlgebra, or an (n, 3, 3, 3) stack of basis images,
    one per row of ns.
    """
    ns = np.asarray(ns, dtype=float)
    ns = ns / np.sqrt(np.add.reduce(ns * ns, axis=-1, keepdims=True))  # np.linalg.norm's arithmetic
    k = cross_matrices(ns)
    images = getattr(alg, "basis_images", alg)
    f = np.einsum("nk,kab->nab" if images.ndim == 3 else "nk,nkab->nab", ns, images)
    r = np.einsum("nab,nbc,ncd->nad", k, f, k)
    return np.sqrt(np.einsum("nab,nab->n", r, r))


class PlanarStructure(NamedTuple):
    """Frame data of one invariant plane.

    n_hat is the unit normal, P = F_n n the coupling vector (perpendicular
    to n_hat on an exactly invariant plane), and when the in-plane part
    of P is nonzero (P_hat, Q_hat) complete n_hat to a right-handed
    orthonormal frame, P_hat along that part and Q_hat = n_hat x P_hat
    spanning the kernel of F_n.
    degenerate marks members of a continuous family of planes.
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
        """In-plane orthonormal pair, synthesized when the in-plane part of P vanishes."""
        if self.P_hat is not None:
            return self.P_hat, self.Q_hat
        return tangent_basis(self.n_hat)


def planar_structure(alg: MagneticAlgebra, n_hat, degenerate=False) -> PlanarStructure:
    """Validate a normal candidate and build the attached frame.

    Raises NotInvariantPlaneError (carrying the residual) if [n] F_n [n]
    exceeds PLANARITY_TOL times the scale; by reciprocity, 1 + sqrt 2 times
    it bounds how far an in-plane unit e sends n from (e . P) n.
    """
    if alg.is_trivial():
        raise TrivialAlgebraError("trivial algebra")
    n = np.asarray(n_hat, dtype=float)[None]
    res = plane_residual_batch(alg, n)  # from n_hat as given, as find_invariant_planes scores it
    threshold = PLANARITY_TOL * alg.scale
    if res[0] > threshold:
        raise NotInvariantPlaneError(res[0], threshold)
    return _planar_structures([alg], n, res, [degenerate])[0]


def _planar_structures(algs, ns, res, degenerate) -> list[PlanarStructure]:
    """planar_structure of each row of ns, a normal of algs[j] with residual res[j], as one pass over arrays.

    Each product of vectors is a stacked matmul, which rounds as the
    product of one plane's vectors does.  P_hat is the direction of the
    in-plane part of P: on a nearly invariant plane the normal part n . P
    is up to sqrt2 times its residual, and with ||P|| about as small it
    would tilt the frame out of the plane.
    """
    if not len(algs):
        return []
    n = canonical_sign(unit(ns))
    f = np.einsum("nk,nkab->nab", n, np.array([a.basis_images for a in algs]))
    p = (f @ n[:, :, None])[:, :, 0]
    norm_p = np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0, 0]
    gram_eigenvalue = (n[:, None, :] @ np.array([a.gram for a in algs]) @ n[:, :, None])[:, 0, 0]
    in_plane = p - (n[:, None, :] @ p[:, :, None])[:, 0] * n
    norm_in = np.sqrt(in_plane[:, None, :] @ in_plane[:, :, None])[:, 0, 0]
    framed = (norm_in > _FRAME_TOL * np.array([a.scale for a in algs])).tolist()
    p_hat = in_plane / np.where(framed, norm_in, 1.0)[:, None]
    q_hat = cross(n, p_hat)
    return [PlanarStructure(*row, ph if fr else None, qh if fr else None, float(r), g, bool(d))
            for *row, ph, qh, fr, r, g, d in zip(n, p, norm_p.tolist(), p_hat, q_hat, framed,
                                                 res, gram_eigenvalue.tolist(), degenerate)]


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


def _distinct_rows(x, cos_tol=1e-8) -> list[int]:
    """Indices of the rows of (m, 3) x, in order, that _distinct keeps."""
    if len(x) < 2:
        return list(range(len(x)))
    keep: list[int] = []
    for i, near in enumerate((np.abs(x @ x.T) >= 1.0 - cos_tol).tolist()):
        if not any(near[j] for j in keep):
            keep.append(i)
    return keep


def _distinct(m, cos_tol=1e-8) -> list[np.ndarray]:
    """Sign-canonical, read-only copies of the rows of m, in order, dropping each whose cosine with a kept one is within cos_tol of +-1."""
    x = np.array(m, dtype=float).reshape(-1, 3)
    x = canonical_sign(x[_distinct_rows(x, cos_tol)])
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


_ANGLES = np.arange(12) * (np.pi / 6)  # a circle's samples: they give a trigonometric polynomial of degree 5 or less
# The rounding bound of Q, over ||T||_F^2 at unit scale.  A contraction T(x, y, z) with unit vectors is three
# rounded sums of rounded products, within 9 eps of the sum of its absolute terms (at most ||T||_F by
# Cauchy-Schwarz), and each rounded vector adds 4 eps ||T||_F: within 32 eps ||T||_F.  L, L', C are such and
# C' three, with |L|, |L'|, |C| <= ||T||_F, |C'| <= 3 ||T||_F: the computed Q = L C' + 6 L L' - 3 C L' is off
# by at most (32 (3 + 6) + 96 + 6 32 + 3 32 + 3 32 + 3 12) eps = 804 eps ||T||_F^2.
_CURVE_ROUNDING = 1024 * np.finfo(float).eps


def _on_circle(t, n, e1, e2, s):
    """u = cos s e1 + sin s e2, C = T(u, u, u), C' = dC/ds, L = T(n, n, u) and L' at the angles s[j] of each plane j."""
    c, sn = np.cos(s)[..., None], np.sin(s)[..., None]
    u, v = c * e1[:, None] + sn * e2[:, None], c * e2[:, None] - sn * e1[:, None]
    g, p = np.einsum("jkab,jia,jib->jik", t, u, u), np.einsum("jkab,ja,jb->jk", t, n, n)[:, None]
    return u, (u * g).sum(-1), 3.0 * (v * g).sum(-1), (u * p).sum(-1), (v * p).sum(-1)


def _through_planes(t, planes):
    """Candidate Z-eigenvectors of unit-scale tensors t[j] from their invariant planes planes[j].

    With n the normal and x = cos(r) u + sin(r) n, u = cos s e1 + sin s e2,
    an invariant plane has T(n, u, u) = T(n, n, n) = 0, so T(x, x, x) =
    cos^3 r C + 3 cos r sin^2 r L.  Its stationary points are the roots of
    C' in the plane; off it, where cos^2 r = L / (3L - C) = 3L' / (3L' -
    C'), the roots of Q = L C' + 6 L L' - 3 C L', of degree 4; and n when
    P = 0.  The plane is curved when a sample of Q exceeds its rounding
    bound: else Q may vanish, as on a zonal operator's family plane, where
    a cone of Z-eigenvectors is a continuum, and its roots are not sought.
    Each candidate takes one Newton step on the full operator, which
    refines the roots and brings in what the plane's residual leaves out.
    Returns the candidates, the plane of each, whether its residual is
    then at most _EIGEN_TOL, and whether each plane is curved.
    """
    n = np.array([p.n_hat for p in planes])
    e1, e2 = tangent_basis(n)  # any orthonormal pair of the plane serves
    _, c, dc, l, dl = _on_circle(t, n, e1, e2, np.tile(_ANGLES, (len(t), 1)))
    q = l * dc + 6.0 * l * dl - 3.0 * c * dl
    curved = np.abs(q).max(axis=1) > _CURVE_ROUNDING * np.einsum("jkab,jkab->j", t, t)
    roots = _trig_roots(dc, 3) + _trig_roots(q[curved], 4)
    counts = [len(s) for s in roots]
    rows = np.repeat(np.concatenate([np.arange(len(t)), np.flatnonzero(curved)]), counts)
    s = np.concatenate([[], *roots])[:, None]
    u, c, dc, l, dl = (f[:, 0] for f in _on_circle(t[rows], n[rows], e1[rows], e2[rows], s))
    off = np.arange(len(rows)) >= sum(counts[:len(t)])
    # cos^2 r: 1 at a root of C'; at one of Q from the better conditioned form, clipped: a root
    # that gives none gives a point in the plane or the pole, rejected unless it is one
    first = np.abs(3.0 * l - c) >= np.abs(3.0 * dl - dc)
    num, den = np.where(first, l, 3.0 * dl), np.where(first, 3.0 * l - c, 3.0 * dl - dc)
    c2 = np.where(off, np.clip(np.divide(num, den, out=np.ones_like(num), where=den != 0.0), 0.0, 1.0), 1.0)
    h, z = np.sqrt(c2)[:, None] * u, np.sqrt(1.0 - c2)[:, None] * n[rows]
    x = np.concatenate([h + z, h[off] - z[off], n])
    rows = np.concatenate([rows, rows[off], np.arange(len(t))])
    x = _newton_step(x, *_self_eigen_system(t[rows], x))
    accepted = np.linalg.norm(_self_eigen_system(t[rows], x)[0], axis=1) <= _EIGEN_TOL
    return x, rows, accepted, curved


def _planar_solve(algs, t):
    """Per operator of algs (t: their tensors over their scales), None or (ZEigenvectors, final).

    None when its Gram spectrum is 3-fold or it has no invariant plane;
    else it is solved through the planes find_invariant_planes reports and
    the lowest normal of each family circle, in one _through_planes call.
    Zeroing the entries of T that a plane's residual rho measures makes
    the plane exactly invariant and moves T by at most sqrt(5) rho, so a
    plane is exact when sqrt(5) rho is at most _EIGEN_TOL: the two
    operators' Z-eigenvectors agree at the tolerance that defines them.
    The moments of the exact curved plane of least rho are all of them:
    complete.  Else those of the reported planes (a zonal operator's axis
    and a pair of cone points in each family plane) are not, and are final
    only if one of them is exact: the null-space certificate may still
    prove the set of a nearly invariant plane complete.
    """
    searched = [i for i, gs in enumerate(gram_spectra(algs))
                if len(_group_eigenvalues(gs.eigenvalues, _PLANE_GROUP_RTOL)) > 1]  # not 3-fold
    found = find_invariant_planes_batch([algs[i] for i in searched])
    listed = [(i, p, k == 0) for i, ps in zip(searched, found)
              for k, qs in enumerate((ps, algs[i].memo[("family_lowest",)])) for p in qs]
    out = [None] * len(algs)
    if not listed:
        return out
    owner, planes, reported = zip(*listed)
    owner, reported = np.array(owner), np.array(reported)
    rho = np.array([p.residual / algs[i].scale for i, p in zip(owner, planes)])
    exact = np.sqrt(5.0) * rho <= _EIGEN_TOL
    x, rows, accepted, curved = _through_planes(t[owner], planes)
    for i in np.unique(owner).tolist():
        sure = np.flatnonzero((owner == i) & exact & curved)
        take = rows == sure[np.argmin(rho[sure])] if len(sure) else ((owner == i) & reported)[rows]
        moments = _distinct(x[accepted & take])
        final = bool(len(sure)) or bool((exact & reported)[owner == i].any())
        if moments:
            out[i] = ZEigenvectors(tuple(moments), bool(len(sure))), final
    return out


class ZEigenvectors(NamedTuple):
    """The Z-eigenvectors found, and whether they are certified to be all of them."""

    moments: tuple  # read-only unit moments, sign-canonical
    complete: bool


def self_eigenvectors(alg: MagneticAlgebra) -> ZEigenvectors:
    """Distinct unit moments x with F_x x parallel to x, and whether they are all of them.

    These are the Z-eigenvectors of the operator tensor, sign-canonical
    and read-only.  They come from its eigenpoints, complete when a
    7-dimensional Macaulay null space's real points converge to as many
    distinct moments, or through its invariant planes (_planar_solve),
    complete when one is exact and curved: first for a 2-fold Gram
    spectrum (zonal and sectoral operators, those near them), second for
    any other spectrum but a 3-fold one.  A moment is accepted once its
    residual is at most _EIGEN_TOL times the operator scale; two whose
    cosine is within 1e-8 of +-1 count once.  This is
    self_eigenvectors_batch of [alg], so it reads what a batch call
    already solved.
    """
    return self_eigenvectors_batch([alg])[0]


def self_eigenvectors_batch(algs) -> list[ZEigenvectors]:
    """self_eigenvectors of each algebra of algs, in one pass over all of them.

    Each result is memoized on its algebra, and is bitwise the one a
    solve of that algebra alone gives, in any order of algs.  A call that
    finds every algebra solved reads the memo alone.  The others, over
    their scales (where squared residuals cannot underflow), share one
    _planar_solve call for those with a 2-fold Gram spectrum, one
    _eigenpoints call for those it does not settle, and one Newton call
    from their real points: complete if the rank gap is at least
    _RANK_GAP and they converge to as many distinct moments (all 7 over C
    are then accounted for: Cartwright & Sturmfels, LAA 2013).  Those that
    fail share a second _planar_solve call and take their planes'
    moments; without a plane, one more Newton call from their 7 points
    and their Gram axes.  Raises TrivialAlgebraError on a zero operator.
    """
    key = ("self_eigenvectors",)
    if all(key in a.memo for a in algs):
        return [a.memo[key] for a in algs]
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))  # each object once
    if any(a.is_trivial() for a in todo):
        raise TrivialAlgebraError("trivial algebra")
    t = np.array([a.basis_images * (1.0 / a.scale) for a in todo])
    # a 2-fold Gram spectrum marks the zonal and sectoral operators and those near them, which the
    # null-space solve does not certify: they go through their planes first, the others if it fails
    w, axes = np.linalg.eigh(np.einsum("niab,njab->nij", t, t))
    first = [i for i, wi in enumerate(w) if 2 in map(len, _group_eigenvalues(wi, _PLANE_GROUP_RTOL))]
    planar = dict(zip(first, _planar_solve([todo[i] for i in first], t[first])))
    for i, sol in planar.items():
        if sol is not None and sol[1]:
            todo[i].memo[key] = sol[0]
    generic = [i for i, a in enumerate(todo) if key not in a.memo]
    if not generic:
        return [a.memo[key] for a in algs]
    x, real, gap = _eigenpoints(t[generic])
    starts = [xi[ri] for xi, ri in zip(x, real)]
    counts = [len(s) for s in starts]
    moments, converged = _converge(np.repeat(t[generic], counts, axis=0), np.concatenate(starts))
    fail = []
    for j, (i, n, end) in enumerate(zip(generic, counts, itertools.accumulate(counts))):
        found = _distinct(moments[end - n:end][converged[end - n:end]])
        if gap[j] >= _RANK_GAP and len(found) == real[j].sum():  # certified
            todo[i].memo[key] = ZEigenvectors(tuple(found), True)
        else:
            fail.append(j)
    late = [generic[j] for j in fail if generic[j] not in planar]
    planar.update(zip(late, _planar_solve([todo[i] for i in late], t[late])))
    for j in fail:
        if planar[generic[j]] is not None:  # the moments of its planes
            todo[generic[j]].memo[key] = planar[generic[j]][0]
    fail = [j for j in fail if planar[generic[j]] is None]
    if fail:  # one more Newton call, from the points and the Gram axes
        ops = [generic[j] for j in fail]
        starts = np.concatenate([x[fail], axes[ops].transpose(0, 2, 1)], axis=1)
        moments, converged = _converge(np.repeat(t[ops], starts.shape[1], axis=0), starts)
        for i, m, c in zip(ops, moments.reshape(starts.shape), converged.reshape(starts.shape[:2])):
            todo[i].memo[key] = ZEigenvectors(tuple(_distinct(m[c])), False)
    return [a.memo[key] for a in algs]


def _great_circles(axes):
    """The map (t, i) -> unit vectors at angles t on the great circles orthogonal to rows i of (m, 3) axes."""
    u, v = tangent_basis(axes)
    return lambda t, i: np.cos(t)[..., None] * u[i] + np.sin(t)[..., None] * v[i]


def _trig_roots(samples, degree, derivative=False):
    """Angles of the roots of the real trigonometric polynomial each row of samples gives, or of its derivative.

    A row holds the values of one of degree at most degree at more than
    2 degree equispaced angles of a period.  With z = exp(it), z^degree times it is a polynomial whose
    coefficients one rfft gives.  The rows share one batch of companion
    eigenproblems built as np.roots builds them (a row whose leading
    coefficient is exactly 0 takes np.roots).  Complex roots give angles too.
    """
    if not len(samples):
        return []
    c = np.fft.rfft(samples)[:, :degree + 1] / samples.shape[1]
    coeffs = np.concatenate([np.conj(c[:, :0:-1]), c], axis=1)  # of z^-degree .. z^degree
    if derivative:
        coeffs = np.arange(-degree, degree + 1) * coeffs  # f'(t) / i
    poly = coeffs[:, ::-1]  # highest power first
    full = poly[:, 0] != 0
    companion = np.zeros((np.count_nonzero(full), 2 * degree, 2 * degree), complex)
    companion[:, 1:, :-1] = np.eye(2 * degree - 1)
    companion[:, 0] = -poly[full, 1:] / poly[full, :1]
    roots = iter(np.linalg.eigvals(companion))
    return [np.angle(next(roots) if f else np.roots(p)) for f, p in zip(full, poly)]


def _circle_normals(alg: MagneticAlgebra, axes, threshold):
    """Plane normals on the great circles orthogonal to the rows of axes, family representatives, each family's lowest normal.

    Along a circle, ||[n] F_n [n]||^2 is a trigonometric polynomial of
    degree 3 in 2t: twelve samples give it exactly, and _trig_roots finds
    its stationary points.  The circles share one residual batch of
    samples, one _trig_roots call and one residual batch at the stationary
    points.  A circle with no point above threshold is a family, given by
    _FAMILY_SIZE normals; on any other, each arc between points above
    threshold gives its lowest.
    """
    on_circle, m = _great_circles(axes), len(axes)
    t = np.arange(12) * (np.pi / 12)
    res = plane_residual_batch(alg, on_circle(t, np.arange(m)[:, None]).reshape(-1, 3)).reshape(m, 12)
    # the squared residual over the scale: unscaled, it underflows in the far field
    t_stat = [a / 2 for a in _trig_roots((res / alg.scale) ** 2, 3, derivative=True)]
    counts = [len(ts) for ts in t_stat]
    res_stat = plane_residual_batch(alg, on_circle(np.concatenate([[], *t_stat]), np.repeat(np.arange(m), counts)))
    best, rows, family, lowest_of_family = [], [], [], []
    for i, (ts, end) in enumerate(zip(t_stat, np.cumsum(counts).tolist())):
        ti = np.concatenate([t, ts]) % np.pi
        ri = np.concatenate([res[i], res_stat[end - len(ts):end]]).tolist()
        low = [r <= threshold for r in ri]
        if all(low):
            family.extend(on_circle(_FAMILY_ANGLES, i))
            lowest_of_family.append(on_circle(ti[int(np.argmin(ri))], i))
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
    return on_circle(np.array(best), np.array(rows, dtype=int)), family, lowest_of_family


def find_invariant_planes(alg: MagneticAlgebra) -> list[PlanarStructure]:
    """All invariant-plane normals of the algebra, by Gram eigenvalue, largest first.

    Candidates are restricted to eigenvectors of the Gram matrix, which
    is exhaustive for exact planes.  A 2-fold eigenspace is the great
    circle orthogonal to the third eigenvector; in a 3-fold one every
    normal lies on the circle orthogonal to a self-eigenvector (the
    maximizer of x^T F_x x on the plane).  The circles of a group are
    searched in one batch.  Families come back as representatives
    flagged degenerate.  Gram eigenvalues that group at GRAM_DEGENERACY_RTOL
    tie, and the normal up to sign orders a tie, so the order (and
    plane_used in an analyze record) does not follow rounding.  Memoized
    on alg, as gram_spectrum: callers share the list and must not modify
    it.  A family's representatives sit at fixed angles on its circle; the
    plane at its lowest normal, invariant if any of them is, is memoized
    too, for self_eigenvectors_batch to solve through.  This is
    find_invariant_planes_batch of [alg].
    """
    return find_invariant_planes_batch([alg])[0]


def find_invariant_planes_batch(algs) -> list[list[PlanarStructure]]:
    """find_invariant_planes of each algebra of algs, in one pass over those not yet searched.

    Their Gram spectra come from one batched eigh (gram_spectra).  The
    candidates of all of them, every simple Gram eigenvector and each
    circle's normals, family representatives and lowest normal, are
    scored in one plane_residual_batch call, whose values the planes
    keep, and the planes are built by one _planar_structures call.  Each
    result is bitwise the one a search of its algebra alone gives.
    """
    key = ("find_invariant_planes",)
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))
    if not todo:
        return [a.memo[key] for a in algs]
    if any(a.is_trivial() for a in todo):
        raise TrivialAlgebraError("trivial algebra")
    threshold = [PLANARITY_TOL * a.scale for a in todo]
    # the rows of each algebra: its simple Gram eigenvectors and circle normals, then the family
    # representatives of its circles, then each family's lowest normal
    candidates, counts, owner, circled = [], [], [], []
    for i, (alg, gs, limit) in enumerate(zip(todo, gram_spectra(todo), threshold)):
        v, groups = gs.eigenvectors, _group_eigenvalues(gs.eigenvalues.tolist(), _PLANE_GROUP_RTOL)
        found, family, lowest = [v[:, [g[0] for g in groups if len(g) == 1]].T], [], []
        for group in [g for g in groups if len(g) > 1]:
            if len(group) == 3:
                # one more Newton step takes each axis from the 1e-11 acceptance to full precision
                x = np.reshape(self_eigenvectors(alg).moments, (-1, 3))
                normals, reps, lows = _circle_normals(alg, _newton_step(x, *_self_eigen_system(alg, x)), limit)
            else:
                normals, reps, lows = _circle_normals(alg, v[:, [3 - sum(group)]].T, limit)  # about the third eigenvector
            found.append(normals)
            family.extend(reps)
            lowest.extend(lows)
        candidates += [*found, *(np.reshape(c, (-1, 3)) for c in (family, lowest) if c)]
        counts.append((sum(map(len, found)), len(family), len(lowest)))
        owner += [i] * sum(counts[-1])
        circled.append(len(found) > 1)
    # several circles can pass through one normal and locate it with different accuracy: the most accurate
    # comes first, so dedupe keeps it; each is scored as the unit normal its plane is built from, but a
    # family's lowest normal as found
    raw = np.concatenate(candidates)
    ends = list(itertools.accumulate(map(sum, counts)))
    lowest = [i for (*_, n_lowest), end in zip(counts, ends) for i in range(end - n_lowest, end)]
    candidates = unit(raw)
    if lowest:
        candidates[lowest] = raw[lowest]
    res = plane_residual_batch(np.array([a.basis_images for a in todo])[owner], candidates)
    values, rows, degenerate, sizes = res.tolist(), [], [], []
    for limit, (n_found, n_family, n_lowest), end, circles in zip(threshold, counts, ends, circled):
        start, family = end - n_found - n_family - n_lowest, end - n_family - n_lowest
        kept = sorted((i for i in range(start, family) if values[i] <= limit), key=values.__getitem__)
        if circles:  # the simple Gram eigenvectors alone are orthonormal
            kept = [kept[i] for i in _distinct_rows(candidates[kept], 1e-9)]
        if n_family:  # the isolated normals lead and are all kept, so the family normals follow them
            isolated = len(kept)
            normals = np.concatenate([canonical_sign(unit(candidates[kept])), candidates[family:family + n_family]])
            kept += [family + i - isolated for i in _distinct_rows(normals, 1e-9)[isolated:]]
        rows += kept + list(range(end - n_lowest, end))
        degenerate += [i >= family for i in kept] + [False] * n_lowest
        sizes.append((len(kept), n_lowest))
    bad = [i for i in rows if values[i] > threshold[owner[i]]]
    if bad:
        raise NotInvariantPlaneError(values[bad[0]], threshold[owner[bad[0]]])
    planes = iter(_planar_structures([todo[owner[i]] for i in rows], candidates[rows], res[rows], degenerate))
    for alg, (n_planes, n_lowest) in zip(todo, sizes):
        out = sorted(itertools.islice(planes, n_planes), key=lambda p: p.gram_eigenvalue)
        alg.memo[("family_lowest",)] = list(itertools.islice(planes, n_lowest))
        ties = _group_eigenvalues([p.gram_eigenvalue for p in out], GRAM_DEGENERACY_RTOL) if out else []
        alg.memo[key] = [out[i] for tie in ties[::-1]
                         for i in (tie if len(tie) == 1 else sorted(tie, key=lambda i: _sign_free_key(out[i].n_hat)))]
    return [a.memo[key] for a in algs]


def _sign_free_keys(ns) -> np.ndarray:
    """Each row n of (m, 3) ns rounded to 9 decimals, signed so its first nonzero component is positive: -n has the same."""
    r = np.round(ns, 9)
    lead = r[np.arange(len(r)), (r != 0.0).argmax(axis=1)]
    return np.where((lead < 0.0)[:, None], -r, r)


def _sign_free_key(n) -> tuple:
    """The _sign_free_keys row of one vector n, as a tuple."""
    return tuple(_sign_free_keys(np.reshape(n, (1, 3)))[0].tolist())


class Decomposition(NamedTuple):
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
        return equivariant_parts(M, self.plane.P, self.gamma)

    def plane_part(self, M) -> np.ndarray:
        """Pi(M) = E(M) - F_M, shaped as equivariant_part."""
        return plane_parts(M, self.plane.P, self.gamma, self.algebra.basis_images)


def equivariant_parts(M, P, gamma) -> np.ndarray:
    """E(M) of one moment M (3,), or of each row of moments M (..., n, 3) on the split of P[...] and gamma[...]."""
    M, P, gamma = (np.asarray(x, dtype=float) for x in (M, P, gamma))
    dot = (M @ P[..., :, None])[..., None]  # a stacked matvec, which rounds as one row's does
    if M.ndim > 1:
        P, gamma = P[..., None, :], gamma[..., None]
    return (P[..., :, None] * M[..., None, :] + M[..., :, None] * P[..., None, :] + dot * np.eye(3)
            - gamma[..., None, None] * (P[..., :, None] * P[..., None, :]))


def plane_parts(M, P, gamma, images) -> np.ndarray:
    """Pi(M) = E(M) - F_M, shaped as equivariant_parts, with images (..., 3, 3, 3) the basis images of each row's F."""
    M = np.asarray(M, dtype=float)
    f = np.einsum("...k,...kab->...ab", M, images if M.ndim == 1 else np.expand_dims(images, -4))
    return equivariant_parts(M, P, gamma) - f


def decompose(alg: MagneticAlgebra, plane: PlanarStructure, gamma=0.0) -> Decomposition:
    return Decomposition(algebra=alg, plane=plane, gamma=float(gamma))
