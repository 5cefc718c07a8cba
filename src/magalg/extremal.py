"""Worst-case force magnitude: Z-eigenvector solve, certified bounds and their checks.

The quantity of interest is the largest principal-eigenvalue magnitude of
the moment-dependent gradient matrix over all unit moments (lambda_bar).
It is attained at a Z-eigenvector of the symmetric operator tensor.
They come from the null space of a Macaulay matrix or, through an
invariant plane, from two trigonometric polynomials of the plane;
self_eigenvectors says when the set is certified complete, and
lambda_bar is the best of them, exact to rounding.  The planar
structure gives closed forms and a chain of bounds around it:

    ||P|| <= |lambda_MF| <= lambda_P <= lambda_bar <= |lambda_MF| + ||P||/2

with branch-dependent refinements.  When the in-plane maximum lambda_P
reaches 2||P||, it equals lambda_bar exactly.

verify_theorems checks the theorems on the exact lambda_bar with no
sampling slack.  Its cross-check is one-sided: a seeded Fibonacci
lattice of moments gives lower bounds on lambda_bar, and one above it
means the solve missed a Z-eigenvector.  lambda_bar_bruteforce, the
lattice refined by gradient ascent, remains as a sampling lower-bound
oracle for tests and reference runs; no command calls it.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

import numpy as np

from .algebra import (
    GRAM_DEGENERACY_RTOL,
    PlanarStructure,
    _EIGEN_TOL,
    _distinct,
    _sign_free_keys,
    find_invariant_planes_batch,
    gram_spectrum,
    self_eigenvectors,
    self_eigenvectors_batch,
)
from .corpus import random_algebra, random_frame, random_moments
from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, det3, principal_axis, principal_split, spread_ratio, unit
from .sphere import fibonacci_sphere, sphere_ascent

_Z = np.array([0.0, 0.0, 1.0])
CHAIN_RTOL = 1e-9  # the chain holds exactly: its flags, branch dead band and plane tie allow rounding only
IDENTITY_RTOL = 1e-12  # verify's checks of exact identities allow this much rounding, relative to each one's scale


class Branch(enum.Enum):
    PLANE_DOMINANT = "PLANE_DOMINANT"
    P_DOMINANT = "P_DOMINANT"
    DEGENERATE = "DEGENERATE"


class CandidateKind(enum.Enum):
    GRAM_TOP = "GRAM_TOP"
    IN_PLANE_MAX = "IN_PLANE_MAX"
    EIGEN_SELF = "EIGEN_SELF"
    DETZERO = "DETZERO"


def principal_split_batch(alg, Ms):
    """(lam, delta, r) arrays for moments Ms (n, 3) of alg, or Ms (t, n, 3) of t algebras, from the invariants of F.

    Unscaled, det F is a cube of the scale and underflows in the far field.
    """
    if isinstance(alg, MagneticAlgebra):
        s, f = alg.scale or 1.0, alg.matrices(Ms)
    else:
        s = np.array([a.scale or 1.0 for a in alg])[:, None]
        f = np.einsum("tnk,tkab->tnab", Ms, np.array([a.basis_images for a in alg]))
    f /= np.asarray(s)[..., None, None]
    lam, delta = principal_split(0.5 * np.einsum("...ab,...ab->...", f, f), det3(f))
    return lam * s, delta * s, spread_ratio(lam, delta)


def principal_abs(alg: MagneticAlgebra, M) -> float:
    """|principal eigenvalue| of the matrix induced by one moment: one row of principal_split_batch."""
    return abs(float(principal_split_batch(alg, np.asarray(M, dtype=float)[None])[0][0]))


class WorstCase(NamedTuple):
    """Worst-case magnitude with its moment M_bar and the direction m_bar it acts on.

    complete is true when lambda_bar is the maximum over a Z-eigenvector
    set certified complete, so exact to rounding.
    """

    lambda_bar: float
    M_bar: np.ndarray
    m_bar: np.ndarray
    complete: bool = False


def _worst_case(alg: MagneticAlgebra, x, complete=False) -> WorstCase:
    """The triple at moment x, with m_bar the principal eigenvector of F_x and value ||F_x m_bar||."""
    return _worst_cases(alg.basis_images[None], canonical_sign(x)[None], [complete])[0]


def _worst_cases(images, x, complete) -> list[WorstCase]:
    """_worst_case at each sign-canonical row x[j] of (n, 3) x, of basis images images[j], with complete[j]."""
    f = np.einsum("nk,nkab->nab", x, images)
    _, m_bar = principal_axis(f)
    g = f @ m_bar[:, :, None]
    value = np.sqrt(g.transpose(0, 2, 1) @ g)[:, 0, 0]  # as np.linalg.norm of one vector rounds it
    return [WorstCase(*row) for row in zip(value.tolist(), x, m_bar, complete)]


def lambda_bar_exact(alg: MagneticAlgebra) -> WorstCase:
    """Worst-case magnitude at the best Z-eigenvector found, with its maximizers.

    By Banach's theorem on the symmetric operator tensor, lambda_bar is
    the largest |x^T F_x x| over unit x, attained at a Z-eigenvector, so
    it is exact to rounding whenever self_eigenvectors finds the best of
    them; complete is true when it certifies its set complete.  A zonal
    operator's is not (its cone is a continuum), yet its axis, which
    beats the cone by a factor sqrt(5), gives lambda_bar exactly.  The
    triple is finished from the eigensolver, as in lambda_bar_bruteforce.
    Memoized on alg: callers share it and must not modify it.  This is
    lambda_bar_exact_batch of [alg].
    """
    if alg.is_trivial():
        return WorstCase(0.0, _Z.copy(), _Z.copy())
    return lambda_bar_exact_batch([alg])[0]


def lambda_bar_exact_batch(algs) -> list[WorstCase]:
    """lambda_bar_exact of each nonzero operator of algs, in one pass over those not yet memoized.

    Their Z-eigenvectors come from one self_eigenvectors_batch call; the
    values x^T F_x x of all of them from one stacked product, and the
    triples from one _worst_cases call.  Each result is bitwise the one
    of its algebra alone.
    """
    key = ("lambda_bar_exact",)
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))
    if todo:
        sols = self_eigenvectors_batch(todo)
        counts = [len(sol.moments) for sol in sols]
        images = np.array([a.basis_images for a in todo])
        m = np.concatenate([sol.moments for sol in sols])
        f = np.einsum("nk,nkab->nab", m, np.repeat(images, counts, axis=0))
        tau = np.abs(m[:, None, :] @ f @ m[:, :, None])[:, 0, 0].tolist()  # x^T F_x x, as x @ F_x @ x rounds it
        ends = itertools.accumulate(counts)
        best = [max(range(end - n, end), key=tau.__getitem__) for n, end in zip(counts, ends)]  # the first best
        # the moments are sign-canonical
        for a, wc in zip(todo, _worst_cases(images, m[best], [sol.complete for sol in sols])):
            a.memo[key] = wc
    return [a.memo[key] for a in algs]


def lambda_bar_bruteforce(
    alg: MagneticAlgebra, n_samples=20000, refine_steps=100, seed=0
) -> WorstCase:
    """Sampling lower bound on the worst-case magnitude, with maximizers.

    An oracle independent of the Z-eigenvector solve, for tests and for
    the benchmark's dense reference.  Deterministic given
    (n_samples, seed): a seeded rotation of the Fibonacci lattice picks
    the start (ties to the lowest index), then projected gradient ascent
    refines it; the triple is finished as in lambda_bar_exact.
    """
    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if alg.is_trivial():
        return WorstCase(0.0, _Z.copy(), _Z.copy())
    pts = fibonacci_sphere(n_samples) @ random_frame(np.random.default_rng(seed)).T
    vals = np.abs(principal_split_batch(alg, pts)[0])
    best = int(np.argmax(vals))
    m0, v0 = pts[best], float(vals[best])
    m_ref, v_ref = sphere_ascent(
        lambda m: principal_abs(alg, m), m0, steps=refine_steps
    )
    if v_ref < v0:
        m_ref, v_ref = m0, v0
    return _worst_case(alg, m_ref)


class PlaneMax(NamedTuple):
    value: float
    moment: np.ndarray


def _plane_quadratics(algs, planes):
    """(e1, e2, a, b, c): each plane's in-plane frame as rows, and the Gram form of algs[j] on that of planes[j].

    a = e1 G e1, b = e1 G e2 and c = e2 G e2, each a stacked matmul that
    rounds as the product of one plane's vectors does.
    """
    e1, e2 = (np.array(e) for e in zip(*(p.frame() for p in planes)))
    g = np.array([alg.gram for alg in algs])
    u, v = e1[:, None, :] @ g, e2[:, None, :] @ g
    return e1, e2, *((w @ e[:, :, None])[:, 0, 0] for w, e in ((u, e1), (u, e2), (v, e2)))


def in_plane_abs(tr2, pm):
    """|principal eigenvalue| for an in-plane moment from scalar data.

    tr2 is the squared Frobenius norm of the induced matrix and pm the
    coupling P . M; works elementwise on arrays.
    """
    tr2 = np.asarray(tr2, dtype=float)
    pm = np.abs(np.asarray(pm, dtype=float))
    root = np.sqrt(np.maximum(2.0 * tr2 - 3.0 * pm * pm, 0.0))
    return np.maximum(0.5 * (pm + root), pm)


def lambda_plane(alg: MagneticAlgebra, plane: PlanarStructure) -> PlaneMax:
    """Maximum |principal eigenvalue| over unit in-plane moments.

    An in-plane moment M sends the normal to (P . M) n, so by Banach's
    theorem the maximum is max(||P||, max |tau|) over unit in-plane x,
    tau = x^T F_x x.  The objective is evaluated at theta = 0, where
    |P . M| = ||P||, and at the stationary points of tau, read from the
    solve: on an invariant plane they are the Z-eigenvectors in it, which
    self_eigenvectors finds, and the angle of every Z-eigenvector's
    projection is a candidate, as any angle is a valid moment.  This is
    the pass of _plane_maxima on one plane; not memoized: bounds_report's
    report carries the result on.
    """
    value, moment = _plane_maxima([alg], [plane], *_plane_quadratics([alg], [plane]))
    return PlaneMax(float(value[0]), moment[0])


def _plane_maxima(algs, planes, e1, e2, a, b, c):
    """lambda_plane of each plane planes[j] of algs[j], as (values, moments), from _plane_quadratics.

    Row j of one (planes, angles) array holds theta = 0 and the angles of
    the Z-eigenvectors of algs[j], padded with theta = 0.  The value is
    the largest of a row; the moment, among the angles whose values are
    within _EIGEN_TOL of it, the first by _sign_free_keys, as tied planes
    are ordered.  So maxima that symmetry makes equal give one moment on
    an operator within _EIGEN_TOL of the symmetric one, whose
    Z-eigenvectors the solve does not tell apart from its own; a 1e-12
    shift of a tetrahedral centre splits them by 3.5e-12.  CHAIN_RTOL
    would be too wide: distinct in-plane maxima lie 5.5e-10 apart on one
    mirror draw of the tests.
    """
    moments = [self_eigenvectors(alg).moments for alg in algs]
    counts = [len(m) for m in moments]
    angle = np.zeros((len(planes), 1 + max(counts)))
    for k in set(counts) - {0}:
        # x @ e of the planes with k moments as one stacked matmul, which rounds as one plane's does
        sel = [j for j, n in enumerate(counts) if n == k]
        x = np.array([moments[j] for j in sel])
        if len(sel) == len(planes):
            sel = slice(None)  # a view, not a gather
        angle[sel, 1:k + 1] = np.arctan2(*((x @ e[sel, :, None])[..., 0] for e in (e2, e1)))
    ct, st = np.cos(angle), np.sin(angle)
    norm_p = np.array([[p.norm_P] for p in planes])
    vals = in_plane_abs(a[:, None] * ct * ct + 2.0 * b[:, None] * ct * st + c[:, None] * st * st, norm_p * ct)
    best = vals.max(axis=1)
    real = np.arange(angle.shape[1]) <= np.array(counts)[:, None]  # theta = 0 and the Z-eigenvectors' angles
    j, k = np.nonzero((vals >= best[:, None] * (1.0 - _EIGEN_TOL)) & real)
    tied = canonical_sign(ct[j, k, None] * e1[j] + st[j, k, None] * e2[j])
    if len(j) == len(planes):  # one moment a plane
        return best, tied
    key = _sign_free_keys(tied)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], j))  # stable: the first of equal keys leads
    j = j[order]
    first = np.ones(len(j), dtype=bool)
    first[1:] = j[1:] != j[:-1]
    return best, tied[order[first]]


def _gram_moments(planes, e1, e2, a, b, c):
    """Each plane's top Gram eigenpair restricted to the normal and the plane, as (M_F rows, lambda_F).

    The normal is always a Gram eigenvector, of eigenvalue
    plane.gram_eigenvalue, so the top eigenvector can be taken either as
    the normal or from the plane, whose block (a, b, c) _plane_quadratics
    gives; this keeps the closed form applicable when the top eigenvalue
    is degenerate.  An isotropic in-plane block gives the frame's second
    axis (Q_hat when P is nonzero): the geometry chooses, not rounding.
    """
    lam_n = np.array([p.gram_eigenvalue for p in planes])
    disc = np.hypot(0.5 * (a - c), b)  # squaring Gram entries underflows in the far field
    mu = 0.5 * (a + c) + disc
    # eigenvector of [[a, b], [b, c]] for mu: pick the better-conditioned of the two cofactor
    # forms (mu - c, b) and (b, mu - a); both vanish only when the block is mu*I, which takes e2
    # (or the normal) instead, so a vanishing form's row is never taken
    mc, ma = mu - c, mu - a
    n1, n2 = np.hypot(mc, b), np.hypot(b, ma)
    first = n1 >= n2
    norm = np.maximum(n1, n2)
    norm[norm == 0.0] = 1.0
    in_plane = np.where((2.0 * disc <= GRAM_DEGENERACY_RTOL * mu)[:, None], e2,
                        (np.where(first, mc, b) / norm)[:, None] * e1 + (np.where(first, b, ma) / norm)[:, None] * e2)
    normal = mu < lam_n
    m_f = np.where(normal[:, None], [p.n_hat for p in planes], canonical_sign(in_plane))
    return m_f, np.where(normal, lam_n, mu)


class ExtremalReport(NamedTuple):
    branch: Branch
    lambda_bar: float
    M_bar: np.ndarray
    m_bar: np.ndarray
    norm_P: float
    abs_lambda_MF: float
    lambda_P: float
    M_P: np.ndarray | None
    lambda_F: float
    M_F: np.ndarray | None
    lambda_bar_certified: float | None  # exact value in the plane-dominant branch
    bounds: dict
    chain_ok: dict

    @property
    def all_ok(self) -> bool:
        return all(self.chain_ok.values())


def _degenerate_report() -> ExtremalReport:
    zeros = {
        "chain_upper": 0.0,
        "refined_upper": 0.0,
        "gram_plus_third": None,
        "plane_ratio": None,
        "plane_formula_upper": 0.0,
        "sqrt_two_thirds_lambda_F": 0.0,
    }
    return ExtremalReport(
        branch=Branch.DEGENERATE,
        lambda_bar=0.0,
        M_bar=_Z.copy(),
        m_bar=_Z.copy(),
        norm_P=0.0,
        abs_lambda_MF=0.0,
        lambda_P=0.0,
        M_P=None,
        lambda_F=0.0,
        M_F=None,
        lambda_bar_certified=0.0,
        bounds=zeros,
        chain_ok={"degenerate": True},
    )


def bounds_report(alg: MagneticAlgebra, plane: PlanarStructure | None) -> ExtremalReport:
    """Evaluate the whole bound chain for one invariant plane.

    The branch compares lambda_P against 2||P|| with a small dead band;
    every inequality is recorded as a non-strict flag at tolerance
    CHAIN_RTOL times the value scale.  The planes of one algebra share its
    memoized lambda_bar_exact.  This is the pass of _bounds_reports on
    one plane; plane_reports gives those of every plane of an algebra.
    """
    if alg.is_trivial():
        return _degenerate_report()
    if plane is None:
        raise ValueError("invariant plane required for a bounds report")
    return _bounds_reports([alg], [plane])[0]


def plane_reports(alg: MagneticAlgebra) -> list[ExtremalReport]:
    """bounds_report of each plane of find_invariant_planes(alg), in its order; plane_reports_batch of [alg].

    Memoized on alg: callers share the list and must not modify it.
    """
    return plane_reports_batch([alg])[0]


def plane_reports_batch(algs) -> list[list[ExtremalReport]]:
    """plane_reports of each nonzero algebra of algs, as one record pass over those not yet memoized.

    The pass fills each algebra's memo with its Gram spectrum and planes
    (find_invariant_planes_batch), its worst case (lambda_bar_exact_batch)
    and the reports of its planes, which one _bounds_reports call builds
    for the planes of all of them.  Each result is bitwise the one its
    algebra gives alone.
    """
    key = ("plane_reports",)
    todo = list(dict.fromkeys(a for a in algs if key not in a.memo))
    if not todo:
        return [a.memo[key] for a in algs]
    planes = find_invariant_planes_batch(todo)
    lambda_bar_exact_batch(todo)
    reports = iter(_bounds_reports([a for a, ps in zip(todo, planes) for _ in ps], [p for ps in planes for p in ps]))
    for a, ps in zip(todo, planes):
        a.memo[key] = list(itertools.islice(reports, len(ps)))
    return [a.memo[key] for a in algs]


def _bounds_reports(algs, planes) -> list[ExtremalReport]:
    """bounds_report of each plane planes[j] of algs[j], its arithmetic on arrays over the planes."""
    if not planes:
        return []
    wcs = lambda_bar_exact_batch(algs)
    quadratics = _plane_quadratics(algs, planes)
    lam_p, m_p = _plane_maxima(algs, planes, *quadratics)
    m_f, lam_f = _gram_moments(planes, *quadratics)
    abs_mf = in_plane_abs(lam_f, (np.array([p.P for p in planes])[:, None, :] @ m_f[:, :, None])[:, 0, 0])
    pn = np.array([p.norm_P for p in planes])
    lam_bar = np.array([wc.lambda_bar for wc in wcs])

    scale = np.maximum(np.maximum(np.maximum(lam_bar, lam_p), np.maximum(abs_mf, pn)), 1e-300)
    tol = CHAIN_RTOL * scale

    chain_upper = abs_mf + 0.5 * pn
    sqrt_23 = np.sqrt(2.0 * lam_f / 3.0)
    plane_formula = 0.5 * (pn + np.sqrt(np.maximum(2.0 * lam_f - 3.0 * pn * pn, 0.0)))

    dominant = lam_p >= 2.0 * pn - tol  # PLANE_DOMINANT; else P_DOMINANT, where 3 ||P|| - lambda_P > ||P|| > 0
    gram_plus_third = abs_mf + pn / 3.0
    plane_ratio = 2.0 * pn * np.sqrt(pn / np.where(dominant, 1.0, 3.0 * pn - lam_p))  # taken on P_DOMINANT planes
    refined_upper = np.where(dominant, plane_formula, np.minimum(gram_plus_third, plane_ratio))
    branch_ok = np.where(
        dominant,
        (np.abs(lam_bar - lam_p) <= tol) & (lam_p <= plane_formula + tol) & (plane_formula <= sqrt_23 + tol),
        lam_bar <= refined_upper + tol,
    )
    chain_ok = {
        "norm_p_le_lambda_mf": pn <= abs_mf + tol,
        "lambda_mf_le_lambda_p": abs_mf <= lam_p + tol,
        "lambda_p_le_lambda_bar": lam_p <= lam_bar + tol,
        "lambda_bar_le_chain_upper": lam_bar <= chain_upper + tol,
        "squares_bracket": (abs_mf ** 2 <= lam_bar ** 2 + tol * scale)
        & (lam_bar ** 2 <= (2.0 / 3.0) * lam_f + tol * scale),
        "branch_bound": branch_ok,
    }
    chain_ok = [dict(zip(chain_ok, flags)) for flags in zip(*(v.tolist() for v in chain_ok.values()))]
    columns = (v.tolist() for v in (dominant, pn, abs_mf, lam_p, lam_f, chain_upper, refined_upper,
                                     gram_plus_third, plane_ratio, plane_formula, sqrt_23))
    return [
        ExtremalReport(
            branch=Branch.PLANE_DOMINANT if dom else Branch.P_DOMINANT,
            lambda_bar=wc.lambda_bar,
            M_bar=wc.M_bar,
            m_bar=wc.m_bar,
            norm_P=norm_p,
            abs_lambda_MF=mf,
            lambda_P=lp,
            M_P=mp,
            lambda_F=lf,
            M_F=mfv,
            lambda_bar_certified=lp if dom else None,
            bounds={
                "chain_upper": cu,
                "refined_upper": ru,
                "gram_plus_third": None if dom else gp,
                "plane_ratio": None if dom else pr,
                "plane_formula_upper": pf,
                "sqrt_two_thirds_lambda_F": s23,
            },
            chain_ok=ok,
        )
        for wc, mp, mfv, ok, (dom, norm_p, mf, lp, lf, cu, ru, gp, pr, pf, s23)
        in zip(wcs, m_p, m_f, chain_ok, zip(*columns))
    ]


class Candidate(NamedTuple):
    moment: np.ndarray
    kind: CandidateKind
    lambda_abs: float


def locate_candidates(alg: MagneticAlgebra, report: ExtremalReport, n_starts=50) -> list[Candidate]:
    """Candidate maximizer moments, by provenance.

    GRAM_TOP: top Gram eigenvector(s); IN_PLANE_MAX: the in-plane
    maximizer; EIGEN_SELF: moments that are eigenvectors of their own
    matrix, from self_eigenvectors; DETZERO duplicates any candidate
    whose matrix is singular, |det F| <= 1e-9 over the scale.  report is
    bounds_report's for one plane: its M_F, M_P and lambda_P are that
    plane's Gram moment and in-plane maximum.  n_starts is unused, as
    the solve takes no starts; bench/tracing.py still reads it.  The
    Gram spectrum and the Z-eigenvectors come from alg's memos, which
    analyze fills first; magnitudes take one principal_split_batch,
    determinants one det3.
    """
    if alg.is_trivial():
        return []
    # a degenerate top eigenvalue leaves eigh's basis arbitrary: only the canonical M_F is used
    gs = gram_spectrum(alg)
    m_f = report.M_F
    seen = _distinct([unit(m) for m in ([m_f] if gs.multiplicity > 1 else [gs.eigenvectors[:, -1], m_f])], 1e-9)
    eigen = self_eigenvectors(alg).moments
    lam = np.abs(principal_split_batch(alg, [*seen, *eigen])[0]).tolist()
    out = [Candidate(m, CandidateKind.GRAM_TOP, v) for m, v in zip(seen, lam)]
    out.append(Candidate(report.M_P, CandidateKind.IN_PLANE_MAX, report.lambda_P))
    out += [Candidate(m, CandidateKind.EIGEN_SELF, v) for m, v in zip(eigen, lam[len(seen):])]
    det = det3(alg.matrices([c.moment for c in out]) / alg.scale)
    out += [Candidate(c.moment, CandidateKind.DETZERO, c.lambda_abs) for c, d in zip(out, det) if abs(d) <= 1e-9]

    order = {k: i for i, k in enumerate(CandidateKind)}
    out.sort(key=lambda c: (-c.lambda_abs, order[c.kind], c.moment[0], c.moment[1], c.moment[2]))
    return out


def _within(residual, bound):
    """(residual, ok) of a check whose residual may not exceed bound."""
    return residual, residual <= bound


def theorem_draws(alg: MagneticAlgebra, seed, trials):
    """(ms, other, alg + other) for verify_theorems: default_rng(seed) draws trials unit moments, then other."""
    rng = np.random.default_rng(seed)
    ms, other = random_moments(rng, int(trials)), random_algebra(rng)
    return ms, other, alg + other


def verify_theorems(algs, planes, draws, lattices) -> list[dict]:
    """Numerical spot checks of the structural guarantees, on exact worst cases, of each trial of a block.

    Trial j is algs[j], its plane planes[j] or None, draws[j] = (ms, other,
    both) from theorem_draws and the j-th of lattices, unit moments read
    one trial at a time.  (a) the squared chain lambda_MF^2 <= lambda_bar^2
    <= (2/3) lambda_F; (b) no moment of ms beats the top Gram moment in
    magnitude while exceeding its spread ratio; (c) ||P|| <= |lambda_MF|
    <= lambda_P, only with a plane; (d) lambda_bar is subadditive; (e) no
    lattice moment beats lambda_bar.  lambda_bar is lambda_bar_exact (a
    memo read once the caller solved it), so (a) and (d) need no sampling
    slack, and (e) holds at rounding unless the solve missed the maximizer.
    (a) and (c) allow CHAIN_RTOL, as the chain flags do, and the others
    IDENTITY_RTOL of their scale.  Returns name -> (residual, ok) of each
    trial, each residual signed (negative means margin); that of (e) is
    relative to lambda_bar.  Every step but (e) is one pass over the block.
    """
    trivial = [a.is_trivial() for a in algs]
    if any(trivial):  # vacuous on the zero operator; the other trials run as a block
        kept = [not t for t in trivial]
        checks = iter(verify_theorems(*(list(itertools.compress(x, kept)) for x in (algs, planes, draws)),
                                      itertools.compress(lattices, kept)))
        names = ("squares_bracket", "spread_ordering", "subadditive", "exact_above_lattice")
        return [dict.fromkeys(names, (0.0, True)) if t else next(checks) for t in trivial]
    if not algs:
        return []
    operators = [a for alg, (_, other, both) in zip(algs, draws) for a in (alg, other, both)]
    bars = [wc.lambda_bar for wc in lambda_bar_exact_batch(operators)]
    spectra = [gram_spectrum(a) if p is None else None for a, p in zip(algs, planes)]  # only without a plane
    m_f = np.array([_Z if gs is None else gs.M_F for gs in spectra])
    lam_f, lam_p = np.array([0.0 if gs is None else gs.lambda_F for gs in spectra]), {}
    planar = [j for j, p in enumerate(planes) if p is not None]
    if planar:
        on_planes = ([algs[j] for j in planar], [planes[j] for j in planar])
        quadratics = _plane_quadratics(*on_planes)
        m_f[planar], lam_f[planar] = _gram_moments(on_planes[1], *quadratics)
        lam_p = dict(zip(planar, _plane_maxima(*on_planes, *quadratics)[0].tolist()))
    lam, _, r = principal_split_batch(algs, np.concatenate([m_f[:, None], [ms for ms, _, _ in draws]], axis=1))
    abs_mf, lam_f = [abs(x) for x in lam[:, 0].tolist()], lam_f.tolist()
    tol_sq = [CHAIN_RTOL * max(x, 1e-300) for x in lam_f]
    beats = lam[:, 1:] ** 2 > np.array([m ** 2 + t for m, t in zip(abs_mf, tol_sq)])[:, None]
    res_b = np.where(beats, r[:, 1:] - r[:, :1], -np.inf).max(axis=1)
    res_b = np.where(beats.any(axis=1), res_b, -1.0).tolist()

    out = []
    for j, (alg, plane, lattice) in enumerate(zip(algs, planes, lattices)):
        lam_bar, lam_1, lam_01 = bars[3 * j:3 * j + 3]
        checks = {}
        res_a = max(abs_mf[j] ** 2 - lam_bar ** 2, lam_bar ** 2 - (2.0 / 3.0) * lam_f[j])
        checks["squares_bracket"] = _within(float(res_a), tol_sq[j])
        checks["spread_ordering"] = _within(res_b[j], IDENTITY_RTOL)  # spread ratios lie in [0, 1]
        if plane is not None:
            res_c = max(plane.norm_P - abs_mf[j], abs_mf[j] - lam_p[j])
            checks["plane_chain"] = _within(float(res_c), CHAIN_RTOL * max(lam_p[j], 1e-300))
        res_d = lam_01 - lam_bar - lam_1
        checks["subadditive"] = _within(float(res_d), IDENTITY_RTOL * (lam_bar + lam_1))
        res_e = float(np.abs(principal_split_batch(alg, lattice)[0]).max()) / lam_bar - 1.0
        checks["exact_above_lattice"] = _within(res_e, IDENTITY_RTOL)
        out.append(checks)
    return out
