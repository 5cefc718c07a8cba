import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sampling_tolerance
from magalg import algebra
from magalg.algebra import (
    _FAMILY_SIZE,
    _converge,
    _distinct,
    _self_eigen_system,
    find_invariant_planes,
    planar_structure,
    self_eigenvectors,
    self_eigenvectors_batch,
)
from magalg.corpus import (
    random_algebra,
    random_config,
    random_coplanar_config,
    random_frame,
    random_mirror_config,
    random_moments,
)
from magalg.dipoles import DipoleConfig, MagneticAlgebra, build_algebra
from magalg.extremal import (
    Branch,
    CandidateKind,
    _worst_case,
    bounds_report,
    lambda_bar_bruteforce,
    lambda_bar_exact,
    lambda_plane,
    locate_candidates,
    principal_abs,
    principal_split_batch,
    theorem_draws,
    verify_theorems,
)
from magalg.linalg3 import det3, principal_split, rot_about
from magalg.sphere import fibonacci_sphere

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def dipole_plane(single_dipole_algebra):
    return planar_structure(single_dipole_algebra, [0.0, 1.0, 0.0])


def theorems(alg, plane, trials, seed, n_samples):
    """verify_theorems of alg, as a block of one, on the draws of seed, as verify makes them: trials
    moments, the other algebra, and the n_samples-point Fibonacci lattice in the frame that seed draws."""
    lattice = fibonacci_sphere(n_samples) @ random_frame(np.random.default_rng(seed)).T
    return verify_theorems([alg], [plane], [theorem_draws(alg, seed, trials)], [lattice])[0]


def closed_form_dipole_abs(cos_theta):
    """1D oracle for the single dipole: in-plane principal magnitude."""
    c = np.abs(cos_theta)
    return (c + np.sqrt(4.0 + 5.0 * c * c)) / 2.0


def test_bruteforce_single_dipole(single_dipole_algebra):
    bf = lambda_bar_bruteforce(single_dipole_algebra, n_samples=20000, refine_steps=100, seed=0)
    assert bf.lambda_bar == pytest.approx(2.0, abs=1e-6)
    assert abs(bf.M_bar[2]) >= 1.0 - 1e-6
    assert abs(bf.m_bar[2]) >= 1.0 - 1e-6
    mat = single_dipole_algebra.matrix(bf.M_bar)
    assert np.linalg.norm(mat @ bf.m_bar) == pytest.approx(bf.lambda_bar, abs=1e-12)


def test_bruteforce_oracle_against_1d_family(single_dipole_algebra):
    # densely maximize the closed-form family; global max is 2 at cos = +-1
    thetas = np.linspace(0.0, np.pi, 100001)
    assert closed_form_dipole_abs(np.cos(thetas)).max() == pytest.approx(2.0, abs=1e-9)


def test_bruteforce_deterministic(single_dipole_algebra):
    a = lambda_bar_bruteforce(single_dipole_algebra, n_samples=3000, refine_steps=40, seed=11)
    b = lambda_bar_bruteforce(single_dipole_algebra, n_samples=3000, refine_steps=40, seed=11)
    assert a.lambda_bar == b.lambda_bar
    assert np.array_equal(a.M_bar, b.M_bar)
    assert np.array_equal(a.m_bar, b.m_bar)


def test_bruteforce_trivial(antipodal_config):
    bf = lambda_bar_bruteforce(build_algebra(antipodal_config), n_samples=500)
    assert bf.lambda_bar == 0.0


def test_bruteforce_rejects_tiny_sample_counts(single_dipole_algebra):
    with pytest.raises(ValueError):
        lambda_bar_bruteforce(single_dipole_algebra, n_samples=50)


def test_bruteforce_scaling(rng, single_dipole):
    alg = build_algebra(single_dipole)
    base = lambda_bar_bruteforce(alg, n_samples=2000, refine_steps=50, seed=3)
    for s in (0.5, 2.0, 10.0):
        scaled = build_algebra(single_dipole.scaled(s))
        bf = lambda_bar_bruteforce(scaled, n_samples=2000, refine_steps=50, seed=3)
        assert bf.lambda_bar == pytest.approx(base.lambda_bar * s ** -4, rel=1e-6)


_FAMILIES = {
    "coplanar": lambda rng: random_coplanar_config(rng)[0],
    "mirror": lambda rng: random_mirror_config(rng)[0],
    "generic": random_config,
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    seed=st.integers(0, 2 ** 32 - 1),
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    angle=st.floats(0.0, 2.0 * np.pi),
    data=st.data(),
)
def test_lambda_bar_is_invariant_under_rotation_and_permutation(family, seed, axis, angle, data):
    """lambda_bar, the plane count and the branch of an analyze record do not
    change under rotations, mirror images (improper rotations) or magnet order."""
    from magalg.cli import analyze_point

    def summary(c):
        rec = analyze_point(c)
        return rec["lambda_bar"]["value"], len(rec["planes"]), rec["branch"]

    cfg = _FAMILIES[family](np.random.default_rng(seed))
    fp, magnets = cfg.field_point, cfg.magnet_positions
    base = summary(cfg)
    rot = rot_about(axis, angle)
    a = np.asarray(axis) / np.linalg.norm(axis)
    order = data.draw(st.permutations(range(len(magnets))))
    for moved in (
        DipoleConfig(fp + (magnets - fp) @ rot.T, fp),
        DipoleConfig(fp + (magnets - fp) @ (rot @ (np.eye(3) - 2.0 * np.outer(a, a))).T, fp),
        DipoleConfig(magnets[list(order)], fp),
    ):
        value, n_planes, branch = summary(moved)
        assert value == pytest.approx(base[0], rel=1e-12)
        assert (n_planes, branch) == base[1:]


def test_lambda_plane_single_dipole(single_dipole_algebra, dipole_plane):
    pm = lambda_plane(single_dipole_algebra, dipole_plane)
    assert pm.value == 2.0
    assert abs(pm.moment[2]) >= 1.0 - 1e-9


def test_lambda_plane_at_least_norm_p(pair_config):
    alg = build_algebra(pair_config)
    plane = planar_structure(alg, [0, 1.0, 0])
    pm = lambda_plane(alg, plane)
    assert pm.value >= plane.norm_P


def test_lambda_plane_closed_form_matches_eig(rng):
    """The scalar in-plane formula agrees with the full eigensolver."""
    cfg, n_hat = random_coplanar_config(rng, n_min=3)
    alg = build_algebra(cfg)
    plane = planar_structure(alg, n_hat)
    e1, e2 = plane.frame()
    g = alg.gram
    for beta in rng.uniform(0.0, np.pi, size=100):
        m = np.cos(beta) * e1 + np.sin(beta) * e2
        tr2 = float(m @ g @ m)
        pm = abs(float(plane.P @ m))
        closed = max((pm + np.sqrt(max(2.0 * tr2 - 3.0 * pm * pm, 0.0))) / 2.0, pm)
        f = alg.matrix(m)
        direct = abs(float(principal_split(0.5 * float(np.trace(f @ f)), float(det3(f)))[0]))
        assert closed == pytest.approx(direct, abs=1e-10 * max(direct, 1.0))


def test_lambda_plane_matches_dense_eigensolver_scan(rng):
    """The exact in-plane maximum is at least a full-eigensolver scan of the
    plane (20000 angles, then 2001 more across the best one's grid cell)
    and agrees with it to 1e-9."""
    eps = np.finfo(float).eps
    step = np.pi / 20000

    def scan(alg, e1, e2, thetas):
        ms = np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2
        vals = np.abs(np.linalg.eigvalsh(alg.matrices(ms))).max(axis=1)
        i = int(np.argmax(vals))
        return thetas[i], float(vals[i])

    for cfg, n_hat in planar_corpus(rng, 40):
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        e1, e2 = plane.frame()
        best, coarse = scan(alg, e1, e2, np.arange(20000) * step)
        _, fine = scan(alg, e1, e2, best + np.linspace(-step, step, 2001))
        scan_max = max(coarse, fine)
        pm = lambda_plane(alg, plane)
        assert pm.value >= scan_max * (1.0 - 8.0 * eps)
        assert pm.value <= scan_max * (1.0 + 1e-9)
        assert principal_abs(alg, pm.moment) == pytest.approx(pm.value, rel=1e-12)


def test_tetrahedral_centre_reports_are_rotation_invariant(rng):
    """The in-plane Gram block is isotropic at a tetrahedral centre; the
    per-plane values and the GRAM_TOP magnitudes must not follow rounding."""
    from magalg.algebra import find_invariant_planes
    from test_algebra import tetrahedral_centre

    for shells in (1, 2, 1, 2):
        cfg, _ = tetrahedral_centre(rng, shells)
        axis = rng.standard_normal(3)
        per_plane, gram_top = [], []
        for angle in (0.0, 1e-9, 0.3):
            rot = rot_about(axis, angle)
            fp = cfg.field_point
            alg = build_algebra(DipoleConfig(fp + (cfg.magnet_positions - fp) @ rot.T, fp))
            planes = find_invariant_planes(alg)
            reps = [bounds_report(alg, p) for p in planes]
            assert all(r.all_ok for r in reps)
            per_plane.append(np.array(sorted(
                (r.norm_P, r.abs_lambda_MF, r.lambda_P, r.bounds["refined_upper"]) for r in reps
            )))
            gram_top.append(np.array(sorted(
                c.lambda_abs for c in locate_candidates(alg, reps[0]) if c.kind is CandidateKind.GRAM_TOP
            )))
        for values in per_plane[1:]:
            assert values == pytest.approx(per_plane[0], rel=1e-9)
        for values in gram_top[1:]:
            assert values == pytest.approx(gram_top[0], rel=1e-9)


def test_lambda_plane_degenerate_frame(rng):
    """Coupling-free plane: triangle of magnets, field point at the center."""
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    pts = np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
    from magalg.dipoles import DipoleConfig

    alg = build_algebra(DipoleConfig(pts, [0.0, 0.0, 0.0]))
    plane = planar_structure(alg, [0, 0, 1.0])
    assert plane.norm_P <= 1e-14
    assert plane.P_hat is None
    pm = lambda_plane(alg, plane)
    bf = lambda_bar_bruteforce(alg, n_samples=4000, refine_steps=80, seed=0)
    assert pm.value == pytest.approx(bf.lambda_bar, abs=1e-6)


def test_closed_form_lambda_mf_single_dipole(single_dipole_algebra, dipole_plane):
    # (|P.M_F| + sqrt(2 tr F^2 - 3 |P.M_F|^2)) / 2 = (1 + 3) / 2
    rep = bounds_report(single_dipole_algebra, dipole_plane)
    assert rep.abs_lambda_MF == pytest.approx(2.0, abs=1e-13)
    m_f, lam_f = rep.M_F, rep.lambda_F
    assert lam_f == pytest.approx(6.0, abs=1e-13)
    assert np.allclose(np.abs(m_f), [0, 0, 1.0], atol=1e-12)


def test_closed_form_normal_case_returns_norm_p():
    """When the normal carries the top Gram eigenvalue the formula gives ||P||."""
    # mirror pair with a tall stack: the normal direction dominates
    from magalg.dipoles import gen_mirror_symmetric

    cfg = gen_mirror_symmetric([([0.6, 0.0, 0.0], 1.5)], [], [0, 0, 1.0])
    alg = build_algebra(cfg)
    plane = planar_structure(alg, [0, 0, 1.0])
    m_f = bounds_report(alg, plane).M_F  # the top Gram moment restricted to the normal and the plane
    if abs(float(m_f @ plane.n_hat)) > 0.99:  # normal-dominant geometry
        assert bounds_report(alg, plane).abs_lambda_MF == pytest.approx(plane.norm_P, rel=1e-12)


def test_closed_form_matches_direct_on_random_planar(rng):
    for _ in range(100):
        cfg, n_hat = random_coplanar_config(rng)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        closed = rep.abs_lambda_MF
        direct = principal_abs(alg, rep.M_F)
        assert abs(closed - direct) <= 1e-9 * alg.scale


def test_bounds_report_single_dipole(single_dipole_algebra, dipole_plane):
    rep = bounds_report(single_dipole_algebra, dipole_plane)
    assert rep.branch is Branch.PLANE_DOMINANT
    assert rep.norm_P == pytest.approx(1.0, abs=1e-14)
    assert rep.abs_lambda_MF == pytest.approx(2.0, abs=1e-13)
    assert rep.lambda_P == 2.0
    assert rep.lambda_bar_certified == 2.0
    assert rep.lambda_bar == pytest.approx(2.0, rel=1e-12)
    assert rep.bounds["chain_upper"] == pytest.approx(2.5, abs=1e-13)
    assert rep.bounds["plane_formula_upper"] == pytest.approx(2.0, abs=1e-13)
    # squared chain attains its upper end: lambda_bar^2 == (2/3) lambda_F
    assert rep.lambda_bar_certified ** 2 == pytest.approx(2.0 / 3.0 * rep.lambda_F, abs=1e-12)
    assert rep.all_ok


def test_bounds_report_degenerate(antipodal_config):
    rep = bounds_report(build_algebra(antipodal_config), None)
    assert rep.branch is Branch.DEGENERATE
    assert rep.lambda_bar == 0.0
    assert rep.norm_P == 0.0
    assert rep.all_ok


def test_bounds_report_requires_plane(single_dipole_algebra):
    with pytest.raises(ValueError, match="plane"):
        bounds_report(single_dipole_algebra, None)


def test_bounds_report_pair_planes(pair_config):
    """Chain holds for each invariant plane independently."""
    from magalg.algebra import find_invariant_planes

    alg = build_algebra(pair_config)
    planes = find_invariant_planes(alg)
    bf = lambda_bar_bruteforce(alg, n_samples=4000, refine_steps=80, seed=0)
    for plane in planes:
        rep = bounds_report(alg, plane)
        assert rep.all_ok, rep.chain_ok
        assert rep.norm_P <= rep.abs_lambda_MF + 1e-12
        assert rep.abs_lambda_MF <= rep.lambda_P + 1e-12
        assert rep.lambda_P <= rep.lambda_bar + 1e-12
        assert bf.lambda_bar <= rep.lambda_bar * (1.0 + 1e-12)  # the oracle never beats the exact value
        assert rep.lambda_bar <= rep.bounds["refined_upper"] + 1e-9
        assert rep.lambda_bar <= rep.bounds["chain_upper"] + 1e-9


def test_branch_agreement(rng):
    """The in-plane and global maxima sit on the same side of 2||P||."""
    for _ in range(40):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        scale = max(rep.lambda_bar, rep.lambda_P, 2.0 * rep.norm_P)
        band = 1e-6 * scale
        s_plane = rep.lambda_P - 2.0 * rep.norm_P
        s_global = rep.lambda_bar - 2.0 * rep.norm_P
        if abs(s_plane) > band and abs(s_global) > band:
            assert np.sign(s_plane) == np.sign(s_global)


def test_plane_dominant_exactness(rng):
    """Where the in-plane maximum dominates, it equals the global one."""
    seen = 0
    for _ in range(60):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        if rep.branch is Branch.PLANE_DOMINANT:
            seen += 1
            assert abs(rep.lambda_bar - rep.lambda_P) <= 1e-12 * rep.lambda_P
    assert seen > 0


def test_locate_candidates_single_dipole(single_dipole_algebra, dipole_plane):
    cands = locate_candidates(single_dipole_algebra, bounds_report(single_dipole_algebra, dipole_plane))
    kinds = {c.kind for c in cands}
    assert CandidateKind.GRAM_TOP in kinds
    assert CandidateKind.IN_PLANE_MAX in kinds
    assert CandidateKind.EIGEN_SELF in kinds
    best = cands[0]
    assert best.lambda_abs == pytest.approx(2.0, abs=1e-9)
    self_like = [c for c in cands if c.kind is CandidateKind.EIGEN_SELF]
    axial = [c for c in self_like if abs(c.moment[2]) >= 1.0 - 1e-8]
    assert axial, "the source axis must be recovered as a self-eigenvector"
    # and it is a genuine eigenvector of its own image
    m = axial[0].moment
    fm = single_dipole_algebra.matrix(m) @ m
    assert np.linalg.norm(fm - (m @ fm) * m) <= 1e-9


def planar_corpus(rng, n):
    """n seeded configs with their construction normals, alternating coplanar and mirror."""
    for i in range(n):
        yield random_coplanar_config(rng, n_min=2) if i % 2 == 0 else random_mirror_config(rng)


def test_self_eigen_jacobian_matches_central_differences(rng):
    """The analytic tangent Jacobian is the derivative of r(m / |m|) at unit m."""
    h = 1e-6
    for _ in range(20):
        alg = random_algebra(rng)
        m = random_moments(rng, 8)
        _, jac = _self_eigen_system(alg, m)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            plus, minus = m + e, m - e
            r_plus, _ = _self_eigen_system(alg, plus / np.linalg.norm(plus, axis=1, keepdims=True))
            r_minus, _ = _self_eigen_system(alg, minus / np.linalg.norm(minus, axis=1, keepdims=True))
            fd = (r_plus - r_minus) / (2.0 * h)
            assert np.abs(jac[:, :, k] - fd).max() <= 1e-7 * alg.scale


def test_eigen_self_candidates_converged_and_distinct(rng):
    for cfg, n_hat in planar_corpus(rng, 40):
        alg = build_algebra(cfg)
        cands = locate_candidates(alg, bounds_report(alg, planar_structure(alg, n_hat)))
        ms = np.array([c.moment for c in cands if c.kind is CandidateKind.EIGEN_SELF])
        assert len(ms) > 0
        r, _ = _self_eigen_system(alg, ms)
        assert (np.linalg.norm(r, axis=1) <= 1e-11 * alg.scale).all()
        overlap = np.abs(ms @ ms.T)[np.triu_indices(len(ms), 1)]
        assert (overlap < 1.0 - 1e-8).all()


def six_pair_corpus():
    """One default_rng(5) drawing 200 coplanar (two or more magnets), 200 mirror and 200 generic configs."""
    rng = np.random.default_rng(5)
    coplanar = [random_coplanar_config(rng, n_min=2)[0] for _ in range(200)]
    mirror = [random_mirror_config(rng)[0] for _ in range(200)]
    generic = [random_config(rng) for _ in range(200)]
    return coplanar + mirror + generic


def test_the_five_six_pair_configs_are_certified_with_seven():
    """Coplanar draws 92, 107, 183, mirror 16 and generic 160 of the corpus:
    the 50-start multistart alone finds 6 Z-eigenvector pairs, one short of
    the 7 the algebraic solve finds and certifies."""
    corpus = six_pair_corpus()
    for i in (92, 107, 183, 200 + 16, 400 + 160):
        alg = build_algebra(corpus[i])
        unit_alg = MagneticAlgebra(alg.basis_images * (1.0 / alg.scale))
        starts = fibonacci_sphere(50) @ random_frame(np.random.default_rng(0)).T
        x, converged = _converge(np.repeat(unit_alg.basis_images[None], len(starts), axis=0), starts)
        multistart = _distinct(x[converged])
        assert len(multistart) == 6
        sol = self_eigenvectors(alg)
        assert sol.complete
        assert len(sol.moments) == 7
        for x in multistart:
            assert max(abs(float(x @ m)) for m in sol.moments) >= 1.0 - 1e-8


def test_certified_real_counts_are_odd():
    """Complex eigenpoints pair up, so a complete set has an odd number of real pairs."""
    certified = 0
    for cfg in six_pair_corpus():
        sol = self_eigenvectors(build_algebra(cfg))
        if sol.complete:
            certified += 1
            assert len(sol.moments) % 2 == 1
    assert certified == 600  # none of these is axisymmetric, and the null-space solve certifies every one


@pytest.mark.parametrize("magnets, field_point", [
    ([[0.0, 0.0, 0.0]], [0.0, 0.0, 1.0]),
    ([[0.0, 0.0, 0.0]], [0.3, -1.2, 2.0]),
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [3.0, 0.0, 0.0]),
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [-1.7, 0.0, 0.0]),
])
def test_axisymmetric_operators_fall_back_to_the_exact_value(magnets, field_point):
    """A single dipole or an on-axis pair has a cone of Z-eigenvectors: no
    finite certificate, and the closed axisymmetric form gives lambda_bar = 2 sum d^-4."""
    cfg = DipoleConfig(magnets, field_point)
    wc = lambda_bar_exact(build_algebra(cfg))
    assert not wc.complete
    _, dist = cfg.separations()
    assert wc.lambda_bar / (2.0 * np.sum(dist ** -4.0)) == pytest.approx(1.0, abs=1e-12)


_SOURCE = np.array([0.3, -1.2, 2.0]) / np.linalg.norm([0.3, -1.2, 2.0])
_SQUARE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@pytest.mark.parametrize("magnets, field_point, axis", [
    ([[0.0, 0.0, 0.0]], 1e-9 * _SOURCE, _SOURCE),
    ([[0.0, 0.0, 0.0]], _SOURCE, _SOURCE),
    ([[0.0, 0.0, 0.0]], 1e30 * _SOURCE, _SOURCE),
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [3.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    (_SQUARE, [0.0, 0.0, 0.7], [0.0, 0.0, 1.0]),
])
def test_axisymmetric_operators_are_solved_in_closed_form(monkeypatch, magnets, field_point, axis):
    """A single dipole, an on-axis pair and a 4-fold axis give a zonal operator:
    the axis and 2 _FAMILY_SIZE cone points come back without the null-space
    solve."""
    def not_called(*args, **kwargs):
        raise AssertionError("the closed form should not need this")

    monkeypatch.setattr(algebra, "_eigenpoints", not_called)
    alg = build_algebra(DipoleConfig(magnets, field_point))
    sol = self_eigenvectors(alg)
    assert not sol.complete
    assert len(sol.moments) == 1 + 2 * _FAMILY_SIZE
    best = max(sol.moments, key=lambda m: abs(float(m @ alg.matrix(m) @ m)))
    assert min(np.linalg.norm(best - axis), np.linalg.norm(best + axis)) <= 1e-12
    r, _ = _self_eigen_system(MagneticAlgebra(alg.basis_images * (1.0 / alg.scale)), np.array(sol.moments))
    assert np.linalg.norm(r, axis=1).max() <= 1e-11


_TRIANGLE = np.array([[np.cos(t), np.sin(t), 0.0] for t in 2.0 * np.pi * np.arange(3) / 3.0])


@pytest.mark.parametrize("magnets, field_point", [
    (_TRIANGLE, [0.0, 0.0, 1.5]),  # axisymmetric Gram, trigonal cubic
    ([[0.0, 0.0, 0.0], [60.0, 40.0, -20.0]], [0.3, -1.2, 2.0]),  # second magnet at 9e-7 of the first
])
def test_nearly_axisymmetric_operators_take_the_algebraic_solve(monkeypatch, magnets, field_point):
    """The trigonal cubic's Gram spectrum is 2-fold: it is solved through its 3 mirror
    planes, without the null-space solve, which certifies the pair, whose Gram eigenvalues
    are 1e-6 apart.  Both are complete, and no moment of the oracle beats lambda_bar."""
    eigenpoints = algebra._eigenpoints
    calls = []
    monkeypatch.setattr(algebra, "_eigenpoints", lambda t: calls.append(t) or eigenpoints(t))
    alg = build_algebra(DipoleConfig(magnets, field_point))
    wc = lambda_bar_exact(alg)
    assert len(calls) == (len(magnets) == 2)
    assert wc.complete
    bf = lambda_bar_bruteforce(alg, n_samples=20000, refine_steps=100, seed=0)
    assert bf.lambda_bar <= wc.lambda_bar * (1.0 + 1e-12)
    assert wc.lambda_bar <= bf.lambda_bar + sampling_tolerance(bf.lambda_bar, 20000)


def test_a_trigonal_cubic_passes_the_gram_test_and_fails_the_residual():
    """A zonal operator's Gram split [2, 1] alone does not make one: the trigonal cubic is
    over 1e-3 of its scale from t(a,a,a) Z_a about its Gram axis a, with Z_a the zonal
    cubic, and its mirror planes give a finite set of Z-eigenvectors, complete, where a
    zonal operator's family planes give the axis and 2 _FAMILY_SIZE cone points."""
    alg = build_algebra(DipoleConfig(_TRIANGLE, [0.0, 0.0, 1.5]))
    w, v = np.linalg.eigh(alg.gram)
    assert [len(g) for g in algebra._group_eigenvalues(w, algebra._PLANE_GROUP_RTOL)] == [2, 1]
    t, a = alg.basis_images / alg.scale, v[:, 2]
    a_eye = np.einsum("i,jk->ijk", a, np.eye(3))
    zonal = 0.5 * (5.0 * np.einsum("i,j,k->ijk", a, a, a) - a_eye - a_eye.transpose(1, 0, 2) - a_eye.transpose(1, 2, 0))
    assert np.linalg.norm(t - np.einsum("ijk,i,j,k->", t, a, a, a) * zonal) > 1e-3
    sol = self_eigenvectors(alg)
    assert sol.complete
    assert len(sol.moments) < 1 + 2 * _FAMILY_SIZE


def _multistart_reference(alg):
    """Distinct moments projected Newton reaches from 200 Fibonacci starts in a seeded frame."""
    unit_alg = MagneticAlgebra(alg.basis_images * (1.0 / alg.scale))
    starts = fibonacci_sphere(200) @ random_frame(np.random.default_rng(0)).T
    x, converged = _converge(np.repeat(unit_alg.basis_images[None], len(starts), axis=0), starts)
    return _distinct(x[converged])


def _assert_matches_the_multistart(alg):
    sol = self_eigenvectors(alg)
    reference = _multistart_reference(alg)
    cosines = np.abs(np.array(reference) @ np.array(sol.moments).T)
    assert cosines.shape[0] == cosines.shape[1]
    assert cosines.max(axis=0).min() >= 1.0 - 1e-8 and cosines.max(axis=1).min() >= 1.0 - 1e-8
    wc = lambda_bar_exact(alg)
    tau = [abs(float(m @ alg.matrix(m) @ m)) for m in reference]
    expected = _worst_case(alg, reference[int(np.argmax(tau))]).lambda_bar
    assert wc.lambda_bar == pytest.approx(expected, rel=2e-15, abs=0.0)
    bf = lambda_bar_bruteforce(alg, n_samples=4000, refine_steps=80, seed=0)
    assert bf.lambda_bar <= wc.lambda_bar * (1.0 + 1e-12)
    return sol


@pytest.mark.parametrize("i", [7, 18, 61, 112, 127, 434, 448, 464, 523])
def test_six_pair_draws_with_eigenpoints_far_out_in_a_chart_are_certified(i):
    """Draws of the six-pair corpus with eigenpoints far out toward the line at infinity of
    the chart (1, y, z), or in near-double real pairs: the null-space solve certifies them,
    with the moments and lambda_bar of a dense multistart."""
    assert _assert_matches_the_multistart(build_algebra(six_pair_corpus()[i])).complete


def _singular_eigenpoint_configs():
    """An equilateral triangle's in-plane centre, five rotated, scaled and moved
    copies of it, and the triangle with a concentric hexagon ring."""
    out = [DipoleConfig(_TRIANGLE, [0.0, 0.0, 0.0])]
    for axis, angle, scale, centre in [([1, 2, 3], 0.7, 1e-3, [0.5, -1, 2]), ([-2, 1, 0.5], 2.1, 0.3, [0, 0, 0]),
                                       ([0, 1, -1], 1.3, 7.0, [3, 1, -2]), ([1, -1, 1], 2.9, 40.0, [-1, 0, 1]),
                                       ([0.2, 0.9, 0.4], 0.4, 1e3, [10, -20, 5])]:
        out.append(DipoleConfig(scale * _TRIANGLE @ rot_about(axis, angle).T + centre, centre))
    hexagon = 2.3 * np.array([[np.cos(t), np.sin(t), 0.0] for t in np.pi * (np.arange(6) + 0.5) / 3.0])
    return out + [DipoleConfig(np.vstack([_TRIANGLE, hexagon]), [0.0, 0.0, 0.0])]


@pytest.mark.parametrize("k", range(7))
def test_singular_eigenpoints_are_certified_in_closed_form(monkeypatch, k):
    """A singular eigenpoint's operator is sectoral about its Gram null axis a: its
    Z-eigenvectors are a and 3 in-plane lines, the moments and lambda_bar of a dense
    multistart, certified complete through its mirror planes without the null-space
    solve.  The off-plane polynomial vanishes on the plane orthogonal to a, where P = 0."""
    def not_called(*args, **kwargs):
        raise AssertionError("the closed form should not need this")

    monkeypatch.setattr(algebra, "_eigenpoints", not_called)
    sol = _assert_matches_the_multistart(build_algebra(_singular_eigenpoint_configs()[k]))
    assert sol.complete
    assert len(sol.moments) == 4


def test_a_nearly_singular_eigenpoint_fails_the_residual_and_the_certificate(monkeypatch):
    """Moving one magnet of the triangle by 1e-9 keeps the Gram split [1, 2] but not the
    sectoral form.  The null space is 7-dimensional, but two of the 5 real eigenpoints
    near the null axis merge, so the null-space certificate fails.  All the magnets stay
    in one plane, and the mirror plane through the moved magnet stays too: solved
    through them, its 4 moments are complete, without the null-space solve."""
    magnets = _TRIANGLE + [[1e-9, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    alg = build_algebra(DipoleConfig(magnets, [0.0, 0.0, 0.0]))
    unit_alg = MagneticAlgebra(alg.basis_images * (1.0 / alg.scale))
    w, axes = np.linalg.eigh(unit_alg.gram)
    assert [len(g) for g in algebra._group_eigenvalues(w, algebra._PLANE_GROUP_RTOL)] == [1, 2]
    x, real, gap = algebra._eigenpoints(unit_alg.basis_images[None])
    assert gap[0] >= algebra._RANK_GAP and real.sum() == 5
    moments, converged = _converge(np.repeat(unit_alg.basis_images[None], 5, axis=0), x[0, real[0]])
    assert len(_distinct(moments[converged])) == 4  # fewer than the real points: not certified
    eigenpoints = algebra._eigenpoints
    calls = []
    monkeypatch.setattr(algebra, "_eigenpoints", lambda t: calls.append(t) or eigenpoints(t))
    sol = _assert_matches_the_multistart(alg)
    assert sol.complete
    assert len(sol.moments) == 4
    assert len(calls) == 0


def _nearly_zonal_configs():
    """Draw 271 of random_mirror_config from default_rng(3) and draw 117 of
    random_coplanar_config from default_rng(0): nearly zonal operators, Gram
    eigenvalues in the ratios (1, 1, 3) to 2e-6."""
    rng = np.random.default_rng(3)
    mirror = [random_mirror_config(rng)[0] for _ in range(272)][271]
    rng = np.random.default_rng(0)
    return [mirror, [random_coplanar_config(rng)[0] for _ in range(118)][117]]


@pytest.mark.parametrize("k", range(2))
def test_nearly_zonal_draws_are_certified_with_five_moments(k):
    """The null-space solve certifies both, with the 5 moments of a dense multistart."""
    sol = _assert_matches_the_multistart(build_algebra(_nearly_zonal_configs()[k]))
    assert sol.complete
    assert len(sol.moments) == 5


_FAR_MAGNET = DipoleConfig([[1.0, 0.0, 0.0], [300.0, 320.0, 240.0]], [0.0, 0.0, 0.0])


def test_a_far_magnet_fails_the_rank_gap_and_keeps_lambda_bar_in_the_weight_bracket():
    """The second magnet weighs 1.6e-11 of the first: the operator is within 1e-10 of
    zonal and the rank gap fails, but the plane of the two magnets is exactly invariant
    and its off-plane polynomial does not vanish, so the planar solve is complete, and
    lambda_bar lies in the bracket 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w of the
    weights w = d^-4 (the zonal cubic about each magnet has spectral norm 1)."""
    alg = build_algebra(_FAR_MAGNET)
    _, gap = algebra._eigenpoints(alg.basis_images[None] / alg.scale)[1:]
    assert gap[0] < algebra._RANK_GAP
    wc = lambda_bar_exact(alg)
    assert wc.complete
    w = _FAR_MAGNET.separations()[1] ** -4.0
    assert 2.0 * (2.0 * w.max() - w.sum()) <= wc.lambda_bar <= 2.0 * w.sum()


def _fold():
    """A NONPLANAR operator where two real eigenpoints nearly meet: A + s B, A and B drawn
    by random_algebra, with s 1e-9 past the fold where two complex eigenpoints turn real.
    From 1e-12 to 1e-8 past it the two converge to one moment, so the certificate fails."""
    rng = np.random.default_rng(2)
    a, b = random_algebra(rng), random_algebra(rng)
    return MagneticAlgebra(a.basis_images + 0.4607236558570228 * b.basis_images)


def test_a_failed_certificate_starts_newton_from_the_gram_axes(monkeypatch):
    """The fold operator has no invariant plane and fails the certificate, its nearly
    double real points converging to fewer moments than they are.  Whatever points the
    null space gives it (here all 7 at one), the fallback also starts Newton from its Gram
    eigenvectors: each of them that converges gives a moment, and complete is false."""
    assert find_invariant_planes(_fold()) == []
    assert not self_eigenvectors(_fold()).complete
    eigenpoints = algebra._eigenpoints

    def at_one_point(t):
        x, real, gap = eigenpoints(t)
        return np.broadcast_to(x[:, :1], x.shape).copy(), real, gap

    monkeypatch.setattr(algebra, "_eigenpoints", at_one_point)
    alg = _fold()
    sol = self_eigenvectors(alg)
    assert not sol.complete
    t = alg.basis_images / alg.scale
    axes = np.linalg.eigh(np.einsum("iab,jab->ij", t, t))[1].T
    reached, converged = _converge(np.repeat(t[None], 3, axis=0), axes)
    assert converged.any()
    for x in reached[converged]:
        assert max(abs(float(x @ m)) for m in sol.moments) >= 1.0 - 1e-8


def _harmonic(a):
    """The symmetric traceless part of a 3x3x3 array."""
    def sym(b):
        return sum(b.transpose(p) for p in itertools.permutations(range(3))) / 6.0

    s = sym(a)
    return s - 0.6 * sym(np.einsum("i,jk->ijk", np.einsum("ijj->i", s), np.eye(3)))


def test_lambda_bar_moves_at_most_eps_under_a_perturbation_of_norm_eps():
    """lambda_bar is the spectral norm of the operator, so it moves by at most ||E||_F = 1
    times eps.  Around zonal, sectoral and xyz forms T0, whose lambda_bar is 1 at unit
    scale, 1 and 1 / sqrt(27), every draw of eps E with eps from 1e-14 to 1e-2 keeps
    |lambda_bar(T0 + eps E) - lambda_bar(T0)| <= eps, with no sampling slack."""
    e = np.eye(3)
    z, c = e[2], e[0] + 1j * e[1]
    forms = [(2.5 * _harmonic(np.einsum("i,j,k->ijk", z, z, z)), 1.0),  # (5 z^3 - 3 z) / 2 at z = x . e_z
             (np.einsum("i,j,k->ijk", c, c, c).real, 1.0),  # Re (x . c)^3
             (_harmonic(np.einsum("i,j,k->ijk", *e)), 1.0 / np.sqrt(27.0))]  # x_0 x_1 x_2
    rng = np.random.default_rng(0)
    algs, expected, eps = [], [], 10.0 ** np.arange(-14, -1)
    for t0, lam in forms:
        assert np.abs(_harmonic(t0) - t0).max() <= 1e-15
        norm = np.linalg.norm(t0)
        for _ in range(40):
            r = random_frame(rng)
            t = np.einsum("ai,bj,ck,ijk->abc", r, r, r, t0 / norm)
            pert = _harmonic(rng.standard_normal((3, 3, 3)))
            algs += [MagneticAlgebra(t + x * pert / np.linalg.norm(pert)) for x in eps]
            expected.append(np.full(len(eps), lam / norm))
    self_eigenvectors_batch(algs)
    got = np.array([lambda_bar_exact(a).lambda_bar for a in algs])
    assert np.all(np.abs(got - np.concatenate(expected)) <= np.tile(eps, 3 * 40))


def test_certified_and_fallback_operators_keep_a_stacked_result_bitwise_the_solo_one():
    """Certified operators, planar ones among them, the far magnet and the nearly
    singular triangle, which the planar solve certifies, a zonal form off by 1e-9, whose
    nearly invariant planes give its moments, and the fold operator, which falls back,
    shuffled into one stack: each gets, bitwise, the moments and complete of its solo
    solve."""
    corpus = six_pair_corpus()
    triangle = DipoleConfig(_TRIANGLE + [[1e-9, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    algs = [build_algebra(cfg) for cfg in [corpus[i] for i in (0, 7, 18, 523)] + _nearly_zonal_configs()]
    algs += [build_algebra(_FAR_MAGNET), build_algebra(triangle)]
    zonal = build_algebra(DipoleConfig([[0.0, 0.0, 0.0]], [0.3, -1.2, 2.0]))
    pert = random_algebra(np.random.default_rng(1)).basis_images
    algs.append(MagneticAlgebra(zonal.basis_images + 1e-9 * zonal.scale * pert / np.linalg.norm(pert)))
    algs.append(_fold())
    alone = [self_eigenvectors(MagneticAlgebra(a.basis_images)) for a in algs]
    assert [sol.complete for sol in alone[-3:]] == [True, False, False]
    order = np.random.default_rng(2).permutation(len(algs))
    for i, sol in zip(order, self_eigenvectors_batch([algs[i] for i in order])):
        assert sol.complete == alone[i].complete
        assert np.array_equal(np.array(sol.moments), np.array(alone[i].moments))


def _mixed_stack_configs():
    """A generic operator, a single dipole and an equilateral triangle's centre (zonal
    and sectoral), a mirror draw, a nearly zonal one and the far magnet."""
    rng = np.random.default_rng(17)
    return [random_config(rng), DipoleConfig([[0.3, -0.2, 0.1]], [-0.4, 0.5, 0.9]),
            DipoleConfig(_TRIANGLE, [0.0, 0.0, 0.0]), random_mirror_config(rng)[0], _nearly_zonal_configs()[0],
            _FAR_MAGNET]


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 4, 0, 3, 5, 1],
                                   [1, 3, 5, 3, 0, 2, 4, 0]])
def test_stacked_solve_matches_one_operator_at_a_time(monkeypatch, order):
    """self_eigenvectors_batch gives, bitwise, the moments, their order and complete
    that solving each operator alone gives, whatever the order of the batch (an
    object listed twice included), the fold operator last.  The planar solve runs
    first for the dipole, the triangle and the far magnet, whose Gram spectra are
    2-fold, the null-space solve once for the other four, the planar solve again for
    the fold, which it does not certify and which has no plane, and Newton twice (the
    real points, then the fold's fallback); each result lands in its algebra's memo,
    where self_eigenvectors reads it."""
    configs = _mixed_stack_configs()
    alone = [self_eigenvectors(build_algebra(cfg)) for cfg in configs] + [self_eigenvectors(_fold())]
    assert [sol.complete for sol in alone] == [True, False, True, True, True, True, False]
    assert len(alone[1].moments) == 1 + 2 * _FAMILY_SIZE

    eigenpoints = algebra._eigenpoints
    stacks = []
    monkeypatch.setattr(algebra, "_eigenpoints", lambda t: stacks.append(len(t)) or eigenpoints(t))
    converge = algebra._converge
    newton = []
    monkeypatch.setattr(algebra, "_converge", lambda images, m: newton.append(len(m)) or converge(images, m))
    planar = algebra._planar_solve
    planes = []
    monkeypatch.setattr(algebra, "_planar_solve", lambda algs, t: planes.append(len(algs)) or planar(algs, t))
    built = [build_algebra(cfg) for cfg in configs] + [_fold()]
    order = order + [6]
    algs = [built[i] for i in order]
    got = self_eigenvectors_batch(algs)
    assert planes == [3, 1]
    assert stacks == [4]
    assert len(newton) == 2
    for i, alg, sol in zip(order, algs, got):
        assert sol.complete == alone[i].complete
        assert np.array_equal(np.array(sol.moments), np.array(alone[i].moments))
        assert self_eigenvectors(alg) is sol
    assert len(stacks) == 1 and len(planes) == 2  # the reads above solved nothing again
    assert len(newton) == 2


def test_verify_theorems_solves_its_three_operators_as_one_stack(monkeypatch):
    """alg, the drawn other and the very alg + other whose worst case is checked for subadditivity."""
    from magalg import extremal

    batch, eigenpoints = extremal.self_eigenvectors_batch, algebra._eigenpoints
    stacks, solves = [], []
    monkeypatch.setattr(extremal, "self_eigenvectors_batch", lambda algs: stacks.append(algs) or batch(algs))
    monkeypatch.setattr(algebra, "_eigenpoints", lambda t: solves.append(len(t)) or eigenpoints(t))
    cfg, n_hat = random_mirror_config(np.random.default_rng(4))
    alg = build_algebra(cfg)
    ms, other, both = theorem_draws(alg, 3, 50)
    verify_theorems([alg], [planar_structure(alg, n_hat)], [(ms, other, both)], [fibonacci_sphere(500)])
    assert stacks == [[alg, other, both]]
    assert np.array_equal(both.basis_images, alg.basis_images + other.basis_images)
    assert solves == [3]  # the three worst cases read that one solve


def test_lambda_bar_exact_takes_the_first_best_moment_as_a_loop_does():
    """One batch of x^T F_x x picks, bitwise, the moment that max over the moments picks
    with x @ F_x @ x per moment, also among the tied symmetric ones of a tetrahedral centre."""
    from test_algebra import tetrahedral_centre

    rng = np.random.default_rng(23)
    configs = [tetrahedral_centre(rng, shells)[0] for shells in (1, 2, 1)]
    configs += [random_mirror_config(rng)[0] for _ in range(10)] + [random_config(rng) for _ in range(10)]
    for cfg in configs:
        alg = build_algebra(cfg)
        moments = self_eigenvectors(alg).moments
        best = max(moments, key=lambda v: abs(float(v @ alg.matrix(v) @ v)))
        assert np.array_equal(lambda_bar_exact(alg).M_bar, best)


@pytest.mark.parametrize("radii", [[1.0], [0.6, 1.3]])
def test_axis_aligned_tetrahedral_centre_is_certified(radii):
    """Its 7 Z-eigenvector pairs are the 3 coordinate axes and the 4 vertex
    directions; h / g takes 7 distinct values at them, so the null-space solve separates them."""
    from test_algebra import TETRA

    fp = np.array([0.2, -0.1, 0.3])
    alg = build_algebra(DipoleConfig(np.concatenate([fp + r * TETRA for r in radii]), fp))
    sol = self_eigenvectors(alg)
    assert sol.complete
    assert len(sol.moments) == 7
    for x in np.concatenate([np.eye(3), TETRA]):
        assert max(abs(float(x @ m)) for m in sol.moments) >= 1.0 - 1e-12


def test_locate_candidates_best_matches_oracle(rng):
    for cfg, n_hat in planar_corpus(rng, 60):
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        cands = locate_candidates(alg, bounds_report(alg, plane))
        bf = lambda_bar_bruteforce(alg, n_samples=2000, refine_steps=60, seed=0)
        tol = sampling_tolerance(bf.lambda_bar, 2000)
        best = max(c.lambda_abs for c in cands)
        assert best >= bf.lambda_bar - tol
        assert best <= bf.lambda_bar + tol


def test_detzero_candidates_have_sqrt_half_energy(rng):
    """Singular-image candidates satisfy |lambda| = sqrt(tr F^2 / 2)."""
    for _ in range(20):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        for c in locate_candidates(alg, bounds_report(alg, plane)):
            if c.kind is CandidateKind.DETZERO:
                f = alg.matrix(c.moment)
                tr2 = float(np.einsum("ab,ab->", f, f))
                assert c.lambda_abs == pytest.approx(np.sqrt(tr2 / 2.0), rel=1e-6)


def test_verify_theorems_single_dipole(single_dipole_algebra, dipole_plane):
    checks = theorems(single_dipole_algebra, dipole_plane, 500, 0, 2000)
    assert all(ok for _, ok in checks.values()), {k: v for k, v in checks.items() if not v[1]}
    # the dipole sits exactly on the chain boundary: zero residual
    assert checks["plane_chain"][0] <= 1e-12


def test_verify_theorems_trivial(antipodal_config):
    checks = theorems(build_algebra(antipodal_config), None, 1000, 0, 2000)
    assert all(ok for _, ok in checks.values())


def test_verify_theorems_random_planar(rng):
    for _ in range(10):
        cfg, n_hat = random_mirror_config(rng)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        checks = theorems(alg, plane, 300, 5, 1500)
        assert all(ok for _, ok in checks.values()), {k: v for k, v in checks.items() if not v[1]}


def test_subadditivity(rng):
    from magalg.corpus import random_algebra

    for _ in range(20):
        a = random_algebra(rng)
        b = random_algebra(rng)
        n = 1200
        la = lambda_bar_bruteforce(a, n_samples=n, refine_steps=40, seed=0).lambda_bar
        lb = lambda_bar_bruteforce(b, n_samples=n, refine_steps=40, seed=0).lambda_bar
        lab = lambda_bar_bruteforce(a + b, n_samples=n, refine_steps=40, seed=0).lambda_bar
        assert lab <= la + lb + 2.0 * sampling_tolerance(max(la, lb, lab), n)
        ea, eb, eab = (lambda_bar_exact(x).lambda_bar for x in (a, b, a + b))
        assert eab <= (ea + eb) * (1.0 + 1e-12)


def test_r_ordering(rng):
    """No sampled moment may beat the top Gram moment in magnitude while
    spreading its eigenvalue pair wider."""
    from magalg.corpus import random_moments

    for _ in range(20):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        m_f, lam_f = rep.M_F, rep.lambda_F
        lam_mf, _, r_mf = (float(x[0]) for x in principal_split_batch(alg, m_f[None, :]))
        ms = random_moments(rng, 500)
        lam, _, r = principal_split_batch(alg, ms)
        beats = lam ** 2 > lam_mf ** 2 + 1e-9 * max(lam_f, 1e-300)
        if beats.any():
            assert (r[beats] <= r_mf + 1e-8).all()


def test_candidates_of_a_far_single_dipole_match_the_near_one():
    """Candidate search is scale-free: no cubic invariant underflows out to 1e38 m."""
    def candidates(d):
        alg = build_algebra(DipoleConfig([[0.0, 0.0, 0.0]], [0.0, 0.0, d]))
        return locate_candidates(alg, bounds_report(alg, planar_structure(alg, [0.0, 1.0, 0.0])))

    near = candidates(1.0)
    for d in (1e20, 1e30, 1e38):
        far = candidates(d)
        # GRAM_TOP and IN_PLANE_MAX tie at 2 / d^4, so rounding may swap them
        assert sorted(c.kind.value for c in far) == sorted(c.kind.value for c in near)
        scaled = np.array([c.lambda_abs for c in far]) * d ** 4
        assert scaled == pytest.approx([c.lambda_abs for c in near], rel=1e-12)
        for c in far:
            assert any(n.kind is c.kind and np.abs(n.moment - c.moment).max() <= 1e-12 for n in near)


def _null_space_solve(alg):
    """The null-space solve alone: the distinct moments Newton reaches from the real
    eigenpoints, and whether self_eigenvectors_batch's certificate holds for them."""
    t = alg.basis_images * (1.0 / alg.scale)
    x, real, gap = algebra._eigenpoints(t[None])
    moments, converged = _converge(np.repeat(t[None], real[0].sum(), axis=0), x[0, real[0]])
    found = _distinct(moments[converged])
    return found, gap[0] >= algebra._RANK_GAP and len(found) == real[0].sum()


@pytest.mark.parametrize("corpus", ["six-pair", "singular", "nearly-zonal"])
def test_the_planar_solve_matches_the_null_space_solve_where_it_certifies(corpus):
    """On every operator with an invariant plane whose null-space solve is certified, the
    planar solve is complete, with the same moments, up to sign at cosine 1e-8, and the
    same lambda_bar to 1e-14: 447 of the six-pair corpus and both nearly zonal draws.  The
    null-space solve certifies no singular eigenpoint; the dense multistart checks those."""
    configs = {"six-pair": six_pair_corpus, "singular": _singular_eigenpoint_configs,
               "nearly-zonal": _nearly_zonal_configs}[corpus]()
    compared = 0
    for cfg in configs:
        alg = build_algebra(cfg)
        reference, certified = _null_space_solve(alg)
        solved = algebra._planar_solve([alg], (alg.basis_images * (1.0 / alg.scale))[None])[0]
        if solved is None or not certified:
            continue
        sol = solved[0]
        assert sol.complete
        cosines = np.abs(np.array(reference) @ np.array(sol.moments).T)
        assert cosines.shape[0] == cosines.shape[1]
        assert cosines.max(axis=0).min() >= 1.0 - 1e-8 and cosines.max(axis=1).min() >= 1.0 - 1e-8
        best = [max(abs(float(m @ alg.matrix(m) @ m)) for m in ms) for ms in (reference, sol.moments)]
        assert best[1] == pytest.approx(best[0], rel=1e-14, abs=0.0)
        compared += 1
    assert compared == {"six-pair": 447, "singular": 0, "nearly-zonal": 2}[corpus]
