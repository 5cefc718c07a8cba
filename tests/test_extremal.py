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
    plane_gram_moment,
    principal_abs,
    principal_split_batch,
    verify_theorems,
)
from magalg.linalg3 import det3, principal_split, rot_about
from magalg.sphere import fibonacci_sphere

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def dipole_plane(single_dipole_algebra):
    return planar_structure(single_dipole_algebra, [0.0, 1.0, 0.0])


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
    assert bounds_report(single_dipole_algebra, dipole_plane).abs_lambda_MF == pytest.approx(2.0, abs=1e-13)
    m_f, lam_f = plane_gram_moment(single_dipole_algebra, dipole_plane)
    assert lam_f == pytest.approx(6.0, abs=1e-13)
    assert np.allclose(np.abs(m_f), [0, 0, 1.0], atol=1e-12)


def test_closed_form_normal_case_returns_norm_p():
    """When the normal carries the top Gram eigenvalue the formula gives ||P||."""
    # mirror pair with a tall stack: the normal direction dominates
    from magalg.dipoles import gen_mirror_symmetric

    cfg = gen_mirror_symmetric([([0.6, 0.0, 0.0], 1.5)], [], [0, 0, 1.0])
    alg = build_algebra(cfg)
    plane = planar_structure(alg, [0, 0, 1.0])
    m_f, lam_f = plane_gram_moment(alg, plane)
    if abs(float(m_f @ plane.n_hat)) > 0.99:  # normal-dominant geometry
        assert bounds_report(alg, plane).abs_lambda_MF == pytest.approx(plane.norm_P, rel=1e-12)


def test_closed_form_matches_direct_on_random_planar(rng):
    for _ in range(100):
        cfg, n_hat = random_coplanar_config(rng)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        m_f, _ = plane_gram_moment(alg, plane)
        closed = bounds_report(alg, plane).abs_lambda_MF
        direct = principal_abs(alg, m_f)
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
        unit_alg = alg * (1.0 / alg.scale)
        x, converged = _converge(unit_alg, fibonacci_sphere(50) @ random_frame(np.random.default_rng(0)).T)
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

    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", not_called)
    alg = build_algebra(DipoleConfig(magnets, field_point))
    sol = self_eigenvectors(alg)
    assert not sol.complete
    assert len(sol.moments) == 1 + 2 * _FAMILY_SIZE
    best = max(sol.moments, key=lambda m: abs(float(m @ alg.matrix(m) @ m)))
    assert min(np.linalg.norm(best - axis), np.linalg.norm(best + axis)) <= 1e-12
    r, _ = _self_eigen_system(alg * (1.0 / alg.scale), np.array(sol.moments))
    assert np.linalg.norm(r, axis=1).max() <= 1e-11


_TRIANGLE = np.array([[np.cos(t), np.sin(t), 0.0] for t in 2.0 * np.pi * np.arange(3) / 3.0])


@pytest.mark.parametrize("magnets, field_point", [
    (_TRIANGLE, [0.0, 0.0, 1.5]),  # axisymmetric Gram, trigonal cubic
    ([[0.0, 0.0, 0.0], [60.0, 40.0, -20.0]], [0.3, -1.2, 2.0]),  # second magnet at 9e-7 of the first
])
def test_nearly_axisymmetric_operators_take_the_algebraic_solve(monkeypatch, magnets, field_point):
    solve = algebra._algebraic_eigenvectors
    calls = []
    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", lambda a: calls.append(a) or solve(a))
    alg = build_algebra(DipoleConfig(magnets, field_point))
    wc = lambda_bar_exact(alg)
    assert len(calls) == 1
    bf = lambda_bar_bruteforce(alg, n_samples=20000, refine_steps=100, seed=0)
    assert bf.lambda_bar <= wc.lambda_bar * (1.0 + 1e-12)
    assert wc.lambda_bar <= bf.lambda_bar + sampling_tolerance(bf.lambda_bar, 20000)


def test_a_trigonal_cubic_passes_the_gram_test_and_fails_the_residual():
    alg = build_algebra(DipoleConfig(_TRIANGLE, [0.0, 0.0, 1.5]))
    w = np.linalg.eigvalsh(alg.gram)
    assert [len(g) for g in algebra._group_eigenvalues(w, algebra._PLANE_GROUP_RTOL)] == [2, 1]
    assert algebra._axis_form(alg.basis_images / alg.scale) is None


def _multistart_reference(alg):
    """Distinct moments projected Newton reaches from 200 Fibonacci starts in a seeded frame."""
    unit_alg = alg * (1.0 / alg.scale)
    x, converged = _converge(unit_alg, fibonacci_sphere(200) @ random_frame(np.random.default_rng(0)).T)
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
    multistart, certified complete without the null-space solve."""
    def not_called(*args, **kwargs):
        raise AssertionError("the closed form should not need this")

    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", not_called)
    sol = _assert_matches_the_multistart(build_algebra(_singular_eigenpoint_configs()[k]))
    assert sol.complete
    assert len(sol.moments) == 4


def test_a_nearly_singular_eigenpoint_fails_the_residual_and_the_certificate(monkeypatch):
    """Moving one magnet of the triangle by 1e-9 keeps the Gram split [1, 2] but not the
    sectoral form.  The null space is 7-dimensional, but two of the 5 real eigenpoints
    near the null axis merge, so complete is false."""
    magnets = _TRIANGLE + [[1e-9, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    alg = build_algebra(DipoleConfig(magnets, [0.0, 0.0, 0.0]))
    unit_alg = alg * (1.0 / alg.scale)
    w = np.linalg.eigvalsh(unit_alg.gram)
    assert [len(g) for g in algebra._group_eigenvalues(w, algebra._PLANE_GROUP_RTOL)] == [1, 2]
    assert algebra._axis_form(unit_alg.basis_images) is None
    _, real, gap = algebra._eigenpoints(unit_alg.basis_images[None])
    assert gap[0] >= algebra._RANK_GAP and real.sum() == 5
    solve = algebra._algebraic_eigenvectors
    calls = []
    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", lambda a: calls.append(a) or solve(a))
    sol = _assert_matches_the_multistart(alg)
    assert not sol.complete
    assert len(sol.moments) == 4
    assert len(calls) == 1


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
    zonal and the rank gap fails, yet the fallback reaches the axis, so lambda_bar lies
    in the bracket 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w of the weights w = d^-4
    (the zonal cubic about each magnet has spectral norm 1)."""
    alg = build_algebra(_FAR_MAGNET)
    _, gap = algebra._eigenpoints(alg.basis_images[None] / alg.scale)[1:]
    assert gap[0] < algebra._RANK_GAP
    wc = lambda_bar_exact(alg)
    assert not wc.complete
    w = _FAR_MAGNET.separations()[1] ** -4.0
    assert 2.0 * (2.0 * w.max() - w.sum()) <= wc.lambda_bar <= 2.0 * w.sum()


def test_a_failed_certificate_starts_newton_from_the_gram_axes(monkeypatch):
    """Whatever points the null space gives the far-magnet operator (here all 7 on the cone
    about its axis e_x), the fallback also starts Newton from its Gram eigenvectors, one of
    them next to the axis, where lambda_bar is attained."""
    eigenpoints = algebra._eigenpoints

    def on_the_cone(t):
        x, real, gap = eigenpoints(t)
        return np.broadcast_to([1.0, 2.0, 0.0] / np.sqrt(5.0), x.shape).copy(), real, gap

    monkeypatch.setattr(algebra, "_eigenpoints", on_the_cone)
    wc = lambda_bar_exact(build_algebra(_FAR_MAGNET))
    assert not wc.complete
    assert 1.99999999997 <= wc.lambda_bar <= 2.00000000003


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
    """Certified operators and three that fall back (the far magnet, the nearly singular
    triangle and a zonal form off by 1e-9), shuffled into one stack: each gets, bitwise,
    the moments and complete of its solo solve."""
    corpus = six_pair_corpus()
    triangle = DipoleConfig(_TRIANGLE + [[1e-9, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    algs = [build_algebra(cfg) for cfg in [corpus[i] for i in (0, 7, 18, 523)] + _nearly_zonal_configs()]
    algs += [build_algebra(_FAR_MAGNET), build_algebra(triangle)]
    zonal = build_algebra(DipoleConfig([[0.0, 0.0, 0.0]], [0.3, -1.2, 2.0]))
    pert = random_algebra(np.random.default_rng(1)).basis_images
    algs.append(MagneticAlgebra(zonal.basis_images + 1e-9 * zonal.scale * pert / np.linalg.norm(pert)))
    alone = [self_eigenvectors(MagneticAlgebra(a.basis_images)) for a in algs]
    assert sum(not sol.complete for sol in alone) == 3
    order = np.random.default_rng(2).permutation(len(algs))
    for i, sol in zip(order, self_eigenvectors_batch([algs[i] for i in order])):
        assert sol.complete == alone[i].complete
        assert np.array_equal(np.array(sol.moments), np.array(alone[i].moments))


def _mixed_stack_configs():
    """Two certified generic operators, a single dipole and an equilateral triangle's
    centre (the zonal and the sectoral closed form), a nearly zonal operator the
    null-space solve certifies and the far magnet, which falls back."""
    rng = np.random.default_rng(17)
    return [random_config(rng), DipoleConfig([[0.3, -0.2, 0.1]], [-0.4, 0.5, 0.9]),
            DipoleConfig(_TRIANGLE, [0.0, 0.0, 0.0]), random_mirror_config(rng)[0], _nearly_zonal_configs()[0],
            _FAR_MAGNET]


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 4, 0, 3, 5, 1],
                                   [1, 3, 5, 3, 0, 2, 4, 0]])
def test_stacked_solve_matches_one_operator_at_a_time(monkeypatch, order):
    """self_eigenvectors_batch gives, bitwise, the moments, their order and complete
    that solving each operator alone gives, whatever the order of the batch (an
    object listed twice included); the null-space solve runs once for all of them
    and each result lands in its algebra's memo, where self_eigenvectors reads it."""
    configs = _mixed_stack_configs()
    alone = [self_eigenvectors(build_algebra(cfg)) for cfg in configs]
    assert [sol.complete for sol in alone] == [True, False, True, True, True, False]
    assert len(alone[1].moments) == 1 + 2 * _FAMILY_SIZE

    solve = algebra._algebraic_eigenvectors
    stacks = []
    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", lambda units: stacks.append(len(units)) or solve(units))
    built = [build_algebra(cfg) for cfg in configs]
    algs = [built[i] for i in order]
    got = self_eigenvectors_batch(algs)
    assert stacks[0] == 4  # the generic, nearly zonal and far-magnet operators, each once; the dipole and triangle are closed forms
    for i, alg, sol in zip(order, algs, got):
        assert sol.complete == alone[i].complete
        assert np.array_equal(np.array(sol.moments), np.array(alone[i].moments))
        assert self_eigenvectors(alg) is sol
    assert len(stacks) == 1  # the reads above solved nothing again


def test_verify_theorems_solves_its_three_operators_as_one_stack(monkeypatch):
    """alg, the drawn other and the very alg + other whose worst case is checked for subadditivity."""
    from magalg import extremal

    batch, solve = extremal.self_eigenvectors_batch, algebra._algebraic_eigenvectors
    stacks, solves = [], []
    monkeypatch.setattr(extremal, "self_eigenvectors_batch", lambda algs: stacks.append(algs) or batch(algs))
    monkeypatch.setattr(algebra, "_algebraic_eigenvectors", lambda units: solves.append(len(units)) or solve(units))
    cfg, n_hat = random_mirror_config(np.random.default_rng(4))
    alg = build_algebra(cfg)
    verify_theorems(alg, planar_structure(alg, n_hat), trials=50, seed=3, n_samples=500)
    [(first, other, both)] = stacks
    assert first is alg
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
    checks = verify_theorems(single_dipole_algebra, dipole_plane, trials=500, seed=0, n_samples=2000)
    assert all(c.ok for c in checks.values()), {k: v for k, v in checks.items() if not v.ok}
    # the dipole sits exactly on the chain boundary: zero residual
    assert checks["plane_chain"].residual <= 1e-12


def test_verify_theorems_trivial(antipodal_config):
    checks = verify_theorems(build_algebra(antipodal_config), None)
    assert all(c.ok for c in checks.values())


def test_verify_theorems_random_planar(rng):
    for _ in range(10):
        cfg, n_hat = random_mirror_config(rng)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        checks = verify_theorems(alg, plane, trials=300, seed=5, n_samples=1500)
        assert all(c.ok for c in checks.values()), {k: v for k, v in checks.items() if not v.ok}


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
        m_f, lam_f = plane_gram_moment(alg, plane)
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
