import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magalg.algebra import (
    _FAMILY_ANGLES,
    _PLANE_GROUP_RTOL,
    _RANK_GAP,
    NotInvariantPlaneError,
    TrivialAlgebraError,
    _circle_normals,
    _distinct,
    _macaulay,
    _newton_step,
    _self_eigen_system,
    decompose,
    find_invariant_planes,
    gram_spectrum,
    plane_residual_batch,
    planar_structure,
    self_eigenvectors,
)
from magalg.corpus import (
    random_config,
    random_coplanar_config,
    random_frame,
    random_mirror_config,
    random_moments,
)
from magalg.dipoles import MagneticAlgebra, build_algebra
from magalg.linalg3 import canonical_sign, rot_about
from magalg.sphere import tangent_basis

SQRT2 = np.sqrt(2.0)
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / np.sqrt(3.0)


def tetrahedral_centre(rng, shells, frame=None):
    """Concentric, equally oriented tetrahedra around a random field point."""
    from magalg import DipoleConfig

    frame = random_frame(rng) if frame is None else frame
    fp = rng.uniform(-1.0, 1.0, 3)
    radii = rng.uniform(0.3, 2.0, shells)
    return DipoleConfig(np.concatenate([fp + r * TETRA @ frame.T for r in radii]), fp), frame


def test_check_algebra_clean(single_dipole_algebra):
    """The identity residuals that verify checks sit at rounding for a dipole."""
    assert not single_dipole_algebra.is_trivial()
    assert single_dipole_algebra.reciprocity_residual() <= 1e-13
    assert single_dipole_algebra.trace_residual() <= 1e-13


def test_check_algebra_trivial(antipodal_config):
    zero = build_algebra(antipodal_config)
    assert zero.is_trivial()
    assert zero.reciprocity_residual() == zero.trace_residual() == 0.0


def test_check_algebra_detects_broken_reciprocity(single_dipole_algebra):
    images = single_dipole_algebra.basis_images.copy()
    eps = 1e-3
    # perturb a12 of the first basis image symmetrically: the first image
    # stays symmetric but no longer agrees with the second on swapped slots
    images[0, 0, 1] += eps
    images[0, 1, 0] += eps
    assert MagneticAlgebra(images).reciprocity_residual() == pytest.approx(eps, rel=1e-12)


def test_gram_spectrum_single_dipole(single_dipole_algebra):
    gs = gram_spectrum(single_dipole_algebra)
    assert np.allclose(single_dipole_algebra.gram, np.diag([2.0, 2.0, 6.0]), atol=1e-14)
    assert gs.lambda_F == pytest.approx(6.0, abs=1e-13)
    assert np.allclose(np.abs(gs.M_F), [0, 0, 1.0], atol=1e-13)
    assert gs.multiplicity == 1


def test_gram_spectrum_zero_algebra(antipodal_config):
    alg = build_algebra(antipodal_config)
    assert gram_spectrum(alg).lambda_F == 0.0
    assert np.array_equal(alg.gram, np.zeros((3, 3)))


def test_gram_is_supremum_of_sampled_energy(rng):
    alg = build_algebra(random_config(rng))
    gs = gram_spectrum(alg)
    ms = random_moments(rng, 1000)
    tr2 = np.einsum("nab,nab->n", alg.matrices(ms), alg.matrices(ms))
    assert tr2.max() <= gs.lambda_F + 1e-9 * max(gs.lambda_F, 1.0)
    quad = np.einsum("na,ab,nb->n", ms, alg.gram, ms)
    assert np.abs(quad - tr2).max() <= 1e-10 * max(gs.lambda_F, 1.0)


def test_pair_config_has_two_exact_planes(pair_config):
    """Both the common plane (normal y) and the mirror plane (normal x)."""
    alg = build_algebra(pair_config)
    planes = find_invariant_planes(alg)
    normals = sorted(tuple(np.round(np.abs(p.n_hat), 9)) for p in planes)
    assert normals == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    by_axis = {int(np.argmax(np.abs(p.n_hat))): p for p in planes}
    py, px = by_axis[1], by_axis[0]
    assert py.norm_P == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-14)
    assert np.allclose(np.abs(py.P_hat), [0, 0, 1.0], atol=1e-13)
    assert px.norm_P == pytest.approx(3.0 / (4.0 * SQRT2), abs=1e-14)
    for p in planes:
        assert p.residual <= 1e-12
        assert p.gram_eigenvalue == pytest.approx(2.0 * p.norm_P ** 2, rel=1e-12)
        assert not p.degenerate


def test_single_dipole_plane_family(single_dipole_algebra):
    planes = find_invariant_planes(single_dipole_algebra)
    assert len(planes) >= 4
    assert all(p.degenerate for p in planes)
    for p in planes:
        assert abs(p.n_hat[2]) <= 1e-12  # normals orthogonal to the source axis
        assert p.gram_eigenvalue == pytest.approx(2.0, abs=1e-12)


def test_generic_3d_config_has_no_planes(rng):
    for _ in range(3):
        cfg = random_config(rng, n_min=5, n_max=5)
        alg = build_algebra(cfg)
        assert find_invariant_planes(alg) == []


def test_find_planes_rejects_trivial(antipodal_config):
    with pytest.raises(TrivialAlgebraError):
        find_invariant_planes(build_algebra(antipodal_config))


def test_triangle_isolated_planes_in_degenerate_eigenspace():
    """Equilateral triangle seen from its center: the in-plane Gram block
    is isotropic yet only the three mirror normals (plus the coplanar
    normal) are invariant."""
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    pts = np.stack([np.cos(ang), np.sin(ang), np.zeros(3)], axis=1)
    from magalg import DipoleConfig

    alg = build_algebra(DipoleConfig(pts, [0.0, 0.0, 0.0]))
    planes = find_invariant_planes(alg)
    assert len(planes) == 4
    in_plane = [p for p in planes if abs(p.n_hat[2]) < 1e-9]
    assert len(in_plane) == 3
    expected = {(0.0, 1.0), (np.sqrt(3) / 2, -0.5), (np.sqrt(3) / 2, 0.5)}
    got = {(round(abs(p.n_hat[0]), 6), round(p.n_hat[1] * np.sign(p.n_hat[0]) if p.n_hat[0] else abs(p.n_hat[1]), 6)) for p in in_plane}
    assert {(round(a, 6), round(b, 6)) for a, b in expected} == got
    for p in in_plane:
        assert p.norm_P == pytest.approx(3.75, abs=1e-12)
    coplanar = [p for p in planes if abs(p.n_hat[2]) > 1e-9][0]
    assert coplanar.norm_P <= 1e-13


@pytest.mark.parametrize("shells", [1, 2])
def test_tetrahedral_centre_has_the_six_mirror_planes(rng, shells):
    """Isotropic (3-fold) Gram spectrum: exactly the six mirror planes of
    the tetrahedron, with normals (e_i +- e_j)/sqrt(2) in its frame."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    for _ in range(10):
        cfg, frame = tetrahedral_centre(rng, shells)
        expected = [frame @ (np.eye(3)[i] + s * np.eye(3)[j]) / SQRT2 for i, j in pairs for s in (1, -1)]
        for scale in (1.0, 1e37):  # far field: the squared residuals must not underflow
            alg = build_algebra(cfg.scaled(scale))
            assert gram_spectrum(alg).multiplicity == 3
            planes = find_invariant_planes(alg)
            assert len(planes) == 6
            for p in planes:
                assert not p.degenerate
                assert min(min(np.linalg.norm(p.n_hat - e), np.linalg.norm(p.n_hat + e)) for e in expected) <= 1e-12
                assert p.residual <= 1e-12 * alg.scale


# a tetrahedral centre one of whose seven circles has a squared residual
# without a 6th harmonic: its stationary-point polynomial has a zero leading
# coefficient, and that circle takes np.roots
TETRA_LOW_DEGREE = ([[1.6899179534401985, 0.1355570191134029, 0.6581454589751655],
                     [0.3642440755169424, 1.2204854277033717, 1.2097482043237497],
                     [1.5229877151829, 1.7827966192162337, -0.04717891070035385],
                     [0.3154806311157823, 0.508193417791464, -0.44222294861916145]],
                    [0.9731575938139558, 0.9117581209561181, 0.34462295099484996])


def _one_circle(alg, axis, threshold):
    """The search of one circle as it was before it was batched: np.roots and a split into arcs.

    Returns (normals, family representatives, whether the polynomial's
    leading coefficient is exactly 0)."""
    u, v = tangent_basis(axis)

    def on_circle(t):
        return np.cos(t)[:, None] * u + np.sin(t)[:, None] * v

    t = np.arange(12) * (np.pi / 12)
    res = plane_residual_batch(alg, on_circle(t))
    c = np.fft.rfft((res / alg.scale) ** 2)[:4] / 12
    poly = (np.arange(-3, 4) * np.concatenate([np.conj(c[:0:-1]), c]))[::-1]
    t_stat = np.angle(np.roots(poly)) / 2
    t = np.concatenate([t, t_stat]) % np.pi
    res = np.concatenate([res, plane_residual_batch(alg, on_circle(t_stat))])
    low = res <= threshold
    if low.all():
        return [], list(on_circle(_FAMILY_ANGLES)), poly[0] == 0
    order = np.argsort(t)
    high = np.flatnonzero(~low[order])
    arcs = [arc[low[arc]] for arc in np.split(np.roll(order, -high[0]), high[1:] - high[0])]
    return list(on_circle(np.array([t[a[np.argmin(res[a])]] for a in arcs if a.size]))), [], poly[0] == 0


def test_batched_circle_search_matches_one_circle_at_a_time(rng):
    """All circles of a Gram group solved in one batch give, bitwise, the normals
    and family representatives of solving each circle on its own, in axis order,
    also on a circle whose polynomial loses its leading coefficient."""
    from magalg import DipoleConfig

    cases = [DipoleConfig(*TETRA_LOW_DEGREE), DipoleConfig([[0.3, -0.2, 0.1]], [-0.4, 0.5, 0.9])]
    cases += [tetrahedral_centre(rng, shells)[0] for shells in (1, 2, 1, 2)]
    cases += [random_mirror_config(rng)[0] for _ in range(6)]
    low_degree = 0
    for cfg in cases:
        alg = build_algebra(cfg)
        gs = gram_spectrum(alg)
        w, v = gs.eigenvalues, gs.eigenvectors
        if gs.multiplicity == 3:
            x = np.reshape(self_eigenvectors(alg).moments, (-1, 3))
            axes = _newton_step(x, *_self_eigen_system(alg, x))
        elif w[1] - w[0] <= _PLANE_GROUP_RTOL * w[2] or w[2] - w[1] <= _PLANE_GROUP_RTOL * w[2]:
            axes = v[:, [2 if w[1] - w[0] <= _PLANE_GROUP_RTOL * w[2] else 0]].T
        else:
            continue
        threshold = 1e-8 * alg.scale
        normals, family, _ = _circle_normals(alg, axes, threshold)
        want_normals, want_family = [], []
        for axis in axes:
            got_normals, got_family, zero_lead = _one_circle(alg, axis, threshold)
            want_normals += got_normals
            want_family += got_family
            low_degree += bool(zero_lead)
        assert np.array_equal(normals, np.reshape(want_normals, (-1, 3)))
        assert np.array_equal(np.reshape(family, (-1, 3)), np.reshape(want_family, (-1, 3)))
    assert low_degree >= 1


def test_the_macaulay_matrix_matches_the_term_by_term_construction(rng):
    """The gather table gives, bitwise and with the signs of zeros, the 9x15 matrix built
    term by term, and its rows evaluated at x are x_k (x_a q_b - x_b q_a), q = T(., x, x)."""
    quartics = list(itertools.combinations_with_replacement(range(3), 4))
    pairs = [(0, 1), (0, 2), (1, 2)]

    def term_by_term(t):
        m = np.full((9, 15), -0.0)  # -0.0 + y is y, whatever the sign of a zero y
        for row, (k, (a, b)) in enumerate(itertools.product(range(3), pairs)):
            for c, d in itertools.product(range(3), repeat=2):
                m[row, quartics.index(tuple(sorted((k, a, c, d))))] += t[b, c, d]
            for c, d in itertools.product(range(3), repeat=2):
                m[row, quartics.index(tuple(sorted((k, b, c, d))))] -= t[a, c, d]
        return m

    t = rng.standard_normal((50, 3, 3, 3))
    t[rng.random(t.shape) < 0.1] = -0.0
    t[rng.random(t.shape) < 0.1] = 0.0
    got = _macaulay(t)
    for m, ti in zip(got, t):
        want = term_by_term(ti)
        assert np.array_equal(m, want) and np.array_equal(np.signbit(m), np.signbit(want))
    for m, ti in zip(got, t):
        for x in rng.standard_normal((5, 3)):
            q = np.einsum("abc,b,c->a", ti, x, x)
            minors = [x[a] * q[b] - x[b] * q[a] for a, b in pairs]
            expected = [x[k] * minor for k in range(3) for minor in minors]
            quartic = np.array([np.prod(x[list(mono)]) for mono in quartics])
            assert np.abs(m @ quartic - expected).max() <= 1e-13 * np.abs(ti).max() * (x @ x) ** 2


def test_a_generic_null_space_is_seven_dimensional_and_holds_the_eigenpoints(rng):
    """A generic operator's Macaulay matrix has rank 8, with s[7] / s[0] at least _RANK_GAP:
    its null space is 7-dimensional and holds the quartic monomials evaluated at each
    Z-eigenvector."""
    quartics = list(itertools.combinations_with_replacement(range(3), 4))
    for _ in range(20):
        alg = build_algebra(random_config(rng))
        sol = self_eigenvectors(alg)
        assert sol.complete
        _, s, vh = np.linalg.svd(_macaulay(alg.basis_images[None] / alg.scale)[0])
        assert s[7] >= _RANK_GAP * s[0] and s[8] <= 1e-14 * s[0]
        null = vh[8:]
        for x in sol.moments:
            v = np.array([np.prod(x[list(mono)]) for mono in quartics])
            assert np.linalg.norm(v - null.T @ (null @ v)) <= 1e-10 * np.linalg.norm(v)


def test_distinct_keeps_the_rows_the_pairwise_loop_kept(rng):
    """_distinct's cosine matrix keeps the same rows, in the same order and
    bitwise, as comparing each row with every kept one in turn."""
    def pairwise(m, cos_tol):
        found = []
        for x in m:
            x = canonical_sign(x)
            if all(abs(float(x @ f)) < 1.0 - cos_tol for f in found):
                found.append(x)
        return found

    for n in (0, 1, 2, 7, 30, 60):
        m = rng.standard_normal((n, 3))
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-300)
        if n >= 7:  # near copies, some flipped, on both sides of the tolerance
            m[3] = -m[0] * (1.0 + 1e-13)
            m[4] = m[1] + 1e-12 * m[2]
            m[5] = np.cos(2e-4) * m[2] + np.sin(2e-4) * np.cross(m[2], m[6]) / np.linalg.norm(np.cross(m[2], m[6]))
        for cos_tol in (1e-8, 1e-9):
            got, want = _distinct(m, cos_tol), pairwise(m, cos_tol)
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
            assert all(not a.flags.writeable for a in got)


def test_near_degenerate_gram_pair_keeps_one_normal_per_arc():
    """Two magnets and the field point in one plane, with a Gram pair equal
    to 1.8e-7: the exact common plane plus one near-plane whose residual
    profile has two minima 4.5e-5 rad apart below the threshold; the arc
    holding both gives one normal."""
    from magalg import DipoleConfig

    pos = np.array([[0.36312889509085994, 0.11513742879930472, 0.5979024501735171],
                    [-0.12660523972444088, 2.318796350758804, 0.4432654997794814]])
    fp = np.array([0.31618954241561803, 0.3163218900079414, 0.5849151920198039])
    alg = build_algebra(DipoleConfig(pos, fp))
    planes = find_invariant_planes(alg)
    assert len(planes) == 2 and not any(p.degenerate for p in planes)
    common = np.cross(pos[0] - fp, pos[1] - fp)
    common /= np.linalg.norm(common)
    near = np.array([0.8656020895435054, 0.17159225615261756, -0.4704137755278557])
    # both normals sit in flat residual valleys along the circle (the common
    # plane's residual grows by only 5e-8 * scale per radian), so rounding
    # fixes them only to about 1e-9 and, for the near-plane, 1e-6
    got = sorted(planes, key=lambda p: abs(p.n_hat @ common))
    assert min(np.linalg.norm(got[0].n_hat - near), np.linalg.norm(got[0].n_hat + near)) <= 1e-6
    assert min(np.linalg.norm(got[1].n_hat - common), np.linalg.norm(got[1].n_hat + common)) <= 1e-8
    assert got[1].residual <= 1e-12 * alg.scale


def test_inversion_symmetric_configs_are_trivial():
    """Every magnet paired with its reflection through the field point
    cancels the operator exactly; the centered cubic lattice is the
    canonical case."""
    from magalg.dipoles import gen_cubic_lattice

    alg = build_algebra(gen_cubic_lattice(1.0, 1, exclude_origin=True))
    assert alg.is_trivial()
    assert np.abs(alg.basis_images).max() == 0.0


def test_off_center_lattice_has_axial_plane_family():
    """A field point on a 4-fold symmetry axis of the lattice sees an
    axially equivariant operator (the anisotropic part carries only
    third harmonics, killed by 4-fold averaging): every plane containing
    the axis is invariant and comes back as a degenerate family."""
    from magalg.dipoles import DipoleConfig, gen_cubic_lattice

    base = gen_cubic_lattice(1.0, 1, exclude_origin=True)
    alg = build_algebra(DipoleConfig(base.magnet_positions, [0.5, 0.0, 0.0]))
    planes = find_invariant_planes(alg)
    assert len(planes) >= 4
    assert all(p.degenerate for p in planes)
    assert all(abs(p.n_hat[0]) <= 1e-12 for p in planes)  # normals orthogonal to the axis
    # the axis direction itself is not a plane normal
    assert plane_residual_batch(alg, [[1.0, 0.0, 0.0]])[0] > 1e-3 * alg.scale


def test_planar_structure_pair(pair_config):
    alg = build_algebra(pair_config)
    p = planar_structure(alg, [0, 1.0, 0])
    assert np.allclose(p.P, [0, 0, 1.0 / (2.0 * SQRT2)], atol=1e-14)
    assert np.allclose(p.P_hat, [0, 0, 1.0], atol=1e-13)
    assert np.allclose(np.abs(p.Q_hat), [1.0, 0, 0], atol=1e-13)
    fn = alg.matrix(p.n_hat)
    assert np.einsum("ab,ab->", fn, fn) == pytest.approx(0.25, abs=1e-14)


def test_planar_structure_single_dipole(single_dipole_algebra):
    p = planar_structure(single_dipole_algebra, [0, 1.0, 0])
    assert np.allclose(p.P, [0, 0, 1.0], atol=1e-14)
    fn = single_dipole_algebra.matrix(p.n_hat)
    assert np.einsum("ab,ab->", fn, fn) == pytest.approx(2.0, abs=1e-14)


def test_planar_structure_rejects_bad_normal(single_dipole_algebra):
    with pytest.raises(NotInvariantPlaneError) as err:
        planar_structure(single_dipole_algebra, [0, 0, 1.0])
    assert err.value.residual > 1e-2


def test_plane_frame_invariants(rng):
    """Normal is a Gram eigenvector with eigenvalue 2||P||^2; the frame
    diagonalizes the normal image; the kernel direction is Q_hat."""
    for t in range(50):
        cfg, n_hat = random_mirror_config(rng)
        alg = build_algebra(cfg)
        scale = alg.scale
        p = planar_structure(alg, n_hat)
        assert p.residual <= 1e-10 * scale
        g = alg.gram
        assert (
            np.linalg.norm(g @ p.n_hat - 2.0 * p.norm_P ** 2 * p.n_hat)
            <= 1e-9 * max(scale ** 2, 1e-300)
        )
        fn = alg.matrix(p.n_hat)
        assert abs(np.einsum("ab,ab->", fn, fn) - 2.0 * p.norm_P ** 2) <= 1e-10 * scale ** 2
        if p.Q_hat is not None:
            assert np.linalg.norm(fn @ p.Q_hat) <= 1e-10 * scale
            b = np.stack([p.n_hat, p.P_hat, p.Q_hat])
            assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)
        # in-plane moments act on the normal by the coupling coefficient
        e1, e2 = p.frame()
        for m in (e1, e2, (e1 + e2) / SQRT2):
            assert np.linalg.norm(alg.matrix(m) @ p.n_hat - float(p.P @ m) * p.n_hat) <= 1e-10 * scale


def test_the_frame_of_a_nearly_invariant_plane_stays_in_it():
    """A sectoral operator, Re (x . (e_x + i e_y))^3, plus a 1e-11 perturbation: its
    null-axis plane has ||P|| 6.0e-12 and residual 2.4e-13 of the scale, and the
    normal part n . P, up to sqrt2 times the residual, is a tenth of P.  P_hat and
    Q_hat are built from the in-plane part of P, so the frame, and the in-plane
    maximizer M_P read off it, stay in the plane."""
    from magalg.extremal import bounds_report, lambda_plane
    from test_extremal import _harmonic

    c = np.array([1.0, 1j, 0.0])
    t = np.einsum("i,j,k->ijk", c, c, c).real
    pert = _harmonic(np.random.default_rng(1).standard_normal((3, 3, 3)))
    alg = MagneticAlgebra(t / np.linalg.norm(t) + 1e-11 * pert / np.linalg.norm(pert))
    [p] = [p for p in find_invariant_planes(alg) if abs(p.n_hat[2]) > 0.99]
    assert p.norm_P == pytest.approx(6.0e-12 * alg.scale, rel=0.01)
    assert p.residual == pytest.approx(2.4e-13 * alg.scale, rel=0.01)
    assert abs(p.P @ p.n_hat) > 0.05 * p.norm_P  # the record's P keeps its normal part
    assert p.P_hat is not None
    for e in (p.P_hat, p.Q_hat, lambda_plane(alg, p).moment, bounds_report(alg, p).M_P):
        assert abs(e @ p.n_hat) <= 1e-15
    assert np.linalg.norm(np.cross(p.P_hat, p.P - (p.P @ p.n_hat) * p.n_hat)) <= 1e-15 * p.norm_P


def test_mirror_symmetry_theorem(rng):
    """Mirror-symmetric arrays with in-plane field point are planar."""
    worst = 0.0
    for _ in range(200):
        cfg, n_hat = random_mirror_config(rng)
        alg = build_algebra(cfg)
        worst = max(worst, plane_residual_batch(alg, [n_hat])[0] / alg.scale)
    assert worst <= 1e-10


def test_coplanar_p_vector_matches_frame_coupling(rng):
    """For coplanar sources the coupling vector is the source sum."""
    from magalg.dipoles import p_vector

    for _ in range(50):
        cfg, n_hat = random_coplanar_config(rng)
        alg = build_algebra(cfg)
        p = planar_structure(alg, n_hat)
        assert np.linalg.norm(p.P - p_vector(cfg)) <= 1e-10 * alg.scale


def test_decompose_plane_part_into_plane(rng):
    cfg, n_hat = random_coplanar_config(rng, n_min=2)
    alg = build_algebra(cfg)
    plane = planar_structure(alg, n_hat)
    dec = decompose(alg, plane, gamma=0.0)
    scale = alg.scale
    for m in random_moments(rng, 100):
        assert np.abs(plane.n_hat @ dec.plane_part(m)).max() <= 1e-10 * scale


def test_decompose_gamma_affine(single_dipole_algebra):
    plane = planar_structure(single_dipole_algebra, [0, 1.0, 0])
    d0 = decompose(single_dipole_algebra, plane, gamma=0.0)
    d5 = decompose(single_dipole_algebra, plane, gamma=5.0)
    m = np.array([0.3, -0.5, 0.81])
    diff = d5.equivariant_part(m) - d0.equivariant_part(m)
    assert np.array_equal(diff, -5.0 * np.outer(plane.P, plane.P))


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_decompose_equivariance(gamma):
    rng = np.random.default_rng(7)
    cfg, n_hat = random_coplanar_config(rng, n_min=2)
    alg = build_algebra(cfg)
    plane = planar_structure(alg, n_hat)
    dec = decompose(alg, plane, gamma=gamma)
    scale = max(alg.scale, abs(gamma) * plane.norm_P ** 2)
    m = random_moments(rng, 1)[0]
    c = rot_about(plane.P, rng.uniform(0, 2 * np.pi))
    resid = np.abs(dec.equivariant_part(c @ m) - c @ dec.equivariant_part(m) @ c.T).max()
    assert resid <= 1e-10 * scale


def test_decompose_trace_identity(rng):
    """tr E^gamma_M = 5 (M . P) - gamma ||P||^2, exactly up to rounding."""
    cfg, n_hat = random_coplanar_config(rng, n_min=3)
    alg = build_algebra(cfg)
    plane = planar_structure(alg, n_hat)
    for gamma in (-1.0, 0.0, 1.0, 5.0):
        dec = decompose(alg, plane, gamma)
        for m in random_moments(rng, 20):
            expected = 5.0 * float(m @ plane.P) - gamma * plane.norm_P ** 2
            scale = max(alg.scale, abs(gamma) * plane.norm_P ** 2, 1.0)
            assert np.trace(dec.equivariant_part(m)) == pytest.approx(
                expected, abs=1e-13 * scale
            )


def test_decompose_parts_of_moment_rows_match_single_moments(rng):
    cfg, n_hat = random_coplanar_config(rng, n_min=2)
    alg = build_algebra(cfg)
    dec = decompose(alg, planar_structure(alg, n_hat), gamma=0.7)
    ms = random_moments(rng, 8)
    for part in (dec.equivariant_part, dec.plane_part):
        rows = part(ms)
        assert rows.shape == (8, 3, 3)
        for row, m in zip(rows, ms):
            assert np.array_equal(row, part(m))


def test_decompose_equivariant_part_symmetric(rng):
    cfg, n_hat = random_coplanar_config(rng, n_min=2)
    alg = build_algebra(cfg)
    dec = decompose(alg, planar_structure(alg, n_hat), gamma=2.5)
    for m in random_moments(rng, 10):
        e = dec.equivariant_part(m)
        assert np.array_equal(e, e.T)
