import numpy as np
import pytest

from magalg.dipoles import (
    DipoleConfig,
    SingularFieldPointError,
    build_algebra,
    field_B,
    force,
    gen_cubic_lattice,
    gen_mirror_symmetric,
    gen_pair,
    gradient_matrix,
    identity_residuals,
    p_vector,
)
from magalg.corpus import random_config, random_moments

SQRT2 = np.sqrt(2.0)


def test_single_dipole_basis_images(single_dipole_algebra):
    alg = single_dipole_algebra
    assert np.allclose(alg.matrix([0, 0, 1]), np.diag([1.0, 1.0, -2.0]), atol=1e-14)
    fx = np.zeros((3, 3))
    fx[0, 2] = fx[2, 0] = 1.0
    assert np.allclose(alg.matrix([1, 0, 0]), fx, atol=1e-14)


def test_antipodal_pair_is_identically_zero(antipodal_config):
    alg = build_algebra(antipodal_config)
    assert np.abs(alg.basis_images).max() == 0.0


def test_p_vector_values(single_dipole, pair_config, antipodal_config):
    assert np.allclose(p_vector(single_dipole), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(p_vector(pair_config), [0.0, 0.0, 1.0 / (2.0 * SQRT2)], atol=1e-15)
    assert np.array_equal(p_vector(antipodal_config), np.zeros(3))


def test_field_B_axial_and_transverse():
    b = field_B([0, 0, 0], [0, 0, 1.0], [0, 0, 1.0])
    assert np.allclose(b, [0.0, 0.0, 2e-7], atol=1e-22)
    b = field_B([0, 0, 0], [1.0, 0, 0], [0, 0, 1.0])
    assert np.allclose(b, [-1e-7, 0.0, 0.0], atol=1e-22)


def test_field_B_cubic_decay():
    b1 = field_B([0, 0, 0], [0.3, -0.2, 0.9], [0, 0, 1.0])
    b2 = field_B([0, 0, 0], [0.3, -0.2, 0.9], [0, 0, 2.0])
    assert np.allclose(b2, b1 / 8.0, rtol=1e-13)


def test_field_B_singular():
    with pytest.raises(SingularFieldPointError):
        field_B([0, 0, 1.0], [0, 0, 1.0], [0, 0, 1.0])


def test_force_si_values(single_dipole):
    cfg = DipoleConfig(single_dipole.magnet_positions, single_dipole.field_point, True)
    assert np.allclose(force(cfg, [0, 0, 1.0], [0, 0, 1.0]), [0, 0, -6e-7], atol=1e-21)
    assert np.allclose(force(cfg, [0, 0, 1.0], [1.0, 0, 0]), [3e-7, 0, 0], atol=1e-21)


def test_force_bare_matches_operator(single_dipole):
    f = force(single_dipole, [0, 0, 1.0], [0, 0, 1.0])
    assert np.allclose(f, [0, 0, -2.0], atol=1e-14)


def test_force_antipodal_zero(antipodal_config):
    assert np.array_equal(force(antipodal_config, [0.3, 0.1, 0.9], [1, 0, 0]), np.zeros(3))


def test_gen_pair():
    cfg = gen_pair([1, 0, 0], [-1, 0, 0])
    assert cfg.n_magnets == 2
    # field point at the segment midpoint is allowed
    assert np.array_equal(cfg.field_point, np.zeros(3))
    with pytest.raises(ValueError, match="coincident"):
        gen_pair([1, 0, 0], [1, 0, 0])


def test_gen_mirror():
    cfg = gen_mirror_symmetric([([1.0, 0, 0], 1.0)], [], [0, 0, 1.0])
    assert np.allclose(
        sorted(cfg.magnet_positions.tolist()), [[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]]
    )
    with pytest.raises(ValueError, match="empty configuration"):
        gen_mirror_symmetric([], [], [0, 0, 1.0])
    with pytest.raises(ValueError, match="zero plane normal"):
        gen_mirror_symmetric([([1.0, 0, 0], 1.0)], [], [0, 0, 0.0])
    cfg = gen_mirror_symmetric(
        [([1, 0, 0], 1.0), ([0, 1, 0], 0.5), ([1, 1, 0], 2.0), ([-1, 0, 0], 0.25)],
        [[2, 0, 0], [0, 2, 0], [1, 1, 0]],
        [0, 0, 1.0],
    )
    assert cfg.n_magnets == 8 + 3


def test_gen_mirror_set_is_reflection_invariant(rng):
    n = np.array([0.0, 0.0, 1.0])
    cfg = gen_mirror_symmetric(
        [(rng.uniform(-1, 1, 3), rng.uniform(0.2, 2.0)) for _ in range(3)],
        [rng.uniform(-1, 1, 3) for _ in range(2)],
        n,
    )
    pts = cfg.magnet_positions
    reflected = pts - 2.0 * (pts @ n)[:, None] * n[None, :]
    for q in reflected:
        assert np.min(np.linalg.norm(pts - q, axis=1)) <= 1e-12


def test_gen_lattice():
    cfg = gen_cubic_lattice(1.0, 1, exclude_origin=True)
    assert cfg.n_magnets == 26
    cfg = gen_cubic_lattice(0.5, 1, exclude_origin=False)
    assert cfg.n_magnets == 27
    with pytest.raises(ValueError, match="spacing"):
        gen_cubic_lattice(0.0, 1)
    with pytest.raises(SingularFieldPointError):
        build_algebra(gen_cubic_lattice(1.0, 1, exclude_origin=False))


def test_gen_lattice_mirror_symmetric_about_coordinate_planes():
    pts = gen_cubic_lattice(0.7, 2, exclude_origin=True).magnet_positions
    for axis in range(3):
        flipped = pts.copy()
        flipped[:, axis] = -flipped[:, axis]
        for q in flipped:
            assert np.min(np.linalg.norm(pts - q, axis=1)) == 0.0


def test_singular_field_point_names_index():
    cfg = DipoleConfig([[0, 0, 0], [0, 0, 1.0]], [0, 0, 1.0])
    with pytest.raises(SingularFieldPointError) as err:
        build_algebra(cfg)
    assert err.value.index == 1
    assert "magnet 1" in str(err.value)


def test_reciprocity_trace_det_bulk(rng):
    """10^4 random (config, moment) pairs keep the structural identities."""
    for _ in range(40):
        alg = build_algebra(random_config(rng))
        scale = alg.scale
        reciprocity, trace, det = identity_residuals(alg.basis_images)
        assert reciprocity <= 1e-12 * scale
        assert trace <= 1e-12 * scale
        assert det <= 1e-12 * scale ** 3
        ms = random_moments(rng, 250)
        mats = alg.matrices(ms)
        assert np.abs(np.trace(mats, axis1=1, axis2=2)).max() <= 1e-12 * scale
        # reciprocity through the bilinear action
        m2 = random_moments(rng, 250)
        left = np.einsum("nab,nb->na", mats, m2)
        right = np.einsum("nab,nb->na", alg.matrices(m2), ms)
        assert np.abs(left - right).max() <= 1e-12 * scale


def test_linearity(rng):
    alg = build_algebra(random_config(rng))
    scale = alg.scale
    for _ in range(50):
        a, b = rng.uniform(-2, 2, size=2)
        m, n = random_moments(rng, 2)
        lhs = alg.matrix(a * m + b * n)
        rhs = a * alg.matrix(m) + b * alg.matrix(n)
        assert np.abs(lhs - rhs).max() <= 1e-13 * scale * max(abs(a) + abs(b), 1.0)


def test_basis_images_match_direct_evaluation(rng):
    for _ in range(5):
        cfg = random_config(rng)
        alg = build_algebra(cfg)
        scale = alg.scale
        for m in random_moments(rng, 20):
            assert np.abs(alg.matrix(m) - gradient_matrix(cfg, m)).max() <= 1e-13 * scale


def test_scaling_homogeneity(rng):
    cfg = random_config(rng)
    alg = build_algebra(cfg)
    for s in (0.5, 2.0, 7.0):
        scaled = build_algebra(cfg.scaled(s))
        assert np.allclose(
            scaled.basis_images, alg.basis_images / s ** 4, rtol=1e-12, atol=0.0
        )


def test_config_validation():
    with pytest.raises(ValueError):
        DipoleConfig(np.zeros((0, 3)), [0, 0, 1.0])
    with pytest.raises(ValueError):
        DipoleConfig([[0, 0, np.inf]], [0, 0, 1.0])
