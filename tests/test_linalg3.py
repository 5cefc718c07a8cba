import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magalg.linalg3 import (
    canonical_sign,
    cross,
    cross_matrices,
    det3,
    principal_axis,
    principal_split,
    rot_about,
    spread_ratio,
    unit,
)

ENTRY = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def traceless_sym(a11, a22, a12, a13, a23):
    return np.array([
        [a11, a12, a13],
        [a12, a22, a23],
        [a13, a23, -a11 - a22],
    ])


def random_traceless(rng, n):
    p = rng.uniform(-1.0, 1.0, size=(n, 5)) * 10.0 ** rng.uniform(-2, 3, size=(n, 1))
    return np.array([traceless_sym(*row) for row in p])


def split(a):
    """(lam, delta, r) of a traceless symmetric matrix, from principal_split and spread_ratio."""
    lam, delta = principal_split(0.5 * float(np.trace(a @ a)), float(det3(a)))
    return float(lam), float(delta), float(spread_ratio(lam, delta))


def eigenvalues(lam, delta):
    """The spectrum lam, -lam/2 + delta, -lam/2 - delta that principal_split describes."""
    return (lam, -0.5 * lam + delta, -0.5 * lam - delta)


def test_eig_diagonal():
    lam, delta, r = split(np.diag([1.0, 1.0, -2.0]))
    assert lam == -2.0
    assert delta == 0.0
    assert r == 0.0


def test_eig_zero_matrix():
    assert split(np.zeros((3, 3))) == (0.0, 0.0, 0.0)


def test_eig_rank2_swap_tie_breaks_positive():
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    lam, delta, r = split(a)
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert lam > 0.0
    assert delta == pytest.approx(0.5, abs=1e-14)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_cross_matrix_z():
    k = cross_matrices([0.0, 0.0, 1.0])
    assert np.array_equal(k, np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))


def test_cross_matrix_zero():
    assert np.array_equal(cross_matrices([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_cross_matrix_action():
    k = cross_matrices([0.0, 0.0, 1.0])
    assert np.allclose(k @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


@given(st.tuples(ENTRY, ENTRY, ENTRY))
def test_cross_matrix_matches_np_cross(n):
    n = np.array(n)
    v = np.array([0.3, -1.2, 2.5])
    assert np.allclose(cross_matrices(n) @ v, np.cross(n, v), atol=1e-9)


def test_cross_is_np_cross_bitwise(rng):
    """cross replaces np.cross with the same arithmetic, on single vectors and on rows."""
    a = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-150, 150, size=(500, 1))
    b = rng.standard_normal((500, 3))
    assert np.array_equal(cross(a, b), np.cross(a, b))
    assert np.array_equal(cross(a, b[0]), np.cross(a, b[0]))
    for x, y in zip(a[:50], b):
        assert np.array_equal(cross(x, y), np.cross(x, y))


def test_tangent_basis_rows_match_single_vectors(rng):
    """The batched tangent basis gives each row what the 1-D call gives, bitwise,
    and the 1-D call normalizes as unit() does."""
    from magalg.sphere import tangent_basis

    n = rng.standard_normal((300, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    u, v = tangent_basis(n)
    for i, row in enumerate(n):
        u1, v1 = tangent_basis(row)
        assert np.array_equal(u1, u[i]) and np.array_equal(v1, v[i])
        assert np.array_equal(u1, unit(np.cross(row, np.eye(3)[np.argmin(np.abs(row))])))
    assert np.abs(np.einsum("na,na->n", u, n)).max() <= 1e-15
    assert np.abs(np.einsum("na,na->n", v, n)).max() <= 1e-15
    assert np.abs(np.einsum("na,na->n", u, v)).max() <= 1e-15


def test_rot_quarter_turn():
    r = rot_about([0.0, 0.0, 1.0], np.pi / 2)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rot_zero_angle_identity():
    assert np.allclose(rot_about([1.0, 2.0, 3.0], 0.0), np.eye(3))


def test_rot_about_an_array_of_angles_gives_each_rotation(rng):
    axis, angles = rng.standard_normal(3), rng.uniform(0.0, 2.0 * np.pi, size=8)
    rots = rot_about(axis, angles)
    assert rots.shape == (8, 3, 3)
    for r, angle in zip(rots, angles):
        assert np.array_equal(r, rot_about(axis, angle))


def test_rot_degenerate_axis():
    with pytest.raises(ValueError, match="degenerate axis"):
        rot_about([0.0, 0.0, 0.0], 1.0)


def test_rot_fixes_axis(rng):
    for _ in range(50):
        axis = rng.standard_normal(3)
        r = rot_about(axis, rng.uniform(-np.pi, np.pi))
        assert np.linalg.norm(r @ axis - axis) <= 1e-14 * np.linalg.norm(axis)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert det3(r) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=200)
@given(ENTRY, ENTRY, ENTRY, ENTRY, ENTRY)
def test_eig_solves_characteristic_cubic(a11, a22, a12, a13, a23):
    a = traceless_sym(a11, a22, a12, a13, a23)
    scale = max(np.abs(a).max(), 1e-30)
    lam, delta, r = split(a)
    j2 = 0.5 * np.trace(a @ a)
    j3 = det3(a)
    for ev in eigenvalues(lam, delta):
        assert abs(ev ** 3 - j2 * ev - j3) <= 1e-9 * scale ** 3
    assert abs(sum(eigenvalues(lam, delta))) <= 1e-10 * scale
    assert abs(lam) >= abs(-0.5 * lam + delta) - 1e-12 * scale
    assert abs(lam) >= abs(-0.5 * lam - delta) - 1e-12 * scale
    assert 0.0 <= r <= 1.0


def test_bulk_invariants(rng):
    mats = random_traceless(rng, 10_000)
    j2 = 0.5 * np.einsum("nab,nba->n", mats, mats)
    j3 = det3(mats)
    lam, delta = principal_split(j2, j3)
    scale = np.abs(mats).reshape(len(mats), -1).max(axis=1)
    # eigenvalue sum vanishes
    total = lam + (-0.5 * lam + delta) + (-0.5 * lam - delta)
    assert np.all(np.abs(total) <= 1e-10 * scale)
    # cubic residual for the principal root
    assert np.all(np.abs(lam ** 3 - j2 * lam - j3) <= 1e-9 * scale ** 3)
    # spread identity: tr A^2 == (3 + r^2)/2 * lam^2
    nz = np.abs(lam) > 0
    r = 2.0 * delta[nz] / np.abs(lam[nz])
    tr2 = 2.0 * j2[nz]
    assert np.all(np.abs(tr2 - 0.5 * (3.0 + r ** 2) * lam[nz] ** 2) <= 1e-9 * tr2)
    # magnitude bracket: tr A^2 / 2 <= lam^2 <= (2/3) tr A^2
    assert np.all(lam[nz] ** 2 >= j2[nz] - 1e-9 * tr2)
    assert np.all(lam[nz] ** 2 <= (2.0 / 3.0) * 2.0 * j2[nz] + 1e-9 * tr2)


def test_agrees_with_iterative_eigensolver(rng):
    mats = random_traceless(rng, 1000)
    for a in mats:
        lam, delta, _ = split(a)
        w = np.linalg.eigvalsh(a)
        scale = max(np.abs(w).max(), 1e-30)
        assert np.allclose(sorted(eigenvalues(lam, delta)), w, atol=1e-10 * scale)
        assert abs(lam) == pytest.approx(np.abs(w).max(), abs=1e-10 * scale)


def test_principal_axis_matches_eig(rng):
    for _ in range(100):
        a = traceless_sym(*rng.uniform(-2, 2, size=5))
        lam, v = principal_axis(a)
        lam_split, _, _ = split(a)
        scale = max(abs(lam_split), 1e-30)
        assert lam == pytest.approx(lam_split, abs=1e-10 * scale)
        assert np.linalg.norm(a @ v - lam * v) <= 1e-9 * scale
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_unit_and_canonical_sign():
    assert np.allclose(unit([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        unit([0.0, 0.0, 0.0])
    assert np.array_equal(canonical_sign(np.array([0.1, -0.9, 0.2])), [-0.1, 0.9, -0.2])
