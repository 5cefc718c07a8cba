"""Acceptance suite.

Each test covers one numbered criterion, prints a PASS/FAIL line, and
pins the stated tolerance.  Tolerances written as `* scale` are relative
to the natural magnitude of the quantity: basis-image Frobenius norm for
matrix entries, its square for energy-like quantities, and the bound
values themselves for the eigenvalue chain.
"""

import time

import numpy as np
import pytest

from conftest import sampling_tolerance
from magalg.algebra import decompose, planar_structure
from magalg.corpus import (
    random_algebra,
    random_config,
    random_coplanar_config,
    random_mirror_config,
    random_moments,
)
from magalg.dipoles import DipoleConfig, build_algebra, gen_pair, identity_residuals
from magalg.extremal import (
    Branch,
    bounds_report,
    lambda_bar_bruteforce,
    lambda_bar_exact,
    principal_abs,
    principal_split_batch,
)
from magalg.linalg3 import rot_about

CHAIN_N = 1000


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def chain_corpus():
    """Random coplanar configurations with their full bound reports."""
    rng = np.random.default_rng(20260801)
    out = []
    start = time.perf_counter()
    while len(out) < CHAIN_N:
        cfg, n_hat = random_coplanar_config(rng, n_min=1, n_max=8)
        alg = build_algebra(cfg)
        if alg.is_trivial():
            continue
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        out.append((alg, plane, rep))
    return out, time.perf_counter() - start


def test_criterion_1_single_dipole_closed_form():
    start = time.perf_counter()
    d = 1.0
    cfg = DipoleConfig([[0.0, 0.0, 0.0]], [0.0, 0.0, d])
    alg = build_algebra(cfg)
    plane = planar_structure(alg, [0.0, 1.0, 0.0])
    rep = bounds_report(alg, plane)
    elapsed = time.perf_counter() - start

    # independent 1D oracle: in-plane spectrum (-c +- sqrt(4 + 5 c^2))/2
    c = np.cos(np.linspace(0.0, np.pi, 200001))
    oracle = np.max(np.maximum(np.abs(-c + np.sqrt(4 + 5 * c * c)) / 2,
                               np.abs(-c - np.sqrt(4 + 5 * c * c)) / 2))
    assert oracle == pytest.approx(2.0, abs=1e-9)

    ok = (
        abs(rep.lambda_bar * d ** 4 - 2.0) <= 2e-12
        and rep.branch is Branch.PLANE_DOMINANT
        and rep.lambda_bar_certified == 2.0
        and abs(rep.M_bar[2]) >= 1.0 - 1e-6
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"lambda_bar*d^4={rep.lambda_bar:.9f} (oracle 2), branch={rep.branch.value}, "
        f"certified={rep.lambda_bar_certified}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_bound_chain(chain_corpus):
    corpus, build_time = chain_corpus
    violations = 0
    for alg, plane, rep in corpus:
        scale = max(rep.lambda_bar, rep.lambda_P, rep.abs_lambda_MF, rep.norm_P)
        tol = 1e-9 * scale
        chain = (
            rep.norm_P <= rep.abs_lambda_MF + tol
            and rep.abs_lambda_MF <= rep.lambda_P + tol
            and rep.lambda_P <= rep.lambda_bar + tol
            and rep.lambda_bar <= rep.abs_lambda_MF + 0.5 * rep.norm_P + tol
        )
        if not chain:
            violations += 1
    ok = violations == 0 and build_time < 60.0
    report(
        2,
        ok,
        f"{len(corpus)} planar configs, {violations} chain violations, "
        f"corpus+bounds runtime={build_time:.1f}s",
    )


def test_criterion_3_refined_bounds(chain_corpus):
    corpus, _ = chain_corpus
    violations = 0
    n_plane = n_pvec = 0
    for alg, plane, rep in corpus:
        scale = max(rep.lambda_bar, rep.lambda_P, 2.0 * rep.norm_P)
        dead = 1e-6 * scale
        tol = 1e-9 * scale
        if rep.lambda_P >= 2.0 * rep.norm_P - dead:
            n_plane += 1
            plane_formula = 0.5 * (
                rep.norm_P + np.sqrt(max(2.0 * rep.lambda_F - 3.0 * rep.norm_P ** 2, 0.0))
            )
            good = (
                abs(rep.lambda_bar - rep.lambda_P) <= dead
                and rep.lambda_P <= plane_formula + tol
            )
        else:
            n_pvec += 1
            b1 = rep.abs_lambda_MF + rep.norm_P / 3.0
            b2 = 2.0 * rep.norm_P * np.sqrt(rep.norm_P / (3.0 * rep.norm_P - rep.lambda_P))
            good = rep.lambda_bar <= min(b1, b2) + tol
        if not good:
            violations += 1
    ok = violations == 0 and n_plane > 0 and n_pvec > 0
    report(
        3,
        ok,
        f"{n_plane} plane-dominant / {n_pvec} coupling-dominant, {violations} violations",
    )


def test_criterion_4_algebra_identities():
    rng = np.random.default_rng(42)
    n_cfg, n_m = 250, 40  # 10^4 (config, moment) pairs
    worst_tr = worst_det = worst_rec = worst_spread = 0.0
    for _ in range(n_cfg):
        alg = random_algebra(rng)
        scale = alg.scale
        ms = random_moments(rng, n_m)
        mats = alg.matrices(ms)
        worst_tr = max(worst_tr, np.abs(np.trace(mats, axis1=1, axis2=2)).max() / scale)
        tr3 = np.einsum("nab,nbc,nca->n", mats, mats, mats)
        dets = np.linalg.det(mats)
        worst_det = max(worst_det, np.abs(dets - tr3 / 3.0).max() / scale ** 3)
        worst_rec = max(worst_rec, identity_residuals(alg.basis_images)[0] / scale)
        lam, delta, r = principal_split_batch(alg, ms)
        tr2 = np.einsum("nab,nab->n", mats, mats)
        nz = np.abs(lam) > 0
        rel = np.abs(tr2[nz] - 0.5 * (3.0 + r[nz] ** 2) * lam[nz] ** 2) / tr2[nz]
        worst_spread = max(worst_spread, rel.max())
    ok = (
        worst_tr <= 1e-12
        and worst_det <= 1e-12
        and worst_rec <= 1e-12
        and worst_spread <= 1e-9
    )
    report(
        4,
        ok,
        f"10^4 pairs: trace {worst_tr:.1e}, det {worst_det:.1e}, "
        f"reciprocity {worst_rec:.1e}, spread identity {worst_spread:.1e} (rel)",
    )


def test_criterion_5_planarity_structure():
    rng = np.random.default_rng(7)
    worst_res = worst_gram = worst_energy = worst_q = 0.0
    for _ in range(200):
        cfg, n_hat = random_mirror_config(rng)
        alg = build_algebra(cfg)
        scale = alg.scale
        plane = planar_structure(alg, n_hat)
        worst_res = max(worst_res, plane.residual / scale)
        g = alg.gram
        gram_res = np.linalg.norm(g @ plane.n_hat - 2.0 * plane.norm_P ** 2 * plane.n_hat)
        worst_gram = max(worst_gram, gram_res / scale ** 2)
        fn = alg.matrix(plane.n_hat)
        energy_res = abs(float(np.einsum("ab,ab->", fn, fn)) - 2.0 * plane.norm_P ** 2)
        worst_energy = max(worst_energy, energy_res / scale ** 2)
        if plane.Q_hat is not None:
            worst_q = max(worst_q, float(np.linalg.norm(fn @ plane.Q_hat)) / scale)
    ok = (
        worst_res <= 1e-10
        and worst_gram <= 1e-9
        and worst_energy <= 1e-10
        and worst_q <= 1e-10
    )
    report(
        5,
        ok,
        f"200 mirror configs: residual {worst_res:.1e}, gram {worst_gram:.1e}, "
        f"energy {worst_energy:.1e}, kernel {worst_q:.1e}",
    )


def test_criterion_6_decomposition():
    rng = np.random.default_rng(11)
    gammas = (-1.0, 0.0, 1.0, 5.0)
    worst_plane = worst_equi = 0.0
    for _ in range(100):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        ms = random_moments(rng, 100)
        fs = alg.matrices(ms)
        for gamma in gammas:
            dec = decompose(alg, plane, gamma)
            scale = max(alg.scale, abs(gamma) * plane.norm_P ** 2)
            p = plane.P
            es = (
                np.einsum("a,nb->nab", p, ms)
                + np.einsum("na,b->nab", ms, p)
                + np.einsum("n,ab->nab", ms @ p, np.eye(3))
                - gamma * np.outer(p, p)[None, :, :]
            )
            pis = es - fs
            worst_plane = max(
                worst_plane, float(np.abs(np.einsum("a,nab->nb", plane.n_hat, pis)).max()) / scale
            )
            for _ in range(20):
                m = random_moments(rng, 1)[0]
                c = rot_about(plane.P, rng.uniform(0.0, 2.0 * np.pi))
                resid = np.abs(
                    dec.equivariant_part(c @ m) - c @ dec.equivariant_part(m) @ c.T
                ).max()
                worst_equi = max(worst_equi, float(resid) / scale)
    ok = worst_plane <= 1e-10 and worst_equi <= 1e-10
    report(
        6,
        ok,
        f"100 configs x 4 gammas x 100 moments: into-plane {worst_plane:.1e}, "
        f"equivariance {worst_equi:.1e}",
    )


def test_criterion_7_gram_moment_closed_form():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(500):
        cfg, n_hat = random_coplanar_config(rng)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)  # its M_F is the top Gram moment restricted to the normal and the plane
        closed = rep.abs_lambda_MF
        direct = principal_abs(alg, rep.M_F)
        worst = max(worst, abs(closed - direct) / alg.scale)
    ok = worst <= 1e-9
    report(7, ok, f"500 planar configs: closed form vs direct {worst:.1e} (rel to scale)")


def test_criterion_8_subadditivity_and_spread_ordering():
    rng = np.random.default_rng(17)
    n = 800
    worst_sub = -np.inf
    sub_ok = True
    for _ in range(200):
        a = random_algebra(rng)
        b = random_algebra(rng)
        la = lambda_bar_bruteforce(a, n_samples=n, refine_steps=30, seed=0).lambda_bar
        lb = lambda_bar_bruteforce(b, n_samples=n, refine_steps=30, seed=0).lambda_bar
        lab = lambda_bar_bruteforce(a + b, n_samples=n, refine_steps=30, seed=0).lambda_bar
        slack = 2.0 * sampling_tolerance(max(la, lb, lab), n)
        gap = lab - la - lb
        worst_sub = max(worst_sub, gap / max(lab, 1e-300))
        sub_ok = sub_ok and gap <= slack
    order_ok = True
    worst_order = -np.inf
    for _ in range(100):
        cfg, n_hat = random_coplanar_config(rng, n_min=2)
        alg = build_algebra(cfg)
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        m_f, lam_f = rep.M_F, rep.lambda_F
        lam_mf, _, r_mf = (float(x[0]) for x in principal_split_batch(alg, m_f[None, :]))
        ms = random_moments(rng, 100)
        lam, _, r = principal_split_batch(alg, ms)
        beats = lam ** 2 > lam_mf ** 2 + 1e-9 * max(lam_f, 1e-300)
        if beats.any():
            worst_order = max(worst_order, float((r[beats] - r_mf).max()))
            order_ok = order_ok and (r[beats] <= r_mf + 1e-8).all()
    ok = sub_ok and order_ok
    report(
        8,
        ok,
        f"200 pairs subadditive (worst rel gap {worst_sub:.1e}), "
        f"spread ordering worst excess {worst_order:.1e}",
    )


def test_criterion_9_degenerate_and_scaling():
    cfg0 = gen_pair([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], field_point=[0.0, 0.0, 0.0])
    alg0 = build_algebra(cfg0)
    rep0 = bounds_report(alg0, None)
    exact_zero = float(np.abs(alg0.basis_images).max()) == 0.0
    degenerate = rep0.branch is Branch.DEGENERATE and rep0.lambda_bar == 0.0

    rng = np.random.default_rng(23)
    scaling_ok = True
    worst_scale = worst_exact = 0.0
    for cfg in (
        DipoleConfig([[0.0, 0.0, 0.0]], [0.0, 0.0, 1.0]),
        random_config(rng),
        random_coplanar_config(rng, n_min=3)[0],
        random_mirror_config(rng)[0],
    ):
        base = lambda_bar_bruteforce(build_algebra(cfg), n_samples=2000, refine_steps=50, seed=1)
        for s in (0.5, 2.0, 10.0):
            scaled = lambda_bar_bruteforce(
                build_algebra(cfg.scaled(s)), n_samples=2000, refine_steps=50, seed=1
            )
            rel = abs(scaled.lambda_bar * s ** 4 - base.lambda_bar) / base.lambda_bar
            worst_scale = max(worst_scale, rel)
            scaling_ok = scaling_ok and rel <= 1e-6
        # the exact worst case is covariant as d^-4 with the nearest magnet from 1e-9 to 1e30 m
        exact = lambda_bar_exact(build_algebra(cfg)).lambda_bar
        nearest = float(np.linalg.norm(cfg.magnet_positions - cfg.field_point, axis=1).min())
        for d in (1e-9, 1e-3, 1e10, 1e20, 1e30):
            s = d / nearest
            rel = abs(lambda_bar_exact(build_algebra(cfg.scaled(s))).lambda_bar * s ** 4 / exact - 1.0)
            worst_exact = max(worst_exact, rel)
            scaling_ok = scaling_ok and rel <= 1e-12
    ok = exact_zero and degenerate and scaling_ok
    report(
        9,
        ok,
        f"antipodal operator exactly zero={exact_zero}, branch={rep0.branch.value}, "
        f"scaling worst rel err {worst_scale:.1e} (oracle), {worst_exact:.1e} (exact)",
    )
