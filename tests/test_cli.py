import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from magalg import cli, extremal
from magalg.algebra import _FAMILY_SIZE, find_invariant_planes, planar_structure
from magalg.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_VIOLATION,
    SWEEP_COLUMNS,
    main,
    parse_grid,
)
from magalg.corpus import random_mirror_config
from magalg.dipoles import DipoleConfig, MagneticAlgebra, build_algebra


# five coplanar magnets; at (0.24, 1.2, 0) a 2000-sample oracle falls short by 3e-8 relative
COPLANAR_FIVE = [[0.9973, -0.3729, 0], [-1.6985, -0.1211, 0], [0.7533, -0.1133, 0],
                 [1.5793, 0.8791, 0], [-1.0277, -0.8218, 0]]
# five magnets in general position; (0.05, -0.02, 0.03) has no invariant plane
NONPLANAR_FIVE = [[0.9, 0.1, 0.2], [-0.3, 1.1, -0.4], [0.2, -0.8, 0.9], [1.2, 0.7, -0.5], [-0.9, -0.6, -1.1]]


def write_config(path, magnets, field_points, si=False):
    data = {
        "magnets": [{"position": list(map(float, m))} for m in magnets],
        "field_points": [list(map(float, fp)) for fp in field_points],
        "si_prefactor": si,
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture
def single_dipole_json(tmp_path):
    return write_config(tmp_path / "single.json", [[0, 0, 0]], [[0, 0, 1]])


@pytest.fixture
def antipodal_json(tmp_path):
    return write_config(tmp_path / "anti.json", [[0, 0, 1], [0, 0, -1]], [[0, 0, 0]])


def run_analyze(tmp_path, config, **overrides):
    out = tmp_path / "report.json"
    argv = ["analyze", "--config", str(config), "--out", str(out)]
    for key, val in overrides.items():
        argv += [f"--{key}", str(val)]
    code = main(argv)
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_analyze_single_dipole(tmp_path, single_dipole_json):
    code, rep = run_analyze(tmp_path, single_dipole_json)
    assert code == EXIT_OK
    assert rep["branch"] == "PLANE_DOMINANT"
    assert rep["lambda_bar"]["value"] == pytest.approx(2.0, rel=1e-12)
    assert rep["lambda_bar"]["tol_sampling"] == 0.0
    assert rep["lambda_bar"]["certified"] == 2.0
    assert rep["tool"]["name"] == "magalg"
    assert rep["tool"]["seed"] == 0
    assert rep["tool"]["tol"] == 1e-9
    assert all(flag for flag in rep["chain_ok"].values())
    assert rep["results"][0]["branch"] == rep["branch"]
    # the Z-eigenvectors come in closed form: the axis and 2 _FAMILY_SIZE cone points
    assert sum(c["kind"] == "EIGEN_SELF" for c in rep["candidates"]) == 1 + 2 * _FAMILY_SIZE


def test_analyze_antipodal_degenerate(tmp_path, antipodal_json):
    code, rep = run_analyze(tmp_path, antipodal_json)
    assert code == EXIT_OK
    assert rep["branch"] == "DEGENERATE"
    assert rep["lambda_bar"]["value"] == 0.0


def test_analyze_degenerate_record_is_pinned(tmp_path, antipodal_json):
    """The whole DEGENERATE record, key order included."""
    _, rep = run_analyze(tmp_path, antipodal_json)
    expected = {
        "field_point": [0.0, 0.0, 0.0],
        "branch": "DEGENERATE",
        "p_vector": [0.0, 0.0, 0.0],
        "gram": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "lambda_F": 0.0,
        "M_F": None,
        "gram_multiplicity": 3,
        "planes": [],
        "plane_used": None,
        "norm_P": 0.0,
        "abs_lambda_MF": 0.0,
        "lambda_P": 0.0,
        "M_P": None,
        "lambda_bar": {"value": 0.0, "M_bar": None, "m_bar": None, "tol_sampling": 0.0, "certified": 0.0,
                       "complete": False},
        "bounds": {"chain_upper": 0.0, "refined_upper": 0.0, "gram_plus_third": None,
                   "plane_ratio": None, "plane_formula_upper": 0.0, "sqrt_two_thirds_lambda_F": 0.0},
        "chain_ok": {"degenerate": True},
        "candidates": [],
    }
    rec = rep["results"][0]
    assert json.dumps(rec) == json.dumps(expected)


LAMBDA_BAR_KEYS = ["value", "M_bar", "m_bar", "tol_sampling", "certified", "complete"]


def test_analyze_nonplanar_record_is_pinned(tmp_path):
    """A NONPLANAR record's keys in order, and every value that has no plane to come from."""
    _, rep = run_analyze(tmp_path, write_config(tmp_path / "np.json", NONPLANAR_FIVE, [[0.05, -0.02, 0.03]]))
    rec = rep["results"][0]
    assert list(rec) == [
        "field_point", "p_vector", "gram", "lambda_F", "M_F", "gram_eigenvalues", "gram_multiplicity",
        "planes", "branch", "plane_used", "norm_P", "abs_lambda_MF", "lambda_P", "M_P", "lambda_bar",
        "bounds", "chain_ok", "candidates",
    ]
    assert list(rec["lambda_bar"]) == LAMBDA_BAR_KEYS
    assert {k: rec[k] for k in ("planes", "branch", "plane_used", "norm_P", "lambda_P", "M_P", "bounds",
                                "chain_ok", "candidates")} == {
        "planes": [], "branch": "NONPLANAR", "plane_used": None, "norm_P": None, "lambda_P": None,
        "M_P": None, "bounds": None, "chain_ok": None, "candidates": [],
    }
    assert rec["lambda_bar"]["tol_sampling"] == 0.0 and rec["lambda_bar"]["certified"] is None


def test_analyze_planar_record_keys_are_pinned(tmp_path):
    """A planar record's keys in order, nested ones included."""
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [[0.3, 0.2, 0.5]])
    _, rep = run_analyze(tmp_path, cfg)
    rec = rep["results"][0]
    assert list(rec) == [
        "field_point", "p_vector", "gram", "lambda_F", "M_F", "gram_eigenvalues", "gram_multiplicity",
        "planes", "branch", "plane_used", "plane_reports", "norm_P", "abs_lambda_MF", "lambda_P", "M_P",
        "lambda_bar", "bounds", "chain_ok", "candidates",
    ]
    bounds = ["chain_upper", "refined_upper", "gram_plus_third", "plane_ratio", "plane_formula_upper",
              "sqrt_two_thirds_lambda_F"]
    chain = ["norm_p_le_lambda_mf", "lambda_mf_le_lambda_p", "lambda_p_le_lambda_bar",
             "lambda_bar_le_chain_upper", "squares_bracket", "branch_bound"]
    assert [list(p) for p in rec["planes"]] == [["n_hat", "P", "norm_P", "residual", "gram_eigenvalue", "degenerate"]]
    assert [list(r) for r in rec["plane_reports"]] == [
        ["branch", "norm_P", "abs_lambda_MF", "lambda_P", "bounds", "chain_ok"]]
    assert [list(r["bounds"]) for r in rec["plane_reports"]] == [bounds]
    assert [list(r["chain_ok"]) for r in rec["plane_reports"]] == [chain]
    assert list(rec["lambda_bar"]) == LAMBDA_BAR_KEYS
    assert list(rec["bounds"]) == bounds
    assert list(rec["chain_ok"]) == chain


def test_si_keys_close_the_record_of_every_branch(tmp_path):
    """Under "si_prefactor": true in the config every branch ends with both SI keys, and tool.si records it."""
    cases = [
        ([[1, 0, 0], [-1, 0, 0]], [0.3, 0.2, 0.5], "PLANE_DOMINANT"),
        (NONPLANAR_FIVE, [0.05, -0.02, 0.03], "NONPLANAR"),
        ([[0, 0, 1], [0, 0, -1]], [0, 0, 0], "DEGENERATE"),
    ]
    out = tmp_path / "r.json"
    for magnets, fp, branch in cases:
        cfg = write_config(tmp_path / "c.json", magnets, [fp], si=True)
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["tool"]["si"] is True
        for rec in (rep, rep["results"][0]):
            assert rec["branch"] == branch
            assert list(rec)[-2:] == ["force_scale_si", "max_force_si_per_unit_moments"]
            assert rec["force_scale_si"] == 3e-7
            assert rec["max_force_si_per_unit_moments"] == 3e-7 * rec["lambda_bar"]["value"]


def test_analyze_candidates_follow_chain_ok(tmp_path):
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [[0.3, 0.2, 0.5]], si=True)
    code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    rec = rep["results"][0]
    assert list(rec)[-4:] == ["chain_ok", "candidates", "force_scale_si", "max_force_si_per_unit_moments"]
    cands = rec["candidates"]
    assert {c["kind"] for c in cands} >= {"GRAM_TOP", "IN_PLANE_MAX", "EIGEN_SELF"}
    assert all(list(c) == ["moment", "kind", "lambda_abs"] for c in cands)
    values = [c["lambda_abs"] for c in cands]
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(rec["lambda_bar"]["value"], rel=1e-9)


@pytest.mark.parametrize("where, value", [
    *((where, value) for where in ("magnet 1 position", "field point 0") for value in (True, "1", None)),
    # si_prefactor takes JSON true or false only
    ("si_prefactor", "false"), ("si_prefactor", 1), ("si_prefactor", None),
])
def test_analyze_rejects_non_numeric_coordinate(tmp_path, capsys, where, value):
    data = {"magnets": [{"position": [1, 0, 0]}, {"position": [-1, 0, 0]}], "field_points": [[0, 0, 1]]}
    if where.startswith("magnet"):
        data["magnets"][1]["position"][2] = value
    elif where.startswith("field"):
        data["field_points"][0][0] = value
    else:
        data[where] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert where in err and json.dumps(value) in err


@pytest.mark.parametrize("command", [["analyze"], ["sweep", "--grid=0:0:1,0:0:1,1:1:1"], ["verify"]],
                         ids=["analyze", "sweep", "verify"])
@pytest.mark.parametrize("where", ["magnet 1 position", "field point 0"])
def test_a_coordinate_beyond_float_range_is_an_input_error(tmp_path, capsys, command, where):
    """A JSON integer too large for a float names its magnet or field point and exits 2, not 1."""
    data = {"magnets": [{"position": [1, 0, 0]}, {"position": [-1, 0, 0]}], "field_points": [[0, 0, 1]]}
    if where.startswith("magnet"):
        data["magnets"][1]["position"][2] = 10 ** 400
    else:
        data["field_points"][0][0] = 10 ** 400
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    argv = [*command, "--config", str(cfg)]
    if command[0] != "verify":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err and "beyond float range" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["analyze"], ["sweep", "--grid=0:0:1,0:0:1,1:1:1"], ["verify"]],
                         ids=["analyze", "sweep", "verify"])
@pytest.mark.parametrize("where", ["magnet 1 position", "field point 0"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_a_non_finite_coordinate_is_an_input_error(tmp_path, capsys, command, where, literal):
    """Python's json reads NaN, Infinity and 1e400 (as inf): each names its magnet or field point and exits 2."""
    magnet, point = ("1e400", "1") if where.startswith("magnet") else ("1", "1e400")
    text = f'{{"magnets": [{{"position": [1, 0, 0]}}, {{"position": [-1, 0, {magnet}]}}], "field_points": [[{point}, 0, 1]]}}'
    cfg = tmp_path / "c.json"
    cfg.write_text(text.replace("1e400", literal), encoding="utf-8")
    argv = [*command, "--config", str(cfg)]
    if command[0] != "verify":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err and "NaN, an infinity" in err
    assert not (tmp_path / "out").exists()


def test_analyze_missing_config(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INPUT
    assert "config not found" in capsys.readouterr().err


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"magnets": [,]}', encoding="utf-8")
    code = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_analyze_singular_field_point(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", [[0, 0, 0], [1, 0, 0]], [[1, 0, 0]])
    code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_SINGULAR
    assert "magnet 1" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1e-6, 1.0, 1e20, 1e30, 1e38])
def test_analyze_single_dipole_at_any_distance(tmp_path, d):
    """lambda_bar = 2 / d^4 with every chain flag true, and no floating-point warning."""
    cfg = write_config(tmp_path / "far.json", [[0, 0, 0]], [[0, 0, d]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    assert rep["branch"] == "PLANE_DOMINANT"
    assert rep["lambda_bar"]["value"] * d ** 4 / 2.0 == pytest.approx(1.0, abs=1e-12)
    assert rep["lambda_bar"]["certified"] * d ** 4 / 2.0 == pytest.approx(1.0, abs=1e-12)
    flags = [rep["chain_ok"]] + [r["chain_ok"] for r in rep["plane_reports"]]
    assert all(ok for f in flags for ok in f.values())


@pytest.mark.parametrize("d", [1e40, 1e80])
def test_analyze_rejects_underflowing_far_field(tmp_path, capsys, d):
    cfg = write_config(tmp_path / "far.json", [[0, 0, 0]], [[0, 0, d]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_INPUT
    assert rep is None
    assert f"{d:.3e} m" in capsys.readouterr().err


def test_analyze_ignores_an_underflowing_far_magnet(tmp_path):
    cfg = write_config(tmp_path / "far.json", [[0, 0, 0], [1e80, 0, 0]], [[0, 0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    assert rep["branch"] == "PLANE_DOMINANT"
    assert rep["lambda_bar"]["certified"] == 2.0


# the second magnet weighs (1 / 500)^4 = 1.6e-11 of the first: an operator within 1e-10 of zonal
FAR_MAGNET = ([[1, 0, 0], [300, 320, 240]], [[0, 0, 0]])


def test_analyze_far_magnet_reports_lambda_bar_in_the_weight_bracket(tmp_path):
    """The operator is -2 sum_i w_i Z_i, with w = d^-4 and Z_i the zonal cubic about
    magnet i, of spectral norm 1, so 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w;
    every chain flag, at the top level and per plane, holds."""
    code, rep = run_analyze(tmp_path, write_config(tmp_path / "far.json", *FAR_MAGNET))
    assert code == EXIT_OK
    w = np.array([1.0, 500.0 ** -4])
    assert 2.0 * (2.0 * w.max() - w.sum()) <= rep["lambda_bar"]["value"] <= 2.0 * w.sum()
    assert 1.99999999997 <= rep["lambda_bar"]["value"] <= 2.00000000003
    assert rep["plane_reports"]
    assert all(rep["chain_ok"].values())
    assert all(all(plane["chain_ok"].values()) for plane in rep["plane_reports"])


@pytest.mark.parametrize("points, si", [([[0, 0, 1]], False), ([[0, 0, 1], [0.3, 0.2, 0.5], [0.7, 0.1, 0]], False),
                                       ([[0.3, 0.2, 0.5], [0, 0, 1]], True)], ids=["single", "several", "si"])
def test_analyze_writes_the_bytes_of_json_dumps_of_the_report_dict(tmp_path, points, si):
    """analyze encodes each record once and joins the strings; the bytes are those of json.dumps
    of {"tool", "config", "results"} updated with the first record, whose keys follow."""
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(write_config(tmp_path / "c.json", [[1, 0, 0], [-1, 0, 0.2]], points, si)),
                 "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text(encoding="utf-8"))  # floats read back as written: repr round-trips
    report = {"tool": rep["tool"], "config": rep["config"], "results": rep["results"]}
    report.update(rep["results"][0])
    assert len(rep["results"]) == len(points) and rep["tool"]["si"] is si
    assert out.read_bytes() == (json.dumps(report) + "\n").encode()


def test_verify_far_magnet_passes(tmp_path, capsys):
    assert main(["verify", "--config", str(write_config(tmp_path / "far.json", *FAR_MAGNET))]) == EXIT_OK
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_passes_on_nearly_invariant_planes_of_a_nearly_zonal_pair(tmp_path, capsys):
    """A far magnet of weight 1e-10 to 1e-7 of the near one's leaves the planes found
    invariant only to about that weight; each plane check allows the bound that the
    plane's residual proves, so verify passes where fixed thresholds failed."""
    path = write_config(tmp_path / "far90.json", [[1, 0, 0], [90, 96, 72]], [[0, 0, 0]])  # weight 1.6e-8
    assert main(["verify", "--config", str(path)]) == EXIT_OK
    assert "verify: PASS" in capsys.readouterr().out
    rng = np.random.default_rng(0)
    for i in range(40):
        near, far = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        ratio = 10.0 ** rng.uniform(-10, -7)  # the weight d^-4 of the far magnet over the near one's
        path = write_config(tmp_path / f"draw{i}.json", [near, far * ratio ** -0.25], [[0, 0, 0]])
        assert main(["verify", "--config", str(path)]) == EXIT_OK, (i, capsys.readouterr())
        assert "verify: PASS" in capsys.readouterr().out


def test_verify_catches_a_kernel_direction_off_by_1e_11_rad(tmp_path, monkeypatch, capsys):
    """On a plane invariant to rounding, Q_hat turned about n_hat by 1e-11 rad leaves
    F_n Q_hat at about 1e-11 ||P||, four times the rounding that kernel_direction allows."""
    exact = cli._planar_structures

    def tilted(*args):
        # cos(1e-11) is 1.0
        return [plane._replace(Q_hat=plane.Q_hat + 1e-11 * plane.P_hat) for plane in exact(*args)]

    monkeypatch.setattr(cli, "_planar_structures", tilted)  # the planes verify's battery builds
    path = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [[0.3, 0.2, 0.5]])
    assert main(["verify", "--config", str(path)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines() if "VIOLATION" in line] == ["kernel_direction"]
    assert "verify: FAIL" in captured.out
    assert json.loads(captured.err.splitlines()[-1])["field_points"] == [[0.3, 0.2, 0.5]]


def test_verify_decomposition_checks_allow_rounding_of_the_operator_not_of_gamma_p_squared(monkeypatch):
    """Trial 38 of verify --seed 0 has ||P|| 9.5e3 at scale 2.0e4.  gamma = 0.7 / scale keeps
    gamma ||P||^2 at the operator's size, so a term 1e-10 scale n n^T added to E, which a
    rotation about P does not fix, breaks decomposition_equivariance; at gamma 0.7 the
    decomposition checks allowed 1e-12 * 0.7 ||P||^2, about 3000 times 1e-12 scale, and
    missed it."""
    from magalg import algebra
    from magalg.corpus import random_coplanar_config

    cfg, n_hat = random_coplanar_config(np.random.default_rng([0, 38]))
    alg = build_algebra(cfg)
    assert alg.scale == pytest.approx(2.0e4, rel=0.05)
    assert planar_structure(alg, n_hat).norm_P == pytest.approx(9.5e3, rel=0.05)
    trial = [(alg, n_hat, 38, extremal.theorem_draws(alg, 38, 200))]
    checks = cli._verify_block(trial)[0]
    assert all(ok for _, ok in checks.values())
    exact, n = algebra.equivariant_parts, planar_structure(alg, n_hat).n_hat

    def shifted(m, p, gamma):  # what Decomposition.equivariant_part and the battery's pass compute
        return exact(m, p, gamma) + 1e-10 * alg.scale * np.outer(n, n)

    monkeypatch.setattr(algebra, "equivariant_parts", shifted)
    checks = cli._verify_block(trial)[0]
    # n n^T also leaves the plane, as n^T Pi(M)
    assert [name for name, (_, ok) in checks.items() if not ok] == ["decomposition_into_plane",
                                                                    "decomposition_equivariance"]


def test_near_magnet_ring_of_a_pair_lies_in_the_weight_bracket():
    """610 field points 1e-4 to 1e-1 from a magnet of the pair at (+-1, 0, 0), solved as
    sweep solves them: each lambda_bar lies in 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w,
    and every chain flag, at the top level and per plane, holds.  The plane of the two
    magnets is invariant, so the planar solve is complete at each of the 302 points 3e-3
    or more from its magnet (377 points in all are).  Within about 2.6e-3 the far magnet
    weighs under 1e-11 of the near one, and the off-plane polynomial is within its
    rounding bound of the vanishing one of a zonal operator, whose cone of Z-eigenvectors
    is a continuum."""
    rng = np.random.default_rng(0)
    magnets = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    n = 610
    near = magnets[rng.integers(0, 2, n)]
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = near + 10.0 ** rng.uniform(-4.0, -1.0, n)[:, None] * dirs
    cfgs = [DipoleConfig(magnets, p) for p in points]
    complete = []
    for cfg, alg in cli._solved(cfgs, build_algebra):
        rec = cli.analyze_point(cfg, alg)
        w = np.linalg.norm(cfg.field_point - magnets, axis=1) ** -4
        lam = rec["lambda_bar"]["value"]
        assert 2.0 * (2.0 * w.max() - w.sum()) * (1.0 - 1e-12) <= lam <= 2.0 * w.sum() * (1.0 + 1e-12)
        assert all(rec["chain_ok"].values())
        assert all(all(plane["chain_ok"].values()) for plane in rec["plane_reports"])
        complete.append(rec["lambda_bar"]["complete"])
    far = np.linalg.norm(points - near, axis=1) >= 3e-3
    assert far.sum() == 302
    assert all(np.array(complete)[far])


def _flip_chain_flag(monkeypatch, which):
    """Make cli.plane_reports set branch_bound false on the reports of the planes that which(plane) picks."""
    plane_reports = cli.plane_reports

    def flipped(alg):
        return [rep._replace(chain_ok={**rep.chain_ok, "branch_bound": False}) if which(plane) else rep
                for plane, rep in zip(cli.find_invariant_planes(alg), plane_reports(alg))]

    monkeypatch.setattr(cli, "plane_reports", flipped)


def test_analyze_exits_1_on_a_false_chain_flag_after_writing_the_report(tmp_path, single_dipole_json,
                                                                        monkeypatch, capsys):
    """A false flag on a plane other than the primary one: the top-level chain holds, the exit code is 1."""
    code, rep = run_analyze(tmp_path, single_dipole_json)
    assert code == EXIT_OK
    other = 1 if rep["plane_used"] == 0 else 0
    n_other = rep["planes"][other]["n_hat"]
    _flip_chain_flag(monkeypatch, lambda plane: np.array_equal(plane.n_hat, n_other))
    capsys.readouterr()
    (tmp_path / "report.json").unlink()
    code, flipped = run_analyze(tmp_path, single_dipole_json)
    assert code == EXIT_VIOLATION
    assert all(flipped["chain_ok"].values())
    assert [r["chain_ok"]["branch_bound"] for r in flipped["plane_reports"]] == [
        i != other for i in range(len(rep["plane_reports"]))]
    assert capsys.readouterr().err == "violation: field point [0.0, 0.0, 1.0]: chain_ok false: branch_bound\n"


def test_sweep_exits_1_on_a_false_chain_flag_after_writing_the_csv(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [])
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(cfg), "--grid", "0:1:2,0.5:0.5:1,0:0:1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    want = out.read_text()
    out.unlink()
    _flip_chain_flag(monkeypatch, lambda plane: True)
    capsys.readouterr()
    assert main(argv) == EXIT_VIOLATION
    assert out.read_text() == want
    err = capsys.readouterr().err.splitlines()
    assert err == [f"violation: field point [{x}, 0.5, 0.0]: chain_ok false: branch_bound" for x in ("0.0", "1.0")]


def test_analyze_rejects_bad_request(tmp_path, single_dipole_json, capsys):
    # the chain tolerance is fixed at CHAIN_RTOL: --tol is no option, whatever its value
    for tol in ("1e-9", "0", "nan", "inf", "1", "-1"):
        for command in (["analyze"], ["sweep", "--grid", "0:0:1,0:0:1,1:1:1"]):
            argv = [*command, "--config", str(single_dipole_json), "--out", str(tmp_path / "r.out"), "--tol", tol]
            assert main(argv) == EXIT_INPUT
            assert "--tol" in capsys.readouterr().err
            assert not (tmp_path / "r.out").exists()
    # the worst case is exact: the oracle's sample and refinement knobs are gone, and
    # the Z-eigenvector solve takes no starts, so neither command has a seed to take
    sweep = ["sweep", "--grid", "0:0:1,0:0:1,1:1:1"]
    removed = [(["analyze"], "--samples"), (["analyze"], "--refine"), (["analyze"], "--seed"),
               (sweep, "--samples"), (sweep, "--refine"), (sweep, "--seed")]
    for command, flag in removed:
        argv = [*command, "--config", str(single_dipole_json),
                "--out", str(tmp_path / "r.out"), flag, "20000"]
        assert main(argv) == EXIT_INPUT
    # the config's si_prefactor asks for the SI keys: analyze has no --si
    argv = ["analyze", "--config", str(single_dipole_json), "--out", str(tmp_path / "r.out"), "--si"]
    assert main(argv) == EXIT_INPUT
    assert "--si" in capsys.readouterr().err
    assert not (tmp_path / "r.out").exists()
    # verify's lattice is fixed at 1500 moments, and gen pair places its magnets by --sep and --axis only
    for argv in (["verify", "--trials", "1", "--samples", "1500"],
                 ["gen", "pair", "--o-plus", "1,0,0"], ["gen", "pair", "--o-minus", "-1,0,0"]):
        assert main(argv) == EXIT_INPUT
        assert argv[-2] in capsys.readouterr().err


def test_analyze_nonplanar_config(tmp_path):
    cfg = write_config(tmp_path / "np.json", NONPLANAR_FIVE, [[0.05, -0.02, 0.03]])
    code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    assert rep["branch"] == "NONPLANAR"
    assert rep["planes"] == []
    assert rep["lambda_bar"]["value"] > 0.0


def test_analyze_records_whether_lambda_bar_is_certified(tmp_path):
    """lambda_bar.complete is true where the 7-root certificate holds (an
    off-axis pair, a generic NONPLANAR point) and false for a single
    dipole, whose Z-eigenvectors include a cone, and for DEGENERATE records."""
    cases = [
        ([[1, 0, 0], [-1, 0, 0]], [0.3, 0.2, 0.5], True),
        (NONPLANAR_FIVE, [0.05, -0.02, 0.03], True),
        ([[0, 0, 0]], [0, 0, 1], False),
        ([[0, 0, 1], [0, 0, -1]], [0, 0, 0], False),
    ]
    for magnets, fp, complete in cases:
        code, rep = run_analyze(tmp_path, write_config(tmp_path / "c.json", magnets, [fp]))
        assert code == EXIT_OK
        assert rep["lambda_bar"]["complete"] is complete


def test_primary_plane_of_symmetric_planes_does_not_follow_rounding():
    """Two concentric axis-aligned tetrahedra: the six mirror planes tie, and
    a 1e-12 shift of the field point must not change the order of the
    planes, which normal (up to sign) is primary, nor its bounds."""
    from magalg.cli import analyze_point
    from magalg.dipoles import DipoleConfig
    from test_algebra import TETRA

    fp = np.array([0.2, -0.1, 0.3])
    magnets = np.concatenate([fp + r * TETRA for r in (0.6, 1.3)])
    picked = []
    for shift in (0.0, 1e-12, -1e-12):
        for direction in np.eye(3):
            rec = analyze_point(DipoleConfig(magnets, fp + shift * direction))
            assert len(rec["planes"]) == 6
            normals = np.array([p["n_hat"] for p in rec["planes"]])
            picked.append((normals, rec["plane_used"], rec["bounds"]))
    normals0, used0, bounds0 = picked[0]
    for normals, used, bounds in picked[1:]:
        assert np.abs(np.einsum("na,na->n", normals, normals0)) == pytest.approx(np.ones(6), abs=1e-9)
        assert used == used0
        for key, value in bounds0.items():
            assert bounds[key] == pytest.approx(value, rel=1e-9)


def test_in_plane_maximizer_of_symmetric_planes_does_not_follow_rounding():
    """The concentric tetrahedra above: each mirror plane's in-plane maximum is
    attained at symmetric moments whose values tie to rounding, and a 1e-12 shift of
    the field point must not change which of them is M_P, up to sign, on any plane."""
    from magalg.dipoles import DipoleConfig
    from magalg.extremal import bounds_report
    from test_algebra import TETRA

    fp = np.array([0.2, -0.1, 0.3])
    magnets = np.concatenate([fp + r * TETRA for r in (0.6, 1.3)])
    picked = []
    for shift in (0.0, 1e-12, -1e-12):
        for direction in np.eye(3):
            alg = build_algebra(DipoleConfig(magnets, fp + shift * direction))
            picked.append(np.array([bounds_report(alg, p).M_P for p in cli.find_invariant_planes(alg)]))
    for m_p in picked[1:]:
        assert np.abs(np.einsum("na,na->n", m_p, picked[0])) == pytest.approx(np.ones(6), abs=1e-9)


def _metamorphic_case(name):
    """A tetrahedral centre (3-fold Gram spectrum), a single dipole (a plane family) or a
    pair seen from its bisector plane (two isolated planes), rescaled so that the
    nearest magnet is 1 m from the field point."""
    from magalg.corpus import random_frame
    from magalg.dipoles import DipoleConfig, gen_pair
    from test_algebra import tetrahedral_centre

    rng = np.random.default_rng(20261018)
    if name == "tetra":
        cfg, _ = tetrahedral_centre(rng, 2)
    elif name == "dipole":
        cfg = DipoleConfig([rng.uniform(-1.0, 1.0, 3)], rng.uniform(-1.0, 1.0, 3))
    else:
        f = random_frame(rng)
        cfg = gen_pair(f[:, 0], -f[:, 0], field_point=0.7 * f[:, 1] + 0.3 * f[:, 2])
    return cfg.scaled(1.0 / cfg.separations()[1].min())


def _assert_same_planes(rec, expected, rot=np.eye(3)):
    """The planes of rec are those of expected with normals rotated by rot: the same
    normals up to sign, or for a family the same circle of normals."""
    got = np.array([p["n_hat"] for p in rec["planes"]])
    want = np.array([p["n_hat"] for p in expected["planes"]]) @ rot.T
    assert [p["degenerate"] for p in rec["planes"]] == [p["degenerate"] for p in expected["planes"]]
    if expected["planes"][0]["degenerate"]:
        axis = np.linalg.svd(want)[2][-1]  # the family's normals span the plane orthogonal to it
        assert np.abs(got @ axis).max() <= 1e-12
        return
    gap = np.minimum(np.linalg.norm(got[:, None] - want, axis=2), np.linalg.norm(got[:, None] + want, axis=2))
    assert np.sort(gap.argmin(axis=1)).tolist() == list(range(len(want)))
    assert gap.min(axis=1).max() <= 1e-12


def _assert_same_bounds(rec, expected, s):
    """bounds and plane_reports of rec equal those of expected times s^-4 (planes as a set)."""
    def table(r, k):
        return np.array(sorted(
            [q["norm_P"] * k, q["abs_lambda_MF"] * k, q["lambda_P"] * k]
            + [q["bounds"][b] * k
               for b in ("chain_upper", "refined_upper", "plane_formula_upper", "sqrt_two_thirds_lambda_F")]
            for q in r["plane_reports"]))

    assert (rec["branch"], rec["chain_ok"]) == (expected["branch"], expected["chain_ok"])
    flags = [sorted(json.dumps([q["branch"], q["chain_ok"]]) for q in r["plane_reports"]) for r in (rec, expected)]
    assert flags[0] == flags[1]
    for key, value in expected["bounds"].items():
        assert (rec["bounds"][key] is None) == (value is None)
        if value is not None:
            assert rec["bounds"][key] * s ** 4 == pytest.approx(value, rel=1e-13)
    want = table(expected, 1.0)
    assert np.abs(table(rec, s ** 4) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", ["tetra", "dipole", "pair"])
def test_records_are_invariant_under_rotation_and_permutation_and_scale_as_d_minus_4(name):
    """Rotating the magnets about the field point rotates the planes and keeps
    bounds and plane_reports; permuting the magnets keeps all three; scaling
    every length by s, with the nearest magnet from 2e-9 m to 1e30 m, keeps
    the planes and scales every bound by s^-4.  Plane order may change, as
    ties between symmetric planes are broken by the normal's coordinates."""
    from magalg.cli import analyze_point
    from magalg.corpus import random_frame
    from magalg.dipoles import DipoleConfig

    cfg = _metamorphic_case(name)
    base = analyze_point(cfg)
    assert base["planes"] and base["branch"] not in ("NONPLANAR", "DEGENERATE")
    fp, magnets = cfg.field_point, cfg.magnet_positions
    rng = np.random.default_rng(7)
    rot = random_frame(rng)
    rec = analyze_point(DipoleConfig(fp + (magnets - fp) @ rot.T, fp))
    _assert_same_planes(rec, base, rot)
    _assert_same_bounds(rec, base, 1.0)
    rec = analyze_point(DipoleConfig(magnets[rng.permutation(len(magnets))[::-1]], fp))
    _assert_same_planes(rec, base)
    _assert_same_bounds(rec, base, 1.0)
    for s in (2e-9, 1e-3, 1e7, 1e30):
        rec = analyze_point(cfg.scaled(s))
        _assert_same_planes(rec, base)
        _assert_same_bounds(rec, base, s)


@pytest.mark.parametrize("low_degree", [False, True])
def test_circle_axis_order_does_not_change_the_record(low_degree, monkeypatch):
    """The seven circles of a tetrahedral centre are searched in one batch;
    solving them in reverse order gives the same analyze record, candidates
    included, also when one circle's polynomial takes np.roots."""
    from magalg import algebra
    from magalg.cli import analyze_point
    from magalg.dipoles import DipoleConfig
    from test_algebra import TETRA_LOW_DEGREE

    cfg = DipoleConfig(*TETRA_LOW_DEGREE) if low_degree else _metamorphic_case("tetra")
    base = json.dumps(analyze_point(cfg, candidates=True))
    circle_normals = algebra._circle_normals
    monkeypatch.setattr(algebra, "_circle_normals", lambda alg, axes, threshold: circle_normals(alg, axes[::-1], threshold))
    assert json.dumps(analyze_point(cfg, candidates=True)) == base


def test_report_roundtrip(tmp_path, single_dipole_json):
    """Re-running analyze on the embedded config reproduces all numbers."""
    code, rep = run_analyze(tmp_path, single_dipole_json)
    assert code == EXIT_OK
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(rep["config"]), encoding="utf-8")
    code2, rep2 = run_analyze(tmp_path, echo)
    assert code2 == EXIT_OK
    assert rep2["lambda_bar"]["value"] == pytest.approx(rep["lambda_bar"]["value"], abs=1e-12)
    assert rep2["gram"] == rep["gram"]
    assert rep2["norm_P"] == pytest.approx(rep["norm_P"], abs=1e-12)
    assert rep2["bounds"] == rep["bounds"]


def test_gen_pair_stdout(capsys):
    assert main(["gen", "pair", "--sep", "2"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    pos = sorted(m["position"] for m in data["magnets"])
    assert pos == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assert data["field_points"] == [[0.0, 0.0, 0.0]]


def test_gen_lattice_count(capsys):
    assert main(["gen", "lattice", "--k", "1", "--exclude-origin"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert len(data["magnets"]) == 26


def test_gen_mirror(capsys):
    code = main(["gen", "mirror", "--normal", "z", "--base", "1,0,0:1"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert sorted(m["position"] for m in data["magnets"]) == [[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]]


def test_gen_mirror_empty_is_input_error(capsys):
    assert main(["gen", "mirror", "--normal", "z"]) == EXIT_INPUT


def test_gen_pair_bad_separation(capsys):
    assert main(["gen", "pair", "--sep", "0"]) == EXIT_INPUT


def test_parse_grid():
    g = parse_grid("0:1:2,0:0:1,-1:1:3")
    pts = list(g.points())
    assert len(pts) == 6
    # x varies fastest
    assert np.allclose(pts[0], [0, 0, -1])
    assert np.allclose(pts[1], [1, 0, -1])
    assert np.allclose(pts[2], [0, 0, 0])
    with pytest.raises(ValueError):
        parse_grid("0:1:0,0:0:1,0:0:1")
    with pytest.raises(ValueError):
        parse_grid("0:1:2")


def test_sweep_single_point_matches_analyze(tmp_path):
    """Each command at its own defaults reports the same numbers for one point."""
    for magnets, point in (
        ([[0, 0, 0]], [0.0, 0.0, 1.0]),
        ([[1, 0, 0], [-1, 0, 0]], [0.3, 0.2, 0.5]),
        ([[1, 0, 0], [-1, 0, 0]], [1.7, 0.4, -0.2]),
        ([[0.9, 0.1, 0.2], [-0.3, 1.1, -0.4], [0.2, -0.8, 0.9]], [0.05, -0.02, 0.03]),
        (COPLANAR_FIVE, [0.24, 1.2, 0.0]),
    ):
        cfg = write_config(tmp_path / "c.json", magnets, [point])
        out = tmp_path / "sweep.csv"
        grid = ",".join(f"{c!r}:{c!r}:1" for c in point)
        code = main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        row = rows[0]
        code, rep = run_analyze(tmp_path, cfg)
        assert code == EXIT_OK
        assert float(row["lambda_bar"]) == pytest.approx(rep["lambda_bar"]["value"], rel=1e-12)
        if rep["lambda_P"] is not None:
            assert float(row["lambda_P"]) == pytest.approx(rep["lambda_P"], rel=1e-12)
        assert row["branch"] == rep["branch"]


@pytest.mark.parametrize("grid, head, stack", [
    ("-1:1:3,0:0.9:3,0:0:1", ["singular", "DEGENERATE", "singular"], 6),
    ("0.99:1.01:5,0:0.03:4,0:0:1", ["PLANE_DOMINANT", "PLANE_DOMINANT", "singular"], 0),
], ids=["through-both-magnets", "about-a-magnet"])
def test_multi_point_sweep_matches_per_point_analyze(tmp_path, capsys, monkeypatch, grid, head, stack):
    """Grids of gen pair --sep 2, each row byte-equal to analyze of its point alone, and
    the null-space solve sees one stack or none.  A 3x3 grid through both magnets and
    their midpoint: two singular rows, the DEGENERATE midpoint and six planar points,
    which the null-space solve certifies.  A 5x4 grid about a magnet: one singular row,
    and 19 nearly zonal or zonal operators (4 on the pair axis), with 2-fold Gram
    spectra, solved through their planes, all in one block."""
    from magalg import algebra

    assert main(["gen", "pair", "--sep", "2"]) == EXIT_OK
    pair = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(pair))
    eigenpoints = algebra._eigenpoints
    stacks = []
    monkeypatch.setattr(algebra, "_eigenpoints", lambda t: stacks.append(len(t)) or eigenpoints(t))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    singular = [row["branch"] for row in rows].count("singular")
    assert capsys.readouterr().err.count("warning: skipping grid point") == singular
    assert stacks == ([stack] if stack else [])
    assert [row["branch"] for row in rows][:3] == head
    for row in rows:
        point = [float(row[c]) for c in "xyz"]
        magnets = [m["position"] for m in pair["magnets"]]
        code, rep = run_analyze(tmp_path, write_config(tmp_path / "point.json", magnets, [point]))
        if row["branch"] == "singular":
            assert code == EXIT_SINGULAR
            assert all(row[c] == "" for c in SWEEP_COLUMNS[3:-1])
            continue
        assert code == EXIT_OK
        bounds = rep["bounds"] or {}
        want = [rep["norm_P"], rep["abs_lambda_MF"], rep["lambda_P"], rep["lambda_bar"]["value"],
                bounds.get("chain_upper"), bounds.get("refined_upper")]
        assert [row[c] for c in SWEEP_COLUMNS[3:-1]] == ["" if v is None else repr(float(v)) for v in want]
        assert row["branch"] == rep["branch"]


# A cube of magnets, and a regular tetrahedron 1e4 away, whose weights 1e-16 leave the cube's
# centre a zero operator and perturb the cube's operators by about 1e-15 of their scale
CUBE_AND_FAR_TETRA = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)] + [
    [1e4 + 1, 1, 1], [1e4 + 1, -1, -1], [1e4 - 1, 1, -1], [1e4 - 1, -1, 1]]
# its centre, the tetrahedron's centre (a 3-fold Gram spectrum), a point on a 4-fold axis of
# the cube (zonal, a family of planes), a point on no mirror plane, and two on one
EVERY_BRANCH = ([[0, 0, 0], [1e4, 0, 0], [0, 0, 0.3], [0.3, 0.2, 0.5], [0.3, 0.1, 0], [0.7, 0.7, 0.2]],
                ["DEGENERATE", "P_DOMINANT", "PLANE_DOMINANT", "NONPLANAR", "P_DOMINANT", "PLANE_DOMINANT"])


def test_analyze_of_several_points_matches_each_point_alone(tmp_path, monkeypatch):
    """The field points of one config share one stacked solve and one record pass, and
    each record is byte-equal to that of analyzing its point alone.  The second config's
    block holds every branch, and each plane search path: isolated planes, the circles
    of a 3-fold Gram spectrum and a family."""
    from magalg import algebra

    magnets = [[1, 0, 0], [-1, 0, 0], [0.2, 0.9, -0.3]]
    points = [[0.3, 0.2, 0.5], [0.0, 0.0, 0.0], [1.7, 0.4, -0.2]]  # at the origin the pair cancels: zonal
    eigenpoints = algebra._eigenpoints
    for magnets, points, want in ((magnets, points, None), (CUBE_AND_FAR_TETRA, *EVERY_BRANCH)):
        alone = [run_analyze(tmp_path, write_config(tmp_path / "one.json", magnets, [p]))[1]["results"][0]
                 for p in points]
        stacks = []
        monkeypatch.setattr(algebra, "_eigenpoints", lambda t: stacks.append(len(t)) or eigenpoints(t))
        code, rep = run_analyze(tmp_path, write_config(tmp_path / "all.json", magnets, points))
        monkeypatch.undo()
        assert code == EXIT_OK
        assert [json.dumps(r) for r in rep["results"]] == [json.dumps(r) for r in alone]
        if want is None:
            assert stacks == [2]  # the zonal operator is solved through its planes
        else:
            assert [r["branch"] for r in rep["results"]] == want
            assert rep["results"][1]["gram_multiplicity"] == 3 and len(rep["results"][1]["planes"]) == 6
            assert [p["degenerate"] for p in rep["results"][2]["planes"]] == [True] * _FAMILY_SIZE


def _record_draw(rng):
    """A coplanar, mirror, generic, single-dipole or tetrahedral-centre config, one field point."""
    from magalg.corpus import random_config, random_coplanar_config
    from test_algebra import tetrahedral_centre

    kind = int(rng.integers(5))
    if kind == 0:
        return random_coplanar_config(rng)[0]
    if kind == 1:
        return random_mirror_config(rng)[0]
    if kind == 2:
        return random_config(rng)
    if kind == 3:
        return DipoleConfig([rng.uniform(-1.0, 1.0, 3)], rng.uniform(-1.0, 1.0, 3))
    return tetrahedral_centre(rng, int(rng.integers(1, 3)))[0]


@pytest.mark.parametrize("seed", range(6))
def test_a_block_of_records_matches_each_point_alone(seed):
    """A block of 1 to 39 random points, in shuffled order, shares one solve and one
    record pass (cli._solved); each analyze record, candidates included, is exactly the
    one its point gives alone."""
    rng = np.random.default_rng([20261020, seed])
    cfgs = [_record_draw(rng) for _ in range(int(rng.integers(1, 40)))]
    cfgs = [cfgs[i] for i in rng.permutation(len(cfgs))]
    block = [json.dumps(cli.analyze_point(cfg, alg, candidates=True)) for cfg, alg in cli._solved(cfgs, build_algebra)]
    assert block == [json.dumps(cli.analyze_point(cfg, candidates=True)) for cfg in cfgs]


def test_analyze_builds_the_record_of_every_branch_with_analyze_point(tmp_path, monkeypatch):
    """analyze writes the DEGENERATE, NONPLANAR and planar records of one config through
    cli.analyze_point, the function the benchmark traces, and counting its calls changes
    nothing in the report."""
    magnets = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]  # two antipodal pairs: zero at the origin
    cfg = write_config(tmp_path / "three.json", magnets, [[0, 0, 0], [0.3, 0.2, 0.5], [0.3, 0.2, 0]])
    code, base = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    assert [r["branch"] for r in base["results"]] == ["DEGENERATE", "NONPLANAR", "PLANE_DOMINANT"]
    record, calls = cli.analyze_point, []
    monkeypatch.setattr(cli, "analyze_point", lambda *args, **kwargs: calls.append(args) or record(*args, **kwargs))
    code, rep = run_analyze(tmp_path, cfg)
    assert code == EXIT_OK
    assert len(calls) == 3
    assert json.dumps(rep) == json.dumps(base)


def test_sweep_header_exact(tmp_path, single_dipole_json):
    out = tmp_path / "sweep.csv"
    main([
        "sweep", "--config", str(single_dipole_json),
        "--grid", "0:0:1,0:0:1,1:1:1", "--out", str(out),
    ])
    header = out.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)
    assert header == "x,y,z,norm_P,abs_lambda_MF,lambda_P,lambda_bar,ub_chain,ub_refined,branch"


def test_sweep_singular_row(tmp_path, single_dipole_json, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(single_dipole_json),
        "--grid", "0:0:1,0:0:1,0:1:2", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "singular" in capsys.readouterr().err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["branch"] == "singular"
    assert rows[0]["lambda_bar"] == ""
    assert rows[1]["branch"] == "PLANE_DOMINANT"


def test_sweep_rows_satisfy_chain(tmp_path):
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [])
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(cfg),
        "--grid", "0:0.8:3, -0.5:0.5:3, 0.4:1.2:3",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 27
    checked = 0
    for row in rows:
        if row["branch"] in ("singular", "DEGENERATE", "NONPLANAR"):
            continue
        lam = float(row["lambda_bar"])
        assert lam <= float(row["ub_chain"]) + 1e-9 * max(lam, 1.0)
        assert lam <= float(row["ub_refined"]) + 1e-9 * max(lam, 1.0)
        assert float(row["norm_P"]) <= float(row["abs_lambda_MF"]) + 1e-12
        checked += 1
    assert checked >= 20


def test_sweep_negative_grid_start_both_forms(tmp_path):
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [])
    outs = []
    for i, grid_args in enumerate((["--grid", "-2:2:3,0.5:0.5:1,0:0:1"], ["--grid=-2:2:3,0.5:0.5:1,0:0:1"])):
        out = tmp_path / f"sweep{i}.csv"
        argv = ["sweep", "--config", str(cfg), *grid_args, "--out", str(out)]
        assert main(argv) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert [row["x"] for row in csv.DictReader(outs[0].splitlines())] == ["-2.0", "0.0", "2.0"]


def test_sweep_runs_no_candidate_search(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sweep must not search for candidates")

    monkeypatch.setattr("magalg.cli.locate_candidates", fail)
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [])
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--grid", "0:1:2,0.5:0.5:1,0:0:1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 3


def test_sweep_bad_grid(tmp_path, single_dipole_json, capsys):
    code = main([
        "sweep", "--config", str(single_dipole_json),
        "--grid", "bogus", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("grid, axis", [("0:inf:2,0:0:1,1:1:1", "0:inf:2"), ("0:0:1,nan:1:2,1:1:1", "nan:1:2"),
                                        ("0:0:1,0:0:1,-inf:1:2", "-inf:1:2")])
def test_sweep_non_finite_grid_bound(tmp_path, single_dipole_json, capsys, grid, axis):
    """A non-finite grid bound names its axis and exits 2 before linspace could warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--config", str(single_dipole_json), f"--grid={grid}", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_INPUT
    assert f"bad grid axis '{axis}': bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_verify_passes_and_is_deterministic(capsys):
    code = main(["verify", "--trials", "6", "--seed", "12"])
    out1 = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verify: PASS" in out1
    assert "exact_above_lattice: ok" in out1
    code = main(["verify", "--trials", "6", "--seed", "12"])
    out2 = capsys.readouterr().out
    assert code == EXIT_OK
    assert out1 == out2


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_INPUT


def test_verify_negative_seed(single_dipole_json, capsys):
    """A negative seed is an input error naming the seed, with and without --config."""
    for extra in ([], ["--config", str(single_dipole_json)]):
        assert main(["verify", "--seed", "-1", *extra]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer\n"
        assert captured.out == ""


def _miss_the_maximizer(monkeypatch):
    """Make the solve that extremal reads drop every moment at the top |x^T F_x x|."""
    solve = extremal.self_eigenvectors_batch

    def missing_best(sol, alg):
        # mirror images of the maximizer tie with it: drop every moment at the top value
        tau = [abs(float(m @ alg.matrix(m) @ m)) for m in sol.moments]
        kept = tuple(m for m, t in zip(sol.moments, tau) if t < max(tau) * (1.0 - 1e-9))
        return sol._replace(moments=kept)

    monkeypatch.setattr(extremal, "self_eigenvectors_batch", lambda algs: list(map(missing_best, solve(algs), algs)))


def test_lattice_cross_check_catches_a_missed_maximizer(tmp_path, monkeypatch, capsys):
    """A solve that misses the maximizing Z-eigenvectors fails verify, and the config is printed for replay."""
    from test_extremal import theorems

    _miss_the_maximizer(monkeypatch)
    cfg, n_hat = random_mirror_config(np.random.default_rng(4))  # second-best Z-eigenvalue at 0.91 of the best
    alg = build_algebra(cfg)
    checks = theorems(alg, planar_structure(alg, n_hat), 200, 0, 1500)
    residual, ok = checks["exact_above_lattice"]
    assert not ok
    assert residual > 0.05

    path = write_config(tmp_path / "mirror.json", cfg.magnet_positions, [cfg.field_point])
    assert main(["verify", "--config", str(path)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert "exact_above_lattice: VIOLATION" in captured.out
    assert "verify: FAIL" in captured.out
    offending = json.loads(captured.err.splitlines()[-1])
    assert offending["magnets"] == json.loads(path.read_text())["magnets"]


def test_weight_bracket_catches_a_missed_maximizer_at_the_far_magnet(tmp_path, monkeypatch, capsys):
    """The operator is -2 sum_i w_i Z_i, with w = d^-4 and Z_i the zonal cubic about magnet
    i, of spectral norm 1, so 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w.  At the far
    magnet that is [1.99999999997, 2.00000000003]: a solve that misses the axis reports
    less, and verify names the bracket and fails."""
    _miss_the_maximizer(monkeypatch)
    far = build_algebra(DipoleConfig(FAR_MAGNET[0], FAR_MAGNET[1][0]))
    assert extremal.lambda_bar_exact(far).lambda_bar < 1.99999999997
    assert main(["verify", "--config", str(write_config(tmp_path / "far.json", *FAR_MAGNET))]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "weight_bracket: VIOLATION" in out
    assert "verify: FAIL" in out


def _verify_trials_alone(argv):
    """(cfg, name -> (residual, ok)) of each nonzero trial of verify argv, in draw order, each solved alone."""
    out = []
    for cfg, n_hat, seed in cli._verify_draws(cli._parser().parse_args(["verify", *argv])):
        alg = build_algebra(cfg)
        if alg.is_trivial():
            continue
        if n_hat is None:
            planes = find_invariant_planes(alg)
            n_hat = planes[0].n_hat if planes else None
        draws = extremal.theorem_draws(alg, seed, 200)
        out.append((cfg, {**cli._verify_block([(alg, n_hat, seed, draws)])[0],
                          "weight_bracket": cli._weight_bracket(cfg, alg)}))
    return out


# a cube of magnets, a regular tetrahedron 1e4 away and a pair 1e4 away the other way; the field
# points are the cube's centre (a zero operator), the tetrahedron's centre (a 3-fold Gram spectrum),
# a point off the pair's axis, a point on no mirror plane and two on one
SEVERAL_KINDS = (CUBE_AND_FAR_TETRA + [[-1e4 - 1, 0, 0], [-1e4 + 1, 0, 0]],
                 [[0, 0, 0], [1e4, 0, 0], [-1e4, 0.5, 0.3], [0.3, 0.2, 0.5], [0.3, 0.1, 0], [0.7, 0.7, 0.2]])


@pytest.mark.parametrize("config", [False, True], ids=["trials", "config"])
def test_a_stacked_verify_run_prints_what_its_trials_give_alone(tmp_path, monkeypatch, capsys, config):
    """verify solves a block of trials as one stack, one _eigenpoints call a block, runs its
    battery as one verify_theorems call a block, and prints, bitwise, the worst residual over
    its trials of each check as solved alone.  A block holds _SOLVE_BLOCK // 3 trials, each of
    three operators."""
    from magalg import algebra

    if config:
        argv = ["--config", str(write_config(tmp_path / "several.json", *SEVERAL_KINDS))]
        n = len(SEVERAL_KINDS[1])
        assert [cli.analyze_point(DipoleConfig(SEVERAL_KINDS[0], p))["branch"] for p in SEVERAL_KINDS[1]] == [
            "DEGENERATE", "P_DOMINANT", "PLANE_DOMINANT", "NONPLANAR", "P_DOMINANT", "PLANE_DOMINANT"]
    else:
        argv, n = ["--trials", "7", "--seed", "12"], 7
    worst = {}
    for _, checks in _verify_trials_alone(argv):
        for name, (residual, ok) in checks.items():
            assert ok
            worst[name] = max(worst.get(name, -np.inf), residual)
    assert "plane_chain" in worst
    want = [f"{name}: ok worst_residual={worst[name]!r}" for name in sorted(worst)] + ["verify: PASS"]
    eigenpoints, theorems = algebra._eigenpoints, cli.verify_theorems
    for block, blocks in ((cli._SOLVE_BLOCK, 1), (6, -(-n // 2))):
        stacks, batteries = [], []
        monkeypatch.setattr(cli, "_SOLVE_BLOCK", block)
        monkeypatch.setattr(algebra, "_eigenpoints", lambda t: stacks.append(len(t)) or eigenpoints(t))
        monkeypatch.setattr(cli, "verify_theorems", lambda algs, *rest: batteries.append(len(algs)) or theorems(algs, *rest))
        assert main(["verify", *argv]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == want
        assert len(stacks) == len(batteries) == blocks


def test_verify_replays_the_first_failing_trial_in_draw_order(monkeypatch, capsys):
    """With the maximizer missed, the replay config on stderr is that of the first trial
    that fails, in the order of the draws, whatever order the stacked solve takes."""
    _miss_the_maximizer(monkeypatch)
    trials = _verify_trials_alone(["--trials", "4"])
    first = next(cfg for cfg, checks in trials if not all(ok for _, ok in checks.values()))
    assert main(["verify", "--trials", "4"]) == EXIT_VIOLATION
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == ["offending config for replay:", json.dumps(cli._config_json(first))]


def _sectoral():
    """The algebra of the sectoral cubic x^3 - 3 x y^2: the plane z = 0 is invariant, with P = F_z z exactly 0."""
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return MagneticAlgebra(t)


def test_a_verify_block_of_mixed_trials_checks_each_as_a_block_of_one(monkeypatch, capsys):
    """One block holds a random planar draw, a draw given a normal that is not invariant, the
    plane of a triangle of magnets at its centre (P zero to rounding, so no kernel direction),
    a NONPLANAR point and the exact sectoral plane (P = 0, so no rotation); each trial's checks
    are, bitwise, those of its block of one, and the replay is the first failing trial."""
    from magalg.corpus import random_coplanar_config
    from magalg.linalg3 import unit

    planar, n_hat = random_coplanar_config(np.random.default_rng([5, 0]))
    tilted, normal = random_mirror_config(np.random.default_rng([5, 1]))
    triangle = DipoleConfig([[1, 0, 0], [-0.5, 0.8660254037844386, 0], [-0.5, -0.8660254037844386, 0]], [0, 0, 0])
    draws = [(planar, n_hat, 5), (tilted, unit(normal + [0.3, 0.2, 0.1]), 6), (triangle, [0.0, 0.0, 1.0], 7),
             (DipoleConfig(NONPLANAR_FIVE, [0.05, -0.02, 0.03]), None, 8)]
    trials = [(build_algebra(cfg), n, seed) for cfg, n, seed in draws] + [(_sectoral(), [0.0, 0.0, 1.0], 9)]
    trials = [(alg, n, seed, extremal.theorem_draws(alg, seed, 200)) for alg, n, seed in trials]
    alone = [cli._verify_block([trial])[0] for trial in trials]
    assert repr(cli._verify_block(trials)) == repr(alone)
    assert [checks["planarity_residual"][1] for checks in alone[:3]] == [True, False, True]
    assert list(alone[1]) == ["reciprocity", "trace", "det_identity", "planarity_residual"]
    assert "planarity_residual" not in alone[3] and "plane_chain" not in alone[3]
    assert "kernel_direction" in alone[0] and "kernel_direction" not in alone[2]
    assert alone[4]["decomposition_equivariance"] == (0.0, True) and "kernel_direction" not in alone[4]

    worst = {}
    for (cfg, *_), (alg, *_), checks in zip(draws, trials, alone):
        for name, (residual, ok) in {**checks, "weight_bracket": cli._weight_bracket(cfg, alg)}.items():
            before, held = worst.get(name, (-np.inf, True))
            worst[name] = (max(before, residual), held and ok)
    want = [f"{name}: {'ok' if ok else 'VIOLATION'} worst_residual={w!r}" for name, (w, ok) in sorted(worst.items())]
    for block in (cli._SOLVE_BLOCK, 6):
        monkeypatch.setattr(cli, "_SOLVE_BLOCK", block)
        monkeypatch.setattr(cli, "_verify_draws", lambda args: iter(draws))
        assert main(["verify"]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out.splitlines() == want + ["verify: FAIL"]
        assert captured.err.splitlines()[-1] == json.dumps(cli._config_json(tilted))


def test_verify_with_config(tmp_path, single_dipole_json, capsys):
    code = main(["verify", "--trials", "1", "--config", str(single_dipole_json)])
    assert code == EXIT_OK
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_checks_a_point_without_invariant_planes(tmp_path, capsys):
    """A NONPLANAR point gets the plane-free part of the battery."""
    path = write_config(tmp_path / "np.json", NONPLANAR_FIVE, [[0.05, -0.02, 0.03]])
    assert main(["verify", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("reciprocity", "trace", "det_identity", "squares_bracket", "subadditive", "exact_above_lattice"):
        assert f"{name}: ok" in out
    assert "planarity_residual" not in out
    assert "plane_chain: skipped\n" in out  # skipped, not passed
    assert "verify: PASS" in out
    # with an invariant plane the check runs and reports its residual
    path = write_config(tmp_path / "dipole.json", [[0, 0, 0]], [[0, 0, 1]])
    assert main(["verify", "--config", str(path)]) == EXIT_OK
    assert "plane_chain: ok worst_residual=" in capsys.readouterr().out


def test_verify_with_nothing_to_check_is_an_input_error(antipodal_json, capsys):
    assert main(["verify", "--config", str(antipodal_json)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "verify: PASS" not in captured.out
    assert "nothing to verify" in captured.err


def test_module_entry_point_smoke(tmp_path):
    cfg = write_config(tmp_path / "c.json", [[0, 0, 0]], [[0, 0, 1]])
    out = tmp_path / "r.json"
    # the subprocess imports the package from this source tree, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "magalg", "analyze", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["branch"] == "PLANE_DOMINANT"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """main reuses one parser; each call's output equals that of a freshly built parser."""
    cfg = write_config(tmp_path / "pair.json", [[1, 0, 0], [-1, 0, 0]], [[0, 0.5, 1]])
    csv_out = tmp_path / "sweep.csv"
    calls = [
        ["gen", "mirror", "--normal", "z", "--base", "1,0,0:1", "--base", "0,1,0:2"],
        ["gen", "mirror", "--normal", "z", "--base", "1,0,0:1"],
        ["analyze", "--config", str(cfg), "--seed", "x", "--si", "--out", "-"],
        ["sweep", "--config", str(cfg), "--grid", "-1:1:2,0.5:0.5:1,0:0:1", "--out", str(csv_out)],
        ["analyze", "--config", str(cfg), "--out", "-"],
    ]

    def run(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            written = csv_out.read_text() if argv[0] == "sweep" else None
            outputs.append((code, captured.out, captured.err, written))
        return outputs

    fresh = run(fresh=True)
    assert [o[0] for o in fresh] == [EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK, EXIT_OK]
    assert [len(json.loads(o[1])["magnets"]) for o in fresh[:2]] == [4, 2]
    parser = cli._parser()
    assert run(fresh=False) == fresh
    assert cli._parser() is parser


def test_unknown_subcommand_is_input_error():
    assert main(["frobnicate"]) == EXIT_INPUT
