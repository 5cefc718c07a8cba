"""Command-line front end.

Subcommands: analyze (full single-point report as JSON), sweep (CSV over
a grid of field points), gen (emit canonical configuration JSON), verify
(randomized theorem and identity suites).

Exit codes: 0 success, 1 verification violation (for analyze and
sweep, a false chain_ok flag, after the output is written), 2 input
error, 3 singular field point.

Config schema (JSON, UTF-8):

    {"magnets": [{"position": [x, y, z]}, ...],
     "field_points": [[x, y, z], ...],
     "si_prefactor": false}

field_points is optional for configs consumed by sweep.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, algebra
from .algebra import (  # decompose and planar_structure stay bound here for tracing
    PLANARITY_TOL,
    _planar_structures,
    decompose,
    find_invariant_planes,
    find_invariant_planes_batch,
    gram_spectrum,
    planar_structure,
    self_eigenvectors_batch,
)
from .corpus import random_coplanar_config, random_frame, random_mirror_config, random_moments
from .dipoles import (
    FORCE_PREFACTOR,
    DipoleConfig,
    SingularFieldPointError,
    build_algebra,
    gen_cubic_lattice,
    gen_mirror_symmetric,
    gen_pair,
    identity_residuals,
    p_vector,
)
from .extremal import (  # bounds_report, lambda_bar_bruteforce and lambda_plane stay bound here for tracing
    CHAIN_RTOL,
    IDENTITY_RTOL,
    _degenerate_report,
    _within,
    bounds_report,
    lambda_bar_bruteforce,
    lambda_bar_exact,
    lambda_bar_exact_batch,
    lambda_plane,
    locate_candidates,
    plane_reports,
    plane_reports_batch,
    principal_abs,
    theorem_draws,
    verify_theorems,
)
from .linalg3 import rot_about
from .sphere import fibonacci_sphere

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3

_SOLVE_BLOCK = 1024  # at most this many operators (of field points, or 3 a verify trial) share one stacked solve

SWEEP_COLUMNS = [
    "x", "y", "z", "norm_P", "abs_lambda_MF", "lambda_P",
    "lambda_bar", "ub_chain", "ub_refined", "branch",
]


class ConfigError(ValueError):
    pass


class SweepGrid(NamedTuple):
    x: tuple  # (start, stop, count)
    y: tuple
    z: tuple

    def points(self):
        """Field points with x varying fastest."""
        ax = [np.linspace(a, b, n) for a, b, n in (self.x, self.y, self.z)]
        for zz in ax[2]:
            for yy in ax[1]:
                for xx in ax[0]:
                    yield np.array([xx, yy, zz])


def parse_grid(spec: str) -> SweepGrid:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError("grid must be 'x0:x1:nx,y0:y1:ny,z0:z1:nz'")
    axes = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(f"bad grid axis '{part}'")
        try:
            a, b, n = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as e:
            raise ConfigError(f"bad grid axis '{part}': {e}") from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"bad grid axis '{part}': bounds must be finite")
        if n < 1:
            raise ConfigError("grid counts must be at least 1")
        axes.append((a, b, n))
    return SweepGrid(*axes)


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    return validate_config(data)


def _coords(value, where) -> list:
    """[x, y, z] as finite floats; JSON true, strings and null are not numbers."""
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{where} must be [x, y, z]")
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where} must hold numbers, got {json.dumps(v)}")
    try:
        if all(map(math.isfinite, value)):  # json reads NaN, Infinity and 1e400 (as inf) as floats
            return [float(v) for v in value]
    except OverflowError:  # a JSON integer beyond float range
        pass
    raise ConfigError(f"{where} holds NaN, an infinity or a number beyond float range")


def validate_config(data) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    magnets = data.get("magnets")
    if not isinstance(magnets, list) or not magnets:
        raise ConfigError("config needs a nonempty 'magnets' list")
    positions = []
    for i, m in enumerate(magnets):
        if not isinstance(m, dict) or "position" not in m:
            raise ConfigError(f"magnet {i} needs a 'position'")
        positions.append(_coords(m["position"], f"magnet {i} position"))
    fps = data.get("field_points", [])
    if not isinstance(fps, list):
        raise ConfigError("'field_points' must be a list of [x, y, z]")
    points = [_coords(fp, f"field point {i}") for i, fp in enumerate(fps)]
    si = data.get("si_prefactor", False)
    if not isinstance(si, bool):
        raise ConfigError(f"'si_prefactor' must be true or false, got {json.dumps(si)}")
    return {
        "magnets": [{"position": p} for p in positions],
        "field_points": points,
        "si_prefactor": si,
    }


def config_positions(data) -> np.ndarray:
    return np.array([m["position"] for m in data["magnets"]], dtype=float)


def _vec(v):
    return [x + 0.0 for x in np.asarray(v, dtype=float).ravel().tolist()]  # +0.0 drops -0.0


def _mat(m):
    return np.asarray(m, dtype=float).tolist()


def _primary_plane(reports) -> int:
    """Index of the plane with the tightest refined upper bound.

    Bounds within CHAIN_RTOL (relative) of the tightest tie.  Among tied planes
    one whose report certifies lambda_bar (PLANE_DOMINANT) goes first,
    then the first in find_invariant_planes' order, which does not
    follow rounding: symmetric planes whose values differ only by
    rounding then give one answer.
    """
    upper = [r.bounds["refined_upper"] for r in reports]
    tied = [i for i, u in enumerate(upper) if u <= min(upper) * (1.0 + CHAIN_RTOL)]
    return ([i for i in tied if reports[i].lambda_bar_certified is not None] or tied)[0]


def analyze_point(cfg: DipoleConfig, alg=None, candidates=False) -> dict:
    """The analyze record of one field point, for every branch, as JSON-ready data.

    A DEGENERATE point (the zero operator) has no Gram spectrum, plane
    or maximizer, and a NONPLANAR one no plane and so no primary plane
    report and no bound chain; the planar branches take the chain of the
    primary plane.  With candidates set (only analyze sets it), the
    candidate search on that plane's report follows chain_ok; the SI
    keys come last.  alg is cfg's algebra when already built, and when
    _solved gave it, its Gram spectrum, planes, worst case and plane
    reports are in its memo, so the record only reads and formats them;
    otherwise they are computed here, as a block of one point.
    """
    if alg is None:
        alg = build_algebra(cfg)
    rec: dict = {"field_point": _vec(cfg.field_point)}
    if alg.is_trivial():
        wc, rep = None, _degenerate_report()
        rec.update(
            branch=rep.branch.value,
            p_vector=_vec(p_vector(cfg)),
            gram=_mat(alg.gram),
            lambda_F=rep.lambda_F,
            M_F=None,
            gram_multiplicity=3,
            planes=[],
            plane_used=None,
        )
    else:
        gs = gram_spectrum(alg)
        planes = find_invariant_planes(alg)
        wc = lambda_bar_exact(alg)
        reports = plane_reports(alg)
        used = _primary_plane(reports) if reports else None
        rep = None if used is None else reports[used]
        rec.update(
            p_vector=_vec(p_vector(cfg)),
            gram=_mat(alg.gram),
            lambda_F=gs.lambda_F,
            M_F=_vec(gs.M_F),
            gram_eigenvalues=_vec(gs.eigenvalues),
            gram_multiplicity=gs.multiplicity,
            planes=[
                {
                    "n_hat": _vec(p.n_hat),
                    "P": _vec(p.P),
                    "norm_P": p.norm_P,
                    "residual": p.residual,
                    "gram_eigenvalue": p.gram_eigenvalue,
                    "degenerate": p.degenerate,
                }
                for p in planes
            ],
            branch="NONPLANAR" if rep is None else rep.branch.value,
            plane_used=used,
        )
        if reports:
            rec["plane_reports"] = [
                {
                    "branch": r.branch.value,
                    "norm_P": r.norm_P,
                    "abs_lambda_MF": r.abs_lambda_MF,
                    "lambda_P": r.lambda_P,
                    "bounds": r.bounds,
                    "chain_ok": r.chain_ok,
                }
                for r in reports
            ]
    planar = rep is not None  # a NONPLANAR point has no primary report
    rec.update(
        norm_P=rep.norm_P if planar else None,
        abs_lambda_MF=rep.abs_lambda_MF if planar else principal_abs(alg, gs.M_F),
        lambda_P=rep.lambda_P if planar else None,
        M_P=_vec(rep.M_P) if planar and rep.M_P is not None else None,
        lambda_bar={
            "value": 0.0 if wc is None else wc.lambda_bar,
            "M_bar": None if wc is None else _vec(wc.M_bar),
            "m_bar": None if wc is None else _vec(wc.m_bar),
            "tol_sampling": 0.0,  # no sampling slack: a Z-eigenvalue; the key stays in the schema
            "certified": rep.lambda_bar_certified if planar else None,
            "complete": False if wc is None else wc.complete,
        },
        bounds=rep.bounds if planar else None,
        chain_ok=rep.chain_ok if planar else None,
    )
    if candidates:
        found = locate_candidates(alg, rep) if planar else []
        rec["candidates"] = [
            {"moment": _vec(c.moment), "kind": c.kind.value, "lambda_abs": c.lambda_abs}
            for c in found
        ]
    if cfg.si_prefactor:
        rec["force_scale_si"] = FORCE_PREFACTOR
        rec["max_force_si_per_unit_moments"] = FORCE_PREFACTOR * rec["lambda_bar"]["value"]
    return rec


def _solved(cfgs, build):
    """(cfg, algebra) of each of cfgs in order; build gives the algebra of a cfg, or None for a skipped point.

    cfgs go in blocks of at most _SOLVE_BLOCK: every algebra of a block
    is built first, the Z-eigenvectors of its nonzero operators are
    solved as one stack, and one record pass (plane_reports_batch) fills
    their memos with the Gram spectra, planes, worst cases and plane
    reports that analyze_point reads.
    """
    for start in range(0, len(cfgs), _SOLVE_BLOCK):
        block = cfgs[start:start + _SOLVE_BLOCK]
        algs = [build(cfg) for cfg in block]
        nonzero = [a for a in algs if a is not None and not a.is_trivial()]
        self_eigenvectors_batch(nonzero)
        plane_reports_batch(nonzero)
        yield from zip(block, algs)


def cmd_analyze(args) -> int:
    data = load_config(args.config)
    if not data["field_points"]:
        raise ConfigError("analyze needs at least one field point in the config")
    positions = config_positions(data)
    cfgs = [DipoleConfig(positions, fp, data["si_prefactor"]) for fp in data["field_points"]]
    results = [analyze_point(cfg, alg, candidates=True) for cfg, alg in _solved(cfgs, build_algebra)]
    tool = {
        "name": "magalg",
        "version": __version__,
        "seed": 0,  # kept in the schema; analyze takes no seed
        "tol": CHAIN_RTOL,  # kept in the schema; the chain tolerance is fixed
        "planarity_tol": PLANARITY_TOL,
        "si": data["si_prefactor"],
    }
    records = [json.dumps(rec) for rec in results]  # each encoded once, by the C encoder (indent would bypass it)
    head = json.dumps({"tool": tool, "config": data})[:-1]
    # {"tool", "config", "results"}, then the keys of the first record, hoisted for convenience (no key is shared)
    out = f'{head}, "results": [{", ".join(records)}], {records[0][1:]}'
    if args.out == "-":
        print(out)
    else:
        Path(args.out).write_text(out + "\n", encoding="utf-8")
    return EXIT_VIOLATION if any([_chain_violated(rec) for rec in results]) else EXIT_OK  # a list: name them all


def _chain_violated(rec) -> bool:
    """Whether a plane report of rec, the primary one's included, has a false chain_ok flag; names them on stderr."""
    bad = sorted({name for r in rec.get("plane_reports", []) for name, ok in r["chain_ok"].items() if not ok})
    if bad:
        print(f"violation: field point {rec['field_point']}: chain_ok false: {', '.join(bad)}", file=sys.stderr)
    return bool(bad)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _grid_algebra(cfg):
    """The algebra of a grid point, or None with a warning at a singular one."""
    try:
        return build_algebra(cfg)
    except SingularFieldPointError as e:
        print(f"warning: skipping grid point {cfg.field_point.tolist()}: {e}", file=sys.stderr)
        return None


def cmd_sweep(args) -> int:
    """Write the CSV of SWEEP_COLUMNS, one row per grid point, x fastest.

    The grid points are solved in blocks, as _solved does; each row is
    then the analyze record of its point, from its algebra.  A singular
    point gives a row with branch "singular" and a warning on stderr.
    """
    grid = parse_grid(args.grid)
    data = load_config(args.config)
    positions = config_positions(data)
    cfgs = [DipoleConfig(positions, fp) for fp in grid.points()]
    rows, violated = [], False
    for cfg, alg in _solved(cfgs, _grid_algebra):
        rec = None if alg is None else analyze_point(cfg, alg)
        rows.append(_sweep_row(cfg, rec))
        violated |= rec is not None and _chain_violated(rec)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_VIOLATION if violated else EXIT_OK


def _sweep_row(cfg: DipoleConfig, rec) -> dict:
    """The CSV row of one grid point from its analyze record; rec is None at a singular point."""
    fp = cfg.field_point
    row = {"x": repr(float(fp[0])), "y": repr(float(fp[1])), "z": repr(float(fp[2]))}
    if rec is None:
        row.update({c: "" for c in SWEEP_COLUMNS[3:-1]}, branch="singular")
        return row
    bounds = rec.get("bounds") or {}
    row.update(
        norm_P=_fmt(rec.get("norm_P")),
        abs_lambda_MF=_fmt(rec.get("abs_lambda_MF")),
        lambda_P=_fmt(rec.get("lambda_P")),
        lambda_bar=_fmt(rec["lambda_bar"]["value"]),
        ub_chain=_fmt(bounds.get("chain_upper")),
        ub_refined=_fmt(bounds.get("refined_upper")),
        branch=rec["branch"],
    )
    return row


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected 'x,y,z', got '{text}'")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"expected numeric 'x,y,z', got '{text}'") from None


def _parse_axis(text: str) -> np.ndarray:
    return np.eye(3)["xyz".index(text)] if text in ("x", "y", "z") else _parse_vec(text)


def _config_json(cfg: DipoleConfig) -> dict:
    return {
        "magnets": [{"position": _vec(p)} for p in cfg.magnet_positions],
        "field_points": [_vec(cfg.field_point)],
        "si_prefactor": cfg.si_prefactor,
    }


def cmd_gen(args) -> int:
    fp = _parse_vec(args.field_point)
    if args.kind == "pair":
        if args.sep <= 0.0:
            raise ConfigError("separation must be positive")
        half = 0.5 * args.sep * _parse_axis(args.axis)
        cfg = gen_pair(half, -half, field_point=fp, si_prefactor=args.si)
    elif args.kind == "mirror":
        base = []
        for spec in args.base or []:
            head, _, tail = spec.rpartition(":")
            if not head:
                raise ConfigError(f"expected 'ux,uy,uz:t', got '{spec}'")
            try:
                t = float(tail)
            except ValueError:
                raise ConfigError(f"bad mirror height in '{spec}'") from None
            base.append((_parse_vec(head), t))
        in_plane = [_parse_vec(s) for s in args.in_plane or []]
        cfg = gen_mirror_symmetric(
            base, in_plane, _parse_axis(args.normal),
            field_point=fp, si_prefactor=args.si,
        )
    else:
        cfg = gen_cubic_lattice(
            args.spacing, args.k, exclude_origin=args.exclude_origin,
            field_point=fp, si_prefactor=args.si,
        )
    print(json.dumps(_config_json(cfg), indent=2))
    return EXIT_OK


def _weight_bracket(cfg, alg):
    """(residual, ok) of 2 (2 w_max - sum w) <= lambda_bar <= 2 sum w, with w = d^-4 the magnet weights.

    build_algebra's operator is -2 sum_i w_i Z_i, with Z_i the zonal cubic
    about the direction u_i of magnet i, and Z_u(x,x,x) = P_3(u . x) has
    spectral norm 1, so the triangle inequality gives the bracket.  The
    residual is relative to its upper end and allows IDENTITY_RTOL.
    """
    w = cfg.separations()[1] ** -4
    lower, upper = 2.0 * (2.0 * w.max() - w.sum()), 2.0 * w.sum()
    lam = lambda_bar_exact(alg).lambda_bar
    return _within(float(max(lower - lam, lam - upper) / upper), IDENTITY_RTOL)


@functools.cache
def _lattice() -> np.ndarray:
    """The 1500 unit moments of verify's lattice cross-check, built once; read-only, as each trial turns it."""
    sphere = fibonacci_sphere(1500)
    sphere.setflags(write=False)
    return sphere


def _verify_block(trials) -> list[dict]:
    """name -> (residual, ok) of the check battery on each trial (alg, n_hat, seed, draws) of a block.

    The exact algebra identities each allow IDENTITY_RTOL of their scale.
    A trial with a normal n_hat (None: no invariant plane) checks that
    its plane is invariant and stops there if it is not; the plane
    checks run on the planes that are.  verify_theorems then runs on each
    trial that did not stop, on its draws (theorem_draws) and on the
    lattice turned to a frame that its seed draws.  Each step is one pass
    over the block, but for the lattice check, one trial at a time.
    """
    if not trials:
        return []
    algs, normals, seeds, draws = zip(*trials)
    images = np.array([a.basis_images for a in algs])
    out = []
    residuals = (r.tolist() for r in identity_residuals(images))
    for alg, recip, trace, det in zip(algs, *residuals):
        tol = IDENTITY_RTOL * alg.scale
        out.append({"reciprocity": _within(recip, tol), "trace": _within(trace, tol),
                    "det_identity": _within(det, IDENTITY_RTOL * alg.scale ** 3)})
    given = [j for j, n in enumerate(normals) if n is not None]
    ns = np.array([normals[j] for j in given], dtype=float).reshape(-1, 3)
    res = algebra.plane_residual_batch(images[given], ns)  # from n_hat as given, as planar_structure scores it
    invariant = [not r > PLANARITY_TOL * algs[j].scale for j, r in zip(given, res.tolist())]  # as it decides
    for j, r, ok in zip(given, res.tolist(), invariant):
        if not ok:
            out[j]["planarity_residual"] = (r, False)
    flat = [j for j, ok in zip(given, invariant) if ok]
    planes = _planar_structures([algs[j] for j in flat], ns[invariant], res[invariant], [False] * len(flat))
    plane_checks = _plane_checks([algs[j] for j in flat], images[flat], planes, [seeds[j] for j in flat])
    for j, checks in zip(flat, plane_checks):
        out[j].update(checks)
    planes = dict(zip(flat, planes))
    live = [j for j, n in enumerate(normals) if n is None or j in planes]  # those that did not stop
    lattices = (_lattice() @ random_frame(np.random.default_rng(seeds[j])).T for j in live)
    theorems = verify_theorems([algs[j] for j in live], [planes.get(j) for j in live], [draws[j] for j in live],
                               lattices)
    for j, checks in zip(live, theorems):
        out[j].update(checks)
    return out


def _plane_checks(algs, images, planes, seeds) -> list[dict]:
    """The checks of the battery that need an invariant plane, on each plane planes[j] of algs[j], of images images[j].

    Each identity is exact on an exactly invariant plane.  On the plane
    given, rho = ||[n] F_n [n]||_F = ||B||_F, with B the in-plane block of
    F_n, bounds its error: with p the in-plane part of P and
    d = n . P = -tr B, |d| <= sqrt2 rho.  Each check allows that bound
    plus IDENTITY_RTOL of its scale, for rounding.  The decomposition
    checks take 8 moments and angles that default_rng(seeds[j]) draws.
    Each product is stacked over the planes, as one plane's rounds.
    """
    if not planes:
        return []
    n, p = np.array([q.n_hat for q in planes]), np.array([q.P for q in planes])
    norm_p = np.array([q.norm_P for q in planes])
    fn = np.einsum("tk,tkab->tab", n, images)
    g = (np.array([a.gram for a in algs]) @ n[:, :, None])[..., 0]
    g -= np.array([2.0 * q.norm_P ** 2 for q in planes])[:, None] * n
    eig_res = np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0, 0].tolist()  # as np.linalg.norm of one vector rounds it
    fro = np.einsum("tab,tab->t", fn, fn).tolist()
    framed = [j for j, q in enumerate(planes) if q.Q_hat is not None]
    fq = fn[framed] @ np.array([planes[j].Q_hat for j in framed]).reshape(-1, 3, 1)
    kernel = dict(zip(framed, np.sqrt(fq.transpose(0, 2, 1) @ fq)[:, 0, 0].tolist()))

    rngs = [np.random.default_rng(seed) for seed in seeds]
    ms = np.array([random_moments(rng, 8) for rng in rngs])
    angle = np.array([rng.uniform(0.0, 2.0 * np.pi, size=8) for rng in rngs])  # one rotation about P per moment
    gammas = [0.7 / a.scale for a in algs]  # gamma P P^T scales as the operator
    split = (p, np.array(gammas))  # decompose(alg, plane, gamma) of each plane
    into = np.abs(n[:, None, None, :] @ algebra.plane_parts(ms, *split, images)).max(axis=(1, 2, 3)).tolist()
    moving = norm_p > 0.0  # a plane with P = 0 has no rotation about P to check
    c = rot_about(np.where(moving[:, None], p, n)[:, None], angle)
    rotated = algebra.equivariant_parts((c @ ms[..., None])[..., 0], *split)
    equi = np.abs(rotated - c @ algebra.equivariant_parts(ms, *split) @ c.transpose(0, 1, 3, 2))
    equi = np.where(moving, equi.max(axis=(1, 2, 3)), 0.0).tolist()
    out = []
    for j, (alg, plane, gamma) in enumerate(zip(algs, planes, gammas)):
        scale, rho, pn = alg.scale, plane.residual, plane.norm_P
        scale_sq, dec_scale = max(scale ** 2, 1e-300), max(scale, abs(gamma) * pn ** 2, 1e-300)
        checks = {"planarity_residual": (rho, True)}
        # G n - 2||P||^2 n = 2Bp + dp - d^2 n + <T, B>, and |<T, B>| <= sqrt3 scale rho
        eig_bound = ((2.0 + math.sqrt(2.0)) * pn + math.sqrt(3.0) * scale + 2.0 * rho) * rho
        checks["gram_eigenvector"] = _within(eig_res[j], eig_bound + IDENTITY_RTOL * scale_sq)
        # ||F_n||^2 - 2||P||^2 = ||B||^2 - d^2, with ||B||^2 = rho^2 and d^2 <= 2 rho^2
        checks["frame_energy"] = _within(abs(fro[j] - 2.0 * pn ** 2), 2.0 * rho ** 2 + IDENTITY_RTOL * scale_sq)
        if j in kernel:  # Q is in-plane and orthogonal to p, so F_n Q = (p . Q) n + B Q = B Q
            checks["kernel_direction"] = _within(kernel[j], rho + IDENTITY_RTOL * scale)
        # n^T Pi(M) = d M^T + d (n.M) n^T - gamma d P^T - (BM)^T for unit M
        into_bound = (1.0 + math.sqrt(2.0) * (2.0 + abs(gamma) * pn)) * rho
        checks["decomposition_into_plane"] = _within(into[j], into_bound + IDENTITY_RTOL * dec_scale)
        # E depends on P alone and a rotation about P fixes P: exact on any plane
        checks["decomposition_equivariance"] = _within(equi[j], IDENTITY_RTOL * dec_scale)
        out.append(checks)
    return out


def _verify_draws(args):
    """(cfg, n_hat, seed) of each verify trial: args.trials random draws, or the config's field points.

    A random draw comes with the normal of its invariant plane; a config
    point with None, and the trial takes its first invariant plane, if any.
    """
    if not args.config:
        for t in range(args.trials):
            draw = random_coplanar_config if t % 2 == 0 else random_mirror_config
            yield (*draw(np.random.default_rng([args.seed, t])), args.seed + t)
        return
    data = load_config(args.config)
    if not data["field_points"]:
        raise ConfigError("verify needs a field point in the config")
    positions = config_positions(data)
    for fp in data["field_points"]:
        yield DipoleConfig(positions, fp), None, args.seed


def cmd_verify(args) -> int:
    """Run the battery and the weight bracket on each trial; the replay config is the first trial with a failed check.

    A block of trials, drawn first, holds at most _SOLVE_BLOCK operators:
    each trial's own, the random other and their sum.  One stacked solve
    covers them, one search the planes of its --config points and one
    pass (_verify_block) its battery; the results are read in draw order.
    """
    if args.trials < 1:
        raise ConfigError("trials must be at least 1")
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    accum, replay = {}, None
    draws = _verify_draws(args)
    while block := list(itertools.islice(draws, _SOLVE_BLOCK // 3)):
        trials = [(cfg, alg, n_hat, seed, theorem_draws(alg, seed, 200))
                  for cfg, n_hat, seed in block if not (alg := build_algebra(cfg)).is_trivial()]
        lambda_bar_exact_batch([a for _, alg, _, _, (_, other, both) in trials for a in (alg, other, both)])
        find_invariant_planes_batch([alg for _, alg, n_hat, *_ in trials if n_hat is None])
        checked = []
        for _, alg, n_hat, seed, drawn in trials:
            if n_hat is None:  # a --config point: the first of its planes, if it has one
                planes = find_invariant_planes(alg)
                n_hat = planes[0].n_hat if planes else None
            checked.append((alg, n_hat, seed, drawn))
        for (cfg, alg, *_), checks in zip(trials, _verify_block(checked)):
            checks["weight_bracket"] = _weight_bracket(cfg, alg)
            for name, (residual, ok) in checks.items():
                worst, held = accum.get(name, (-np.inf, True))
                accum[name] = (max(worst, residual), held and ok)
            if replay is None and not all(ok for _, ok in checks.values()):
                replay = _config_json(cfg)
    if not accum:
        raise ConfigError("no field point of the config has a nonzero operator; nothing to verify")
    all_ok = all(ok for _, ok in accum.values())
    for name in sorted({*accum, "plane_chain"}):
        if name not in accum:
            print(f"{name}: skipped")  # no checked point had an invariant plane
            continue
        worst, ok = accum[name]
        print(f"{name}: {'ok' if ok else 'VIOLATION'} worst_residual={worst!r}")
    print(f"verify: {'PASS' if all_ok else 'FAIL'}")
    if replay is not None:
        print("offending config for replay:", file=sys.stderr)
        print(json.dumps(replay), file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_VIOLATION


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused; parsing keeps no state in it."""
    p = argparse.ArgumentParser(
        prog="magalg",
        description="Worst-case translational forces of synchronized dipole arrays",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full analysis of a configuration")
    pa.add_argument("--config", required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="CSV of bound data over a field-point grid")
    ps.add_argument("--config", required=True)
    ps.add_argument("--grid", required=True, help="x0:x1:nx,y0:y1:ny,z0:z1:nz")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sweep)

    pg = sub.add_parser("gen", help="emit a canonical configuration as JSON")
    gsub = pg.add_subparsers(dest="kind", required=True)
    pp = gsub.add_parser("pair")
    pp.add_argument("--sep", type=float, default=2.0)
    pp.add_argument("--axis", default="x")
    pm = gsub.add_parser("mirror")
    pm.add_argument("--normal", required=True)
    pm.add_argument("--base", action="append", help="ux,uy,uz:t (repeatable)")
    pm.add_argument("--in-plane", dest="in_plane", action="append")
    pl = gsub.add_parser("lattice")
    pl.add_argument("--spacing", type=float, default=1.0)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--exclude-origin", dest="exclude_origin", action="store_true")
    for sp in (pp, pm, pl):
        sp.add_argument("--field-point", dest="field_point", default="0,0,0")
        sp.add_argument("--si", action="store_true")
        sp.set_defaults(func=cmd_gen)

    pv = sub.add_parser("verify", help="randomized theorem and identity suites")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--config")
    pv.set_defaults(func=cmd_verify)
    return p


_GRID_VALUE = re.compile(r"-[\d.]")  # a negative grid start, which argparse reads as an option


def _bind_grid(argv):
    """Join '--grid VALUE' into '--grid=VALUE' when VALUE starts with a minus sign."""
    out: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if out and out[-1] == "--grid" and _GRID_VALUE.match(arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_bind_grid(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else EXIT_INPUT
        return code
    try:
        return args.func(args)
    except SingularFieldPointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ValueError, OSError) as e:  # ConfigError and TrivialAlgebraError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
