"""Command-line front end.

Subcommands: analyze (full single-point report as JSON), sweep (CSV over
a grid of field points), gen (emit canonical configuration JSON), verify
(randomized theorem and identity suites).

Exit codes: 0 success, 1 verification violation, 2 input error,
3 singular field point.

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
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .algebra import (
    GRAM_DEGENERACY_RTOL,
    PLANARITY_TOL,
    NotInvariantPlaneError,
    PlanarStructure,
    TrivialAlgebraError,
    decompose,
    find_invariant_planes,
    gram_spectrum,
    planar_structure,
)
from .corpus import random_coplanar_config, random_mirror_config, random_moments
from .dipoles import (
    FORCE_PREFACTOR,
    DipoleConfig,
    MagneticAlgebra,
    SingularFieldPointError,
    build_algebra,
    gen_cubic_lattice,
    gen_mirror_symmetric,
    gen_pair,
    p_vector,
)
from .extremal import (  # lambda_bar_bruteforce and lambda_plane stay bound here for tracing
    Branch,
    ExtremalReport,
    _degenerate_report,
    bounds_report,
    lambda_bar_bruteforce,
    lambda_bar_exact,
    lambda_plane,
    locate_candidates,
    principal_abs,
    verify_theorems,
)
from .linalg3 import rot_about

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3

SWEEP_COLUMNS = [
    "x", "y", "z", "norm_P", "abs_lambda_MF", "lambda_P",
    "lambda_bar", "ub_chain", "ub_refined", "branch",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AnalysisRequest:
    config_path: str
    tol: float = 1e-9
    seed: int = 0
    si: bool = False
    out_path: str | None = None

    def validate(self):
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")


@dataclass(frozen=True)
class SweepGrid:
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
    """[x, y, z] as floats; JSON true, strings and null are not numbers."""
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{where} must be [x, y, z]")
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where} must hold numbers, got {json.dumps(v)}")
    return [float(v) for v in value]


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
    return {
        "magnets": [{"position": p} for p in positions],
        "field_points": points,
        "si_prefactor": bool(data.get("si_prefactor", False)),
    }


def config_positions(data) -> np.ndarray:
    return np.array([m["position"] for m in data["magnets"]], dtype=float)


def _vec(v):
    return [float(x) + 0.0 for x in np.asarray(v).ravel()]  # +0.0 drops -0.0


def _mat(m):
    return [[float(x) for x in row] for row in np.asarray(m)]


def _report_fields(rep: ExtremalReport) -> dict:
    """Record fields taken from one bounds report; a degenerate one has no maximizer."""
    degenerate = rep.branch is Branch.DEGENERATE
    return {
        "norm_P": rep.norm_P,
        "abs_lambda_MF": rep.abs_lambda_MF,
        "lambda_P": rep.lambda_P,
        "M_P": None if rep.M_P is None else _vec(rep.M_P),
        "lambda_bar": {
            "value": rep.lambda_bar_bf,
            "M_bar": None if degenerate else _vec(rep.M_bar),
            "m_bar": None if degenerate else _vec(rep.m_bar),
            "tol_sampling": 0.0,  # no sampling slack: a Z-eigenvalue; the key stays in the schema
            "certified": rep.lambda_bar_certified,
            "complete": rep.lambda_bar_complete,
        },
        "bounds": rep.bounds,
        "chain_ok": rep.chain_ok,
    }


def _sign_free_key(n) -> tuple:
    """n rounded to 9 decimals, signed so its first nonzero component is positive; the same for -n."""
    r = np.round(n, 9)
    nonzero = np.flatnonzero(r)
    return tuple(-r if nonzero.size and r[nonzero[0]] < 0.0 else r)


def _primary_plane(planes, reports, tol) -> int:
    """Index of the plane with the tightest refined upper bound.

    Bounds within tol (relative) of the tightest tie.  Among tied planes
    one whose report certifies lambda_bar (PLANE_DOMINANT) goes first;
    then Gram eigenvalues within GRAM_DEGENERACY_RTOL of the largest
    tie, and the normal, up to sign, decides the rest.  Symmetric planes
    whose values differ only by rounding then give one answer.
    """
    upper = [r.bounds["refined_upper"] for r in reports]
    best = min(upper)
    tied = [i for i, u in enumerate(upper) if u <= best * (1.0 + tol)]
    tied = [i for i in tied if reports[i].lambda_bar_certified is not None] or tied
    top = max(planes[i].gram_eigenvalue for i in tied)
    tied = [i for i in tied if planes[i].gram_eigenvalue >= top * (1.0 - GRAM_DEGENERACY_RTOL)]
    return min(tied, key=lambda i: _sign_free_key(planes[i].n_hat))


class _PointAnalysis(NamedTuple):
    record: dict
    alg: MagneticAlgebra
    plane: PlanarStructure | None  # the plane of the primary bounds report


def _analyze(cfg: DipoleConfig, req: AnalysisRequest) -> _PointAnalysis:
    alg = build_algebra(cfg)
    rec: dict = {"field_point": _vec(cfg.field_point)}
    if alg.is_trivial():
        rep = _degenerate_report()
        rec.update(
            branch=rep.branch.value,
            p_vector=_vec(p_vector(cfg)),
            gram=_mat(alg.gram),
            lambda_F=rep.lambda_F,
            M_F=None,
            gram_multiplicity=3,
            planes=[],
            plane_used=None,
            **_report_fields(rep),
        )
        return _PointAnalysis(rec, alg, None)

    gs = gram_spectrum(alg)
    planes = find_invariant_planes(alg, tol=PLANARITY_TOL)
    wc = lambda_bar_exact(alg)
    rec.update(
        p_vector=_vec(p_vector(cfg)),
        gram=_mat(gs.gram),
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
    )

    if not planes:
        rec.update(
            branch="NONPLANAR",
            plane_used=None,
            norm_P=None,
            abs_lambda_MF=principal_abs(alg, gs.M_F),
            lambda_P=None,
            M_P=None,
            lambda_bar={
                "value": wc.lambda_bar,
                "M_bar": _vec(wc.M_bar),
                "m_bar": _vec(wc.m_bar),
                "tol_sampling": 0.0,
                "certified": None,
                "complete": wc.complete,
            },
            bounds=None,
            chain_ok=None,
        )
        return _PointAnalysis(rec, alg, None)

    reports = [bounds_report(alg, p, tol_rel=req.tol, precomputed=wc) for p in planes]
    used = _primary_plane(planes, reports, req.tol)
    rep = reports[used]
    rec.update(
        branch=rep.branch.value,
        plane_used=used,
        plane_reports=[
            {
                "branch": r.branch.value,
                "norm_P": r.norm_P,
                "abs_lambda_MF": r.abs_lambda_MF,
                "lambda_P": r.lambda_P,
                "bounds": r.bounds,
                "chain_ok": r.chain_ok,
            }
            for r in reports
        ],
        **_report_fields(rep),
    )
    if cfg.si_prefactor or req.si:
        rec["force_scale_si"] = FORCE_PREFACTOR
        rec["max_force_si_per_unit_moments"] = FORCE_PREFACTOR * rep.lambda_bar_bf
    return _PointAnalysis(rec, alg, planes[used])


def analyze_point(cfg: DipoleConfig, req: AnalysisRequest) -> dict:
    """Full analysis of one field point as a JSON-ready record.

    Candidate search is not part of it: only `analyze` reports
    candidates, and it adds them itself.
    """
    return _analyze(cfg, req).record


def _with_candidates(point: _PointAnalysis, seed) -> dict:
    """The record with a `candidates` list right after `chain_ok`."""
    cands = [] if point.plane is None else locate_candidates(point.alg, point.plane, seed=seed)
    rec = dict(point.record)
    keys = list(rec)
    tail = {k: rec.pop(k) for k in keys[keys.index("chain_ok") + 1:]}
    rec["candidates"] = [
        {"moment": _vec(c.moment), "kind": c.kind.value, "lambda_abs": c.lambda_abs}
        for c in cands
    ]
    rec.update(tail)
    return rec


def _meta(req: AnalysisRequest) -> dict:
    return {
        "name": "magalg",
        "version": __version__,
        "seed": req.seed,
        "tol": req.tol,
        "planarity_tol": PLANARITY_TOL,
        "si": req.si,
    }


def cmd_analyze(args) -> int:
    req = AnalysisRequest(
        config_path=args.config, tol=args.tol, seed=args.seed, si=args.si, out_path=args.out,
    )
    req.validate()
    data = load_config(req.config_path)
    if not data["field_points"]:
        raise ConfigError("analyze needs at least one field point in the config")
    positions = config_positions(data)
    si = data["si_prefactor"] or req.si
    results = [
        _with_candidates(_analyze(DipoleConfig(positions, fp, si), req), req.seed)
        for fp in data["field_points"]
    ]
    report = {"tool": _meta(req), "config": data, "results": results}
    report.update(results[0])  # hoist the first record for convenience
    out = json.dumps(report, indent=2)
    if req.out_path in (None, "-"):
        print(out)
    else:
        Path(req.out_path).write_text(out + "\n", encoding="utf-8")
    return EXIT_OK


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def cmd_sweep(args) -> int:
    req = AnalysisRequest(
        config_path=args.config, tol=args.tol, si=False, out_path=args.out,
    )
    req.validate()
    grid = parse_grid(args.grid)
    data = load_config(req.config_path)
    positions = config_positions(data)
    rows = []
    for fp in grid.points():
        row = {"x": repr(float(fp[0])), "y": repr(float(fp[1])), "z": repr(float(fp[2]))}
        try:
            rec = analyze_point(DipoleConfig(positions, fp), req)
        except SingularFieldPointError as e:
            print(f"warning: skipping grid point {fp.tolist()}: {e}", file=sys.stderr)
            row.update({c: "" for c in SWEEP_COLUMNS[3:-1]}, branch="singular")
            rows.append(row)
            continue
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
        rows.append(row)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected 'x,y,z', got '{text}'")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"expected numeric 'x,y,z', got '{text}'") from None


_AXES = {"x": np.eye(3)[0], "y": np.eye(3)[1], "z": np.eye(3)[2]}


def _parse_axis(text: str) -> np.ndarray:
    if text in _AXES:
        return _AXES[text].copy()
    return _parse_vec(text)


def _config_json(cfg: DipoleConfig) -> dict:
    return {
        "magnets": [{"position": _vec(p)} for p in cfg.magnet_positions],
        "field_points": [_vec(cfg.field_point)],
        "si_prefactor": cfg.si_prefactor,
    }


def _emit_config(cfg: DipoleConfig) -> int:
    print(json.dumps(_config_json(cfg), indent=2))
    return EXIT_OK


def cmd_gen(args) -> int:
    fp = _parse_vec(args.field_point)
    if args.kind == "pair":
        if args.o_plus or args.o_minus:
            if not (args.o_plus and args.o_minus):
                raise ConfigError("pair needs both --o-plus and --o-minus")
            op, om = _parse_vec(args.o_plus), _parse_vec(args.o_minus)
        else:
            if args.sep <= 0.0:
                raise ConfigError("separation must be positive")
            half = 0.5 * args.sep * _parse_axis(args.axis)
            op, om = half, -half
        cfg = gen_pair(op, om, field_point=fp, si_prefactor=args.si)
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
    return _emit_config(cfg)


def _verify_trial(alg, n_hat, accum, samples, seed):
    """Run the per-configuration check battery, updating worst residuals."""
    scale = alg.scale

    def note(name, residual, ok):
        worst, all_ok = accum.get(name, (-np.inf, True))
        accum[name] = (max(worst, residual), all_ok and ok)

    rec = alg.reciprocity_residual()
    note("reciprocity", rec, rec <= 1e-12 * scale)
    tr = alg.trace_residual()
    note("trace", tr, tr <= 1e-12 * scale)
    det = alg.det_residual()
    note("det_identity", det, det <= 1e-12 * scale ** 3)

    try:
        plane = planar_structure(alg, n_hat)
    except NotInvariantPlaneError as e:
        note("planarity_residual", e.residual, False)
        return
    note("planarity_residual", plane.residual, True)

    g = alg.gram
    eig_res = float(np.linalg.norm(g @ plane.n_hat - 2.0 * plane.norm_P ** 2 * plane.n_hat))
    note("gram_eigenvector", eig_res, eig_res <= 1e-9 * max(scale ** 2, 1e-300))
    fn = alg.matrix(plane.n_hat)
    fro_res = abs(float(np.einsum("ab,ab->", fn, fn)) - 2.0 * plane.norm_P ** 2)
    note("frame_energy", fro_res, fro_res <= 1e-10 * max(scale ** 2, 1e-300))
    if plane.Q_hat is not None:
        ker = float(np.linalg.norm(fn @ plane.Q_hat))
        note("kernel_direction", ker, ker <= 1e-10 * scale)

    dec = decompose(alg, plane, gamma=0.7)
    rng = np.random.default_rng(seed)
    ms = random_moments(rng, 8)
    worst_plane = 0.0
    worst_equi = 0.0
    for m in ms:
        worst_plane = max(worst_plane, float(np.abs(plane.n_hat @ dec.plane_part(m)).max()))
        if plane.norm_P > 0:
            c = rot_about(plane.P, rng.uniform(0.0, 2.0 * np.pi))
            worst_equi = max(
                worst_equi,
                float(np.abs(dec.equivariant_part(c @ m) - c @ dec.equivariant_part(m) @ c.T).max()),
            )
    dec_scale = max(scale, abs(dec.gamma) * plane.norm_P ** 2, 1e-300)
    note("decomposition_into_plane", worst_plane, worst_plane <= 1e-10 * dec_scale)
    note("decomposition_equivariance", worst_equi, worst_equi <= 1e-10 * dec_scale)

    checks = verify_theorems(alg, plane, trials=200, seed=seed, n_samples=samples)
    for name, chk in checks.items():
        note(name, chk.residual, chk.ok)


def _trial_violates(alg, n_hat, accum, samples, seed) -> bool:
    """Run one verification trial; True when it makes a check that held so far fail."""
    before = {k: v[1] for k, v in accum.items()}
    _verify_trial(alg, n_hat, accum, samples, seed)
    return any(not v[1] and before.get(k, True) for k, v in accum.items())


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError("trials must be at least 1")
    if args.samples < 1:
        raise ConfigError("samples must be at least 1")
    accum: dict = {}
    offending = None
    if args.config:
        data = load_config(args.config)
        if not data["field_points"]:
            raise ConfigError("verify needs a field point in the config")
        positions = config_positions(data)
        for fp in data["field_points"]:
            cfg = DipoleConfig(positions, fp)
            alg = build_algebra(cfg)
            if alg.is_trivial():
                continue
            try:
                planes = find_invariant_planes(alg)
            except TrivialAlgebraError:
                continue
            if not planes:
                continue
            if _trial_violates(alg, planes[0].n_hat, accum, args.samples, args.seed) and offending is None:
                offending = data
    else:
        for t in range(args.trials):
            rng = np.random.default_rng([args.seed, t])
            if t % 2 == 0:
                cfg, n_hat = random_coplanar_config(rng)
            else:
                cfg, n_hat = random_mirror_config(rng)
            alg = build_algebra(cfg)
            if alg.is_trivial():
                continue
            if _trial_violates(alg, n_hat, accum, args.samples, args.seed + t) and offending is None:
                offending = _config_json(cfg)
    all_ok = all(ok for _, ok in accum.values())
    for name in sorted(accum):
        worst, ok = accum[name]
        print(f"{name}: {'ok' if ok else 'VIOLATION'} worst_residual={worst!r}")
    print(f"verify: {'PASS' if all_ok else 'FAIL'}")
    if not all_ok and offending is not None:
        print("offending config for replay:", file=sys.stderr)
        print(json.dumps(offending), file=sys.stderr)
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
    pa.add_argument("--tol", type=float, default=1e-9)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--si", action="store_true")
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="CSV of bound data over a field-point grid")
    ps.add_argument("--config", required=True)
    ps.add_argument("--grid", required=True, help="x0:x1:nx,y0:y1:ny,z0:z1:nz")
    ps.add_argument("--out", required=True)
    ps.add_argument("--tol", type=float, default=1e-9)
    ps.set_defaults(func=cmd_sweep)

    pg = sub.add_parser("gen", help="emit a canonical configuration as JSON")
    gsub = pg.add_subparsers(dest="kind", required=True)
    pp = gsub.add_parser("pair")
    pp.add_argument("--sep", type=float, default=2.0)
    pp.add_argument("--axis", default="x")
    pp.add_argument("--o-plus", dest="o_plus")
    pp.add_argument("--o-minus", dest="o_minus")
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
    pv.add_argument("--samples", type=int, default=1500, help="size of the lattice cross-check")
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
    except (ConfigError, TrivialAlgebraError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
