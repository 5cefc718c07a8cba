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
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import (
    PLANARITY_TOL,
    NotInvariantPlaneError,
    TrivialAlgebraError,
    decompose,
    find_invariant_planes,
    gram_spectrum,
    planar_structure,
    self_eigenvectors_batch,
)
from .corpus import random_coplanar_config, random_mirror_config, random_moments
from .dipoles import (
    FORCE_PREFACTOR,
    DipoleConfig,
    SingularFieldPointError,
    build_algebra,
    gen_cubic_lattice,
    gen_mirror_symmetric,
    gen_pair,
    p_vector,
)
from .extremal import (  # lambda_bar_bruteforce and lambda_plane stay bound here for tracing
    CHAIN_RTOL,
    WorstCase,
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

_SOLVE_BLOCK = 1024  # at most this many field points share one stacked Z-eigenvector solve

SWEEP_COLUMNS = [
    "x", "y", "z", "norm_P", "abs_lambda_MF", "lambda_P",
    "lambda_bar", "ub_chain", "ub_refined", "branch",
]


class ConfigError(ValueError):
    pass


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
    return [float(x) + 0.0 for x in np.asarray(v).ravel()]  # +0.0 drops -0.0


def _mat(m):
    return [[float(x) for x in row] for row in np.asarray(m)]


def _lambda_bar(wc: WorstCase | None, certified) -> dict:
    """The lambda_bar block of a record; wc is None on a DEGENERATE point, which has no maximizer."""
    return {
        "value": 0.0 if wc is None else wc.lambda_bar,
        "M_bar": None if wc is None else _vec(wc.M_bar),
        "m_bar": None if wc is None else _vec(wc.m_bar),
        "tol_sampling": 0.0,  # no sampling slack: a Z-eigenvalue; the key stays in the schema
        "certified": certified,
        "complete": False if wc is None else wc.complete,
    }


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


def _point_record(cfg: DipoleConfig, candidates: bool, alg=None) -> dict:
    """The record of one field point, for every branch.

    A DEGENERATE point (the zero operator) has no Gram spectrum, plane
    or maximizer, and a NONPLANAR one no plane and so no bound chain;
    the planar branches take the chain of the primary plane.  With
    candidates set, the candidate search on that plane's report follows
    chain_ok; the SI keys come last.  alg is cfg's algebra when already
    built (and perhaps solved); otherwise it is built here.
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
        if planes:
            reports = [bounds_report(alg, p) for p in planes]
            used = _primary_plane(reports)
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
            )
        else:
            rep = None
            rec.update(branch="NONPLANAR", plane_used=None)

    if rep is None:
        rec.update(
            norm_P=None,
            abs_lambda_MF=principal_abs(alg, gs.M_F),
            lambda_P=None,
            M_P=None,
            lambda_bar=_lambda_bar(wc, None),
            bounds=None,
            chain_ok=None,
        )
    else:
        rec.update(
            norm_P=rep.norm_P,
            abs_lambda_MF=rep.abs_lambda_MF,
            lambda_P=rep.lambda_P,
            M_P=None if rep.M_P is None else _vec(rep.M_P),
            lambda_bar=_lambda_bar(wc, rep.lambda_bar_certified),
            bounds=rep.bounds,
            chain_ok=rep.chain_ok,
        )
    if candidates:
        found = [] if rep is None else locate_candidates(alg, rep)
        rec["candidates"] = [
            {"moment": _vec(c.moment), "kind": c.kind.value, "lambda_abs": c.lambda_abs}
            for c in found
        ]
    if cfg.si_prefactor:
        rec["force_scale_si"] = FORCE_PREFACTOR
        rec["max_force_si_per_unit_moments"] = FORCE_PREFACTOR * rec["lambda_bar"]["value"]
    return rec


def analyze_point(cfg: DipoleConfig, alg=None) -> dict:
    """Full analysis of one field point as a JSON-ready record.

    Candidate search is not part of it: only `analyze` reports
    candidates.  alg is as in _point_record.
    """
    return _point_record(cfg, candidates=False, alg=alg)


def _solved(cfgs, build):
    """(cfg, algebra) of each of cfgs in order; build gives the algebra of a cfg, or None for a skipped point.

    cfgs go in blocks of at most _SOLVE_BLOCK: every algebra of a block
    is built first and the Z-eigenvectors of its nonzero operators are
    solved as one stack.
    """
    for start in range(0, len(cfgs), _SOLVE_BLOCK):
        block = cfgs[start:start + _SOLVE_BLOCK]
        algs = [build(cfg) for cfg in block]
        self_eigenvectors_batch([a for a in algs if a is not None and not a.is_trivial()])
        yield from zip(block, algs)


def cmd_analyze(args) -> int:
    data = load_config(args.config)
    if not data["field_points"]:
        raise ConfigError("analyze needs at least one field point in the config")
    positions = config_positions(data)
    si = data["si_prefactor"] or args.si
    cfgs = [DipoleConfig(positions, fp, si) for fp in data["field_points"]]
    results = [_point_record(cfg, candidates=True, alg=alg) for cfg, alg in _solved(cfgs, build_algebra)]
    tool = {
        "name": "magalg",
        "version": __version__,
        "seed": 0,  # kept in the schema; analyze takes no seed
        "tol": CHAIN_RTOL,  # kept in the schema; the chain tolerance is fixed
        "planarity_tol": PLANARITY_TOL,
        "si": args.si,
    }
    report = {"tool": tool, "config": data, "results": results}
    report.update(results[0])  # hoist the first record for convenience
    out = json.dumps(report)  # indent would bypass the C encoder
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


def _verify_trial(alg, n_hat, accum, seed):
    """Run the per-configuration check battery, updating worst residuals.

    With n_hat None (no invariant plane) only its plane-free part runs:
    the algebra identities and verify_theorems without a plane.
    """
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

    plane = None
    if n_hat is not None:
        try:
            plane = planar_structure(alg, n_hat)
        except NotInvariantPlaneError as e:
            note("planarity_residual", e.residual, False)
            return
        _plane_checks(alg, plane, note, seed)

    checks = verify_theorems(alg, plane, trials=200, seed=seed, n_samples=1500)  # the lattice cross-check
    for name, chk in checks.items():
        if plane is not None or name != "plane_chain":  # without a plane it was skipped, not passed
            note(name, chk.residual, chk.ok)


def _plane_checks(alg, plane, note, seed):
    """The checks of the battery that need an invariant plane."""
    scale = alg.scale
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
    worst_plane = float(np.abs(plane.n_hat @ dec.plane_part(ms)).max())
    worst_equi = 0.0
    if plane.norm_P > 0:
        c = rot_about(plane.P, rng.uniform(0.0, 2.0 * np.pi, size=len(ms)))  # one rotation per moment
        rotated = dec.equivariant_part((c @ ms[:, :, None])[..., 0])
        worst_equi = float(np.abs(rotated - c @ dec.equivariant_part(ms) @ c.transpose(0, 2, 1)).max())
    dec_scale = max(scale, abs(dec.gamma) * plane.norm_P ** 2, 1e-300)
    note("decomposition_into_plane", worst_plane, worst_plane <= 1e-10 * dec_scale)
    note("decomposition_equivariance", worst_equi, worst_equi <= 1e-10 * dec_scale)


def _trial_violates(alg, n_hat, accum, seed) -> bool:
    """Run one verification trial; True when it makes a check that held so far fail."""
    before = {k: v[1] for k, v in accum.items()}
    _verify_trial(alg, n_hat, accum, seed)
    return any(not v[1] and before.get(k, True) for k, v in accum.items())


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError("trials must be at least 1")
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    accum: dict = {}
    offending = None
    if args.config:
        data = load_config(args.config)
        if not data["field_points"]:
            raise ConfigError("verify needs a field point in the config")
        positions = config_positions(data)
        for fp in data["field_points"]:
            alg = build_algebra(DipoleConfig(positions, fp))
            if alg.is_trivial():
                continue
            planes = find_invariant_planes(alg)
            n_hat = planes[0].n_hat if planes else None
            if _trial_violates(alg, n_hat, accum, args.seed) and offending is None:
                offending = data
        if not accum:
            raise ConfigError("no field point of the config has a nonzero operator; nothing to verify")
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
            if _trial_violates(alg, n_hat, accum, args.seed + t) and offending is None:
                offending = _config_json(cfg)
    all_ok = all(ok for _, ok in accum.values())
    for name in sorted({*accum, "plane_chain"}):
        if name not in accum:
            print(f"{name}: skipped")  # no checked point had an invariant plane
            continue
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
    pa.add_argument("--si", action="store_true")
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
