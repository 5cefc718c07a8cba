"""The benchmark's three workloads.

Each workload turns the seed into config files, runs one `magalg` CLI
call per op through `magalg.cli.main`, and checks what the call wrote.
Inputs are built here from the seed with numpy alone, or with the CLI's
own `gen` subcommand, so they do not change when library code changes.

A call returns one problem list per unit of work (a field point, a grid
row or a trial).  A unit fails when its list is not empty.  Checks that
need the dense reference oracle run after the timed loop, in
`check_references`, so the reference's memory stays out of the
measured peak RSS.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

# The oracle's published slack: a lattice of n samples may undershoot the
# true worst case by at most SAMPLING_C * lambda_bar / n.
SAMPLING_C = 25.0
CHAIN_RTOL = 1e-9  # the CLI's default --tol
KNOWN_BRANCHES = frozenset({"PLANE_DOMINANT", "P_DOMINANT", "NONPLANAR", "DEGENERATE"})
SWEEP_HEADER = "x,y,z,norm_P,abs_lambda_MF,lambda_P,lambda_bar,ub_chain,ub_refined,branch"
REF_SEED = 7919  # the reference oracle's seed; the CLI runs at its default seed 0

_TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / math.sqrt(3.0)


class Call(NamedTuple):
    seconds: float
    problems: list  # one list of strings per unit
    lambda_bars: list  # (unit, reference key, reported lambda_bar, samples) per checked unit
    branches: list


def _run_main(cli, argv):
    """Time one CLI call; returns (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # an escaped exception is a failed op, not a dead benchmark
            return time.perf_counter() - start, None, out.getvalue(), f"raised {e!r}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), None


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _random_frame(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _log_radii(rng, n, lo=0.12, hi=3.0):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=n)


def _csv_vec(v):
    return ",".join(repr(float(x)) for x in v)


def _config(magnets, field_point):
    return {
        "magnets": [{"position": [float(x) for x in m]} for m in magnets],
        "field_points": [[float(x) for x in field_point]],
    }


def _gen(cli, argv):
    seconds, code, text, error = _run_main(cli, ["gen", *argv])
    if error or code != 0:
        raise RuntimeError(f"magalg gen {' '.join(argv)} failed: {error or code}")
    return json.loads(text)


class AnalyzeMixed:
    """One `magalg analyze` per single-point config, at the CLI defaults."""

    name = "analyze-mixed"
    samples = 20000  # the analyze default
    ref_samples = 100_000
    pool_size = 100
    # one cycle of families; two of ten are tetrahedral centres
    families = ("dipole", "pair", "mirror", "coplanar", "tetra",
                "generic", "lattice", "pair", "coplanar", "tetra")

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        rng = np.random.default_rng([seed, 1])
        self.configs = []
        self.closed_form = {}
        self.paths = []
        for i in range(self.pool_size):
            family = self.families[i % len(self.families)]
            cfg = getattr(self, "_" + family)(rng)
            if family == "dipole":
                d = float(np.linalg.norm(np.subtract(cfg["field_points"][0], cfg["magnets"][0]["position"])))
                self.closed_form[i] = 2.0 / d ** 4
            path = workdir / f"analyze-{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.configs.append(cfg)
            self.paths.append(str(path))
        self.out = str(workdir / "analyze-report.json")
        self._refs = {}

    def _dipole(self, rng):
        magnet = rng.uniform(-1.0, 1.0, 3)
        return _config([magnet], magnet + rng.uniform(0.3, 3.0) * _random_unit(rng))

    def _pair(self, rng):
        axis = _random_unit(rng)
        off = _random_unit(rng)
        off -= (off @ axis) * axis  # the field point sits 0.2 to 2 off the magnet axis
        fp = rng.uniform(-1.5, 1.5) * axis + rng.uniform(0.2, 2.0) * off / np.linalg.norm(off)
        return _gen(self.cli, ["pair", f"--sep={rng.uniform(0.5, 3.0)!r}", f"--axis={_csv_vec(axis)}",
                               f"--field-point={_csv_vec(fp)}"])

    def _mirror(self, rng):
        frame = _random_frame(rng)
        normal, e1, e2 = frame[:, 2], frame[:, 0], frame[:, 1]
        argv = ["mirror", f"--normal={_csv_vec(normal)}"]
        for _ in range(int(rng.integers(1, 4))):
            argv.append(f"--base={_csv_vec(rng.uniform(-2, 2) * e1 + rng.uniform(-2, 2) * e2)}:{rng.uniform(0.2, 2.0)!r}")
        for _ in range(int(rng.integers(0, 3))):
            argv.append(f"--in-plane={_csv_vec(rng.uniform(-2, 2) * e1 + rng.uniform(-2, 2) * e2)}")
        fp = rng.uniform(-0.2, 0.2) * e1 + rng.uniform(-0.2, 0.2) * e2
        return _gen(self.cli, argv + [f"--field-point={_csv_vec(fp)}"])

    def _coplanar(self, rng):
        frame = _random_frame(rng)
        fp = rng.uniform(-1.0, 1.0, 3)
        n = int(rng.integers(1, 9))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        offsets = _log_radii(rng, n)[:, None] * (np.cos(angles)[:, None] * frame[:, 0]
                                                 + np.sin(angles)[:, None] * frame[:, 1])
        return _config(fp - offsets, fp)

    def _generic(self, rng):
        fp = rng.uniform(-1.0, 1.0, 3)
        n = int(rng.integers(3, 7))
        dirs = np.stack([_random_unit(rng) for _ in range(n)])
        return _config(fp - _log_radii(rng, n)[:, None] * dirs, fp)

    def _lattice(self, rng):
        fp = rng.uniform(0.05, 0.35) * _random_unit(rng)
        return _gen(self.cli, ["lattice", "--k", "1", "--exclude-origin", f"--field-point={_csv_vec(fp)}"])

    def _tetra(self, rng):
        """One or two concentric, equally oriented tetrahedra around the field point."""
        frame = _random_frame(rng)
        fp = rng.uniform(-1.0, 1.0, 3)
        shells = [fp + r * _TETRA @ frame.T for r in rng.uniform(0.3, 2.0, int(rng.integers(1, 3)))]
        return _config(np.concatenate(shells), fp)

    def call(self, i):
        k = i % self.pool_size
        seconds, code, _, error = _run_main(self.cli, ["analyze", "--config", self.paths[k], "--out", self.out])
        problems, lambda_bars, branches = [], [], []
        if error or code != 0:
            problems.append(error or f"analyze exited {code} on config {k}")
        else:
            rec = json.loads(Path(self.out).read_text(encoding="utf-8"))["results"][0]
            branches.append(rec["branch"])
            if rec["branch"] not in KNOWN_BRANCHES:
                problems.append(f"config {k}: unknown branch {rec['branch']!r}")
            flags = [rec.get("chain_ok") or {}] + [r["chain_ok"] for r in rec.get("plane_reports", [])]
            bad = sorted({name for f in flags for name, ok in f.items() if not ok})
            if bad:
                problems.append(f"config {k}: chain_ok false: {', '.join(bad)}")
            lambda_bars.append((0, k, rec["lambda_bar"]["value"], self.samples))
        return Call(seconds, [problems], lambda_bars, branches)

    def reference(self, k):
        if k in self.closed_form:
            return self.closed_form[k], 0
        if k not in self._refs:
            cfg = self.configs[k]
            self._refs[k] = _dense_oracle(cfg["magnets"], cfg["field_points"][0], self.ref_samples)
        return self._refs[k]


class SweepPair:
    """One `magalg sweep` of the `gen pair --sep 2` config per call, at the sweep defaults.

    Each grid is two rows along x at a seeded (y, z) offset: the row on
    the bisector near the midpoint is PLANE_DOMINANT, the row beyond a
    magnet is P_DOMINANT, and neither comes within 0.15 of a magnet.
    Grids this small give the 100 calls that op_ms.p90 needs.
    """

    name = "sweep-pair"
    samples = 2000  # the sweep default
    ref_samples = 20_000
    rows = 2
    pool_size = 100

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        rng = np.random.default_rng([seed, 2])
        self.config = _gen(cli, ["pair", "--sep", "2"])
        self.config_path = str(workdir / "pair.json")
        Path(self.config_path).write_text(json.dumps(self.config), encoding="utf-8")
        self.grids, self.points = [], []
        for _ in range(self.pool_size):
            x1 = rng.uniform(1.4, 2.4)
            r, phi = rng.uniform(0.15, 0.6), rng.uniform(0.0, 2.0 * math.pi)
            y, z = r * math.cos(phi), r * math.sin(phi)
            self.grids.append(f"--grid=0:{x1!r}:{self.rows},{y!r}:{y!r}:1,{z!r}:{z!r}:1")
            self.points.append([(x, y, z) for x in np.linspace(0.0, x1, self.rows)])
        self.out = str(workdir / "sweep.csv")
        self._refs = {}

    def call(self, i):
        k = i % self.pool_size
        seconds, code, _, error = _run_main(
            self.cli, ["sweep", "--config", self.config_path, self.grids[k], "--out", self.out])
        if error or code != 0:
            return self._failed(seconds, error or f"sweep exited {code} on grid {k}")
        text = Path(self.out).read_text(encoding="utf-8")
        header = text.splitlines()[0] if text else ""
        if header != SWEEP_HEADER:
            return self._failed(seconds, f"grid {k}: CSV header {header!r}")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.rows:
            return self._failed(seconds, f"grid {k}: {len(rows)} rows, expected {self.rows}")
        problems, lambda_bars, branches = [], [], []
        for j, (row, point) in enumerate(zip(rows, self.points[k])):
            problems.append(self._check_row(row, point, f"grid {k} row {j}"))
            branches.append(row["branch"])
            if row["lambda_bar"]:
                lambda_bars.append((j, (k, j), float(row["lambda_bar"]), self.samples))
        return Call(seconds, problems, lambda_bars, branches)

    def _failed(self, seconds, problem):
        """A call-level failure fails every row of the grid."""
        return Call(seconds, [[problem] for _ in range(self.rows)], [], [])

    def _check_row(self, row, point, where):
        if row["branch"] not in KNOWN_BRANCHES:
            return [f"{where}: unknown branch {row['branch']!r}"]
        got = [float(row[c]) for c in "xyz"]
        if not np.allclose(got, point, rtol=1e-12, atol=1e-15):
            return [f"{where}: at {got}, expected {list(point)}"]
        if row["branch"] in ("NONPLANAR", "DEGENERATE"):
            return []
        lam_p, lam_bar, ub = (float(row[c]) for c in ("lambda_P", "lambda_bar", "ub_chain"))
        slack = SAMPLING_C * lam_bar / self.samples + CHAIN_RTOL * max(lam_p, lam_bar, ub)
        out = []
        if not lam_p <= lam_bar + slack:
            out.append(f"{where}: lambda_P {lam_p!r} > lambda_bar {lam_bar!r}")
        if not lam_bar <= ub + CHAIN_RTOL * ub:
            out.append(f"{where}: lambda_bar {lam_bar!r} > ub_chain {ub!r}")
        return out

    def reference(self, key):
        if key not in self._refs:
            k, j = key
            self._refs[key] = _dense_oracle(self.config["magnets"], self.points[k][j], self.ref_samples)
        return self._refs[key]


class VerifyRandom:
    """One `magalg verify --trials 2 --seed S` per call, S drawn from the workload seed.

    Trial 0 of a call is a coplanar configuration and trial 1 a mirror one.
    """

    name = "verify-random"
    trials = 2

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.base = int(np.random.default_rng([seed, 3]).integers(0, 2 ** 31))

    def call(self, i):
        seed = self.base + i * self.trials
        seconds, code, text, error = _run_main(
            self.cli, ["verify", "--trials", str(self.trials), "--seed", str(seed)])
        problem = error or (f"verify --seed {seed} exited {code}" if code != 0 else None)
        if problem is None and "verify: PASS" not in text.splitlines():
            problem = f"verify --seed {seed} printed no 'verify: PASS'"
        return Call(seconds, [[problem] if problem else [] for _ in range(self.trials)], [], [])


WORKLOADS = {w.name: w for w in (AnalyzeMixed, SweepPair, VerifyRandom)}


def _dense_oracle(magnets, field_point, samples):
    """Reference worst case: the brute-force oracle at 5-10x the CLI's samples, 200 steps, another seed.

    Returns (value, samples) so the check can add the reference's own slack.
    """
    from magalg.dipoles import DipoleConfig, build_algebra
    from magalg.extremal import lambda_bar_bruteforce

    cfg = DipoleConfig([m["position"] for m in magnets], field_point)
    bf = lambda_bar_bruteforce(build_algebra(cfg), n_samples=samples, refine_steps=200, seed=REF_SEED)
    return bf.lambda_bar, samples


def check_references(workload, calls):
    """Compare each reported lambda_bar with its reference; returns the largest relative error.

    A unit whose error exceeds the two oracles' published slacks gets a
    problem appended.  References are computed once per distinct input.
    """
    worst = 0.0
    for call in calls:
        for unit, key, reported, samples in call.lambda_bars:
            ref, ref_samples = workload.reference(key)
            err = abs(reported - ref) / ref if ref else abs(reported)
            worst = max(worst, err)
            tol = SAMPLING_C / samples + (SAMPLING_C / ref_samples if ref_samples else 0.0) + CHAIN_RTOL
            if err > tol:
                call.problems[unit].append(f"input {key}: lambda_bar {reported!r} vs reference {ref!r}")
    return worst
