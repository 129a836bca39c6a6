"""Workload inputs, the ops that run them, and the checks on their outputs.

Every op is one in-process call to ``diskflow.cli.main`` on a config file
that this module generates from the workload seed.  The program sees only
those files.  Seed 0 gives exactly the pinned configs in README.md; other
seeds pick the perturbation mode, its amplitude ``eps`` and the radial
vortex amplitude.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass

DEFAULT_SEED = 0
ALPHAS = [0.4, 0.2, 0.1, 0.05]
AUDIT_REL_TOL = 1e-3           # acceptance test 11
MARGIN_TOL = 1.0 + 1e-9        # acceptance test 08

WORKLOADS = ("radial_sweep", "perturbed_sweep", "audit_io")

# Timed sweeps run on one thread.  With the CLI default (2 threads on a
# 2-core host) the radial sweep's wall time follows how busy the host keeps
# the second core: 40 to 63 steps/s between half-minute windows on a shared
# machine, against 41 to 49 on one thread.  The pool's effect is measured
# apart, as harness.run_sweep.threads_speedup in the traced run.
SWEEP_THREADS = 1


def seed_params(seed: int) -> dict:
    """The seed-dependent case parameters; seed 0 gives the pinned ones."""
    if seed == DEFAULT_SEED:
        return {"mode": 2, "eps": 0.1, "amplitude": 0.4}
    rng = random.Random(seed)
    return {"mode": rng.choice((2, 3, 4)),
            "eps": round(rng.uniform(0.05, 0.15), 4),
            "amplitude": round(rng.uniform(0.3, 0.5), 4)}


def _sweep_doc(case: dict, r_max: float, t_final: float) -> dict:
    return {"model": "euler_alpha", "alpha": ALPHAS[0],
            "grid": {"n_r": 256, "n_theta": 128, "r_max": r_max},
            "t_final": t_final, "case": case, "sweep": {"alphas": ALPHAS}}


def configs(seed: int) -> dict:
    """Config documents by name; every workload draws from the same seed."""
    p = seed_params(seed)
    return {
        # acceptance test 08, verbatim
        "radial": _sweep_doc({"name": "radial_vortex",
                              "amplitude": p["amplitude"], "r0": 1.0,
                              "sigma": 1.5, "boundary_profile": "linear"},
                             r_max=10.0, t_final=1.0),
        "perturbed": _sweep_doc({"name": "perturbed_vortex", "r0": 2.0,
                                 "sigma": 0.4, "mode": p["mode"],
                                 "eps": p["eps"]},
                                r_max=8.0, t_final=0.5),
        # acceptance test 11's case on the 256x128 grid
        "audit": {"model": "second_grade", "alpha": 0.2, "nu": 1e-4,
                  "grid": {"n_r": 256, "n_theta": 128, "r_max": 8.0},
                  "t_final": 0.5, "snapshot_dt": 0.01},
        # the viscous run that the stream solve's far-field closure aborts
        # with tail_mass; independent of the seed
        "probe": {"model": "second_grade", "alpha": 0.1, "nu": 1e-4,
                  "grid": {"n_r": 256, "n_theta": 128, "r_max": 8.0},
                  "t_final": 0.5, "dt": 0.005,
                  "case": {"name": "perturbed_vortex", "r0": 2.0,
                           "sigma": 0.4, "mode": 2, "eps": 0.1}},
    }


@dataclass(frozen=True)
class Op:
    command: str       # diskflow subcommand
    config: str        # key into configs()
    timed: bool        # counts toward the time and step metrics


# One cycle of each workload, run back to back in one process.
CYCLES = {
    "radial_sweep": (Op("sweep", "radial", True),),
    "perturbed_sweep": (Op("sweep", "perturbed", True),),
    "audit_io": (Op("simulate", "audit", True),
                 Op("energy-audit", "audit", True),
                 Op("verify-elliptic", "audit", False),
                 Op("verify-corrector", "audit", False),
                 Op("verify-initial-data", "audit", False)),
}
PROBE = Op("simulate", "probe", False)


@dataclass
class OpResult:
    command: str
    timed: bool
    exit_code: int
    wall_s: float
    steps: int
    ok: bool
    detail: str
    digest: str = ""
    failure_kind: str = ""


class StepCounter:
    """Counts calls at the dynamics.step boundary; no timer."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()   # sweeps step from a thread pool

    def wrap(self, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.count += 1
            return fn(*args, **kwargs)
        return counted


class Runner:
    """Writes the configs once and runs ops in a private work directory."""

    def __init__(self, work_dir: str, seed: int):
        import diskflow.cli
        import diskflow.dynamics
        self._cli = diskflow.cli
        self._dyn = diskflow.dynamics
        self.work_dir = work_dir
        self.docs = configs(seed)
        self.paths = {}
        os.makedirs(work_dir, exist_ok=True)
        for name, doc in self.docs.items():
            path = os.path.join(work_dir, name + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            self.paths[name] = path
        self.ops_run = 0
        self.has_threads = "--threads" in self._help("sweep")

    def _help(self, command: str) -> str:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            try:
                self._cli.main([command, "--help"])
            except SystemExit:
                pass
        return text.getvalue()

    def argv(self, op: Op, out: str, threads: int = SWEEP_THREADS) -> list:
        """The CLI arguments of ``op``, writing into ``out``.

        Sweeps get ``--threads threads`` while the CLI has that flag.
        """
        argv = [op.command, "--config", self.paths[op.config],
                "--output-dir", out]
        if self.has_threads and op.command == "sweep":
            argv += ["--threads", str(threads)]
        return argv

    def run(self, op: Op, threads: int = SWEEP_THREADS) -> OpResult:
        """One CLI call, checked; its output directory is removed after."""
        self.ops_run += 1
        out = os.path.join(self.work_dir, "op%05d" % self.ops_run)
        argv = self.argv(op, out, threads)
        counter = StepCounter()
        original = self._dyn.step
        self._dyn.step = counter.wrap(original)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = self._cli.main(argv)
                except SystemExit as exc:   # argparse rejected the flags
                    code = exc.code if isinstance(exc.code, int) else 2
                wall = time.perf_counter() - start
        finally:
            self._dyn.step = original
        res = OpResult(command=op.command, timed=op.timed, exit_code=code,
                       wall_s=wall, steps=counter.count, ok=False, detail="")
        err = stderr.getvalue()
        if err.startswith("numerical failure ("):
            res.failure_kind = err[len("numerical failure ("):].split(")")[0]
        try:
            res.ok, res.detail = check(op, self.docs[op.config], code, out,
                                       res)
            res.digest = digest(out)
        except (OSError, ValueError, KeyError) as exc:
            res.ok, res.detail = False, "unreadable output: %s" % exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not res.ok and err:
            res.detail += " | " + err.strip().splitlines()[-1]
        return res


# ------------------------------------------------------------------ checks

def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: str) -> tuple:
    rows = _read_csv(os.path.join(out, "sweep.csv"))
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    if len(rows) != len(ALPHAS) or bad:
        return False, "sweep rows %d, failed statuses %r" % (len(rows), bad)
    sups = [float(r["sup_err_l2"]) for r in rows]
    if not all(a > b for a, b in zip(sups, sups[1:])):
        return False, "sup errors not strictly decreasing: %r" % sups

    def rhs(r):   # the convergence bound's right-hand side, unscaled
        a, nu = float(r["alpha"]), float(r["nu"])
        return (float(r["err0"]) + float(r["alpha_grad_u0"])
                + a ** (1.0 / 3.0) + math.sqrt(nu) * a ** (-2.0 / 3.0))

    constant = sups[0] / rhs(rows[0])
    margins = [s / (constant * rhs(r)) for s, r in zip(sups, rows)]
    if not all(m <= MARGIN_TOL for m in margins):
        return False, "bound margins above 1: %r" % margins
    return True, "margins " + "/".join("%.3f" % m for m in margins)


def expected_snapshots(doc: dict) -> int:
    """Snapshots a run of config ``doc`` keeps: the initial state, one per
    ``snapshot_dt`` before ``t_final``, and the final state (51 for the
    audit trajectory; 2 without ``snapshot_dt``)."""
    every = doc.get("snapshot_dt")
    if every is None:
        return 2
    return math.ceil(doc["t_final"] / every - 1e-9) + 1


def check(op: Op, doc: dict, code: int, out: str, res: OpResult) -> tuple:
    if code != 0:
        return False, "exit %d" % code
    if op.command == "sweep":
        return check_sweep(out)
    if op.command == "simulate":
        rows = _read_csv(os.path.join(out, "diagnostics.csv"))
        snaps = [f for f in os.listdir(out) if f.startswith("snapshot_")]
        want = expected_snapshots(doc)
        ok = len(rows) == res.steps + 1 and len(snaps) == want
        return ok, "%d diagnostics rows for %d steps, %d of %d snapshots" % (
            len(rows), res.steps, len(snaps), want)
    name = op.command.replace("-", "_") + ".json"
    with open(os.path.join(out, name)) as fh:
        report = json.load(fh)
    if op.command == "energy-audit":
        rel = report["rel_residual"]
        return rel <= AUDIT_REL_TOL, "rel_residual %.3e" % rel
    return report["passed"] is True, "passed=%r" % report["passed"]


def digest(out: str) -> str:
    """SHA-256 over the op's output files, without sweep.csv's runtime_s."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "sweep.csv":
            lines = data.decode("ascii").splitlines()
            col = lines[0].split(",").index("runtime_s")
            data = "\n".join(",".join(c for i, c in enumerate(l.split(","))
                                      if i != col) for l in lines).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
