"""Layer microbenchmarks, tracing off, on the default-seed states.

Each call is timed SAMPLES times.  A cold solve runs on a freshly built grid,
so its factor cache is empty; factor time is cold minus warm.  The grid
build and field copy that make a cold sample are outside the timed region.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from stats import median, tail
from workloads import DEFAULT_SEED, configs

SAMPLES = 40
ALPHA = 0.1     # stream solves and steps; cost does not depend on alpha


def _samples(fn, prep=lambda: None) -> list:
    out = []
    for _ in range(SAMPLES):
        arg = prep()
        start = time.perf_counter()
        fn(arg)
        out.append(time.perf_counter() - start)
    return out


def _state(doc: dict):
    from diskflow.cli import parse_config
    from diskflow.dynamics import ModelParams, initial_state
    from diskflow.grid import build_grid
    from diskflow.harness import euler_reference_state
    from diskflow.initial_data import canonical_psi, make_initial

    cfg = parse_config(json.dumps(doc))
    grid = build_grid(cfg.grid)
    psi = canonical_psi(cfg.case, grid)
    state = initial_state(ModelParams(kind="euler_alpha", alpha=ALPHA),
                          make_initial(psi, ALPHA))
    return cfg.grid, state, euler_reference_state(psi).w


def _fresh(spec):
    """Sample preparation for cold solves: the field on a new grid."""
    from diskflow.fields import ScalarField
    from diskflow.grid import build_grid
    return lambda values: lambda: ScalarField(build_grid(spec), values)


def run_micro(work_dir: str) -> dict:
    """Name -> list of seconds, one entry per sample."""
    from diskflow.dynamics import step
    from diskflow.elliptic import solve_poisson, solve_stream_helmholtz
    from diskflow.fields import (advect, grad_norm_l2, laplacian, norm_l2,
                                 perp_grad, read_snapshot, write_snapshot)

    docs = configs(DEFAULT_SEED)
    res = {}
    for key in ("radial", "perturbed"):
        spec, state, w = _state(docs[key])
        fresh = _fresh(spec)
        res[key + ".stream_cold"] = _samples(
            lambda q: solve_stream_helmholtz(q, ALPHA), fresh(state.q.values))
        res[key + ".stream_warm"] = _samples(
            lambda _: solve_stream_helmholtz(state.q, ALPHA))
        res[key + ".step"] = _samples(lambda _: step(state, 1e-3))

    # the radial case carries circulation, which the Poisson far condition
    # rejects; only the perturbed Euler vorticity has zero net mass
    solve_poisson(w, mass_tol=1e-3)   # fills the warm cache
    res["poisson_cold"] = _samples(lambda f: solve_poisson(f, mass_tol=1e-3),
                                   fresh(w.values))
    res["poisson_warm"] = _samples(lambda _: solve_poisson(w, mass_tol=1e-3))

    # operator kernels do the same work on any data: the perturbed state
    res["laplacian"] = _samples(lambda _: laplacian(state.q))
    res["perp_grad"] = _samples(lambda _: perp_grad(state.phi))
    res["advect"] = _samples(lambda _: advect(state.u, state.q))
    res["norms"] = _samples(
        lambda _: (norm_l2(state.u), grad_norm_l2(state.u)))

    for fmt in ("csv", "binary"):
        path = os.path.join(work_dir, "micro_snapshot." + fmt)
        res["write_" + fmt] = _samples(lambda _: write_snapshot(
            state.q, path, time=0.0, alpha=ALPHA, nu=0.0, fmt=fmt))
        res["read_" + fmt] = _samples(lambda _: read_snapshot(path))
        if not np.array_equal(read_snapshot(path)[0], state.q.values):
            raise RuntimeError("%s snapshot did not round-trip" % fmt)
        os.remove(path)
    return res


def micro_metrics(samples: dict) -> dict:
    out = {}
    for name, secs in samples.items():
        ms = [1e3 * s for s in secs]
        out["micro.%s.ms_p50" % name] = median(ms)
        out["micro.%s.ms_tail" % name] = tail(ms)
    return out
