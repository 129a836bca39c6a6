"""Pinned verification studies behind the verify-* subcommands.

Each procedure runs a fixed, deterministic study with no configuration:
its grids, parameters and acceptance windows are the constants of this
module, read when the study is called.  It returns a report dataclass
whose ``passed`` flag aggregates the individual checks, and leaves file
emission to the caller.  The command-line front end prints the windows,
judges the energy audit by AUDIT_REL and maps ``passed=False`` to its
verification-failure exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boundary_layer import CorrectorReport, corrector_scaling_report
from .dynamics import ModelParams, RunConfig, run, snapshot_times
from .elliptic import (release_factors, solve_poisson,
                       solve_stream_helmholtz)
from .fields import ScalarField, laplacian, seminorm_hk
from .grid import GridSpec, build_grid
from .harness import (EnergyAudit, EnergyBudget, SweepSettings,
                      euler_reference, snapshot_interval)
from .initial_data import (HypothesisReport, InitialCase, canonical_psi,
                           hypothesis_report, make_initial)
from .ratefit import RateFit, fit_rate


# acceptance windows of the studies; the contract, never loosened
ORDER_WINDOW = 0.2         # |fitted order - 2| for the Poisson solve
CHAIN_REL = 1e-9           # fourth-order inverse consistency
PROBE_FLOOR = -2.1         # slope floor of |D^3 u| vs alpha
CORRECTOR_WINDOW = 0.05    # both corrector slopes, about +-1/2
HYPOTHESIS_WINDOW = 0.1    # family rates, about +-1/2
AUDIT_REL = 1e-3           # energy-budget residual, relative


# ------------------------------------------------------------------ elliptic

# second-order stencils; the fitted order may wobble by the curvature of
# the coarsest grids but must stay near 2
_ORDER_TARGET = 2.0
_ORDER_NS = (32, 64, 128, 256)
_CHAIN_ALPHAS = (0.05, 0.2)
_PROBE_ALPHAS = (0.4, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class EllipticVerification:
    order_fit: RateFit            # L2 error vs n_r; slope is -order
    order_ok: bool
    chain_rels: tuple             # (alpha, relative error) pairs
    chain_ok: bool
    probe_slope: float            # log-log slope of |D^3 u| vs alpha
    probe_ok: bool
    passed: bool


def _weighted_l2(grid, arr) -> float:
    return float(np.sqrt(np.sum(grid.weights * arr ** 2)))


def _manufactured_phi(grid) -> ScalarField:
    # compact polynomial bump x angular mix: value and slope vanish at both
    # radial ends, so it sits in the domain of the fourth-order solver
    t = (grid.r_nodes - 2.0) / 4.0
    bump = np.where((t > 0.0) & (t < 1.0),
                    np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 4, 0.0)
    ang = 1.0 + np.cos(grid.theta_nodes) + 0.5 * np.sin(2.0 * grid.theta_nodes)
    return ScalarField(grid, bump[:, None] * ang[None, :])


def verify_elliptic() -> EllipticVerification:
    """Order study, fourth-order inverse consistency, and the D^3 probe."""
    errs = []
    for n_r in _ORDER_NS:
        g = build_grid(GridSpec(n_r, 16, 8.0))
        r = g.r_nodes[:, None]
        w = ScalarField(g, -8.0 * r ** -5.0 * np.cos(g.theta_nodes))
        phi = solve_poisson(w)
        # closed form of the truncated Robin problem; comparing against the
        # unbounded-domain solution would bottom out at the truncation floor
        a = -8.0 ** -4.0
        b = 1.0 + 8.0 ** -4.0
        exact = (-r ** -3.0 + b / r + a * r) * np.cos(g.theta_nodes)
        errs.append(_weighted_l2(g, phi.values - exact))
    order_fit = fit_rate(_ORDER_NS, errs)
    order_ok = abs(-order_fit.slope - _ORDER_TARGET) <= ORDER_WINDOW

    g = build_grid(GridSpec(128, 16, 8.0))
    phi_star = _manufactured_phi(g)
    rels = []
    for alpha in _CHAIN_ALPHAS:
        lap = laplacian(phi_star)
        q = ScalarField(g, lap.values - alpha ** 2 * laplacian(lap).values)
        phi, _w, _u = solve_stream_helmholtz(q, alpha)
        rels.append((alpha, _weighted_l2(g, phi.values - phi_star.values)
                     / _weighted_l2(g, phi_star.values)))
    chain_ok = all(rel <= CHAIN_REL for _, rel in rels)

    g = build_grid(GridSpec(129, 16, 8.0))
    q = laplacian(_manufactured_phi(g))
    norms = []
    for alpha in _PROBE_ALPHAS:
        _phi, _w, u = solve_stream_helmholtz(q, alpha)
        norms.append(seminorm_hk(u, 3))
    probe_slope = fit_rate(_PROBE_ALPHAS, norms).slope
    probe_ok = probe_slope >= PROBE_FLOOR

    return EllipticVerification(
        order_fit=order_fit, order_ok=order_ok, chain_rels=tuple(rels),
        chain_ok=chain_ok, probe_slope=probe_slope, probe_ok=probe_ok,
        passed=order_ok and chain_ok and probe_ok)


# ----------------------------------------------------------------- corrector

_CORRECTOR_GRID = GridSpec(512, 16, 8.0)
_CORRECTOR_DELTAS = (0.4, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class CorrectorVerification:
    report: CorrectorReport
    l2_ok: bool                   # slope of |u_b| within 0.5 +- 0.05
    h1_ok: bool                   # slope of |grad u_b| within -0.5 +- 0.05
    passed: bool


def verify_corrector() -> CorrectorVerification:
    """Layer-width scalings of the wall corrector on a slip profile."""
    g = build_grid(_CORRECTOR_GRID)
    # unit wall slip, single angular mode; vanishes on the ring
    vals = (1.0 - np.exp(1.0 - g.r_nodes[:, None])) * np.cos(g.theta_nodes)
    report = corrector_scaling_report(ScalarField(g, vals), _CORRECTOR_DELTAS)
    l2_ok = abs(report.l2_fit.slope - 0.5) <= CORRECTOR_WINDOW
    h1_ok = abs(report.h1_fit.slope + 0.5) <= CORRECTOR_WINDOW
    return CorrectorVerification(report=report, l2_ok=l2_ok, h1_ok=h1_ok,
                                 passed=l2_ok and h1_ok)


# -------------------------------------------------------------- initial data

_HYPOTHESIS_CASE = InitialCase(name="radial_vortex", amplitude=1.0, r0=1.0,
                               sigma=1.5, boundary_profile="linear")
_HYPOTHESIS_GRID = GridSpec(1024, 16, 10.0)
_HYPOTHESIS_ALPHAS = (0.2, 0.1, 0.05, 0.025)


@dataclass(frozen=True)
class InitialDataVerification:
    report: HypothesisReport
    e0_ok: bool                   # collar error slope within 0.5 +- 0.1
    d1_ok: bool                   # |D^1 u| slope within -0.5 +- 0.1
    products_ok: bool             # alpha^k |D^k| decreasing, three finest
    passed: bool


def verify_initial_data() -> InitialDataVerification:
    """Collar rates of the saturating no-slip family."""
    g = build_grid(_HYPOTHESIS_GRID)
    psi = canonical_psi(_HYPOTHESIS_CASE, g)
    report = hypothesis_report(psi, _HYPOTHESIS_ALPHAS)
    e0_ok = abs(report.e0_fit.slope - 0.5) <= HYPOTHESIS_WINDOW
    d1_ok = abs(report.dk_fits[1].slope + 0.5) <= HYPOTHESIS_WINDOW
    products_ok = True
    for k in (1, 2, 3):
        probe = [r.alpha ** k * r.dk_norms[k - 1] for r in report.rows[-3:]]
        products_ok = products_ok and all(
            a > b for a, b in zip(probe, probe[1:]))
    return InitialDataVerification(report=report, e0_ok=e0_ok, d1_ok=d1_ok,
                                   products_ok=products_ok,
                                   passed=e0_ok and d1_ok and products_ok)


# -------------------------------------------------------------- energy audit

def energy_audit_study(case: InitialCase, grid_spec: GridSpec, alpha: float,
                       nu: float, t_final: float,
                       run_config: RunConfig = RunConfig(),
                       delta: float | None = None) -> EnergyAudit:
    """Run a regularized trajectory and audit it against its Euler twin.

    The reference is harness.euler_reference: the frozen initial state for
    radial cases, otherwise an Euler run at the same resolution with
    run_config of which only the velocity per snapshot is kept; the grid's
    Poisson factor is dropped once the reference is built, as run_sweep
    drops it, since the regularized run solves only its stream pair.  The
    regularized run streams its snapshots through the reference's follow()
    into an EnergyBudget, so the audit holds three snapshots' worth of
    fields, not the trajectory.  Snapshots default to t_final / 8; the
    budget takes their schedule first, so fewer than 3 fail before any step.
    """
    g = build_grid(grid_spec)
    psi = canonical_psi(case, g)
    u0a = make_initial(psi, alpha)
    cfg = replace(run_config, snapshot_dt=snapshot_interval(
        run_config.snapshot_dt, t_final))
    budget = EnergyBudget(alpha ** SweepSettings.delta_rule
                          if delta is None else delta,
                          snapshot_times(t_final, cfg.snapshot_dt))
    on_snapshot, done = euler_reference(case, psi, t_final, cfg).follow(
        budget.add)
    release_factors(g, "poisson")
    run(ModelParams.regularized(alpha, nu), u0a, t_final, cfg,
        on_snapshot=on_snapshot)
    done()
    return budget.finish()
