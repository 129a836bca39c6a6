"""Boundary-layer corrector u_b = perp-grad(eta(rho/delta) psi) and the
collar-scaling diagnostics that justify the delta = alpha^(4/3) width.

The cutoff eta is a quintic smoothstep: identically 1 inside the layer,
identically 0 past twice its width, C^2 everywhere, so the corrector
coincides with the reference velocity near the wall and vanishes exactly
outside the collar.  Its L2 norm shrinks like delta^(1/2) while its H1
seminorm grows like delta^(-1/2); the report measures both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, VectorField, norm_l2, perp_grad, seminorm_hk
from .ratefit import RateFit, check_geometric, fit_rate

# a stream function counts as vanishing on the ring below this share of
# its maximum
TRACE_TOL = 1e-10
# collars narrower than this many radial cells are reported but not fitted
MIN_CELLS = 4


def eta(x):
    """Quintic smoothstep cutoff: 1 on [0,1], 0 on [2,inf), C^2 between."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ConfigError("eta expects nonnegative arguments", key="x")
    y = np.clip(2.0 - arr, 0.0, 1.0)
    out = 6.0 * y ** 5 - 15.0 * y ** 4 + 10.0 * y ** 3
    if np.isscalar(x):
        return float(out)
    return out


def _eta_prime(x):
    arr = np.asarray(x, dtype=float)
    y = 2.0 - arr
    inside = (arr > 1.0) & (arr < 2.0)
    return np.where(inside, -(30.0 * y ** 4 - 60.0 * y ** 3 + 30.0 * y ** 2),
                    0.0)


def build_corrector(psi_bar: ScalarField, delta: float) -> VectorField:
    """perp-grad of eta(rho/delta) * psi_bar; psi_bar must vanish on the ring."""
    if not 0.0 < delta < 1.0:
        raise ConfigError("corrector width delta=%r outside (0, 1)" % (delta,),
                          key="delta")
    g = psi_bar.grid
    scale = max(float(np.max(np.abs(psi_bar.values))), 1.0)
    trace = float(np.max(np.abs(psi_bar.values[0])))
    if trace > TRACE_TOL * scale:
        raise ConfigError(
            "psi_bar has boundary trace %.3e; the corrector construction "
            "requires a stream function vanishing on the ring" % trace,
            key="psi_bar")
    rho = g.r_nodes - 1.0
    cut = eta(rho / delta)
    return perp_grad(ScalarField(g, cut[:, None] * psi_bar.values))


def collar_cells(grid, delta: float) -> int:
    """Number of radial cells inside the layer rho < delta.

    grid is an ExteriorGrid or a GridSpec; both carry the spacing ds.
    """
    return int(np.log1p(delta) / grid.ds)


def collar_resolved(grid, delta: float) -> bool:
    """True when the layer rho < delta spans at least MIN_CELLS cells."""
    return collar_cells(grid, delta) >= MIN_CELLS


@dataclass(frozen=True)
class CorrectorRow:
    delta: float
    norm_ub: float
    seminorm_ub: float
    resolved: bool


@dataclass(frozen=True)
class CorrectorReport:
    rows: tuple
    l2_fit: RateFit
    h1_fit: RateFit


def corrector_scaling_report(psi_bar: ScalarField, deltas) -> CorrectorReport:
    """Measure norm_l2 and seminorm_h1 of u_b over a geometric delta sweep.

    Under-resolved widths (< 4 radial cells per delta) are reported but
    excluded from the fits.
    """
    ds = [float(d) for d in deltas]
    if len(ds) < 3:
        raise ConfigError("need at least 3 delta values", key="deltas")
    check_geometric(ds, "deltas")
    rows = []
    for d in ds:
        ub = build_corrector(psi_bar, d)
        rows.append(CorrectorRow(
            delta=d,
            norm_ub=norm_l2(ub),
            seminorm_ub=seminorm_hk(ub, 1),
            resolved=collar_resolved(psi_bar.grid, d)))
    fitted = [r for r in rows if r.resolved]
    l2_fit = fit_rate([r.delta for r in fitted], [r.norm_ub for r in fitted])
    h1_fit = fit_rate([r.delta for r in fitted], [r.seminorm_ub for r in fitted])
    return CorrectorReport(rows=tuple(rows), l2_fit=l2_fit, h1_fit=h1_fit)

