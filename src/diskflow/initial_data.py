"""Approximating initial-data family u0^a = perp-grad(phi(rho/a) psi0).

psi0 is a smooth vortex stream supported away from the ring; phi is the
C^3 ramp cut_profile (0 for rho <= 1.5a, 1 for rho >= 4.5a), so every family
member is divergence-free, no-slip, and collapses onto the reference
velocity outside a collar of width 4.5a.

Two boundary profiles are available.  The default squares the wall factor
(1 - e^{1-r})^2, making the reference velocity itself no-slip: its family
converges faster than the generic rate.  The 'linear' profile keeps an O(1)
slip at the wall, which is the regime where the collar rates e0 ~ a^{1/2}
and |D^k u0^a| ~ a^{1/2-k} saturate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_layer import TRACE_TOL, collar_resolved
from .errors import ConfigError
from .fields import (ScalarField, VectorField, _retag, difference, norm_l2,
                     perp_grad, read_snapshot, seminorms_hk, times_profile)
from .grid import tail_weights
from .ratefit import RateFit, check_geometric, fit_rate

_NAMES = ("radial_vortex", "perturbed_vortex", "file")
_PROFILES = ("squared", "linear")
_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class InitialCase:
    name: str = "radial_vortex"
    amplitude: float = 1.0
    r0: float = 2.0
    sigma: float = 0.4
    mode: int = 2
    eps: float = 0.1
    boundary_profile: str = "squared"
    path: str | None = None

    def __post_init__(self):
        if self.name not in _NAMES:
            raise ConfigError("case name %r not one of %r" % (self.name, _NAMES),
                              key="name")
        if self.boundary_profile not in _PROFILES:
            raise ConfigError("boundary_profile %r not one of %r"
                              % (self.boundary_profile, _PROFILES),
                              key="boundary_profile")
        if self.name == "file":
            if not self.path:
                raise ConfigError("file case requires a snapshot path",
                                  key="path")
            return
        if not self.sigma > 0.0:
            raise ConfigError("sigma=%r must be positive" % (self.sigma,),
                              key="sigma")
        if self.amplitude == 0.0:
            raise ConfigError("amplitude must be nonzero", key="amplitude")
        if self.name == "perturbed_vortex":
            if not (isinstance(self.mode, int) and self.mode >= 1):
                raise ConfigError("perturbation mode must be a positive "
                                  "integer", key="mode")
            if self.eps < 0.0:
                raise ConfigError("eps=%r must be nonnegative" % (self.eps,),
                                  key="eps")


def _radial_profile(case: InitialCase, r: np.ndarray) -> np.ndarray:
    wall = 1.0 - np.exp(1.0 - r)
    if case.boundary_profile == "squared":
        wall = wall * wall
    gauss = np.exp(-(((r - case.r0) / case.sigma) ** 2))
    return case.amplitude * wall * gauss


def canonical_psi(case: InitialCase, grid) -> ScalarField:
    """Vortex stream for the case; rejects support leaking past 0.9 r_max
    and a perturbation mode the grid aliases."""
    if case.name == "file":
        psi, _meta = read_snapshot(case.path, grid=grid)
    else:
        prof = _radial_profile(case, grid.r_nodes)
        vals = np.repeat(prof[:, None], grid.spec.n_theta, axis=1)
        if case.name == "perturbed_vortex":
            if case.mode > grid.spec.n_theta // 2:
                raise ConfigError("mode %d aliases on n_theta %d" % (
                    case.mode, grid.spec.n_theta), key="case.mode")
            vals = vals * (1.0 + case.eps
                           * np.cos(case.mode * grid.theta_nodes)[None, :])
        psi = ScalarField(grid, vals)
    scale = max(float(np.max(np.abs(psi.values))), 1e-30)
    trace = float(np.max(np.abs(psi.values[0])))
    if trace > TRACE_TOL * scale:
        raise ConfigError("psi0 has boundary trace %.3e" % trace, key="case")
    total = norm_l2(psi)
    tail = float(np.sqrt(np.sum(tail_weights(grid) * psi.values ** 2)))
    if tail > _TAIL_TOL * max(total, 1e-30):
        raise ConfigError(
            "psi0 tail beyond 0.9 r_max is %.3e of its norm; support sits "
            "too close to the truncation radius" % (tail / total), key="case")
    return psi


# Collar-cut geometry, in units of alpha: the stream is zeroed exactly on
# [1, 1 + _CUT_ZERO*a] (keeps the wall stencils identically zero) and ramps
# back up over a band of width _CUT_WIDTH*a.  The ramp is a C^3 smoothstep so
# that third-derivative seminorms of the family converge under refinement,
# and the band is wide enough to stay resolved on the coarse sweep grids.
_CUT_ZERO = 1.5
_CUT_WIDTH = 3.0


def cut_profile(x):
    """C^3 ramp in collar units: 0 on [0, 1.5], 1 on [4.5, inf)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ConfigError("cut_profile expects nonnegative arguments", key="x")
    t = np.clip((arr - _CUT_ZERO) / _CUT_WIDTH, 0.0, 1.0)
    out = 35.0 * t ** 4 - 84.0 * t ** 5 + 70.0 * t ** 6 - 20.0 * t ** 7
    if np.isscalar(x):
        return float(out)
    return out


def check_alpha(alpha: float, key: str = "alpha") -> None:
    """The family, and every run built on it, takes alpha in (0, 0.5]."""
    if not 0.0 < alpha <= 0.5:
        raise ConfigError("alpha=%r outside (0, 0.5]" % (alpha,), key=key)


def make_initial(psi0: ScalarField, alpha: float) -> VectorField:
    """No-slip family member: perp-grad of the collar-cut stream."""
    check_alpha(alpha)
    g = psi0.grid
    scale = max(float(np.max(np.abs(psi0.values))), 1e-30)
    if float(np.max(np.abs(psi0.values[0]))) > TRACE_TOL * scale:
        raise ConfigError("psi0 must vanish on the ring", key="psi0")
    cut = cut_profile((g.r_nodes - 1.0) / alpha)
    u = perp_grad(times_profile(psi0, cut))
    return _retag(u, "no-slip")


@dataclass(frozen=True)
class HypothesisRow:
    alpha: float
    err0: float                  # |u0^a - u0| in L2
    dk_norms: tuple              # |D^k u0^a| for k = 1, 2, 3
    resolved: bool


@dataclass(frozen=True)
class HypothesisReport:
    rows: tuple
    e0_fit: RateFit
    dk_fits: dict                # k -> RateFit


def hypothesis_report(psi0: ScalarField, alphas) -> HypothesisReport:
    """Collar rates of the family: e0 vs alpha and |D^k u0^a| vs alpha."""
    avals = [float(a) for a in alphas]
    if len(avals) < 3:
        raise ConfigError("need at least 3 alpha values", key="alphas")
    check_geometric(avals, "alphas")
    g = psi0.grid
    u0 = perp_grad(psi0)
    rows = []
    for a in avals:
        ua = make_initial(psi0, a)
        rows.append(HypothesisRow(
            alpha=a,
            err0=norm_l2(difference(ua, u0)),
            dk_norms=seminorms_hk(ua, 3),
            resolved=collar_resolved(g, a)))
    fitted = [r for r in rows if r.resolved]
    xs = [r.alpha for r in fitted]
    e0_fit = fit_rate(xs, [r.err0 for r in fitted])
    dk_fits = {k: fit_rate(xs, [r.dk_norms[k - 1] for r in fitted])
               for k in (1, 2, 3)}
    return HypothesisReport(rows=tuple(rows), e0_fit=e0_fit, dk_fits=dk_fits)
