"""Least-squares power-law fits y ~ K x^slope on log-log axes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateFitError


@dataclass(frozen=True)
class RateFit:
    slope: float
    constant: float          # K in y = K * x**slope
    residual: float          # max absolute log-space deviation
    points: tuple            # ((x, y), ...) as fitted

    def evaluate(self, x):
        return self.constant * np.asarray(x, dtype=float) ** self.slope


def check_geometric(values, key: str) -> None:
    """Reject a sweep whose log-steps stray from the first by 1e-6 of it."""
    steps = np.diff(np.log(values))
    if steps.size > 1 and \
            np.max(np.abs(steps - steps[0])) > 1e-6 * abs(steps[0]):
        raise ConfigError("%s must form a geometric sweep" % key, key=key)


def fit_rate(xs, ys) -> RateFit:
    """Fit a power law through (xs, ys); both must be positive."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("fit_rate needs two 1-d sequences of equal length",
                          key="points")
    if x.size < 3:
        raise DegenerateFitError("need at least 3 points for a rate fit, "
                                 "got %d" % x.size)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateFitError("rate fit received non-finite values")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DegenerateFitError("rate fit requires positive x and y; "
                                 "a vanishing quantity has no slope")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0.0:
        raise DegenerateFitError("all abscissae coincide")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return RateFit(slope=float(slope),
                   constant=float(np.exp(intercept)),
                   residual=float(np.max(np.abs(resid))),
                   points=tuple(zip(x.tolist(), y.tolist())))
