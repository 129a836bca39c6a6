"""Truncated exterior-of-disk geometry in log-polar coordinates.

The obstacle is the closed unit disk.  Radial nodes are uniform in s = ln r
on [0, ln r_max], so resolution concentrates near the boundary ring r = 1
and the Laplacian separates per angular Fourier mode.  Quadrature integrates
the piecewise-linear interpolant in s against the exact Jacobian e^{2s},
which makes the total weight equal the annulus area pi (r_max^2 - 1) to
roundoff rather than to O(ds^2).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError


# Node-count cap: the block factor of the elliptic solves and every field
# scale with n_r * n_theta, and 2**24 nodes already hold 128 MB per field.
MAX_NODES = 2 ** 24


@dataclass(frozen=True)
class GridSpec:
    """Resolution and truncation radius for the annulus 1 <= r <= r_max."""

    n_r: int
    n_theta: int = 128
    r_max: float = 8.0

    def __post_init__(self):
        if self.n_r < 8:
            raise GridError("n_r=%r is below the minimum of 8" % (self.n_r,),
                            key="n_r")
        if self.n_theta % 2 != 0 or self.n_theta < 8:
            raise GridError(
                "n_theta=%r must be even and at least 8" % (self.n_theta,),
                key="n_theta")
        if self.n_r * self.n_theta > MAX_NODES:
            raise GridError("n_r * n_theta = %d nodes exceeds the cap of %d"
                            % (self.n_r * self.n_theta, MAX_NODES), key="n_r")
        if not self.r_max > 1.0:
            raise GridError("r_max=%r must exceed 1" % (self.r_max,),
                            key="r_max")

    @property
    def ds(self) -> float:
        """Radial node spacing in s = ln r."""
        return math.log(self.r_max) / (self.n_r - 1)


@dataclass(frozen=True, eq=False)
class ExteriorGrid:
    """Nodes and quadrature weights; immutable once built."""

    spec: GridSpec
    s_nodes: np.ndarray      # (n_r,), uniform on [0, ln r_max]
    theta_nodes: np.ndarray  # (n_theta,), uniform on [0, 2*pi)
    r_nodes: np.ndarray      # (n_r,), e^s with exact endpoints
    weights: np.ndarray      # (n_r, n_theta), sum = annulus area

    # The elliptic module caches one (matrix, LU) pair here per
    # (kind, alpha): one block-diagonal factor for a prefix of the modes.
    solver_cache: dict = field(default_factory=dict, repr=False)
    cache_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False)

    @property
    def ds(self) -> float:
        return self.spec.ds

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.spec.n_theta


def _hat_weights(s_nodes: np.ndarray) -> np.ndarray:
    """Nodal weights for int f e^{2s} ds with f piecewise linear in s.

    Per cell [s_i, s_i + h] the integral of e^{2s} against the two hat
    functions has the closed forms below; summing both returns the exact
    cell mass (e^{2 s_{i+1}} - e^{2 s_i}) / 2, so the total telescopes to
    the exact annulus area.
    """
    h = s_nodes[1] - s_nodes[0]
    em1 = math.expm1(2.0 * h)
    right = 0.5 * math.exp(2.0 * h) - em1 / (4.0 * h)
    left = 0.5 * em1 - right

    e2s = np.exp(2.0 * s_nodes[:-1])
    w = np.zeros_like(s_nodes)
    w[:-1] += left * e2s
    w[1:] += right * e2s
    return w


def build_grid(spec: GridSpec) -> ExteriorGrid:
    """Construct the grid; identical specs yield bit-identical grids."""
    s_max = math.log(spec.r_max)
    s_nodes = np.linspace(0.0, s_max, spec.n_r)
    r_nodes = np.exp(s_nodes)
    r_nodes[0] = 1.0
    r_nodes[-1] = spec.r_max

    theta_nodes = np.linspace(0.0, 2.0 * math.pi, spec.n_theta,
                              endpoint=False)

    radial = _hat_weights(s_nodes)
    weights = np.outer(radial, np.full(spec.n_theta, 2.0 * math.pi / spec.n_theta))

    for arr in (s_nodes, theta_nodes, r_nodes, weights):
        arr.flags.writeable = False
    return ExteriorGrid(spec=spec, s_nodes=s_nodes, theta_nodes=theta_nodes,
                        r_nodes=r_nodes, weights=weights)


def tail_weights(grid: ExteriorGrid) -> np.ndarray:
    """Quadrature weights of the outer 10 percent of radii, zero inside.

    Every tail-mass guard integrates against these: vorticity or stream
    mass there sits too close to the truncated far-field closure.
    """
    return grid.weights * (grid.r_nodes[:, None] > 0.9 * grid.spec.r_max)
