"""Fields on the exterior grid and log-polar differential operators.

Angular derivatives are spectral (real FFT, exact for resolved modes, the
odd-derivative Nyquist coefficient dropped); radial derivatives are 2nd-order
centered differences in s = ln r with one-sided 2nd-order closures at r = 1
and r = r_max.  Norms use the grid quadrature.  H^k seminorms apply k nested
first-derivative stencils [d/dr, (1/r) d/dtheta] to every component, trading
sharp constants for code reuse; scaling exponents are what the harness needs.

Fields are immutable: constructors copy and freeze their arrays, operators
are pure functions returning new fields.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .grid import ExteriorGrid


def _owned(values, shape):
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != shape:
        raise ValueError("field shape %r does not match grid %r"
                         % (vals.shape, shape))
    if not np.isfinite(vals).all():
        raise ValueError("field contains NaN or Inf")
    if vals.flags.writeable:
        vals = vals.copy()
        vals.flags.writeable = False
    return vals


class ScalarField:
    """A scalar sample on every grid node."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: ExteriorGrid, values):
        shape = (grid.spec.n_r, grid.spec.n_theta)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _owned(values, shape))

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")


class VectorField:
    """Polar velocity components (u_r, u_theta) on every grid node.

    tag='no-slip' asserts both components vanish on the r=1 ring,
    tag='non-penetration' asserts u_r alone vanishes there.
    """

    __slots__ = ("grid", "u_r", "u_theta", "tag")

    _RING_TOL = 1e-12

    def __init__(self, grid: ExteriorGrid, u_r, u_theta, tag=None):
        shape = (grid.spec.n_r, grid.spec.n_theta)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "u_r", _owned(u_r, shape))
        object.__setattr__(self, "u_theta", _owned(u_theta, shape))
        object.__setattr__(self, "tag", tag)
        if tag == "no-slip":
            worst = max(np.abs(self.u_r[0]).max(),
                        np.abs(self.u_theta[0]).max())
            if worst > self._RING_TOL:
                raise ValueError("no-slip tag violated on the boundary ring: "
                                 "max |u| = %.3e" % worst)
        elif tag == "non-penetration":
            worst = np.abs(self.u_r[0]).max()
            if worst > self._RING_TOL:
                raise ValueError("non-penetration tag violated: "
                                 "max |u_r| = %.3e" % worst)
        elif tag is not None:
            raise ValueError("unknown tag %r" % (tag,))

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")


# ---------------------------------------------------------------------------
# derivative kernels on raw (n_r, n_theta) arrays

def _ds(a: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return out


def _dss(a: np.ndarray, h: float) -> np.ndarray:
    h2 = h * h
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h2
    out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h2
    out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h2
    return out


def _dtheta(a: np.ndarray) -> np.ndarray:
    n = a.shape[1]
    coeff = np.fft.rfft(a, axis=1)
    k = np.arange(n // 2 + 1)
    coeff *= 1j * k
    coeff[:, -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(coeff, n=n, axis=1)


def _dtheta2(a: np.ndarray) -> np.ndarray:
    n = a.shape[1]
    coeff = np.fft.rfft(a, axis=1)
    k = np.arange(n // 2 + 1)
    coeff *= -(k.astype(np.float64) ** 2)
    return np.fft.irfft(coeff, n=n, axis=1)


def _inv_r(grid: ExteriorGrid) -> np.ndarray:
    return (1.0 / grid.r_nodes)[:, None]


def _dr(a: np.ndarray, grid: ExteriorGrid) -> np.ndarray:
    # d/dr = e^{-s} d/ds
    return _inv_r(grid) * _ds(a, grid.ds)


# ---------------------------------------------------------------------------
# operators

def perp_grad(psi: ScalarField) -> VectorField:
    """u = (-(1/r) dtheta psi, dr psi), the rotated gradient."""
    g = psi.grid
    u_r = -_inv_r(g) * _dtheta(psi.values)
    u_theta = _dr(psi.values, g)
    return VectorField(g, u_r, u_theta)


def curl_perp(u: VectorField) -> ScalarField:
    """Scalar vorticity w = (1/r)(dr(r u_theta) - dtheta u_r)."""
    g = u.grid
    inv_r = _inv_r(g)
    # (1/r) d_r(r u_theta) = e^{-2s} d_s(e^s u_theta)
    w = inv_r * (inv_r * _ds(g.r_nodes[:, None] * u.u_theta, g.ds)
                 - _dtheta(u.u_r))
    return ScalarField(g, w)


def laplacian(f: ScalarField) -> ScalarField:
    """e^{-2s} (d_ss + d_thetatheta) f."""
    g = f.grid
    vals = _inv_r(g) ** 2 * (_dss(f.values, g.ds) + _dtheta2(f.values))
    return ScalarField(g, vals)


def advect(u: VectorField, q: ScalarField) -> ScalarField:
    """u . grad q = u_r dr q + (u_theta / r) dtheta q."""
    if u.grid is not q.grid:
        raise ValueError("advect requires fields on the same grid")
    g = q.grid
    vals = u.u_r * _dr(q.values, g) + u.u_theta * _inv_r(g) * _dtheta(q.values)
    return ScalarField(g, vals)


def _components(f) -> list:
    if isinstance(f, ScalarField):
        return [f.values]
    if isinstance(f, VectorField):
        return [f.u_r, f.u_theta]
    raise TypeError("expected ScalarField or VectorField, got %r" % type(f))


def norm_l2(f) -> float:
    """sqrt of the quadrature sum of squares over all components."""
    g = f.grid
    total = 0.0
    for c in _components(f):
        total += float(np.sum(g.weights * c * c))
    return float(np.sqrt(total))


def inner_l2(f, g_field) -> float:
    """Quadrature inner product; components paired positionally."""
    if f.grid is not g_field.grid:
        raise ValueError("inner_l2 requires fields on the same grid")
    w = f.grid.weights
    total = 0.0
    for a, b in zip(_components(f), _components(g_field), strict=True):
        total += float(np.sum(w * a * b))
    return float(total)


def seminorm_hk(f, k: int) -> float:
    """k nested applications of [d/dr, (1/r) d/dtheta] to every component."""
    if k not in (1, 2, 3):
        raise ConfigError("seminorm order k=%r outside 1..3" % (k,), key="k")
    g = f.grid
    comps = _components(f)
    for _ in range(k):
        nxt = []
        for c in comps:
            nxt.append(_dr(c, g))
            nxt.append(_inv_r(g) * _dtheta(c))
        comps = nxt
    total = 0.0
    for c in comps:
        total += float(np.sum(g.weights * c * c))
    return float(np.sqrt(total))


def grad_norm_l2(u: VectorField) -> float:
    """sqrt int |grad u|^2 with the exact polar gradient tensor.

    Unlike seminorm_hk this includes the curvature terms, so the energy
    identity holds with the same constant as in Cartesian coordinates.
    """
    g = u.grid
    t = grad_tensor(u)
    total = 0.0
    for c in t:
        total += float(np.sum(g.weights * c * c))
    return float(np.sqrt(total))


def grad_tensor(u: VectorField) -> tuple:
    """Physical polar components (rr, rtheta, thetar, thetatheta) of grad u.

    First index is the direction of differentiation.
    """
    g = u.grid
    inv_r = _inv_r(g)
    t_rr = _dr(u.u_r, g)
    t_rt = _dr(u.u_theta, g)
    t_tr = inv_r * _dtheta(u.u_r) - inv_r * u.u_theta
    t_tt = inv_r * _dtheta(u.u_theta) + inv_r * u.u_r
    return (t_rr, t_rt, t_tr, t_tt)


def vector_laplacian(u: VectorField) -> VectorField:
    """Componentwise Laplacian with the polar coupling terms."""
    g = u.grid
    inv_r2 = _inv_r(g) ** 2
    lap_r = laplacian(ScalarField(g, u.u_r)).values \
        - inv_r2 * u.u_r - 2.0 * inv_r2 * _dtheta(u.u_theta)
    lap_t = laplacian(ScalarField(g, u.u_theta)).values \
        - inv_r2 * u.u_theta + 2.0 * inv_r2 * _dtheta(u.u_r)
    return VectorField(g, lap_r, lap_t)


def advect_vector(u: VectorField, a: VectorField) -> VectorField:
    """(u . grad) a with the polar Christoffel terms."""
    if u.grid is not a.grid:
        raise ValueError("advect_vector requires fields on the same grid")
    g = u.grid
    inv_r = _inv_r(g)
    conv_r = u.u_r * _dr(a.u_r, g) + u.u_theta * inv_r * _dtheta(a.u_r) \
        - u.u_theta * a.u_theta * inv_r
    conv_t = u.u_r * _dr(a.u_theta, g) + u.u_theta * inv_r * _dtheta(a.u_theta) \
        + u.u_theta * a.u_r * inv_r
    return VectorField(g, conv_r, conv_t)


def grad_transpose_apply(u: VectorField, a: VectorField) -> VectorField:
    """(grad u)^T a in physical polar components."""
    if u.grid is not a.grid:
        raise ValueError("grad_transpose_apply requires fields on the same grid")
    t_rr, t_rt, t_tr, t_tt = grad_tensor(u)
    out_r = t_rr * a.u_r + t_rt * a.u_theta
    out_t = t_tr * a.u_r + t_tt * a.u_theta
    return VectorField(u.grid, out_r, out_t)


# ---------------------------------------------------------------------------
# snapshot files

def snapshot_meta(grid: ExteriorGrid, time: float, alpha: float, nu: float) -> dict:
    return {"n_r": grid.spec.n_r, "n_theta": grid.spec.n_theta,
            "r_max": grid.spec.r_max, "time": time, "alpha": alpha, "nu": nu}


def write_snapshot(f: ScalarField, path, *, time, alpha, nu, fmt="csv"):
    """One JSON header line, then the values, one row per radial node.

    Binary files name their format in the header; a header without a
    format is CSV, so CSV files look as they always did.
    """
    meta = snapshot_meta(f.grid, time, alpha, nu)
    if fmt == "binary":
        meta["format"] = "binary"
    header = json.dumps(meta)
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, f.values, fmt="%.17g", delimiter=",")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write((header + "\n").encode("ascii"))
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    else:
        raise ConfigError("snapshot format %r not in {'csv', 'binary'}" % (fmt,),
                          key="snapshot_format")


def read_snapshot(path, grid: ExteriorGrid | None = None):
    """Returns (values, meta); wraps into a ScalarField when grid is given.

    A file that cannot be read as a snapshot is a ConfigError.
    """
    try:
        with open(path, "rb") as fh:
            meta = json.loads(fh.readline().decode("ascii"))
            rest = fh.read()
        shape = (int(meta["n_r"]), int(meta["n_theta"]))
        fmt = meta.get("format", "csv")
        if fmt == "binary":
            vals = np.frombuffer(rest, dtype="<f8").reshape(shape).copy()
        elif fmt == "csv":
            vals = np.loadtxt(rest.decode("ascii").splitlines(),
                              delimiter=",").reshape(shape)
        else:
            raise ValueError("unknown format %r" % (fmt,))
    except (OSError, ValueError, OverflowError, KeyError, TypeError) as exc:
        raise ConfigError("cannot read snapshot %r: %s" % (str(path), exc),
                          key="snapshot") from exc
    if not np.isfinite(vals).all():
        raise ConfigError("snapshot %r holds non-finite values" % (str(path),),
                          key="snapshot")
    if grid is None:
        return vals, meta
    if (grid.spec.n_r, grid.spec.n_theta) != shape \
            or grid.spec.r_max != meta.get("r_max"):
        raise ConfigError("snapshot grid %r does not match the target grid"
                          % (meta,), key="snapshot")
    return ScalarField(grid, vals), meta
