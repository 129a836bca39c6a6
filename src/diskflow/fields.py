"""Fields on the exterior grid and log-polar differential operators.

Angular derivatives are spectral (real FFT, exact for resolved modes, the
odd-derivative Nyquist coefficient dropped); an array whose every row is
finite and holds one value (radial data) gets exact zeros with no transform.
Radial derivatives are 2nd-order centered differences in s = ln r with
one-sided 2nd-order closures at r = 1 and r = r_max.  Norms use the grid
quadrature.  H^k seminorms apply k nested first-derivative stencils
[d/dr, (1/r) d/dtheta] to every component, trading sharp constants for code
reuse; scaling exponents are what the harness needs.

Fields are immutable: constructors copy and freeze a caller's writeable
array, operators are pure functions returning new fields.  An operator marks
the arrays it has just computed read-only before wrapping them, so the
constructor keeps them without a copy; the finiteness check still runs.
The derivative kernels, the scalar operators, grad_tensor and the norms
build each result in place: the first operation of an expression
allocates the result and the rest write into it with out=, *= and +=.
Every IEEE operation and its operand order are kept (only a*b -> b*a and
a+b -> b+a are swapped), so the values are those of the plain
expressions bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BoundaryTagError, ConfigError, NonFiniteFieldError
from .grid import ExteriorGrid


def _owned(values, shape):
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != shape:
        raise ValueError("field shape %r does not match grid %r"
                         % (vals.shape, shape))
    if not np.isfinite(vals).all():
        raise NonFiniteFieldError("field contains NaN or Inf")
    if vals.flags.writeable:
        vals = vals.copy()
        vals.flags.writeable = False
    return vals


def _fresh(a: np.ndarray) -> np.ndarray:
    """a marked read-only: a result no one else holds, kept without a copy."""
    a.flags.writeable = False
    return a


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
    tag='non-penetration' asserts u_r alone vanishes there.  "Vanish" means
    below _RING_TOL times the largest component, or times 1 for fields no
    larger than that: solver roundoff on the ring scales with the field.
    A violated tag raises BoundaryTagError, a ValueError.
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
            if self._off_ring(worst):
                raise BoundaryTagError("no-slip tag violated on the boundary "
                                       "ring: max |u| = %.3e" % worst)
        elif tag == "non-penetration":
            worst = np.abs(self.u_r[0]).max()
            if self._off_ring(worst):
                raise BoundaryTagError("non-penetration tag violated: "
                                       "max |u_r| = %.3e" % worst)
        elif tag is not None:
            raise ValueError("unknown tag %r" % (tag,))

    def _off_ring(self, worst: float) -> bool:
        tol = self._RING_TOL
        # the first test spares the whole-field scan in the common case
        return worst > tol and worst > tol * max(
            1.0, np.abs(self.u_r).max(), np.abs(self.u_theta).max())

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")


# ---------------------------------------------------------------------------
# derivative kernels on raw (n_r, n_theta) arrays

def _ds(a: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(a)
    mid = out[1:-1]
    np.subtract(a[2:], a[:-2], out=mid)
    mid /= 2.0 * h
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return out


def _dss(a: np.ndarray, h: float) -> np.ndarray:
    h2 = h * h
    out = np.empty_like(a)
    mid = out[1:-1]
    np.multiply(a[1:-1], 2.0, out=mid)
    np.subtract(a[2:], mid, out=mid)
    mid += a[:-2]
    mid /= h2
    out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h2
    out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h2
    return out


def _theta_constant(a: np.ndarray) -> bool:
    """True when every row of a is finite and holds one value.

    One middle column is compared with column 0 first, so an array that
    varies in angle is usually rejected without a whole-array scan.  Float
    ==, so NaN rows fail it; Inf rows fail the finite check.
    """
    first = a[:, 0]
    if not (a[:, a.shape[1] // 2] == first).all():
        return False
    return bool((a == first[:, None]).all() and np.isfinite(first).all())


def _dtheta(a: np.ndarray) -> np.ndarray:
    if _theta_constant(a):
        return np.zeros_like(a)
    n = a.shape[1]
    coeff = np.fft.rfft(a, axis=1)
    k = np.arange(n // 2 + 1)
    coeff *= 1j * k
    coeff[:, -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(coeff, n=n, axis=1)


def _dtheta2(a: np.ndarray) -> np.ndarray:
    if _theta_constant(a):
        return np.zeros_like(a)
    n = a.shape[1]
    coeff = np.fft.rfft(a, axis=1)
    k = np.arange(n // 2 + 1)
    coeff *= -(k.astype(np.float64) ** 2)
    return np.fft.irfft(coeff, n=n, axis=1)


def _inv_r(grid: ExteriorGrid) -> np.ndarray:
    return (1.0 / grid.r_nodes)[:, None]


def _dr(a: np.ndarray, grid: ExteriorGrid) -> np.ndarray:
    # d/dr = e^{-s} d/ds
    out = _ds(a, grid.ds)
    out *= _inv_r(grid)
    return out


# ---------------------------------------------------------------------------
# operators

def perp_grad(psi: ScalarField) -> VectorField:
    """u = (-(1/r) dtheta psi, dr psi), the rotated gradient."""
    g = psi.grid
    u_r = _dtheta(psi.values)
    u_r *= -_inv_r(g)
    u_theta = _dr(psi.values, g)
    return VectorField(g, _fresh(u_r), _fresh(u_theta))


def curl_perp(u: VectorField) -> ScalarField:
    """Scalar vorticity w = (1/r)(dr(r u_theta) - dtheta u_r)."""
    g = u.grid
    inv_r = _inv_r(g)
    # (1/r) d_r(r u_theta) = e^{-2s} d_s(e^s u_theta)
    w = _ds(g.r_nodes[:, None] * u.u_theta, g.ds)
    w *= inv_r
    w -= _dtheta(u.u_r)
    w *= inv_r
    return ScalarField(g, _fresh(w))


def laplacian(f: ScalarField) -> ScalarField:
    """e^{-2s} (d_ss + d_thetatheta) f."""
    g = f.grid
    vals = _dss(f.values, g.ds)
    vals += _dtheta2(f.values)
    vals *= _inv_r(g) ** 2
    return ScalarField(g, _fresh(vals))


def advect(u: VectorField, q: ScalarField) -> ScalarField:
    """u . grad q = u_r dr q + (u_theta / r) dtheta q."""
    if u.grid is not q.grid:
        raise ValueError("advect requires fields on the same grid")
    g = q.grid
    vals = _dr(q.values, g)
    vals *= u.u_r
    ang = u.u_theta * _inv_r(g)
    ang *= _dtheta(q.values)
    vals += ang
    return ScalarField(g, _fresh(vals))


def _components(f) -> list:
    if isinstance(f, ScalarField):
        return [f.values]
    if isinstance(f, VectorField):
        return [f.u_r, f.u_theta]
    raise TypeError("expected ScalarField or VectorField, got %r" % type(f))


def _weighted_sum(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """float(np.sum(w * a * b)) with one temporary."""
    t = w * a
    t *= b
    return float(np.sum(t))


def norm_l2(f) -> float:
    """sqrt of the quadrature sum of squares over all components."""
    g = f.grid
    total = 0.0
    for c in _components(f):
        total += _weighted_sum(g.weights, c, c)
    return float(np.sqrt(total))


def inner_l2(f, g_field) -> float:
    """Quadrature inner product; components paired positionally."""
    if f.grid is not g_field.grid:
        raise ValueError("inner_l2 requires fields on the same grid")
    w = f.grid.weights
    total = 0.0
    for a, b in zip(_components(f), _components(g_field), strict=True):
        total += _weighted_sum(w, a, b)
    return float(total)


def seminorms_hk(f, k_max: int) -> tuple:
    """The seminorms of orders 1..k_max of f from one nested pass.

    Order k applies k nested [d/dr, (1/r) d/dtheta] to every component;
    each level is summed as it is reached, so the derivatives of level k
    are taken once for all orders above it.

    A theta-constant component (see _theta_constant) skips its d/dtheta
    branch and every derivative of it: they are exact zeros, which add
    +0.0 to a non-negative sum.  Its d/dr is theta-constant bit for bit, so
    it keeps the flag while finite, and an all-zero one is dropped.  The
    sums are those of every word of derivatives, bit for bit.
    """
    if k_max not in (1, 2, 3):
        raise ConfigError("seminorm order k=%r outside 1..3" % (k_max,),
                          key="k")
    g = f.grid
    inv_r = _inv_r(g)
    comps = []                        # (array, theta-constant) pairs
    for c in _components(f):
        const = _theta_constant(c)
        if not const or c[:, 0].any():
            comps.append((c, const))
    norms = []
    for _ in range(k_max):
        nxt = []
        for c, const in comps:
            d = _dr(c, g)
            nxt.append((d, const and bool(np.isfinite(d[:, 0]).all())))
            if not const:
                d = _dtheta(c)
                d *= inv_r
                nxt.append((d, False))
        comps = nxt
        total = 0.0
        for c, _ in comps:
            total += _weighted_sum(g.weights, c, c)
        norms.append(float(np.sqrt(total)))
    return tuple(norms)


def seminorm_hk(f, k: int) -> float:
    """k nested applications of [d/dr, (1/r) d/dtheta] to every component."""
    return seminorms_hk(f, k)[-1]


def grad_norm_l2(u: VectorField) -> float:
    """sqrt int |grad u|^2 with the exact polar gradient tensor.

    Unlike seminorm_hk this includes the curvature terms, so the energy
    identity holds with the same constant as in Cartesian coordinates.
    """
    g = u.grid
    total = 0.0
    for c in grad_tensor(u):
        total += _weighted_sum(g.weights, c, c)
    return float(np.sqrt(total))


def grad_tensor(u: VectorField) -> tuple:
    """Physical polar components (rr, rtheta, thetar, thetatheta) of grad u.

    First index is the direction of differentiation.
    """
    g = u.grid
    inv_r = _inv_r(g)
    t_rr = _dr(u.u_r, g)
    t_rt = _dr(u.u_theta, g)
    t_tr = _dtheta(u.u_r)
    t_tr *= inv_r
    t_tr -= inv_r * u.u_theta
    t_tt = _dtheta(u.u_theta)
    t_tt *= inv_r
    t_tt += inv_r * u.u_r
    return (t_rr, t_rt, t_tr, t_tt)


def vector_laplacian(u: VectorField) -> VectorField:
    """Componentwise Laplacian with the polar coupling terms."""
    g = u.grid
    inv_r2 = _inv_r(g) ** 2
    lap_r = laplacian(ScalarField(g, u.u_r)).values \
        - inv_r2 * u.u_r - 2.0 * inv_r2 * _dtheta(u.u_theta)
    lap_t = laplacian(ScalarField(g, u.u_theta)).values \
        - inv_r2 * u.u_theta + 2.0 * inv_r2 * _dtheta(u.u_r)
    return VectorField(g, _fresh(lap_r), _fresh(lap_t))


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
    return VectorField(g, _fresh(conv_r), _fresh(conv_t))


def grad_transpose_apply(u: VectorField, a: VectorField) -> VectorField:
    """(grad u)^T a in physical polar components."""
    if u.grid is not a.grid:
        raise ValueError("grad_transpose_apply requires fields on the same grid")
    t_rr, t_rt, t_tr, t_tt = grad_tensor(u)
    out_r = t_rr * a.u_r + t_rt * a.u_theta
    out_t = t_tr * a.u_r + t_tt * a.u_theta
    return VectorField(u.grid, _fresh(out_r), _fresh(out_t))


# ---------------------------------------------------------------------------
# snapshot files

def snapshot_meta(grid: ExteriorGrid, time: float, alpha: float, nu: float) -> dict:
    return {"n_r": grid.spec.n_r, "n_theta": grid.spec.n_theta,
            "r_max": grid.spec.r_max, "time": time, "alpha": alpha, "nu": nu}


def _write_csv_body(fh, values: np.ndarray):
    """Writes exactly what np.savetxt(fh, values, fmt="%.17g", delimiter=",")
    writes, formatting a row that holds one bit pattern (a θ-constant row)
    once.  Bits, not float ==, so a row of -0.0 and 0.0 keeps both signs.
    """
    n_theta = values.shape[1]
    row_fmt = ",".join(["%.17g"] * n_theta) + "\n"
    bits = values.view(np.int64)
    constant = (bits == bits[:, :1]).all(axis=1).tolist()
    lines = []
    for row, const in zip(values, constant):
        if const:
            lines.append(",".join(["%.17g" % row[0]] * n_theta) + "\n")
        else:
            lines.append(row_fmt % tuple(row.tolist()))
    fh.write("".join(lines))


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
            _write_csv_body(fh, f.values)
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
                              delimiter=",", ndmin=2)
            if vals.shape != shape:
                raise ValueError("body of %d x %d values, header says %d x %d"
                                 % (vals.shape + shape))
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
