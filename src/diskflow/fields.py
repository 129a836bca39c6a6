"""Fields on the exterior grid and log-polar differential operators.

Angular derivatives are spectral (real FFT, exact for resolved modes, the
odd-derivative Nyquist coefficient dropped).  For an (n_r, 1) column (see
below: radial data) the derivative is +0.0 everywhere; _dtheta and
_dtheta2 then return None, with no transform and no array, and each
caller applies what multiplying by or adding that +0.0 does to its other
operand: a product with a finite factor keeps the factor's sign
(x * 0.0), x - (+0.0) is x, and x + (+0.0) turns -0.0 into +0.0
(x + 0.0).
Radial derivatives are 2nd-order centered differences in s = ln r with
one-sided 2nd-order closures at r = 1 and r = r_max.  Norms use the grid
quadrature.  H^k seminorms apply k nested first-derivative stencils
[d/dr, (1/r) d/dtheta] to every component, trading sharp constants for code
reuse; scaling exponents are what the harness needs.

Fields are immutable: constructors copy and freeze a caller's array
unless it is read-only and owns its data, operators are pure functions
returning new fields.  An operator marks the arrays it has just computed
read-only before wrapping them, so they are kept without a copy.
The derivative kernels, the scalar and vector operators and the norms
build each result in place: the first operation of an expression
allocates the result and the rest write into it with out=, *= and +=.
Every IEEE operation and its operand order are kept (only a*b -> b*a and
a+b -> b+a are swapped), so the values are those of the plain
expressions bit for bit.

An array whose rows are finite and each hold one bit pattern (a
theta-constant array) is held as its (n_r, 1) column, and that column is
the only record of theta-constancy.  A field keeps one array per
component, its column or its full array, decided once when the field is
built: a caller's array and a full-size operator result are scanned then
with _bit_column.  The public values, u_r and u_theta are read-only and
of full shape: the full array, or an np.broadcast_to view of the column
built when the attribute is read.  An operator whose input arrays are all
columns runs its kernels on the columns (_inv_r is (n_r, 1) too), so its
results are columns and every node gets the bits it would get at full
size.  Otherwise it runs on full-size arrays.  Below _operands an
input is theta-constant exactly when it is (n_r, 1), so every full-size
array goes through the transforms, which give zeros (up to the sign of a
zero) on rows of one bit pattern when n_theta is 2^a 3^b and the row's
mode-0 sum is finite, and roundoff otherwise.  A row that mixes 0.0 and
-0.0 is not held.  Whole-array sums are taken over a contiguous full-size
array, because numpy sums a broadcast view in another order.
_weighted_sum and weighted_total form a product of columns on the
columns, with column 0 of the weights, and spread it into one contiguous
array for the sum; that array has the bits of the full-size product
because every weights array the package passes (grid.weights, its
interior rows grid.weights[1:-1] and tail_weights) holds one bit pattern
per row.  Other modules combine, sum and bound field values only through
lincomb, times_profile, weighted_total and transit_time, and the elliptic
solves take a right-hand side's column through _column, so only this
module reads columns.
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
    # a read-only view may still change through its base, and with it the
    # values under a kept column
    if vals.flags.writeable or vals.base is not None:
        vals = vals.copy()
        vals.flags.writeable = False
    return vals


def _bit_column(a: np.ndarray) -> np.ndarray | None:
    """A read-only copy of column 0 of a when every row of a is finite and
    holds one bit pattern, else None.

    One middle column is compared with column 0 first, by float ==, which
    no finite row of one bit pattern fails, so an array that varies in
    angle is usually rejected without a whole-array scan.  Then bits, so a
    row of 0.0 and -0.0 fails; a NaN or Inf row fails the finite check.
    """
    if not (a[:, a.shape[1] // 2] == a[:, 0]).all():
        return None
    bits = a.view(np.int64)
    if not (bits == bits[:, :1]).all() or not np.isfinite(a[:, 0]).all():
        return None
    col = a[:, :1].copy()
    col.flags.writeable = False
    return col


def _kept(a: np.ndarray) -> np.ndarray:
    """What a field keeps for its read-only array a: a's column when a is
    one already or _bit_column finds one, else a."""
    if a.shape[1] == 1:
        return a
    col = _bit_column(a)
    return a if col is None else col


def _result(a: np.ndarray) -> np.ndarray:
    """What a field keeps for the fresh result a, a full array or a column,
    which no one else holds and which is marked read-only without a copy;
    NonFiniteFieldError unless a is finite."""
    a.flags.writeable = False
    if not np.isfinite(a).all():
        raise NonFiniteFieldError("field contains NaN or Inf")
    return _kept(a)


def _full(grid: ExteriorGrid, a: np.ndarray) -> np.ndarray:
    """The kept array a at full size: a itself, or a read-only view of the
    column a."""
    if a.shape[1] != 1:
        return a
    return np.broadcast_to(a, (grid.spec.n_r, grid.spec.n_theta))


def _public(i: int) -> property:
    """The public attribute of component i: its array at full size."""
    return property(lambda f: _full(f.grid, f._arrs[i]))


def _column(f, i: int = 0) -> np.ndarray | None:
    """The (n_r, 1) column that component i of f is kept as, or None when
    f keeps it at full size."""
    a = f._arrs[i]
    return a if a.shape[1] == 1 else None


def _operands(*fs) -> list:
    """The arrays an operator takes for the components of the fields fs, in
    order: the kept columns when every component is a column, else the
    full-size arrays."""
    arrs = [a for f in fs for a in f._arrs]
    if all(a.shape[1] == 1 for a in arrs):
        return arrs
    return [_full(f.grid, a) for f in fs for a in f._arrs]


def _scalar(grid: ExteriorGrid, values: np.ndarray):
    """ScalarField of the fresh result values, a full array or a column."""
    f = object.__new__(ScalarField)
    f._set(grid, (_result(values),))
    return f


def _vector(grid: ExteriorGrid, u_r: np.ndarray, u_theta: np.ndarray):
    """Untagged VectorField of fresh results, each a full array or a
    column."""
    u = object.__new__(VectorField)
    u._set(grid, (_result(u_r), _result(u_theta)), None)
    return u


def _retag(u, tag: str):
    """u's kept arrays under boundary tag, which is checked."""
    v = object.__new__(VectorField)
    v._set(u.grid, u._arrs, tag)
    return v


class ScalarField:
    """A scalar sample on every grid node."""

    __slots__ = ("grid", "_arrs")
    values = _public(0)

    def __init__(self, grid: ExteriorGrid, values):
        shape = (grid.spec.n_r, grid.spec.n_theta)
        self._set(grid, (_kept(_owned(values, shape)),))

    def _set(self, grid, arrs):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_arrs", arrs)

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

    __slots__ = ("grid", "tag", "_arrs")
    u_r, u_theta = _public(0), _public(1)

    _RING_TOL = 1e-12

    def __init__(self, grid: ExteriorGrid, u_r, u_theta, tag=None):
        shape = (grid.spec.n_r, grid.spec.n_theta)
        self._set(grid, (_kept(_owned(u_r, shape)),
                         _kept(_owned(u_theta, shape))), tag)

    def _set(self, grid, arrs, tag):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_arrs", arrs)
        # row 0 of a column has the largest |value| of row 0 at full size
        if tag == "no-slip":
            worst = max(np.abs(a[0]).max() for a in arrs)
            if self._off_ring(worst):
                raise BoundaryTagError("no-slip tag violated on the boundary "
                                       "ring: max |u| = %.3e" % worst)
        elif tag == "non-penetration":
            worst = np.abs(arrs[0][0]).max()
            if self._off_ring(worst):
                raise BoundaryTagError("non-penetration tag violated: "
                                       "max |u_r| = %.3e" % worst)
        elif tag is not None:
            raise ValueError("unknown tag %r" % (tag,))

    def _off_ring(self, worst: float) -> bool:
        tol = self._RING_TOL
        # the first test spares the whole-field scan in the common case
        return worst > tol and worst > tol * max(
            1.0, *(np.abs(a).max() for a in self._arrs))

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")


# ---------------------------------------------------------------------------
# derivative kernels on raw (n_r, n_theta) arrays or (n_r, 1) columns

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


def _dtheta(a: np.ndarray) -> np.ndarray | None:
    """d/dtheta of a, or None for an (n_r, 1) column: that derivative is
    +0.0 at every node, which callers apply without an array."""
    if a.shape[1] == 1:
        return None
    n = a.shape[1]
    coeff = np.fft.rfft(a, axis=1)
    k = np.arange(n // 2 + 1)
    coeff *= 1j * k
    coeff[:, -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(coeff, n=n, axis=1)


def _dtheta2(a: np.ndarray) -> np.ndarray | None:
    """d^2/dtheta^2 of a, or None for a column, as _dtheta."""
    if a.shape[1] == 1:
        return None
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
    (a,) = _operands(psi)
    u_r = _dtheta(a)
    if u_r is None:         # (+0.0) * (-1/r)
        u_r = np.full((g.spec.n_r, 1), -0.0)
    else:
        u_r *= -_inv_r(g)
    u_theta = _dr(a, g)
    return _vector(g, u_r, u_theta)


def curl_perp(u: VectorField) -> ScalarField:
    """Scalar vorticity w = (1/r)(dr(r u_theta) - dtheta u_r)."""
    g = u.grid
    inv_r = _inv_r(g)
    u_r, u_theta = _operands(u)
    # (1/r) d_r(r u_theta) = e^{-2s} d_s(e^s u_theta)
    w = _ds(g.r_nodes[:, None] * u_theta, g.ds)
    w *= inv_r
    d = _dtheta(u_r)
    if d is not None:       # w - (+0.0) is w
        w -= d
    w *= inv_r
    return _scalar(g, w)


def _laplacian(a: np.ndarray, grid: ExteriorGrid) -> np.ndarray:
    vals = _dss(a, grid.ds)
    d = _dtheta2(a)
    if d is None:
        vals += 0.0
    else:
        vals += d
    vals *= _inv_r(grid) ** 2
    return vals


def laplacian(f: ScalarField) -> ScalarField:
    """e^{-2s} (d_ss + d_thetatheta) f."""
    (a,) = _operands(f)
    return _scalar(f.grid, _laplacian(a, f.grid))


def _angular_advection(u_theta: np.ndarray, inv_r: np.ndarray,
                       a: np.ndarray) -> np.ndarray:
    """(u_theta * inv_r) * dtheta a.

    For a column a this is u_theta * 0.0: inv_r lies in (0, 1], so
    u_theta * inv_r is finite with the sign of u_theta, as its product with
    +0.0 is.
    """
    d = _dtheta(a)
    if d is None:
        return u_theta * 0.0
    ang = u_theta * inv_r
    ang *= d
    return ang


def advect(u: VectorField, q: ScalarField) -> ScalarField:
    """u . grad q = u_r dr q + (u_theta / r) dtheta q."""
    if u.grid is not q.grid:
        raise ValueError("advect requires fields on the same grid")
    g = q.grid
    a, u_r, u_theta = _operands(q, u)
    vals = _dr(a, g)
    vals *= u_r
    vals += _angular_advection(u_theta, _inv_r(g), a)
    return _scalar(g, vals)


def _spread_sum(col: np.ndarray, shape: tuple) -> float:
    """float(np.sum(a)) for the contiguous array a of shape whose rows each
    repeat the row of col; the sum of a broadcast view would add in
    another order."""
    full = np.empty(shape)
    full[...] = col
    return float(np.sum(full))


def _weighted_sum(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """float(np.sum(w * a * b)) with one temporary.

    When a and b are both columns the product w[:, :1] * a * b is formed on
    the columns and spread for the sum.  That has the bits of the
    full-size sum only if every row of w holds one bit pattern, as in every
    weights array the package passes; a column with a full array is
    multiplied at full size."""
    if a.shape[1] == 1 and b.shape[1] == 1:
        t = w[:, :1] * a
        t *= b
        return _spread_sum(t, w.shape)
    t = w * a
    t *= b
    return float(np.sum(t))


def norm_l2(f) -> float:
    """sqrt of the quadrature sum of squares over all components."""
    g = f.grid
    total = 0.0
    for c in _operands(f):
        total += _weighted_sum(g.weights, c, c)
    return float(np.sqrt(total))


def inner_l2(f, g_field) -> float:
    """Quadrature inner product; components paired positionally."""
    if f.grid is not g_field.grid:
        raise ValueError("inner_l2 requires fields on the same grid")
    w = f.grid.weights
    ops = _operands(f, g_field)
    n = len(f._arrs)
    total = 0.0
    for a, b in zip(ops[:n], ops[n:], strict=True):
        total += _weighted_sum(w, a, b)
    return float(total)


def seminorms_hk(f, k_max: int) -> tuple:
    """The seminorms of orders 1..k_max of f from one nested pass.

    Order k applies k nested [d/dr, (1/r) d/dtheta] to every component;
    each level is summed as it is reached, so the derivatives of level k
    are taken once for all orders above it.

    A held component is differentiated as its column and skips its
    d/dtheta branch and every derivative of it: they are exact zeros,
    which add +0.0 to a non-negative sum, and an all-zero column is
    dropped.  Its d/dr is a column too while finite; a non-finite one goes
    on at full size and through the transforms.  The sums are those of
    every word of derivatives, bit for bit.
    """
    if k_max not in (1, 2, 3):
        raise ConfigError("seminorm order k=%r outside 1..3" % (k_max,),
                          key="k")
    g = f.grid
    inv_r = _inv_r(g)
    comps = [c for c in f._arrs if c.shape[1] != 1 or c.any()]
    norms = []
    for _ in range(k_max):
        nxt = []
        for c in comps:
            d = _dr(c, g)
            if c.shape[1] != 1:
                nxt.append(d)
                d = _dtheta(c)
                d *= inv_r
                nxt.append(d)
            elif np.isfinite(d).all():
                nxt.append(d)
            else:           # a non-finite d/dr goes on at full size
                nxt.append(np.broadcast_to(d, g.weights.shape))
        comps = nxt
        total = 0.0
        for c in comps:
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
    for c in _grad_tensor(u):
        total += _weighted_sum(g.weights, c, c)
    return float(np.sqrt(total))


def _grad_tensor(u: VectorField) -> tuple:
    """Physical polar components (rr, rtheta, thetar, thetatheta) of grad u,
    as columns when u is column-held.

    First index is the direction of differentiation.
    """
    g = u.grid
    inv_r = _inv_r(g)
    u_r, u_theta = _operands(u)
    t_rr = _dr(u_r, g)
    t_rt = _dr(u_theta, g)
    t_tr = _dtheta(u_r)
    if t_tr is None:        # (+0.0) - inv_r u_theta
        t_tr = inv_r * u_theta
        np.subtract(0.0, t_tr, out=t_tr)
    else:
        t_tr *= inv_r
        t_tr -= inv_r * u_theta
    t_tt = _dtheta(u_theta)
    if t_tt is None:        # (+0.0) + inv_r u_r
        t_tt = inv_r * u_r
        t_tt += 0.0
    else:
        t_tt *= inv_r
        t_tt += inv_r * u_r
    return (t_rr, t_rt, t_tr, t_tt)


def difference(u: VectorField, v: VectorField) -> VectorField:
    """u - v componentwise, untagged, on u's grid."""
    u_r, u_t, v_r, v_t = _operands(u, v)
    return _vector(u.grid, u_r - v_r, u_t - v_t)


def vector_laplacian(u: VectorField) -> VectorField:
    """Componentwise Laplacian with the polar coupling terms."""
    g = u.grid
    inv_r2 = _inv_r(g) ** 2
    u_r, u_theta = _operands(u)
    lap_r = _laplacian(u_r, g)
    lap_r -= inv_r2 * u_r
    d = _dtheta(u_theta)
    if d is not None:       # lap_r - 2/r^2 (+0.0) is lap_r
        d *= 2.0 * inv_r2
        lap_r -= d
    lap_t = _laplacian(u_theta, g)
    lap_t -= inv_r2 * u_theta
    d = _dtheta(u_r)
    if d is None:
        lap_t += 0.0
    else:
        d *= 2.0 * inv_r2
        lap_t += d
    return _vector(g, lap_r, lap_t)


def advect_vector(u: VectorField, a: VectorField) -> VectorField:
    """(u . grad) a with the polar Christoffel terms."""
    if u.grid is not a.grid:
        raise ValueError("advect_vector requires fields on the same grid")
    g = u.grid
    inv_r = _inv_r(g)
    a_r, a_t, u_r, u_t = _operands(a, u)
    conv_r = _dr(a_r, g)
    conv_r *= u_r
    conv_r += _angular_advection(u_t, inv_r, a_r)
    curv = u_t * a_t
    curv *= inv_r
    conv_r -= curv
    conv_t = _dr(a_t, g)
    conv_t *= u_r
    conv_t += _angular_advection(u_t, inv_r, a_t)
    curv = u_t * a_r
    curv *= inv_r
    conv_t += curv
    return _vector(g, conv_r, conv_t)


def grad_transpose_apply(u: VectorField, a: VectorField) -> VectorField:
    """(grad u)^T a in physical polar components."""
    if u.grid is not a.grid:
        raise ValueError("grad_transpose_apply requires fields on the same grid")
    t_rr, t_rt, t_tr, t_tt = _grad_tensor(u)
    # a's columns only beside u's: a column tensor meets a full a at full size
    a_r, a_t = _operands(u, a)[2:]
    out_r = t_rr * a_r + t_rt * a_t
    out_t = t_tr * a_r + t_tt * a_t
    return _vector(u.grid, out_r, out_t)


# ---------------------------------------------------------------------------
# pointwise combinations, sums and bounds of field values, on columns when
# every field in them is column-held

def lincomb(terms, scale: float | None = None,
            base: ScalarField | None = None) -> ScalarField:
    """base + scale * (c1 f1 + c2 f2 + ...) for terms ((c1, f1), (c2, f2),
    ...) of scalar fields, formed in place in that order: f1 * c1, then
    each further f * c added, then the scale, then base.  A coefficient of
    1.0 keeps the bits of its field.  The result is held as a column when
    every field is held.
    """
    fs = [f for _, f in terms] + ([] if base is None else [base])
    ops = _operands(*fs)
    out = ops[0] * terms[0][0]
    for (c, _), a in zip(terms[1:], ops[1:]):
        out += a * c
    if scale is not None:
        out *= scale
    if base is not None:
        out += ops[-1]
    return _scalar(fs[0].grid, out)


def times_profile(f: ScalarField, profile: np.ndarray) -> ScalarField:
    """f times a radial profile, one value per radial node."""
    (a,) = _operands(f)
    return _scalar(f.grid, profile[:, None] * a)


def weighted_total(weights: np.ndarray, expr, *fs) -> float:
    """float(np.sum(weights * expr(*arrays))) for the component arrays of
    the fields fs, in order.

    expr must work node by node (row slices included): it gets the columns
    when every field is column-held, else the full arrays.  A column it
    returns is multiplied by column 0 of weights and spread into a
    contiguous full-size array for the sum.  That has the bits of the
    full-size sum only if every row of weights holds one bit pattern, as
    in grid.weights, grid.weights[1:-1] and tail_weights.
    """
    t = expr(*_operands(*fs))
    if t.shape[1] == 1:
        return _spread_sum(weights[:, :1] * t, weights.shape)
    return float(np.sum(weights * t))


def transit_time(u: VectorField) -> float:
    """The least time u takes across one grid cell: the minimum over the
    nodes of r ds / |u_r| and r dtheta / |u_theta|, speeds below 1e-300
    counted as 1e-300.  The minimum over a row that holds one value is
    that value, so a column gives it exactly."""
    g = u.grid
    r = g.r_nodes[:, None]
    tiny = 1e-300
    u_r, u_theta = _operands(u)
    return min(float(np.min(r * g.ds / np.maximum(np.abs(u_r), tiny))),
               float(np.min(r * g.dtheta / np.maximum(np.abs(u_theta), tiny))))


# ---------------------------------------------------------------------------
# snapshot files

def snapshot_meta(grid: ExteriorGrid, time: float, alpha: float, nu: float) -> dict:
    return {"n_r": grid.spec.n_r, "n_theta": grid.spec.n_theta,
            "r_max": grid.spec.r_max, "time": time, "alpha": alpha, "nu": nu}


def _write_csv_body(fh, values: np.ndarray):
    """Writes exactly what np.savetxt(fh, values, fmt="%.17g", delimiter=",")
    writes.  A row that holds one bit pattern (a θ-constant row) is one
    formatted cell repeated by string multiplication.  Bits, not float ==,
    so a row of -0.0 and 0.0 keeps both signs.
    """
    n_theta = values.shape[1]
    row_fmt = ",".join(["%.17g"] * n_theta) + "\n"
    bits = values.view(np.int64)
    constant = (bits == bits[:, :1]).all(axis=1).tolist()
    lines = []
    for i, (const, first) in enumerate(zip(constant,
                                           values[:, 0].tolist())):
        if const:
            cell = "%.17g" % first
            lines.append((cell + ",") * (n_theta - 1) + cell + "\n")
        else:
            lines.append(row_fmt % tuple(values[i].tolist()))
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
