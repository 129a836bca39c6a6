"""Elliptic inversions on the log-radial grid, all angular modes at once.

Two problems, both reduced to one banded radial system per angular mode
after the angular FFT:

* Poisson: Delta phi = w with phi = 0 on the boundary ring and decay-matched
  far conditions (Robin d_r phi + (m/r) phi = 0 for m >= 1, Neumann for the
  circulation-free m = 0).
* Stream-Helmholtz: (Delta - alpha^2 Delta^2) phi = q with the no-slip pair
  phi = d_r phi = 0 at r = 1 and the truncation pair phi = d_r phi = 0 at
  r_max.  Solved as a coupled first-order system in (phi, Delta phi): the
  composed fourth-order operator squares the condition number, the coupled
  form does not, and the extra accuracy is what the inverse-consistency
  budget needs.

The no-slip Neumann rows reuse the exact one-sided stencil of perp_grad, so
returned velocities satisfy the no-slip ring check to roundoff; a velocity
that fails it is a failed solve.  Every solve re-evaluates its residual and
rejects the result if it exceeds 1e-10 relative, summed over all modes.

Only the modes whose coefficients carry data are solved.  Each problem
states its stencil once, as one mode's COO pattern with its values at every
mode; the block-diagonal matrix of all active modes is assembled from it in
one vectorized pass (the per-mode matrices are the one-mode case), factored
once by a sparse LU, and solved with one two-column call (real and imaginary
parts).
The grid caches one (matrix, LU) pair per key (kind, alpha, modes), so
radial data factors and solves mode 0 alone; release_factors drops the
pairs of one kind and alpha once no later solve needs them.

A right-hand side held as one column (every row one bit pattern) has a
one-column spectrum, its mode 0, and that shape alone marks it held.  It
needs no angular transform when n_theta is 2^k or 3 * 2^k: its mode-0
coefficient is n_theta * c + 0j and the stream function's column is
(x.real + 0.0) * (1 / n_theta), with the bits numpy's FFT gives.  Its DC
sum of equal terms is multiplied exactly by 2 or 4 at each radix-2 or
radix-4 stage and rounded once at a single radix-3 stage, as n_theta * c
is rounded once; a second odd factor rounds again (n_theta 36, 100), so
every other n_theta, and every other right-hand side, goes through the
transforms.  The inverse of a lone DC term adds +0.0 to it (turning -0.0
into +0.0) and scales by the reciprocal of n_theta.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BoundaryTagError, CirculationError, ConfigError,
                     EllipticSolveError)
from .fields import (ScalarField, VectorField, _column, _retag, _scalar,
                     curl_perp, laplacian, lincomb, norm_l2, perp_grad,
                     weighted_total)
from .grid import ExteriorGrid

_RESIDUAL_TOL = 1e-10


def _per_mode(pieces, count: int) -> np.ndarray:
    """Stencil values, one row per mode: each piece broadcast to count rows."""
    return np.concatenate([np.broadcast_to(p, (count, np.shape(p)[-1]))
                           for p in pieces], axis=1)


def _poisson_stencil(grid: ExteriorGrid, modes):
    """COO (rows, cols) of one mode's Poisson matrix and its values per mode.

    The sparsity pattern does not depend on the mode; vals holds one row of
    entries for each of the modes.
    """
    n = grid.spec.n_r
    h = grid.ds
    inv_h2 = 1.0 / (h * h)
    m = np.asarray(modes, dtype=np.float64)[:, None]
    i = np.arange(1, n - 1)
    rows = np.concatenate([[0], i, i, i, [n - 1] * 3])
    cols = np.concatenate([[0], i - 1, i, i + 1, [n - 3, n - 2, n - 1]])
    vals = _per_mode([
        [1.0],
        np.full(n - 2, inv_h2),
        np.repeat(-2.0 * inv_h2 - m * m, n - 2, axis=1),
        np.full(n - 2, inv_h2),
        # far edge: one-sided d/ds + m, matching r^-m decay (Neumann at m=0)
        [1.0 / (2.0 * h), -4.0 / (2.0 * h)], 3.0 / (2.0 * h) + m,
    ], len(m))
    return rows, cols, vals


def _stream_stencil(grid: ExteriorGrid, modes, alpha: float):
    """COO (rows, cols) of one mode's stream matrix and its values per mode."""
    n = grid.spec.n_r
    h = grid.ds
    inv_h2 = 1.0 / (h * h)
    c = np.exp(-2.0 * grid.s_nodes[1:-1])
    a2 = alpha * alpha
    m = np.asarray(modes, dtype=np.float64)[:, None]
    i = np.arange(1, n - 1)

    # unknowns interleaved: x[2i] = phi_i, x[2i+1] = (Delta phi)_i
    rows = np.concatenate([
        2 * i, 2 * i, 2 * i, 2 * i,                      # definition rows
        2 * i + 1, 2 * i + 1, 2 * i + 1,                 # PDE rows
        [0, 1, 1, 1],                                    # boundary ring
        [2 * n - 2, 2 * n - 1, 2 * n - 1, 2 * n - 1],    # truncation edge
    ])
    cols = np.concatenate([
        2 * (i - 1), 2 * i, 2 * (i + 1), 2 * i + 1,
        2 * (i - 1) + 1, 2 * i + 1, 2 * (i + 1) + 1,
        [0, 0, 2, 4],
        [2 * n - 2, 2 * n - 2, 2 * n - 4, 2 * n - 6],
    ])
    od = 1.0 / (2.0 * h)
    vals = _per_mode([
        c * inv_h2, c * (-2.0 * inv_h2 - m * m), c * inv_h2, np.full(n - 2, -1.0),
        -a2 * c * inv_h2, 1.0 - a2 * c * (-2.0 * inv_h2 - m * m), -a2 * c * inv_h2,
        # phi = 0 and the same one-sided stencil perp_grad uses for d_s phi
        [1.0, -3.0 * od, 4.0 * od, -1.0 * od],
        [1.0, 3.0 * od, -4.0 * od, 1.0 * od],
    ], len(m))
    return rows, cols, vals


def _block_matrix(rows, cols, vals, size: int):
    """CSC block-diagonal matrix of one size x size block per row of vals.

    One COO pass over all blocks gives the same indptr, indices and data as
    sp.block_diag of the per-mode matrices, so the same LU factor.
    """
    count = len(vals)
    off = size * np.arange(count)[:, None]
    return sp.csc_matrix(
        (vals.ravel(), ((rows + off).ravel(), (cols + off).ravel())),
        shape=(size * count, size * count))


def _poisson_matrix(grid: ExteriorGrid, m: int):
    return _block_matrix(*_poisson_stencil(grid, (m,)), grid.spec.n_r)


def _stream_matrix(grid: ExteriorGrid, m: int, alpha: float):
    return _block_matrix(*_stream_stencil(grid, (m,), alpha),
                         2 * grid.spec.n_r)


def _block_factor(grid: ExteriorGrid, kind: str, alpha, modes: tuple):
    """(matrix, LU) of the block-diagonal operator over the given modes.

    Returns the cached pair when the grid already holds one for the key
    (kind, alpha, modes); the matrix is kept for residual checks.
    """
    key = (kind, alpha, modes)
    cached = grid.solver_cache.get(key)
    if cached is not None:
        return cached
    n = grid.spec.n_r
    if kind == "poisson":
        mat = _block_matrix(*_poisson_stencil(grid, modes), n)
    else:
        mat = _block_matrix(*_stream_stencil(grid, modes, alpha), 2 * n)
    try:
        factor = mat.tocsr(), spla.splu(mat)
    except RuntimeError as exc:
        raise EllipticSolveError("singular %s operator over modes %s: %s"
                                 % (kind, list(modes), exc))
    with grid.cache_lock:
        grid.solver_cache[key] = factor
    return factor


def release_factors(grid: ExteriorGrid, kind: str, alpha=None) -> None:
    """Drop the grid's cached factors of kind and alpha, for any modes.

    alpha is None for the Poisson factor.  A later solve with the same key
    factors again.
    """
    with grid.cache_lock:
        for key in [k for k in grid.solver_cache if k[:2] == (kind, alpha)]:
            del grid.solver_cache[key]


def _solve_modes(factor, parts: np.ndarray):
    """Complex solve of every mode through one real factorization.

    parts holds the real and imaginary parts of the right-hand side as two
    rows, each the modes' rows laid end to end; they go through the block
    LU as two columns and are squared in place once solved.  Returns
    (solution, residual^2, rhs^2), the solution flat and complex, the
    squares summed over all modes, so callers can enforce the relative
    residual bound of the whole inversion.
    """
    mat, lu = factor
    out = lu.solve(parts.T).T
    # one CSR matvec per part: about three times faster than one product
    # with the two-column block.  np.sum rather than a BLAS dot, which
    # OpenBLAS spreads over threads at this length and which then stalls
    # when two sweep workers call it at once
    r0 = mat @ out[0]
    r0 -= parts[0]
    r0 *= r0
    r1 = mat @ out[1]
    r1 -= parts[1]
    r1 *= r1
    res2 = float(np.sum(r0) + np.sum(r1))
    parts *= parts
    return out[0] + 1j * out[1], res2, float(np.sum(parts))


def _closed_form(n_theta: int) -> bool:
    """True when n_theta is 2^k or 3 * 2^k, the n_theta at which mode 0
    of a column-held array has its transforms' bits in closed form."""
    return n_theta // (n_theta & -n_theta) in (1, 3)


def _spectrum(f: ScalarField) -> np.ndarray:
    """The angular rfft of f.values or, for a column-held f, its mode 0
    alone as one complex column: n_theta * c + 0j, the rfft's bits, where
    _closed_form holds, else the rfft's column 0.  Dropping the m >= 1
    roundoff of a held f keeps radial data radial."""
    n = f.grid.spec.n_theta
    col = _column(f)
    if col is None:
        return np.fft.rfft(f.values, axis=1)
    if not _closed_form(n):
        return np.fft.rfft(f.values, axis=1)[:, :1].copy()
    coeff = np.zeros(col.shape, dtype=complex)
    np.multiply(col, n, out=coeff.real)
    return coeff


def _active_modes(coeff: np.ndarray) -> tuple:
    """Angular modes whose interior coefficients carry data, for a
    spectrum coeff from _spectrum: mode 0 at most for one column."""
    return tuple(int(m) for m in np.flatnonzero(coeff[1:-1].any(axis=0)))


def _synthesis(grid: ExteriorGrid, coeff: np.ndarray, modes: tuple,
               x: np.ndarray | None) -> ScalarField:
    """phi from the solved modes x, one column per entry of modes (None for
    no modes).

    coeff, the spectrum of the right-hand side from _spectrum, is
    consumed: its buffer is zeroed and takes the spectrum of phi.  A
    second spectrum would be handed back to the OS after each solve and
    faulted in again by the next.

    A one-column spectrum gives phi held as its column 0: where
    _closed_form holds (x.real + 0.0) * (1 / n_theta), as the irfft gives
    it, else column 0 of the irfft, whose rows are not always exactly
    constant (at n_theta = 478 = 2 * 239 they spread by 2.8e-16).
    """
    n = grid.spec.n_theta
    coeff.fill(0)
    if modes:
        coeff[:, modes] = x
    one_column = coeff.shape[1] == 1
    if one_column and _closed_form(n):
        phi = coeff.real + 0.0
        phi *= 1.0 / n
    else:
        # irfft pads a one-column spectrum with zeros to n // 2 + 1 modes
        phi = np.fft.irfft(coeff, n=n, axis=1)
        if one_column:
            phi = phi[:, :1].copy()
    return _scalar(grid, phi)


def total_mass(w: ScalarField) -> float:
    """Quadrature integral of w over the annulus."""
    return float(np.sum(w.grid.weights * w.values))


def solve_poisson(w: ScalarField, mass_tol: float = 1e-6) -> ScalarField:
    """Stream function of the vorticity w, vanishing on the boundary ring."""
    g = w.grid
    mass = total_mass(w)
    scale = norm_l2(w)
    if abs(mass) > mass_tol * max(scale, 1.0):
        raise CirculationError(
            "net vorticity mass %.3e exceeds tolerance; the mode-0 far "
            "condition requires zero circulation" % mass, mode=0)

    coeff = _spectrum(w)
    modes = _active_modes(coeff)
    x = None
    if modes:
        n = g.spec.n_r
        e2s = np.exp(2.0 * g.s_nodes)
        # the complex product, as the complex system scales it
        scaled = e2s[1:-1, None] * coeff[1:-1, modes]
        parts = np.zeros((2, len(modes), n))
        parts[0, :, 1:-1] = scaled.real.T
        parts[1, :, 1:-1] = scaled.imag.T
        x, _, _ = _solve_modes(_block_factor(g, "poisson", None, modes),
                               parts.reshape(2, -1))
        x = x.reshape(len(modes), n).T
    phi = _synthesis(g, coeff, modes, x)

    res_norm = float(np.sqrt(weighted_total(
        g.weights[1:-1], lambda lap, a: np.square((lap - a)[1:-1]),
        laplacian(phi), w)))
    if res_norm > _RESIDUAL_TOL * max(scale, 1e-30):
        raise EllipticSolveError("poisson residual %.3e exceeds %.0e relative"
                                 % (res_norm, _RESIDUAL_TOL))
    return phi


def solve_stream_helmholtz(q: ScalarField, alpha: float, with_w: bool = True):
    """Invert (Delta - alpha^2 Delta^2) with no-slip and truncation pairs.

    Returns (phi, w, u) with w = laplacian(phi) and u = perp_grad(phi)
    carrying the no-slip tag; with_w=False returns w as None for callers
    that do not read it.  A velocity that fails the no-slip ring check is a
    failed solve (EllipticSolveError).
    """
    if not alpha > 0.0:
        raise ConfigError(
            "alpha=%r must be positive; the no-slip Poisson problem is "
            "overdetermined at alpha=0" % (alpha,), key="alpha")
    g = q.grid
    n = g.spec.n_r
    coeff = _spectrum(q)
    res2 = 0.0
    rhs2 = 0.0
    modes = _active_modes(coeff)
    x = None
    if modes:
        parts = np.zeros((2, len(modes), 2 * n))
        parts[0, :, 3:-2:2] = coeff.real[1:-1, modes].T
        parts[1, :, 3:-2:2] = coeff.imag[1:-1, modes].T
        x, res2, rhs2 = _solve_modes(_block_factor(g, "stream", alpha, modes),
                                     parts.reshape(2, -1))
        x = x.reshape(len(modes), 2 * n)[:, 0::2].T
    phi = _synthesis(g, coeff, modes, x)
    w = laplacian(phi) if with_w else None

    # residual of the banded system itself; recomposing Delta^2 in physical
    # space would amplify roundoff by alpha^2/h^4 and prove nothing more
    res_norm = float(np.sqrt(res2))
    scale = max(float(np.sqrt(rhs2)), 1e-30)
    if res_norm > _RESIDUAL_TOL * scale:
        raise EllipticSolveError("stream residual %.3e exceeds %.0e relative"
                                 % (res_norm, _RESIDUAL_TOL))
    try:
        u = _retag(perp_grad(phi), "no-slip")
    except BoundaryTagError as exc:
        raise EllipticSolveError("stream solve: %s" % exc) from exc
    return phi, w, u


def recover_q(u: VectorField, alpha: float) -> ScalarField:
    """Filtered vorticity q = w - alpha^2 Delta w of a velocity field."""
    w = curl_perp(u)
    if alpha == 0.0:
        return w
    # w - (alpha^2 Delta w) has the bits of w + (-alpha^2) Delta w
    return lincomb([(-(alpha * alpha), laplacian(w))], base=w)
