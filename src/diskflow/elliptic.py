"""Elliptic inversions on the log-radial grid, all solved modes at once.

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

A right-hand side held as a sector, the first n_theta / m nodes of data
that repeat m times around the grid, has the modes 0, m, 2m, ... alone,
and its spectrum is the rfft of the sector: column j holds mode j * m,
and the last column the grid's Nyquist mode n_theta // 2, so the shape of
a spectrum gives its mode step m (_mode_step).  The stencils of column j
are built at mode j * m, and phi is synthesized on the sector.  A full
array has step 1.

Only the modes whose coefficients rise above roundoff are solved: a prefix
of the spectrum's columns 0..M, where M is the last column whose largest
interior coefficient exceeds _MODE_TOL (1e-11) times the largest
column's, rounded up to a multiple of 8 and capped at the last column.
Every column above M gets phi-hat = 0.  The stream solve counts the
right-hand side of each dropped mode as residual, so the 1e-10 gate sees the whole inversion; the Poisson
residual is taken in physical space and sees them already.  A mode below
the cut has no velocity of its own until it grows past it, and q itself
is never filtered.  (Cutting a series where its coefficients reach their
roundoff plateau is Chebfun's "chopping".)

Each problem states its stencil once, as one mode's COO pattern with its
values at every mode; the block-diagonal matrix of the solved modes is
assembled from it in one vectorized pass (the per-mode matrices are the
one-mode case), factored once by a sparse LU, and solved with one
two-column call (real and imaginary parts).
The grid holds at most one (matrix, LU, step) factor per (kind, alpha),
and it only grows: a solve of its step whose prefix the held one covers
solves over the held modes, a longer prefix or another step replaces it.
Radial data factors and solves mode 0 alone; release_factors drops the
factor of one kind and alpha once no later solve needs it.  Each drop and each factorization ends with glibc's
malloc_trim (_trim_heap), so that a freed factor's pages leave the process
in every run alike.

A right-hand side held as one column c (radial data) has a one-column
spectrum, its mode 0 = n_theta * c, and that shape alone marks it held;
it goes through no angular transform, and the stream function is the
column x.real / n_theta of the solved mode 0 x.  Its m >= 1 modes are
exact zeros, so radial data stay radial at every n_theta.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BoundaryTagError, CirculationError, ConfigError,
                     EllipticSolveError)
from .fields import (ScalarField, VectorField, _retag, _scalar, _sector,
                     curl_perp, laplacian, lincomb, norm_l2, perp_grad,
                     weighted_total)
from .grid import ExteriorGrid

_RESIDUAL_TOL = 1e-10
# a mode is solved when its largest interior coefficient exceeds this share
# of the largest mode's; the angular FFT's roundoff reaches about 1.2e-13
_MODE_TOL = 1e-11

# glibc's malloc_trim; None under a C library without one
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


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


def _block_size(grid: ExteriorGrid, kind: str) -> int:
    """Unknowns of one mode's block: phi at each radial node for Poisson,
    the interleaved (phi, Delta phi) pair for the stream problem."""
    return grid.spec.n_r if kind == "poisson" else 2 * grid.spec.n_r


def _block_factor(grid: ExteriorGrid, kind: str, alpha, count: int,
                  step: int):
    """(matrix, LU, step) of the block-diagonal operator over the modes
    0, step, ..., (count - 1) * step.

    The grid holds at most one factor per kind and alpha, under the key
    (kind, alpha).  The held factor serves any request of its step that
    its prefix covers: the solve then spans the held prefix
    (_solve_prefix).  A longer
    request, or one of another step, factors its own prefix and replaces
    the held factor.  The matrix is kept for residual checks.
    """
    size = _block_size(grid, kind)
    with grid.cache_lock:
        factor = grid.solver_cache.get((kind, alpha))
        if factor is not None and factor[2] == step \
                and factor[1].shape[0] >= count * size:
            return factor
        # dropped before the new factor is built, and no name keeps it
        # here, so the two are never held at once
        factor = None
        _drop(grid, kind, alpha)
    modes = range(0, count * step, step)
    if kind == "poisson":
        stencil = _poisson_stencil(grid, modes)
    else:
        stencil = _stream_stencil(grid, modes, alpha)
    mat = _block_matrix(*stencil, size)
    try:
        lu = spla.splu(mat)
    except RuntimeError as exc:
        raise EllipticSolveError("singular %s operator over modes 0..%d: %s"
                                 % (kind, modes[-1], exc))
    # the CSR copy is made once SuperLU's workspace is freed, not beside it
    factor = mat.tocsr(), lu, step
    _trim_heap()
    with grid.cache_lock:
        grid.solver_cache[(kind, alpha)] = factor
    return factor


def _drop(grid: ExteriorGrid, kind: str, alpha) -> None:
    """Delete the factor of kind and alpha and hand its pages back to the
    OS; the caller holds cache_lock."""
    grid.solver_cache.pop((kind, alpha), None)
    _trim_heap()


def _trim_heap() -> None:
    """Return the C heap's free pages to the OS, where the C library can.

    SuperLU works and keeps its factors in the C heap.  glibc hands a freed
    region back only while it tops its trim threshold, a threshold that
    follows the largest block freed so far, so whether a dropped or
    finished factorization left the process depended on the order of earlier
    frees.  Factors of changing prefixes made that order vary: the peak
    RSS of one perturbed sweep spread over 9 MB between identical runs.
    Trimming after each factor is dropped or built holds it within 1 MB.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def release_factors(grid: ExteriorGrid, kind: str, alpha=None) -> None:
    """Drop the grid's cached factor of kind and alpha, whatever its prefix.

    alpha is None for the Poisson factor.  A later solve of the same kind
    and alpha factors again.
    """
    with grid.cache_lock:
        _drop(grid, kind, alpha)


def _spectrum(f: ScalarField) -> np.ndarray:
    """The angular rfft of the array f keeps: of its sector, whose
    columns are the grid's modes 0, m, 2m, ... (_mode_step), or of its
    full array.  For a column-held f (column c), its mode 0 alone as one
    complex column, n_theta * c, with no transform."""
    kept = _sector(f)
    if kept.shape[1] != 1:
        return np.fft.rfft(kept, axis=1)
    coeff = np.zeros(kept.shape, dtype=complex)
    np.multiply(kept, f.grid.spec.n_theta, out=coeff.real)
    return coeff


def _mode_step(grid: ExteriorGrid, coeff: np.ndarray) -> int:
    """The mode step m of a spectrum from _spectrum: column j holds mode
    j * m.  The rfft of a full array or of a sector of even width ends at
    the grid's Nyquist mode n_theta // 2; a one-column spectrum, mode 0
    alone, is given the step n_theta // 2."""
    return (grid.spec.n_theta // 2) // max(coeff.shape[1] - 1, 1)


def _active_modes(coeff: np.ndarray) -> int:
    """How many columns of a spectrum coeff from _spectrum, a prefix
    0..k-1, to solve.

    One column: 1 when its interior coefficients carry data, else 0.  A
    spectrum of a full array or a sector: M + 1, M the last column whose
    largest interior coefficient exceeds _MODE_TOL times the largest
    column's, rounded up to a multiple of 8 so that a run asks for few
    prefixes, and capped at the last column (n_theta // 2 at full size).
    Non-finite data keep every column, so that the solve fails as it did
    before any cut.
    """
    if coeff.shape[1] == 1:
        return 1 if coeff[1:-1].any() else 0
    peak = np.abs(coeff[1:-1]).max(axis=0)
    top = len(peak) - 1
    if np.isfinite(peak.max()):
        kept = np.flatnonzero(peak > _MODE_TOL * peak.max())
        if not kept.size:
            return 0
        top = min(-(-int(kept[-1]) // 8) * 8, top)
    return top + 1


def _solve_prefix(grid: ExteriorGrid, kind: str, alpha, coeff: np.ndarray,
                  rhs: np.ndarray, rows: slice):
    """Solve the modes _active_modes picks from coeff, over the factor the
    grid serves for them (its prefix may be longer), as one complex solve
    through one real factorization.

    rhs holds each mode's interior right-hand side as a column; it goes
    into the given rows of that mode's block.  The real and imaginary
    parts go through the block LU as two columns.  Returns
    (k, x, residual^2, rhs^2): k the length of the solved prefix, never
    longer than coeff, x with one column of block unknowns per mode (None
    for k = 0), and the squares summed over all solved modes, so callers
    can enforce the relative residual bound of the whole inversion.
    """
    count = _active_modes(coeff)
    if not count:
        return 0, None, 0.0, 0.0
    mat, lu, _ = _block_factor(grid, kind, alpha, count,
                               _mode_step(grid, coeff))
    size = _block_size(grid, kind)
    held = lu.shape[0] // size
    k = min(held, coeff.shape[1])
    parts = np.zeros((2, held, size))
    parts[0, :k, rows] = rhs.real[:, :k].T
    parts[1, :k, rows] = rhs.imag[:, :k].T
    parts = parts.reshape(2, -1)
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
    x = (out[0] + 1j * out[1]).reshape(held, size)[:k].T
    return k, x, res2, float(np.sum(parts))


def _synthesis(grid: ExteriorGrid, coeff: np.ndarray, k: int,
               x: np.ndarray | None) -> ScalarField:
    """phi from the solved modes x, one column for each of modes 0..k-1
    (None for k = 0).

    coeff, the spectrum of the right-hand side from _spectrum, is
    consumed: its buffer is zeroed and takes the spectrum of phi.  A
    second spectrum would be handed back to the OS after each solve and
    faulted in again by the next.  A one-column spectrum, mode 0 alone,
    gives phi held as the column x.real / n_theta, with no transform.
    """
    n = grid.spec.n_theta
    coeff.fill(0)
    if k:
        coeff[:, :k] = x
    if coeff.shape[1] == 1:
        phi = coeff.real * (1.0 / n)
    else:
        phi = np.fft.irfft(coeff, n=n // _mode_step(grid, coeff), axis=1)
    return _scalar(grid, phi)


def total_mass(w: ScalarField) -> float:
    """Quadrature integral of w over the annulus."""
    return weighted_total(w.grid.weights, lambda a: a, w)


def solve_poisson(w: ScalarField, mass_tol: float = 1e-6) -> ScalarField:
    """Stream function of the vorticity w, vanishing on the boundary ring."""
    g = w.grid
    mass = total_mass(w)
    scale = norm_l2(w)
    if abs(mass) > mass_tol * max(scale, 1.0):
        raise CirculationError(
            "net vorticity mass %.3e exceeds tolerance; the mode-0 far "
            "condition requires zero circulation" % mass)

    coeff = _spectrum(w)
    # the complex product, as the complex system scales it
    rhs = np.exp(2.0 * g.s_nodes)[1:-1, None] * coeff[1:-1]
    k, x, _, _ = _solve_prefix(g, "poisson", None, coeff, rhs, slice(1, -1))
    phi = _synthesis(g, coeff, k, x)

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
    coeff = _spectrum(q)
    k, x, res2, rhs2 = _solve_prefix(g, "stream", alpha, coeff, coeff[1:-1],
                                     slice(3, -2, 2))
    if x is not None:
        x = x[0::2]
    # a mode above the solved prefix gets phi-hat = 0, so its right-hand
    # side is residual of the inversion
    dropped = coeff[1:-1, k:]
    dropped2 = float(np.sum(np.square(dropped.real))
                     + np.sum(np.square(dropped.imag)))
    res2 += dropped2
    rhs2 += dropped2
    phi = _synthesis(g, coeff, k, x)
    w = laplacian(phi) if with_w else None

    # residual of the banded system itself; recomposing Delta^2 in physical
    # space would amplify roundoff by alpha^2/h^4 and prove nothing more
    res_norm = float(np.sqrt(res2))
    scale = max(float(np.sqrt(rhs2)), 1e-30)
    if res_norm > _RESIDUAL_TOL * scale:
        raise EllipticSolveError(
            "stream residual %.3e exceeds %.0e relative; %d of %d modes "
            "solved, the dropped ones %.1e of the right-hand side"
            % (res_norm, _RESIDUAL_TOL, k, coeff.shape[1],
               np.sqrt(dropped2) / scale))
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
