import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from diskflow import elliptic, fields
from diskflow.errors import CirculationError, ConfigError, EllipticSolveError
from diskflow.grid import GridSpec, build_grid
from diskflow.fields import ScalarField, laplacian, norm_l2, seminorm_hk
from diskflow.elliptic import (solve_poisson, solve_stream_helmholtz,
                               recover_q, total_mass)


def grid(n_r=129, n_theta=16, r_max=8.0):
    return build_grid(GridSpec(n_r, n_theta, r_max))


# compact C^6 radial profile (t(1-t))^7 on [lo, hi]: polynomial, so its
# high derivatives stay modest and convergence ratios are clean from
# coarse grids, unlike an exp(-1/(1-x^2)) bump whose edges sharpen forever
_PROFILE = -np.polynomial.Polynomial.fromroots([0.0] * 7 + [1.0] * 7)
_PROFILE = _PROFILE / _PROFILE(0.5)


def smooth_bump(r, lo=2.0, hi=6.0, deriv=0):
    t = (r - lo) / (hi - lo)
    p = _PROFILE.deriv(deriv) if deriv else _PROFILE
    inside = (t > 0.0) & (t < 1.0)
    out = np.where(inside, p(np.where(inside, t, 0.5)), 0.0)
    return out / (hi - lo) ** deriv


def weighted_l2(g, arr):
    return float(np.sqrt(np.sum(g.weights * arr ** 2)))


# ---------------------------------------------------------------------------
# Poisson

def test_poisson_zero():
    g = grid(33, 8, 4.0)
    phi = solve_poisson(ScalarField(g, np.zeros((33, 8))))
    assert np.abs(phi.values).max() == 0.0


def test_poisson_cos_theta_analytic():
    # w = -8 r^-5 cos(theta) has the decaying solution (1/r - 1/r^3) cos(theta);
    # on the truncated annulus the answer differs by an O(r_max^-4)-forced
    # harmonic, so the tolerance has a floor in addition to the O(h^2) term
    g = grid(129, 16, 8.0)
    r = g.r_nodes[:, None]
    w = ScalarField(g, -8.0 * r ** -5.0 * np.cos(g.theta_nodes))
    phi = solve_poisson(w)
    exact = (1.0 / r - r ** -3.0) * np.cos(g.theta_nodes)
    rel = weighted_l2(g, phi.values - exact) / weighted_l2(g, exact)
    assert rel <= 0.01
    assert rel >= 0.003  # the truncation floor is real; vanishing would mean
    # the far condition silently changed


def test_poisson_truncated_problem_second_order():
    # against the closed-form solution of the truncated Robin problem the
    # error is pure discretization, so it must converge at order 2
    errs = []
    for n_r in (65, 129):
        g = grid(n_r, 16, 8.0)
        r = g.r_nodes[:, None]
        w = ScalarField(g, -8.0 * r ** -5.0 * np.cos(g.theta_nodes))
        phi = solve_poisson(w)
        a = -8.0 ** -4.0
        b = 1.0 + 8.0 ** -4.0
        exact = (-r ** -3.0 + b / r + a * r) * np.cos(g.theta_nodes)
        errs.append(weighted_l2(g, phi.values - exact))
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_poisson_radial_double_integration_oracle():
    # independent oracle: integrate phi'' = e^{2s} w twice on a dense s-grid
    # with phi(0) = 0 and phi'(s_max) = 0
    g = grid(257, 8, 8.0)
    s_max = math.log(8.0)
    s_dense = np.linspace(0.0, s_max, 200001)

    # stream profile chosen slowly varying in s = ln r, where the radial
    # stencil lives, so the h^2 constant fits the 1e-4 budget
    poly = -np.polynomial.Polynomial.fromroots([0.0] * 4 + [1.0] * 4)
    poly = poly / poly(0.5)
    lo, width = 0.1, s_max - 0.2

    def b_of_s(s, deriv=0):
        x = (s - lo) / width
        inside = (x > 0.0) & (x < 1.0)
        p = poly.deriv(deriv) if deriv else poly
        return np.where(inside, p(np.where(inside, x, 0.5)), 0.0) / width ** deriv

    def w_of_s(s):
        # vorticity of the compact stream B(s): Delta B = e^{-2s} B''(s)
        return np.exp(-2.0 * s) * b_of_s(s, deriv=2)

    rhs = np.exp(2.0 * s_dense) * w_of_s(s_dense)
    dphi = scipy.integrate.cumulative_trapezoid(rhs, s_dense, initial=0.0)
    dphi -= dphi[-1]  # enforce phi'(s_max) = 0
    phi_dense = scipy.integrate.cumulative_trapezoid(dphi, s_dense, initial=0.0)

    w_grid = ScalarField(g, np.repeat(w_of_s(g.s_nodes)[:, None], 8, axis=1))
    phi = solve_poisson(w_grid, mass_tol=1e-3)
    oracle = np.interp(g.s_nodes, s_dense, phi_dense)
    rel = (weighted_l2(g, phi.values - oracle[:, None])
           / weighted_l2(g, oracle[:, None] * np.ones_like(phi.values)))
    assert rel <= 1e-4


def test_poisson_circulation_guard():
    g = grid(65, 8, 8.0)
    w = ScalarField(g, np.repeat(smooth_bump(g.r_nodes)[:, None], 8, axis=1))
    assert abs(total_mass(w)) > 1e-3
    with pytest.raises(CirculationError):
        solve_poisson(w)
    solve_poisson(w, mass_tol=1e3)  # configurable tolerance admits it


def test_poisson_residual_invariant():
    g = grid(65, 16, 8.0)
    r = g.r_nodes[:, None]
    w = ScalarField(g, -8.0 * r ** -5.0 * np.cos(g.theta_nodes))
    phi = solve_poisson(w)
    res = laplacian(phi).values - w.values
    res_norm = float(np.sqrt(np.sum(g.weights[1:-1] * res[1:-1] ** 2)))
    assert res_norm <= 1e-10 * norm_l2(w)


def test_poisson_boundary_ring_zero():
    g = grid(65, 16, 8.0)
    r = g.r_nodes[:, None]
    w = ScalarField(g, -8.0 * r ** -5.0 * np.cos(g.theta_nodes))
    phi = solve_poisson(w)
    assert np.abs(phi.values[0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# stream-Helmholtz

def manufactured_phi(g):
    b = smooth_bump(g.r_nodes)[:, None]
    ang = 1.0 + np.cos(g.theta_nodes) + 0.5 * np.sin(2.0 * g.theta_nodes)
    return ScalarField(g, b * ang)


@pytest.mark.parametrize("alpha", [0.05, 0.2])
def test_stream_inverse_consistency(alpha):
    # feed q = (Delta - alpha^2 Delta^2) phi* computed with the same discrete
    # operators; the solver must reproduce phi* to factorization accuracy
    g = grid(129, 16, 8.0)
    phi_star = manufactured_phi(g)
    lap = laplacian(phi_star)
    q = ScalarField(g, lap.values - alpha ** 2 * laplacian(lap).values)
    phi, w, u = solve_stream_helmholtz(q, alpha)
    rel = (weighted_l2(g, phi.values - phi_star.values)
           / weighted_l2(g, phi_star.values))
    assert rel <= 1e-9


def test_stream_zero():
    g = grid(33, 8, 4.0)
    phi, w, u = solve_stream_helmholtz(ScalarField(g, np.zeros((33, 8))), 0.1)
    assert np.abs(phi.values).max() == 0.0
    assert np.abs(u.u_r).max() == 0.0
    assert np.abs(u.u_theta).max() == 0.0


def test_stream_rejects_alpha_zero():
    g = grid(33, 8, 4.0)
    with pytest.raises(ConfigError):
        solve_stream_helmholtz(ScalarField(g, np.zeros((33, 8))), 0.0)
    with pytest.raises(ConfigError):
        solve_stream_helmholtz(ScalarField(g, np.zeros((33, 8))), -0.1)


def test_stream_no_slip_tag():
    g = grid(129, 16, 8.0)
    phi_star = manufactured_phi(g)
    lap = laplacian(phi_star)
    q = ScalarField(g, lap.values - 0.01 * laplacian(lap).values)
    phi, w, u = solve_stream_helmholtz(q, 0.1)
    assert u.tag == "no-slip"
    assert np.abs(u.u_r[0]).max() <= 1e-12
    assert np.abs(u.u_theta[0]).max() <= 1e-12
    # truncation edge is clamped as well
    assert np.abs(phi.values[-1]).max() <= 1e-12


def test_stream_alpha_consistency_away_from_boundary():
    # as alpha -> 0 the returned w approaches q outside a collar at the ring.
    # q must be circulation-free, otherwise the clamped far edge grows its
    # own layer and the comparison diverges instead
    g = grid(257, 8, 8.0)
    qr = smooth_bump(g.r_nodes, deriv=2) + smooth_bump(g.r_nodes, deriv=1) / g.r_nodes
    q = ScalarField(g, np.repeat(qr[:, None], 8, axis=1))
    mask = (g.r_nodes >= 1.5)[:, None]
    errs = []
    for alpha in (0.2, 0.1, 0.05):
        phi, w, u = solve_stream_helmholtz(q, alpha)
        errs.append(weighted_l2(g, (w.values - q.values) * mask))
    assert errs[0] > errs[1] > errs[2]


def test_stream_physical_residual_small():
    # recomposing w - alpha^2 Delta w in physical space amplifies roundoff
    # by alpha^2/h^4, so this check is necessarily looser than the banded
    # residual the solver enforces internally
    g = grid(257, 8, 8.0)
    q = ScalarField(g, np.repeat(smooth_bump(g.r_nodes)[:, None], 8, axis=1))
    phi, w, u = solve_stream_helmholtz(q, 0.2)
    helm = w.values - 0.04 * laplacian(w).values
    res = (helm - q.values)[2:-2]
    res_norm = float(np.sqrt(np.sum(g.weights[2:-2] * res ** 2)))
    assert res_norm <= 1e-8 * norm_l2(q)


def test_stream_linearity():
    g = grid(65, 16, 8.0)
    rng = np.random.default_rng(2)
    interior = np.zeros((65, 16))
    interior[8:-8] = rng.normal(size=(49, 16))
    q1 = ScalarField(g, interior)
    q2 = manufactured_phi(g)
    phi1 = solve_stream_helmholtz(q1, 0.1)[0].values
    phi2 = solve_stream_helmholtz(q2, 0.1)[0].values
    both = ScalarField(g, 2.0 * q1.values - 0.5 * q2.values)
    phi3 = solve_stream_helmholtz(both, 0.1)[0].values
    assert np.allclose(phi3, 2.0 * phi1 - 0.5 * phi2,
                       rtol=1e-11, atol=1e-11 * np.abs(phi1).max())


def test_mode_solvers_cached_and_pure():
    g = grid(65, 16, 8.0)
    q = manufactured_phi(g)
    first = solve_stream_helmholtz(q, 0.1)[0].values
    assert any(k[0] == "stream" for k in g.solver_cache)
    second = solve_stream_helmholtz(q, 0.1)[0].values
    assert first.tobytes() == second.tobytes()


# ---------------------------------------------------------------------------
# one block solve over the active modes

def _per_mode_reference(g, values, rhs_of, matrix_of, pick):
    """irfft of independent per-mode spsolve solutions."""
    coeff = np.fft.rfft(values, axis=1)
    out = np.zeros_like(coeff)
    for m in range(coeff.shape[1]):
        x = scipy.sparse.linalg.spsolve(matrix_of(m), rhs_of(coeff[:, m]))
        out[:, m] = pick(x)
    return np.fft.irfft(out, n=g.spec.n_theta, axis=1)


def _random_interior(g, seed):
    rng = np.random.default_rng(seed)
    vals = np.zeros((g.spec.n_r, g.spec.n_theta))
    vals[4:-4] = rng.normal(size=(g.spec.n_r - 8, g.spec.n_theta))
    return vals


def _staged_solve(factor, rhs):
    """A solve from a complex right-hand side stacked into two real columns."""
    mat, lu = factor
    parts = np.stack([rhs.real.ravel(), rhs.imag.ravel()])
    out = lu.solve(parts.T).T
    return (out[0] + 1j * out[1]).reshape(rhs.shape)


@pytest.mark.parametrize("kind", ["poisson", "stream"])
def test_real_right_hand_sides_solve_as_the_complex_staged_ones(kind):
    g = grid(65, 16, 8.0)
    n = g.spec.n_r
    vals = _random_interior(g, 9)
    vals[4:-4] -= np.sum(g.weights * vals) / np.sum(g.weights[4:-4])
    coeff = np.fft.rfft(vals, axis=1)
    modes = elliptic._active_modes(coeff)
    if kind == "poisson":
        rhs = np.zeros((len(modes), n), dtype=complex)
        rhs[:, 1:-1] = (np.exp(2.0 * g.s_nodes)[1:-1, None]
                        * coeff[1:-1, modes]).T
        x = _staged_solve(elliptic._block_factor(g, kind, None, modes), rhs)
        got = solve_poisson(ScalarField(g, vals)).values
    else:
        rhs = np.zeros((len(modes), 2 * n), dtype=complex)
        rhs[:, 3:-2:2] = coeff[1:-1, modes].T
        x = _staged_solve(elliptic._block_factor(g, kind, 0.1, modes), rhs)
        x = x[:, 0::2]
        got = solve_stream_helmholtz(ScalarField(g, vals), 0.1)[0].values
    phi_hat = np.zeros_like(coeff)
    phi_hat[:, modes] = x.T
    want = np.fft.irfft(phi_hat, n=g.spec.n_theta, axis=1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_block_stream_solve_matches_per_mode_spsolve():
    g = grid(65, 16, 8.0)
    q = _random_interior(g, 7)
    assert np.all(np.abs(np.fft.rfft(q, axis=1)[1:-1]).max(axis=0) > 0.0)
    n = g.spec.n_r

    def rhs_of(c):
        rhs = np.zeros(2 * n, dtype=complex)
        rhs[3:-2:2] = c[1:-1]
        return rhs

    ref = _per_mode_reference(
        g, q, rhs_of, lambda m: elliptic._stream_matrix(g, m, 0.1),
        lambda x: x[0::2])
    phi = solve_stream_helmholtz(ScalarField(g, q), 0.1)[0].values
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()


def test_block_poisson_solve_matches_per_mode_spsolve():
    g = grid(65, 16, 8.0)
    w = _random_interior(g, 8)
    w[4:-4] -= np.sum(g.weights * w) / np.sum(g.weights[4:-4])  # no mass
    e2s = np.exp(2.0 * g.s_nodes)

    def rhs_of(c):
        rhs = np.zeros(g.spec.n_r, dtype=complex)
        rhs[1:-1] = e2s[1:-1] * c[1:-1]
        return rhs

    ref = _per_mode_reference(
        g, w, rhs_of, lambda m: elliptic._poisson_matrix(g, m), lambda x: x)
    phi = solve_poisson(ScalarField(g, w)).values
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()


def test_one_factor_per_alpha_and_mode_set():
    g = grid(65, 16, 8.0)
    q = ScalarField(g, _random_interior(g, 9))
    for alpha in (0.1, 0.2, 0.1, 0.2):
        solve_stream_helmholtz(q, alpha)
    all_modes = tuple(range(9))
    assert sorted(g.solver_cache, key=repr) == [
        ("stream", 0.1, all_modes), ("stream", 0.2, all_modes)]

    radial = grid(65, 16, 8.0)
    q0 = np.repeat(smooth_bump(radial.r_nodes)[:, None], 16, axis=1)
    for _ in range(3):
        solve_stream_helmholtz(ScalarField(radial, q0), 0.1)
    assert list(radial.solver_cache) == [("stream", 0.1, (0,))]


def test_singular_block_names_the_mode_set(monkeypatch):
    g = grid(33, 8, 4.0)
    empty = np.zeros(0, dtype=int)
    # every block of the assembled operator all zeros
    monkeypatch.setattr(elliptic, "_stream_stencil",
                        lambda grid, modes, alpha:
                        (empty, empty, np.zeros((len(modes), 0))))
    q = ScalarField(g, _random_interior(g, 10))
    with pytest.raises(EllipticSolveError, match=r"modes \[0, 1, 2, 3, 4\]"):
        solve_stream_helmholtz(q, 0.1)
    assert not g.solver_cache


@pytest.mark.parametrize("kind", ["poisson", "stream"])
@pytest.mark.parametrize("n_r, n_theta", [(65, 16), (129, 100), (256, 128)])
@pytest.mark.parametrize("mode_set", ["zero", "even", "all"])
def test_one_pass_assembly_equals_block_diag_of_the_modes(kind, n_r, n_theta,
                                                          mode_set):
    g = grid(n_r, n_theta, 8.0)
    modes = {"zero": (0,), "even": (0, 2, 4),
             "all": tuple(range(n_theta // 2 + 1))}[mode_set]
    if kind == "poisson":
        alpha, blocks = None, [elliptic._poisson_matrix(g, m) for m in modes]
    else:
        alpha, blocks = 0.1, [elliptic._stream_matrix(g, m, 0.1)
                              for m in modes]
    want = scipy.sparse.block_diag(blocks, format="csc")
    mat, lu = elliptic._block_factor(g, kind, alpha, modes)
    got = mat.tocsc()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(mat.data, want.tocsr().data)

    rng = np.random.default_rng(n_r + len(modes))
    b = rng.normal(size=(want.shape[0], 2))
    assert np.array_equal(lu.solve(b),
                          scipy.sparse.linalg.splu(want).solve(b))


def test_stream_ring_violation_is_a_solve_error(monkeypatch):
    from diskflow.fields import VectorField, perp_grad
    g = grid(65, 16, 8.0)
    q = manufactured_phi(g)

    def slipping(phi):
        u = perp_grad(phi)
        ut = u.u_theta.copy()
        ut[0] += 1e-6
        return VectorField(g, u.u_r, ut)
    monkeypatch.setattr(elliptic, "perp_grad", slipping)
    with pytest.raises(EllipticSolveError, match="no-slip") as exc:
        solve_stream_helmholtz(q, 0.1)
    assert isinstance(exc.value.__cause__, ValueError)
    # a field built by hand keeps the ValueError
    with pytest.raises(ValueError, match="no-slip"):
        VectorField(g, np.zeros((65, 16)), np.ones((65, 16)), tag="no-slip")


def test_stream_solve_without_w_returns_the_same_phi_and_u():
    g = grid(65, 16, 8.0)
    q = manufactured_phi(g)
    phi, w, u = solve_stream_helmholtz(q, 0.1)
    lean = solve_stream_helmholtz(q, 0.1, with_w=False)
    assert lean[1] is None
    assert np.array_equal(lean[0].values, phi.values)
    assert np.array_equal(lean[2].u_r, u.u_r)
    assert np.array_equal(lean[2].u_theta, u.u_theta)
    assert np.array_equal(w.values, laplacian(phi).values)


def _fresh_spectrum_synthesis(grid, coeff, modes, x):
    """elliptic._synthesis as it was written with a second spectrum: phi
    is synthesized in a fresh np.zeros_like(coeff), and coeff is left as
    it is.  A one-column coeff (mode 0 alone, of a held right-hand side)
    goes through the irfft too, which pads it with zero modes, and phi
    keeps its column 0."""
    phi_hat = np.zeros_like(coeff)
    if modes:
        phi_hat[:, modes] = x
    phi = np.fft.irfft(phi_hat, n=grid.spec.n_theta, axis=1)
    if coeff.shape[1] == 1:
        phi = phi[:, :1].copy()
    return fields._scalar(grid, phi)


def _synthesis_rhs(g, theta_constant):
    """A right-hand side without net mass: two radial bumps, the outer
    one scaled to cancel the inner one's mass, plus, unless theta_constant,
    modes 1, 2 and 5 in the angle."""
    r = g.r_nodes[:, None]
    inner = np.repeat(smooth_bump(r, 1.5, 3.0), g.spec.n_theta, axis=1)
    outer = np.repeat(smooth_bump(r, 3.0, 5.0), g.spec.n_theta, axis=1)
    vals = inner - outer * (total_mass(ScalarField(g, inner))
                            / total_mass(ScalarField(g, outer)))
    if not theta_constant:
        t = g.theta_nodes
        vals = vals + smooth_bump(r, 1.2, 4.0) * (
            np.cos(t) + 0.5 * np.sin(2 * t) - 0.25 * np.cos(5 * t))
    return ScalarField(g, vals)


def _elliptic_transforms(monkeypatch):
    """Counts of the np.fft.rfft and irfft calls that diskflow.elliptic
    makes from now on."""
    import sys
    counts = {"rfft": 0, "irfft": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "diskflow.elliptic":
                counts[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for name in counts:
        monkeypatch.setattr(np.fft, name,
                            counted(name, getattr(np.fft, name)))
    return counts


def _assert_same_solutions(got, want):
    """Equal bits and equal column-held status, array by array, of two
    (poisson phi, stream phi, w, u) tuples."""
    names = ("poisson phi", "stream phi", "w", "u")
    for name, a, b in zip(names, got, want, strict=True):
        for i, (x, y) in enumerate(zip(fields._components(a),
                                       fields._components(b), strict=True)):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
            assert (fields._column(a, i) is None) \
                == (fields._column(b, i) is None), name


@pytest.mark.parametrize("n_theta", [100, 128, 478])
@pytest.mark.parametrize("theta_constant", [True, False],
                         ids=["theta_constant", "varying"])
def test_synthesis_in_the_rfft_buffer_keeps_the_bits(monkeypatch, n_theta,
                                                     theta_constant):
    g = grid(65, n_theta, 8.0)
    rhs = _synthesis_rhs(g, theta_constant)
    counts = _elliptic_transforms(monkeypatch)
    got = (solve_poisson(rhs),) + solve_stream_helmholtz(rhs, 0.1)
    # mode 0 of a column-held right-hand side is in closed form only at
    # n_theta = 2^k or 3 * 2^k; at 100 and 478 both solves transform
    if theta_constant and n_theta == 128:
        assert counts == {"rfft": 0, "irfft": 0}
    else:
        assert counts == {"rfft": 2, "irfft": 2}
    monkeypatch.setattr(elliptic, "_synthesis", _fresh_spectrum_synthesis)
    want = (solve_poisson(rhs),) + solve_stream_helmholtz(rhs, 0.1)
    _assert_same_solutions(got, want)
    if theta_constant:
        assert isinstance(got[1]._cols[0], np.ndarray) \
            and got[1]._cols[0].shape == (65, 1)


def test_column_held_stream_solve_makes_no_full_size_buffer():
    # mode 0 of a column-held q is taken and synthesized in closed form:
    # no rfft output and no irfft output, only n_r-long solve arrays
    import tracemalloc
    g = grid(256, 128, 10.0)
    r = g.r_nodes[:, None]
    q = ScalarField(g, np.repeat(smooth_bump(r, 1.5, 5.0), 128, axis=1))
    solve_stream_helmholtz(q, 0.1)      # factors mode 0, finds q's column
    full = 256 * 128 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_stream_helmholtz(q, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < full // 4


# the gated n_theta of the grids' range (even, at least 8) up to 512
_CLOSED_FORM_N = [8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]


def test_closed_form_gate_is_powers_of_two_and_three_times_them():
    assert [n for n in range(8, 521, 2)
            if elliptic._closed_form(n)] == _CLOSED_FORM_N
    assert elliptic._closed_form(3 * 2 ** 20)
    assert not elliptic._closed_form(9 * 2 ** 20)


def _column_values():
    """Values of one radial column: signed magnitudes spread from 1e-300 to
    1e300, unit-scale values, +-0.0 and subnormals."""
    rng = np.random.default_rng(20)
    spread = 10.0 ** rng.uniform(-300.0, 300.0, 300)
    return np.concatenate([
        spread * rng.choice([-1.0, 1.0], 300), rng.normal(size=100),
        [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310,
         2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
         1.0, 1.0 / 3.0]])


def _dc_of_constant_rows(c, n_theta):
    return np.fft.rfft(np.repeat(c[:, None], n_theta, axis=1), axis=1)[:, 0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n_theta", _CLOSED_FORM_N)
def test_pocketfft_takes_mode_0_of_constant_rows_in_closed_form(n_theta):
    # the precondition of elliptic._spectrum and _synthesis: if numpy's
    # FFT changes how it sums or scales, this fails before any output moves
    c = _column_values()
    dc = _dc_of_constant_rows(c, n_theta)
    assert np.array_equal(_bits(dc.real), _bits(n_theta * c))
    assert np.array_equal(_bits(dc.imag), _bits(np.zeros_like(c)))
    spectrum = np.zeros((len(c), n_theta // 2 + 1), dtype=complex)
    spectrum.real[:, 0] = c
    spectrum.imag[:, 0] = c[::-1]           # the irfft ignores it
    col0 = np.fft.irfft(spectrum, n=n_theta, axis=1)[:, 0]
    assert np.array_equal(_bits(col0), _bits((c + 0.0) * (1.0 / n_theta)))


@pytest.mark.parametrize("n_theta", [36, 100])
def test_mode_0_of_constant_rows_is_not_n_c_off_the_gate(n_theta):
    # two odd factors (9, 25) round the DC sum twice: why the gate exists
    assert not elliptic._closed_form(n_theta)
    c = _column_values()
    dc = _dc_of_constant_rows(c, n_theta)
    assert not np.array_equal(_bits(dc.real), _bits(n_theta * c))


@pytest.mark.parametrize("n_theta", [8, 96, 384, 512])
def test_closed_form_spectrum_and_synthesis_keep_the_bits(n_theta):
    # the code's own closed forms against the transforms, on a column with
    # signed zeros and subnormals, which no solve of the tests produces
    c = _column_values()
    g = grid(len(c), n_theta, 8.0)
    f = ScalarField(g, np.repeat(c[:, None], n_theta, axis=1))
    coeff = elliptic._spectrum(f)
    want = np.fft.rfft(f.values, axis=1)
    assert coeff.shape == (len(c), 1)
    assert np.array_equal(_bits(coeff.real), _bits(want.real[:, :1]))
    assert np.array_equal(_bits(coeff.imag), _bits(want.imag[:, :1]))
    x = np.empty((len(c), 1), dtype=complex)    # c + 1j * c would lose -0.0
    x.real[:, 0] = c
    x.imag[:, 0] = c[::-1]
    got = elliptic._synthesis(g, coeff, (0,), x)
    full = np.zeros_like(want)
    full[:, :1] = x
    col0 = np.fft.irfft(full, n=n_theta, axis=1)[:, :1]
    assert got._cols[0].shape == (len(c), 1)
    assert np.array_equal(_bits(got._cols[0]), _bits(col0))


@pytest.mark.parametrize("n_theta", [36, 100, 478])
def test_held_spectrum_off_the_gate_is_the_rfft_column_0(n_theta):
    # a held right-hand side has a one-column spectrum at every n_theta;
    # off the gate that column and phi's come from the transforms
    c = _column_values()
    g = grid(len(c), n_theta, 8.0)
    f = ScalarField(g, np.repeat(c[:, None], n_theta, axis=1))
    coeff = elliptic._spectrum(f)
    want = np.fft.rfft(f.values, axis=1)
    assert coeff.shape == (len(c), 1) and coeff.flags.c_contiguous
    assert np.array_equal(_bits(coeff), _bits(want[:, :1]))
    x = np.empty((len(c), 1), dtype=complex)
    x.real[:, 0] = c
    x.imag[:, 0] = c[::-1]
    got = elliptic._synthesis(g, coeff, (0,), x)
    full = np.zeros_like(want)
    full[:, :1] = x
    col0 = np.fft.irfft(full, n=n_theta, axis=1)[:, :1]
    assert got._cols[0].shape == (len(c), 1)
    assert np.array_equal(_bits(got._cols[0]), _bits(col0))


@pytest.mark.parametrize("n_theta", [16, 96, 128, 384])
def test_closed_form_solves_match_the_transform_path(monkeypatch,
                                                    full_array_path, n_theta):
    g = grid(65, n_theta, 8.0)
    counts = _elliptic_transforms(monkeypatch)

    def solves():
        rhs = _synthesis_rhs(g, True)
        return (solve_poisson(rhs),) + solve_stream_helmholtz(rhs, 0.1)
    got = solves()
    assert counts == {"rfft": 0, "irfft": 0}
    assert all(isinstance(c, np.ndarray) for f in got for c in f._cols)
    # with no array held, both solves go through the FFTs and give the
    # same bits (the fields operators on their results take the exact
    # angular zeros of the tests' own scan)
    full_array_path(held_solves=False)
    want = solves()
    assert counts == {"rfft": 2, "irfft": 2}
    names = ("poisson phi", "stream phi", "w", "u")
    for name, a, b in zip(names, got, want, strict=True):
        for i, (x, y) in enumerate(zip(fields._components(a),
                                       fields._components(b), strict=True)):
            assert np.array_equal(_bits(x), _bits(y)), name
            assert fields._column(a, i) is not None, name
            assert fields._column(b, i) is None, name


def test_theta_constant_rows_of_mixed_zeros_take_the_transforms(monkeypatch):
    # a row of 0.0 and -0.0 holds one value but not one bit pattern, so
    # the right-hand side is not held and the solve transforms it
    g = grid(65, 128, 8.0)
    held = _synthesis_rhs(g, True)
    vals = held.values.copy()
    assert vals[0, 0] == 0.0
    vals[0, ::2] = -0.0
    rhs = ScalarField(g, vals)
    counts = _elliptic_transforms(monkeypatch)
    got = solve_stream_helmholtz(rhs, 0.1)
    assert fields._column(rhs) is None
    assert counts == {"rfft": 1, "irfft": 1}
    assert got[0].values.strides[1] != 0          # phi is full-size
    # the transforms of these constant rows give zeros in every m >= 1
    # mode at this n_theta, so the results equal those of the held
    # right-hand side up to the signs of zeros
    want = solve_stream_helmholtz(held, 0.1)
    assert counts == {"rfft": 1, "irfft": 1}
    for a, b in zip(got, want, strict=True):
        for x, y in zip(fields._components(a), fields._components(b)):
            assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# recover_q

def test_recover_q_zero_and_alpha_zero():
    g = grid(33, 8, 4.0)
    z = np.zeros((33, 8))
    from diskflow.fields import VectorField, curl_perp
    u = VectorField(g, z, z)
    assert np.abs(recover_q(u, 0.3).values).max() == 0.0
    rng = np.random.default_rng(4)
    u2 = VectorField(g, rng.normal(size=(33, 8)), rng.normal(size=(33, 8)))
    assert np.array_equal(recover_q(u2, 0.0).values, curl_perp(u2).values)


def test_recover_q_round_trip_second_order():
    errs = []
    alpha = 0.15
    for n_r in (65, 129):
        g = grid(n_r, 16, 8.0)
        phi_star = manufactured_phi(g)
        lap = laplacian(phi_star)
        q = ScalarField(g, lap.values - alpha ** 2 * laplacian(lap).values)
        phi, w, u = solve_stream_helmholtz(q, alpha)
        back = recover_q(u, alpha)
        d = (back.values - q.values)[3:-3]
        errs.append(float(np.sqrt(np.sum(g.weights[3:-3] * d ** 2))))
    assert 3.0 <= errs[0] / errs[1] <= 5.5


# ---------------------------------------------------------------------------
# scaling probe

def test_third_seminorm_scaling_of_stokes_velocity():
    # no-slip input: log-log slope of |D^3 u| vs alpha must stay above -2.1
    g = grid(129, 16, 8.0)
    psi = manufactured_phi(g)
    q = laplacian(psi)
    alphas = [0.4, 0.2, 0.1, 0.05]
    norms = []
    for alpha in alphas:
        phi, w, u = solve_stream_helmholtz(q, alpha)
        norms.append(seminorm_hk(u, 3))
    slope = np.polyfit(np.log(alphas), np.log(norms), 1)[0]
    assert slope >= -2.1


def test_dense_oracle_mode_zero():
    # independent dense assembly of the coupled (phi, W) system at mode 0
    n = 48
    g = grid(n, 8, 6.0)
    h = g.ds
    alpha = 0.13
    a2 = alpha ** 2
    e2 = np.exp(-2.0 * g.s_nodes)
    big = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    qr = smooth_bump(g.r_nodes, 1.8, 4.5)
    for i in range(1, n - 1):
        big[2 * i, 2 * (i - 1)] = e2[i] / h ** 2
        big[2 * i, 2 * i] = -2.0 * e2[i] / h ** 2
        big[2 * i, 2 * (i + 1)] = e2[i] / h ** 2
        big[2 * i, 2 * i + 1] = -1.0
        big[2 * i + 1, 2 * (i - 1) + 1] = -a2 * e2[i] / h ** 2
        big[2 * i + 1, 2 * i + 1] = 1.0 + 2.0 * a2 * e2[i] / h ** 2
        big[2 * i + 1, 2 * (i + 1) + 1] = -a2 * e2[i] / h ** 2
        rhs[2 * i + 1] = qr[i]
    big[0, 0] = 1.0
    big[1, 0], big[1, 2], big[1, 4] = -3.0, 4.0, -1.0
    big[2 * n - 2, 2 * n - 2] = 1.0
    big[2 * n - 1, 2 * n - 2] = 3.0
    big[2 * n - 1, 2 * n - 4] = -4.0
    big[2 * n - 1, 2 * n - 6] = 1.0
    dense_phi = np.linalg.solve(big, rhs)[0::2]

    q = ScalarField(g, np.repeat(qr[:, None], 8, axis=1))
    phi = solve_stream_helmholtz(q, alpha)[0]
    assert np.allclose(phi.values[:, 0], dense_phi, rtol=1e-9,
                       atol=1e-12 * max(1.0, np.abs(dense_phi).max()))
