import functools
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diskflow import fields
from diskflow.errors import ConfigError, NonFiniteFieldError
from diskflow.grid import GridSpec, build_grid
from diskflow.fields import (ScalarField, VectorField, perp_grad, curl_perp,
                             laplacian, advect, norm_l2, seminorm_hk,
                             seminorms_hk, inner_l2, grad_norm_l2,
                             vector_laplacian, advect_vector,
                             grad_transpose_apply, write_snapshot,
                             read_snapshot)


def grid(n_r=129, n_theta=32, r_max=8.0):
    return build_grid(GridSpec(n_r, n_theta, r_max))


def analytic_psi(g):
    # (1/r - 1/r^3) cos(theta): vanishes on the boundary ring, decays at infinity
    r = g.r_nodes[:, None]
    return ScalarField(g, (1.0 / r - 1.0 / r ** 3) * np.cos(g.theta_nodes))


# ---------------------------------------------------------------------------
# field construction

def test_scalar_field_copies_and_freezes():
    g = grid(16, 8, 4.0)
    a = np.ones((16, 8))
    f = ScalarField(g, a)
    a[0, 0] = 99.0
    assert f.values[0, 0] == 1.0
    assert not f.values.flags.writeable
    with pytest.raises(AttributeError):
        f.values = a


@pytest.mark.parametrize("build", [
    lambda g, a: ScalarField(g, a).values,
    lambda g, a: VectorField(g, a, np.zeros_like(a)).u_r,
    lambda g, a: VectorField(g, np.zeros_like(a), a).u_theta,
], ids=["scalar", "vector_u_r", "vector_u_theta"])
def test_public_constructors_copy_a_writeable_array(build):
    g = grid(16, 8, 4.0)
    a = np.ones((16, 8))
    kept = build(g, a)
    assert not np.shares_memory(kept, a)
    a[2, 3] = 99.0
    assert kept[2, 3] == 1.0
    assert a.flags.writeable and not kept.flags.writeable
    # a read-only array is kept as it is, after the same finiteness check
    a.flags.writeable = False
    assert build(g, a) is a
    b = np.ones((16, 8))
    b[5, 5] = np.nan
    b.flags.writeable = False
    with pytest.raises(ValueError, match="NaN or Inf"):
        build(g, b)


def test_operators_keep_their_fresh_results_without_a_copy(monkeypatch):
    from diskflow.dynamics import ModelParams, initial_state
    from diskflow.elliptic import recover_q
    from diskflow.harness import EnergyBudget
    from diskflow.initial_data import make_initial
    g = grid(33, 8, 4.0)
    psi = analytic_psi(g)
    copies = []
    real = fields._owned

    def owned(values, shape):
        out = real(values, shape)
        if out is not values:
            copies.append(shape)
        return out
    monkeypatch.setattr(fields, "_owned", owned)
    u = perp_grad(psi)
    lap = laplacian(psi)
    conv = advect(u, psi)
    w = curl_perp(u)
    q = recover_q(u, 0.2)
    u0 = make_initial(psi, 0.4)
    vlap = vector_laplacian(u)
    conv_v = advect_vector(u, u)
    gta = grad_transpose_apply(u, u)
    state = initial_state(ModelParams("euler_alpha", alpha=0.4), u0)
    EnergyBudget(0.1).add(state, u)
    assert copies == []
    for arr in (u.u_r, u.u_theta, lap.values, conv.values, w.values,
                q.values, u0.u_r, u0.u_theta, vlap.u_r, vlap.u_theta,
                conv_v.u_r, conv_v.u_theta, gta.u_r, gta.u_theta):
        assert not arr.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rejected(bad):
    g = grid(16, 8, 4.0)
    a = np.zeros((16, 8))
    a[3, 4] = bad
    with pytest.raises(ValueError):
        ScalarField(g, a)
    with pytest.raises(ValueError):
        VectorField(g, a, np.zeros_like(a))


def test_shape_mismatch_rejected():
    g = grid(16, 8, 4.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 16)))


def test_no_slip_tag_enforced():
    g = grid(16, 8, 4.0)
    ok = np.zeros((16, 8))
    bad = ok.copy()
    bad[0, :] = 1e-6
    VectorField(g, ok, ok, tag="no-slip")
    with pytest.raises(ValueError):
        VectorField(g, ok, bad, tag="no-slip")


def test_ring_tolerance_scales_with_large_fields():
    g = grid(16, 8, 4.0)
    big = np.full((16, 8), 1e5)
    big[0, :] = 5e-12          # roundoff of a field of size 1e5
    VectorField(g, big, big, tag="no-slip")
    big[0, :] = 1e-6
    with pytest.raises(ValueError):
        VectorField(g, big, big, tag="no-slip")


def test_non_penetration_tag_checks_radial_component_only():
    g = grid(16, 8, 4.0)
    u_r = np.zeros((16, 8))
    u_t = np.ones((16, 8))
    VectorField(g, u_r, u_t, tag="non-penetration")
    with pytest.raises(ValueError):
        VectorField(g, u_t, u_r, tag="non-penetration")
    with pytest.raises(ValueError):
        VectorField(g, u_r, u_t, tag="slippery")


# ---------------------------------------------------------------------------
# perp_grad

def test_perp_grad_radial_stream_function():
    g = grid()
    psi = ScalarField(g, np.repeat((g.r_nodes ** 2)[:, None], 32, axis=1))
    u = perp_grad(psi)
    assert np.abs(u.u_r).max() <= 1e-11
    # d(r^2)/dr = 2r, centered in s is exact only to O(h^2)
    assert np.allclose(u.u_theta[1:-1], 2.0 * g.r_nodes[1:-1, None], rtol=2e-4)


def test_perp_grad_boundary_trace():
    g = grid(257, 32, 8.0)
    u = perp_grad(analytic_psi(g))
    assert np.abs(u.u_r[0]).max() == 0.0
    # f'(1) = (-r^-2 + 3 r^-4)|_1 = 2
    assert np.allclose(u.u_theta[0], 2.0 * np.cos(g.theta_nodes), atol=2e-3)


def test_perp_grad_zero():
    g = grid(16, 8, 4.0)
    u = perp_grad(ScalarField(g, np.zeros((16, 8))))
    assert np.abs(u.u_r).max() == 0.0
    assert np.abs(u.u_theta).max() == 0.0


# ---------------------------------------------------------------------------
# curl_perp and laplacian

def test_curl_perp_zero():
    g = grid(16, 8, 4.0)
    z = np.zeros((16, 8))
    assert np.abs(curl_perp(VectorField(g, z, z)).values).max() == 0.0


def test_curl_perp_rigid_ring():
    g = grid()
    u = VectorField(g, np.zeros((129, 32)),
                    np.repeat(g.r_nodes[:, None], 32, axis=1))
    w = curl_perp(u)
    assert np.allclose(w.values[1:-1], 2.0, atol=1e-3)


def test_curl_of_perp_grad_is_laplacian_second_order():
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        psi = analytic_psi(g)
        d = curl_perp(perp_grad(psi)).values - laplacian(psi).values
        errs.append(np.abs(d[2:-2]).max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.5


def test_laplacian_constant():
    g = grid(16, 8, 4.0)
    f = ScalarField(g, np.full((16, 8), 3.7))
    assert np.abs(laplacian(f).values[1:-1]).max() <= 1e-10


def test_laplacian_log_r_harmonic():
    g = grid()
    f = ScalarField(g, np.repeat(np.log(g.r_nodes)[:, None], 32, axis=1))
    assert np.abs(laplacian(f).values[1:-1]).max() <= 1e-10


def test_laplacian_analytic_convergence():
    # Laplacian of (1/r - 1/r^3) cos(theta) is -8 r^-5 cos(theta)
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        r = g.r_nodes[:, None]
        exact = -8.0 * r ** -5 * np.cos(g.theta_nodes)
        got = laplacian(analytic_psi(g)).values
        errs.append(np.abs((got - exact)[1:-1]).max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.5
    assert errs[1] <= 5e-3


def _test_div(u, g, order):
    # independent divergence evaluation, written out from scratch here
    r = g.r_nodes[:, None]
    h = g.ds
    ru_r = r * u.u_r
    d_r = np.zeros_like(ru_r)
    if order == 2:
        d_r[1:-1] = (ru_r[2:] - ru_r[:-2]) / (2 * h)
        lo, hi = 1, -1
    else:
        d_r[2:-2] = (-ru_r[4:] + 8 * ru_r[3:-1]
                     - 8 * ru_r[1:-3] + ru_r[:-4]) / (12 * h)
        lo, hi = 2, -2
    kk = np.arange(g.spec.n_theta // 2 + 1)
    ft = np.fft.rfft(u.u_theta, axis=1) * (1j * kk)
    ft[:, -1] = 0
    d_t = np.fft.irfft(ft, n=g.spec.n_theta, axis=1)
    div = (d_r / r + d_t) / r
    return np.abs(div[lo:hi]).max()


def test_divergence_exact_with_matching_stencil():
    # the centered radial stencil commutes with the spectral angular one,
    # so discrete rotated gradients are divergence-free to roundoff inside
    g = grid(129)
    u = perp_grad(analytic_psi(g))
    assert _test_div(u, g, order=2) <= 1e-12


def test_divergence_second_order_against_finer_stencil():
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        u = perp_grad(analytic_psi(g))
        errs.append(_test_div(u, g, order=4))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.5


# ---------------------------------------------------------------------------
# advect

def test_advect_radial_scalar_azimuthal_flow():
    g = grid()
    q = ScalarField(g, np.repeat((g.r_nodes ** -2)[:, None], 32, axis=1))
    u = VectorField(g, np.zeros((129, 32)), np.ones((129, 32)))
    assert np.abs(advect(u, q).values).max() <= 1e-12


def test_advect_zero_velocity():
    g = grid(16, 8, 4.0)
    q = ScalarField(g, np.random.default_rng(0).normal(size=(16, 8)))
    u = VectorField(g, np.zeros((16, 8)), np.zeros((16, 8)))
    assert np.abs(advect(u, q).values).max() == 0.0


def test_advect_along_level_sets_is_exact_discretely():
    # the product structure cancels term by term for q = psi itself
    g = grid(129)
    psi = analytic_psi(g)
    assert np.abs(advect(perp_grad(psi), psi).values).max() <= 1e-12


def test_advect_along_level_sets_vanishes_under_refinement():
    # q = psi^2 is constant on streamlines too, but no longer cancels
    # discretely, so this one genuinely measures truncation error
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        psi = analytic_psi(g)
        q = ScalarField(g, psi.values ** 2)
        a = advect(perp_grad(psi), q).values
        errs.append(float(np.sqrt(np.sum(g.weights[1:-1] * a[1:-1] ** 2))))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.5


def test_advect_grid_mismatch():
    g1, g2 = grid(16, 8, 4.0), grid(16, 8, 4.0)
    q = ScalarField(g1, np.zeros((16, 8)))
    u = VectorField(g2, np.zeros((16, 8)), np.zeros((16, 8)))
    with pytest.raises(ValueError):
        advect(u, q)


# ---------------------------------------------------------------------------
# in-place kernels against the plain expressions they replace, bit for bit

def _plain_ds(a, h):
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return out


def _plain_dss(a, h):
    h2 = h * h
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h2
    out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h2
    out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h2
    return out


def _plain_dr(a, g):
    return fields._inv_r(g) * _plain_ds(a, g.ds)


def _plain_dtheta(a):
    """d/dtheta as an array: exact zeros for θ-constant a, where
    fields._dtheta returns None."""
    return np.zeros_like(a) if fields._theta_constant(a) \
        else fields._dtheta(a)


def _plain_dtheta2(a):
    return np.zeros_like(a) if fields._theta_constant(a) \
        else fields._dtheta2(a)


def _plain_laplacian(g, a):
    return fields._inv_r(g) ** 2 * (_plain_dss(a, g.ds) + _plain_dtheta2(a))


def _plain_grad_tensor(g, a, b):
    inv_r = fields._inv_r(g)
    return (_plain_dr(a, g), _plain_dr(b, g),
            inv_r * _plain_dtheta(a) - inv_r * b,
            inv_r * _plain_dtheta(b) + inv_r * a)


def _plain_vector_laplacian(g, a, b):
    inv_r2 = fields._inv_r(g) ** 2
    return (_plain_laplacian(g, a) - inv_r2 * a
            - 2.0 * inv_r2 * _plain_dtheta(b),
            _plain_laplacian(g, b) - inv_r2 * b
            + 2.0 * inv_r2 * _plain_dtheta(a))


def _plain_advect_vector(g, u_r, u_t, a_r, a_t):
    inv_r = fields._inv_r(g)
    return (u_r * _plain_dr(a_r, g) + u_t * inv_r * _plain_dtheta(a_r)
            - u_t * a_t * inv_r,
            u_r * _plain_dr(a_t, g) + u_t * inv_r * _plain_dtheta(a_t)
            + u_t * a_r * inv_r)


def _plain_norm(g, comps):
    total = 0.0
    for c in comps:
        total += float(np.sum(g.weights * c * c))
    return float(np.sqrt(total))


def _wild(rng, shape, theta_constant):
    """Magnitudes 1e-300..1e300 of either sign, a row of mixed signed
    zeros, a row of subnormals, a row of +-1e300, and θ-constant rows
    (every row when theta_constant)."""
    vals = rng.choice([-1.0, 1.0], size=shape) \
        * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    for i in (0, 3, -2):
        vals[i] = vals[i, 0]
    vals[5] = rng.choice([-0.0, 0.0], size=shape[1])
    vals[7] = rng.choice([-5e-324, 5e-324, -1e-310, 2.5e-320],
                         size=shape[1])
    vals[9] = rng.choice([-1e300, 1e300], size=shape[1])
    if theta_constant:
        vals[:] = vals[:, :1]
    return vals


def _moderate(rng, shape, theta_constant):
    vals = rng.normal(size=shape)
    vals[5] = rng.choice([-0.0, 0.0], size=shape[1])
    vals[3] = vals[3, 0]
    if theta_constant:
        vals[:] = vals[:, :1]
    return vals


SIGNED_ZEROS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0,
                         -1.0])


def _signed_zeros(rng, shape, theta_constant):
    """Signed zeros, subnormals and +-1, each row θ-constant or drawn per
    node: the exact zeros of the derivatives then carry either sign.  Rows
    10-13 are -0, +0, -0, -0, so d_ss at row 11 and d_s at row 12 are -0."""
    vals = rng.choice(SIGNED_ZEROS, size=shape)
    constant = rng.random(shape[0]) < 0.5
    vals[constant] = vals[constant, :1]
    vals[10:14] = np.array([-0.0, 0.0, -0.0, -0.0])[:, None]
    if theta_constant:
        vals[:] = vals[:, :1]
    return vals


def _same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape \
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _field_or_raise(build, want):
    """build()'s arrays, or None when want is not finite and build raised."""
    if all(np.isfinite(w).all() for w in want):
        return build()
    with pytest.raises(NonFiniteFieldError):
        build()
    return None


KERNEL_DATA = {"wild": _wild, "moderate": _moderate,
               "signed_zeros": _signed_zeros}


@pytest.mark.parametrize("order", [np.ascontiguousarray, np.asfortranarray],
                         ids=["C", "F"])
@pytest.mark.parametrize("theta_constant", [False, True, "a"],
                         ids=["mixed_rows", "theta_constant",
                              "only_a_theta_constant"])
@pytest.mark.parametrize("data", sorted(KERNEL_DATA))
def test_in_place_kernels_equal_the_plain_expressions(data, theta_constant,
                                                      order):
    # theta_constant "a": a alone is θ-constant, so each operator meets a
    # None d/dtheta beside a transformed operand
    g = grid(33, 16, 8.0)
    rng = np.random.default_rng(5)
    a, b, c = (order(KERNEL_DATA[data](rng, (33, 16),
                                       theta_constant is True or i == 0
                                       and theta_constant == "a"))
               for i in range(3))
    for arr in (a, b, c):
        arr.flags.writeable = False     # fields keep them in this order
    inv_r = fields._inv_r(g)
    with np.errstate(all="ignore"):
        assert _same_bits(fields._ds(a, g.ds), _plain_ds(a, g.ds))
        assert _same_bits(fields._dss(a, g.ds), _plain_dss(a, g.ds))
        assert _same_bits(fields._dr(a, g), _plain_dr(a, g))

        want = (-inv_r * _plain_dtheta(a), _plain_dr(a, g))
        u = _field_or_raise(lambda: perp_grad(ScalarField(g, a)), want)
        if u is not None:
            assert _same_bits(u.u_r, want[0])
            assert _same_bits(u.u_theta, want[1])

        want = (inv_r * (inv_r * _plain_ds(g.r_nodes[:, None] * b, g.ds)
                         - _plain_dtheta(a)),)
        w = _field_or_raise(lambda: curl_perp(VectorField(g, a, b)), want)
        if w is not None:
            assert _same_bits(w.values, want[0])

        want = (_plain_laplacian(g, a),)
        lap = _field_or_raise(lambda: laplacian(ScalarField(g, a)), want)
        if lap is not None:
            assert _same_bits(lap.values, want[0])

        want = (b * _plain_dr(a, g) + c * inv_r * _plain_dtheta(a),)
        conv = _field_or_raise(
            lambda: advect(VectorField(g, b, c), ScalarField(g, a)), want)
        if conv is not None:
            assert _same_bits(conv.values, want[0])

        u = VectorField(g, a, b)
        want = _plain_grad_tensor(g, a, b)
        got = fields.grad_tensor(u)
        assert all(_same_bits(x, y) for x, y in zip(got, want, strict=True))
        assert _same_bits(norm_l2(u), _plain_norm(g, (a, b)))
        assert _same_bits(grad_norm_l2(u), _plain_norm(g, want))
        assert _same_bits(inner_l2(u, VectorField(g, c, a)),
                          0.0 + float(np.sum(g.weights * a * c))
                          + float(np.sum(g.weights * b * a)))

        # the vector operators of the energy audit
        want = _plain_vector_laplacian(g, a, b)
        got = _field_or_raise(lambda: vector_laplacian(u), want)
        if got is not None:
            assert _same_bits(got.u_r, want[0])
            assert _same_bits(got.u_theta, want[1])

        want = _plain_advect_vector(g, b, c, a, b)
        got = _field_or_raise(lambda: advect_vector(VectorField(g, b, c), u),
                              want)
        if got is not None:
            assert _same_bits(got.u_r, want[0])
            assert _same_bits(got.u_theta, want[1])

        t_rr, t_rt, t_tr, t_tt = _plain_grad_tensor(g, a, b)
        want = (t_rr * c + t_rt * a, t_tr * c + t_tt * a)
        got = _field_or_raise(
            lambda: grad_transpose_apply(u, VectorField(g, c, a)), want)
        if got is not None:
            assert _same_bits(got.u_r, want[0])
            assert _same_bits(got.u_theta, want[1])


# ---------------------------------------------------------------------------
# angular derivatives of θ-constant arrays

ANGULAR = (fields._dtheta, fields._dtheta2)


def fft_path(monkeypatch, dtheta, a):
    """dtheta(a) with the θ-constant shortcut switched off."""
    with monkeypatch.context() as m:
        m.setattr(fields, "_theta_constant", lambda a: False)
        return dtheta(a)


def constant_rows(n_theta, seed=0):
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-8.0, 8.0, 40) * rng.choice([-1.0, 1.0], 40)
    col = np.concatenate([mags, [5e-324, -5e-324, 0.0, -0.0, 1e300, -1e300]])
    rows = np.repeat(col[:, None], n_theta, axis=1)
    signed = np.zeros((2, n_theta))
    signed[0, ::2] = -0.0   # rows mixing 0.0 and -0.0
    signed[1, 1::3] = -0.0
    return np.vstack([rows, signed])


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("n_theta", [8, 16, 32, 48, 96, 128])
def test_theta_constant_rows_match_the_fft_path(monkeypatch, dtheta, n_theta):
    # None stands for the exact zeros that the transform gives
    a = constant_rows(n_theta, seed=n_theta)
    assert fields._theta_constant(a)
    assert dtheta(a) is None
    assert not fft_path(monkeypatch, dtheta, a).any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("order", [np.ascontiguousarray, np.asfortranarray])
def test_theta_constant_shortcut_ignores_memory_order(monkeypatch, dtheta,
                                                       order):
    a = order(constant_rows(32))
    assert fields._theta_constant(a)
    assert dtheta(a) is None
    assert not fft_path(monkeypatch, dtheta, a).any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("column", [0, 16, 31])
def test_one_off_constant_entry_takes_the_fft_path(monkeypatch, dtheta,
                                                    column):
    a = constant_rows(32)
    a[5, column] *= 1.0 + 1e-12
    assert not fields._theta_constant(a)
    got = dtheta(a)
    assert np.array_equal(got, fft_path(monkeypatch, dtheta, a))
    assert got[5].any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_take_the_fft_path(monkeypatch, dtheta, bad):
    a = constant_rows(16)
    a[3] = bad
    assert not fields._theta_constant(a)
    with np.errstate(invalid="ignore"):
        got = dtheta(a)
        want = fft_path(monkeypatch, dtheta, a)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[3]).all()


@pytest.mark.parametrize("dtheta", ANGULAR)
def test_theta_constant_rows_near_overflow_give_exact_zeros(monkeypatch,
                                                             dtheta):
    # the FFT's mode-0 sum 128 x 1e308 overflows, so the transform path
    # reads NaN on a finite field; the shortcut never forms that sum
    a = np.repeat(np.array([[1e308], [-1e308]]), 128, axis=1)
    assert dtheta(a) is None
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(fft_path(monkeypatch, dtheta, a)).all()


# ---------------------------------------------------------------------------
# norms

def test_norm_zero():
    g = grid(16, 8, 4.0)
    assert norm_l2(ScalarField(g, np.zeros((16, 8)))) == 0.0


def test_norm_constant_equals_area():
    g = grid(64, 16, 8.0)
    f = ScalarField(g, np.ones((64, 16)))
    assert abs(norm_l2(f) ** 2 - math.pi * 63.0) <= 1e-11 * math.pi * 63.0


def test_seminorm_rejects_bad_order():
    g = grid(16, 8, 4.0)
    f = ScalarField(g, np.zeros((16, 8)))
    for k in (0, 4, -1):
        for norms in (seminorm_hk, seminorms_hk):
            with pytest.raises(ConfigError) as exc:
                norms(f, k)
            assert exc.value.key == "k"


def _seminorm_by_words(f, k):
    """Every word in {d/dr, (1/r) d/dtheta}^k applied to every component."""
    g = f.grid
    comps = [f.values] if isinstance(f, ScalarField) else [f.u_r, f.u_theta]
    total = 0.0
    for comp in comps:
        for word in itertools.product("rt", repeat=k):
            c = comp
            for d in word:
                c = fields._dr(c, g) if d == "r" \
                    else fields._inv_r(g) * _plain_dtheta(c)
            total += float(np.sum(g.weights * c * c))
    return float(np.sqrt(total))


def _radial_velocity(g, rng):
    r = g.r_nodes[:, None]
    psi = (1.0 - 1.0 / r) ** 2 * np.exp(-r) * np.ones(g.spec.n_theta)
    return perp_grad(ScalarField(g, psi))


def _constant_rows(g, rng):
    return np.repeat(rng.normal(size=(g.spec.n_r, 1)), g.spec.n_theta, axis=1)


def _nyquist_row(g, rng):
    vals = _constant_rows(g, rng)
    vals[7] += 0.5 * (-1.0) ** np.arange(g.spec.n_theta)
    return vals


def _overflowing_derivative(g, rng):
    # θ-constant, but its d/dr overflows on one row: that d/dr is no longer
    # θ-constant and its angular derivative (NaN there) is taken again
    vals = np.zeros((g.spec.n_r, g.spec.n_theta))
    vals[10], vals[12] = 1e307, -1e307
    return ScalarField(g, vals)


SEMINORM_INPUTS = {
    "overflowing_derivative": _overflowing_derivative,
    "scalar": lambda g, rng: ScalarField(g, rng.normal(size=(65, 32))),
    "vector": lambda g, rng: VectorField(g, rng.normal(size=(65, 32)),
                                         rng.normal(size=(65, 32))),
    "radial_velocity": _radial_velocity,
    "zero_component": lambda g, rng: VectorField(
        g, np.zeros((65, 32)), rng.normal(size=(65, 32))),
    "constant_beside_varying": lambda g, rng: VectorField(
        g, _constant_rows(g, rng), rng.normal(size=(65, 32))),
    "nyquist_row": lambda g, rng: VectorField(
        g, _nyquist_row(g, rng), _constant_rows(g, rng)),
}


@pytest.mark.parametrize("case", sorted(SEMINORM_INPUTS))
def test_seminorms_of_every_order_from_one_pass(case):
    g = grid(65, 32, 8.0)
    f = SEMINORM_INPUTS[case](g, np.random.default_rng(11))
    with np.errstate(all="ignore"):
        got = seminorms_hk(f, 3)
        assert len(got) == 3
        for k in (1, 2, 3):
            assert np.array_equal(got[k - 1], _seminorm_by_words(f, k),
                                  equal_nan=True)
            assert np.array_equal(seminorms_hk(f, k), got[:k], equal_nan=True)
            assert np.array_equal(seminorm_hk(f, k), got[k - 1],
                                  equal_nan=True)
    if case == "radial_velocity":
        assert got[2] > 0.0
    if case == "overflowing_derivative":
        assert got[0] == np.inf and np.isnan(got[1])


def test_seminorms_of_a_radial_velocity_take_three_radial_derivatives(
        monkeypatch):
    # the words with a d/dtheta are exact zeros: only d/dr, d/dr^2 and
    # d/dr^3 of u_theta are taken, and u_r = 0 is dropped (14 _dr before)
    g = grid(65, 32, 8.0)
    u = _radial_velocity(g, None)
    want = seminorms_hk(u, 3)
    calls = {"dr": 0, "fft": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(fields, "_dr", counting("dr", fields._dr))
    for attr in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, attr,
                            counting("fft", getattr(np.fft, attr)))
    assert seminorms_hk(u, 3) == want
    assert calls == {"dr": 3, "fft": 0}


def test_seminorm_h1_matches_radial_oracle():
    # oracle: |grad psi|^2 = f'^2 + (f/r)^2 for psi = f(r) cos(theta),
    # integrated by dense 1D trapezoid; angular average of cos^2 is 1/2
    r = np.linspace(1.0, 8.0, 400001)
    f = 1.0 / r - 1.0 / r ** 3
    fp = -1.0 / r ** 2 + 3.0 / r ** 4
    integrand = (fp ** 2 + (f / r) ** 2) * r
    exact = math.pi * np.trapezoid(integrand, r)

    g = grid(257, 32, 8.0)
    got = seminorm_hk(analytic_psi(g), 1) ** 2
    assert abs(got - exact) <= 0.01 * exact


def test_parseval_consistency():
    g = grid(64, 32, 8.0)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.normal(size=(64, 32)))
    nodal = norm_l2(f) ** 2

    coeff = np.fft.rfft(f.values, axis=1)
    n = g.spec.n_theta
    mode_sq = (np.abs(coeff[:, 0]) ** 2
               + 2.0 * np.sum(np.abs(coeff[:, 1:n // 2]) ** 2, axis=1)
               + np.abs(coeff[:, n // 2]) ** 2) / n ** 2
    radial_w = g.weights[:, 0] * n  # total angular weight per radial node
    modal = float(np.sum(radial_w * mode_sq))
    assert abs(nodal - modal) <= 1e-10 * nodal


def test_operators_linear():
    g = grid(33, 16, 4.0)
    rng = np.random.default_rng(3)
    a = ScalarField(g, rng.normal(size=(33, 16)))
    b = ScalarField(g, rng.normal(size=(33, 16)))
    c1, c2 = 1.7, -0.3
    comb = ScalarField(g, c1 * a.values + c2 * b.values)
    for op in (laplacian,):
        lhs = op(comb).values
        rhs = c1 * op(a).values + c2 * op(b).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)
    lhs = perp_grad(comb)
    ra = perp_grad(a)
    rb = perp_grad(b)
    assert np.allclose(lhs.u_r, c1 * ra.u_r + c2 * rb.u_r, rtol=1e-12, atol=1e-9)
    assert np.allclose(lhs.u_theta, c1 * ra.u_theta + c2 * rb.u_theta,
                       rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# vector operators used by the energy audit

def test_grad_transpose_apply_is_gradient_of_half_speed():
    # (grad u)^T u = grad(|u|^2 / 2); compare through the rotated gradient
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        u = perp_grad(analytic_psi(g))
        w = grad_transpose_apply(u, u)
        half = ScalarField(g, 0.5 * (u.u_r ** 2 + u.u_theta ** 2))
        v = perp_grad(half)  # rotate: grad f = (v_theta, -v_r)
        d = ((w.u_r - v.u_theta) ** 2 + (w.u_theta + v.u_r) ** 2)[2:-2]
        errs.append(float(np.sqrt(np.sum(g.weights[2:-2] * d))))
    assert errs[0] / errs[1] >= 3.0


def test_advect_vector_centripetal():
    g = grid()
    u_t = np.repeat((g.r_nodes ** -1)[:, None], 32, axis=1)
    u = VectorField(g, np.zeros((129, 32)), u_t)
    conv = advect_vector(u, u)
    r = g.r_nodes[:, None]
    assert np.allclose(conv.u_r, -u_t ** 2 / r, rtol=0, atol=1e-12)
    assert np.abs(conv.u_theta).max() <= 1e-12


def test_vector_laplacian_commutes_with_perp_grad():
    # Delta (perp_grad psi) = perp_grad (Delta psi) in the continuum
    errs = []
    for n_r in (65, 129):
        g = grid(n_r)
        psi = analytic_psi(g)
        lhs = vector_laplacian(perp_grad(psi))
        rhs = perp_grad(laplacian(psi))
        err = max(np.abs(lhs.u_r - rhs.u_r)[2:-2].max(),
                  np.abs(lhs.u_theta - rhs.u_theta)[2:-2].max())
        errs.append(err)
    assert errs[0] / errs[1] >= 3.0


def test_vector_laplacian_azimuthal_shear():
    # u = (0, f(r)) with f = 1/r - 1/r^3 gives (Delta u)_theta = -8 r^-5
    g = grid(257, 16, 8.0)
    f = 1.0 / g.r_nodes - g.r_nodes ** -3.0
    u = VectorField(g, np.zeros((257, 16)),
                    np.repeat(f[:, None], 16, axis=1))
    lap = vector_laplacian(u)
    r = g.r_nodes[1:-1, None]
    assert np.abs(lap.u_r).max() <= 1e-10
    assert np.allclose(lap.u_theta[1:-1], -8.0 * r ** -5.0, atol=2e-3)


def test_grad_norm_matches_seminorm_for_radial_velocity():
    # curvature terms vanish only for u = (f(r), 0) with extra structure;
    # instead check the exact-polar norm against a 1D oracle for u = (0, f(r)):
    # |grad u|^2 = f'^2 + (f/r)^2
    r = np.linspace(1.0, 8.0, 400001)
    f = 1.0 / r - 1.0 / r ** 3
    fp = -1.0 / r ** 2 + 3.0 / r ** 4
    exact = 2.0 * math.pi * np.trapezoid((fp ** 2 + (f / r) ** 2) * r, r)

    g = grid(257, 16, 8.0)
    fr = 1.0 / g.r_nodes - g.r_nodes ** -3.0
    u = VectorField(g, np.zeros((257, 16)),
                    np.repeat(fr[:, None], 16, axis=1))
    got = grad_norm_l2(u) ** 2
    assert abs(got - exact) <= 0.01 * exact


def test_inner_product_polarization():
    g = grid(33, 16, 4.0)
    rng = np.random.default_rng(11)
    f = ScalarField(g, rng.normal(size=(33, 16)))
    h = ScalarField(g, rng.normal(size=(33, 16)))
    lhs = inner_l2(f, h)
    rhs = 0.25 * (norm_l2(ScalarField(g, f.values + h.values)) ** 2
                  - norm_l2(ScalarField(g, f.values - h.values)) ** 2)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# snapshots

@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_snapshot_roundtrip(fmt, tmp_path):
    g = grid(33, 16, 4.0)
    rng = np.random.default_rng(9)
    f = ScalarField(g, rng.normal(size=(33, 16)))
    path = tmp_path / ("snap." + fmt)
    write_snapshot(f, path, time=0.25, alpha=0.1, nu=1e-3, fmt=fmt)
    back, meta = read_snapshot(path, g)
    assert np.array_equal(back.values, f.values)
    assert meta["time"] == 0.25
    assert meta["alpha"] == 0.1
    assert meta["nu"] == 1e-3


def test_snapshot_grid_mismatch(tmp_path):
    g = grid(33, 16, 4.0)
    other = grid(33, 16, 8.0)
    f = ScalarField(g, np.zeros((33, 16)))
    path = tmp_path / "snap.csv"
    write_snapshot(f, path, time=0.0, alpha=0.1, nu=0.0)
    with pytest.raises(ConfigError):
        read_snapshot(path, other)


def test_snapshot_bad_format(tmp_path):
    g = grid(16, 8, 4.0)
    f = ScalarField(g, np.zeros((16, 8)))
    with pytest.raises(ConfigError):
        write_snapshot(f, tmp_path / "x", time=0.0, alpha=0.1, nu=0.0,
                       fmt="hdf5")


def test_csv_snapshot_of_binary_length_reads_as_csv(tmp_path):
    # 64 values of "0.03125" plus separators are exactly 8*8*8 bytes, the
    # length of a binary body; the header, not the length, names the format
    g = grid(8, 8, 4.0)
    f = ScalarField(g, np.full((8, 8), 0.03125))
    path = tmp_path / "snap.csv"
    write_snapshot(f, path, time=0.0, alpha=0.1, nu=0.0)
    back, meta = read_snapshot(path, g)
    assert np.array_equal(back.values, f.values)
    assert "format" not in meta


def savetxt_body(values):
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def csv_body(f, path):
    write_snapshot(f, path, time=0.0, alpha=0.1, nu=0.0)
    with open(path) as fh:
        fh.readline()
        return fh.read()


def test_csv_row_of_signed_zeros_keeps_each_sign(tmp_path):
    # the rows compare equal as floats but hold two bit patterns
    g = grid(8, 8, 4.0)
    vals = np.full((8, 8), 0.25)
    vals[0] = [-0.0] + [0.0] * 7
    vals[1] = [0.0] + [-0.0] * 7
    body = csv_body(ScalarField(g, vals), tmp_path / "snap.csv")
    assert body.splitlines()[:2] == ["-0" + ",0" * 7, "0" + ",-0" * 7]
    assert body == savetxt_body(vals)


@functools.lru_cache(maxsize=None)
def cached_grid(n_r, n_theta):
    return grid(n_r, n_theta, 4.0)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           1e308, -1e308, 1.0, 0.1]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshot_values(draw):
    n_r, n_theta = draw(st.integers(8, 12)), draw(st.sampled_from([8, 10]))
    rows = []
    for _ in range(n_r):
        kind = draw(st.sampled_from(["constant", "zeros", "special",
                                     "random"]))
        if kind == "constant":
            rows.append([draw(FINITE | st.sampled_from(SPECIAL))] * n_theta)
        else:
            cell = {"zeros": st.sampled_from([0.0, -0.0]),
                    "special": st.sampled_from(SPECIAL),
                    "random": FINITE}[kind]
            rows.append(draw(st.lists(cell, min_size=n_theta,
                                      max_size=n_theta)))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vals=snapshot_values())
def test_csv_body_is_savetxt_output(vals, tmp_path):
    g = cached_grid(*vals.shape)
    assert csv_body(ScalarField(g, vals), tmp_path / "snap.csv") \
        == savetxt_body(vals)


@pytest.mark.filterwarnings("ignore:loadtxt")  # the empty body
@pytest.mark.parametrize("content", [
    b'{"n_r": 8, "n_theta": 8, "r_max": 4.0}\n1,2,3\n',
    b'{"n_r": 8, "n_theta": 8, "r_max": 4.0}\n',
    b'{"n_r": 8, "n_theta": 8, "r_max": 4.0, "format": "binary"}\n\0\0\0',
    b'{"n_r": 8, "n_theta": 8, "r_max": 4.0, "format": "hdf5"}\n',
    b'{"n_r": 8, "r_max": 4.0}\n1\n',
    b'[8, 8]\n1\n',
    b'not json\n1\n',
    b'{"n_r": 1, "n_theta": 2, "r_max": 4.0}\nnan,1\n',
    # the header's n_r x n_theta transposed: as many values, wrong layout
    pytest.param(
        b'{"n_r": 16, "n_theta": 8, "r_max": 4.0}\n'
        + b"".join(b",".join(b"%d" % (16 * i + j) for j in range(16)) + b"\n"
                   for i in range(8)),
        id="transposed-body"),
])
def test_malformed_snapshot_is_a_config_error(content, tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as err:
        read_snapshot(path)
    assert err.value.key == "snapshot"
