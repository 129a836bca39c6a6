import functools
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import one_bit_pattern_column
from diskflow import fields
from diskflow.errors import ConfigError, EllipticSolveError, NonFiniteFieldError
from diskflow.grid import GridSpec, build_grid, tail_weights
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
    # a read-only view is not: its base may still be written
    base = np.ones((16, 8))
    view = base[:]
    view.flags.writeable = False
    kept = build(g, view)
    base[2, 3] = 99.0
    assert kept[2, 3] == 1.0
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
    """d/dtheta as an array: exact zeros for an (n_r, 1) column, where
    fields._dtheta returns None."""
    return np.zeros_like(a) if a.shape[1] == 1 else fields._dtheta(a)


def _plain_dtheta2(a):
    return np.zeros_like(a) if a.shape[1] == 1 else fields._dtheta2(a)


def _plain_operands(*arrays):
    """The arrays as an operator takes them: their columns when every one
    holds one bit pattern per row, else the arrays themselves."""
    cols = [one_bit_pattern_column(x) for x in arrays]
    return arrays if any(c is None for c in cols) else cols


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
    # theta_constant "a": a alone is θ-constant, so an operator that takes
    # a with b or c runs at full size and transforms a too; the plain
    # expressions take what _plain_operands gives and a column stands for
    # its full-size broadcast
    g = grid(33, 16, 8.0)
    rng = np.random.default_rng(5)
    a, b, c = (order(KERNEL_DATA[data](rng, (33, 16),
                                       theta_constant is True or i == 0
                                       and theta_constant == "a"))
               for i in range(3))
    for arr in (a, b, c):
        arr.flags.writeable = False     # fields keep them in this order
    inv_r = fields._inv_r(g)

    def same(got, want):
        return _same_bits(np.broadcast_to(got, a.shape),
                          np.broadcast_to(want, a.shape))
    with np.errstate(all="ignore"):
        assert _same_bits(fields._ds(a, g.ds), _plain_ds(a, g.ds))
        assert _same_bits(fields._dss(a, g.ds), _plain_dss(a, g.ds))
        assert _same_bits(fields._dr(a, g), _plain_dr(a, g))

        (pa,) = _plain_operands(a)
        want = (-inv_r * _plain_dtheta(pa), _plain_dr(pa, g))
        u = _field_or_raise(lambda: perp_grad(ScalarField(g, a)), want)
        if u is not None:
            assert same(u.u_r, want[0])
            assert same(u.u_theta, want[1])

        pa, pb = _plain_operands(a, b)
        want = (inv_r * (inv_r * _plain_ds(g.r_nodes[:, None] * pb, g.ds)
                         - _plain_dtheta(pa)),)
        w = _field_or_raise(lambda: curl_perp(VectorField(g, a, b)), want)
        if w is not None:
            assert same(w.values, want[0])

        (pa,) = _plain_operands(a)
        want = (_plain_laplacian(g, pa),)
        lap = _field_or_raise(lambda: laplacian(ScalarField(g, a)), want)
        if lap is not None:
            assert same(lap.values, want[0])

        pa, pb, pc = _plain_operands(a, b, c)
        want = (pb * _plain_dr(pa, g) + pc * inv_r * _plain_dtheta(pa),)
        conv = _field_or_raise(
            lambda: advect(VectorField(g, b, c), ScalarField(g, a)), want)
        if conv is not None:
            assert same(conv.values, want[0])

        u = VectorField(g, a, b)
        tensor = _plain_grad_tensor(g, *_plain_operands(a, b))
        got = fields._grad_tensor(u)
        assert all(same(x, y) for x, y in zip(got, tensor, strict=True))
        assert _same_bits(norm_l2(u), _plain_norm(g, (a, b)))
        assert _same_bits(grad_norm_l2(u), _plain_norm(g, tensor))
        assert _same_bits(inner_l2(u, VectorField(g, c, a)),
                          0.0 + float(np.sum(g.weights * a * c))
                          + float(np.sum(g.weights * b * a)))

        # the vector operators of the energy audit
        want = _plain_vector_laplacian(g, *_plain_operands(a, b))
        got = _field_or_raise(lambda: vector_laplacian(u), want)
        if got is not None:
            assert same(got.u_r, want[0])
            assert same(got.u_theta, want[1])

        want = _plain_advect_vector(g, *_plain_operands(b, c, a, b))
        got = _field_or_raise(lambda: advect_vector(VectorField(g, b, c), u),
                              want)
        if got is not None:
            assert same(got.u_r, want[0])
            assert same(got.u_theta, want[1])

        t_rr, t_rt, t_tr, t_tt = tensor
        pc, pa = _plain_operands(a, b, c, a)[2:]
        want = (t_rr * pc + t_rt * pa, t_tr * pc + t_tt * pa)
        got = _field_or_raise(
            lambda: grad_transpose_apply(u, VectorField(g, c, a)), want)
        if got is not None:
            assert same(got.u_r, want[0])
            assert same(got.u_theta, want[1])


# ---------------------------------------------------------------------------
# angular derivatives of θ-constant arrays

ANGULAR = (fields._dtheta, fields._dtheta2)


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
def test_theta_constant_rows_match_the_fft_path(dtheta, n_theta):
    # None, for a held array, stands for the exact zeros that the
    # transform gives
    a = constant_rows(n_theta, seed=n_theta)
    held = a[:-2]           # the rows that hold one bit pattern each
    col = fields._bit_column(held)
    assert col is not None and _same_bits(col, held[:, :1])
    assert dtheta(col) is None
    assert not dtheta(held).any()
    # the rows of 0.0 and -0.0 are not held, so the whole array takes the
    # transform, which gives zeros on every row
    assert fields._bit_column(a) is None
    assert fields._bit_column(a[-2:]) is None
    assert not dtheta(a).any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("order", [np.ascontiguousarray, np.asfortranarray])
def test_theta_constant_shortcut_ignores_memory_order(dtheta, order):
    a = order(constant_rows(32))
    assert fields._bit_column(a) is None
    assert not dtheta(a).any()
    held = order(a[:-2])
    col = fields._bit_column(held)
    assert col is not None and _same_bits(col, held[:, :1])
    assert dtheta(col) is None
    assert not dtheta(held).any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("column", [0, 16, 31])
def test_one_off_constant_entry_takes_the_fft_path(dtheta, column):
    # column 16 is the middle column the scan compares first
    a = constant_rows(32)
    held = a[:-2]
    assert fields._bit_column(held) is not None
    a[5, column] *= 1.0 + 1e-12
    assert fields._bit_column(held) is None
    got = dtheta(a)
    assert got[5].any()
    assert not np.delete(got, 5, axis=0).any()


@pytest.mark.parametrize("dtheta", ANGULAR)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_take_the_fft_path(dtheta, bad):
    # the bad row holds one bit pattern: the finite check rejects it
    a = constant_rows(16)
    a[3] = bad
    assert fields._bit_column(a[:-2]) is None
    with np.errstate(invalid="ignore"):
        got = dtheta(a)
    assert np.isnan(got[3]).all()


@pytest.mark.parametrize("dtheta", ANGULAR)
def test_theta_constant_rows_near_overflow_give_exact_zeros(dtheta):
    # the FFT's mode-0 sum 128 x 1e308 overflows, so the transform path
    # reads NaN on a finite field; a held array's column never forms that
    # sum
    a = np.repeat(np.array([[1e308], [-1e308]]), 128, axis=1)
    col = fields._bit_column(a)
    assert col is not None
    assert dtheta(col) is None
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(dtheta(a)).all()


# ---------------------------------------------------------------------------
# θ-constancy: the held column

def _scan_data(kind, rng, shape):
    """radial: smooth θ-constant rows; perturbed: rows that vary;
    mixed_zeros: θ-constant rows, three of them 0.0 and -0.0 mixed;
    huge: θ-constant rows, three of them +-1e308, so derivatives
    overflow; wild: θ-constant rows from 1e-300 to 1e300 and subnormals."""
    if kind == "perturbed":
        return rng.normal(size=shape)
    if kind == "wild":
        return _wild(rng, shape, True)
    vals = np.repeat(rng.normal(size=(shape[0], 1)), shape[1], axis=1)
    if kind == "mixed_zeros":
        vals[[2, 5, 11]] = rng.choice([0.0, -0.0], size=(3, shape[1]))
    elif kind == "huge":
        vals[[4, 5, 20]] = np.array([1e308, -1e308, 1e308])[:, None]
    return vals


SCAN_KINDS = ("radial", "perturbed", "mixed_zeros", "huge", "wild")


def _scan_outputs(g, a, b, c):
    """Every public operator and both elliptic solves on fields of a, b, c
    (a with its ring row zeroed where an operator needs that)."""
    from diskflow.boundary_layer import build_corrector
    from diskflow.elliptic import recover_q, solve_poisson, \
        solve_stream_helmholtz
    from diskflow.initial_data import make_initial
    a0 = a.copy()
    a0[0] = 0.0
    ops = {
        "perp_grad": lambda: perp_grad(ScalarField(g, a)),
        "laplacian": lambda: laplacian(ScalarField(g, a)),
        "curl_perp": lambda: curl_perp(VectorField(g, a, b)),
        "advect": lambda: advect(VectorField(g, b, c), ScalarField(g, a)),
        "difference": lambda: fields.difference(VectorField(g, a, b),
                                                VectorField(g, c, a)),
        "vector_laplacian": lambda: vector_laplacian(VectorField(g, a, b)),
        "advect_vector": lambda: advect_vector(VectorField(g, b, c),
                                               VectorField(g, a, b)),
        "grad_transpose_apply": lambda: grad_transpose_apply(
            VectorField(g, a, b), VectorField(g, c, a)),
        "recover_q": lambda: recover_q(VectorField(g, a, b), 0.2),
        "solve_poisson": lambda: solve_poisson(ScalarField(g, a),
                                               mass_tol=math.inf),
        "solve_stream_helmholtz": lambda: solve_stream_helmholtz(
            ScalarField(g, a), 0.2),
        "make_initial": lambda: make_initial(ScalarField(g, a0), 0.3),
        "build_corrector": lambda: build_corrector(ScalarField(g, a0), 0.3),
    }
    for name, op in ops.items():
        try:
            out = op()
        except (NonFiniteFieldError, EllipticSolveError):
            yield name, None
            continue
        yield name, out if isinstance(out, tuple) else (out,)


OPERATORS = {"perp_grad", "laplacian", "curl_perp", "advect", "difference",
             "vector_laplacian", "advect_vector", "grad_transpose_apply"}


@pytest.mark.parametrize("n_theta", [16, 478])
@pytest.mark.parametrize("kind_b", SCAN_KINDS)
@pytest.mark.parametrize("kind_a", SCAN_KINDS)
def test_every_column_equals_a_fresh_scan(kind_a, kind_b, n_theta):
    g = grid(33, n_theta, 8.0)
    rng = np.random.default_rng(SCAN_KINDS.index(kind_a) * 7
                                + SCAN_KINDS.index(kind_b))
    shape = (33, n_theta)
    a = _scan_data(kind_a, rng, shape)
    b, c = _scan_data(kind_b, rng, shape), _scan_data(kind_b, rng, shape)
    with np.errstate(all="ignore"):
        outputs = dict(_scan_outputs(g, a, b, c))
    for name, fields_out in outputs.items():
        if fields_out is None:
            # only overflowing data may fail
            assert "huge" in (kind_a, kind_b) or "wild" in (kind_a, kind_b), \
                name
            continue
        for f in fields_out:
            for i, comp in enumerate(fields._components(f)):
                kept = f._cols[i]
                if kind_a == kind_b == "radial":
                    # a result of held inputs is held at once
                    assert isinstance(kept, np.ndarray), (name, i)
                if kind_a == kind_b == "mixed_zeros" and name in OPERATORS:
                    # inputs with rows of 0.0 and -0.0 are not held, so the
                    # operator ran on full-size arrays, through the
                    # transforms wherever it takes a d/dtheta (a result
                    # used inside a solve may be found held on that use)
                    assert comp.strides[1] != 0, (name, i)
                # held exactly when the tests' own scan finds the column
                fresh = one_bit_pattern_column(comp)
                col = fields._column(f, i)
                assert (col is None) == (fresh is None), (name, i)
                if col is not None:
                    assert _same_bits(col, fresh), (name, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_theta", [1, 8], ids=["column", "full"])
def test_a_non_finite_column_or_full_result_is_rejected(bad, n_theta):
    g = grid(16, 8, 4.0)
    a = np.zeros((16, n_theta))
    a[3] = bad
    with pytest.raises(NonFiniteFieldError):
        fields._scalar(g, a)
    b = np.zeros((16, n_theta))
    b[3, -1] = bad
    with pytest.raises(NonFiniteFieldError):
        fields._vector(g, np.zeros((16, n_theta)), b)


def _scan_calls(monkeypatch):
    """The shapes of the arrays fields._bit_column scans from now on."""
    scans = []
    real = fields._bit_column
    monkeypatch.setattr(fields, "_bit_column",
                        lambda a: scans.append(a.shape) or real(a))
    return scans


def test_a_caller_array_is_scanned_once_on_first_use(monkeypatch):
    g = grid(33, 16, 8.0)
    psi = ScalarField(g, np.repeat(np.linspace(0.0, 1.0, 33)[:, None], 16,
                                   axis=1))
    scans = _scan_calls(monkeypatch)
    assert psi._cols == [None]
    u = perp_grad(psi)
    lap = laplacian(psi)
    seminorms_hk(psi, 3)
    assert scans == [(33, 16)] and psi._cols[0].shape == (33, 1)
    for c in u._cols + lap._cols:
        assert isinstance(c, np.ndarray) and c.shape == (33, 1)


def test_a_full_size_result_of_one_bit_pattern_rows_is_held_on_first_use(
        monkeypatch):
    # u - u of a u that varies in θ is computed at full size and left
    # unscanned; its first use finds its rows of +0.0 and holds the columns
    g = grid(33, 16, 8.0)
    u = perp_grad(analytic_psi(g))
    d = fields.difference(u, u)
    assert d._cols == [None, None]
    assert d.u_r.shape == (33, 16) and d.u_r.strides[1] != 0
    scans = _scan_calls(monkeypatch)
    lap = vector_laplacian(d)
    assert scans == [(33, 16), (33, 16)]
    for i, comp in enumerate((d.u_r, d.u_theta)):
        col = fields._column(d, i)
        assert col.shape == (33, 1) and _same_bits(col, comp[:, :1])
        assert _same_bits(col, np.zeros((33, 1)))
    assert all(isinstance(c, np.ndarray) for c in lap._cols)
    assert len(scans) == 2


def test_threads_finding_one_column_agree():
    # sweep workers share fields such as the initial velocity, so several
    # threads may scan one array at once; each stores an equal answer
    import sys
    import threading
    g = grid(33, 16, 8.0)
    rng = np.random.default_rng(3)
    fields_in = [VectorField(g, _scan_data(kind, rng, (33, 16)),
                             _scan_data(kind, rng, (33, 16)))
                 for kind in SCAN_KINDS for _ in range(20)]
    seen = [[] for _ in fields_in]
    barrier = threading.Barrier(8)

    def work():
        barrier.wait(timeout=10)
        for f, out in zip(fields_in, seen):
            out.append((fields._column(f, 0), fields._column(f, 1)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    for f, out in zip(fields_in, seen):
        assert len(out) == 8
        # a column is kept exactly for finite rows that share their bits
        for i, comp in enumerate((f.u_r, f.u_theta)):
            want = one_bit_pattern_column(comp)
            for got in [cols[i] for cols in out] + [fields._column(f, i)]:
                assert (got is None) == (want is None)
                if want is not None:
                    assert _same_bits(got, want)


# ---------------------------------------------------------------------------
# column-held fields

def _held_full(u):
    """u's arrays as fresh full-size copies, unscanned: on the full-array
    path they are never held."""
    return fields._vector(u.grid, np.array(u.u_r), np.array(u.u_theta))


def _bits(x):
    return [float(v).hex() for v in np.ravel(x)]


@pytest.mark.parametrize("n_theta", [96, 100, 478])
def test_column_held_reductions_equal_the_full_ones(full_array_path,
                                                    n_theta):
    # numpy sums a broadcast view in another order than a contiguous array
    # at these n_theta, so every whole-array sum spreads to full size first
    import dataclasses
    from diskflow.dynamics import ModelParams, RunConfig, outer_circulation, \
        run
    from diskflow.harness import EnergyBudget, euler_reference_state
    from diskflow.initial_data import InitialCase, canonical_psi, make_initial
    g = grid(65, n_theta, 8.0)
    psi = canonical_psi(InitialCase("radial_vortex"), g)
    params = ModelParams("second_grade", alpha=0.2, nu=1e-3)
    traj = run(params, make_initial(psi, 0.2), 0.04,
               RunConfig(snapshot_dt=0.01))
    u_ref = euler_reference_state(psi).u
    snaps = traj.snapshots
    assert len(snaps) == 5
    for f in [u_ref] + [s.u for s in snaps]:
        assert all(isinstance(c, np.ndarray) for c in f._cols)
    u, v = snaps[-1].u, u_ref
    w = curl_perp(u)
    assert isinstance(w._cols[0], np.ndarray)
    got = [norm_l2(u), norm_l2(w), inner_l2(u, v), grad_norm_l2(u),
           outer_circulation(u), seminorms_hk(u, 3)]
    held = EnergyBudget(0.1)
    for s in snaps:
        held.add(s, v)
    full_array_path()
    fu, fv = _held_full(u), _held_full(v)
    fw = fields._scalar(g, np.array(w.values))
    want = [norm_l2(fu), norm_l2(fw), inner_l2(fu, fv), grad_norm_l2(fu),
            outer_circulation(fu), seminorms_hk(fu, 3)]
    for f in (fu, fv, fw):
        assert all(fields._column(f, i) is None for i in range(len(f._cols)))
    for x, y in zip(got, want, strict=True):
        assert _bits(x) == _bits(y)
    full = EnergyBudget(0.1)
    for s in snaps:
        full.add(dataclasses.replace(s, u=_held_full(s.u)), fv)
    # the slopes themselves: the audit's fit can absorb their last bits
    assert {k: _bits(v) for k, v in held._f3.items()} \
        == {k: _bits(v) for k, v in full._f3.items()}
    assert _bits(dataclasses.astuple(held.finish())) \
        == _bits(dataclasses.astuple(full.finish()))


def test_column_held_arrays_are_full_size_and_cannot_change():
    g = grid(33, 16, 8.0)
    col = np.linspace(0.0, 1.0, 33)[:, None]
    mine = np.repeat(col, 16, axis=1)           # the caller's, writeable
    base = mine.copy()
    view = base[:]
    view.flags.writeable = False                # read-only, writeable base
    psi, chi = ScalarField(g, mine), ScalarField(g, view)
    u = perp_grad(psi)          # the first use finds psi's column
    lap = laplacian(chi)
    assert isinstance(psi._cols[0], np.ndarray) \
        and isinstance(chi._cols[0], np.ndarray)
    for f in (u, lap):
        for a, c in zip(fields._components(f), f._cols):
            assert isinstance(c, np.ndarray) and c.shape == (33, 1)
            assert a.shape == (33, 16) and not a.flags.writeable
            assert a.base is c and not c.flags.writeable
            with pytest.raises(ValueError):
                a[3, 4] = 1.0
            with pytest.raises(ValueError):
                c[3, 0] = 1.0
    want = [np.array(a) for a in (u.u_r, u.u_theta, lap.values)]
    mine[:] = 7.0
    base[:] = 7.0
    for f in (psi, chi):
        assert np.array_equal(f.values, np.repeat(col, 16, axis=1))
        assert np.array_equal(f._cols[0], col)
    again = (perp_grad(psi), laplacian(chi))
    for a, b in zip(want, (again[0].u_r, again[0].u_theta, again[1].values)):
        assert np.array_equal(a, b)


def test_only_bit_identical_rows_are_held_as_a_column(monkeypatch):
    # a row of 0.0 and -0.0 holds one value but not one bit pattern, so
    # the array is not held and its operators take the transforms
    g = grid(16, 8, 4.0)
    a = np.repeat(np.linspace(1.0, 2.0, 16)[:, None], 8, axis=1)
    a[5, ::2] = -0.0
    a[5, 1::2] = 0.0
    f = ScalarField(g, a)
    assert fields._column(f) is None and f._cols == [False]
    transforms = []
    real = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *args, **kw: transforms.append(1)
                        or real(*args, **kw))
    lap = laplacian(f)
    u = perp_grad(f)
    assert len(transforms) == 2
    for c in lap._cols + u._cols:
        assert c is None                # full-size results, unscanned
    # the transforms give zeros on these rows, so the results equal those
    # of the held array with +0.0 in row 5 up to the signs of zeros
    a[5] = 0.0
    f0 = ScalarField(g, a)
    assert fields._column(f0) is not None
    assert np.array_equal(lap.values, laplacian(f0).values)
    assert np.array_equal(u.u_r, perp_grad(f0).u_r) and not u.u_r.any()
    assert len(transforms) == 2             # the held array takes none


def _mixed_call_outputs(g, radial, varying):
    """Every operator and norm on fields that mix held and unheld arrays:
    u holds a θ-constant u_r beside a varying u_theta, and a perturbed
    velocity advects a θ-constant q."""
    u = VectorField(g, radial[0], varying[0])
    u_pert = VectorField(g, varying[1], varying[2])
    q = ScalarField(g, radial[1])
    s = ScalarField(g, varying[0])
    out = {
        "curl_perp": curl_perp(u),
        "advect": advect(u_pert, q),
        "advect_held_u_r": advect(u, q),
        "vector_laplacian": vector_laplacian(u),
        "advect_vector": advect_vector(u, u),
        "advect_vector_pert": advect_vector(u_pert, u),
        "grad_transpose_apply": grad_transpose_apply(u, u_pert),
        "difference": fields.difference(u, u_pert),
        "lincomb": fields.lincomb([(2.0, q), (1e-3, s)], base=s),
        "times_profile": fields.times_profile(s, g.r_nodes),
        "norm_l2": norm_l2(u),
        "inner_l2": inner_l2(u, u_pert),
        "grad_norm_l2": grad_norm_l2(u),
        "seminorms_hk": seminorms_hk(u, 3),
        "weighted_total": fields.weighted_total(
            g.weights, lambda a, b: a * b, q, s),
        "transit_time": fields.transit_time(u),
    }
    return u, out


@pytest.mark.parametrize("n_theta", [16, 478])
def test_a_mixed_call_gives_the_bits_of_the_full_array_path(monkeypatch,
                                                            n_theta):
    # below _operands an array is θ-constant exactly when it is a column:
    # a call whose inputs are partly held takes every array at full size
    # and transforms each, as when no array is held at all
    g = grid(33, n_theta, 8.0)
    rng = np.random.default_rng(n_theta)
    r = g.r_nodes[:, None]
    bump = (1.0 - 1.0 / r) ** 2 * np.exp(-r)
    radial = [np.repeat(bump * c, n_theta, axis=1) for c in (1.0, -0.7)]
    varying = [bump * rng.normal(size=(33, n_theta)) for _ in range(3)]
    u, got = _mixed_call_outputs(g, radial, varying)
    assert isinstance(u._cols[0], np.ndarray) and u._cols[1] is False
    monkeypatch.setattr(fields, "_bit_column", lambda a: None)
    u, want = _mixed_call_outputs(g, radial, varying)
    assert u._cols == [False, False]
    for name, x in got.items():
        y = want[name]
        if isinstance(x, (ScalarField, VectorField)):
            for i, (a, b) in enumerate(zip(fields._components(x),
                                           fields._components(y),
                                           strict=True)):
                assert x._cols[i] is None, name     # full size
                assert _same_bits(a, b), name
        else:
            assert _bits(x) == _bits(y), name


def _package_weights(g):
    """Every weights array the package sums against, by name."""
    return {"weights": g.weights, "interior": g.weights[1:-1],
            "tail": tail_weights(g)}


@pytest.mark.parametrize("n_r, n_theta, r_max",
                         [(33, 8, 4.0), (65, 96, 8.0), (129, 100, 10.0),
                          (256, 128, 10.0), (65, 478, 8.0)])
def test_package_weights_hold_one_bit_pattern_per_row(n_r, n_theta, r_max):
    # the column sums rest on this: a column of the weights times a column
    # of operands has the bits of every node of the full-size product
    g = grid(n_r, n_theta, r_max)
    for name, w in _package_weights(g).items():
        bits = w.view(np.uint64)
        assert (bits == bits[:, :1]).all(), name
    assert _package_weights(g)["tail"][-1, 0] > 0.0


def _spread_calls(monkeypatch):
    calls = []
    real = fields._spread_sum

    def spy(col, shape):
        calls.append(col.shape)
        return real(col, shape)
    monkeypatch.setattr(fields, "_spread_sum", spy)
    return calls


def _column_data(rng, n):
    """An (n, 1) column: magnitudes 1e-100..1e100 of either sign, with
    signed zeros and a subnormal."""
    col = rng.choice([-1.0, 1.0], size=(n, 1)) \
        * 10.0 ** rng.uniform(-100.0, 100.0, size=(n, 1))
    col[3:6, 0] = [0.0, -0.0, 5e-324]
    return col


@pytest.mark.parametrize("n_theta", [96, 100, 128, 478])
def test_column_sums_equal_the_full_size_expressions(monkeypatch, n_theta):
    g = grid(65, n_theta, 8.0)
    rng = np.random.default_rng(n_theta)
    cols = [_column_data(rng, 65) for _ in range(4)]
    full = [np.repeat(c, n_theta, axis=1) for c in cols]
    calls = _spread_calls(monkeypatch)
    for name, w in _package_weights(g).items():
        rows = slice(1, -1) if name == "interior" else slice(None)
        a, b = cols[0][rows], cols[1][rows]
        fa, fb = full[0][rows], full[1][rows]
        assert _same_bits(fields._weighted_sum(w, a, b),
                          float(np.sum(w * fa * fb))), name
        assert _same_bits(fields._weighted_sum(w, a, a),
                          float(np.sum(w * fa * fa))), name
        # a column with a full array is multiplied at full size
        assert _same_bits(fields._weighted_sum(w, a, fb),
                          float(np.sum(w * fa * fb))), name
    assert len(calls) == 6
    # weighted_total on column-held fields, with each weights array and
    # the expressions the tail mass and the Poisson residual use
    fs = [ScalarField(g, a) for a in full[:2]]
    for f in fs:
        assert fields._column(f) is not None
    w = _package_weights(g)
    cases = [
        (w["weights"], np.square, fs[:1], np.square(full[0])),
        (w["tail"], np.square, fs[:1], np.square(full[0])),
        (w["interior"], lambda a, b: np.square((a - b)[1:-1]), fs,
         np.square((full[0] - full[1])[1:-1])),
    ]
    del calls[:]
    for weights, expr, args, values in cases:
        assert _same_bits(fields.weighted_total(weights, expr, *args),
                          float(np.sum(weights * values)))
    assert calls == [(65, 1), (65, 1), (63, 1)]


@pytest.mark.parametrize("n_theta", [96, 100, 128, 478])
def test_column_held_norms_equal_the_full_size_expressions(monkeypatch,
                                                           n_theta):
    g = grid(65, n_theta, 8.0)
    rng = np.random.default_rng(n_theta + 1)
    # magnitudes that keep squares and products finite
    full = [np.repeat(rng.normal(size=(65, 1))
                      * 10.0 ** rng.uniform(-50.0, 50.0, size=(65, 1)),
                      n_theta, axis=1) for _ in range(4)]
    s = ScalarField(g, full[0])
    u = VectorField(g, full[1], full[2])
    v = VectorField(g, full[3], full[1])
    for f in (s, u, v):
        assert all(fields._column(f, i) is not None
                   for i in range(len(f._cols)))
    mixed = VectorField(g, full[3], full[1] + rng.normal(size=full[1].shape))
    assert mixed._cols == [None, None]

    def plain_inner(x, y):
        total = 0.0
        for a, b in zip(x, y, strict=True):
            total += float(np.sum(g.weights * a * b))
        return total
    calls = _spread_calls(monkeypatch)
    assert _same_bits(norm_l2(s), _plain_norm(g, full[:1]))
    assert _same_bits(norm_l2(u), _plain_norm(g, full[1:3]))
    assert _same_bits(inner_l2(u, v),
                      plain_inner(full[1:3], (full[3], full[1])))
    assert len(calls) == 5
    # one column-held operand and one full: both are taken at full size
    del calls[:]
    assert _same_bits(inner_l2(u, mixed),
                      plain_inner(full[1:3], (mixed.u_r, mixed.u_theta)))
    assert _same_bits(inner_l2(mixed, u),
                      plain_inner((mixed.u_r, mixed.u_theta), full[1:3]))
    assert calls == []
    with pytest.raises(ValueError):
        inner_l2(s, u)


@pytest.mark.parametrize("theta_constant", [False, True, "a"],
                         ids=["mixed_rows", "theta_constant",
                              "only_a_theta_constant"])
@pytest.mark.parametrize("data", sorted(KERNEL_DATA))
def test_combinations_equal_the_plain_expressions(data, theta_constant):
    # lincomb and weighted_total give the bits of the expressions that the
    # RK stages, rhs, recover_q and the tail mass write out, on columns
    # when every field in them is column-held
    g = grid(33, 16, 8.0)
    rng = np.random.default_rng(11)
    arrays = [KERNEL_DATA[data](rng, (33, 16), theta_constant is True
                                or i == 0 and theta_constant == "a")
              for i in range(5)]
    fs = [ScalarField(g, a) for a in arrays]
    for f in fs:
        fields._column(f)               # θ-constant ones are now columns
    q, k1, k2, k3, k4 = arrays
    cases = [
        (([(-1.0, fs[1]), (1e-3, fs[2])],), {}, -k1 + k2 * 1e-3),
        (([(0.25, fs[1])],), {"base": fs[0]}, k1 * 0.25 + q),
        (([(2.0, fs[2]), (1.0, fs[1]), (2.0, fs[3]), (1.0, fs[4])],),
         {"scale": 0.5 / 6.0, "base": fs[0]},
         (k2 * 2.0 + k1 + k3 * 2.0 + k4) * (0.5 / 6.0) + q),
        (([(-(0.2 * 0.2), fs[1])],), {"base": fs[0]}, q - 0.2 * 0.2 * k1),
    ]
    with np.errstate(all="ignore"):
        for args, kwargs, want in cases:
            got = _field_or_raise(lambda: fields.lincomb(*args, **kwargs),
                                  (want,))
            if got is None:
                continue
            used = [f for _, f in args[0]] + [kwargs.get("base")] * (
                "base" in kwargs)
            assert _same_bits(got.values, want)
            # a column result exactly when every field is held
            held = all(fields._column(f) is not None for f in used)
            assert isinstance(got._cols[0], np.ndarray) == held
        assert _same_bits(
            fields.weighted_total(g.weights, np.square, fs[0]),
            float(np.sum(np.square(q) * g.weights)))
        assert _same_bits(
            fields.weighted_total(g.weights[1:-1],
                                  lambda a, b: np.square((a - b)[1:-1]),
                                  fs[1], fs[0]),
            float(np.sum(np.square((k1 - q)[1:-1]) * g.weights[1:-1])))


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
                    else fields._inv_r(g) * _plain_dtheta(*_plain_operands(c))
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
