import math

import numpy as np
import pytest

from diskflow.errors import ConfigError
from diskflow.grid import GridSpec, build_grid
from diskflow.fields import (ScalarField, VectorField, perp_grad, curl_perp,
                             laplacian, advect, norm_l2, seminorm_hk,
                             inner_l2, grad_norm_l2, vector_laplacian,
                             advect_vector, grad_transpose_apply,
                             write_snapshot, read_snapshot)


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
        with pytest.raises(ConfigError):
            seminorm_hk(f, k)


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
])
def test_malformed_snapshot_is_a_config_error(content, tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as err:
        read_snapshot(path)
    assert err.value.key == "snapshot"
