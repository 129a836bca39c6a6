"""Vortex family construction and hypothesis-rate checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from diskflow.grid import GridSpec, build_grid
from diskflow.fields import (ScalarField, VectorField, advect, curl_perp,
                             norm_l2, perp_grad, write_snapshot)
from diskflow.initial_data import (InitialCase, canonical_psi, cut_profile,
                                   hypothesis_report, make_initial)
from diskflow.errors import ConfigError, DegenerateFitError

GRID = build_grid(GridSpec(n_r=513, n_theta=16, r_max=8.0))

# saturating family: O(1) wall slip so the collar rates are visible
H_CASE = InitialCase(name="radial_vortex", amplitude=1.0, r0=1.0, sigma=1.5,
                     boundary_profile="linear")


# ---------------------------------------------------------------- case

@pytest.mark.parametrize("kw", [
    dict(name="solid_body"),
    dict(sigma=0.0),
    dict(sigma=-1.0),
    dict(amplitude=0.0),
    dict(name="perturbed_vortex", mode=0),
    dict(name="perturbed_vortex", eps=-0.1),
    dict(name="file"),
    dict(boundary_profile="cubic"),
])
def test_case_validation(kw):
    with pytest.raises(ConfigError):
        InitialCase(**kw)


def test_radial_vortex_vanishes_at_wall_with_derivative():
    psi = canonical_psi(InitialCase(), GRID)
    assert np.all(psi.values[0] == 0.0)
    u0 = perp_grad(psi)
    assert np.max(np.abs(u0.u_r[0])) <= 1e-15
    # squared wall factor: analytic trace is zero, stencil leaves O(h^2)
    assert np.max(np.abs(u0.u_theta[0])) <= 1e-5


def test_radial_vortex_is_discretely_steady():
    psi = canonical_psi(InitialCase(), GRID)
    u0 = perp_grad(psi)
    w0 = curl_perp(u0)
    conv = advect(u0, w0)
    assert np.max(np.abs(conv.values)) == 0.0


def test_outer_ring_circulation_is_roundoff():
    psi = canonical_psi(InitialCase(), GRID)
    u0 = perp_grad(psi)
    circ = GRID.spec.r_max * GRID.dtheta * np.sum(u0.u_theta[-1])
    assert abs(circ) <= 1e-12


def test_perturbed_with_zero_eps_is_radial_bitwise():
    a = canonical_psi(InitialCase(name="radial_vortex"), GRID)
    b = canonical_psi(InitialCase(name="perturbed_vortex", eps=0.0), GRID)
    assert np.array_equal(a.values, b.values)


def test_perturbed_matches_formula():
    base = canonical_psi(InitialCase(), GRID)
    pert = canonical_psi(InitialCase(name="perturbed_vortex"), GRID)
    factor = 1.0 + 0.1 * np.cos(2.0 * GRID.theta_nodes)[None, :]
    assert pert.values == pytest.approx(base.values * factor, rel=1e-15)


def test_support_too_close_to_truncation_rejected():
    with pytest.raises(ConfigError):
        canonical_psi(InitialCase(r0=7.0, sigma=0.5), GRID)


def test_linear_profile_carries_wall_slip():
    g = build_grid(GridSpec(n_r=1025, n_theta=16, r_max=10.0))
    psi = canonical_psi(H_CASE, g)
    u0 = perp_grad(psi)
    # d/dr[(1-e^{1-r}) G](1) = G(1) = exp(-((1-r0)/sigma)^2) = 1 for r0=1
    assert np.max(np.abs(u0.u_theta[0])) == pytest.approx(1.0, rel=2e-3)


def test_file_case_roundtrip(tmp_path):
    psi = canonical_psi(InitialCase(), GRID)
    path = tmp_path / "psi0.snap"
    write_snapshot(psi, str(path), time=0.0, alpha=0.0, nu=0.0, fmt="binary")
    again = canonical_psi(InitialCase(name="file", path=str(path)), GRID)
    assert np.array_equal(again.values, psi.values)


def test_file_case_rejects_nonvanishing_trace(tmp_path):
    bad = ScalarField(GRID, np.ones((513, 16)))
    path = tmp_path / "bad.snap"
    write_snapshot(bad, str(path), time=0.0, alpha=0.0, nu=0.0, fmt="binary")
    with pytest.raises(ConfigError):
        canonical_psi(InitialCase(name="file", path=str(path)), GRID)


def _trace_guards(psi, tmp_path):
    """The keys of the three trace guards that reject psi, in the order
    canonical_psi (file case), make_initial, build_corrector."""
    from diskflow.boundary_layer import build_corrector
    path = tmp_path / "psi.snap"
    write_snapshot(psi, str(path), time=0.0, alpha=0.0, nu=0.0, fmt="binary")
    keys = []
    for check in (lambda: canonical_psi(InitialCase(name="file",
                                                    path=str(path)),
                                        psi.grid),
                  lambda: make_initial(psi, 0.2),
                  lambda: build_corrector(psi, 0.1)):
        try:
            check()
        except ConfigError as exc:
            keys.append(exc.key)
    return keys


@pytest.mark.parametrize("amp", [1e-200, 1e-100, 1.0, 1e200])
def test_every_trace_guard_compares_the_trace_with_the_maximum(tmp_path,
                                                               amp):
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    base = canonical_psi(InitialCase(), g).values
    for share, keys in ((1e-9, ["case", "psi0", "psi_bar"]), (1e-11, [])):
        vals = amp * (base / np.max(np.abs(base)))
        vals[0] = share * amp
        assert _trace_guards(ScalarField(g, vals), tmp_path) == keys


def test_no_trace_guard_rejects_a_zero_stream(tmp_path):
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    zero = ScalarField(g, np.zeros((64, 16)))
    assert _trace_guards(zero, tmp_path) == []


# ---------------------------------------------------------------- family

def test_make_initial_rejects_bad_alpha():
    psi = canonical_psi(InitialCase(), GRID)
    for a in (0.0, -0.1, 0.6):
        with pytest.raises(ConfigError):
            make_initial(psi, a)


def test_make_initial_rejects_nonvanishing_trace():
    bad = ScalarField(GRID, np.ones((513, 16)))
    with pytest.raises(ConfigError):
        make_initial(bad, 0.2)


def test_family_member_vanishes_inside_collar():
    psi = canonical_psi(InitialCase(), GRID)
    alpha = 0.2
    ua = make_initial(psi, alpha)
    inner = np.where(GRID.r_nodes - 1.0 < alpha)[0][:-1]  # stencil margin
    assert np.all(ua.u_r[inner] == 0.0)
    assert np.all(ua.u_theta[inner] == 0.0)
    assert ua.tag == "no-slip"


def test_cutoff_inactive_recovers_reference_exactly():
    # support starts at rho = 0.9 = 4.5 alpha: the cut stream equals psi0
    g = build_grid(GridSpec(n_r=257, n_theta=16, r_max=8.0))
    rho = g.r_nodes - 1.0
    prof = np.where((rho > 0.9) & (rho < 4.0),
                    np.sin(np.pi * (rho - 0.9) / 3.1) ** 4, 0.0)
    psi = ScalarField(g, np.repeat(prof[:, None], 16, axis=1))
    ua = make_initial(psi, 0.2)
    u0 = perp_grad(psi)
    assert np.array_equal(ua.u_r, u0.u_r)
    assert np.array_equal(ua.u_theta, u0.u_theta)


def test_family_member_is_discretely_divergence_free():
    psi = canonical_psi(InitialCase(name="perturbed_vortex"), GRID)
    ua = make_initial(psi, 0.15)
    # same compact stencils as the field operators: centered/one-sided in s,
    # spectral in theta with the Nyquist mode dropped
    r = GRID.r_nodes[:, None]
    rur = r * ua.u_r
    ds = GRID.ds
    d_rur = np.empty_like(rur)
    d_rur[1:-1] = (rur[2:] - rur[:-2]) / (2 * ds)
    d_rur[0] = (-3 * rur[0] + 4 * rur[1] - rur[2]) / (2 * ds)
    d_rur[-1] = (3 * rur[-1] - 4 * rur[-2] + rur[-3]) / (2 * ds)
    k = np.fft.rfftfreq(16, d=1.0 / 16)
    k[-1] = 0.0
    dtheta_ut = np.fft.irfft(np.fft.rfft(ua.u_theta, axis=1) * 1j * k, n=16,
                             axis=1)
    div = d_rur / (r * r) + dtheta_ut / r
    assert np.max(np.abs(div)) <= 1e-12


def test_err0_matches_collar_quadrature_oracle():
    alpha = 0.2
    psi = canonical_psi(InitialCase(), GRID)
    ua = make_initial(psi, alpha)
    u0 = perp_grad(psi)
    diff = VectorField(GRID, ua.u_r - u0.u_r, ua.u_theta - u0.u_theta)
    err = norm_l2(diff)

    def f(r):
        return (1.0 - np.exp(1.0 - r)) ** 2 * np.exp(-((r - 2.0) / 0.4) ** 2)

    def df(r):
        wall = 1.0 - np.exp(1.0 - r)
        gauss = np.exp(-((r - 2.0) / 0.4) ** 2)
        return (2.0 * wall * np.exp(1.0 - r) * gauss
                + wall ** 2 * gauss * (-2.0 * (r - 2.0) / 0.16))

    def phi(x):
        return cut_profile(x)

    def dphi(x):
        if not 1.5 < x < 4.5:
            return 0.0
        t = (x - 1.5) / 3.0
        return 140.0 * t ** 3 * (1.0 - t) ** 3 / 3.0

    def integrand(r):
        x = (r - 1.0) / alpha
        d = dphi(x) / alpha * f(r) + (phi(x) - 1.0) * df(r)
        return d * d * r

    oracle = np.sqrt(2.0 * np.pi
                     * quad(integrand, 1.0, 1.0 + 4.5 * alpha, limit=200)[0])
    assert err == pytest.approx(oracle, rel=2e-2)


# ------------------------------------------------------- hypothesis rates

def test_hypothesis_report_rates_saturating_family():
    g = build_grid(GridSpec(n_r=1025, n_theta=16, r_max=10.0))
    psi = canonical_psi(H_CASE, g)
    rep = hypothesis_report(psi, [0.2, 0.1, 0.05, 0.025])
    assert all(r.resolved for r in rep.rows)

    # regression values measured on this exact grid; refining to n_r = 2049
    # moves e0 by < 0.1% and D1 by < 1.2% (the C^3 ramp keeps the collar
    # seminorms grid-convergent)
    e0_expect = [2.20198, 1.70776, 1.23810, 0.87938]
    d1_expect = [14.8589, 24.0658, 35.0722, 49.4414]
    for row, e0, d1 in zip(rep.rows, e0_expect, d1_expect):
        assert row.err0 == pytest.approx(e0, rel=1e-3)
        assert row.dk_norms[0] == pytest.approx(d1, rel=1e-3)

    assert rep.e0_fit.slope == pytest.approx(0.5, abs=0.1)
    assert rep.dk_fits[1].slope == pytest.approx(-0.5, abs=0.1)
    assert -2.0 <= rep.dk_fits[2].slope <= -1.0
    assert -3.0 <= rep.dk_fits[3].slope <= -2.0

    # the scaled derivative norms and the collar errors both decrease
    for k in (1, 2, 3):
        probe = [r.alpha ** k * r.dk_norms[k - 1] for r in rep.rows]
        assert all(a > b for a, b in zip(probe, probe[1:]))
    errs = [r.err0 for r in rep.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_boundary_compatible_family_converges_faster():
    # squared wall factor: u0 already satisfies no-slip, so the collar error
    # is driven by the profile tail and decays much faster than sqrt(alpha)
    g = build_grid(GridSpec(n_r=1025, n_theta=16, r_max=8.0))
    psi = canonical_psi(InitialCase(), g)
    rep = hypothesis_report(psi, [0.2, 0.1, 0.05, 0.025])
    assert rep.e0_fit.slope >= 1.2


def test_hypothesis_degenerate_when_family_is_exact():
    g = build_grid(GridSpec(n_r=257, n_theta=16, r_max=8.0))
    rho = g.r_nodes - 1.0
    prof = np.where((rho > 0.9) & (rho < 4.0),
                    np.sin(np.pi * (rho - 0.9) / 3.1) ** 4, 0.0)
    psi = ScalarField(g, np.repeat(prof[:, None], 16, axis=1))
    with pytest.raises(DegenerateFitError):
        hypothesis_report(psi, [0.2, 0.1, 0.05])


def test_hypothesis_rejects_bad_alpha_lists():
    psi = canonical_psi(InitialCase(), GRID)
    with pytest.raises(ConfigError):
        hypothesis_report(psi, [0.2, 0.15, 0.1])
    with pytest.raises(ConfigError):
        hypothesis_report(psi, [0.2, 0.1])


def test_hypothesis_flags_unresolved_collars():
    # ds = ln(8)/128: a 0.05-collar spans 3 cells, below the 4-cell floor
    g = build_grid(GridSpec(n_r=129, n_theta=16, r_max=8.0))
    psi = canonical_psi(InitialCase(), g)
    rep = hypothesis_report(psi, [0.4, 0.2, 0.1, 0.05])
    assert [r.resolved for r in rep.rows] == [True, True, True, False]
    assert len(rep.e0_fit.points) == 3
