import hashlib
import math
import re

import numpy as np
import pytest

from zenoline import diagram, specfun
from zenoline.errors import CausticError, DomainError, SolverError

import oracles

GAMMA0 = diagram.GAMMA0


@pytest.fixture(scope="module")
def eos():
    return diagram.solve_phi(GAMMA0, np.geomspace(1.02, 1000.0, 400))


@pytest.fixture(scope="module")
def ivp():
    return oracles.phi_isotherm_ivp(GAMMA0, [0.05, 0.5, 0.8, 0.95])


class TestZenoLine:
    def test_linearity(self):
        line = diagram.ZenoLine(rho_B=2.0, T_B=4.0)
        for t in (0.0, 1.0, 2.0, 3.9):
            assert diagram.zeno_density(line, t) == \
                pytest.approx(2.0 * (1.0 - t / 4.0), rel=1e-14)

    def test_domain(self):
        line = diagram.ZenoLine()
        with pytest.raises(DomainError):
            diagram.zeno_density(line, 1.0)
        with pytest.raises(DomainError):
            diagram.zeno_density(line, -0.1)
        with pytest.raises(DomainError):
            diagram.ZenoLine(rho_B=0.0)


class TestBachinskii:
    def test_vieta(self):
        for b, c, P in ((1.0, 1.0, 0.3), (2.5, 0.7, 1.1), (0.4, 3.0, 0.39)):
            lo, hi = diagram.bachinskii_density(b, c, P)
            assert lo <= hi
            assert lo + hi == pytest.approx(4.0 * b / c, rel=1e-12)
            assert lo * hi == pytest.approx(4.0 * b * P / (c * c), rel=1e-12)

    def test_roots_satisfy_parabola(self):
        b, c = 1.3, 0.9
        for P in (0.1, 0.6, 1.2):
            for rho in diagram.bachinskii_density(b, c, P):
                assert c * rho * (1.0 - c * rho / (4.0 * b)) == \
                    pytest.approx(P, rel=1e-12)

    def test_quadratic_formula_oracle(self):
        b, c, P = 1.7, 1.2, 0.8
        # c^2 rho^2 / (4b) - c rho + P = 0 solved the schoolbook way
        aa, bb, cc = c * c / (4.0 * b), -c, P
        disc = math.sqrt(bb * bb - 4.0 * aa * cc)
        lo, hi = diagram.bachinskii_density(b, c, P)
        assert lo == pytest.approx((-bb - disc) / (2.0 * aa), rel=1e-12)
        assert hi == pytest.approx((-bb + disc) / (2.0 * aa), rel=1e-12)

    def test_caustic(self):
        lo, hi = diagram.bachinskii_density(1.0, 1.0, 1.0)
        assert lo == pytest.approx(hi, rel=1e-12)
        with pytest.raises(CausticError):
            diagram.bachinskii_density(1.0, 1.0, 1.0001)

    def test_domain(self):
        with pytest.raises(DomainError):
            diagram.bachinskii_density(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            diagram.bachinskii_density(1.0, 1.0, -0.5)


class TestSolvePhi:
    def test_shape_and_boundary(self, eos):
        assert eos.V_cr == pytest.approx(1.414, abs=5e-3)
        assert eos.V_cr == eos.V[0]
        assert np.all(np.diff(eos.phi_vals) > 0)
        assert np.all(np.asarray(eos.dphi_vals) > 0)
        assert eos.phi_vals[-1] / eos.V[-1] == pytest.approx(1.0, abs=1e-3)
        # kappa is monotone along the trace and hits the boundary value
        assert np.all(np.diff(eos.kappa) < 0)
        T_max = 1.0 - 1.0 / eos.V[-1]
        expect = -math.log(eos.V[-1] * T_max ** (GAMMA0 + 1.0))
        assert eos.kappa[-1] == pytest.approx(expect, rel=1e-12)

    def test_unit_compressibility_at_nodes(self, eos):
        # the defining constraint: V phi' Li_{g+2} = phi Li_{g+1}
        for i in range(0, len(eos.V), 40):
            z = math.exp(eos.kappa[i])
            lhs = eos.V[i] * eos.dphi_vals[i] * specfun.polylog(GAMMA0 + 2.0, z)
            rhs = eos.phi_vals[i] * specfun.polylog(GAMMA0 + 1.0, z)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dphi_consistent_with_phi(self, eos):
        for V in (2.0, 5.0, 50.0):
            fd = oracles.central_difference(eos.phi, V, 1e-5)
            assert eos.dphi(V) == pytest.approx(fd, rel=1e-3)

    def test_inverse_round_trip(self, eos):
        for V in (eos.V_cr, 1.7, 3.0, 30.0, 2000.0):
            y = eos.phi(V)
            assert eos.inv_phi(y) == pytest.approx(V, rel=1e-12)

    def test_asymptotic_tail(self, eos):
        big = 5000.0
        assert eos.phi(big) / big == pytest.approx(1.0, abs=1e-3)
        assert eos.dphi(big) == 1.0

    def test_domain(self, eos):
        with pytest.raises(DomainError):
            eos.phi(0.5)
        with pytest.raises(DomainError):
            diagram.solve_phi(GAMMA0, [0.5, 2.0])
        for g in (0.0, 1.0, 1.5, 3.0, -0.2):
            with pytest.raises(DomainError, match=f"got gamma={g}"):
                diagram.solve_phi(g, [1.02, 2.0])
        # a grid that stops short of V_cr cannot define it
        with pytest.raises(DomainError, match="above V_cr"):
            diagram.solve_phi(GAMMA0, np.geomspace(2.0, 1000.0, 50))

    def test_samples_unchanged(self, eos):
        # the samples are plain floats, the same floats as the numpy-array
        # implementation traced on this grid (recorded with numpy 2.4.6 and
        # scipy 1.17.1); a change here is a change of the trace's numbers
        def digest(values):
            return hashlib.sha256(
                " ".join(v.hex() for v in values).encode()).hexdigest()

        samples = (eos.V, eos.kappa, eos.phi_vals, eos.dphi_vals)
        assert all(type(v) is float for seq in samples for v in seq)
        assert [len(seq) for seq in samples] == [382] * 4
        assert eos.V_cr.hex() == "0x1.6a7764117313bp+0"
        assert [digest(seq)[:16] for seq in samples] == [
            "a83a707ec21c4eac", "0d58e33e7bf84d87", "8b7538301dbfde2c",
            "cc9c132dbc1bba41"]

    def test_v_cr_against_ivp(self, eos, ivp):
        assert eos.V_cr == pytest.approx(ivp.V_cr, rel=1e-7)

    def test_w_slope_finite_at_kappa_zero(self):
        # w' tends to its kappa = 0 limit, which trial stages at w <= 0
        # take: the leading correction is linear in w, so a third of w
        # leaves a third of the deviation
        limit = diagram._w_prime(GAMMA0, 1.4, 0.0)
        assert diagram._w_prime(GAMMA0, 1.4, -0.1) == limit
        dev = [diagram._w_prime(GAMMA0, 1.4, w) / limit - 1.0 for w in (3e-2, 1e-2)]
        assert abs(dev[0]) < 0.1
        assert dev[1] == pytest.approx(dev[0] / 3.0, rel=0.05)


class TestCriticalGamma:
    def test_residual(self):
        cg = diagram.critical_gamma(0.29)
        z = specfun.riemann_zeta
        assert z(cg.d + 1.0) / z(cg.d) == pytest.approx(0.29, abs=1e-10)
        assert cg.gamma == cg.d - 1.0
        assert cg.d == pytest.approx(1.22228, abs=1e-4)

    def test_bracketing_oracle(self):
        z = oracles.zeta_euler_maclaurin
        assert z(2.1) / z(1.1) < 0.29 < z(2.3) / z(1.3)
        cg = diagram.critical_gamma(0.29)
        assert 1.1 < cg.d < 1.3

    def test_ratio_monotone_in_target(self):
        ds = [diagram.critical_gamma(t).d for t in (0.15, 0.29, 0.5, 0.8)]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            diagram.critical_gamma(1.2)
        with pytest.raises(DomainError):
            diagram.critical_gamma(0.9999)


class TestActivitySolver:
    def test_unbracketed_raises(self):
        with pytest.raises(SolverError, match=r"resid\(0\) = -2, resid\(1\) = -1"):
            diagram._solve_activity(lambda a: a, 2.0)

    def test_upper_endpoint_of_smooth_root(self):
        calls = []

        def f(a):
            calls.append(a)
            return math.expm1(3.0 * a)

        a = diagram._solve_activity(f, 0.7)
        root = math.log1p(0.7) / 3.0
        assert abs(a - root) <= 4 * math.ulp(root)
        # a bisection to adjacent floats takes ~54 evaluations
        assert len(calls) <= 15

    def test_exact_zero_at_upper_end(self):
        assert diagram._solve_activity(lambda a: 2.0 * a, 2.0) == 1.0


class TestIdealIsotherm:
    def test_defining_equations(self):
        zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
        for pt in diagram.ideal_isotherm(np.linspace(0.05, 1.0, 20)):
            assert specfun.polylog(GAMMA0 + 2.0, pt.a) == \
                pytest.approx(pt.P_r * zp2, rel=1e-9)
            assert pt.Z == pytest.approx(
                pt.P_r * zp2 / specfun.polylog(GAMMA0 + 1.0, pt.a), rel=1e-12)

    def test_endpoints(self):
        low = diagram.ideal_isotherm([1e-6])[0]
        assert low.Z == pytest.approx(1.0, abs=1e-3)
        top = diagram.ideal_isotherm([1.0])[0]
        assert top.a == pytest.approx(1.0, abs=1e-12)
        expect = specfun.riemann_zeta(GAMMA0 + 2.0) / \
            specfun.riemann_zeta(GAMMA0 + 1.0)
        assert top.Z == pytest.approx(expect, rel=1e-12)

    def test_monotone(self):
        pts = diagram.ideal_isotherm(np.linspace(0.05, 1.0, 15))
        zs = [p.Z for p in pts]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            diagram.ideal_isotherm([0.0])
        with pytest.raises(DomainError):
            diagram.ideal_isotherm([1.5])

    def test_unit_pressure_needs_positive_gamma0(self):
        # P = 1 gives a = 1 and Z = zeta(gamma0 + 2) / zeta(gamma0 + 1)
        for g0 in (0.0, -0.5):
            with pytest.raises(DomainError, match="P = 1"):
                diagram.ideal_isotherm([0.5, 1.0], g0)
        pts = diagram.ideal_isotherm([0.1, 0.5], -0.5)
        assert [p.P_r for p in pts] == [0.1, 0.5]

    @pytest.mark.parametrize("g0", [0.0, -0.5])
    @pytest.mark.parametrize("P", [0.999999999999, 0.9999999999999999])
    def test_activity_rounding_to_one_needs_positive_gamma0(self, g0, P):
        # below P = 1 the solved activity can round to 1, where Z divides
        # by zeta(gamma0 + 1) as at P = 1; a point that does not round
        # is computed
        try:
            pts = diagram.ideal_isotherm([P], g0)
        except DomainError as exc:
            assert "P = 1 needs gamma0 + 1 > 1" in str(exc)
            assert f"P = {P}" in str(exc)
            return
        assert pts[0].a < 1.0
        assert pts[0].Z == pytest.approx(
            P * specfun.riemann_zeta(g0 + 2.0) / specfun.polylog(g0 + 1.0, pts[0].a),
            rel=1e-12)


class TestImperfectIsotherm:
    def test_identity_reduces_to_ideal(self):
        grid = np.linspace(0.05, 1.0, 20)
        ideal = diagram.ideal_isotherm(grid)
        via_identity = diagram.imperfect_isotherm(
            grid, diagram.FractalEos.identity(GAMMA0))
        for a, b in zip(ideal, via_identity):
            assert a == b

    def test_defining_equations(self, eos):
        zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
        c_cr = eos.dphi(eos.V_cr)
        for pt in diagram.imperfect_isotherm(np.linspace(0.1, 0.9, 9), eos):
            V = pt.Z / pt.P_r
            assert eos.phi(V) * specfun.polylog(GAMMA0 + 1.0, pt.a) == \
                pytest.approx(c_cr * zp2, rel=1e-8)
            assert eos.dphi(V) * specfun.polylog(GAMMA0 + 2.0, pt.a) == \
                pytest.approx(pt.P_r * c_cr * zp2, rel=1e-8)

    def test_against_ivp(self, eos, ivp):
        pts = diagram.imperfect_isotherm([0.05, 0.5, 0.8, 0.95], eos)
        assert [p.Z for p in pts] == pytest.approx(ivp.Z, rel=1e-5)

    def test_branch_top(self, eos, ivp):
        with pytest.raises(SolverError, match=r"P = 0\.99: .*P_max = ") as exc:
            diagram.imperfect_isotherm([0.99], eos)
        p_max = float(re.search(r"P_max = ([0-9.]+)", str(exc.value)).group(1))
        assert p_max == pytest.approx(ivp.P_max, abs=1e-6)
        # just below the top the volume sits just above V_cr
        top = diagram.imperfect_isotherm([0.9899], eos)[0]
        assert eos.V_cr < top.Z / top.P_r < 1.001 * eos.V_cr

    def test_every_pressure_up_to_the_top_resolves(self, eos, monkeypatch):
        def above_top(P):
            try:
                diagram.imperfect_isotherm([P], eos)
            except SolverError as exc:
                return "above the top of the branch" in str(exc)
            return False

        lo, hi = 0.98, 1.0
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if above_top(mid) else (mid, hi)
        p_max = lo
        raised = []
        inv_phi = diagram.FractalEos.inv_phi

        def counted(self, y):
            try:
                return inv_phi(self, y)
            except DomainError:
                raised.append(y)
                raise

        monkeypatch.setattr(diagram.FractalEos, "inv_phi", counted)
        grid = [p_max - 1e-13 + i * 1e-13 / 9 for i in range(9)] + [p_max]
        pts = diagram.imperfect_isotherm(grid, eos)
        zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
        c_cr = eos.dphi(eos.V_cr)
        for pt in pts:
            V = pt.Z / pt.P_r
            assert V >= eos.V_cr
            assert eos.phi(V) * specfun.polylog(GAMMA0 + 1.0, pt.a) == \
                pytest.approx(c_cr * zp2, rel=1e-8)
            assert eos.dphi(V) * specfun.polylog(GAMMA0 + 2.0, pt.a) == \
                pytest.approx(pt.P_r * c_cr * zp2, rel=1e-8)
        assert raised == []

    def test_deformation_effect(self, eos):
        # the deformed and undeformed isotherms agree in the dilute
        # limit and separate strongly as the critical pressure nears
        grid = [0.05, 0.98]
        ideal = diagram.ideal_isotherm(grid)
        real = diagram.imperfect_isotherm(grid, eos)
        assert real[0].Z == pytest.approx(ideal[0].Z, abs=0.02)
        assert real[1].Z > ideal[1].Z + 0.5

    def test_domain(self, eos):
        with pytest.raises(DomainError):
            diagram.imperfect_isotherm([0.0], eos)


class TestJamming:
    def test_start_and_monotonicity(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        curve = diagram.jamming_extension(
            [0.0] + list(np.arange(-0.01, -0.501, -0.01)), eos)
        gammas = curve.column("gamma")
        assert gammas[0] == GAMMA0
        assert all(a >= b - 1e-12 for a, b in zip(gammas, gammas[1:]))
        assert all(g >= 0.0 for g in gammas)
        # the integrated branch moves to lower pressure, the stitch back
        # up to the anchor
        mus = curve.column("mu")
        n_branch = sum(1 for i in range(1, len(mus)) if mus[i] < mus[i - 1]) + 1
        ps = curve.column("P")
        branch, stitch = ps[:n_branch], ps[n_branch - 1:]
        assert all(a > b for a, b in zip(branch, branch[1:]))
        assert all(a < b for a, b in zip(stitch, stitch[1:]))

    def test_linear_tail(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        curve = diagram.jamming_extension(
            [0.0, -0.05, -0.1, -0.2, -0.3], eos, anchor_P=2.5)
        tail = [(p, z) for p, z, _, _ in curve.rows if p > 1.5]
        assert len(tail) >= 5
        p0, z0 = tail[0]
        p1, z1 = tail[-1]
        slope = (z1 - z0) / (p1 - p0)
        for p, z in tail:
            assert z == pytest.approx(z0 + slope * (p - p0), abs=1e-12)
        assert curve.rows[-1][0] == pytest.approx(2.5, rel=1e-14)
        assert curve.rows[-1][1] == pytest.approx(1.0, rel=1e-14)

    def test_linear_variant(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        curve = diagram.jamming_extension(
            [0.0, -0.1, -0.2, -0.3], eos, variant="linear")
        gam = dict((m, g) for _, _, m, g in curve.rows)
        assert gam[-0.1] == pytest.approx(0.1, rel=1e-12)
        # gamma floors at 0 at mu = -gamma0 and the trace stops there
        assert gam[-0.2] == 0.0
        assert -0.3 not in gam
        assert curve.meta["jammed"] is True

    def test_linear_variant_rows_against_mpmath(self):
        # gamma = gamma0 + mu walks the orders gamma + 1 and gamma + 2 down
        # to the integers 1 and 2 at z = e^-0.2, through near-integer ones
        mu_grid = [0.0] + [-0.01 * i for i in range(1, 31)]
        curve = diagram.jamming_extension(
            mu_grid, diagram.FractalEos.identity(GAMMA0), variant="linear")
        # the rows after mu = 0 up to the jammed one (gamma = 0)
        end = next(i for i, r in enumerate(curve.rows) if r[3] == 0.0)
        branch = curve.rows[1:end + 1]
        assert len(branch) == 20
        zp2 = oracles.polylog_mpmath(GAMMA0 + 2.0, 1.0)
        for P, Z, mu, g in branch:
            a = math.exp(mu)
            li2 = oracles.polylog_mpmath(g + 2.0, a)
            li1 = oracles.polylog_mpmath(g + 1.0, a)
            assert P == pytest.approx(li2 / zp2, rel=1e-12)
            assert Z == pytest.approx(li2 / li1, rel=1e-12)

    def test_origin_row_is_zeta_ratio(self):
        curve = diagram.jamming_extension(
            [0.0, -0.1], diagram.FractalEos.identity(GAMMA0))
        P, Z, mu, g = curve.rows[0]
        assert (P, mu, g) == (1.0, 0.0, GAMMA0)
        assert Z == specfun.riemann_zeta(GAMMA0 + 2.0) / \
            specfun.riemann_zeta(GAMMA0 + 1.0)

    def test_nonpositive_gamma0_rejected(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        for g0 in (0.0, -0.5, 1e-17, math.nan):
            with pytest.raises(DomainError):
                diagram.jamming_extension([0.0, -0.1], eos, gamma0=g0)

    def test_ode_gamma0_below_difference_step_rejected(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        for g0 in (1e-15, 5e-5, 1e-4, math.nextafter(1e-4, 1.0)):
            with pytest.raises(DomainError, match="step"):
                diagram.jamming_extension([0.0, -0.1], eos, gamma0=g0)
        curve = diagram.jamming_extension([0.0, -0.1], eos, gamma0=1e-15,
                                          variant="linear")
        assert curve.meta["jammed"]

    def test_rk4_step_is_fourth_order_taylor(self):
        # for y' = y one step multiplies y by the degree-4 Taylor
        # polynomial of e^h
        for h in (0.5, -0.25, 1e-3):
            want = 2.0 * (1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24)
            got = diagram._rk4_step(lambda x, y: y, 0.3, 2.0, h)
            assert got == pytest.approx(want, rel=1e-15)

    def test_slope_near_unity_at_origin(self):
        assert diagram._gamma_slope(GAMMA0, 0.0) == pytest.approx(1.0, abs=0.1)

    def test_domain(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        with pytest.raises(DomainError):
            diagram.jamming_extension([-0.1, -0.2], eos)
        for anchor_P in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                diagram.jamming_extension([0.0, -0.1], eos, anchor_P=anchor_P)
        with pytest.raises(DomainError):
            diagram.jamming_extension([0.0, -0.1], eos, variant="spline")


class TestLinspace:
    """The pure-Python grids equal numpy's linspace float for float."""

    @pytest.mark.parametrize("start, stop, num", [
        (0.0, 1.0, 41), (0.273, 0.999, 25), (-0.5, 2.5, 7), (1e-3, 1e3, 100),
        (3.0, -1.0, 13), (0.1, 0.1, 5), (0.0, 1.0, 2)])
    def test_against_numpy(self, start, stop, num):
        assert diagram._linspace(start, stop, num) == \
            np.linspace(start, stop, num).tolist()

    def test_jamming_stitch(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        curve = diagram.jamming_extension([0.0, -0.1, -0.2], eos, anchor_P=2.5)
        P_b, Z_b = curve.meta["breakpoint"]
        stitch = [(P_b + t * (2.5 - P_b), Z_b + t * (1.0 - Z_b))
                  for t in np.linspace(0.0, 1.0, 41)[1:].tolist()]
        assert [row[:2] for row in curve.rows[-40:]] == stitch

    def test_liquid_hyperbola(self, eos):
        line = diagram.ZenoLine()
        summary = diagram.liquid_summary(eos, line)
        c = summary["hyperbola_constant"]
        rhos = np.linspace(0.273 * line.rho_B, 0.999 * line.rho_B, 25).tolist()
        assert summary["hyperbola"] == [(r, c / r) for r in rhos]


class TestLiquidSummary:
    def test_hyperbola_constant(self, eos):
        summary = diagram.liquid_summary(eos, diagram.ZenoLine())
        c = summary["hyperbola_constant"]
        for rho, z in summary["hyperbola"]:
            assert rho * z == pytest.approx(c, rel=1e-12)
        assert summary["V_cr"] == eos.V_cr

    def test_rays_on_zeno_line(self, eos):
        line = diagram.ZenoLine()
        summary = diagram.liquid_summary(eos, line)
        for t, rho in summary["rays"]:
            assert rho == pytest.approx(1.0 - t, rel=1e-12)


class TestReferenceTables:
    def test_rotation_angles(self):
        assert diagram.rotation_angle(0.30) == 0.049
        assert diagram.rotation_angle(0.26) == 0.052
        assert diagram.rotation_angle(0.17) == 0.066
        with pytest.raises(LookupError):
            diagram.rotation_angle(0.1)

    def test_substances(self):
        ar = diagram.substance_data("Ar")
        assert ar["epsilon_K"] == 119.3
        assert set(diagram.reference_tables()["substances"]) == \
            {"Ne", "Ar", "Kr", "N2", "CH4", "C2H6"}
        with pytest.raises(LookupError):
            diagram.substance_data("He")

    def test_t_ratio_references(self):
        assert diagram.T_CR_OVER_T_B_REFERENCES == (0.39, 2.79)
