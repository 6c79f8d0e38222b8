import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenoline import cli, curves, diagram, specfun
from zenoline.errors import BracketError, CausticError, DomainError, SolverError

import oracles

GAMMA0 = diagram.GAMMA0


@pytest.fixture(scope="module")
def eos():
    # the grid of `zenoline isotherm --mode imperfect`
    return diagram.solve_phi(GAMMA0, curves.geomspace(1.02, 1000.0, 400))


@pytest.fixture(scope="module")
def ivp():
    return oracles.phi_isotherm_ivp(GAMMA0, [0.05, 0.5, 0.8, 0.95])


class TestBachinskii:
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(b=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3),
           log_ratio=st.floats(-15.0, 0.0))
    def test_vieta(self, b, c, log_ratio):
        P = b * 10.0**log_ratio
        lo, hi = diagram.bachinskii_density(b, c, P)
        assert lo <= hi
        assert lo + hi == pytest.approx(4.0 * b / c, rel=1e-14, abs=0)
        assert lo * hi == pytest.approx(4.0 * b * P / (c * c), rel=1e-14, abs=0)

    def test_low_root_against_mpmath(self):
        # (2b/c)(1 - s) lost 8e-4 of the low root here to cancellation
        for b, c, P in ((1.0, 1.0, 1e-10), (5.0, 0.7, 1e-13), (2.0, 3.0, 1.9)):
            lo, hi = diagram.bachinskii_density(b, c, P)
            want_lo, want_hi = oracles.bachinskii_mpmath(b, c, P)
            assert lo == pytest.approx(want_lo, rel=1e-15, abs=0)
            assert hi == pytest.approx(want_hi, rel=1e-15, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            diagram.bachinskii_density(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            diagram.bachinskii_density(1.0, 1.0, -0.5)


class TestDormandPrince:
    @pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-12])
    def test_gaussian(self, rtol):
        # y' = -2xy, y(0) = 1 has y = e^(-x^2); the step values and the
        # dense output at each step's midpoint stay within 10 rtol of it
        # (measured at most 3.2 rtol)
        steps = list(diagram._dopri5(lambda x, y: -2.0 * x * y, 0.0, 1.0, 2.0, 0.01,
                                     rtol, 1e-300))
        assert steps[0][0] == 0.0 and steps[-1][1] == 2.0
        assert all(a[1] == b[0] for a, b in zip(steps, steps[1:]))
        for x0, x1, y1, dense in steps:
            assert y1 == pytest.approx(math.exp(-x1 * x1), rel=10 * rtol)
            assert diagram._dense(dense, 1.0) == pytest.approx(y1, rel=1e-15)
            mid = 0.5 * (x0 + x1)
            assert diagram._dense(dense, 0.5) == pytest.approx(math.exp(-mid * mid),
                                                               rel=10 * rtol)

    def test_blow_up_raises(self):
        # y' = y^2, y(0) = 1 has y = 1/(1 - x): the steps shrink onto the
        # pole until one falls below the floor
        blow_up = diagram._dopri5(lambda x, y: y * y, 0.0, 1.0, 2.0, 0.1, 1e-8, 1e-12)
        with pytest.raises(SolverError, match=r"x = 1\.0000000\d*, y = \d.*ulp.*h = "):
            for _ in blow_up:
                pass

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(diagram, "_MAX_STEPS", 5)
        with pytest.raises(SolverError, match=r"5 steps did not reach x = 2\.0; h = "):
            for _ in diagram._dopri5(lambda x, y: -2.0 * x * y, 0.0, 1.0, 2.0, 0.01,
                                     1e-12, 1e-300):
                pass


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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_inverse_properties(self, eos, data):
        # over [phi(V_cr), phi(V_max)): phi of the inverse is within 2 ulp
        # of y (adjacent volumes near V_cr are 4 ulp of phi apart), the
        # inverse is exact at the samples, and it is monotone in y, also
        # between adjacent floats
        lo, hi = eos.phi_vals[0], eos.phi_vals[-1]
        # a cell, then a point in it, so that the cells near V_cr, where
        # phi < 1 < V, are drawn as often as the others
        i = data.draw(st.integers(0, len(eos.V) - 2))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        y = eos.phi_vals[i] + u * (eos.phi_vals[i + 1] - eos.phi_vals[i])
        v = eos.inv_phi(y)
        assert abs(eos.phi(v) - y) <= 2 * math.ulp(y)
        assert eos.inv_phi(eos.phi_vals[i]) == eos.V[i]
        y2 = data.draw(st.one_of(st.just(math.nextafter(y, hi)),
                                 st.floats(lo, hi, exclude_max=True)))
        v2 = eos.inv_phi(y2)
        assert (v <= v2) if y <= y2 else (v >= v2)

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
        for grid in (np.geomspace(2.0, 1000.0, 50), [1000.0, 1000.0]):
            with pytest.raises(DomainError, match="above V_cr"):
                diagram.solve_phi(GAMMA0, grid)
        # samples that do not trace a deformation: a repeated volume, and
        # the two smallest, where phi(V)/V is still far from 1
        with pytest.raises(DomainError, match="phi must be strictly increasing"):
            diagram.FractalEos(GAMMA0, eos.V[:1] * 2, eos.kappa[:1] * 2)
        with pytest.raises(DomainError, match="does not reach 1"):
            diagram.FractalEos(GAMMA0, eos.V[:2], eos.kappa[:2])

    def test_empty_grid(self):
        with pytest.raises(DomainError, match="non-empty"):
            diagram.solve_phi(GAMMA0, [])

    def test_grid_below_the_boundary(self):
        # 2 T^1.2 < 1 at V_max = 2: no kappa < 0 to start the trace from
        with pytest.raises(DomainError, match=r"V_max = 2\.0, where kappa = 0\.139 "
                                              "would not be negative"):
            diagram.solve_phi(GAMMA0, [1.02, 1.5, 2.0])

    def test_samples_unchanged(self, eos):
        # the samples are plain floats, pinned as traced with the
        # pure-Python zeta on the pure-Python geomspace grid; a change here
        # is a change of the trace's numbers
        def digest(values):
            return hashlib.sha256(
                " ".join(v.hex() for v in values).encode()).hexdigest()

        samples = (eos.V, eos.kappa, eos.phi_vals, eos.dphi_vals)
        assert all(type(v) is float for seq in samples for v in seq)
        assert [len(seq) for seq in samples] == [382] * 4
        assert eos.V_cr.hex() == "0x1.6a7763f4277f8p+0"
        assert [digest(seq)[:16] for seq in samples] == [
            "691e1dfea6d204ce", "16a33ccee7a9e635", "7de6d902f2286a31",
            "e8bc6d3aec108047"]

    def test_v_cr_against_ivp(self, eos, ivp):
        # measured 7.3e-10
        assert eos.V_cr == pytest.approx(ivp.V_cr, rel=1e-9)

    @pytest.mark.parametrize("gamma, rel", [(0.05, 3e-9), (0.5, 3e-9), (0.9, 2e-10)])
    def test_v_cr_against_ivp_across_gamma(self, gamma, rel):
        # measured 1.6e-9, 2.2e-9 and 8.7e-11; one RK4 step per grid cell
        # left V_cr 3.4e-7, 2.2e-8 and 5.9e-4 off
        got = diagram.solve_phi(gamma, curves.geomspace(1.02, 1000.0, 400)).V_cr
        assert got == pytest.approx(oracles.phi_isotherm_ivp(gamma, []).V_cr, rel=rel)

    def test_slope_evaluations(self, monkeypatch):
        # the trace on the CLI grid: 79 accepted steps, none rejected, of
        # six slope evaluations each, plus the first step's first slope
        calls = []
        w_prime = diagram._w_prime

        def counted(*args):
            calls.append(args)
            return w_prime(*args)

        monkeypatch.setattr(diagram, "_w_prime", counted)
        diagram.solve_phi(GAMMA0, curves.geomspace(1.02, 1000.0, 400))
        assert len(calls) <= 475

    def test_w_slope_finite_at_kappa_zero(self):
        # w' tends to its kappa = 0 limit, which trial stages at w <= 0
        # take: the leading correction is linear in w, so a third of w
        # leaves a third of the deviation
        limit = diagram._w_prime(GAMMA0, 1.4, 0.0)
        assert diagram._w_prime(GAMMA0, 1.4, -0.1) == limit
        dev = [diagram._w_prime(GAMMA0, 1.4, w) / limit - 1.0 for w in (3e-2, 1e-2)]
        assert abs(dev[0]) < 0.1
        assert dev[1] == pytest.approx(dev[0] / 3.0, rel=0.05)

    @pytest.mark.parametrize("gamma", [3e-9, 1e-9])
    def test_tiny_gamma_is_a_solver_error(self, gamma):
        # a trial stage's -kappa = w^(1/gamma) exceeds ~745, so e^kappa
        # underflows to 0: a SolverError naming gamma, w and kappa, not
        # polylog's complaint about a z the caller never gave
        with pytest.raises(SolverError, match=rf"^trial stage at gamma = {gamma!r}, "
                           r"w = 1\.0000000\d+: kappa = -1\d\d\d\.\d+, where "
                           r"e\^kappa underflows to 0$"):
            diagram.solve_phi(gamma, curves.geomspace(1.02, 1000.0, 400))
        # 5e-9 still traces
        assert diagram.solve_phi(5e-9, curves.geomspace(1.02, 1000.0, 400)).V_cr > 1.0


class TestActivitySolver:
    def test_unbracketed_raises(self):
        with pytest.raises(BracketError, match=r"^f\(a\) and f\(b\) must have "
                           r"different signs\. On \[a, b\] = \[0\.0, 1\.0\], "
                           r"f\(a\) = -2\.0, f\(b\) = -1\.0; iteration 0\.$"):
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
        # the activity solve stops relative to a, however small a is
        assert diagram.ideal_isotherm([1e-300])[0].Z == pytest.approx(1.0, rel=1e-15)
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
        # V = Z/P would overflow
        with pytest.raises(DomainError, match=r"\[2\*\*-1022, 1\], got 1e-310"):
            diagram.ideal_isotherm([1e-310])
        with pytest.raises(DomainError):
            diagram.ideal_isotherm([1.5])

    def test_one_volume_per_point(self, monkeypatch):
        # phi' = 1 on the undeformed member, so the activity solve reads
        # no V(a), and V is formed once, from the solved a
        calls = []
        inv_phi = diagram.FractalEos.inv_phi

        def counted(self, y):
            calls.append(y)
            return inv_phi(self, y)

        monkeypatch.setattr(diagram.FractalEos, "inv_phi", counted)
        grid = cli.parse_grid(cli._DEFAULTS["P_grid"])
        pts = diagram.ideal_isotherm(grid)
        assert len(pts) == len(calls) == 20

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
    @example(g0=GAMMA0, P=0.5)
    @example(g0=-0.5, P=1.0)
    # the reference's a lies within ~1e-11 of 1, where its residual is
    # 0.0369 against a target of 16.88
    @example(g0=-0.9496604931431861, P=0.8255893806880852)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(g0=st.floats(-0.95, 0.95), P=st.floats(0.0, 1.0, exclude_min=True))
    def test_ideal_against_reference_loop(self, g0, P):
        # the same floats or the same DomainError text where the reference
        # point meets its equation to 1e-8, and SolverError elsewhere
        def outcome(isotherm):
            try:
                return isotherm([P], g0)
            except DomainError as exc:
                return str(exc)

        want = outcome(oracles.ideal_isotherm_reference)
        # a DomainError in range is the a = 1 rule
        a = want[0].a if isinstance(want, list) else 1.0
        target = P * specfun.riemann_zeta(g0 + 2.0)
        if P < 2.0**-1022 or \
                abs(specfun.polylog(g0 + 2.0, a) - target) <= 1e-8 * target:
            assert outcome(diagram.ideal_isotherm) == want
        else:
            with pytest.raises(SolverError, match="exceeds 1e-8 of the target"):
                diagram.ideal_isotherm([P], g0)

    def test_identity_member_is_exact(self):
        # one sample at V = 0, whose large-volume rule is phi = V
        eos = diagram.FractalEos.identity(GAMMA0)
        assert eos.V_cr == 0.0
        for x in (5e-324, 0.3, 1.0, 1e300, math.inf):
            assert (eos.phi(x), eos.dphi(x), eos.inv_phi(x)) == (x, 1.0, x)
        with pytest.raises(DomainError):
            eos.phi(-1.0)

    @pytest.mark.parametrize("member", ["traced", "identity"])
    @pytest.mark.parametrize("method", ["phi", "dphi", "inv_phi"])
    def test_nan_is_a_domain_error(self, eos, member, method):
        if member == "identity":
            eos = diagram.FractalEos.identity(GAMMA0)
        with pytest.raises(DomainError, match="nan outside the solved range"):
            getattr(eos, method)(math.nan)

    def test_nonpositive_gamma0_on_a_traced_member(self, eos):
        # Li_{gamma0+1}(1) diverges for gamma0 <= 0; V(1) is held at V_cr
        g0 = -0.5
        zp2 = specfun.riemann_zeta(g0 + 2.0)
        c_cr = eos.dphi(eos.V_cr)
        pt = diagram.imperfect_isotherm([0.5], eos, g0)[0]
        V = pt.Z / pt.P_r
        assert eos.phi(V) * specfun.polylog(g0 + 1.0, pt.a) == \
            pytest.approx(c_cr * zp2, rel=1e-8)
        assert eos.dphi(V) * specfun.polylog(g0 + 2.0, pt.a) == \
            pytest.approx(0.5 * c_cr * zp2, rel=1e-8)
        with pytest.raises(SolverError, match=r"P = 0\.9: .*P_max = 0\.724116 "):
            diagram.imperfect_isotherm([0.9], eos, g0)
        with pytest.raises(DomainError, match="P = 1 needs gamma0 \\+ 1 > 1"):
            diagram.imperfect_isotherm([1.0], eos, g0)
        assert diagram.imperfect_isotherm([0.9], eos, 0.0)[0].a < 1.0

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
        # P_max is the pressure at V_cr, which the error rounds to 6 decimals
        zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
        a_top = diagram._solve_activity(lambda a: specfun.polylog(GAMMA0 + 1.0, a),
                                        eos.dphi_vals[0] * zp2 / eos.phi_vals[0])
        p_max = specfun.polylog(GAMMA0 + 2.0, a_top) / zp2
        assert f"P_max = {p_max:.6f} " in str(exc.value)
        # measured 6.6e-11
        assert p_max == pytest.approx(ivp.P_max, abs=1e-10)
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

    def test_branch_top_solved_once(self, eos, monkeypatch):
        # P_max is solved only where a solve lands on V_cr, and then once
        fresh = diagram.solve_phi(GAMMA0, curves.geomspace(1.02, 1000.0, 400))
        solves, calls = [], []
        solve_activity = diagram._solve_activity

        def counted_solve(f, target):
            solves.append(target)
            return solve_activity(f, target)

        def counted(s, z):
            calls.append((s, z))
            return specfun.polylog(s, z)

        monkeypatch.setattr(diagram, "_solve_activity", counted_solve)
        monkeypatch.setattr(diagram, "polylog", counted)
        first = diagram.imperfect_isotherm([0.5], fresh)
        assert (len(solves), len(calls)) == (1, 24)
        del solves[:], calls[:]
        assert diagram.imperfect_isotherm([0.5], fresh) == first
        assert diagram.imperfect_isotherm([0.5], eos) == first
        assert (len(solves), len(calls)) == (2, 48)
        del solves[:]
        with pytest.raises(SolverError, match=r"P = 1\.0: .*P_max = 0\.989925 "):
            diagram.imperfect_isotherm([1.0], fresh)
        assert len(solves) == 2

    def test_zeta_cached_across_points(self, eos, monkeypatch):
        # zeta at the orders of a point (zeta(gamma0 + 2), and Li at a = 1
        # in the activity bracket) is summed once per process
        diagram.imperfect_isotherm([0.5], eos)
        calls = []
        em_sums = specfun._em_sums

        def counted(*args):
            calls.append(args)
            return em_sums(*args)

        monkeypatch.setattr(specfun, "_em_sums", counted)
        diagram.imperfect_isotherm([0.5], eos)
        assert calls == []

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
        with pytest.raises(DomainError):
            diagram.imperfect_isotherm([2.0**-1023], eos)
        assert diagram.imperfect_isotherm([2.0**-1022], eos)[0].Z == \
            pytest.approx(1.0, rel=1e-12)


class TestJamming:
    def test_default_run_polylog_calls(self, monkeypatch):
        # each row takes Li_{gamma+2} and Li_{gamma+1} once, and each slope
        # evaluation two more: the run of `zenoline jamming` at its
        # defaults, 51 rows and 73 slope evaluations (12 steps in u)
        calls = []

        def counted(s, z):
            calls.append((s, z))
            return specfun.polylog(s, z)

        monkeypatch.setattr(diagram, "polylog", counted)
        curve = diagram.jamming_extension(
            cli.parse_grid(cli._DEFAULTS["mu_grid"]),
            diagram.FractalEos.identity(GAMMA0))
        assert len(curve.rows) > 41
        assert len(calls) <= 248

    def test_default_run_work(self, monkeypatch):
        # the trace in u = sqrt(-mu) needs no ladder of tiny steps at
        # mu = 0, and the orders gamma + 1 and its successor share one
        # zeta ladder of the log series: each ladder is built once and
        # read once more
        slopes = []
        gamma_slope = diagram._gamma_slope

        def counted(gamma, mu):
            slopes.append(mu)
            return gamma_slope(gamma, mu)

        monkeypatch.setattr(diagram, "_gamma_slope", counted)
        specfun._log_series.cache_clear()
        specfun._log_ladder.cache_clear()
        diagram.jamming_extension(cli.parse_grid(cli._DEFAULTS["mu_grid"]),
                                  diagram.FractalEos.identity(GAMMA0))
        assert len(slopes) <= 73
        info = specfun._log_ladder.cache_info()
        assert info.misses > 0 and info.hits == info.misses

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

    def test_ode_small_gamma0(self):
        # the analytic slope at mu = 0 is (zeta'(g+2) - Z zeta'(g+1)) /
        # zeta(g+1), finite for every g > 0 and tending to zeta(2) as
        # g -> 0; from there the trace jams within the first step
        eos = diagram.FractalEos.identity(GAMMA0)
        for g0 in (1e-15, 5e-5, 1e-4):
            assert diagram._gamma_slope(g0, 0.0) == pytest.approx(
                oracles.gamma_slope_mpmath(g0, 0.0), rel=1e-13)
            for variant in ("ode", "linear"):
                curve = diagram.jamming_extension([0.0, -0.1], eos, gamma0=g0,
                                                  variant=variant)
                assert curve.meta["jammed"]
                assert curve.rows[1][3] == 0.0
        assert diagram._gamma_slope(1e-15, 0.0) == pytest.approx(math.pi**2 / 6,
                                                                 rel=1e-14)

    @pytest.mark.parametrize("gamma, mu", [
        (GAMMA0, 0.0), (GAMMA0, -0.05), (0.12, -0.3), (0.0, -0.2),
        (-0.01, -0.4), (0.24, -1e-9), (0.3, -0.5), (0.5, -0.7), (1.0, -0.2)])
    def test_slope_against_mpmath(self, gamma, mu):
        # dZ/d(gamma) from the analytic order derivative of Li_s, on the
        # pole-pair (|gamma| < 0.25), generic and power-series branches
        assert diagram._gamma_slope(gamma, mu) == pytest.approx(
            oracles.gamma_slope_mpmath(gamma, mu), rel=1e-13)

    def test_default_run_against_ode(self):
        # the library's Dormand-Prince trace against scipy's DOP853 on the
        # same slope; measured 3.7e-8 in gamma, 1.2e-8 in P, 2.4e-8 in Z
        mu_grid = cli.parse_grid(cli._DEFAULTS["mu_grid"])
        curve = diagram.jamming_extension(mu_grid, diagram.FractalEos.identity(GAMMA0))
        want = oracles.jamming_gamma_ivp(mu_grid, GAMMA0)
        # no jamming: the first len(mu_grid) rows are the integrated branch
        assert not curve.meta["jammed"] and len(want) == len(mu_grid)
        assert want[-1] == pytest.approx(0.0810568991452, abs=1e-12)
        zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
        for (P, Z, mu, g), g_ode in zip(curve.rows, want):
            l1, l2 = (specfun.polylog(g_ode + s, math.exp(mu)) for s in (1.0, 2.0))
            assert g == pytest.approx(g_ode, abs=6e-8)
            assert P == pytest.approx(l2 / zp2, rel=2e-8)
            assert Z == pytest.approx(l2 / l1, rel=4e-8)

    @pytest.mark.parametrize("gamma0, tol", [(0.05, 1.5e-8), (0.6, 1.5e-7),
                                             (1.5, 1.5e-7)])
    def test_gamma0_against_ode(self, gamma0, tol):
        # measured 9.0e-9, 1.0e-7 and 1.1e-7; from gamma0 = 0.05 the run
        # jams at mu = -0.14, where DOP853's gamma has crossed 0
        mu_grid = cli.parse_grid(cli._DEFAULTS["mu_grid"])
        curve = diagram.jamming_extension(mu_grid, diagram.FractalEos.identity(gamma0),
                                          gamma0=gamma0)
        want = oracles.jamming_gamma_ivp(mu_grid, gamma0)
        branch = curve.rows[:-40]
        assert len(branch) == (15 if gamma0 == 0.05 else len(mu_grid))
        for (_, _, _, g), g_ode in zip(branch, want):
            if g > 0.0:
                assert g == pytest.approx(g_ode, abs=tol)
            else:
                assert g_ode < 0.0
        assert curve.meta["jammed"] == (gamma0 == 0.05)

    def test_domain(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        with pytest.raises(DomainError):
            diagram.jamming_extension([-0.1, -0.2], eos)
        for mu_grid in ([0.0, -0.1, -0.1], [0.0, 0.1], [0.0, -0.2, -0.1]):
            with pytest.raises(DomainError, match="strictly decreasing"):
                diagram.jamming_extension(mu_grid, eos)
        for anchor_P in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                diagram.jamming_extension([0.0, -0.1], eos, anchor_P=anchor_P)
        with pytest.raises(DomainError):
            diagram.jamming_extension([0.0, -0.1], eos, variant="spline")

    @pytest.mark.parametrize("variant", ["ode", "linear"])
    def test_activity_underflow(self, variant):
        # e^mu is 0.0 below mu ~ -745: a mu the run reaches there is named
        # with the bound; a grid that jams before it still runs
        eos = diagram.FractalEos.identity(GAMMA0)
        for gamma0 in (GAMMA0, 1000.0):
            with pytest.raises(DomainError, match=r"^mu = -800\.0 is below -744\.44, "
                               r"where the activity e\^mu underflows$"):
                diagram.jamming_extension([0.0, -800.0], eos, gamma0=gamma0,
                                          variant=variant)
        curve = diagram.jamming_extension(cli.parse_grid("0:-1000:-0.5"), eos,
                                          variant=variant)
        assert curve.meta["jammed"] and curve.rows[-41][2] > -10.0


class TestLinspace:
    """The pure-Python grids equal numpy's linspace float for float."""

    @pytest.mark.parametrize("start, stop, num", [
        (0.0, 1.0, 41), (0.273, 0.999, 25), (-0.5, 2.5, 7), (1e-3, 1e3, 100),
        (3.0, -1.0, 13), (0.1, 0.1, 5), (0.0, 1.0, 2), (0.05, 0.9, 35)])
    def test_against_numpy(self, start, stop, num):
        assert curves.linspace(start, stop, num) == \
            np.linspace(start, stop, num).tolist()

    def test_jamming_stitch(self):
        eos = diagram.FractalEos.identity(GAMMA0)
        curve = diagram.jamming_extension([0.0, -0.1, -0.2], eos, anchor_P=2.5)
        P_b, Z_b = curve.meta["breakpoint"]
        stitch = [(P_b + t * (2.5 - P_b), Z_b + t * (1.0 - Z_b))
                  for t in np.linspace(0.0, 1.0, 41)[1:].tolist()]
        assert [row[:2] for row in curve.rows[-40:]] == stitch


GEOM_GRIDS = [(1.02, 1000.0, 400), (2.0, 1000.0, 50), (1e-3, 1e3, 100),
              (0.5, 0.001, 37)]


class TestPhaseCurve:
    def test_row_width_checked(self):
        with pytest.raises(DomainError, match="row of width 1"):
            curves.PhaseCurve(columns=("P", "Z"), rows=[(1.0, 2.0), (3.0,)])

    def test_unknown_column(self):
        curve = curves.PhaseCurve(columns=("P", "Z"), rows=[(1.0, 2.0)])
        assert curve.column("Z") == [2.0]
        assert curve.meta == {} and curve.meta is not curves.PhaseCurve((), []).meta
        with pytest.raises(DomainError, match="no column 'V'"):
            curve.column("V")


class TestGeomspace:
    """The pure-Python geometric grid is numpy's geomspace arithmetic."""

    def test_against_numpy_baseline_kernels(self):
        # numpy dispatches log10 and power to SIMD kernels above its
        # baseline (AVX-512 ones differ from the C library by an ulp at ~5%
        # of points); with those disabled, its floats are bit-identical
        from numpy._core._multiarray_umath import __cpu_dispatch__

        code = ("import json, numpy as np; print(json.dumps("
                f"[np.geomspace(*g).tolist() for g in {GEOM_GRIDS!r}]))")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True, timeout=120).stdout
        for grid, want in zip(GEOM_GRIDS, json.loads(out)):
            assert curves.geomspace(*grid) == want

    @pytest.mark.parametrize("start, stop, num", GEOM_GRIDS)
    def test_within_one_ulp_of_numpy(self, start, stop, num):
        got = curves.geomspace(start, stop, num)
        want = np.geomspace(start, stop, num).tolist()
        assert (got[0], got[-1]) == (start, stop) == (want[0], want[-1])
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(got, want))

    def test_domain(self):
        for start, stop in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                curves.geomspace(start, stop, 5)


class TestReferenceTables:
    def test_rotation_angles(self):
        # (lowest reduced volume of the band, angle), bands descending
        assert curves.ROTATION_ANGLES == ((0.30, 0.049), (0.25, 0.052),
                                          (0.20, 0.058), (0.17, 0.066))

    def test_substances(self):
        assert curves.SUBSTANCES["Ar"]["epsilon_K"] == 119.3
        assert set(curves.SUBSTANCES) == {"Ne", "Ar", "Kr", "N2", "CH4", "C2H6"}
        with pytest.raises(TypeError):
            curves.SUBSTANCES["He"] = {}

    def test_t_ratio_references(self):
        assert diagram.T_CR_OVER_T_B_REFERENCES == (0.39, 2.79)

    def test_tables_are_the_constants_of_curves(self):
        # `zenoline reference` prints curves' tables without loading diagram
        tables = diagram.reference_tables()
        assert tables["rotation_angles"] is curves.ROTATION_ANGLES
        assert tables["substances"] is curves.SUBSTANCES
        assert tables["T_cr_over_T_B"] is curves.T_CR_OVER_T_B_REFERENCES
