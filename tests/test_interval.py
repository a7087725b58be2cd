import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import BUMP, make_bump_interval, make_chain, make_interval
from graphzeta import (NumericalError, UnsupportedError, eigenvalue_count,
                       interval, scan_spectrum)
from graphzeta.interval import (CSTEP, SWEEP_BLOCK, BondSolution,
                                _block_product, _sweep,
                                bond_solution, dirichlet_subtracted_derivative,
                                real_k_limit, transfer_matrices_real)
from graphzeta.secular import _assemble_real, bond_solutions, logF_slope_imag
from graphzeta.wkb import u_log_expansion
from oracles import refined_segments


def free_reference(t, L=1.0):
    x = t * L
    e = math.expm1(-2.0 * x)
    fp = -t / math.tanh(x)
    dfp = -1.0 / math.tanh(x) + 4.0 * x * math.exp(-2.0 * x) / (L * e * e)
    log_u = x + math.log(-e) - math.log(2.0 * t)
    dlog_u = L / math.tanh(x) - 1.0 / t
    return fp, dfp, log_u, dlog_u


def dop853_reference(bond, t, mirrored=False):
    """(f'(0), d/dt f'(0), log u(L), d/dt log u(L)) by forward DOP853
    integration of u, v and their t-derivatives, with segment rescaling
    so exponential growth stays inside double range; with mirrored=True
    of the bond whose potential is V(L - x), whose f'(0) is the bond's
    f_prime_at_L."""
    L = bond.length
    pot = bond.potential
    tt = t * t

    def rhs(x, y):
        q = tt + pot.value(L - x if mirrored else x)
        return (y[1], q * y[0], y[3], q * y[2],
                y[5], q * y[4] + 2.0 * t * y[0],
                y[7], q * y[6] + 2.0 * t * y[2])

    kappa_max = math.sqrt(tt + max(0.0, pot.maximum(L)))
    edges = np.linspace(0.0, L, int(kappa_max * L / 20.0) + 2)
    y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sigma = 0.0
    for x0, x1 in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        assert sol.success
        y = sol.y[:, -1]
        m = float(np.max(np.abs(y)))
        if m > 1e10:
            y = y / m
            sigma += math.log(m)
    uL, vL, huL, hvL = y[0], y[2], y[4], y[6]
    return (-vL / uL, -(hvL * uL - vL * huL) / (uL * uL),
            math.log(uL) + sigma, huL / uL)


def stack_2x2(t00, t01, t10, t11):
    return np.stack([np.stack([t00, t01], -1), np.stack([t10, t11], -1)], -2)


def free_transfer(ks, ell):
    c = np.cos(ks * ell)
    s = ell * np.sinc(ks * ell / math.pi)       # sin(k ell) / k
    return stack_2x2(c, s, -ks * ks * s, c)


def rk4_reference(bond, ks, steps):
    """Transfer matrices over ks by the classical RK4 loop, stage by stage,
    both columns at once, across the support of the potential, with the
    free stretches on either side in closed form."""
    pot = bond.potential
    a, b = pot.support(bond.length)
    kk = ks * ks
    h = (b - a) / steps
    x = a + np.arange(steps) * h
    v1, v2, v3 = (pot.value(x + d) for d in (0.0, 0.5 * h, h))
    # column j of the transfer matrix is (p[j], q[j])
    p, q = np.eye(2)[:, :, None] * np.ones_like(ks)
    for i in range(steps):
        w1, w2, w3 = v1[i] - kk, v2[i] - kk, v3[i] - kk
        k1p, k1q = q, w1 * p
        k2p = q + 0.5 * h * k1q
        k2q = w2 * (p + 0.5 * h * k1p)
        k3p = q + 0.5 * h * k2q
        k3q = w2 * (p + 0.5 * h * k2p)
        k4p = q + h * k3q
        k4q = w3 * (p + h * k3p)
        p = p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        q = q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    return (free_transfer(ks, bond.length - b)
            @ stack_2x2(p[0], p[1], q[0], q[1]) @ free_transfer(ks, a))


def rk4_converged(bond, ks):
    """rk4_reference Richardson-extrapolated from 9,600 to 19,200 steps,
    within about 1e-11 of the exact transfer matrices up to k = 215."""
    return (16.0 * rk4_reference(bond, ks, 19200)
            - rk4_reference(bond, ks, 9600)) / 15.0


def segment_count(bond, per_width):
    """n = max(m, m (b - a) sqrt(max |V|)) segments of the support, with
    m = PER_WIDTH = 150 on both axes."""
    pot = bond.potential
    a, b = pot.support(bond.length)
    vmax = max(-pot.minimum(bond.length), pot.maximum(bond.length))
    return max(per_width, math.ceil(per_width * (b - a) * math.sqrt(vmax)))


def magnus_exponents(value, x0, w, e):
    """Omega of the segments [x0, x0 + w] of y' = [[0, 1], [V + e, 0]] y
    over (entries of the column e, segments), shape (..., 2, 2), from the
    commutators of the three-Gauss-point sixth-order Magnus exponent
    (Blanes, Casas and Ros, BIT 40, 2000): with A_i at x0 + (1/2 + (i -
    2) sqrt 15/10) w, a1 = w A_2, a2 = (sqrt 15/3) w (A_3 - A_1), a3 =
    (10/3) w (A_3 - 2 A_2 + A_1), C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60
    and Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240."""
    g = math.sqrt(15.0) / 10.0
    A1, A2, A3 = (np.stack(np.broadcast_arrays(
        0.0 * e, 1.0 + 0.0 * e, value(x0 + (0.5 + d) * w) + e, 0.0 * e),
        -1).reshape(np.broadcast(e, x0).shape + (2, 2))
        for d in (-g, 0.0, g))
    w = w[..., None, None]
    a1 = w * A2
    a2 = (math.sqrt(15.0) / 3.0) * w * (A3 - A1)
    a3 = (10.0 / 3.0) * w * (A3 - 2.0 * A2 + A1)

    def comm(X, Y):
        return X @ Y - Y @ X

    C1 = comm(a1, a2)
    C2 = -comm(a1, 2.0 * a3 + C1) / 60.0
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0


def reference_layout(bond, per_width, mirrored=False):
    """(V, x0, w, h): the potential, the left ends and widths of the
    segments from x = 0 of the bond, or of the bond with V(L - x) with
    mirrored=True, and the width h of the support's segments: one segment
    for a constant bond, else one for each free stretch and the n-segment
    cut of the support."""
    pot = bond.potential
    L = bond.length
    value = (lambda x: pot.value(L - x)) if mirrored else pot.value
    if pot.kind == "constant":
        return (lambda x: pot.c + 0.0 * x), np.array([0.0]), np.array([L]), L
    a, b = pot.support(L)
    if mirrored:
        a, b = L - b, L - a
    n = segment_count(bond, per_width)
    h = (b - a) / n
    x0 = np.concatenate(([0.0], a + np.arange(n) * h, [b]))
    w = np.concatenate(([a], np.full(n, h), [L - b]))
    return value, x0, w, h


def magnus_product_reference(bond, ks, per_width):
    """Transfer matrices over ks as the product of the segment maps
    exp(Omega) of magnus_exponents at e = -k^2, taken one segment at a
    time from x = 0 across reference_layout.  Omega^2 = theta^2 with
    theta^2 = -det Omega, so exp(Omega) = cos(y) + (sin(y)/y) Omega at the
    complex square root y = sqrt(-theta^2)."""
    value, x0, w, _ = reference_layout(bond, per_width)
    Om = magnus_exponents(value, x0, w, -(ks * ks)[:, None])
    theta2 = -np.linalg.det(Om)
    T = np.broadcast_to(np.eye(2), (len(ks), 2, 2))
    for i in range(len(w)):
        y = np.sqrt(-theta2[:, i] + 0j)
        C = np.cos(y).real[:, None, None]
        S = np.sinc(y / math.pi).real[:, None, None]
        T = (C * np.eye(2) + S * Om[:, i]) @ T
    return T


def d_scaled_error(got, ref, ks):
    """max |got - ref| over max |ref| at each k, both as D^-1 T D with
    D = diag(1, max(k, 1)), which keeps every entry of order one."""
    D = np.stack([np.ones_like(ks), np.maximum(ks, 1.0)], -1)
    scale = D[:, None, :] / D[:, :, None]
    return ((np.abs(got - ref) * scale).max(axis=(1, 2))
            / (np.abs(ref) * scale).max(axis=(1, 2)))


def one_end(sol, end):
    """The fields of a BondSolution seen from one end of the bond, "0" or
    "L": that end's f'/f and its t-derivative, then log u, its
    t-derivative and log u - t L."""
    fp = sol[:2] if end == "0" else sol[2:4]
    return tuple(fp) + tuple(sol[4:])


def sweep_reference(bond, t, end="0"):
    """one_end of the BondSolution by the per-segment Moebius recurrence
    m <- ((1 + D) m - T)/(1 - D - m P) over the maps of magnus_exponents,
    one segment at a time from the far end, x = L for end "0" and x = 0
    for end "L", in complex arithmetic at t + i CSTEP.  Omega is linear in
    e = t^2; its parts beyond the free exponent [[0, w], [e w, 0]] that
    carry e, and its b - w, are multiplied by rho = 1/(1 + (t h)^4).  Each
    map is normalised to a = 1 by cosh(theta), whose log enters s less t
    w, with theta - t w formed from theta^2 - (t w)^2."""
    L = bond.length
    value, x0, w, h = reference_layout(bond, interval.PER_WIDTH,
                                       mirrored=end == "0")
    # Omega is linear in e: its slope by a complex step in e
    Om = magnus_exponents(value, x0, w, 1e-30j * np.ones((1, 1)))[0]
    (b0, bb0), (c0, _) = Om.real.transpose(1, 2, 0)
    (b1, _), (c1, _) = (Om.imag * 1e30).transpose(1, 2, 0)
    tc = (t + 1j * CSTEP)[:, None]
    e = tc * tc
    rho = 1.0 / (1.0 + (tc * h) ** 4)
    beta = b0 + rho * e * b1
    db, dc = bb0 - w, c1 - w
    b = w + rho * db
    c = c0 + e * w + rho * e * dc
    z = beta * beta + b * c
    theta = np.sqrt(z)
    excess = (beta * beta + b * c0 + rho * e * (w * db + b * dc)
              + (tc - t[:, None]) * (tc + t[:, None]) * w * w)
    # the series below |z| = 1e-4, where the closed forms cancel in Im
    small = np.abs(z) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cosh = np.where(
            small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t[:, None] * w,
            excess / (theta + t[:, None] * w)
            + np.log1p(np.exp(-2.0 * theta)) - math.log(2.0))
        C = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (
            2.0 / 15.0 - z * 17.0 / 315.0)), np.tanh(theta) / theta)
    D, T, P = beta * C, b * C, c * C
    m = np.zeros(len(t), complex)
    d = np.empty_like(T)
    for i in range(len(w)):
        d[:, i] = 1.0 - D[:, i] - m * P[:, i]
        m = ((1.0 + D[:, i]) * m - T[:, i]) / d[:, i]
    # summed per segment first: at large t both terms are near -+log 2
    s = ((log_cosh.real + np.log(d.real)).sum(axis=-1)
         + 1j * (log_cosh.imag + d.imag / d.real).sum(axis=-1))
    fp = 1.0 / m
    lu = s + np.log(-m)
    return (fp.real, fp.imag / CSTEP, t * L + lu.real, lu.imag / CSTEP,
            lu.real)


# height 100 takes n = 901 segments, past the range of an unscaled
# product of the maps, and an odd n, so its last block of maps carries an
# odd map out
SWEEP_CASES = [dict(height=0.3), dict(center=0.35, half_width=0.2, height=4.0),
               dict(height=100.0), dict(height=-3.0), dict(height=5.0)]


def above_floor(bond, count):
    floor = math.sqrt(max(0.0, -bond.potential.minimum(bond.length))) + 1e-6
    return floor * np.geomspace(1.0, 1e4 / floor, count)


@pytest.mark.parametrize("kw", SWEEP_CASES, ids=lambda kw: str(kw["height"]))
def test_sweep_matches_sequential_recurrence(kw):
    # both ends of the one sweep from x = 0, each against the recurrence
    # that starts at the other end
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = above_floor(bond, 41)
    got = bond_solution(bond, t)
    for end in ("0", "L"):
        ref = sweep_reference(bond, t, end)
        for i, (g, r) in enumerate(zip(one_end(got, end), ref)):
            bound = 1e-13 * np.maximum(1.0, np.abs(r))
            assert np.all(np.abs(g - r) <= bound), (i, end)


@pytest.mark.parametrize("kw", SWEEP_CASES, ids=lambda kw: str(kw["height"]))
def test_sweep_converges_in_segment_count(kw, monkeypatch):
    # the segment count of the bond against the same sweep cut into 16
    # times as many segments, which is converged to rounding
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = above_floor(bond, 41)
    got = bond_solution(bond, t)
    refined_segments(monkeypatch, 16)
    ref = bond_solution(bond, t)
    for field, g, r in zip(BondSolution._fields, got, ref):
        bound = 5e-12 * np.maximum(1.0, np.abs(r))
        assert np.all(np.abs(g - r) <= bound), field


def test_refined_segments_reach_a_warm_layout_memo(monkeypatch):
    # the convergence tests compare a bond's sweep against the same sweep
    # at refined_segments; with the layout memoised, a memo keyed without
    # the segment count would hand the refined sweep the layout already in
    # and the comparison would be of the sweep with itself
    bond = make_bump_interval()[0].bonds[0]
    t = above_floor(bond, 9)
    got = bond_solution(bond, t)
    assert interval._bump_layout.cache_info().currsize > 0
    refined_segments(monkeypatch, 16)
    ref = bond_solution(bond, t)
    assert not np.array_equal(got.log_u, ref.log_u)
    assert np.allclose(got.log_u, ref.log_u, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kw", SWEEP_CASES, ids=lambda kw: str(kw["height"]))
def test_sweep_converges_up_to_large_t(kw, monkeypatch):
    # out to t = 1e7, t h up to 4e4, against 16 times the segments: the
    # damping rho keeps out of the maps the exponent's e-terms, which grow
    # like t^3 in log u and read 6.7e-5 off at t = 1e6 undamped
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = np.geomspace(1e4, 1e7, 25)
    got = bond_solution(bond, t)
    refined_segments(monkeypatch, 16)
    ref = bond_solution(bond, t)
    for field, g, r in zip(BondSolution._fields, got, ref):
        bound = 5e-11 * np.maximum(1.0, np.abs(r))
        assert np.all(np.abs(g - r) <= bound), field


@pytest.mark.parametrize("kw", SWEEP_CASES, ids=lambda kw: str(kw["height"]))
def test_t_derivatives_match_five_point_differences(kw):
    # the complex step, d rho/dt included, against the five-point
    # difference of the float64 pass in steps of t/1000, where rho has
    # left 1; log u enters as log u - t L, whose slope is small
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = np.array([100.0, 300.0, 1000.0, 3000.0])
    got = bond_solution(bond, t)
    sols = {d: bond_solution(bond, t * (1.0 + 1e-3 * d), derivative=False)
            for d in (-2, -1, 1, 2)}
    for field, dfield, slope in (("f_prime_at_0", "df_prime_at_0_dt", 0.0),
                                 ("f_prime_at_L", "df_prime_at_L_dt", 0.0),
                                 ("log_u_excess", "dlog_u_dt", bond.length)):
        f = {d: getattr(sol, field) for d, sol in sols.items()}
        diff = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (0.012 * t) + slope
        g = getattr(got, dfield)
        assert np.all(np.abs(g - diff) <= 1e-11 * np.maximum(
            1.0, np.abs(diff))), dfield


def test_segment_counts():
    # the benchmark's height-0.3 bump and the tests' height-100 one, whose
    # 150 (b - a) sqrt(100) rounds to just above 900
    for height, n in ((0.3, 150), (100.0, 901)):
        bond = make_bump_interval(height=height)[0].bonds[0]
        assert interval._segment_count(bond, interval.PER_WIDTH)[2] == n
        assert interval._gauss_layout(bond, interval.PER_WIDTH)[1].shape == (
            6, n + 2)


def warm_or_cold_layout(bond, warm):
    """Start the layout memo of a bump bond cold, or with its layout in."""
    if warm:
        interval._gauss_layout(bond, interval.PER_WIDTH)
    else:
        interval._bump_layout.cache_clear()


def test_sweep_memory_does_not_grow_with_segment_count():
    # the maps are held a block of segments at a time, so height 100
    # (n = 901) needs no more than height 0.3 (n = 150), with or
    # without t-derivatives, and with the layouts memoised or not
    t = np.geomspace(0.05, 1e4, 400)
    for warm in (False, True):
        for derivative in (True, False):
            peaks = []
            for height in (0.3, 100.0):
                bond = make_bump_interval(height=height)[0].bonds[0]
                warm_or_cold_layout(bond, warm)
                tracemalloc.start()
                try:
                    bond_solution(bond, t, derivative=derivative)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.25 * peaks[0], (warm, derivative)


@pytest.mark.parametrize("kw", SWEEP_CASES[:3],
                         ids=lambda kw: str(kw["height"]))
def test_sweep_is_batch_invariant(kw):
    # a node's result must not depend on the nodes batched with it
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = above_floor(bond, 33)
    got = bond_solution(bond, t)
    one = [bond_solution(bond, t[i:i + 1]) for i in range(len(t))]
    for g, *single in zip(got, *one):
        assert np.array_equal(g, np.concatenate(single))


@pytest.mark.parametrize("kw", SWEEP_CASES, ids=lambda kw: str(kw["height"]))
def test_real_pass_matches_complex_step(kw):
    # the float64 sweep of energy and force against the complex-step one:
    # the same values up to complex against real rounding
    bond = make_bump_interval(**kw)[0].bonds[0]
    t = above_floor(bond, 41)
    ref = bond_solution(bond, t)
    got = bond_solution(bond, t, derivative=False)
    assert got.df_prime_at_0_dt is None and got.df_prime_at_L_dt is None
    assert got.dlog_u_dt is None
    for field in ("f_prime_at_0", "f_prime_at_L", "log_u", "log_u_excess"):
        g, r = getattr(got, field), getattr(ref, field)
        assert g.dtype == np.float64, field
        bound = 1e-15 * np.maximum(1.0, np.abs(r))
        assert np.all(np.abs(g - r) <= bound), field


def test_derivative_free_solutions_refuse_derivative_kernels():
    t = np.array([0.5, 3.0, 40.0])
    for potential in (None, {"kind": "constant", "value": 2.0}, BUMP):
        bond = make_interval(1.0, potential=potential)[0].bonds[0]
        got = bond_solution(bond, t, derivative=False)
        assert got.df_prime_at_0_dt is None and got.dlog_u_dt is None
        assert got.df_prime_at_L_dt is None
        assert got.take(t > 1.0).dlog_u_dt is None
        if potential is None or potential["kind"] == "constant":
            # the closed forms are the same expressions either way
            ref = bond_solution(bond, t)
            for field in ("f_prime_at_0", "f_prime_at_L", "log_u",
                          "log_u_excess"):
                assert np.array_equal(getattr(got, field),
                                      getattr(ref, field)), field
    graph, mc = make_chain(bump=BUMP)
    sols = bond_solutions(graph, t, derivative=False)
    with pytest.raises(ValueError, match="t-derivatives"):
        logF_slope_imag(graph, mc, t, sols)
    with pytest.raises(AttributeError):
        dirichlet_subtracted_derivative(graph.bonds[1], t, sols[1])


def test_block_product_against_sequential_product():
    # every block length up to two blocks, odd counts carried through the
    # rounds included, with a diagonal term of either sign
    rng = np.random.default_rng(7)
    for k in range(1, 2 * SWEEP_BLOCK + 1):
        D = rng.uniform(-0.9, 0.9, (2, 3, k)) * (1.0 + 1e-30j)
        T = rng.uniform(0.0, 1.0, (2, 3, k)) * (1.0 + 1e-30j)
        P = rng.uniform(0.0, 5.0, (2, 3, k)) * (1.0 - 1e-30j)
        ref = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).astype(complex)
        for i in range(k):
            M = np.array([[1.0 + D[..., i], T[..., i]],
                          [P[..., i], 1.0 - D[..., i]]])
            ref = np.moveaxis(M, (0, 1), (-2, -1)) @ ref
        got = np.moveaxis(_block_product(1.0, D, T, P), (0, 1), (-2, -1))
        assert np.all(np.abs(got.real - ref.real) <= 1e-14 * ref.real), k
        assert np.all(np.abs(got.imag - ref.imag)
                      <= 1e-14 * np.abs(ref.imag).max()), k


# the t ranges the former linear (u, v) and Riccati solvers served; the
# Magnus sweep covers both and must hold the closed forms across each,
# overlap included
@pytest.mark.parametrize("regime, t_lo, t_hi",
                         [("linear", 0.0, 400.0), ("riccati", 20.0, math.inf)],
                         ids=["linear", "riccati"])
def test_free_bond_closed_forms(regime, t_lo, t_hi):
    bond = make_bump_interval(height=0.0)[0].bonds[0]
    ts = np.array([t for t in np.geomspace(0.1, 1000.0, 13)
                   if t_lo <= t <= t_hi])
    assert len(ts) >= 5, regime
    sol = bond_solution(bond, ts)
    for i, t in enumerate(ts):
        ref = free_reference(t)
        # a free bond is its own mirror image: both ends take the same form
        for end in ("0", "L"):
            for g, r in zip(one_end(sol, end), ref):
                assert abs(g[i] - r) <= 1e-10 * max(1.0, abs(r)), end


def test_analytic_path_small_and_large_t():
    bond = make_interval(1.0)[0].bonds[0]
    ts = np.array([1e-9, 1e-6, 1e-3, 0.05, 1.0, 50.0, 500.0, 5000.0])
    sol = bond_solution(bond, ts)
    for t, fp, log_u in zip(ts, sol.f_prime_at_0, sol.log_u):
        if t >= 1e-6:
            ref = free_reference(t)
            assert fp == pytest.approx(ref[0], rel=1e-12)
            assert log_u == pytest.approx(ref[2], rel=1e-12, abs=1e-12)
        else:
            # u -> x solution, f'/f -> -1/L
            assert fp == pytest.approx(-1.0, rel=1e-9)
            assert log_u == pytest.approx(0.0, abs=1e-9)


def test_only_bump_bonds_enter_the_sweep(monkeypatch):
    # zero and constant bonds take the closed forms; every bump bond, one
    # of height zero included, is swept, with or without t-derivatives
    seen = []
    sweep = interval._sweep

    def spy(e, de, h, K, step, block, t):
        seen.append(step is not None)
        return sweep(e, de, h, K, step, block, t)

    monkeypatch.setattr(interval, "_sweep", spy)
    t = np.array([0.5, 3.0, 40.0])
    cases = [(None, False), ({"kind": "zero"}, False),
             ({"kind": "constant", "value": 2.0}, False),
             (BUMP, True), ({**BUMP, "height": 0.0}, True)]
    for potential, swept in cases:
        bond = make_interval(1.0, potential=potential)[0].bonds[0]
        for derivative in (True, False):
            seen.clear()
            bond_solution(bond, t, derivative=derivative)
            assert seen == ([derivative] if swept else []), (
                potential, derivative)


def test_constant_potential_shifts_the_frequency():
    bond = make_interval(1.0, potential={"kind": "constant", "value": 2.0})[0].bonds[0]
    t = 1.3
    kappa = math.sqrt(t * t + 2.0)
    sol = bond_solution(bond, np.array([t]))
    assert sol.f_prime_at_0[0] == pytest.approx(-kappa / math.tanh(kappa),
                                                rel=1e-12)
    assert sol.log_u[0] == pytest.approx(
        math.log(math.sinh(kappa) / kappa), rel=1e-12)


def test_methods_agree_on_bump():
    # the height-100 bump pins the segment count: 200 segments miss 2e-11
    cases = [(make_bump_interval(), 2e-9),
             (make_bump_interval(center=0.35, half_width=0.2, height=4.0),
              2e-9),
             (make_bump_interval(height=100.0), 2e-11)]
    ts = np.array([0.3, 2.0, 8.0, 25.0, 40.0])
    for graph_mc, rel in cases:
        bond = graph_mc[0].bonds[0]
        sol = bond_solution(bond, ts)
        for end in ("0", "L"):
            for i, t in enumerate(ts):
                ref = dop853_reference(bond, t, mirrored=end == "L")
                for g, r in zip(one_end(sol, end), ref):
                    err = abs(g[i] - r)
                    assert err <= rel * max(1.0, abs(r)), end


def test_t_derivatives_near_zero():
    # A complex step through tanh(y)/y loses the derivative as y -> 0;
    # the series branch keeps it exact down to t = 0.
    bond = make_bump_interval()[0].bonds[0]
    ts = np.array([1e-12, 1e-6])
    sol = bond_solution(bond, ts)
    for i, t in enumerate(ts):
        ref = dop853_reference(bond, t)
        assert abs(sol.df_prime_at_0_dt[i] - ref[1]) <= 1e-12
        assert abs(sol.dlog_u_dt[i] - ref[3]) <= 1e-12
    sol = bond_solution(bond, np.array([0.0]))
    assert sol.df_prime_at_0_dt[0] == 0.0
    assert sol.dlog_u_dt[0] == 0.0


def test_t_derivatives_match_finite_differences():
    bond = make_bump_interval()[0].bonds[0]
    h = 1e-5
    ts = np.array([0.8, 3.0, 30.0])
    sol = bond_solution(bond, ts)
    plus = bond_solution(bond, ts + h)
    minus = bond_solution(bond, ts - h)
    fd_fp = (plus.f_prime_at_0 - minus.f_prime_at_0) / (2 * h)
    fd_lu = (plus.log_u - minus.log_u) / (2 * h)
    for i in range(len(ts)):
        assert sol.df_prime_at_0_dt[i] == pytest.approx(fd_fp[i], rel=5e-6,
                                                        abs=5e-6)
        assert sol.dlog_u_dt[i] == pytest.approx(fd_lu[i], rel=5e-6, abs=5e-6)


def test_reverse_solve_on_asymmetric_potential():
    # the two ends of an off-centre bump differ, and the L end is the 0 end
    # of the mirrored bond
    bond = make_bump_interval(center=0.35, half_width=0.2, height=4.0)[0].bonds[0]
    mirror = make_bump_interval(center=0.65, half_width=0.2,
                                height=4.0)[0].bonds[0]
    t = np.array([2.0])
    sol = bond_solution(bond, t)
    rev = bond_solution(mirror, t)
    assert sol.f_prime_at_0[0] != pytest.approx(sol.f_prime_at_L[0], rel=1e-6)
    assert sol.f_prime_at_L[0] == pytest.approx(rev.f_prime_at_0[0],
                                                rel=1e-12)
    # log u is direction independent: same Dirichlet data both ways
    assert sol.log_u[0] == pytest.approx(rev.log_u[0], rel=1e-10)


@pytest.mark.parametrize("height", [0.3, 3.0, 100.0, -3.0, 5.0])
def test_ends_match_the_mirrored_bond(height):
    # each end of an off-centre bump, on both passes and from t = 1e-4
    # (or the spectral floor) to 1e7, is the other end of the bond with
    # the bump mirrored, centre -> L - centre; log u is the same for both
    bump = dict(half_width=0.2, height=height)
    bond = make_bump_interval(center=0.35, **bump)[0].bonds[0]
    mirror = make_bump_interval(center=0.65, **bump)[0].bonds[0]
    floor = math.sqrt(max(0.0, -height)) + 1e-6
    t = np.geomspace(max(1e-4, floor), 1e7, 120)
    pairs = [("f_prime_at_L", "f_prime_at_0"),
             ("f_prime_at_0", "f_prime_at_L"),
             ("df_prime_at_L_dt", "df_prime_at_0_dt"),
             ("df_prime_at_0_dt", "df_prime_at_L_dt")]
    for derivative in (True, False):
        got = bond_solution(bond, t, derivative=derivative)
        ref = bond_solution(mirror, t, derivative=derivative)
        for field, mirrored in pairs[:4 if derivative else 2]:
            g, r = getattr(got, field), getattr(ref, mirrored)
            assert np.all(np.abs(g - r) <= 1e-13 * np.abs(r)), (
                field, derivative)
        for field in ("log_u", "dlog_u_dt", "log_u_excess"):
            g, r = getattr(got, field), getattr(ref, field)
            if r is None:
                assert g is None and not derivative
                continue
            bound = 1e-13 * np.maximum(1.0, np.abs(r))
            assert np.all(np.abs(g - r) <= bound), (field, derivative)


def test_subtracted_log_u_tracks_expansion():
    bond = make_bump_interval()[0].bonds[0]
    ej = u_log_expansion(bond)
    ts = np.array([20.0, 40.0, 80.0])
    excess = bond_solution(bond, ts).log_u_excess
    last = math.inf
    for t, ex in zip(ts, excess):
        rem = abs(ex + math.log(2.0 * t)
                  - sum(ej[j] * t ** (-j) for j in range(1, 5)))
        assert rem < min(last, 1e-5)
        last = rem


def test_subtracted_log_u_closed_forms():
    free = make_interval(1.0)[0].bonds[0]
    assert bond_solution(free, np.array([1000.0])).log_u_excess[0] == (
        pytest.approx(-math.log(2000.0), rel=1e-14))
    bond = make_interval(1.0, potential={"kind": "constant", "value": 2.0})[0].bonds[0]
    t = 300.0
    kappa = math.sqrt(t * t + 2.0)
    direct = math.log(math.sinh(kappa) / kappa) - t
    assert bond_solution(bond, np.array([t])).log_u_excess[0] == (
        pytest.approx(direct, rel=1e-12))


def test_subtracted_derivative_decay_exponent():
    bond = make_bump_interval()[0].bonds[0]
    v1 = abs(dirichlet_subtracted_derivative(bond, 30.0))
    v2 = abs(dirichlet_subtracted_derivative(bond, 90.0))
    slope = math.log(v2 / v1) / math.log(3.0)
    assert slope <= -2.0


def test_negative_potential_refused_below_floor():
    graph, _ = make_interval(1.0, potential={"kind": "constant", "value": -4.0})
    bond = graph.bonds[0]
    assert graph.spectral_floor() == pytest.approx(2.0, abs=1e-5)
    with pytest.raises(NumericalError):
        bond_solution(bond, np.array([1.0]))
    sol = bond_solution(bond, np.array([2.1]))
    assert math.isfinite(sol.f_prime_at_0[0])


def test_transfer_matrix_free_case():
    bond = make_interval(1.0)[0].bonds[0]
    for k in (0.5, 2.0, 7.0):
        T = transfer_matrices_real(bond, np.array([k * k]))[0]
        expect = np.array([[math.cos(k), math.sin(k) / k],
                           [-k * math.sin(k), math.cos(k)]])
        assert np.allclose(T, expect, atol=1e-10)


def test_transfer_matrix_below_zero_energy():
    # a batch whose every E <= 0 takes the cosh formulas with their growth
    # in e^s, on the real axis with no t w taken off: cosh and sinh of
    # kappa = sqrt(-E), with det T = 1
    bond = make_interval(1.0)[0].bonds[0]
    for E in (-4.0, -1e-3, 0.0):
        T = transfer_matrices_real(bond, np.array([E]))[0]
        kappa = math.sqrt(-E)
        shk = math.sinh(kappa) / kappa if kappa else 1.0
        expect = np.array([[math.cosh(kappa), shk],
                           [kappa * kappa * shk, math.cosh(kappa)]])
        assert np.allclose(T, expect, rtol=1e-14, atol=1e-15), E
        det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
        assert det == pytest.approx(1.0, abs=1e-14), E


def test_transfer_matrix_unit_determinant_with_potential():
    bond = make_bump_interval(height=5.0)[0].bonds[0]
    for k in (0.7, 3.3, 11.0):
        T = transfer_matrices_real(bond, np.array([k * k]))[0]
        det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
        assert det == pytest.approx(1.0, abs=1e-9)


# the bumps of the real-axis tests; height 100 takes n = 901 segments
REAL_CASES = [dict(height=0.3), dict(height=3.0),
              dict(center=0.35, half_width=0.2, height=4.0),
              dict(height=-3.0), dict(height=100.0)]


@pytest.mark.parametrize("kw", REAL_CASES, ids=lambda kw: str(kw["height"]))
def test_transfer_matrices_match_sequential_segment_product(kw):
    # the masked branches and the pairwise products of blocks reorder the
    # arithmetic of the one-segment-at-a-time product and nothing else;
    # the eigenvalue count's float64 sweep, which carries the Pruefer
    # angle, multiplies bitwise the same products
    ks = np.linspace(0.0, 215.0, 64)
    bond = make_bump_interval(**kw)[0].bonds[0]
    got = transfer_matrices_real(bond, ks * ks)
    ref = magnus_product_reference(bond, ks, interval.PER_WIDTH)
    assert np.all(d_scaled_error(got, ref, ks) <= 1e-11)
    R, s, _ = _sweep(-(ks * ks)[:, None], -1.0,
                     *interval._gauss_layout(bond, interval.PER_WIDTH), None,
                     interval.REAL_BLOCK, None)
    assert np.array_equal(got, np.moveaxis(R * np.exp(s), -1, 0))


@pytest.mark.parametrize("kw", REAL_CASES, ids=lambda kw: str(kw["height"]))
def test_transfer_matrices_converge_to_rk4_reference(kw):
    # the segment error does not grow with k: the segment count holds the
    # converged RK4 loop up to k = 215, where the RK4 pair of 1,200 and
    # 2,400 steps was off by about 4e-7
    ks = np.linspace(0.0, 215.0, 64)
    bond = make_bump_interval(**kw)[0].bonds[0]
    ref = rk4_converged(bond, ks)
    got = transfer_matrices_real(bond, ks * ks)
    assert np.all(d_scaled_error(got, ref, ks) <= 1e-10)


@pytest.mark.parametrize("kw", REAL_CASES, ids=lambda kw: str(kw["height"]))
def test_transfer_matrices_converge_in_segment_count(kw, monkeypatch):
    # up to k = 500, k h up to 2 on the height-0.3 bump, against the same
    # sweep cut into 16 times as many segments
    ks = np.linspace(0.0, 500.0, 201)
    bond = make_bump_interval(**kw)[0].bonds[0]
    got = transfer_matrices_real(bond, ks * ks)
    refined_segments(monkeypatch, 16)
    ref = transfer_matrices_real(bond, ks * ks)
    assert np.all(d_scaled_error(got, ref, ks) <= 1.5e-11)


def test_real_axis_refuses_bump_bonds_past_k_h_2():
    # the benchmark's bump has h = 0.6/150, so k h = 2 at k = 500, which
    # passes, on both sides of E = 0 and with the E-derivative; a constant
    # bond's one map is exact at every E
    graph, mc = make_bump_interval(height=0.3)
    bond = graph.bonds[0]
    assert real_k_limit(bond) == pytest.approx(500.0, rel=1e-11)
    edge = np.array([-250000.0, 0.0, 250000.0])
    for derivative in (False, True):
        transfer_matrices_real(bond, edge, derivative=derivative)
        for E in (250100.0, -250100.0):
            with pytest.raises(UnsupportedError, match="k <= 500"):
                transfer_matrices_real(bond, np.array([1.0, E]),
                                       derivative=derivative)
    eigenvalue_count(graph, mc, edge)
    with pytest.raises(UnsupportedError, match="k <= 500"):
        eigenvalue_count(graph, mc, [1.0, 250100.0])
    const = make_interval(1.0, potential={"kind": "constant",
                                          "value": 3.0})[0].bonds[0]
    assert real_k_limit(const) == math.inf
    assert np.all(np.isfinite(transfer_matrices_real(const, np.array([1e8]))))


def test_both_axes_meet_at_zero_energy():
    # at E = -t^2 <= 0 the imaginary axis (t) and the real axis (E)
    # describe one operator: f'(0) is -T00/T01, the inward f'(L) is
    # -T11/T01 and log u(L) is log T01
    bonds = [make_bump_interval(**kw)[0].bonds[0] for kw in REAL_CASES
             if kw["height"] >= 0.0]
    bonds.append(make_interval(1.0, potential={"kind": "constant",
                                               "value": 3.0})[0].bonds[0])
    t = np.array([0.0, 0.03, 1.0, 2.0])
    for bond in bonds:
        sol = bond_solution(bond, t)
        T = transfer_matrices_real(bond, -t * t)
        for got, ref in ((sol.f_prime_at_0, -T[:, 0, 0] / T[:, 0, 1]),
                         (sol.f_prime_at_L, -T[:, 1, 1] / T[:, 0, 1]),
                         (sol.log_u, np.log(T[:, 0, 1]))):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), (
                bond.potential)


def test_real_batches_without_oscillation(monkeypatch):
    # a batch with no oscillating map takes the cosh formulas over every
    # block, with their growth kept in e^s: E = 0 alone on the bumps of
    # height >= 0, and each E < 3 alone on the c = 3 bond, against the
    # one-segment-at-a-time product and the five-point difference in E
    cosh_only = []
    segments = interval._segments

    def spy(*args):
        out = segments(*args)
        cosh_only.append(np.isscalar(out[0]))
        return out

    monkeypatch.setattr(interval, "_segments", spy)
    cases = [(make_bump_interval(**kw)[0].bonds[0], 0.0) for kw in REAL_CASES
             if kw["height"] >= 0.0]
    const = make_interval(1.0, potential={"kind": "constant",
                                          "value": 3.0})[0].bonds[0]
    cases += [(const, k) for k in (0.0, 0.8, 1.7)]
    h = 1e-3
    for bond, k in cases:
        ks = np.array([k])
        cosh_only.clear()
        T, dT = transfer_matrices_real(bond, ks * ks, derivative=True)
        assert cosh_only and all(cosh_only), (bond.potential, k)
        ref = magnus_product_reference(bond, ks, interval.PER_WIDTH)
        assert np.all(d_scaled_error(T, ref, ks) <= 1e-11), (bond.potential, k)

        def at(d):
            return transfer_matrices_real(bond, ks * ks + d)
        diff = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12 * h)
        scale = np.maximum(np.abs(diff).max(axis=(1, 2)), 1.0)
        assert np.all(np.abs(dT - diff).max(axis=(1, 2)) <= 1e-9 * scale), (
            bond.potential, k)


def test_transfer_matrix_derivative_matches_difference():
    # the exact E-derivative of the segment maps against a five-point
    # difference of the same maps, in steps of 1e-3 in k; E = 3 puts the
    # constant bond on the series branch of its closed form.  At E = 0
    # the free bond's is [[-L^2/2, -L^3/6], [-L, -L^2/2]]
    Es = np.array([0.0, 1e-6, 0.64, 3.0, 10.89, 1600.0, 46225.0])
    h = (2e-3 * np.maximum(np.sqrt(Es), 0.5))[:, None, None]
    for graph_mc in (make_interval(1.0), make_bump_interval(),
                     make_interval(1.0, potential={"kind": "constant",
                                                   "value": 3.0})):
        bond = graph_mc[0].bonds[0]
        T, dT = transfer_matrices_real(bond, Es, derivative=True)
        assert np.array_equal(T, transfer_matrices_real(bond, Es))

        def at(d):
            return transfer_matrices_real(bond, Es + d * h[:, 0, 0])
        diff = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * h)
        scale = np.maximum(np.abs(diff).max(axis=(1, 2)), 1.0)
        assert np.all(np.abs(dT - diff).max(axis=(1, 2)) <= 1e-9 * scale)
    dT = transfer_matrices_real(make_interval(1.0)[0].bonds[0], Es[:1],
                                derivative=True)[1][0]
    assert np.allclose(dT, [[-0.5, -1.0 / 6.0], [-1.0, -0.5]], rtol=1e-14)


def test_scan_top_roots_match_rk4_reference():
    # the top roots of the height-3 bump chain, against det S assembled
    # from the converged RK4 loop and refined by one secant step
    graph, mc = make_chain((1.0, 1.0, 1.0), bump=BUMP)
    roots = scan_spectrum(graph, mc, 215.0).roots[-4:]
    assert all(m == 1 for _, m in roots)
    h = 1e-7
    ks = np.array([k + d for k, _ in roots for d in (0.0, h)])
    blocks = [rk4_converged(b, ks) if b.potential.kind == "bump"
              else free_transfer(ks, b.length) for b in graph.bonds]
    det = np.linalg.det(_assemble_real(graph, mc, blocks, len(ks)))
    for (k, _), d0, d1 in zip(roots, det[0::2], det[1::2]):
        assert abs((h * d0 / (d0 - d1)).real) <= 1e-11, k


def closed_form_dT(k, c, L=1.0):
    """dT/dE across a stretch of constant potential c, E = k^2, in 40
    digits."""
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        z2 = k * k - c
        z = mpmath.sqrt(mpmath.mpc(z2))
        cos = mpmath.cos(z * L)
        sov = mpmath.sin(z * L) / z
        dcos = -L * sov / 2
        dsov = (L * cos - sov) / (2 * z2)
        return np.array([[dcos, dsov], [-sov - z2 * dsov, dcos]],
                        dtype=complex).real


def test_transfer_matrix_derivative_where_it_is_small():
    # entry by entry where dT/dE has cancellations: a free bond near E = 0
    # and the c = 3 bond near E = c, where sin(z L)/z cancels
    cases = [(0.0, np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1]))]
    j = np.arange(3, 9)
    cases.append((3.0, math.sqrt(3.0) * np.concatenate(
        [1.0 + 10.0 ** -j, 1.0 - 10.0 ** -j])))
    for c, ks in cases:
        bond = make_interval(1.0, potential={"kind": "constant",
                                             "value": c})[0].bonds[0]
        _, dT = transfer_matrices_real(bond, ks * ks, derivative=True)
        for k, got in zip(ks, dT):
            ref = closed_form_dT(k, c)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), k
