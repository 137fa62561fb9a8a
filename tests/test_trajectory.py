"""Angular-velocity trajectories: cones, tabulated splines, CSV input."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv

from drives import spline_drive
from spinrot import trajectory
from spinrot.errors import OutOfDomainError
from spinrot.oracle import _turn_per_step
from spinrot.trajectory import OmegaTrajectory


def test_polar_axis():
    traj = OmegaTrajectory.constant_precession(1.0, 0.0, 0.0, 2.3)
    assert np.allclose(traj.omega(5.0), [0.0, 0.0, 1.0], atol=1e-15)


def test_equatorial_quarter_turn():
    Om = 0.8
    traj = OmegaTrajectory.constant_precession(1.0, Om, math.pi / 2.0)
    t = (math.pi / 2.0) / Om
    assert np.allclose(traj.omega(t), [0.0, 1.0, 0.0], atol=1e-12)


def test_direct_evaluation():
    traj = OmegaTrajectory.constant_precession(1e11, 0.0, math.pi / 6.0, 0.0)
    w = traj.omega(0.0)
    assert np.allclose(w, [5e10, 0.0, 8.660254037844386e10], rtol=1e-12)


def test_norm_preserved_everywhere():
    rng = np.random.default_rng(11)
    traj = OmegaTrajectory.constant_precession(3.7, 1.3, 1.1, phi0=0.4)
    for t in rng.uniform(-50, 50, 200):
        assert abs(np.linalg.norm(traj.omega(t)) - 3.7) / 3.7 < 1e-12


def test_omega0_validation():
    with pytest.raises(ValueError):
        OmegaTrajectory.constant_precession(-1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        OmegaTrajectory.constant_precession(float("nan"), 0.0, 0.5)


# -- effective field ----------------------------------------------------------

def _effective_field(traj, t, h):
    """B = n x dn/dt at t, as the oracle's Magnus step centred on t reads it.

    Along w1 x w2 = -c, of length the turn per step over the step; exact on
    the equator, O(h^2) off it, zero when the axis stands still.
    """
    off = math.sqrt(3.0) / 6.0
    start = np.atleast_1d(np.asarray(t, dtype=float)) - 0.5 * h
    w1, w2 = traj.omega(start + (0.5 - off) * h), traj.omega(start + (0.5 + off) * h)
    c = np.cross(w2, w1)
    norm = np.linalg.norm(c, axis=-1)
    scale = np.divide(_turn_per_step(w1, w2, c), h * norm, out=np.zeros_like(norm),
                      where=norm > 0.0)
    return -c * scale[:, None]


def test_effective_field_equatorial():
    traj = OmegaTrajectory.constant_precession(1.0, 2.0, math.pi / 2.0)
    assert np.allclose(_effective_field(traj, 0.0, 0.01), [[0.0, 0.0, 2.0]], atol=1e-13)


def test_effective_field_static_is_zero():
    traj = OmegaTrajectory.constant_precession(5.0, 0.0, 1.0, 0.3)
    assert np.array_equal(_effective_field(traj, 1.7, 0.01), np.zeros((1, 3)))


def test_effective_field_closed_form_and_orthogonality():
    rng = np.random.default_rng(5)
    h = 1e-3
    for _ in range(100):
        w0 = rng.uniform(0.1, 10.0)
        Om = rng.uniform(-5.0, 5.0)
        th = rng.uniform(0.05, math.pi - 0.05)
        traj = OmegaTrajectory.constant_precession(w0, Om, th)
        t = rng.uniform(-3.0, 3.0)
        b = _effective_field(traj, t, h)[0]
        ph = Om * t
        expected = Om * math.sin(th) * np.array(
            [-math.cos(th) * math.cos(ph), -math.cos(th) * math.sin(ph), math.sin(th)])
        # the node chord departs from the tangent at second order in Omega h
        tol = 0.1 * abs(Om) ** 3 * h**2 + 1e-11
        assert np.allclose(b, expected, rtol=0.0, atol=tol)
        # perpendicular to the angular momentum direction at both nodes
        for node in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0):
            w = traj.omega(t - 0.5 * h + node * h)
            assert abs(b @ w) <= 1e-12 * max(1.0, np.linalg.norm(b) * w0)
        assert abs(np.linalg.norm(b) - abs(Om * math.sin(th))) < tol


def test_effective_field_cross_product_route_matches():
    # a tabulated kind samples the spline at the nodes; it must agree with
    # the constant-precession cone (the spline of a constant theta and a
    # linear phi is exact)
    w0, Om, th = 2.0, 0.7, 1.0
    closed = OmegaTrajectory.constant_precession(w0, Om, th)
    generic = spline_drive(w0, lambda t: np.full_like(t, th), lambda t: Om * t, 2.5, 11)
    t = np.array([0.05, 0.4, 2.2])
    assert np.allclose(_effective_field(generic, t, 0.1), _effective_field(closed, t, 0.1),
                       rtol=0.0, atol=1e-13)


# -- tabulated trajectories -----------------------------------------------------

def _sample_table(n=401, t_max=8.0):
    t = np.linspace(0.0, t_max, n)
    theta = 1.1 + 0.25 * np.sin(0.9 * t)
    phi = 0.5 * t + 0.3 * np.sin(1.3 * t)
    return t, theta, phi


def test_tabulated_matches_samples_and_rates():
    t, theta, phi = _sample_table()
    traj = OmegaTrajectory.from_table(2.0, t, theta, phi)
    th, ph = traj.angles(t)
    assert np.abs(th - theta).max() < 1e-12
    assert np.abs(ph - phi).max() < 1e-12
    # the spline's rate, by central differences, close to the analytic rate away from the ends
    mid, d = t[50:-50], 1e-5
    thd, phd = [(a - b) / (2.0 * d) for a, b in zip(traj.angles(mid + d), traj.angles(mid - d))]
    assert np.abs(thd - 0.25 * 0.9 * np.cos(0.9 * mid)).max() < 1e-5
    assert np.abs(phd - (0.5 + 0.3 * 1.3 * np.cos(1.3 * mid))).max() < 1e-5


def test_tabulated_norm_invariant():
    t, theta, phi = _sample_table()
    traj = OmegaTrajectory.from_table(4.2, t, theta, phi)
    probe = np.linspace(0.0, 8.0, 500)
    norms = np.linalg.norm(traj.omega(probe), axis=1)
    assert np.abs(norms - 4.2).max() / 4.2 < 1e-9


def test_tabulated_out_of_domain():
    t, theta, phi = _sample_table()
    traj = OmegaTrajectory.from_table(1.0, t, theta, phi)
    with pytest.raises(OutOfDomainError):
        traj.angles(-0.5)
    with pytest.raises(OutOfDomainError):
        traj.omega(8.6)


def test_tabulated_phi_unwrapped():
    t = np.linspace(0.0, 10.0, 101)
    phi = np.mod(0.9 * t, 2.0 * math.pi)  # wrapped input
    traj = OmegaTrajectory.from_table(1.0, t, np.full_like(t, 1.0), phi)
    ph = traj.angles(np.linspace(0.2, 9.8, 50))[1]
    assert np.all(np.diff(ph) > 0)  # continuous, no 2 pi jumps


def test_tabulated_validation():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        OmegaTrajectory.from_table(1.0, t[:3], np.ones(3), np.ones(3))  # too short
    with pytest.raises(ValueError):
        OmegaTrajectory.from_table(1.0, t[::-1], np.ones(4), np.ones(4))  # decreasing
    with pytest.raises(ValueError):
        OmegaTrajectory.from_table(1.0, t, np.full(4, 4.0), np.ones(4))  # theta > pi


# -- the spline is scipy's CubicSpline, bit for bit --------------------------------

def _grid(kind, n, rng):
    if kind == "uniform":
        return np.linspace(-1.0, 3.0, n)
    if kind == "random":
        return np.cumsum(rng.uniform(1e-3, 1.0, n))
    return np.cumsum(10.0 ** rng.uniform(-4.0, 1.0, n))  # spacings 1e-4 .. 10


def _assert_spline_equals_scipy(t, theta, phi, rng):
    traj = OmegaTrajectory.from_table(1.0, t, theta, phi)
    slack = 0.9e-9 * (t[-1] - t[0])  # inside the slack that _check_time allows
    probe = np.concatenate([t, 0.5 * (t[:-1] + t[1:]), rng.uniform(t[0], t[-1], 50),
                            [t[0] - slack, t[-1] + slack]])
    splines = (CubicSpline(t, np.clip(theta, 0.0, math.pi)), CubicSpline(t, np.unwrap(phi)))
    want = [sp(probe) for sp in splines]
    got = traj.angles(probe)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    coefficients = trajectory._not_a_knot_coefficients(
        t, (np.clip(theta, 0.0, math.pi), np.unwrap(phi)))
    for c, sp in zip(coefficients, splines):
        assert np.array_equal(c, sp.c)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 60), st.sampled_from(["uniform", "random", "log"]),
       st.integers(0, 2**32 - 1))
def test_spline_equals_scipy(n, kind, seed):
    # same formulas and operation order as scipy's not-a-knot CubicSpline,
    # its dgtsv solve and its PPoly evaluation: the same bits everywhere
    rng = np.random.default_rng(seed)
    t = _grid(kind, n, rng)
    _assert_spline_equals_scipy(t, rng.uniform(0.0, math.pi, n), rng.normal(0.0, 5.0, n), rng)


def test_spline_equals_scipy_on_long_table():
    # the shape of a measured drive: 2000 samples of nutation and wobbling precession
    t = np.linspace(0.0, 20.0, 2000)
    _assert_spline_equals_scipy(t, 0.9 + 0.18 * np.sin(0.17 * t + 1.0),
                                0.32 * t + 0.22 * np.sin(0.18 * t + 2.0),
                                np.random.default_rng(2000))


def test_spline_equals_scipy_at_0d_time():
    t, theta, phi = _sample_table(n=41)
    traj = OmegaTrajectory.from_table(1.0, t, theta, phi)
    th_sp = CubicSpline(t, theta)
    for x in (t[0], 2.345, t[17], t[-1]):
        th, _ = traj.angles(np.float64(x))
        assert th.shape == ()
        assert th.tobytes() == th_sp(np.float64(x)).tobytes()
    # scipy's sum starts from 0.0: with a -0.0 constant term and negative
    # higher terms, the value at the knot is +0.0, not -0.0
    x = np.linspace(-2.0, 2.0, 9)
    sp = CubicSpline(x, -(x + x**2 + x**3))
    zero = trajectory._evaluate_pieces(x, sp.c, np.float64(0.0))
    assert zero.tobytes() == sp(np.float64(0.0)).tobytes() == np.float64(0.0).tobytes()


def test_spline_pivoting_swap_equals_lapack(monkeypatch):
    # a spacing that jumps from 1 to 8 makes the elimination swap rows
    # (|d| < |dl| at the second row); the port keeps LAPACK's factors too
    seen = []
    solve = trajectory._gtsv

    def spy(dl, d, du, bs):
        args = [np.array(a) for a in (dl, d, du, bs[0])]
        solve(dl, d, du, bs)
        seen.append((args, [np.array(a) for a in (dl, d, du, bs[0])]))

    monkeypatch.setattr(trajectory, "_gtsv", spy)
    t = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 13.0])
    rng = np.random.default_rng(7)
    _assert_spline_equals_scipy(t, rng.uniform(0.5, 2.5, t.size), rng.normal(size=t.size), rng)
    (dl, d, du, b), ours = seen[0]
    lapack = dgtsv(dl, d, du, b)
    assert np.any(ours[0][:-1] != 0.0)  # the fill-in that only a row swap leaves
    for got, want in zip(ours, lapack[:4]):
        assert np.array_equal(got, want)


def test_csv_round_trip(tmp_path):
    t, theta, phi = _sample_table(n=101)
    path = tmp_path / "traj.csv"
    lines = ["t,theta,phi"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(t, theta, phi)]
    path.write_text("\n".join(lines) + "\n")
    traj = OmegaTrajectory.from_csv(path, 3.0)
    assert traj.kind == "tabulated"
    th, ph = traj.angles(t)
    assert np.abs(th - theta).max() < 1e-12
    assert np.abs(ph - phi).max() < 1e-12


def test_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0,0.0\n1.0,1.0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        OmegaTrajectory.from_csv(path, 1.0)


@pytest.mark.parametrize("row", ["3.0,1.1", "3.0,1.1,abc"])
def test_csv_bad_row_names_line(tmp_path, row):
    path = tmp_path / "bad_row.csv"
    path.write_text(f"t,theta,phi\n0.0,1.0,0.0\n1.0,1.0,0.5\n2.0,1.0,1.0\n{row}\n")
    with pytest.raises(ValueError, match=f"line 5: expected three numbers t,theta,phi, got '{row}'"):
        OmegaTrajectory.from_csv(path, 1.0)


def test_scalar_and_array_evaluation_agree():
    # one set of vectorized callables serves both: a scalar t gives the
    # array result's row, with shape (3,) for w
    t = np.linspace(0.0, 7.5, 9)
    for traj in (OmegaTrajectory.constant_precession(2.0, 0.8, 1.1, phi0=0.3),
                 OmegaTrajectory.from_table(2.0, *_sample_table())):
        vec = traj.omega(t)
        assert vec.shape == (t.size, 3)
        for i in range(t.size):
            row = traj.omega(float(t[i]))
            assert row.shape == (3,)
            assert np.array_equal(row, vec[i])
        th, ph = traj.angles(t)
        assert traj.angles_scalar(t[4]) == (float(th[4]), float(ph[4]))
        assert all(type(v) is float for v in traj.angles_scalar(t[4]))


def test_period():
    assert OmegaTrajectory.constant_precession(1.0, 0.5, 1.0).period() == pytest.approx(4 * math.pi)
    assert OmegaTrajectory.constant_precession(1.0, 0.0, 1.0).period() is None
