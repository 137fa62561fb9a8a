"""Spin operator algebra and closed-form SU(2) exponentials."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from drives import IDENTITY2, S1, S2, S3, S_MINUS, S_PLUS, basis_state
from spinrot.spin_algebra import rotation_stack, spin_rotation_propagators, validate_sigma


def hamiltonian(omega_vec):
    """w . S for one 3-vector w."""
    wx, wy, wz = omega_vec
    return wx * S1 + wy * S2 + wz * S3


def spin_rotation_propagator(omega_vec, dt):
    """One row of the vectorized propagator."""
    return spin_rotation_propagators(np.array([omega_vec], dtype=float), dt)[0]

# -- exact-arithmetic commutator oracle -------------------------------------
# 2x2 complex matrices as ((re, im) Fraction pairs); entries of the spin
# operators are dyadic rationals, so this reproduces them without rounding.


def _to_frac(m):
    return tuple(
        tuple((Fraction(z.real).limit_denominator(4), Fraction(z.imag).limit_denominator(4))
              for z in row)
        for row in np.asarray(m))


def _fmul(a, b):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            re = Fraction(0)
            im = Fraction(0)
            for k in range(2):
                ar, ai = a[i][k]
                br, bi = b[k][j]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            row.append((re, im))
        out.append(row)
    return tuple(tuple(r) for r in out)


def _fsub(a, b):
    return tuple(
        tuple((a[i][j][0] - b[i][j][0], a[i][j][1] - b[i][j][1]) for j in range(2))
        for i in range(2))


def _ftimes_i(a):
    # multiply by i: (re, im) -> (-im, re)
    return tuple(tuple((-z[1], z[0]) for z in row) for row in a)


def _commutator(a, b):
    return _fsub(_fmul(a, b), _fmul(b, a))


def test_su2_commutation_table_exact():
    fs1, fs2, fs3 = _to_frac(S1), _to_frac(S2), _to_frac(S3)
    assert _commutator(fs1, fs2) == _ftimes_i(fs3)
    assert _commutator(fs2, fs3) == _ftimes_i(fs1)
    assert _commutator(fs3, fs1) == _ftimes_i(fs2)


def test_ladder_identity_exact():
    fp, fm, fs3 = _to_frac(S_PLUS), _to_frac(S_MINUS), _to_frac(S3)
    two_s3 = tuple(tuple((2 * z[0], 2 * z[1]) for z in row) for row in fs3)
    assert _commutator(fp, fm) == two_s3


def test_ladder_convention():
    down = basis_state(-0.5)
    up = basis_state(0.5)
    assert np.array_equal(S_PLUS @ down, up)
    assert np.array_equal(S_MINUS @ up, down)
    assert np.array_equal(S_PLUS, np.array([[0, 1], [0, 0]]))


def test_s3_eigenvalues():
    vals = np.linalg.eigvalsh(S3)
    assert np.allclose(sorted(vals), [-0.5, 0.5], atol=1e-15)


def test_validate_sigma():
    assert validate_sigma(0.5) == 0.5
    assert validate_sigma(-0.5) == -0.5
    with pytest.raises(ValueError):
        validate_sigma(1.5)
    with pytest.raises(ValueError):
        validate_sigma(0)


# -- rotation_stack ------------------------------------------------------------

def _taylor_exp(beta, terms=30):
    a = np.array([[0.0, beta], [-np.conj(beta), 0.0]], dtype=complex)
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def _scaling_squaring(beta, squarings=40):
    a = np.array([[0.0, beta], [-np.conj(beta), 0.0]], dtype=complex)
    m = np.eye(2) + a / 2.0**squarings
    for _ in range(squarings):
        m = m @ m
    return m


def test_rotation_stack_zero_is_identity():
    assert np.array_equal(rotation_stack(0.0, 0.7), IDENTITY2)


def test_rotation_stack_pi_rotation():
    # beta = -(lam/2) e^{-i gamma} with lam = pi, gamma = 0
    v = rotation_stack(math.pi, 0.0)
    assert np.allclose(v, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    # independent scaling-and-squaring oracle
    assert np.allclose(v, _scaling_squaring(-math.pi / 2.0), atol=1e-10)


_angles = st.lists(st.tuples(st.floats(min_value=0.0, max_value=math.pi),
                             st.floats(min_value=-math.pi, max_value=math.pi)),
                   min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(_angles)
def test_rotation_stack_unitary(angles):
    v = rotation_stack(*np.array(angles).T)
    gram = np.conj(np.swapaxes(v, -1, -2)) @ v
    assert np.abs(gram - np.eye(2)).max() < 1e-15
    assert np.abs(np.linalg.det(v) - 1.0).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(_angles)
def test_rotation_stack_inverse(angles):
    lam, gam = np.array(angles).T
    assert np.abs(rotation_stack(lam, gam) @ rotation_stack(-lam, gam) - np.eye(2)).max() < 1e-15


def test_rotation_stack_matches_scalar():
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, math.pi, 50)
    gam = rng.uniform(-10.0, 10.0, 50)
    stack = rotation_stack(lam, gam)
    for i in range(50):
        assert np.abs(stack[i] - rotation_stack(lam[i], gam[i])).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(_angles)
def test_rotation_stack_matches_taylor_series(angles):
    # each sample is the Taylor series of exp(beta S+ - beta* S-), beta = -(lam/2) e^{-i gamma}
    v = rotation_stack(*np.array(angles).T)
    for (lam, gam), row in zip(angles, v):
        assert np.abs(row - _taylor_exp(-(lam / 2.0) * cmath.exp(-1j * gam))).max() < 1e-12


# -- propagator factors -------------------------------------------------------

def test_spin_rotation_propagator_zero_field():
    assert np.array_equal(spin_rotation_propagator([0, 0, 0], 0.3), IDENTITY2)


def test_spin_rotation_propagator_z_axis():
    u = spin_rotation_propagator([0, 0, 2.0], 0.7)
    # diagonal phases e^{-i w t / 2}
    assert np.allclose(np.diag(u), [cmath.exp(-0.7j), cmath.exp(0.7j)], atol=1e-15)
    assert abs(u[0, 1]) == 0.0 and abs(u[1, 0]) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.001, 0.5))
def test_spin_rotation_propagator_is_exp(wx, wy, wz, dt):
    u = spin_rotation_propagator([wx, wy, wz], dt)
    h = hamiltonian([wx, wy, wz])
    # Taylor oracle of exp(-i H dt)
    a = -1j * h * dt
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        acc = acc + term
    assert np.abs(u - acc).max() < 1e-12


def test_spin_rotation_propagators_stack():
    rng = np.random.default_rng(3)
    omegas = rng.normal(size=(20, 3))
    omegas[4] = 0.0  # zero-field row exercises the limit branch
    stack = spin_rotation_propagators(omegas, 0.05)
    for i in range(20):
        assert np.abs(stack[i] - expm(-1j * hamiltonian(omegas[i]) * 0.05)).max() < 1e-14
