"""Brute-force propagator for i d/dt psi = (w(t) . S) psi.

It validates the invariant pipeline end to end and deliberately shares
nothing with it beyond the 2x2 spin primitives.

Each step is the fourth-order Magnus step on the two Gauss-Legendre nodes
t_n + (1/2 -+ sqrt(3)/6) h, with w1, w2 the field there:

    psi_{n+1} = exp(-i (v . S) h) psi_n, v = (w1 + w2)/2 + (sqrt(3) h/12) (w2 x w1).

The cross product is the commutator term, since [a . S, b . S] =
i (a x b) . S in su(2), so every step is one closed-form 2x2 exponential
and exactly unitary: total-phase comparisons against the invariant
solution are meaningful down to ~1e-12. The global error is O(h^4)
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).

`propagate` takes one state. The spin-down run of a spin-up run is its
`spin_algebra.time_reverse`, so no second state is propagated. The step
times, field samples and step propagators are built per block of 2048
steps, the fields component by component (shape (3, N)), and the
under-resolution test reads the same node samples. Block
times are formed as `np.linspace` forms them, so every step sees the same
floats as in one whole-grid pass.

There is no step loop. Each step is its SU(2) pair (a, b), U = [[a, b],
[-b*, a*]], and a block's running products U_j ... U_0 come from one
inclusive Hillis-Steele scan over the block, later steps on the left
(Hillis & Steele, CACM 29, 1170 (1986)): log2(2048) = 11 whole-array
levels. The products are applied to the state carried in from the block
before. Every step's state is formed and the kept ones are selected from
them, so a run thinned by k keeps exactly the samples of the unthinned run
and the cost does not depend on `thin`. Memory grows with the kept
samples, not with `thin`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .io_utils import write_csv
from .spin_algebra import spin_rotation_propagators
from .trajectory import OmegaTrajectory, _grid_steps

# Gauss-Legendre nodes of the Magnus step sit at (1/2 -+ sqrt(3)/6) h
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# steps per block: the field and the step propagators are built per block
_BLOCK = 2048


@dataclass
class PropagatorRun:
    """Kept samples of one state's propagation on a uniform grid.

    `states` has shape (N, 2); `step` is the spacing of `t`;
    `under_resolved` tells whether `under_resolved` holds on the step grid.
    """

    step: float
    t: np.ndarray
    states: np.ndarray
    unitarity_defect: float
    under_resolved: bool

    def csv_table(self, fidelity: np.ndarray, overlap_phase: np.ndarray
                  ) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns: t, re/im of both amplitudes and the given overlap series."""
        return (["t", "re_plus", "im_plus", "re_minus", "im_minus", "fidelity", "overlap_phase"],
                [self.t, self.states[:, 0].real, self.states[:, 0].imag, self.states[:, 1].real,
                 self.states[:, 1].imag, fidelity, overlap_phase])

    def to_csv(self, path, fidelity, overlap_phase, comments=None):
        """Emit `csv_table(fidelity, overlap_phase)`."""
        write_csv(path, *self.csv_table(fidelity, overlap_phase), comments)


def _turn_per_step(w1: np.ndarray, w2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The field's turn over each step, from (N, 3) node fields w1, w2 and c = w2 x w1.

    The nodes lie step/sqrt(3) apart, so the turn is sqrt(3) atan2(|c|, w1 . w2);
    on a cone 2 sqrt(3) asin(sin th sin(Omega step / (2 sqrt(3)))), which is
    |Omega| sin th step to O(step^2).
    """
    (x1, y1, z1), (x2, y2, z2), (cx, cy, cz) = w1.T, w2.T, c.T
    return math.sqrt(3.0) * np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz),
                                       x1 * x2 + y1 * y2 + z1 * z2)


def under_resolved(omega0: float, w1: np.ndarray, w2: np.ndarray, c: np.ndarray,
                   step: float) -> bool:
    """max(omega0 |step|, max turn per step) >= 0.1: under ~63 steps per turn of either angle."""
    turn = float(_turn_per_step(w1, w2, c).max(initial=0.0))
    return max(omega0 * abs(step), turn) >= 0.1


def _field_at(traj: OmegaTrajectory, t: np.ndarray) -> np.ndarray:
    """w at the times t, shape (3, N): `traj.omega(t)` transposed, bit for bit."""
    th, ph = traj.angles(t)
    s = np.sin(th)
    w = np.empty((3, t.size))
    w[0], w[1], w[2] = s * np.cos(ph), s * np.sin(ph), np.cos(th)
    w *= traj.omega0
    return w


def propagate(traj: OmegaTrajectory, psi0: np.ndarray, t_end: float, step: float,
              t0: float = 0.0, thin: int = 1) -> PropagatorRun:
    """Propagate the 2-spinor psi0, shape (2,), from t0 to t_end with the given step.

    The first sample and every `thin`-th after it are kept; `thin` must
    divide the step count. A grid above the sample cap is a ConfigError,
    raised before it is built.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ValueError(f"psi0 must be a 2-spinor, got shape {psi0.shape}")
    n = _grid_steps(t0, t_end, step)
    if thin < 1 or n % thin != 0:
        raise ValueError(f"cannot thin {n} steps by {thin}")
    h = (t_end - t0) / n if n else step
    # np.linspace(t0, t_end, n + 1)[::thin], bit for bit: k h + t0, the last sample t_end
    t = np.arange(0, n + 1, thin, dtype=float)
    t *= h
    t += t0
    if n:
        t[-1] = t_end
    kept = np.empty((n // thin + 1, 2), dtype=complex)
    kept[0] = psi = psi0
    defect = 0.0
    coarse = under_resolved(traj.omega0, *np.zeros((3, 0, 3)), h)  # a run with no steps
    for k in range(0, n, _BLOCK):
        tk = np.arange(k, min(k + _BLOCK, n)) * h + t0  # the step starts, as np.linspace forms them
        w1 = _field_at(traj, tk + (0.5 - _GAUSS_OFFSET) * h)
        w2 = _field_at(traj, tk + (0.5 + _GAUSS_OFFSET) * h)
        c = np.empty_like(w1)  # w2 x w1
        c[0], c[1], c[2] = (w2[1] * w1[2] - w2[2] * w1[1], w2[2] * w1[0] - w2[0] * w1[2],
                            w2[0] * w1[1] - w2[1] * w1[0])
        coarse = coarse or under_resolved(traj.omega0, w1.T, w2.T, c.T, h)
        v = 0.5 * (w1 + w2) + (math.sqrt(3.0) / 12.0 * h) * c
        a, b = _prefix_products(*spin_rotation_propagators(v.T, h))
        # constructed unitaries: the products' defect probes the rounding they accumulate
        defect = max(defect, float(np.abs(
            a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2 - 1.0).max()))
        p, m = psi
        states = np.empty((a.size, 2), dtype=complex)
        states[:, 0] = a * p + b * m
        states[:, 1] = a.conj() * m - b.conj() * p
        first = -(k + 1) % thin  # the block's first kept step, global index a multiple of thin
        kept[(k + 1 + first) // thin:(k + tk.size) // thin + 1] = states[first::thin]
        psi = states[-1]
    if coarse:
        warnings.warn("omega0 * step or the field's turn per step >= 0.1 rad; "
                      "the propagator is under-resolved",
                      stacklevel=2)
    return PropagatorRun(h * thin, t, kept, defect, coarse)


def _prefix_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products U_j ... U_0 of the SU(2) pairs (a_j, b_j), scanned in place into a, b.

    (a1, b1)(a2, b2) = (a1 a2 - b1 b2*, a1 b2 + b1 a2*) is the pair of
    [[a1, b1], [-b1*, a1*]] [[a2, b2], [-b2*, a2*]]. Level d multiplies each
    entry from d on by the entry d before it, on its right.
    """
    d = 1
    while d < a.size:
        al, bl, ar, br = a[d:], b[d:], a[:-d], b[:-d]
        a[d:], b[d:] = al * ar - bl * br.conj(), al * br + bl * ar.conj()
        d *= 2
    return a, b


def fidelity(run: PropagatorRun, lr_t: np.ndarray, lr_states: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """|<psi_oracle|psi_lr>| and arg<psi_oracle|psi_lr> per sample.

    The complex overlap phase probes the total phase, not just the ray.
    """
    lr_t = np.asarray(lr_t, dtype=float)
    lr_states = np.asarray(lr_states, dtype=complex)
    if lr_t.shape != run.t.shape:
        raise GridMismatchError(
            f"time grids differ in length: {run.t.size} vs {lr_t.size}")
    scale = max(1.0, float(np.max(np.abs(run.t))))
    if not np.allclose(run.t, lr_t, rtol=0.0, atol=1e-9 * scale):
        raise GridMismatchError("time grids differ beyond 1e-9 relative")
    overlap = np.sum(run.states.conj() * lr_states, axis=1)
    return np.abs(overlap), np.angle(overlap)
