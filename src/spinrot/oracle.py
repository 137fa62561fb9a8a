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

The field samples and step propagators are built per block of 2048 steps,
and the under-resolution test reads the field per block too: past the time
grid itself (8 bytes a step), memory grows with the kept samples, not with
`thin`. Every step sees the same floats as in one whole-grid pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice

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
    """Kept samples of one propagation on a uniform grid.

    `states` has shape (N, 2) for one initial state, with a float
    `unitarity_defect`, and (N, m, 2) for a stack of m, with one defect per
    state in an array of shape (m,). `step` is the spacing of `t`.
    """

    step: float
    t: np.ndarray
    states: np.ndarray
    unitarity_defect: float | np.ndarray

    def unstack(self) -> list["PropagatorRun"]:
        """One single-state run per member of a stacked run, in stack order."""
        return [PropagatorRun(self.step, self.t, self.states[:, j], float(d))
                for j, d in enumerate(self.unitarity_defect)]

    def to_csv(self, path, fidelity=None, overlap_phase=None, comments=None, t_text=None):
        """Emit t, re/im of both amplitudes and, when given, the overlap series.

        t_text, when given, is the `format_floats` text of t, shared with other files.
        """
        if self.states.ndim != 2:
            raise ValueError("to_csv writes one state; unstack() a stacked run first")
        cols = ["t", "re_plus", "im_plus", "re_minus", "im_minus"]
        data = [self.t if t_text is None else t_text, self.states[:, 0].real,
                self.states[:, 0].imag, self.states[:, 1].real, self.states[:, 1].imag]
        if fidelity is not None:
            cols += ["fidelity", "overlap_phase"]
            data += [fidelity, overlap_phase]
        write_csv(path, cols, data, comments)


def under_resolved(traj: OmegaTrajectory, step: float, t: np.ndarray) -> bool:
    """True when max(omega0, max |B|) * step >= 0.1 over the times t.

    omega0 is the Larmor rate and |B| = |w x dw/dt| / w0^2 the rate at which
    the field turns (|Omega| sin theta on a cone); either one at 0.1 rad per
    step or more leaves under ~63 steps per turn.
    """
    turn = max(float(np.linalg.norm(traj.effective_field(t[k:k + _BLOCK]), axis=-1).max())
               for k in range(0, t.size, _BLOCK))
    return max(traj.omega0, turn) * abs(step) >= 0.1


def propagate(traj: OmegaTrajectory, psi0: np.ndarray, t_end: float, step: float,
              t0: float = 0.0, thin: int = 1) -> PropagatorRun:
    """Propagate psi0 from t0 to t_end with the given step.

    psi0 is one 2-spinor, shape (2,), or a stack of them, shape (m, 2). All
    states share the grid, the step propagators and one step loop, and each
    comes out bit-identical to its own single-state run. The first sample
    and every `thin`-th after it are kept; `thin` must divide the step count.
    A grid above MAX_SAMPLES samples is a ValueError, raised before it is built.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or psi0.shape[-1] != 2 or psi0.size == 0:
        raise ValueError(
            f"psi0 must be a 2-spinor or a stack of them, got shape {psi0.shape}")
    n = _grid_steps(t0, t_end, step)
    if thin < 1 or n % thin != 0:
        raise ValueError(f"cannot thin {n} steps by {thin}")
    t = np.linspace(t0, t_end, n + 1)
    h = (t_end - t0) / n if n else step
    if under_resolved(traj, h, t):
        warnings.warn("max(omega0, |B|)*step >= 0.1; the propagator is under-resolved",
                      stacklevel=2)
    # (c+, c-) of every state, flat: the step loop indexes it in pairs
    kept, defect = _propagate_exponential(traj, psi0.reshape(-1).tolist(), t, h, thin)
    states = np.array(kept, dtype=complex).reshape(len(kept), -1, 2)
    if psi0.ndim == 1:
        return PropagatorRun(h * thin, t[::thin], states[:, 0], defect)
    return PropagatorRun(h * thin, t[::thin], states, np.full(len(psi0), defect))


def _propagate_exponential(traj, amps, t, h, thin):
    """Kept amplitude tuples and the worst step-propagator unitarity defect."""
    pairs = range(0, len(amps), 2)
    kept = [tuple(amps)]
    defect = 0.0
    starts = t[:-1]
    left = thin  # steps to the next kept sample, which may lie in a later block
    for k in range(0, starts.size, _BLOCK):
        tk = starts[k:k + _BLOCK]
        w1 = traj.omega(tk + (0.5 - _GAUSS_OFFSET) * h)
        w2 = traj.omega(tk + (0.5 + _GAUSS_OFFSET) * h)
        u = spin_rotation_propagators(
            0.5 * (w1 + w2) + (math.sqrt(3.0) / 12.0 * h) * np.cross(w2, w1), h)
        # constructed unitaries [[a, b], [-b*, a*]]: the defect only probes rounding
        defect = max(defect, float(
            np.abs(np.abs(u[:, 0, 0]) ** 2 + np.abs(u[:, 0, 1]) ** 2 - 1.0).max()))
        steps = zip(u[:, 0, 0].tolist(), u[:, 0, 1].tolist(),
                    u[:, 1, 0].tolist(), u[:, 1, 1].tolist())
        rest = tk.size
        while rest:
            run = min(left, rest)
            for u00, u01, u10, u11 in islice(steps, run):
                for j in pairs:
                    cp, cm = amps[j], amps[j + 1]
                    amps[j], amps[j + 1] = u00 * cp + u01 * cm, u10 * cp + u11 * cm
            rest -= run
            left -= run
            if not left:
                kept.append(tuple(amps))
                left = thin
    return kept, defect


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
