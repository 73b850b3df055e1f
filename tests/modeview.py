"""Named per-field views of mode-state arrays, for the reference formulas.

The package keeps a mode state as one ``(K+1, 6, n_r, n_z)`` velocity
array and one ``(K+1, 2, n_r, n_z)`` pressure array, and forces as one
velocity-shaped array.  The test references (``quadratic_reference``,
``diagnostics_reference``) are written field by field (``m.ur``,
``press.P``, ``{k: fields}`` forces); the helpers here hand them slices of
the arrays under those names, without copying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cylmode.diagnostics import UR, UTH, UZ


class ModeView:
    """The six slots of one harmonic's ``(6, n_r, n_z)`` row by name."""

    def __init__(self, k: int, u: np.ndarray):
        self.k = k
        self.ur, self.vth, self.uz, self.vr, self.uth, self.vz = u

    def fields(self) -> tuple[np.ndarray, ...]:
        return (self.ur, self.vth, self.uz, self.vr, self.uth, self.vz)


class PressureView:
    """``P`` and ``Q`` of one harmonic's ``(2, n_r, n_z)`` row by name."""

    def __init__(self, k: int, p: np.ndarray):
        self.k = k
        self.P, self.Q = p


@dataclass
class StateView:
    """A ``ModeState`` with per-harmonic views next to its arrays."""

    grid: object
    params: object
    t: float
    u: np.ndarray
    p: np.ndarray
    modes: list[ModeView]
    pressures: list[PressureView]


def state_view(state) -> StateView:
    return StateView(state.grid, state.params, state.t, state.u, state.p,
                     [ModeView(k, row) for k, row in enumerate(state.u)],
                     [PressureView(k, row) for k, row in enumerate(state.p)])


def force_dict(forces: np.ndarray) -> dict[int, tuple[np.ndarray, ...]]:
    """A force array as ``{0: (f_r, f_th, f_z), k: six slots}``."""
    out = {0: tuple(forces[0, [UR, UTH, UZ]])}
    out.update((k, tuple(forces[k])) for k in range(1, len(forces)))
    return out


def force_array(forces: dict, shape: tuple) -> np.ndarray:
    """``{k: fields}`` (3 for the mean, 6 otherwise) as one force array."""
    out = np.zeros(shape)
    for k, f in forces.items():
        if len(f) == 3:
            out[k, [UR, UTH, UZ]] = f
        else:
            out[k] = f
    return out
