"""Linear time-varying shared dynamics and their stacked affine form.

The shared state evolves as

    s_{t+1} = A_t s_t + sum_j B^j_t u^j_t + w_t,    t = 0..T-1,

with known initial state ``s0``. Stacking conventions used everywhere in
this package:

    s   = col(s_0, ..., s_T)                 length (T+1) * n_s
    u^j = col(u^j_0, ..., u^j_{T-1})         length T * n_j
    u   = col(u^1, ..., u^N)
    w   = col(w_0, ..., w_{T-1})             length T * n_s

``build_compact_lift`` folds the recursion into the affine map

    s = init_map @ s0 + sum_j input_maps[j] @ u^j + noise_map @ w,

which every gradient and constraint sample downstream reuses. The lift is
dense; horizons here are desk-scale so sparsity would be premature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeVaryingLinearDynamics:
    """Shared dynamics ``s_{t+1} = A_t s_t + sum_j B^j_t u^j_t + w_t``.

    a_mats : (T, n_s, n_s) array, A_t per step.
    b_mats : per player, (T, n_s, n_j) array, B^j_t per step.
    s0     : (n_s,) known initial state.
    """

    a_mats: np.ndarray
    b_mats: tuple
    s0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_mats, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError("a_mats must have shape (T, n_s, n_s)")
        T, n_s, _ = a.shape
        if T < 1:
            raise ValueError("horizon must be at least 1")
        bs = tuple(np.asarray(b, dtype=float) for b in self.b_mats)
        for j, b in enumerate(bs):
            if b.ndim != 3 or b.shape[0] != T or b.shape[1] != n_s:
                raise ValueError(f"b_mats[{j}] must have shape (T, n_s, n_j)")
        s0 = np.asarray(self.s0, dtype=float).reshape(-1)
        if s0.shape[0] != n_s:
            raise ValueError("s0 length must equal n_s")
        object.__setattr__(self, "a_mats", a)
        object.__setattr__(self, "b_mats", bs)
        object.__setattr__(self, "s0", s0)

    @property
    def horizon(self) -> int:
        return self.a_mats.shape[0]

    @property
    def state_dim(self) -> int:
        return self.a_mats.shape[1]

    @property
    def n_players(self) -> int:
        return len(self.b_mats)

    @property
    def input_dims(self) -> tuple:
        return tuple(b.shape[2] for b in self.b_mats)

    @property
    def input_dim_total(self) -> int:
        return self.horizon * sum(self.input_dims)


@dataclass(frozen=True)
class CompactLift:
    """Stacked affine state map.

    init_map   : ((T+1) n_s, n_s), block row t equals the t-step transition
                 from time 0; block row 0 is the identity.
    input_maps : per player, ((T+1) n_s, T n_j), block lower triangular in
                 the time index (causality).
    noise_map  : ((T+1) n_s, T n_s), same structure with identity input
                 matrices.
    """

    init_map: np.ndarray
    input_maps: tuple
    noise_map: np.ndarray


def build_compact_lift(dyn: TimeVaryingLinearDynamics) -> CompactLift:
    """Unroll the recursion into the stacked affine map.

    Block formulas: init_map row-block t is the transition from 0 to t;
    input_maps[j] row-block t, column-block k is A_{t-1} ... A_{k+1} B^j_k
    for k < t and zero otherwise; noise_map is the same with the identity in
    place of B^j_k.

    The maps' columns share one array (the initial state's, then per step
    the noise's and each player's), so a step is one product and one placed
    block. A product's column reads only its own column: each map, copied
    out C-contiguous, has the bits of its own recursion. A lift past the
    doubles is a ``ValueError``."""
    T, n_s = dyn.horizon, dyn.state_dim
    widths = (n_s,) + dyn.input_dims  # one step's columns: noise, then each player's
    width = sum(widths)
    fresh = np.concatenate((np.broadcast_to(np.eye(n_s), (T, n_s, n_s)),) + dyn.b_mats, axis=2)
    maps = np.zeros(((T + 1) * n_s, n_s + T * width))
    maps[:n_s, :n_s] = np.eye(n_s)
    # row-block t+1 = A_t @ row-block t, plus the fresh I/B entries of step t
    with np.errstate(over="ignore", invalid="ignore"):  # a lift past the doubles is refused below
        for t in range(T):
            rows_next = slice((t + 1) * n_s, (t + 2) * n_s)
            maps[rows_next] = dyn.a_mats[t] @ maps[t * n_s:(t + 1) * n_s]
            maps[rows_next, n_s + t * width:n_s + (t + 1) * width] = fresh[t]
    if not np.isfinite(maps).all():
        raise ValueError("the dynamics overflow a double within the horizon")
    steps = maps[:, n_s:].reshape(-1, T, width)
    noise_map, *input_maps = (np.ascontiguousarray(steps[:, :, end - w:end].reshape(-1, T * w))
                              for w, end in zip(widths, np.cumsum(widths)))
    return CompactLift(maps[:, :n_s].copy(), tuple(input_maps), noise_map)


def simulate_state(dyn: TimeVaryingLinearDynamics, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Step the recursion forward; returns the stacked trajectory."""
    T, n_s = dyn.horizon, dyn.state_dim
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != T * n_s:
        raise ValueError(f"disturbance has length {w.shape[0]}, expected {T * n_s}")
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != dyn.input_dim_total:
        raise ValueError(
            f"strategy profile has length {u.shape[0]}, expected {dyn.input_dim_total}")
    # every player's input term at every step, one product a player
    drive = w.reshape(T, n_s).copy()
    ends = np.cumsum([T * b.shape[2] for b in dyn.b_mats])
    for b, u_j in zip(dyn.b_mats, np.split(u, ends[:-1])):
        drive += np.matmul(b, u_j.reshape(T, -1, 1))[..., 0]
    s = np.zeros((T + 1) * n_s)
    s[0:n_s] = dyn.s0
    for t in range(T):
        s[(t + 1) * n_s:(t + 2) * n_s] = dyn.a_mats[t] @ s[t * n_s:(t + 1) * n_s] + drive[t]
    return s
