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
    """
    T, n_s = dyn.horizon, dyn.state_dim
    n_in = dyn.input_dims
    sdim = (T + 1) * n_s

    init_map = np.zeros((sdim, n_s))
    input_maps = [np.zeros((sdim, T * nj)) for nj in n_in]
    noise_map = np.zeros((sdim, T * n_s))

    init_map[0:n_s] = np.eye(n_s)
    # row-block t+1 = A_t @ row-block t, plus fresh B/I entries at column t
    for t in range(T):
        rows = slice(t * n_s, (t + 1) * n_s)
        rows_next = slice((t + 1) * n_s, (t + 2) * n_s)
        a_t = dyn.a_mats[t]
        init_map[rows_next] = a_t @ init_map[rows]
        noise_map[rows_next] = a_t @ noise_map[rows]
        noise_map[rows_next, t * n_s:(t + 1) * n_s] = np.eye(n_s)
        for j, nj in enumerate(n_in):
            input_maps[j][rows_next] = a_t @ input_maps[j][rows]
            input_maps[j][rows_next, t * nj:(t + 1) * nj] = dyn.b_mats[j][t]
    return CompactLift(init_map, tuple(input_maps), noise_map)


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
    per_player, off = [], 0
    for nj in dyn.input_dims:
        per_player.append(u[off:off + T * nj])
        off += T * nj
    s = np.zeros((T + 1) * n_s)
    s[0:n_s] = dyn.s0
    for t in range(T):
        cur = s[t * n_s:(t + 1) * n_s]
        nxt = dyn.a_mats[t] @ cur + w[t * n_s:(t + 1) * n_s]
        for j, nj in enumerate(dyn.input_dims):
            nxt = nxt + dyn.b_mats[j][t] @ per_player[j][t * nj:(t + 1) * nj]
        s[(t + 1) * n_s:(t + 2) * n_s] = nxt
    return s


def lift_state(lift: CompactLift, s0: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate the affine map at (s0, stacked strategies, disturbance)."""
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if s0.shape[0] != lift.init_map.shape[1]:
        raise ValueError("s0 dimension does not match the lift")
    if w.shape[0] != lift.noise_map.shape[1]:
        raise ValueError("disturbance dimension does not match the lift")
    if u.shape[0] != sum(gm.shape[1] for gm in lift.input_maps):
        raise ValueError("strategy profile dimension does not match the lift")
    s = lift.init_map @ s0 + lift.noise_map @ w
    off = 0
    for gm in lift.input_maps:
        s = s + gm @ u[off:off + gm.shape[1]]
        off += gm.shape[1]
    return s
