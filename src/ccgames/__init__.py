"""Equilibrium seeking for stochastic dynamic games with coupled chance constraints.

The pipeline: describe shared linear dynamics and player costs (``dynamics``,
``game``), tighten the coupled chance constraints into expected constraints
via a concentration model (``com``), and run the semi-decentralized
sampling-based iteration (``solver``). ``microgrid`` ships the shared-battery
demand-side-management benchmark; ``cli`` exposes the config-driven front end.
"""

from .com import (ComModel, EpsilonGapEstimate, UnderApproxOffsets,
                  estimate_constraint_satisfaction, estimate_epsilon_gap,
                  h_gaussian, h_inverse)
from .dynamics import CompactLift, TimeVaryingLinearDynamics, build_compact_lift, simulate_state
from .game import CouplingConstraintSpec, DisturbanceModel, GameSpec, PlayerSpec, project_local
from .lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from .microgrid import MicrogridParams, build_microgrid_game, household_cost_value
from .solver import (IterationRecord, RunTrace, SolverConfig, SolverState, batch_size,
                     estimate_lipschitz, estimator_diagnostics, initial_state, iterate,
                     residual_estimate, run, step_size, validate_config)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
