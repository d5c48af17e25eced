"""Speculative-verification control at desk scale.

A heavy macro-planner emits open-loop action chunks plus a planning-context
vector; a lightweight trained verifier checks each planned action against the
live observation and triggers replanning when the normalized deviation exceeds
a threshold. A seeded harness measures the efficiency/robustness trade-off.
"""

from .core import (ActionSpace, ConfigurationError, ContractViolation,
                   deviation_score)
from .controller import (ControllerMode, Decision, EpisodeTrace, LatencyModel,
                         ThresholdConfig, cost_bounds, decide, run_episode,
                         run_episodes)
from .env import (DisturbanceConfig, EnvState, EpisodeConfig, Geometry, ToyEnv,
                  expert_action, is_success, render_observation, transition)
from .planner import NominalRolloutPlanner, PlannerOutput, make_planner
from .verifier import (ObservationEncoder, OracleVerifier, TrainedVerifier,
                       TrainReport, VerifierParams, VerifierSample,
                       build_training_set, load_verifier, save_verifier,
                       train_verifier)

__version__ = "0.1.0"
