"""Argumentation-based automated mediation between BDI agents.

Two negotiating agents disclose knowledge to a resource-rich mediator,
which plans a joint solution, defends each resource transfer with an
argument, and revises its beliefs on every rejection until the agents
agree or the process provably stalls.
"""

from .agent import AgentState, GiveAction, Strategy, bridge_step, disclose, execute_give, plan
from .argumentation import (
    Argument,
    Attack,
    AttackKind,
    Decision,
    Verdict,
    construct_argument,
    evaluate,
)
from .lang import Constant, Literal, Modality, Substitution, Variable, unify
from .logic import (
    DepthExceeded,
    GeneralKind,
    GeneralRule,
    InconsistentTheory,
    Proof,
    Rule,
    Theory,
    consistent,
    forward_chain,
    prove,
)
from .mediator import (
    MediationConfig,
    MediatorState,
    Outcome,
    Solution,
    create_solution,
    mediate,
    revise,
)
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    parse_scenario,
    serialize_scenario,
)
from .transcript import Transcript, parse_transcript, serialize_transcript

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "Argument",
    "Attack",
    "AttackKind",
    "Constant",
    "Decision",
    "DepthExceeded",
    "GeneralKind",
    "GeneralRule",
    "GiveAction",
    "InconsistentTheory",
    "Literal",
    "MediationConfig",
    "MediatorState",
    "Modality",
    "Outcome",
    "ParseError",
    "Proof",
    "Rule",
    "Scenario",
    "Solution",
    "Strategy",
    "Substitution",
    "Theory",
    "Transcript",
    "ValidationError",
    "Variable",
    "Verdict",
    "bridge_step",
    "consistent",
    "construct_argument",
    "create_solution",
    "disclose",
    "evaluate",
    "execute_give",
    "forward_chain",
    "mediate",
    "parse_scenario",
    "parse_transcript",
    "plan",
    "prove",
    "revise",
    "serialize_scenario",
    "serialize_transcript",
    "unify",
]
