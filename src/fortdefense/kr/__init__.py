"""Action-language reasoning: domain parsing, grounding, belief
progression, goal selection, and minimum-length planning by iterative
deepening."""

from fortdefense.kr.lang import (
    Atom,
    DomainDescription,
    DomainSyntaxError,
    Literal,
    Variable,
    parse_domain,
)
from fortdefense.kr.ground import (
    GroundedDomain,
    GroundingError,
    REGION_BLOCK,
    agent_symbol,
    ground,
    restrict,
    symbol_agent_id,
)
from fortdefense.kr.beliefs import (
    Belief,
    CompletionResult,
    HardInconsistencyError,
    InconsistencyError,
    NotExecutableError,
    Provenance,
    belief_from_world,
    check_executable,
    complete_initial,
    close_defined,
    observe_world,
    progress,
    validate,
)
from fortdefense.kr.goals import PURSUIT_MARGIN, Goal, compute_relevance, select_goal
from fortdefense.kr.plan import Plan, candidate_actions, goal_holds, plan, replay

__all__ = [
    "Atom",
    "Belief",
    "CompletionResult",
    "DomainDescription",
    "DomainSyntaxError",
    "Goal",
    "GroundedDomain",
    "GroundingError",
    "HardInconsistencyError",
    "InconsistencyError",
    "Literal",
    "NotExecutableError",
    "PURSUIT_MARGIN",
    "Plan",
    "Provenance",
    "REGION_BLOCK",
    "Variable",
    "agent_symbol",
    "restrict",
    "belief_from_world",
    "candidate_actions",
    "check_executable",
    "close_defined",
    "complete_initial",
    "compute_relevance",
    "goal_holds",
    "ground",
    "observe_world",
    "parse_domain",
    "plan",
    "progress",
    "replay",
    "select_goal",
    "symbol_agent_id",
    "validate",
]
