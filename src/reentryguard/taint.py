"""Taint engine: label propagation on write, contamination, declassification.

Propagation is deliberately over-conservative. Once an agent's decision
state has been exposed to untrusted content, everything it writes is
labeled tainted_derived, whether or not the payload survived. The agent
itself can never clear this: declassification requires runtime or operator
authority, and a context reset is a runtime operation. Precision is traded
away so that no semantic judgement about "did the instruction survive the
paraphrase" is ever load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    ActionKind,
    Authorizer,
    Carrier,
    DeclassProcedure,
    TaintLabel,
)


@dataclass(frozen=True)
class AgentDecisionState:
    """Per-agent security state between turns.

    high_cap says whether this decision context still holds any high-risk
    capability. Attenuation clears it; a context reset restores it from
    base_caps. The base set encodes both privilege tier and any
    scenario-level capability restrictions, so a context whose deployment
    grants no high-risk action never holds high_cap.
    """

    agent: str
    contaminated: bool = False
    high_cap: bool = False
    base_caps: frozenset[ActionKind] = frozenset()


def fresh_state(agent: str, capabilities: frozenset[ActionKind]) -> AgentDecisionState:
    return AgentDecisionState(agent=agent, high_cap=bool(capabilities), base_caps=frozenset(capabilities))


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def content_label(writer: AgentDecisionState, origin: TaintLabel) -> TaintLabel:
    """Label of content an agent emits: conservative writer rule.

    Contaminated writer: tainted_derived, regardless of what was written.
    Clean writer relaying untrusted content: tainted (the relay is itself
    a write, so downstream re-entry checks must see it). Clean writer,
    clean content: clean.
    """
    if writer.contaminated:
        return TaintLabel.TAINTED_DERIVED
    if origin.untrusted:
        return TaintLabel.TAINTED
    return TaintLabel.CLEAN


def propagate_on_write(
    writer: AgentDecisionState,
    target: Carrier,
    content_origin: TaintLabel,
) -> TaintLabel:
    """Label the target carrier takes after an allowed write: the content
    label, except that clean content leaves the target label unchanged;
    overwriting a tainted carrier with clean bytes is not a declassification.
    """
    label = content_label(writer, content_origin)
    return target.label if label is TaintLabel.CLEAN else label


def mark_contamination(state: AgentDecisionState) -> AgentDecisionState:
    return replace(state, contaminated=True)


def attenuate_capabilities(state: AgentDecisionState) -> AgentDecisionState:
    return replace(state, high_cap=False)


def restore_capabilities(state: AgentDecisionState) -> AgentDecisionState:
    return replace(state, high_cap=bool(state.base_caps))


def context_reset(state: AgentDecisionState) -> AgentDecisionState:
    """Runtime-initiated reset: contamination cleared, capabilities restored.
    Carrier labels are untouched; a reset wipes the decision state, not disk."""
    return restore_capabilities(replace(state, contaminated=False))


# ---------------------------------------------------------------------------
# declassification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeclassResult:
    cleared: bool
    reason: str = ""


def declassify(
    authorizer: Authorizer,
    procedure: DeclassProcedure,
) -> DeclassResult:
    """Whether a declassification request is honored.

    Only runtime or operator authority can clear a label or a contamination
    flag. A request originating from the agent itself is refused no matter
    what it claims about the content: a contaminated decision state arguing
    for its own trustworthiness is the exact failure mode this exists to
    stop.
    """
    if authorizer is Authorizer.AGENT_SELF:
        return DeclassResult(cleared=False, reason="llm-origin")
    if procedure not in (
        DeclassProcedure.HUMAN_REVIEW,
        DeclassProcedure.DETERMINISTIC_VALIDATION,
        DeclassProcedure.CONTEXT_RESET,
    ):
        return DeclassResult(cleared=False, reason="unknown-procedure")
    return DeclassResult(cleared=True)


def declassify_carrier(carrier: Carrier, authorizer: Authorizer, procedure: DeclassProcedure) -> DeclassResult:
    result = declassify(authorizer, procedure)
    if result.cleared:
        carrier.label = TaintLabel.CLEAN
        carrier.content = None
    return result
