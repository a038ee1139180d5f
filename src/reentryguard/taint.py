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

from dataclasses import dataclass

from .model import Authorizer, Carrier, TaintLabel


@dataclass(frozen=True)
class AgentDecisionState:
    """Per-agent security state between turns: the two facts the rules read.

    capable says whether the deployment grants the context any high-risk
    action (file_write or messaging, or shell or network at high privilege);
    it is fixed for the run. contaminated says whether the context has read
    untrusted content since its last reset. Whether the context still holds
    a high-risk capability is derived, not stored: capable, unless
    policy.attenuated takes it away from a contaminated context while the
    attenuation layer is on, so a reset gives it back by clearing
    contaminated alone.
    """

    capable: bool
    contaminated: bool = False


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

_CLEAN = TaintLabel.CLEAN
_TAINTED = TaintLabel.TAINTED
_TAINTED_DERIVED = TaintLabel.TAINTED_DERIVED


def content_label(writer: AgentDecisionState, origin: TaintLabel) -> TaintLabel:
    """Label of content an agent emits: conservative writer rule.

    Contaminated writer: tainted_derived, regardless of what was written.
    Clean writer relaying untrusted content: tainted (the relay is itself
    a write, so downstream re-entry checks must see it). Clean writer,
    clean content: clean.
    """
    if writer.contaminated:
        return _TAINTED_DERIVED
    if origin.untrusted:
        return _TAINTED
    return _CLEAN


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
    return target.label if label is _CLEAN else label


def mark_contamination(state: AgentDecisionState) -> AgentDecisionState:
    return AgentDecisionState(state.capable, True)


def context_reset(state: AgentDecisionState) -> AgentDecisionState:
    """Runtime-initiated reset: contamination cleared, which gives back any
    capability attenuation took. Carrier labels are untouched; a reset wipes
    the decision state, not disk."""
    return AgentDecisionState(state.capable)


# ---------------------------------------------------------------------------
# declassification
# ---------------------------------------------------------------------------


def declassify(authorizer: Authorizer) -> bool:
    """Whether a declassification request is honored.

    Only runtime or operator authority can clear a label or a contamination
    flag. A request originating from the agent itself is refused no matter
    what it claims about the content: a contaminated decision state arguing
    for its own trustworthiness is the exact failure mode this exists to
    stop. Every DeclassProcedure is an honored procedure, so the authority
    alone decides.
    """
    return authorizer is not Authorizer.AGENT_SELF


def declassify_carrier(carrier: Carrier, authorizer: Authorizer) -> bool:
    cleared = declassify(authorizer)
    if cleared:
        carrier.label = _CLEAN
        carrier.content = None
    return cleared
