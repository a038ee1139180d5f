"""Taint engine: label propagation on write, contamination, declassification.

Propagation is deliberately over-conservative. Once an agent's decision
state has been exposed to untrusted content, everything it writes is
labeled tainted_derived, whether or not the payload survived. The agent
itself can never clear this: declassification and context reset are both
runtime operations the scenario schedules. Precision is traded
away so that no semantic judgement about "did the instruction survive the
paraphrase" is ever load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Carrier, TaintLabel


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


def declassify_carrier(carrier: Carrier) -> None:
    """Runtime-initiated declassification: the carrier's label and content
    are cleared. The simulator schedules it; no agent can ask for it."""
    carrier.label = _CLEAN
    carrier.content = None
