"""Deterministic multi-agent ecosystem simulator.

Time is a logical tick counter, and run() walks ticks 0..max_ticks in one
loop. Tick 0 is setup: session-start reads in agent order, then the attacker
injection when it is scheduled at 0. Within every later tick the order is
fixed: scheduled resets and declassifications, delivery of last tick's queue
(channels sorted, messages FIFO, receivers sorted), the injection if due,
then heartbeat turns for every agent whose period divides the tick. Two runs
of the same scenario must serialize byte-identical traces; the only
randomness is the seeded draw behind Bernoulli compliance policies.

Agent behavior is a fixed policy, not a model call. On facet-bearing content
the agent complies with (per the injection position of where the content
arrived), it proposes: a write of the facets into its heartbeat carrier while
still fresh from clean state, a config overwrite, a one-time free-form memory
promotion, message sends on its channels, and a shell invocation when it
holds high privilege. Facets only ever arrive from an untrusted carrier or
message, so an agent acts on a payload only once it is contaminated, and
every proposal it makes is tainted_derived. Every proposal goes through
_propose(), which labels it by the writer rule and passes it to mediate(); it
takes effect only when the decision says so.

Messages between agents lose facets per channel hop through transform_payload;
the attacker's own injected message is placed verbatim (nothing paraphrased
it). Carrier persistence is what survives unmodified between turns.

The event is the simulator's unit of cost, and a message storm emits tens
of thousands of them, so each is built positionally from shared values:
enum members bound at module level, the model's 16 FACET_VALUES (the only
facets there are: transform_payload looks them up in a table, and a union
is one of them too) and the 8 Decision members that mediate() returns.
Whether a decision takes effect is one lookup in the run's set of
effective decisions, model.EFFECTIVE for its guard mode. Header records
are values, so an agent's carriers, and a channel's feed and log, are built
once per process and shared by every run whose agent (id, framework, first
carrier id, seeded slots) or channel (name, first id, heartbeat log) is the
same, while the bounded memo has room; a run fills in only its own labels,
contents and agent plans.

In a storm most message turns repeat an earlier turn of their tick, so each
tick's message turns are memoised, keyed on (receiver, sender, channel,
label, delivered facets). Of the run's state a message turn reads only its
receiver's turn state: whether it is contaminated, whether it has submitted
its candidate, and the label and content of its config, heartbeat and memory
carriers. Every label it emits and every decision mediate() makes for it is
a function of that state, the key and the tick. A turn that leaves the state
as it found it is a fixed point, and its events are kept; a later turn with
the same key from the same state replays them, emitting the same event
objects again, which is what the live turn would emit and do. run_scenario
makes the kept events read-only once it has rendered the trace. A replay
still calls mediate() once per decision-carrying event and raises if the
decision is not the kept one. It draws compliance live where a live turn
does, after the feed read took effect, so a Bernoulli receiver consumes the
seeded draws exactly as before; when the kept turn did not comply, a replay
that does runs the payload live, and keeps it if the state holds. A replay
queues each effective msg_send again but leaves the channel's log alone:
the log's relabel and facet union ran when the kept turn queued the same
message this tick, and both are idempotent (within a tick a log's label
only goes from trusted to untrusted, and a union with the same facets adds
nothing). The memo is emptied at each delivery, since events carry their
tick and a lease window reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

from . import verifier as verifier_mod
from .memgate import AUTHORITY_MAX, TTL_MAX, MemoryCandidate
from .model import (
    ATTACKER,
    EFFECTIVE,
    FACET_DROP_ORDER,
    FACET_VALUES,
    NO_FACETS,
    PERSIST_DROP_STRENGTH,
    ActionKind,
    AutoloadPolicy,
    CandidateScope,
    CandidateSource,
    Carrier,
    CarrierClass,
    CarrierScope,
    DeclassProcedure,
    Event,
    EventKind,
    FrozenEvent,
    InjectionPosition,
    PayloadFacets,
    Privilege,
    SchemaKind,
    TaintLabel,
)
from .policy import MediationContext, mediate
from .scenarios import AGENT_CARRIERS, FRAMEWORKS, SEEDED_SLOTS, AgentProfile, Capability, Injection, Scenario
from .taint import (
    AgentDecisionState,
    content_label,
    context_reset,
    mark_contamination,
    propagate_on_write,
)
from .tracelog import AgentMeta, TraceMeta, _memoise, render_trace

# the enum members events are built from, bound once: a module name costs a
# tenth of a class attribute lookup
_WRITE = EventKind.WRITE
_EXPOSED_READ = EventKind.EXPOSED_READ
_OPAQUE_READ = EventKind.OPAQUE_READ
_HIGH_RISK = EventKind.HIGH_RISK
_MSG_SEND = EventKind.MSG_SEND
_MSG_RECV = EventKind.MSG_RECV
_PROMOTE = EventKind.PROMOTE
_DECLASSIFY = EventKind.DECLASSIFY
_CONTEXT_RESET = EventKind.CONTEXT_RESET
_HEARTBEAT = EventKind.HEARTBEAT
_INJECT = EventKind.INJECT
_CLEAN = TaintLabel.CLEAN
_TAINTED = TaintLabel.TAINTED
_SYSTEM_PROMPT = InjectionPosition.SYSTEM_PROMPT
_USER_PROMPT = InjectionPosition.USER_PROMPT
_VALIDATION = DeclassProcedure.DETERMINISTIC_VALIDATION

# the one candidate a contaminated agent submits: a free-form standing
# directive out of bounds on every promotion predicate
_CANDIDATE = MemoryCandidate(
    id=1,
    schema=SchemaKind.FREE_FORM_INSTRUCTION,
    source=CandidateSource.AGENT_SUMMARY,
    scope=CandidateScope.CROSS_AGENT,
    authority=AUTHORITY_MAX + 1,
    ttl=TTL_MAX + 1,
)


# ---------------------------------------------------------------------------
# payload transformation
# ---------------------------------------------------------------------------

# strength -> facets -> the shared facets one hop leaves, for the 16 facet
# values and every strength the scenario schema admits
_TRANSFORMS: list[dict[PayloadFacets, PayloadFacets]] = [
    {f: replace(f, **dict.fromkeys(FACET_DROP_ORDER[:k], False)) for f in FACET_VALUES.values()}
    for k in range(PERSIST_DROP_STRENGTH + 1)
]


def transform_payload(facets: PayloadFacets, strength: int) -> PayloadFacets:
    """Lossy per-hop transformation. Strength k clears the first k facets in
    FACET_DROP_ORDER: 0 keeps them all, PERSIST_DROP_STRENGTH or more clears
    them all. Deterministic given (facets, strength); the result is one of
    the shared FACET_VALUES."""
    if strength < 0:
        raise ValueError("transform strength must be non-negative")
    return _TRANSFORMS[min(strength, PERSIST_DROP_STRENGTH)][facets]


# ---------------------------------------------------------------------------
# ecosystem
# ---------------------------------------------------------------------------


# The process-wide memo of carrier blocks (see the module docstring), bounded
# as the trace codecs' memos are: by tracelog._memoise.
_BLOCKS: dict[tuple[Any, ...], Any] = {}  # (maker, its arguments) -> the block it made

_NOTES = len(AGENT_CARRIERS) - 1  # the layout row repeated as notes0, notes1, ...
# seeded slot -> the index of its carrier in an agent's block
_SLOT_INDEX = {row.slot: i for i, row in enumerate(AGENT_CARRIERS) if row.slot is not None}


def _shared(make: Callable[..., Any], *key: Any) -> Any:
    """make(*key), from the memo when a run made it before."""
    block = _BLOCKS.get((make, key))
    if block is None:
        block = _memoise(_BLOCKS, (make, key), make(*key))
    return block


class _AgentBlock(NamedTuple):
    carriers: tuple[Carrier, ...]  # in carrier id order
    session_reads: tuple[Carrier, ...]
    heartbeat_reads: tuple[Carrier, ...]  # the agent's own; a run adds its heartbeat logs


def _agent_block(agent_id: str, framework: str, first: int, slots: tuple[str, ...]) -> _AgentBlock:
    """An agent's own carriers from id first: one per layout row, the last
    row repeated as notes0, notes1, ... up to the framework's count. The
    first system_carriers go into the system prompt, and a seeded slot
    starts as external content."""
    fw = FRAMEWORKS[framework]
    carriers = []
    for i in range(fw.system_carriers + fw.user_carriers):
        row = AGENT_CARRIERS[min(i, _NOTES)]
        carriers.append(
            Carrier(
                first + i,
                f"{agent_id}.{row.name}" if i < _NOTES else f"{agent_id}.{row.name}{i - _NOTES}",
                row.cls,
                agent_id,
                _SYSTEM_PROMPT if i < fw.system_carriers else _USER_PROMPT,
                row.autoload,
                CarrierScope.AGENT_LOCAL,
                TaintLabel.EXTERNAL if i <= _NOTES and row.slot in slots else _CLEAN,
            )
        )
    return _AgentBlock(
        tuple(carriers),
        tuple(c for c in carriers if c.autoload is AutoloadPolicy.SESSION_START),
        tuple(c for c in carriers if c.autoload is AutoloadPolicy.HEARTBEAT),
    )


def _channel_pair(channel: str, first: int, heartbeat_log: bool) -> tuple[Carrier, Carrier]:
    """A channel's external feed at id first, and its shared log after it."""
    shared = CarrierScope.SHARED_CROSS_AGENT
    return (
        Carrier(
            first, f"{channel}.feed", CarrierClass.EXTERNAL_SOURCE, None, _USER_PROMPT, AutoloadPolicy.NEVER,
            shared, TaintLabel.EXTERNAL,
        ),
        Carrier(
            first + 1, f"{channel}.log", CarrierClass.SHARED_CHANNEL_LOG, None, _USER_PROMPT,
            AutoloadPolicy.HEARTBEAT if heartbeat_log else AutoloadPolicy.NEVER, shared,
        ),
    )


@dataclass(frozen=True, slots=True)
class AgentCarrierSet:
    """An agent's plan, fixed at construction: the carriers its turns act
    on, what it reads when, the order it sends in, and what its capabilities
    and privilege let a turn propose."""

    config: Carrier
    memory: Carrier
    heartbeat: Carrier
    task: Carrier
    session_reads: tuple[Carrier, ...]
    heartbeat_reads: tuple[Carrier, ...]  # in carrier id order
    channels: tuple[str, ...]  # sorted
    can_write: bool
    can_send: bool
    shell: bool  # shell at high privilege
    exfil: str | None  # the exfiltration channel, when the agent holds high privilege, is on it and can send


class Ecosystem:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = scenario.enforcement
        self.rng = random.Random(scenario.seed)
        self.trace: list[Event] = []
        # agent order, here and in every loop over agents, is id order
        self.agents: dict[str, AgentProfile] = {a.id: a for a in sorted(scenario.agents, key=lambda a: a.id)}
        self.states: dict[str, AgentDecisionState] = {}
        # agent -> id -> its submitted candidate
        self.candidates: dict[str, dict[int, MemoryCandidate]] = {}
        self.carriers: dict[int, Carrier] = {}
        # carrier id -> its label, and its content when it holds any: what a
        # run changes per carrier, which the carrier records never hold
        self.labels: dict[int, TaintLabel] = {}
        self.contents: dict[int, PayloadFacets] = {}
        self.carrier_sets: dict[str, AgentCarrierSet] = {}
        # channel -> its external feed, and its shared log's id
        self.feeds: dict[str, Carrier] = {}
        self.log_ids: dict[str, int] = {}
        # channel -> the agents on it, in id order
        self.members: dict[str, list[str]] = {ch: [] for ch in scenario.channels}
        # task carrier id -> the scenario's lease window for its owner
        self.leases: dict[int, tuple[int, int]] = {}
        # channel -> the effective msg_send and inject events for next tick
        self.queued: dict[str, list[Event]] = {ch: [] for ch in scenario.channels}
        # the decisions under which a mediated event takes effect
        self.effective = EFFECTIVE[self.config.guard_mode]
        # this tick's kept message turns (the module docstring): key ->
        # [turn state, its msg_recv and feed read, its payload events once a
        # turn from that state has complied, else None]
        self._turns: dict[tuple[Any, ...], list[Any]] = {}
        # every kept turn's events, which replays share: see _freeze_kept
        self._kept: list[tuple[Event, ...]] = []
        self._build()
        # one context for the whole run: mediate() sees every later change
        # because the simulator mutates these containers in place
        self.ctx = MediationContext(
            carriers=self.carriers,
            states=self.states,
            candidates=self.candidates,
            leases=self.leases,
        )
        # the header: the carrier records themselves, whose label0 run()
        # never changes; the header carries no content
        self.meta = TraceMeta(
            scenario=scenario.name,
            seed=scenario.seed,
            ticks=scenario.max_ticks,
            enforcement=self.config,
            attacker=ATTACKER,
            agents=[AgentMeta(p.id, p.privilege, p.period, p.channels) for p in self.agents.values()],
            carriers=list(self.carriers.values()),
        )

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        """Lay out the shared carrier blocks in id order, then fill in this
        run's own state: labels, seeded contents and each agent's plan."""
        scenario = self.scenario
        seeded = {(sc.agent, sc.slot): sc.facets for sc in scenario.seeded}
        header: list[Carrier] = []
        blocks: dict[str, _AgentBlock] = {}
        for agent_id, profile in self.agents.items():
            slots = tuple(slot for slot in SEEDED_SLOTS if (agent_id, slot) in seeded)
            block = blocks[agent_id] = _shared(_agent_block, agent_id, profile.framework, len(header) + 1, slots)
            header += block.carriers
            for slot in slots:
                self.contents[block.carriers[_SLOT_INDEX[slot]].id] = seeded[agent_id, slot]
        # the logs come after every agent's own carriers, in channel order,
        # so each heartbeat read list stays in carrier id order
        heartbeat_logs: dict[str, Carrier] = {}
        for ch in scenario.channels:
            feed, log = _shared(_channel_pair, ch, len(header) + 1, ch in scenario.heartbeat_logs)
            header += (feed, log)
            self.feeds[ch] = feed
            self.log_ids[ch] = log.id
            if log.autoload is AutoloadPolicy.HEARTBEAT:
                heartbeat_logs[ch] = log
        for carrier in header:
            self.carriers[carrier.id] = carrier
            self.labels[carrier.id] = carrier.label0

        exfil = scenario.exfil_channel
        for agent_id, profile in self.agents.items():
            block = blocks[agent_id]
            caps = profile.capabilities
            high = profile.privilege is Privilege.HIGH
            can_send = Capability.MESSAGING in caps
            # the functional rows, in AgentCarrierSet's field order
            cset = self.carrier_sets[agent_id] = AgentCarrierSet(
                *block.carriers[:_NOTES],
                session_reads=block.session_reads,
                heartbeat_reads=block.heartbeat_reads
                + tuple(log for ch, log in heartbeat_logs.items() if ch in profile.channels),
                channels=tuple(sorted(profile.channels)),
                can_write=Capability.FILE_WRITE in caps,
                can_send=can_send,
                shell=high and Capability.SHELL in caps,
                exfil=exfil if high and can_send and exfil in profile.channels else None,
            )
            for ch in profile.channels:
                self.members[ch].append(agent_id)
            # file writes and messages are high-risk at any privilege, shell
            # and network only at high privilege
            capable = cset.can_write or can_send or cset.shell or (high and Capability.NETWORK in caps)
            self.states[agent_id] = AgentDecisionState(capable=capable)
            if agent_id in scenario.task_leases:
                self.leases[cset.task.id] = scenario.task_leases[agent_id]

    # -- mediation plumbing --------------------------------------------------

    def _mediated(self, event: Event) -> bool:
        """Mediate, record, and report whether the event takes effect."""
        decision = event.decision = mediate(event, self.ctx, self.config)
        self.trace.append(event)
        return decision in self.effective

    def _propose(
        self,
        tick: int,
        agent: str,
        kind: EventKind,
        origin: TaintLabel,
        carrier_id: int | None = None,
        facets: PayloadFacets | None = None,
        channel: str | None = None,
        action: ActionKind | None = None,
        schema: SchemaKind | None = None,
        exfil: bool = False,
    ) -> Event | None:
        """Label a proposal by the writer rule, then mediate and record it: the event if it takes effect."""
        label = content_label(self.states[agent], origin)
        ev = Event(tick, agent, kind, carrier_id, label, facets, channel, action, schema, None, None, exfil)
        return ev if self._mediated(ev) else None

    # -- state transitions ---------------------------------------------------

    def _write(
        self, tick: int, agent: str, carrier: Carrier, facets: PayloadFacets, origin: TaintLabel
    ) -> None:
        """Propose a write of content from origin; when it takes effect the
        carrier takes the writer's label and any facets."""
        cid = carrier.id
        if self._propose(tick, agent, _WRITE, origin, cid, facets) is not None:
            self.labels[cid] = propagate_on_write(self.states[agent], self.labels[cid], origin)
            if facets.any:
                self.contents[cid] = facets

    def _queue_message(self, msg: Event) -> None:
        """Queue an effective msg_send or an inject; the channel's log keeps
        its label and facets."""
        self.queued[msg.channel].append(msg)
        log = self.log_ids[msg.channel]
        if msg.label.untrusted and not self.labels[log].untrusted:
            self.labels[log] = msg.label
        if msg.facets.any:
            held = self.contents.get(log)
            self.contents[log] = msg.facets if held is None else held.union(msg.facets)

    # -- agent turns ---------------------------------------------------------

    def _exposed_read(self, tick: int, agent: str, carrier: Carrier, label: TaintLabel) -> bool:
        if not self._mediated(Event(tick, agent, _EXPOSED_READ, carrier.id, label)):
            return False
        state = self.states[agent]
        if label.untrusted and not state.contaminated:
            self.states[agent] = mark_contamination(state)
        return True

    def _turn_state(self, agent: str) -> tuple[Any, ...]:
        """What a message turn reads of the run's state: the agent's
        contamination, whether it submitted its candidate, and its config,
        heartbeat and memory carriers' labels and contents."""
        cset = self.carrier_sets[agent]
        labels, contents = self.labels, self.contents
        config, heartbeat, memory = cset.config.id, cset.heartbeat.id, cset.memory.id
        return (
            self.states[agent].contaminated, agent in self.candidates, labels[config], contents.get(config),
            labels[heartbeat], contents.get(heartbeat), labels[memory], contents.get(memory),
        )

    def _message_turn(self, tick: int, agent: str, msg: Event, delivered: PayloadFacets) -> None:
        """Receive a message and read it from the channel's feed; when the
        read takes effect and the agent complies, act on its payload. A
        repeat of a kept turn from the same state is replayed (the module
        docstring)."""
        key = (agent, msg.agent, msg.channel, msg.label, delivered)
        state = self._turn_state(agent)
        kept = self._turns.get(key)
        if kept is not None and kept[0] == state:
            head = kept[1]
            self._replay(head)
            if head[1].decision in self.effective and self.agents[agent].complies(_USER_PROMPT, self.rng):
                if kept[2] is None:
                    kept[2] = self._act_and_keep(tick, agent, state, delivered)
                else:
                    self._replay(kept[2])
            return
        start = len(self.trace)
        # carrier_id, label, facets, channel, action, schema, procedure, sender
        recv = Event(tick, agent, _MSG_RECV, None, msg.label, delivered, msg.channel, None, None, None, msg.agent)
        self.trace.append(recv)
        read = self._exposed_read(tick, agent, self.feeds[msg.channel], msg.label)
        if read and self.agents[agent].complies(_USER_PROMPT, self.rng):
            payload = self._act_and_keep(tick, agent, state, delivered)
            fixed = payload is not None
        else:
            payload, fixed = None, self._turn_state(agent) == state
        if fixed:
            self._turns[key] = [state, self._keep(start, start + 2), payload]

    def _act_and_keep(
        self, tick: int, agent: str, state: tuple[Any, ...], facets: PayloadFacets
    ) -> tuple[Event, ...] | None:
        """Act on a message's payload in a turn that began in state: the
        events, kept, when the turn leaves the state as it found it."""
        start = len(self.trace)
        self._act_on_payload(tick, agent, not state[0], facets)
        return self._keep(start) if self._turn_state(agent) == state else None

    def _keep(self, start: int, end: int | None = None) -> tuple[Event, ...]:
        """The trace's events from start to end, kept for replay."""
        events = tuple(self.trace[start:end])
        self._kept.append(events)
        return events

    def _freeze_kept(self) -> None:
        """Make the kept events, which replays put at more than one trace
        position, read-only. run_scenario does it once the trace is rendered
        rather than when a turn is kept: CPython specialises an attribute
        read for the one class it meets, so a render loop or mediate() that
        meets both event classes slows every later run in the process."""
        for events in self._kept:
            for ev in events:
                ev.__class__ = FrozenEvent
        self._kept.clear()

    def _replay(self, events: tuple[Event, ...]) -> None:
        """Emit a kept turn's events again, each decision mediated again and
        each effective msg_send queued again."""
        for ev in events:
            decision = ev.decision
            if decision is not None:
                again = mediate(ev, self.ctx, self.config)
                if again is not decision:
                    where = f"tick {ev.tick} {ev.agent} {ev.kind.value}"
                    raise RuntimeError(f"replay of {where}: mediate() decided {again.name}, the kept turn {decision.name}")
                if ev.kind is _MSG_SEND and decision in self.effective:
                    self.queued[ev.channel].append(ev)
        self.trace += events

    def _heartbeat_turn(self, tick: int, agent: str) -> None:
        profile = self.agents[agent]
        cset = self.carrier_sets[agent]
        self.trace.append(Event(tick, agent, _HEARTBEAT))

        # routine config validity probe: opaque, so any label is fine and
        # nothing enters the decision context
        self._mediated(Event(tick, agent, _OPAQUE_READ, cset.config.id, self.labels[cset.config.id]))

        # the autoloaded reads: the facets of each effective read that
        # surfaces any, under one compliance draw per injection position
        was_clean = not self.states[agent].contaminated
        facets = NO_FACETS
        decided: dict[InjectionPosition, bool] = {}
        for carrier in cset.heartbeat_reads:
            read = self.contents.get(carrier.id)
            if read is None:
                # trusted memory renders only what a promotion put there
                if carrier is cset.memory:
                    continue
                read = NO_FACETS
            label = self.labels[carrier.id]
            if not self._exposed_read(tick, agent, carrier, label) or not read.any:
                continue
            position = carrier.injection
            if position not in decided:
                decided[position] = profile.complies(position, self.rng)
            if decided[position]:
                facets = facets.union(read)

        # routine task bookkeeping under lease; a compromised agent's turn is
        # payload-driven, so only clean agents keep their routine
        if cset.can_write and not self.states[agent].contaminated:
            self._write(tick, agent, cset.task, NO_FACETS, _CLEAN)
        self._act_on_payload(tick, agent, was_clean, facets)

    def _act_on_payload(self, tick: int, agent: str, was_clean: bool, facets: PayloadFacets) -> None:
        """Propose what a payload drives. The agent is contaminated by the
        read that surfaced the facets, so its payload is tainted content and
        every label it writes is tainted_derived."""
        if not facets.any:
            return
        cset = self.carrier_sets[agent]

        if facets.persist and cset.can_write:
            if was_clean:
                self._write(tick, agent, cset.heartbeat, facets, _TAINTED)
            self._write(tick, agent, cset.config, facets, _TAINTED)
            # persistent memory lives in storage too: without the file-write
            # permission there is nothing to admit into
            if agent not in self.candidates:
                self.candidates[agent] = {_CANDIDATE.id: _CANDIDATE}
                ev = self._propose(tick, agent, _PROMOTE, _TAINTED, _CANDIDATE.id, facets, schema=_CANDIDATE.schema)
                if ev is not None:
                    self.contents[cset.memory.id] = facets
                    self.labels[cset.memory.id] = ev.label

        if facets.propagate and cset.can_send:
            for ch in cset.channels:
                msg = self._propose(tick, agent, _MSG_SEND, _TAINTED, facets=facets, channel=ch)
                if msg is not None:
                    self._queue_message(msg)

        if facets.harm:
            if cset.shell:
                self._propose(tick, agent, _HIGH_RISK, _TAINTED, action=ActionKind.INVOKE_SHELL)
            if cset.exfil is not None:
                self._exposed_read(tick, agent, cset.config, self.labels[cset.config.id])
                msg = self._propose(tick, agent, _MSG_SEND, _TAINTED, facets=facets, channel=cset.exfil, exfil=True)
                if msg is not None:
                    self._queue_message(msg)

    # -- per-tick schedule ----------------------------------------------------

    def _inject(self, tick: int, injection: Injection) -> None:
        # carrier_id, label, facets, channel
        ev = Event(tick, ATTACKER, _INJECT, None, _TAINTED, injection.facets, injection.channel)
        self.trace.append(ev)
        self._queue_message(ev)

    def _deliver(self, tick: int) -> None:
        self._turns.clear()
        to_deliver = {ch: msgs for ch, msgs in self.queued.items() if msgs}
        self.queued = {ch: [] for ch in self.scenario.channels}
        for ch in sorted(to_deliver):
            strength = self.scenario.transform_strength.get(ch, self.scenario.transform_default)
            for msg in to_deliver[ch]:
                delivered = msg.facets if msg.agent == ATTACKER else transform_payload(msg.facets, strength)
                for agent in self.members[ch]:
                    if agent != msg.agent:
                        self._message_turn(tick, agent, msg, delivered)

    def _scheduled_maintenance(self, tick: int) -> None:
        for agent, when in self.scenario.resets:
            if when == tick:
                self.trace.append(Event(tick, agent, _CONTEXT_RESET))
                self.states[agent] = context_reset(self.states[agent])
        for agent, when in self.scenario.declassify:
            if when == tick:
                cid = self.carrier_sets[agent].heartbeat.id
                # carrier_id, label, facets, channel, action, schema, procedure
                ev = Event(tick, agent, _DECLASSIFY, cid, self.labels[cid], None, None, None, None, _VALIDATION)
                # runtime-initiated, so no agent can ask for it: an effective
                # declassification clears the carrier's label and content
                if self._mediated(ev):
                    self.labels[cid] = _CLEAN
                    self.contents.pop(cid, None)

    def run(self) -> list[Event]:
        """Run ticks 0..max_ticks in the order the module docstring gives.
        A replayed turn's events sit at more than one position of the
        returned trace; run_scenario freezes them once rendered."""
        injection = self.scenario.injection
        for tick in range(self.scenario.max_ticks + 1):
            if tick == 0:
                for agent, cset in self.carrier_sets.items():
                    for carrier in cset.session_reads:
                        self._exposed_read(0, agent, carrier, self.labels[carrier.id])
            else:
                self._scheduled_maintenance(tick)
                self._deliver(tick)
            if injection is not None and injection.tick == tick:
                self._inject(tick, injection)
            for agent, profile in self.agents.items():
                if tick and tick % profile.period == 0:
                    self._heartbeat_turn(tick, agent)
        return self.trace


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    trace: list[Event]
    trace_text: str
    report: "verifier_mod.Report"


def run_scenario(scenario: Scenario) -> RunResult:
    """Run to the tick budget, serialize, and verify. The report is computed
    from the serialized text, never from live simulator state, so everything
    in it is reproducible from the trace file alone."""
    eco = Ecosystem(scenario)
    trace = eco.run()
    text = render_trace(trace, eco.meta)
    eco._freeze_kept()
    report = verifier_mod.build_report(text)
    return RunResult(trace=trace, trace_text=text, report=report)
