"""Deterministic multi-agent ecosystem simulator.

Time is a logical tick counter. Within a tick the order is fixed: scheduled
resets and declassifications, message deliveries (channels sorted, messages
FIFO, receivers sorted), the attacker injection if due, then heartbeat turns
for every agent whose period divides the tick. Tick 0 is setup: session-start
reads plus the injection when it is scheduled at 0. Two runs of the same
scenario must serialize byte-identical traces; the only randomness is the
seeded draw behind Bernoulli compliance policies.

Agent behavior is a fixed policy, not a model call. On facet-bearing content
the agent complies with (per the injection position of where the content
arrived), it proposes: a write of the facets into its heartbeat carrier while
still fresh from clean state, and once contaminated, a config overwrite, a
one-time free-form memory promotion, message sends on its channels, and a
shell invocation when it holds high privilege. Every proposal passes mediate()
and takes effect only when the decision says so.

Messages between agents lose facets per channel hop through transform_payload;
the attacker's own injected message is placed verbatim (nothing paraphrased
it). Carrier persistence is what survives unmodified between turns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from . import verifier as verifier_mod
from .memgate import Lease, MemoryCandidate, MemoryStores, default_policy
from .model import (
    ATTACKER,
    FACET_DROP_ORDER,
    PERSIST_DROP_STRENGTH,
    ActionKind,
    Authorizer,
    AutoloadPolicy,
    CandidateScope,
    CandidateSource,
    Carrier,
    CarrierClass,
    CarrierScope,
    DeclassProcedure,
    Event,
    EventKind,
    InjectionPosition,
    PayloadFacets,
    Privilege,
    SchemaKind,
    TaintLabel,
    Trace,
)
from .policy import MediationContext, mediate
from .scenarios import FRAMEWORKS, AgentProfile, Capability, Scenario, SeededCarrier
from .taint import (
    AgentDecisionState,
    content_label,
    context_reset,
    declassify_carrier,
    mark_contamination,
    propagate_on_write,
)
from .tracelog import AgentMeta, TraceMeta, render_trace

# every run promotes under the one default policy
PROMOTION_POLICY = default_policy()


# ---------------------------------------------------------------------------
# payload transformation
# ---------------------------------------------------------------------------


def transform_payload(facets: PayloadFacets, strength: int) -> PayloadFacets:
    """Lossy per-hop transformation. Strength k clears the first k facets in
    FACET_DROP_ORDER; 0 is the identity. Deterministic given (facets,
    strength)."""
    if strength < 0:
        raise ValueError("transform strength must be non-negative")
    if strength == 0:
        return facets
    dropped = {name: False for name in FACET_DROP_ORDER[: min(strength, PERSIST_DROP_STRENGTH)]}
    return replace(facets, **dropped)


# ---------------------------------------------------------------------------
# ecosystem
# ---------------------------------------------------------------------------


@dataclass
class AgentCarrierSet:
    config_id: int
    heartbeat_id: int
    task_id: int
    memory_id: int
    all_ids: list[int]


@dataclass
class Message:
    sender: str
    channel: str
    facets: PayloadFacets
    label: TaintLabel


@dataclass
class _TurnSource:
    facets: PayloadFacets
    position: InjectionPosition
    label: TaintLabel


class Ecosystem:
    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.config = scenario.enforcement
        self.rng = random.Random(scenario.seed)
        self.trace = Trace()
        self.agents: dict[str, AgentProfile] = {a.id: a for a in scenario.agents}
        self.agent_order = sorted(self.agents)
        self.states: dict[str, AgentDecisionState] = {}
        self.stores: dict[str, MemoryStores] = {}
        self.carriers: dict[int, Carrier] = {}
        self.carrier_sets: dict[str, AgentCarrierSet] = {}
        self.channel_source: dict[str, int] = {}
        self.channel_log: dict[str, int] = {}
        # agent -> sorted ids of the carriers its heartbeat turn reads
        self.heartbeat_read_ids: dict[str, list[int]] = {}
        self.leases: list[Lease] = []
        self.queued: dict[str, list[Message]] = {ch: [] for ch in scenario.channels}
        self.candidate_submitted: set[str] = set()
        self._next_carrier = 1
        self._build()
        # one context for the whole run: mediate() sees every later change
        # because the simulator mutates these containers in place
        self.ctx = MediationContext(
            carriers=self.carriers,
            states=self.states,
            stores=self.stores,
            leases=self.leases,
            promotion_policy=PROMOTION_POLICY,
        )

    # -- construction -------------------------------------------------------

    def _carrier(self, **fields: Any) -> int:
        """Register a new carrier under the next id."""
        cid = self._next_carrier
        self._next_carrier += 1
        self.carriers[cid] = Carrier(id=cid, **fields)
        return cid

    def _slot_carrier(
        self,
        name: str,
        cls: CarrierClass,
        autoload: AutoloadPolicy,
        owner: str,
        seed: SeededCarrier | None,
    ) -> int:
        """An agent-local, user-prompt carrier; a seeded slot starts as
        external content carrying the seed's facets."""
        return self._carrier(
            name=name,
            cls=cls,
            owner=owner,
            injection=InjectionPosition.USER_PROMPT,
            autoload=autoload,
            scope=CarrierScope.AGENT_LOCAL,
            label=TaintLabel.EXTERNAL if seed else TaintLabel.CLEAN,
            content=seed.facets if seed else None,
        )

    def _build(self) -> None:
        seeded = {(sc.agent, sc.slot): sc for sc in self.scenario.seeded_carriers}
        for agent_id in self.agent_order:
            profile = self.agents[agent_id]
            fw = FRAMEWORKS[profile.framework]
            config_id = self._carrier(
                name=f"{agent_id}.identity",
                cls=CarrierClass.STATIC_CONFIG,
                owner=agent_id,
                injection=InjectionPosition.SYSTEM_PROMPT,
                autoload=AutoloadPolicy.SESSION_START,
                scope=CarrierScope.AGENT_LOCAL,
            )

            memory_id = self._carrier(
                name=f"{agent_id}.memory",
                cls=CarrierClass.TRUSTED_MEMORY,
                owner=agent_id,
                injection=fw.memory_position,
                autoload=AutoloadPolicy.HEARTBEAT,
                scope=CarrierScope.AGENT_LOCAL,
            )

            heartbeat_id = self._slot_carrier(
                f"{agent_id}.taskfile",
                CarrierClass.WORKSPACE_FILE,
                AutoloadPolicy.HEARTBEAT,
                agent_id,
                seeded.get((agent_id, "heartbeat")),
            )

            task_id = self._slot_carrier(
                f"{agent_id}.taskstate",
                CarrierClass.TASK_LOCAL_STATE,
                AutoloadPolicy.HEARTBEAT,
                agent_id,
                seeded.get((agent_id, "task")),
            )

            # pad with inert on-demand workspace files so the injectable
            # surface matches the framework shape
            ids = [config_id, memory_id, heartbeat_id, task_id]
            for i in range(fw.system_carriers + fw.user_carriers - len(ids)):
                ids.append(
                    self._slot_carrier(
                        f"{agent_id}.notes{i}",
                        CarrierClass.WORKSPACE_FILE,
                        AutoloadPolicy.ON_DEMAND,
                        agent_id,
                        seeded.get((agent_id, "ondemand")) if i == 0 else None,
                    )
                )

            self.carrier_sets[agent_id] = AgentCarrierSet(
                config_id=config_id,
                heartbeat_id=heartbeat_id,
                task_id=task_id,
                memory_id=memory_id,
                all_ids=ids,
            )
            # file writes and messages are high-risk at any privilege, shell
            # and network only at high privilege
            high_risk = {Capability.FILE_WRITE, Capability.MESSAGING}
            if profile.privilege is Privilege.HIGH:
                high_risk |= {Capability.SHELL, Capability.NETWORK}
            self.states[agent_id] = AgentDecisionState(capable=not high_risk.isdisjoint(profile.capabilities))
            self.stores[agent_id] = MemoryStores()
            lease = self.scenario.task_leases.get(agent_id)
            if lease is not None:
                self.leases.append(Lease(carrier_id=task_id, t0=lease[0], t1=lease[1]))

        for ch in self.scenario.channels:
            self.channel_source[ch] = self._carrier(
                name=f"{ch}.feed",
                cls=CarrierClass.EXTERNAL_SOURCE,
                owner=None,
                injection=InjectionPosition.USER_PROMPT,
                autoload=AutoloadPolicy.NEVER,
                scope=CarrierScope.SHARED_CROSS_AGENT,
                label=TaintLabel.EXTERNAL,
            )
            self.channel_log[ch] = self._carrier(
                name=f"{ch}.log",
                cls=CarrierClass.SHARED_CHANNEL_LOG,
                owner=None,
                injection=InjectionPosition.USER_PROMPT,
                autoload=(
                    AutoloadPolicy.HEARTBEAT
                    if ch in self.scenario.heartbeat_log_channels
                    else AutoloadPolicy.NEVER
                ),
                scope=CarrierScope.SHARED_CROSS_AGENT,
            )

        # autoload is fixed at construction, so each agent's heartbeat read
        # list is too
        for agent_id in self.agent_order:
            read_ids = [
                cid
                for cid in self.carrier_sets[agent_id].all_ids
                if self.carriers[cid].autoload is AutoloadPolicy.HEARTBEAT
            ]
            for ch in self.agents[agent_id].channels:
                log = self.carriers[self.channel_log[ch]]
                if log.autoload is AutoloadPolicy.HEARTBEAT:
                    read_ids.append(log.id)
            self.heartbeat_read_ids[agent_id] = sorted(read_ids)

    # -- mediation plumbing --------------------------------------------------

    def _mediated(self, event: Event) -> bool:
        """Mediate, record, and report whether the event takes effect."""
        event.decision = mediate(event, self.ctx, self.config)
        self.trace.append_event(event)
        return event.decision.effective(self.config.guard_mode)

    # -- state transitions ---------------------------------------------------

    def _write(
        self, tick: int, agent: str, carrier: Carrier, facets: PayloadFacets, origin: TaintLabel
    ) -> None:
        """Propose a write of content from origin; when it takes effect the
        carrier takes the writer's label and any facets."""
        state = self.states[agent]
        ev = Event(
            tick=tick,
            agent=agent,
            kind=EventKind.WRITE,
            carrier_id=carrier.id,
            facets=facets,
            label=content_label(state, origin),
        )
        if not self._mediated(ev):
            return
        carrier.label = propagate_on_write(state, carrier, origin)
        if facets.any:
            carrier.content = facets

    def _send(
        self,
        tick: int,
        agent: str,
        channel: str,
        facets: PayloadFacets,
        origin: TaintLabel,
        exfil: bool = False,
    ) -> None:
        """Propose a message send; when it takes effect the message is queued
        for next tick's delivery."""
        ev = Event(
            tick=tick,
            agent=agent,
            kind=EventKind.MSG_SEND,
            channel=channel,
            facets=facets,
            label=content_label(self.states[agent], origin),
            exfil=exfil,
        )
        if self._mediated(ev):
            self._queue_message(Message(sender=agent, channel=channel, facets=facets, label=ev.label))

    def _queue_message(self, msg: Message) -> None:
        self.queued[msg.channel].append(msg)
        log = self.carriers[self.channel_log[msg.channel]]
        if msg.label.untrusted and not log.label.untrusted:
            log.label = TaintLabel.TAINTED if msg.sender == ATTACKER else TaintLabel.TAINTED_DERIVED
        if msg.facets.any:
            if log.content is None:
                log.content = msg.facets
            elif not msg.facets.issubset(log.content):
                log.content = log.content.union(msg.facets)

    # -- agent turns ---------------------------------------------------------

    def _exposed_read(self, tick: int, agent: str, carrier: Carrier, label: TaintLabel) -> bool:
        ev = Event(tick=tick, agent=agent, kind=EventKind.EXPOSED_READ, carrier_id=carrier.id, label=label)
        if not self._mediated(ev):
            return False
        state = self.states[agent]
        if label.untrusted and not state.contaminated:
            self.states[agent] = mark_contamination(state)
        return True

    def _message_turn(self, tick: int, agent: str, msg: Message, delivered: PayloadFacets) -> None:
        profile = self.agents[agent]
        src = self.carriers[self.channel_source[msg.channel]]
        self.trace.append_event(
            Event(
                tick=tick,
                agent=agent,
                kind=EventKind.MSG_RECV,
                channel=msg.channel,
                facets=delivered,
                label=msg.label,
                sender=msg.sender,
            )
        )
        was_clean = not self.states[agent].contaminated
        if not self._exposed_read(tick, agent, src, msg.label):
            return
        if not profile.complies(InjectionPosition.USER_PROMPT, self.rng):
            return
        self._act_on_payload(tick, agent, was_clean, delivered, msg.label)

    def _heartbeat_reads(self, tick: int, agent: str) -> list[_TurnSource]:
        sources: list[_TurnSource] = []
        cset = self.carrier_sets[agent]
        store = self.stores[agent]
        for cid in self.heartbeat_read_ids[agent]:
            carrier = self.carriers[cid]
            if cid != cset.memory_id:
                facets = carrier.content if carrier.content is not None else PayloadFacets.none()
            elif self.config.memgate:
                # gated render: typed projection only, facets never surface
                if not store.render_projection(tick):
                    continue
                facets = PayloadFacets.none()
            else:
                raw = store.raw_render()
                if not raw:
                    continue
                facets = PayloadFacets.none()
                for cand in raw:
                    if cand.content is not None:
                        facets = facets.union(cand.content)
            if self._exposed_read(tick, agent, carrier, carrier.label):
                sources.append(_TurnSource(facets, carrier.injection, carrier.label))
        return sources

    def _heartbeat_turn(self, tick: int, agent: str) -> None:
        profile = self.agents[agent]
        cset = self.carrier_sets[agent]
        self.trace.append_event(Event(tick=tick, agent=agent, kind=EventKind.HEARTBEAT))

        # routine config validity probe: opaque, so any label is fine and
        # nothing enters the decision context
        config_carrier = self.carriers[cset.config_id]
        self._mediated(
            Event(
                tick=tick,
                agent=agent,
                kind=EventKind.OPAQUE_READ,
                carrier_id=config_carrier.id,
                label=config_carrier.label,
            )
        )

        was_clean = not self.states[agent].contaminated
        sources = self._heartbeat_reads(tick, agent)

        # routine task bookkeeping under lease; a compromised agent's turn is
        # payload-driven, so only clean agents keep their routine
        if Capability.FILE_WRITE in profile.capabilities and not self.states[agent].contaminated:
            self._write(tick, agent, self.carriers[cset.task_id], PayloadFacets.none(), TaintLabel.CLEAN)

        complied: list[_TurnSource] = []
        decided: dict[InjectionPosition, bool] = {}
        for source in sources:
            if not source.facets.any:
                continue
            if source.position not in decided:
                decided[source.position] = profile.complies(source.position, self.rng)
            if decided[source.position]:
                complied.append(source)
        if not complied:
            return
        facets = PayloadFacets.none()
        origin = TaintLabel.CLEAN
        for source in complied:
            facets = facets.union(source.facets)
            if origin is TaintLabel.CLEAN and source.label.untrusted:
                origin = source.label
        self._act_on_payload(tick, agent, was_clean, facets, origin)

    def _act_on_payload(
        self,
        tick: int,
        agent: str,
        was_clean: bool,
        facets: PayloadFacets,
        origin: TaintLabel,
    ) -> None:
        if not facets.any:
            return
        profile = self.agents[agent]
        cset = self.carrier_sets[agent]
        can_write = Capability.FILE_WRITE in profile.capabilities
        can_send = Capability.MESSAGING in profile.capabilities

        if facets.persist and was_clean and can_write:
            self._write(tick, agent, self.carriers[cset.heartbeat_id], facets, origin)

        if not self.states[agent].contaminated:
            return

        if facets.persist and can_write:
            self._write(tick, agent, self.carriers[cset.config_id], facets, origin)

        # persistent memory lives in storage too: without the file-write
        # permission there is nothing to admit into
        if facets.persist and can_write and agent not in self.candidate_submitted:
            self.candidate_submitted.add(agent)
            store = self.stores[agent]
            candidate = MemoryCandidate(
                id=store.new_candidate_id(),
                schema=SchemaKind.FREE_FORM_INSTRUCTION,
                source=CandidateSource.AGENT_SUMMARY,
                scope=CandidateScope.CROSS_AGENT,
                authority=PROMOTION_POLICY.authority_max + 1,
                ttl=PROMOTION_POLICY.ttl_max + 1,
                value="standing-directive",
                content=facets,
            )
            store.submit_candidate(candidate)
            ev = Event(
                tick=tick,
                agent=agent,
                kind=EventKind.PROMOTE,
                carrier_id=candidate.id,
                schema=candidate.schema,
                facets=facets,
                label=content_label(self.states[agent], origin),
            )
            if self._mediated(ev):
                store.admit(candidate.id, tick)
                self.carriers[cset.memory_id].label = ev.label

        if facets.propagate and can_send:
            for ch in sorted(profile.channels):
                self._send(tick, agent, ch, facets, origin)

        if facets.harm and profile.privilege is Privilege.HIGH:
            if Capability.SHELL in profile.capabilities:
                ev = Event(
                    tick=tick,
                    agent=agent,
                    kind=EventKind.HIGH_RISK,
                    action=ActionKind.INVOKE_SHELL,
                    label=content_label(self.states[agent], origin),
                )
                self._mediated(ev)
            exfil_ch = self.scenario.exfil_channel
            if exfil_ch is not None and exfil_ch in profile.channels and can_send:
                config_carrier = self.carriers[cset.config_id]
                self._exposed_read(tick, agent, config_carrier, config_carrier.label)
                self._send(tick, agent, exfil_ch, facets, origin, exfil=True)

    # -- per-tick schedule ----------------------------------------------------

    def _session_start(self) -> None:
        for agent in self.agent_order:
            for cid in self.carrier_sets[agent].all_ids:
                carrier = self.carriers[cid]
                if carrier.autoload is AutoloadPolicy.SESSION_START:
                    self._exposed_read(0, agent, carrier, carrier.label)

    def _inject(self, tick: int) -> None:
        injection = self.scenario.injection
        assert injection is not None
        facets = injection.facets
        self.trace.append_event(
            Event(
                tick=tick,
                agent=ATTACKER,
                kind=EventKind.INJECT,
                channel=injection.channel,
                facets=facets,
                label=TaintLabel.TAINTED,
            )
        )
        self._queue_message(
            Message(sender=ATTACKER, channel=injection.channel, facets=facets, label=TaintLabel.TAINTED)
        )

    def _deliver(self, tick: int) -> None:
        to_deliver = {ch: msgs for ch, msgs in self.queued.items() if msgs}
        self.queued = {ch: [] for ch in self.scenario.channels}
        for ch in sorted(to_deliver):
            strength = self.scenario.transform_strength.get(ch, self.scenario.transform_default)
            for msg in to_deliver[ch]:
                delivered = msg.facets if msg.sender == ATTACKER else transform_payload(msg.facets, strength)
                for agent in self.agent_order:
                    if agent == msg.sender:
                        continue
                    if ch in self.agents[agent].channels:
                        self._message_turn(tick, agent, msg, delivered)

    def _scheduled_maintenance(self, tick: int) -> None:
        for agent, when in self.scenario.resets:
            if when == tick:
                self.trace.append_event(Event(tick=tick, agent=agent, kind=EventKind.CONTEXT_RESET))
                self.states[agent] = context_reset(self.states[agent])
        for agent, when in self.scenario.declassify_carrier_of:
            if when == tick:
                carrier = self.carriers[self.carrier_sets[agent].heartbeat_id]
                ev = Event(
                    tick=tick,
                    agent=agent,
                    kind=EventKind.DECLASSIFY,
                    carrier_id=carrier.id,
                    label=carrier.label,
                    procedure=DeclassProcedure.DETERMINISTIC_VALIDATION,
                )
                if self._mediated(ev):
                    declassify_carrier(carrier, Authorizer.RUNTIME)

    def step(self, tick: int) -> None:
        """Advance one tick: scheduled maintenance, delivery of last tick's
        queue, injection when due, then heartbeat turns in agent order."""
        injection = self.scenario.injection
        self._scheduled_maintenance(tick)
        self._deliver(tick)
        if injection is not None and injection.tick == tick:
            self._inject(tick)
        for agent in self.agent_order:
            if tick % self.agents[agent].heartbeat_period == 0:
                self._heartbeat_turn(tick, agent)

    def run(self) -> Trace:
        injection = self.scenario.injection
        self._session_start()
        if injection is not None and injection.tick == 0:
            self._inject(0)
        for tick in range(1, self.scenario.max_ticks + 1):
            self.step(tick)
        return self.trace

    def trace_meta(self) -> TraceMeta:
        agents = [
            AgentMeta(p.id, p.privilege, p.heartbeat_period, list(p.channels))
            for p in map(self.agents.get, self.agent_order)
        ]
        # copies, as labels change during the run; the header carries no content
        carriers = [
            Carrier(**vars(self.carriers[cid]) | {"content": None})
            for cid in sorted(self.carriers)
        ]
        return TraceMeta(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            ticks=self.scenario.max_ticks,
            flags=self.config.flags(),
            guard=self.config.guard_mode.value,
            attacker=ATTACKER,
            agents=agents,
            carriers=carriers,
        )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    trace: Trace
    trace_text: str
    report: "verifier_mod.Report"


def run_scenario(scenario: Scenario) -> RunResult:
    """Run to the tick budget, serialize, and verify. The report is computed
    from the serialized text, never from live simulator state, so everything
    in it is reproducible from the trace file alone."""
    eco = Ecosystem(scenario)
    # the initial-label snapshot must be taken before the run mutates labels
    meta = eco.trace_meta()
    trace = eco.run()
    text = render_trace(trace, meta)
    report = verifier_mod.build_report(text)
    return RunResult(trace=trace, trace_text=text, report=report)
