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
still fresh from clean state, and once contaminated, a config overwrite, a
one-time free-form memory promotion, message sends on its channels, and a
shell invocation when it holds high privilege. Every proposal goes through
_propose(), which labels it by the writer rule and passes it to mediate(); it
takes effect only when the decision says so.

Messages between agents lose facets per channel hop through transform_payload;
the attacker's own injected message is placed verbatim (nothing paraphrased
it). Carrier persistence is what survives unmodified between turns.

The event is the simulator's unit of cost, and a message storm emits tens
of thousands of them, so each is built positionally from shared values:
enum members bound at module level, the model's 16 FACET_VALUES (which
transform_payload looks up in a table) and the 12 DECISIONS that mediate()
returns. Whether a decision takes effect is one lookup in the run's set of
effective decisions, model.EFFECTIVE for its guard mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import verifier as verifier_mod
from .memgate import AUTHORITY_MAX, TTL_MAX, Lease, MemoryCandidate
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
    InjectionPosition,
    PayloadFacets,
    Privilege,
    SchemaKind,
    TaintLabel,
)
from .policy import MediationContext, mediate
from .scenarios import FRAMEWORKS, AgentProfile, Capability, Injection, Scenario, SeededCarrier
from .taint import (
    AgentDecisionState,
    content_label,
    context_reset,
    declassify_carrier,
    mark_contamination,
    propagate_on_write,
)
from .tracelog import AgentMeta, TraceMeta, render_trace

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
    {f: FACET_VALUES[replace(f, **dict.fromkeys(FACET_DROP_ORDER[:k], False)).token()] for f in FACET_VALUES.values()}
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


@dataclass
class AgentCarrierSet:
    """The carriers an agent's turns act on, what it reads when, and the
    order it sends in. Autoload is fixed at construction, so the read lists
    are too."""

    config: Carrier
    memory: Carrier
    heartbeat: Carrier
    task: Carrier
    session_reads: list[Carrier]
    heartbeat_reads: list[Carrier]  # in carrier id order
    channels: list[str]  # sorted


class Ecosystem:
    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.config = scenario.enforcement
        self.rng = random.Random(scenario.seed)
        self.trace: list[Event] = []
        # agent order, here and in every loop over agents, is id order
        self.agents: dict[str, AgentProfile] = {a.id: a for a in sorted(scenario.agents, key=lambda a: a.id)}
        self.states: dict[str, AgentDecisionState] = {}
        # agent -> id -> its submitted candidate; agent -> the facets its
        # effective promotion put into trusted memory
        self.candidates: dict[str, dict[int, MemoryCandidate]] = {}
        self.promoted: dict[str, PayloadFacets] = {}
        self.carriers: dict[int, Carrier] = {}
        self.carrier_sets: dict[str, AgentCarrierSet] = {}
        # channel -> its external feed, and its shared log
        self.feeds: dict[str, Carrier] = {}
        self.logs: dict[str, Carrier] = {}
        # channel -> the agents on it, in id order
        self.members: dict[str, list[str]] = {ch: [] for ch in scenario.channels}
        self.leases: list[Lease] = []
        # channel -> the effective msg_send and inject events for next tick
        self.queued: dict[str, list[Event]] = {ch: [] for ch in scenario.channels}
        # the decisions under which a mediated event takes effect
        self.effective = EFFECTIVE[self.config.guard_mode]
        self._build()
        # one context for the whole run: mediate() sees every later change
        # because the simulator mutates these containers in place
        self.ctx = MediationContext(
            carriers=self.carriers,
            states=self.states,
            candidates=self.candidates,
            leases=self.leases,
        )
        # the header: initial labels, copied before run() changes them; the
        # header carries no content
        self.meta = TraceMeta(
            scenario=scenario.name,
            seed=scenario.seed,
            ticks=scenario.max_ticks,
            enforcement=self.config,
            attacker=ATTACKER,
            agents=[AgentMeta(p.id, p.privilege, p.heartbeat_period, list(p.channels)) for p in self.agents.values()],
            carriers=[Carrier(**vars(c) | {"content": None}) for c in self.carriers.values()],
        )

    # -- construction -------------------------------------------------------

    def _carrier(
        self,
        name: str,
        cls: CarrierClass,
        autoload: AutoloadPolicy,
        owner: str | None,
        seed: SeededCarrier | None = None,
        injection: InjectionPosition = InjectionPosition.USER_PROMPT,
        scope: CarrierScope = CarrierScope.AGENT_LOCAL,
        label: TaintLabel = TaintLabel.CLEAN,
    ) -> Carrier:
        """Register a carrier under the next id. A seeded slot starts as
        external content carrying the seed's facets."""
        carrier = Carrier(
            id=len(self.carriers) + 1,
            name=name,
            cls=cls,
            owner=owner,
            injection=injection,
            autoload=autoload,
            scope=scope,
            label=TaintLabel.EXTERNAL if seed else label,
            content=seed.facets if seed else None,
        )
        self.carriers[carrier.id] = carrier
        return carrier

    def _build(self) -> None:
        seeded = {(sc.agent, sc.slot): sc for sc in self.scenario.seeded_carriers}
        for agent_id, profile in self.agents.items():
            fw = FRAMEWORKS[profile.framework]
            config = self._carrier(
                f"{agent_id}.identity",
                CarrierClass.STATIC_CONFIG,
                AutoloadPolicy.SESSION_START,
                agent_id,
                injection=InjectionPosition.SYSTEM_PROMPT,
            )
            memory = self._carrier(
                f"{agent_id}.memory",
                CarrierClass.TRUSTED_MEMORY,
                AutoloadPolicy.HEARTBEAT,
                agent_id,
                injection=fw.memory_position,
            )
            heartbeat = self._carrier(
                f"{agent_id}.taskfile",
                CarrierClass.WORKSPACE_FILE,
                AutoloadPolicy.HEARTBEAT,
                agent_id,
                seeded.get((agent_id, "heartbeat")),
            )
            task = self._carrier(
                f"{agent_id}.taskstate",
                CarrierClass.TASK_LOCAL_STATE,
                AutoloadPolicy.HEARTBEAT,
                agent_id,
                seeded.get((agent_id, "task")),
            )

            # pad with inert on-demand workspace files so the injectable
            # surface matches the framework shape
            carriers = [config, memory, heartbeat, task]
            for i in range(fw.system_carriers + fw.user_carriers - len(carriers)):
                carriers.append(
                    self._carrier(
                        f"{agent_id}.notes{i}",
                        CarrierClass.WORKSPACE_FILE,
                        AutoloadPolicy.ON_DEMAND,
                        agent_id,
                        seeded.get((agent_id, "ondemand")) if i == 0 else None,
                    )
                )

            self.carrier_sets[agent_id] = AgentCarrierSet(
                config=config,
                memory=memory,
                heartbeat=heartbeat,
                task=task,
                session_reads=[c for c in carriers if c.autoload is AutoloadPolicy.SESSION_START],
                heartbeat_reads=[c for c in carriers if c.autoload is AutoloadPolicy.HEARTBEAT],
                channels=sorted(profile.channels),
            )
            for ch in profile.channels:
                self.members[ch].append(agent_id)
            # file writes and messages are high-risk at any privilege, shell
            # and network only at high privilege
            high_risk = {Capability.FILE_WRITE, Capability.MESSAGING}
            if profile.privilege is Privilege.HIGH:
                high_risk |= {Capability.SHELL, Capability.NETWORK}
            self.states[agent_id] = AgentDecisionState(capable=not high_risk.isdisjoint(profile.capabilities))
            lease = self.scenario.task_leases.get(agent_id)
            if lease is not None:
                self.leases.append(Lease(carrier_id=task.id, t0=lease[0], t1=lease[1]))

        for ch in self.scenario.channels:
            self.feeds[ch] = self._carrier(
                f"{ch}.feed",
                CarrierClass.EXTERNAL_SOURCE,
                AutoloadPolicy.NEVER,
                None,
                scope=CarrierScope.SHARED_CROSS_AGENT,
                label=TaintLabel.EXTERNAL,
            )
            self.logs[ch] = self._carrier(
                f"{ch}.log",
                CarrierClass.SHARED_CHANNEL_LOG,
                AutoloadPolicy.HEARTBEAT if ch in self.scenario.heartbeat_log_channels else AutoloadPolicy.NEVER,
                None,
                scope=CarrierScope.SHARED_CROSS_AGENT,
            )

        # the logs come after every agent's own carriers, in channel order,
        # so each heartbeat read list stays in carrier id order
        for agent_id, cset in self.carrier_sets.items():
            channels = self.agents[agent_id].channels
            cset.heartbeat_reads += [
                log for ch, log in self.logs.items() if ch in channels and log.autoload is AutoloadPolicy.HEARTBEAT
            ]

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
        if self._propose(tick, agent, _WRITE, origin, carrier.id, facets) is not None:
            carrier.label = propagate_on_write(self.states[agent], carrier, origin)
            if facets.any:
                carrier.content = facets

    def _queue_message(self, msg: Event) -> None:
        """Queue an effective msg_send or an inject; the channel's log keeps
        its label and facets."""
        self.queued[msg.channel].append(msg)
        log = self.logs[msg.channel]
        if msg.label.untrusted and not log.label.untrusted:
            log.label = msg.label
        if msg.facets.any:
            if log.content is None:
                log.content = msg.facets
            elif not msg.facets.issubset(log.content):
                log.content = log.content.union(msg.facets)

    # -- agent turns ---------------------------------------------------------

    def _exposed_read(self, tick: int, agent: str, carrier: Carrier, label: TaintLabel) -> bool:
        if not self._mediated(Event(tick, agent, _EXPOSED_READ, carrier.id, label)):
            return False
        state = self.states[agent]
        if label.untrusted and not state.contaminated:
            self.states[agent] = mark_contamination(state)
        return True

    def _message_turn(self, tick: int, agent: str, msg: Event, delivered: PayloadFacets) -> None:
        # carrier_id, label, facets, channel, action, schema, procedure, sender
        recv = Event(tick, agent, _MSG_RECV, None, msg.label, delivered, msg.channel, None, None, None, msg.agent)
        self.trace.append(recv)
        was_clean = not self.states[agent].contaminated
        if not self._exposed_read(tick, agent, self.feeds[msg.channel], msg.label):
            return
        if not self.agents[agent].complies(_USER_PROMPT, self.rng):
            return
        self._act_on_payload(tick, agent, was_clean, delivered, msg.label)

    def _heartbeat_reads(self, tick: int, agent: str) -> list[tuple[Carrier, PayloadFacets]]:
        """The carriers the turn read with effect, each with the facets it
        surfaced."""
        sources: list[tuple[Carrier, PayloadFacets]] = []
        cset = self.carrier_sets[agent]
        for carrier in cset.heartbeat_reads:
            if carrier is cset.memory:
                # trusted memory renders only what a promotion put there
                facets = self.promoted.get(agent)
                if facets is None:
                    continue
            else:
                facets = carrier.content if carrier.content is not None else NO_FACETS
            if self._exposed_read(tick, agent, carrier, carrier.label):
                sources.append((carrier, facets))
        return sources

    def _heartbeat_turn(self, tick: int, agent: str) -> None:
        profile = self.agents[agent]
        cset = self.carrier_sets[agent]
        self.trace.append(Event(tick, agent, _HEARTBEAT))

        # routine config validity probe: opaque, so any label is fine and
        # nothing enters the decision context
        self._mediated(Event(tick, agent, _OPAQUE_READ, cset.config.id, cset.config.label))

        was_clean = not self.states[agent].contaminated
        sources = self._heartbeat_reads(tick, agent)

        # routine task bookkeeping under lease; a compromised agent's turn is
        # payload-driven, so only clean agents keep their routine. A clean
        # write of no facets changes no label, so each source below still
        # has the label its read saw.
        if Capability.FILE_WRITE in profile.capabilities and not self.states[agent].contaminated:
            self._write(tick, agent, cset.task, NO_FACETS, _CLEAN)

        facets = NO_FACETS
        origin = _CLEAN
        decided: dict[InjectionPosition, bool] = {}
        for carrier, read in sources:
            if not read.any:
                continue
            if carrier.injection not in decided:
                decided[carrier.injection] = profile.complies(carrier.injection, self.rng)
            if decided[carrier.injection]:
                facets = facets.union(read)
                if origin is _CLEAN and carrier.label.untrusted:
                    origin = carrier.label
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
            self._write(tick, agent, cset.heartbeat, facets, origin)

        if not self.states[agent].contaminated:
            return

        if facets.persist and can_write:
            self._write(tick, agent, cset.config, facets, origin)

        # persistent memory lives in storage too: without the file-write
        # permission there is nothing to admit into
        if facets.persist and can_write and agent not in self.candidates:
            self.candidates[agent] = {_CANDIDATE.id: _CANDIDATE}
            ev = self._propose(tick, agent, _PROMOTE, origin, _CANDIDATE.id, facets, schema=_CANDIDATE.schema)
            if ev is not None:
                self.promoted[agent] = facets
                cset.memory.label = ev.label

        if facets.propagate and can_send:
            for ch in cset.channels:
                msg = self._propose(tick, agent, _MSG_SEND, origin, facets=facets, channel=ch)
                if msg is not None:
                    self._queue_message(msg)

        if facets.harm and profile.privilege is Privilege.HIGH:
            if Capability.SHELL in profile.capabilities:
                self._propose(tick, agent, _HIGH_RISK, origin, action=ActionKind.INVOKE_SHELL)
            exfil_ch = self.scenario.exfil_channel
            if exfil_ch is not None and exfil_ch in profile.channels and can_send:
                self._exposed_read(tick, agent, cset.config, cset.config.label)
                msg = self._propose(tick, agent, _MSG_SEND, origin, facets=facets, channel=exfil_ch, exfil=True)
                if msg is not None:
                    self._queue_message(msg)

    # -- per-tick schedule ----------------------------------------------------

    def _inject(self, tick: int, injection: Injection) -> None:
        # carrier_id, label, facets, channel
        ev = Event(tick, ATTACKER, _INJECT, None, _TAINTED, injection.facets, injection.channel)
        self.trace.append(ev)
        self._queue_message(ev)

    def _deliver(self, tick: int) -> None:
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
        for agent, when in self.scenario.declassify_carrier_of:
            if when == tick:
                carrier = self.carrier_sets[agent].heartbeat
                # carrier_id, label, facets, channel, action, schema, procedure
                ev = Event(tick, agent, _DECLASSIFY, carrier.id, carrier.label, None, None, None, None, _VALIDATION)
                if self._mediated(ev):
                    declassify_carrier(carrier)

    def run(self) -> list[Event]:
        """Run ticks 0..max_ticks in the order the module docstring gives."""
        injection = self.scenario.injection
        for tick in range(self.scenario.max_ticks + 1):
            if tick == 0:
                for agent, cset in self.carrier_sets.items():
                    for carrier in cset.session_reads:
                        self._exposed_read(0, agent, carrier, carrier.label)
            else:
                self._scheduled_maintenance(tick)
                self._deliver(tick)
            if injection is not None and injection.tick == tick:
                self._inject(tick, injection)
            for agent, profile in self.agents.items():
                if tick and tick % profile.heartbeat_period == 0:
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
    report = verifier_mod.build_report(text)
    return RunResult(trace=trace, trace_text=text, report=report)
