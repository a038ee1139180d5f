"""Scenario model and schema: what an ecosystem is, and how one is read.

A Scenario fixes one ecosystem: agents, channels, the attacker's injection,
enforcement layers and scheduled steps. YAML files (load_scenario), the
bundled reference ecosystems (load_bundled, resolve_scenario) and the seeded
fuzz generator (random_scenario) all produce one.

Each YAML mapping is one table of Key(name, parse, default, check):
SCENARIO_KEYS, AGENT_KEYS, INJECTION_KEYS, SEEDED_KEYS, SUITE_KEYS and
SUITE_ENTRY_KEYS. A table yields the allowed keys (a typo that silently
relaxed an ecosystem would invalidate every downstream comparison), the
strict parse of each value (an int is not a bool or a float, a list is not a
string), the default of an absent key, and the reference, range and name
checks that Scenario.validate() runs (a name must read back from the trace
as itself). The loader checks shapes and types only and validate() the
rest, so a scenario built in code meets the rules a file does. Every
failure is a ScenarioError naming its key. README.md shows every key with
an example value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NamedTuple

import yaml

from .model import (
    ATTACKER,
    PERSIST_DROP_STRENGTH,
    EnforcementConfig,
    GuardMode,
    InjectionPosition,
    PayloadFacets,
    Privilege,
    ReentryGuardError,
)
from .tracelog import agent_id, channel_name, scenario_name


class ScenarioError(ReentryGuardError, ValueError):
    """A scenario or suite definition is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompliancePolicy:
    """Whether content arriving at an injection position drives behavior."""

    kind: str  # always | never | bernoulli
    p: float = 0.0

    def decide(self, rng: random.Random) -> bool:
        if self.kind == "bernoulli":
            return rng.random() < self.p
        return self.kind == "always"


ALWAYS = CompliancePolicy("always")
NEVER = CompliancePolicy("never")


def bernoulli(p: float) -> CompliancePolicy:
    return CompliancePolicy("bernoulli", p)


# what an agent complies with where its scenario says nothing
DEFAULT_COMPLIANCE = {InjectionPosition.USER_PROMPT: ALWAYS, InjectionPosition.SYSTEM_PROMPT: NEVER}


class Capability:
    FILE_WRITE = "file_write"
    MESSAGING = "messaging"
    SHELL = "shell"
    NETWORK = "network"
    ALL = frozenset({FILE_WRITE, MESSAGING, SHELL, NETWORK})


CAPABILITY_PRESETS: dict[str, frozenset[str]] = {
    "full": Capability.ALL,
    "messaging_disabled": Capability.ALL - {Capability.MESSAGING},
    "file_write_disabled": Capability.ALL - {Capability.FILE_WRITE},
    "minimal": frozenset(),
}


def capability_preset(name: str) -> frozenset[str]:
    caps = CAPABILITY_PRESETS.get(name)
    if caps is None:
        raise ScenarioError(f"unknown capability preset {name!r}")
    return caps


@dataclass(frozen=True)
class FrameworkProfile:
    """Carrier surface one deployed agent of this framework exposes.
    system/user counts fix the template shape; the functional slots
    (config, heartbeat task file, task state, memory store) are always
    present, padded with inert on-demand workspace files."""

    system_carriers: int
    user_carriers: int
    memory_position: InjectionPosition


FRAMEWORKS: dict[str, FrameworkProfile] = {
    "A": FrameworkProfile(system_carriers=2, user_carriers=9, memory_position=InjectionPosition.SYSTEM_PROMPT),
    "B": FrameworkProfile(system_carriers=2, user_carriers=10, memory_position=InjectionPosition.SYSTEM_PROMPT),
    "C": FrameworkProfile(system_carriers=1, user_carriers=7, memory_position=InjectionPosition.USER_PROMPT),
}


@dataclass(frozen=True)
class AgentProfile:
    id: str
    framework: str
    privilege: Privilege
    heartbeat_period: int
    channels: tuple[str, ...]
    compliance: dict[InjectionPosition, CompliancePolicy] = field(default_factory=lambda: dict(DEFAULT_COMPLIANCE))
    capabilities: frozenset[str] = Capability.ALL

    def complies(self, position: InjectionPosition, rng: random.Random) -> bool:
        return self.compliance.get(position, NEVER).decide(rng)


@dataclass(frozen=True)
class Injection:
    channel: str
    tick: int
    facets: PayloadFacets


@dataclass(frozen=True)
class SeededCarrier:
    """Optional pre-poisoned carrier slot for stress scenarios: marks one of
    an agent's workspace/task carriers as externally sourced content."""

    agent: str
    slot: str  # one of SEEDED_SLOTS
    facets: PayloadFacets


SEEDED_SLOTS = ("heartbeat", "task", "ondemand")


@dataclass
class Scenario:
    name: str
    seed: int
    max_ticks: int
    enforcement: EnforcementConfig
    agents: list[AgentProfile]
    channels: list[str]
    injection: Injection | None
    transform_default: int = 0
    transform_strength: dict[str, int] = field(default_factory=dict)
    task_leases: dict[str, tuple[int, int]] = field(default_factory=dict)
    exfil_channel: str | None = None
    resets: list[tuple[str, int]] = field(default_factory=list)
    declassify_carrier_of: list[tuple[str, int]] = field(default_factory=list)  # (agent, tick): clear heartbeat carrier
    seeded_carriers: list[SeededCarrier] = field(default_factory=list)
    heartbeat_log_channels: list[str] = field(default_factory=list)  # channels whose log is heartbeat-autoloaded

    def validate(self) -> None:
        """Run the reference and range checks of SCENARIO_KEYS."""
        refs = _Refs(frozenset(self.channels), frozenset(a.id for a in self.agents), self.max_ticks)
        _check(self, SCENARIO_KEYS, refs)


# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class Key:
    """One key of a YAML mapping. parse turns a given value into the model's
    value, checking shape and type only; default is the value (in YAML form)
    of an absent or null key; check is the reference or range rule
    validate() applies to the model's value; attr names the model field
    when it differs from the key."""

    name: str
    parse: Callable[[Any], Any]
    default: Any = _REQUIRED
    check: Callable[[Any, _Refs], None] | None = None
    attr: str | None = None


class _Refs(NamedTuple):
    """What a reference check looks up."""

    channels: frozenset[str]
    agents: frozenset[str]
    max_ticks: int


def _at(where: str, fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args), with where named in any ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _record(keys: tuple[Key, ...], build: Callable[..., Any]) -> Callable[[Any], Any]:
    """The parser of one mapping: known keys only, each parsed or defaulted
    (defaults given to the parser override the table's), then build(**fields)."""
    names = {key.name for key in keys}

    def parse(data: Any, **defaults: Any) -> Any:
        if not isinstance(data, dict):
            raise ScenarioError(f"expected a mapping, got {data!r}")
        unknown = set(data) - names
        if unknown:
            raise ScenarioError(f"unknown keys {sorted(map(str, unknown))}")
        fields: dict[str, Any] = {}
        try:
            for key in keys:
                raw = data.get(key.name)
                if raw is None:
                    raw = defaults.get(key.name, key.default)
                if raw is _REQUIRED:
                    raise ValueError("required")
                fields[key.attr or key.name] = None if raw is None else key.parse(raw)
        except ValueError as exc:
            raise ScenarioError(f"{key.name}: {exc}") from exc
        return build(**fields)

    return parse


def _check(record: Any, keys: tuple[Key, ...], refs: _Refs) -> None:
    try:
        for key in keys:
            if key.check is not None:
                value = getattr(record, key.attr or key.name)
                if value is not None:
                    key.check(value, refs)
    except ValueError as exc:
        raise ScenarioError(f"{key.name}: {exc}") from exc


# -- parsers: YAML value -> model value, shape and type only ----------------


def _typed(expected: str, ok: Callable[[Any], bool]) -> Callable[[Any], Any]:
    def parse(value: Any) -> Any:
        if not ok(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return value

    return parse


_str = _typed("a string", lambda value: isinstance(value, str))
_int = _typed("an integer", lambda value: type(value) is int)
_number = _typed("a number", lambda value: type(value) in (int, float))


def _seq(item: Callable[[Any], Any], into: Callable[[Any], Any] = list) -> Callable[[Any], Any]:
    def parse(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return into(_at(f"entry {i}", item, x) for i, x in enumerate(value, 1))

    return parse


def _mapping(key: Callable[[Any], Any], value: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def parse(data: Any) -> dict:
        if not isinstance(data, dict):
            raise ValueError(f"expected a mapping, got {data!r}")
        return {_at(str(k), key, k): _at(str(k), value, v) for k, v in data.items()}

    return parse


def _pair(first: Callable[[Any], Any], second: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def parse(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return first(value[0]), second(value[1])

    return parse


def _enum(cls: Any) -> Callable[[Any], Any]:
    members = {member.value: member for member in cls}

    def parse(value: Any) -> Any:
        member = members.get(_str(value))
        if member is None:
            raise ValueError(f"{value!r} is not one of {', '.join(members)}")
        return member

    return parse


def _facets(value: Any) -> PayloadFacets:
    return PayloadFacets.from_token(_str(value))


def _policy(value: Any) -> CompliancePolicy:
    if value == "always":
        return ALWAYS
    if value == "never":
        return NEVER
    if isinstance(value, dict) and set(value) == {"bernoulli"}:
        return bernoulli(float(_at("bernoulli", _number, value["bernoulli"])))
    raise ValueError(f"expected always, never or {{bernoulli: p}}, got {value!r}")


def _compliance(value: Any) -> dict[InjectionPosition, CompliancePolicy]:
    return DEFAULT_COMPLIANCE | _mapping(_enum(InjectionPosition), _policy)(value)


def _parse_capabilities(value: Any) -> frozenset[str]:
    return capability_preset(value) if isinstance(value, str) else _seq(_str, frozenset)(value)


# -- checks: model value -> ValueError when a reference or range is off -----


def _rule(ok: Callable[[Any, _Refs], bool], problem: str) -> Callable[[Any, _Refs], None]:
    """A check failing with problem.format(value, refs) unless ok(value, refs)."""

    def check(value: Any, refs: _Refs) -> None:
        if not ok(value, refs):
            raise ValueError(problem.format(value, refs))

    return check


_channel = _rule(lambda name, refs: name in refs.channels, "unknown channel {0!r}")
_agent = _rule(lambda name, refs: name in refs.agents, "unknown agent {0!r}")
_framework = _rule(lambda name, refs: name in FRAMEWORKS, "unknown framework {0!r}")
_slot = _rule(lambda slot, refs: slot in SEEDED_SLOTS, f"{{0!r}} is not one of {', '.join(SEEDED_SLOTS)}")
_at_least_one = _rule(lambda n, refs: n >= 1, "must be at least 1, got {0}")
_strength = _rule(lambda k, refs: 0 <= k <= PERSIST_DROP_STRENGTH, f"strength {{0}} is outside 0..{PERSIST_DROP_STRENGTH}")
_distinct = _rule(lambda items, refs: len(set(items)) == len(items), "repeated items in {0}")
_policy_ok = _rule(
    lambda policy, refs: policy.kind in ("always", "never") or (policy.kind == "bernoulli" and 0.0 <= policy.p <= 1.0),
    "{0.kind} p={0.p} is not always, never or bernoulli with 0 <= p <= 1",
)
_injection_tick = _rule(lambda t, refs: 0 <= t <= refs.max_ticks, "tick {0} is outside the run, 0..{1.max_ticks}")
_lease = _rule(lambda window, refs: 0 <= window[0] <= window[1], "window {0} needs 0 <= t0 <= t1")
# ticks above max_ticks are allowed: shortening a run must keep it valid
_step_tick = _rule(lambda tick, refs: tick >= 1, "tick {0} never runs: ticks start at 1")


def _known(universe: Callable[[_Refs], Any], what: str) -> Callable[[Any, _Refs], None]:
    """A check that each name of a collection is in universe(refs)."""

    def check(names: Any, refs: _Refs) -> None:
        unknown = set(names).difference(universe(refs))
        if unknown:
            raise ValueError(f"unknown {what} {sorted(unknown)}")

    return check


# names the trace carries, by the rules its header parser applies
def _name(rule: Callable[[str], str]) -> Callable[[Any, _Refs], None]:
    return lambda name, refs: rule(name)


def _channel_names(names: list[str], refs: _Refs) -> None:
    _distinct(names, refs)
    for name in names:
        channel_name(name)


_channels = _known(lambda refs: refs.channels, "channels")
_capabilities = _known(lambda refs: Capability.ALL, "capabilities")


def _all(*checks: Callable[[Any, _Refs], None]) -> Callable[[Any, _Refs], None]:
    """A check that runs checks in turn."""

    def check(value: Any, refs: _Refs) -> None:
        for each in checks:
            each(value, refs)

    return check


def _agents(agents: list[AgentProfile], refs: _Refs) -> None:
    if not agents:
        raise ValueError("at least one agent is required")
    if len(refs.agents) != len(agents):
        raise ValueError("duplicate agent ids")
    if ATTACKER in refs.agents:
        raise ValueError(f"agent id {ATTACKER!r} is reserved")
    for agent in agents:
        _at(repr(agent.id), _check, agent, AGENT_KEYS, refs)


def _keyed(value: Callable[[Any, _Refs], None], key: Callable[[Any, _Refs], None] | None = None) -> Callable[[Any, _Refs], None]:
    """A check of each (key, value) item of a mapping, or each pair of a list."""

    def check(items: Any, refs: _Refs) -> None:
        for k, v in items.items() if isinstance(items, dict) else items:
            if key is not None:
                key(k, refs)
            _at(getattr(k, "value", k), value, v, refs)

    return check


def _seeded(carriers: list[SeededCarrier], refs: _Refs) -> None:
    for i, carrier in enumerate(carriers):
        _check(carrier, SEEDED_KEYS, refs)
        if (carrier.agent, carrier.slot) in {(c.agent, c.slot) for c in carriers[:i]}:
            raise ValueError(f"{carrier.agent} {carrier.slot} is seeded twice")


AGENT_KEYS = (
    Key("id", _str, check=_name(agent_id)),
    Key("framework", _str, "A", _framework),
    Key("privilege", _enum(Privilege), "low"),
    Key("period", _int, 1, _at_least_one, attr="heartbeat_period"),
    Key("channels", _seq(_str, tuple), [], _all(_distinct, _channels)),
    Key("compliance", _compliance, {}, _keyed(_policy_ok)),
    Key("capabilities", _parse_capabilities, "full", _capabilities),
)

INJECTION_KEYS = (
    Key("channel", _str, check=_channel),
    Key("tick", _int, 0, _injection_tick),
    Key("facets", _facets, "1111"),
)

SEEDED_KEYS = (
    Key("agent", _str, check=_agent),
    Key("slot", _str, check=_slot),
    Key("facets", _facets, "1111"),
)

SCENARIO_KEYS = (
    Key("name", _str, check=_name(scenario_name)),
    Key("seed", _int, 0),
    Key("max_ticks", _int, 10, _at_least_one),
    Key("channels", _seq(_str), check=_channel_names),
    Key("agents", _seq(_record(AGENT_KEYS, AgentProfile)), check=_agents),
    Key("injection", _record(INJECTION_KEYS, Injection), None, lambda inj, refs: _check(inj, INJECTION_KEYS, refs)),
    Key("enforcement", lambda value: EnforcementConfig.from_names(_str(value)), "none"),
    Key("guard", _enum(GuardMode), "deny"),
    Key("transform_default", _int, 0, _strength),
    Key("transform_strength", _mapping(_str, _int), {}, _keyed(_strength, _channel)),
    Key("exfil_channel", _str, None, _channel),
    Key("task_leases", _mapping(_str, _pair(_int, _int)), {}, _keyed(_lease, _agent)),
    Key("resets", _seq(_pair(_str, _int)), [], _all(_keyed(_step_tick, _agent), _distinct)),
    Key("declassify", _seq(_pair(_str, _int)), [], _all(_keyed(_step_tick, _agent), _distinct), attr="declassify_carrier_of"),
    Key("seeded", _seq(_record(SEEDED_KEYS, SeededCarrier)), [], _seeded, attr="seeded_carriers"),
    Key("heartbeat_logs", _seq(_str), [], _channels, attr="heartbeat_log_channels"),
)

_parse_scenario = _record(
    SCENARIO_KEYS,
    lambda enforcement, guard, **fields: Scenario(enforcement=replace(enforcement, guard_mode=guard), **fields),
)


def scenario_from_dict(data: Any, default_name: str = "scenario") -> Scenario:
    scenario = _parse_scenario(data, name=default_name)
    scenario.validate()
    return scenario


# ---------------------------------------------------------------------------
# files, bundled ecosystems and suites
# ---------------------------------------------------------------------------

_BUNDLED_DIR = "scenarios"
_SUITE_DIR = "suites"


def _bundled(subdir: str, name: str | Path) -> Any:
    """The bundled file for name, or None."""
    res = resources.files(__package__) / subdir / f"{name}.yaml"
    return res if res.is_file() else None


def _read_yaml(source: Any) -> Any:
    try:
        text = source.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {source}: {exc}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: invalid YAML: {exc}") from exc


def _bundle_listing(subdir: str) -> list[str]:
    root = resources.files(__package__) / subdir
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def bundled_names() -> list[str]:
    return _bundle_listing(_BUNDLED_DIR)


def suite_names() -> list[str]:
    return _bundle_listing(_SUITE_DIR)


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    return scenario_from_dict(_read_yaml(p), default_name=p.stem)


def load_bundled(name: str) -> Scenario:
    res = _bundled(_BUNDLED_DIR, name)
    if res is None:
        raise ScenarioError(f"no bundled scenario named {name!r}; available: {', '.join(bundled_names())}")
    return scenario_from_dict(_read_yaml(res), default_name=name)


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a bundled scenario name or a path to a config file."""
    return load_bundled(ref) if _bundled(_BUNDLED_DIR, ref) else load_scenario(ref)


@dataclass(frozen=True)
class SuiteEntry:
    scenario: str
    enforce: str
    guard: GuardMode
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    entries: tuple[SuiteEntry, ...]


# a suite's checks run when it loads, so it fails before any run starts
SUITE_ENTRY_KEYS = (
    Key("scenario", _str, check=lambda ref, refs: resolve_scenario(ref)),
    Key("enforce", _str, "none", lambda names, refs: EnforcementConfig.from_names(names)),
    Key("guard", _enum(GuardMode), "deny"),
    Key("seeds", _seq(_int, tuple), []),
)

SUITE_KEYS = (
    Key("name", _str),
    Key("entries", _seq(_record(SUITE_ENTRY_KEYS, SuiteEntry), tuple)),
)

_parse_suite = _record(SUITE_KEYS, SuiteSpec)


def suite_from_dict(data: Any, default_name: str = "suite") -> SuiteSpec:
    spec = _parse_suite(data, name=default_name)
    for entry in spec.entries:
        _at(f"entries: {entry.scenario}", _check, entry, SUITE_ENTRY_KEYS, None)
    return spec


def load_suite(ref: str) -> SuiteSpec:
    res = _bundled(_SUITE_DIR, ref)
    return suite_from_dict(_read_yaml(res or Path(ref)), default_name=ref if res else Path(ref).stem)


def with_capabilities(scenario: Scenario, preset: str) -> Scenario:
    caps = capability_preset(preset)
    agents = [replace(a, capabilities=caps) for a in scenario.agents]
    return replace(scenario, agents=agents, name=f"{scenario.name}+{preset}")


# ---------------------------------------------------------------------------
# random scenario generation (safety fuzzing)
# ---------------------------------------------------------------------------


def random_scenario(seed: int, enforcement: EnforcementConfig | None = None) -> Scenario:
    """Deterministic scenario sampler for property runs: chain topology with
    optional extra links, mixed frameworks/privileges/periods, sometimes
    pre-poisoned carriers, lossy channels, expiring leases, or an exfil
    channel. The attacker always has a channel into the first agent."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    frameworks = [rng.choice(list(FRAMEWORKS)) for _ in range(n)]
    privileges = [rng.choice([Privilege.LOW, Privilege.HIGH]) for _ in range(n)]
    privileges[rng.randrange(n)] = Privilege.HIGH
    max_ticks = rng.randint(8, 24)

    channels = [f"ch{i}" for i in range(n)]
    membership: dict[str, list[str]] = {f"n{i}": [] for i in range(n)}
    membership["n0"].append("ch0")
    for i in range(1, n):
        membership[f"n{i-1}"].append(f"ch{i}")
        membership[f"n{i}"].append(f"ch{i}")
    if n >= 3 and rng.random() < 0.4:
        extra = f"ch{n}"
        channels.append(extra)
        a, b = rng.sample(range(n), 2)
        membership[f"n{a}"].append(extra)
        membership[f"n{b}"].append(extra)

    agents = []
    for i in range(n):
        lossy = {InjectionPosition.USER_PROMPT: bernoulli(0.6)} if rng.random() < 0.3 else {}
        agents.append(
            AgentProfile(
                id=f"n{i}",
                framework=frameworks[i],
                privilege=privileges[i],
                heartbeat_period=rng.randint(1, 3),
                channels=tuple(membership[f"n{i}"]),
                compliance=DEFAULT_COMPLIANCE | lossy,
            )
        )

    leases = {}
    for i in range(n):
        if rng.random() < 0.5:
            hi = max_ticks if rng.random() < 0.7 else rng.randint(1, max_ticks)
            leases[f"n{i}"] = (0, hi)

    seeded = []
    if rng.random() < 0.3:
        seeded.append(
            SeededCarrier(
                agent=f"n{rng.randrange(n)}",
                slot=rng.choice(SEEDED_SLOTS),
                facets=PayloadFacets.from_token(rng.choice(["1111", "1110", "1010", "0110"])),
            )
        )

    resets = []
    if rng.random() < 0.25:
        resets.append((f"n{rng.randrange(n)}", rng.randint(1, max_ticks)))

    strengths = {}
    for ch in channels:
        if rng.random() < 0.3:
            strengths[ch] = rng.randint(0, 4)

    facet_token = rng.choice(["1111", "1111", "1111", "1110", "1101", "0111", "1011"])
    scenario = Scenario(
        name=f"fuzz{seed}",
        seed=seed,
        max_ticks=max_ticks,
        enforcement=enforcement if enforcement is not None else EnforcementConfig.none(),
        agents=agents,
        channels=channels,
        injection=Injection(channel="ch0", tick=rng.randint(0, 2), facets=PayloadFacets.from_token(facet_token)),
        transform_default=rng.choice([0, 0, 1, 2]),
        transform_strength=strengths,
        task_leases=leases,
        exfil_channel=rng.choice(channels) if rng.random() < 0.2 else None,
        resets=resets,
        seeded_carriers=seeded,
        heartbeat_log_channels=[rng.choice(channels)] if rng.random() < 0.3 else [],
    )
    scenario.validate()
    return scenario
