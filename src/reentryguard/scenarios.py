"""Scenario configuration.

Three sources of scenarios, all producing the same Scenario value:

* YAML files with the documented keys below, loaded with load_scenario
* bundled reference ecosystems shipped inside the package, resolved by name
* the seeded random generator used for safety fuzzing

Config keys (top level): name, seed, max_ticks, channels, agents, injection,
enforcement, guard, transform_default, transform_strength, exfil_channel,
task_leases, resets, declassify, seeded, heartbeat_logs. Each agent entry:
id, framework (A/B/C), privilege (low/high), period, channels, compliance,
capabilities. Facet payloads are 4-bit tokens in persist, propagate, harm,
verbatim order, e.g. "1110". Unknown keys are rejected: a typo that silently
relaxed an ecosystem would invalidate every downstream comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import yaml

from .model import GuardMode, InjectionPosition, PayloadFacets, Privilege, Provenance
from .policy import EnforcementConfig
from .sim import (
    ALWAYS,
    CAPABILITY_PRESETS,
    FRAMEWORKS,
    NEVER,
    SEEDED_SLOTS,
    AgentProfile,
    Capability,
    CompliancePolicy,
    Injection,
    Scenario,
    ScenarioError,
    SeededCarrier,
    bernoulli,
)

_SCENARIO_KEYS = {
    "name",
    "seed",
    "max_ticks",
    "channels",
    "agents",
    "injection",
    "enforcement",
    "guard",
    "transform_default",
    "transform_strength",
    "exfil_channel",
    "task_leases",
    "resets",
    "declassify",
    "seeded",
    "heartbeat_logs",
}

_AGENT_KEYS = {"id", "framework", "privilege", "period", "channels", "compliance", "capabilities"}

_POSITIONS = {
    "user_prompt": InjectionPosition.USER_PROMPT,
    "system_prompt": InjectionPosition.SYSTEM_PROMPT,
}


def _fail(msg: str) -> ScenarioError:
    return ScenarioError(msg)


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise _fail(f"{where}: unknown keys {sorted(unknown)}")


def _parse_facets(token: object, where: str) -> PayloadFacets:
    if not isinstance(token, str):
        raise _fail(f"{where}: facets must be a 4-bit string token")
    try:
        return PayloadFacets.from_token(token)
    except ValueError as exc:
        raise _fail(f"{where}: {exc}") from exc


def _parse_compliance(data: object, where: str) -> dict[InjectionPosition, CompliancePolicy]:
    out = {
        InjectionPosition.USER_PROMPT: ALWAYS,
        InjectionPosition.SYSTEM_PROMPT: NEVER,
    }
    if data is None:
        return out
    if not isinstance(data, dict):
        raise _fail(f"{where}: compliance must be a mapping")
    for key, val in data.items():
        pos = _POSITIONS.get(key)
        if pos is None:
            raise _fail(f"{where}: unknown injection position {key!r}")
        if val == "always":
            out[pos] = ALWAYS
        elif val == "never":
            out[pos] = NEVER
        elif isinstance(val, dict) and set(val) == {"bernoulli"}:
            out[pos] = bernoulli(float(val["bernoulli"]))
        else:
            raise _fail(f"{where}: compliance must be always, never, or {{bernoulli: p}}")
    return out


def _parse_capabilities(data: object, where: str) -> frozenset[str]:
    if data is None:
        return Capability.ALL
    if isinstance(data, str):
        preset = CAPABILITY_PRESETS.get(data)
        if preset is None:
            raise _fail(f"{where}: unknown capability preset {data!r}")
        return preset
    if isinstance(data, list):
        caps = frozenset(data)
        unknown = caps - Capability.ALL
        if unknown:
            raise _fail(f"{where}: unknown capabilities {sorted(unknown)}")
        return caps
    raise _fail(f"{where}: capabilities must be a preset name or a list")


def _parse_agent(data: object) -> AgentProfile:
    if not isinstance(data, dict) or "id" not in data:
        raise _fail("agents: each entry must be a mapping with an id")
    where = f"agent {data['id']}"
    _check_keys(data, _AGENT_KEYS, where)
    try:
        privilege = Privilege(data.get("privilege", "low"))
    except ValueError as exc:
        raise _fail(f"{where}: {exc}") from exc
    framework = str(data.get("framework", "A"))
    if framework not in FRAMEWORKS:
        raise _fail(f"{where}: unknown framework {framework!r}")
    return AgentProfile(
        id=str(data["id"]),
        framework=framework,
        privilege=privilege,
        heartbeat_period=int(data.get("period", 1)),
        channels=tuple(str(c) for c in data.get("channels", [])),
        compliance=_parse_compliance(data.get("compliance"), where),
        capabilities=_parse_capabilities(data.get("capabilities"), where),
    )


def _parse_pairs(data: object, key: str) -> list[tuple[str, int]]:
    if data is None:
        return []
    if not isinstance(data, list):
        raise _fail(f"{key}: must be a list of [agent, tick] pairs")
    out = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise _fail(f"{key}: each entry must be [agent, tick]")
        out.append((str(item[0]), int(item[1])))
    return out


def scenario_from_dict(data: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise _fail("scenario config must be a mapping")
    _check_keys(data, _SCENARIO_KEYS, "scenario")
    if "channels" not in data or "agents" not in data:
        raise _fail("scenario: channels and agents are required")

    guard_raw = str(data.get("guard", "deny"))
    try:
        guard = GuardMode(guard_raw)
    except ValueError as exc:
        raise _fail(f"scenario: unknown guard mode {guard_raw!r}") from exc
    try:
        enforcement = EnforcementConfig.from_names(str(data.get("enforcement", "none")), guard)
    except ValueError as exc:
        raise _fail(f"scenario: {exc}") from exc

    injection = None
    inj = data.get("injection")
    if inj is not None:
        if not isinstance(inj, dict) or set(inj) - {"channel", "tick", "facets"}:
            raise _fail("injection: expected {channel, tick, facets}")
        injection = Injection(
            channel=str(inj["channel"]),
            tick=int(inj.get("tick", 0)),
            facets=_parse_facets(inj.get("facets", "1111"), "injection"),
        )

    leases: dict[str, tuple[int, int]] = {}
    for agent_id, window in (data.get("task_leases") or {}).items():
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise _fail("task_leases: each value must be [t0, t1]")
        leases[str(agent_id)] = (int(window[0]), int(window[1]))

    seeded = []
    for item in data.get("seeded") or []:
        if not isinstance(item, dict) or not {"agent", "slot"} <= set(item):
            raise _fail("seeded: each entry needs agent, slot, facets")
        _check_keys(item, {"agent", "slot", "facets", "provenance"}, "seeded")
        # provenance is validated for compatibility with existing files;
        # every seeded slot starts labeled external, whatever it says
        try:
            Provenance(item.get("provenance", "external_sync"))
        except ValueError as exc:
            raise _fail(f"seeded: {exc}") from exc
        seeded.append(
            SeededCarrier(
                agent=str(item["agent"]),
                slot=str(item["slot"]),
                facets=_parse_facets(item.get("facets", "1111"), "seeded"),
            )
        )

    strengths = {str(k): int(v) for k, v in (data.get("transform_strength") or {}).items()}

    scenario = Scenario(
        name=str(data.get("name", default_name)),
        seed=int(data.get("seed", 0)),
        max_ticks=int(data.get("max_ticks", 10)),
        enforcement=enforcement,
        agents=[_parse_agent(a) for a in data.get("agents", [])],
        channels=[str(c) for c in data.get("channels", [])],
        injection=injection,
        transform_default=int(data.get("transform_default", 0)),
        transform_strength=strengths,
        task_leases=leases,
        exfil_channel=(None if data.get("exfil_channel") is None else str(data["exfil_channel"])),
        resets=_parse_pairs(data.get("resets"), "resets"),
        declassify_carrier_of=_parse_pairs(data.get("declassify"), "declassify"),
        seeded_carriers=seeded,
        heartbeat_log_channels=[str(c) for c in data.get("heartbeat_logs") or []],
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _fail(f"cannot read scenario file {p}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise _fail(f"{p}: invalid YAML: {exc}") from exc
    return scenario_from_dict(data, default_name=p.stem)


# ---------------------------------------------------------------------------
# bundled ecosystems and suites
# ---------------------------------------------------------------------------

_BUNDLED_DIR = "scenarios"
_SUITE_DIR = "suites"


def _bundle_listing(subdir: str) -> list[str]:
    root = resources.files(__package__) / subdir
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def bundled_names() -> list[str]:
    return _bundle_listing(_BUNDLED_DIR)


def suite_names() -> list[str]:
    return _bundle_listing(_SUITE_DIR)


def load_bundled(name: str) -> Scenario:
    res = resources.files(__package__) / _BUNDLED_DIR / f"{name}.yaml"
    if not res.is_file():
        raise _fail(f"no bundled scenario named {name!r}; available: {', '.join(bundled_names())}")
    data = yaml.safe_load(res.read_text())
    return scenario_from_dict(data, default_name=name)


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a bundled scenario name or a path to a config file."""
    candidate = resources.files(__package__) / _BUNDLED_DIR / f"{ref}.yaml"
    if candidate.is_file():
        return load_bundled(ref)
    return load_scenario(ref)


@dataclass(frozen=True)
class SuiteEntry:
    scenario: str
    enforce: str = "none"
    guard: str = "deny"
    seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    entries: tuple[SuiteEntry, ...]


def suite_from_dict(data: dict, default_name: str = "suite") -> SuiteSpec:
    if not isinstance(data, dict) or "entries" not in data:
        raise _fail("suite config must be a mapping with entries")
    _check_keys(data, {"name", "entries"}, "suite")
    entries = []
    for raw in data["entries"]:
        if not isinstance(raw, dict) or "scenario" not in raw:
            raise _fail("suite entries need a scenario reference")
        _check_keys(raw, {"scenario", "enforce", "guard", "seeds"}, "suite entry")
        entries.append(
            SuiteEntry(
                scenario=str(raw["scenario"]),
                enforce=str(raw.get("enforce", "none")),
                guard=str(raw.get("guard", "deny")),
                seeds=tuple(int(s) for s in raw.get("seeds", [])),
            )
        )
    spec = SuiteSpec(name=str(data.get("name", default_name)), entries=tuple(entries))
    # fail before any run starts, not at entry seven of twelve
    for entry in spec.entries:
        resolve_scenario(entry.scenario)
    return spec


def load_suite(ref: str) -> SuiteSpec:
    res = resources.files(__package__) / _SUITE_DIR / f"{ref}.yaml"
    if res.is_file():
        return suite_from_dict(yaml.safe_load(res.read_text()), default_name=ref)
    p = Path(ref)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _fail(f"no bundled suite named {ref!r} and no such file: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise _fail(f"{p}: invalid YAML: {exc}") from exc
    return suite_from_dict(data, default_name=p.stem)


def with_enforcement(scenario: Scenario, enforcement: EnforcementConfig) -> Scenario:
    return replace(scenario, enforcement=enforcement)


def with_capabilities(scenario: Scenario, preset: str) -> Scenario:
    caps = CAPABILITY_PRESETS.get(preset)
    if caps is None:
        raise _fail(f"unknown capability preset {preset!r}")
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
        compliance = {
            InjectionPosition.USER_PROMPT: bernoulli(0.6) if rng.random() < 0.3 else ALWAYS,
            InjectionPosition.SYSTEM_PROMPT: NEVER,
        }
        agents.append(
            AgentProfile(
                id=f"n{i}",
                framework=frameworks[i],
                privilege=privileges[i],
                heartbeat_period=rng.randint(1, 3),
                channels=tuple(membership[f"n{i}"]),
                compliance=compliance,
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
