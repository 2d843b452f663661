"""Job configuration files: INI sections describing a circuit or a search
instance, the regions, and the synthesis/solver settings.

Grammar (see the README for the full reference):

    [circuit]
    qubits   = 2
    map.u0   = CX 0 1          ; factors separated by ';' apply in order
    map.u1   = CZ 0 1
    schedule = periodic u0 u1  ; or: constant u0

    [regions]
    init   = prob(0) >= 0.9
    unsafe = prob(1)+prob(2)+prob(3) >= 0.5
    global =                   ; optional, defaults to the whole sphere

    [synthesis]
    flavor  = hybrid           ; invariant | k-inductive | hybrid | finite-horizon
    degree  = 2
    samples = 20000
    seed    = 7
    k       = 2
    epsilon = 0.01             ; or: free
    gamma   = 0.01             ; or: free
    horizon = 6                ; finite-horizon only
    max-terms = 20             ; optional cap on the incremental term search
    resample-rounds = 10       ; counterexample-guided re-solves per size

    [smt]
    solver  = builtin          ; or a command template with {file} {timeout_s}
    timeout = 300
    jobs    = 1

Grover angle-model jobs replace [circuit]/[regions] with a [grover] section
(keys: qubits, solutions, err, eta, steps); their samples and seed go in
[synthesis]. A key left out keeps the default of its settings dataclass. An
unknown section or key, or a value that does not convert, raises ConfigError
naming the section and key.

Region constraints are comma-separated predicates over prob(j), re(j), im(j);
gate tokens are the standard names plus HE (tunable mixing gate, with an
optional parameter interval) and GROVER (full-state search step over marked
indices).
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .grover import GroverError, GroverInstance
from .lp import LPError, SynthesisConfig
from .quantum import (
    Dynamics,
    QuantumError,
    Schedule,
    StepMap,
    grover_operator,
    hadamard_uncertain,
    lift,
    standard_gate,
)
from .regions import Region, RegionError, full_sphere, parse_region


class ConfigError(ValueError):
    pass


@dataclass
class SMTSettings:
    solver: str = "builtin"
    timeout: float = 300.0
    jobs: int = 1

    def __post_init__(self):
        # the report states these budgets, so only ones that can apply load
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class JobConfig:
    name: str
    kind: str  # "circuit" | "grover"
    synthesis: SynthesisConfig
    smt: SMTSettings
    dynamics: Dynamics | None = None
    init_region: Region | None = None
    unsafe_region: Region | None = None
    global_region: Region | None = None
    grover: GroverInstance | None = None
    raw: dict = field(default_factory=dict)


def _parse_factor(token: str, n: int):
    """One gate application: NAME q... , HE q [lo,hi] , or GROVER s0,s1,..."""
    parts = token.split()
    if not parts:
        raise ConfigError("empty gate token")
    name = parts[0].upper()
    if name == "GROVER":
        if len(parts) < 2:
            raise ConfigError("GROVER needs marked indices, e.g. 'GROVER 3'")
        sols = []
        for p in parts[1:]:
            for piece in p.split(","):
                if piece:
                    sols.append(int(piece))
        return grover_operator(n, sols)
    if name == "HE":
        if len(parts) < 2:
            raise ConfigError("HE needs a target qubit")
        q = int(parts[1])
        _check_qubit(q, n)
        lo, hi = 0.9, 1.1
        if len(parts) >= 3:
            spec = "".join(parts[2:]).strip("[]")
            lo_s, _, hi_s = spec.partition(",")
            lo, hi = float(lo_s), float(hi_s)
        return (hadamard_uncertain(lo, hi), (q,))
    gate = standard_gate(name)
    targets = [int(p) for p in parts[1:]]
    if len(targets) != gate.m:
        raise ConfigError(
            f"gate {name} takes {gate.m} qubit(s), got targets {targets}"
        )
    for q in targets:
        _check_qubit(q, n)
    return lift(gate, targets, n)


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ConfigError(f"qubit index {q} out of range for {n} qubits")


def _parse_map(value: str, n: int) -> StepMap:
    factors = []
    for token in value.split(";"):
        token = token.strip()
        if token:
            factors.append(_parse_factor(token, n))
    if not factors:
        raise ConfigError("step map needs at least one gate")
    return StepMap(n=n, factors=tuple(factors))


def _parse_circuit(section) -> Dynamics:
    for key in section:
        if key not in ("qubits", "schedule") and not key.startswith("map."):
            raise ConfigError(f"[circuit] unknown key {key!r}")
    try:
        n = section.getint("qubits")
    except (TypeError, ValueError):
        raise ConfigError("[circuit] qubits must be an integer") from None
    if n is None or n < 1:
        raise ConfigError("[circuit] qubits must be >= 1")
    maps: dict[str, StepMap] = {}
    for key, value in section.items():
        if key.startswith("map."):
            label = key[4:]
            try:
                maps[label] = _parse_map(value, n)
            except (QuantumError, ValueError) as exc:
                raise ConfigError(f"[circuit] {key}: {exc}") from exc
    if not maps:
        raise ConfigError("[circuit] needs at least one map.<label> entry")
    sched_text = section.get("schedule", "").split()
    if not sched_text:
        if len(maps) == 1:
            order = [0]
            labels = list(maps)
        else:
            raise ConfigError("[circuit] schedule is required with several maps")
    else:
        mode, labels = sched_text[0], sched_text[1:]
        if mode not in ("constant", "periodic"):
            raise ConfigError(f"[circuit] schedule mode {mode!r} unknown")
        if mode == "constant" and len(labels) != 1:
            raise ConfigError("[circuit] constant schedule takes one map label")
        if not labels:
            raise ConfigError("[circuit] schedule needs map labels")
        order = []
        ordered_labels = list(maps)
        for lab in labels:
            if lab not in maps:
                raise ConfigError(f"[circuit] schedule references unknown map {lab!r}")
            order.append(ordered_labels.index(lab))
        labels = ordered_labels
    return Dynamics(maps=tuple(maps.values()), schedule=Schedule(tuple(order)))


def _parse_regions(section, dim: int):
    _check_keys("regions", section, ("init", "unsafe", "global"))

    def region_of(key, fallback_sphere=False):
        specs = [s for s in section.get(key, "").split(",") if s.strip()]
        if not specs:
            if fallback_sphere:
                return full_sphere(dim, name=key)
            raise ConfigError(f"[regions] {key} is required")
        try:
            return parse_region(specs, dim, name=key)
        except RegionError as exc:
            raise ConfigError(f"[regions] {key}: {exc}") from exc

    return (
        region_of("init"),
        region_of("unsafe"),
        region_of("global", fallback_sphere=True),
    )


def _number_or_free(raw: str) -> float | str:
    return "free" if raw.strip() == "free" else float(raw)


_SECTIONS = ("circuit", "regions", "synthesis", "smt", "grover")

# key -> (dataclass field, converter)
_SYNTHESIS_KEYS = {
    "flavor": ("flavor", str),
    "degree": ("degree", int),
    "samples": ("samples", int),
    "seed": ("seed", int),
    "k": ("k", int),
    "epsilon": ("eps", _number_or_free),
    "gamma": ("gamma", _number_or_free),
    "horizon": ("horizon", int),
    "max-terms": ("max_terms", int),
    "resample-rounds": ("resample_rounds", int),
}
_SMT_KEYS = {
    "solver": ("solver", str),
    "timeout": ("timeout", float),
    "jobs": ("jobs", int),
}
_GROVER_KEYS = {
    "qubits": ("n", int),
    "solutions": ("solutions", float),
    "err": ("err", float),
    "eta": ("eta", float),
    "steps": ("steps", int),
}


def _check_keys(name: str, section, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"[{name}] unknown key {key!r}")


def _settings(cls, name: str, section, table: dict, errors=()):
    """cls built from the keys present in one section; a key left out keeps
    the default of its field."""
    _check_keys(name, section, table)
    kwargs = {}
    for key, raw in section.items():
        attr, convert = table[key]
        try:
            kwargs[attr] = convert(raw)
        except ValueError:
            raise ConfigError(f"[{name}] {key}: bad value {raw!r}") from None
    try:
        return cls(**kwargs)
    except errors as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def load_config(path: str | Path) -> JobConfig:
    """Parse and validate a job file; raises ConfigError with the offending
    section/field named."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for title in parser.sections():
        if title not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{title}]")

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    if not parser.has_section("synthesis"):
        raise ConfigError("[synthesis] section is required")
    synth = _settings(
        SynthesisConfig, "synthesis", parser["synthesis"], _SYNTHESIS_KEYS, LPError
    )
    smt = _settings(SMTSettings, "smt", section("smt"), _SMT_KEYS, ConfigError)
    name = path.stem
    raw = {s: dict(parser[s]) for s in parser.sections()}

    if parser.has_section("grover"):
        for key in ("qubits", "solutions"):
            if key not in parser["grover"]:
                raise ConfigError(f"[grover] {key} is required")
        g = _settings(GroverInstance, "grover", parser["grover"], _GROVER_KEYS, GroverError)
        return JobConfig(
            name=name, kind="grover", synthesis=synth, smt=smt, grover=g, raw=raw
        )

    if not parser.has_section("circuit"):
        raise ConfigError(f"{path}: needs a [circuit] or [grover] section")
    dynamics = _parse_circuit(parser["circuit"])
    regions = _parse_regions(section("regions"), dynamics.dim)
    return JobConfig(
        name=name,
        kind="circuit",
        synthesis=synth,
        smt=smt,
        dynamics=dynamics,
        init_region=regions[0],
        unsafe_region=regions[1],
        global_region=regions[2],
        raw=raw,
    )
