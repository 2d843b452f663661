"""Quantum states, gates, and time-varying circuit dynamics.

States are unit vectors in C^(2^n) over the computational basis; qubit 0 is
the most significant bit of the basis index, so for two qubits the index of
|10> is 2. Dynamics are finite families of unitary step maps together with a
schedule assigning a map to each time step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9


class QuantumError(ValueError):
    pass


class NonUnitaryError(QuantumError):
    pass


class UnknownGateError(QuantumError):
    pass


@dataclass(frozen=True)
class QuantumState:
    """Unit-norm complex amplitude vector over the computational basis."""

    amps: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        dim = amps.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2 ** n != dim:
            raise QuantumError(f"amplitude vector length {dim} is not 2^n with n >= 1")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise QuantumError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def basis_state(index: int, n: int) -> QuantumState:
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return QuantumState(amps)


@dataclass(frozen=True)
class Gate:
    """Unitary matrix on m qubits; unitarity is checked at construction."""

    matrix: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QuantumError(f"gate matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        m = dim.bit_length() - 1
        if dim < 2 or 2 ** m != dim:
            raise QuantumError(f"gate dimension {dim} is not a power of two")
        err = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
        if not err <= UNITARY_TOL:  # a NaN entry fails too
            raise NonUnitaryError(f"matrix is not unitary (max residual {err:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "m", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_SQ2 = 1.0 / math.sqrt(2.0)
_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def standard_gate(name: str) -> Gate:
    """Look up a gate from the standard menu {I, X, Y, Z, H, T, S, CX, CZ, SWAP}."""
    try:
        return Gate(_GATES[name.upper()])
    except KeyError:
        raise UnknownGateError(f"unknown gate name {name!r}") from None


def tensor(gates: Sequence[Gate]) -> Gate:
    """Kronecker product of gates in list order; arity is the sum of arities."""
    if not gates:
        raise QuantumError("tensor() requires a non-empty gate list")
    mat = gates[0].matrix
    for g in gates[1:]:
        mat = np.kron(mat, g.matrix)
    return Gate(mat)


def target_groups(targets: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """The qubit index map of a gate on `targets` in an n-qubit space: for
    each setting of the other qubits, in increasing order, the 2^m basis
    indices whose target bits spell the gate's indices 0 .. 2^m - 1 (targets
    most significant first)."""
    m = len(targets)
    shifts = [n - 1 - q for q in targets]  # qubit 0 is the MSB of the index
    mask = sum(1 << sh for sh in shifts)
    for base in range(2 ** n):
        if base & mask:
            continue
        group = []
        for sub in range(2 ** m):
            index = base
            for pos, sh in enumerate(shifts):
                if (sub >> (m - 1 - pos)) & 1:
                    index |= 1 << sh
            group.append(index)
        yield tuple(group)


def lift(gate: Gate, targets: Sequence[int], n: int) -> Gate:
    """Embed `gate` acting on the given qubits into the full 2^n space.

    Targets are listed most-significant-first from the gate's point of view.
    """
    m = gate.m
    if len(targets) != m:
        raise QuantumError(f"gate has arity {m} but {len(targets)} targets given")
    if len(set(targets)) != m:
        raise QuantumError(f"duplicate target qubits {list(targets)}")
    for q in targets:
        if not 0 <= q < n:
            raise QuantumError(f"target qubit {q} out of range for {n} qubits")
    if m == n and list(targets) == list(range(n)):
        return gate
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for group in target_groups(targets, n):
        full[np.ix_(group, group)] += gate.matrix
    return Gate(full)


def grover_operator(n: int, solutions: Sequence[int]) -> Gate:
    """Full-state search-iteration unitary: inversion about the mean after a
    sign flip on the marked basis indices."""
    dim = 2 ** n
    sols = sorted(set(int(s) for s in solutions))
    if not sols:
        raise QuantumError("grover operator needs at least one marked index")
    for s in sols:
        if not 0 <= s < dim:
            raise QuantumError(f"marked index {s} out of range for {n} qubits")
    if len(sols) >= dim:
        raise QuantumError("marked set must be a strict subset of the basis")
    oracle = np.eye(dim, dtype=complex)
    for s in sols:
        oracle[s, s] = -1.0
    u = np.full((dim, dim), 2.0 / dim, dtype=complex) - np.eye(dim)
    return Gate(u @ oracle)


@dataclass(frozen=True)
class UncertainGate:
    """Family of unitaries indexed by a point in a box of real parameters.

    Every instantiation goes through Gate construction, so unitarity is
    checked for each sampled parameter point.
    """

    nominal: Gate
    domain: tuple[tuple[float, float], ...]
    generator: Callable[[tuple[float, ...]], Gate]
    name: str = "uncertain"

    def __post_init__(self):
        for lo, hi in self.domain:
            if not lo <= hi:
                raise QuantumError(f"empty parameter interval [{lo}, {hi}]")

    @property
    def n_params(self) -> int:
        return len(self.domain)

    def contains(self, params: Sequence[float]) -> bool:
        if len(params) != len(self.domain):
            return False
        return all(lo <= p <= hi for p, (lo, hi) in zip(params, self.domain))

    def instantiate(self, params: Sequence[float]) -> Gate:
        if not self.contains(params):
            raise QuantumError(
                f"parameter point {tuple(params)} outside domain {self.domain}"
            )
        return self.generator(tuple(params))

    def midpoint(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in self.domain)


def hadamard_uncertain(lo: float = 0.9, hi: float = 1.1) -> UncertainGate:
    """Mixing gate with a tunable off-diagonal weight; equals H at weight 1.

    The weights at both ends must give a unitary gate, else NonUnitaryError:
    an infinite weight, or one whose square overflows, gives none. s and
    |s * eps| are monotone in |eps|, so then every weight between does."""

    def gen(params: tuple[float, ...]) -> Gate:
        (eps,) = params
        s = 1.0 / math.sqrt(1.0 + eps * eps)
        return Gate(np.array([[s, s * eps], [s * eps, -s]], dtype=complex))

    gate = UncertainGate(nominal=gen((1.0,)), domain=((lo, hi),), generator=gen, name="HE")
    gen((lo,))
    gen((hi,))
    return gate


@dataclass(frozen=True)
class StepMap:
    """One scheduled evolution step: an ordered product of full-width factors.

    Factors are applied in list order (first factor acts first). A factor is
    either a fixed full-width Gate or an (UncertainGate, targets) pair that is
    lifted on instantiation. Uncertain factors consume parameter points in
    factor order.
    """

    n: int
    factors: tuple[object, ...]  # Gate | (UncertainGate, targets tuple)
    label: str = ""

    def __post_init__(self):
        dim = 2 ** self.n
        for f in self.factors:
            if isinstance(f, Gate):
                if f.dim != dim:
                    raise QuantumError(
                        f"step factor acts on dim {f.dim}, expected {dim}"
                    )
            else:
                ug, targets = f
                if not isinstance(ug, UncertainGate):
                    raise QuantumError(f"bad step factor {f!r}")

    @property
    def uncertain_parts(self) -> list[UncertainGate]:
        return [f[0] for f in self.factors if not isinstance(f, Gate)]

    @property
    def n_params(self) -> int:
        return sum(ug.n_params for ug in self.uncertain_parts)

    @property
    def param_domain(self) -> tuple[tuple[float, float], ...]:
        out: list[tuple[float, float]] = []
        for ug in self.uncertain_parts:
            out.extend(ug.domain)
        return tuple(out)

    def matrix(self, params: Sequence[float] | None = None) -> np.ndarray:
        need = self.n_params
        if need and (params is None or len(params) != need):
            raise QuantumError(
                f"step map needs {need} uncertainty parameter(s), got "
                f"{0 if params is None else len(params)}"
            )
        if params is None:
            params = ()
        mat = np.eye(2 ** self.n, dtype=complex)
        used = 0
        for f in self.factors:
            if isinstance(f, Gate):
                mat = f.matrix @ mat
            else:
                ug, targets = f
                pt = tuple(params[used : used + ug.n_params])
                used += ug.n_params
                mat = lift(ug.instantiate(pt), targets, self.n).matrix @ mat
        return mat


def fixed_step(gate: Gate, label: str = "") -> StepMap:
    return StepMap(n=gate.m, factors=(gate,), label=label)


@dataclass(frozen=True)
class Schedule:
    """Map from time step to an index into the dynamics family (periodic)."""

    order: tuple[int, ...]

    def __post_init__(self):
        if len(self.order) < 1:
            raise QuantumError("schedule period must be >= 1")

    @property
    def period(self) -> int:
        return len(self.order)

    def __call__(self, t: int) -> int:
        if t < 0:
            raise QuantumError(f"time index {t} is negative")
        return self.order[t % len(self.order)]

    @property
    def is_constant(self) -> bool:
        return len(set(self.order)) == 1


@dataclass(frozen=True)
class Dynamics:
    """Time-indexed family of (possibly uncertain) full-width step maps."""

    maps: tuple[StepMap, ...]
    schedule: Schedule

    def __post_init__(self):
        if not self.maps:
            raise QuantumError("dynamics needs at least one step map")
        n = self.maps[0].n
        for m in self.maps:
            if m.n != n:
                raise QuantumError("all step maps must act on the same width")
        for idx in self.schedule.order:
            if not 0 <= idx < len(self.maps):
                raise QuantumError(f"schedule index {idx} out of range")

    @property
    def n(self) -> int:
        return self.maps[0].n

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def is_uncertain(self) -> bool:
        return any(m.n_params > 0 for m in self.maps)

    def map_at(self, t: int) -> StepMap:
        return self.maps[self.schedule(t)]

    def composed_matrix(
        self, t0: int, count: int, params: Sequence[Sequence[float] | None] | None = None
    ) -> np.ndarray:
        """Product of the scheduled maps for steps t0 .. t0+count-1."""
        mat = np.eye(self.dim, dtype=complex)
        for i in range(count):
            step_params = None if params is None else params[i]
            mat = self.map_at(t0 + i).matrix(step_params) @ mat
        return mat


def constant_dynamics(gate: Gate, label: str = "") -> Dynamics:
    return Dynamics(maps=(fixed_step(gate, label),), schedule=Schedule((0,)))


def step(
    d: Dynamics,
    t: int,
    s: QuantumState,
    uncertainty: Sequence[float] | None = None,
) -> QuantumState:
    """Apply the scheduled unitary for time t to the state.

    If the scheduled map has uncertain factors, a parameter point inside
    their joint domain must be supplied.
    """
    m = d.map_at(t)
    out = m.matrix(uncertainty) @ s.amps
    return QuantumState(out)
