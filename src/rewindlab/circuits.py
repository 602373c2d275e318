"""Circuit families, recycle targets, and the rewinding transformation.

Qudits are indexed 1..n. All families share the same protocol structure:
the full forward circuit is applied to |0^n>, the continuation of the
computation only ever acts on qudit n, so qudits 1..n-1 are idle, and the
rewinding stage appends the daggered idle-only gate subsequence in reverse
order. Gates touching qudit n are applied exactly once; every other gate
is applied twice (forward, then inverted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from rewindlab.errors import InvalidShapeError, InvalidTargetError, TargetNotIdleError


class Family(str, Enum):
    CONVOLUTIONAL = "conv"
    HYBRID = "hybrid"
    LOCAL = "local"


@dataclass(frozen=True)
class CircuitShape:
    """Geometry of one circuit instance.

    ``m`` counts convolutional sweeps for the hybrid family and brickwork
    layers for the local family; the convolutional family is a single sweep
    and pins ``m = 1``. ``q`` is the local qudit dimension.
    """

    family: Family
    n: int
    m: int = 1
    q: int = 2

    def __post_init__(self):
        if self.q < 2:
            raise InvalidShapeError(f"qudit dimension q={self.q} must be >= 2")
        f = Family(self.family)
        object.__setattr__(self, "family", f)
        if f is Family.CONVOLUTIONAL:
            if self.n < 3:
                raise InvalidShapeError("convolutional circuits need n >= 3")
            if self.m != 1:
                raise InvalidShapeError("convolutional circuits have exactly one sweep")
        elif f is Family.HYBRID:
            if self.n < 3 or self.m < 1:
                raise InvalidShapeError("hybrid circuits need n >= 3 and m >= 1")
        else:
            # Even sizes only, matching the regime the closed forms cover.
            if self.n < 4 or self.n % 2 or self.m < 2 or self.m % 2:
                raise InvalidShapeError("local circuits need even n >= 4 and even m >= 2")

    def to_json(self, target: "RecycleTarget | None" = None) -> str:
        doc = {"family": self.family.value, "n": self.n, "m": self.m, "q": self.q}
        if target is not None:
            doc["target"] = target.to_dict()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "tuple[CircuitShape, RecycleTarget | None]":
        doc = json.loads(text)
        shape = cls(Family(doc["family"]), doc["n"], doc.get("m", 1), doc.get("q", 2))
        target = RecycleTarget.from_dict(doc["target"]) if "target" in doc else None
        return shape, target


@dataclass(frozen=True)
class RecycleTarget:
    """Which idle qudits get projected back onto |0>.

    ``single(i)`` recycles qudit i, ``prefix(k)`` recycles qudits 1..k,
    ``pair(i, j)`` recycles qudits i and j (i > j).
    """

    kind: str
    indices: tuple[int, ...]

    @classmethod
    def single(cls, i: int) -> "RecycleTarget":
        return cls("single", (i,))

    @classmethod
    def prefix(cls, k: int) -> "RecycleTarget":
        return cls("prefix", (k,))

    @classmethod
    def pair(cls, i: int, j: int) -> "RecycleTarget":
        return cls("pair", (i, j))

    def validate(self, n: int) -> None:
        if self.kind == "single":
            (i,) = self.indices
            if not 1 <= i <= n - 1:
                raise InvalidTargetError(f"single({i}) needs 1 <= i <= n-1 = {n - 1}")
        elif self.kind == "prefix":
            (k,) = self.indices
            if not 1 <= k <= n - 1:
                raise InvalidTargetError(f"prefix({k}) needs 1 <= k <= n-1 = {n - 1}")
        elif self.kind == "pair":
            i, j = self.indices
            if not 1 <= j < i <= n - 1:
                raise InvalidTargetError(f"pair({i},{j}) needs 1 <= j < i <= n-1 = {n - 1}")
        else:
            raise InvalidTargetError(f"unknown target kind {self.kind!r}")

    def qudits(self, n: int) -> frozenset[int]:
        """The set of projected qudits."""
        self.validate(n)
        if self.kind == "single":
            return frozenset(self.indices)
        if self.kind == "prefix":
            return frozenset(range(1, self.indices[0] + 1))
        return frozenset(self.indices)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "indices": list(self.indices)}

    @classmethod
    def from_dict(cls, doc: dict) -> "RecycleTarget":
        return cls(doc["kind"], tuple(doc["indices"]))

    @classmethod
    def parse(cls, text: str) -> "RecycleTarget":
        """Parse CLI syntax: ``"3"``, ``"prefix:2"`` or ``"pair:3,2"``."""
        text = text.strip()
        if text.startswith("prefix:"):
            return cls.prefix(int(text.split(":", 1)[1]))
        if text.startswith("pair:"):
            i, j = (int(x) for x in text.split(":", 1)[1].split(","))
            return cls.pair(i, j)
        return cls.single(int(text))

    def __str__(self) -> str:
        if self.kind == "single":
            return str(self.indices[0])
        return f"{self.kind}:{','.join(map(str, self.indices))}"


@dataclass(frozen=True)
class GateSlot:
    """One application of a two-qudit gate.

    ``gate_id`` identifies the underlying Haar-random unitary; a rewound
    slot shares its id with the forward slot it inverts and has
    ``dagger=True``.
    """

    qudits: tuple[int, int]
    gate_id: int
    dagger: bool = False


@dataclass(frozen=True)
class GateLayout:
    """Immutable gate sequence of one protocol instance."""

    shape: CircuitShape
    slots: tuple[GateSlot, ...]
    idle: frozenset[int] = field(default_factory=frozenset)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def q(self) -> int:
        return self.shape.q

    @property
    def forward_slots(self) -> tuple[GateSlot, ...]:
        return tuple(s for s in self.slots if not s.dagger)

    @property
    def rewound_ids(self) -> frozenset[int]:
        return frozenset(s.gate_id for s in self.slots if s.dagger)

    @property
    def has_rewinding(self) -> bool:
        return any(s.dagger for s in self.slots)


def _forward_sequence(shape: CircuitShape) -> list[tuple[int, int]]:
    n, m = shape.n, shape.m
    pairs: list[tuple[int, int]] = []
    if shape.family is Family.CONVOLUTIONAL:
        pairs += [(i, i + 1) for i in range(1, n)]
    elif shape.family is Family.HYBRID:
        for _ in range(m):
            pairs += [(i, i + 1) for i in range(1, n)]
    else:
        for layer in range(1, m + 1):
            start = 1 if layer % 2 else 2
            pairs += [(i, i + 1) for i in range(start, n, 2)]
    return pairs


def build_circuit(shape: CircuitShape) -> GateLayout:
    """Forward gate sequence of a circuit family.

    Convolutional: one left-to-right sweep of two-site gates. Hybrid: m such
    sweeps. Local: m brickwork layers, odd layers starting at qudit 1.
    """
    pairs = _forward_sequence(shape)
    slots = tuple(GateSlot(p, gid) for gid, p in enumerate(pairs))
    idle = frozenset(range(1, shape.n))
    return GateLayout(shape=shape, slots=slots, idle=idle)


def apply_rewinding(layout: GateLayout, target: RecycleTarget) -> GateLayout:
    """Append the daggered idle-only gate subsequence in reverse order.

    The rewound slots invert exactly the forward gates supported on idle
    qudits; the target is validated against the idle set but does not change
    the rewinding itself.
    """
    if layout.has_rewinding:
        return layout
    targeted = target.qudits(layout.n)
    if not targeted <= layout.idle:
        raise TargetNotIdleError(f"target {sorted(targeted)} not within idle set {sorted(layout.idle)}")
    idle_only = [s for s in layout.slots if set(s.qudits) <= layout.idle]
    rewound = tuple(GateSlot(s.qudits, s.gate_id, dagger=True) for s in reversed(idle_only))
    return GateLayout(shape=layout.shape, slots=layout.slots + rewound, idle=layout.idle)


def protocol_layout(shape: CircuitShape, target: RecycleTarget) -> GateLayout:
    """Forward circuit plus rewinding in one call."""
    return apply_rewinding(build_circuit(shape), target)
