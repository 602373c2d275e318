import numpy as np
import pytest

from rewindlab.circuits import (
    CircuitShape,
    Family,
    GateSlot,
    RecycleTarget,
    apply_rewinding,
    build_circuit,
    protocol_layout,
)
from rewindlab.errors import InvalidShapeError, InvalidTargetError
from rewindlab.oracle import haar_unitary


def test_convolutional_sweep_slots():
    layout = build_circuit(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2))
    assert [s.qudits for s in layout.slots] == [(1, 2), (2, 3), (3, 4)]
    assert len(layout.slots) == 3


def test_hybrid_two_sweeps():
    layout = build_circuit(CircuitShape(Family.HYBRID, 4, 2, 2))
    assert len(layout.slots) == 6
    assert [s.qudits for s in layout.slots[:3]] == [s.qudits for s in layout.slots[3:]]


def test_slot_counts_per_family():
    assert len(build_circuit(CircuitShape(Family.CONVOLUTIONAL, 7, 1, 2)).slots) == 6
    assert len(build_circuit(CircuitShape(Family.HYBRID, 7, 3, 2)).slots) == 18


def test_local_odd_depth_rejected():
    with pytest.raises(InvalidShapeError):
        CircuitShape(Family.LOCAL, 4, 3, 2)
    with pytest.raises(InvalidShapeError):
        CircuitShape(Family.LOCAL, 5, 4, 2)


def test_small_n_rejected():
    with pytest.raises(InvalidShapeError):
        CircuitShape(Family.CONVOLUTIONAL, 2, 1, 2)
    with pytest.raises(InvalidShapeError):
        CircuitShape(Family.CONVOLUTIONAL, 4, 1, 1)


def test_rewound_slots_invert_idle_prefix():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    assert [s.dagger for s in layout.slots] == [False, False, True]
    rewound = [s for s in layout.slots if s.dagger]
    forward_ids = [s.gate_id for s in layout.slots if not s.dagger and set(s.qudits) <= layout.idle]
    assert [s.gate_id for s in rewound] == list(reversed(forward_ids))
    assert all(set(s.qudits) <= layout.idle for s in rewound)


def test_local_layout_matches_brickwork():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.LOCAL, 6, 4, 2), target)
    forward = [s.qudits for s in layout.forward_slots]
    assert forward == [(1, 2), (3, 4), (5, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6), (2, 3), (4, 5)]
    # gates touching qudit 6 are never rewound
    assert all(6 not in s.qudits for s in layout.slots if s.dagger)


def test_target_not_idle():
    layout = build_circuit(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2))
    with pytest.raises(InvalidTargetError):
        apply_rewinding(layout, RecycleTarget.single(4))


def test_target_parsing_and_validation():
    assert RecycleTarget.parse("3") == RecycleTarget.single(3)
    assert RecycleTarget.parse("prefix:2") == RecycleTarget.prefix(2)
    assert RecycleTarget.parse("pair:3,2") == RecycleTarget.pair(3, 2)
    assert RecycleTarget.prefix(2).qudits(5) == frozenset({1, 2})
    with pytest.raises(InvalidTargetError):
        RecycleTarget.pair(2, 2).validate(5)
    with pytest.raises(InvalidTargetError):
        RecycleTarget.single(0).validate(5)


def test_target_with_wrong_index_count_is_refused():
    for target, message in [
        (RecycleTarget("single", (1, 2)), r"single target takes 1 index, got indices \[1, 2\]"),
        (RecycleTarget("prefix", ()), r"prefix target takes 1 index, got indices \[\]"),
        (RecycleTarget("prefix", (1, 2)), r"prefix target takes 1 index, got indices \[1, 2\]"),
        (RecycleTarget("pair", (3,)), r"pair target takes 2 indices, got indices \[3\]"),
        (RecycleTarget("pair", (3, 2, 1)), r"pair target takes 2 indices, got indices \[3, 2, 1\]"),
    ]:
        with pytest.raises(InvalidTargetError, match=message):
            target.validate(5)


@pytest.mark.parametrize("text", ["pair:3", "pair:3,2,1", "prefix:", "prefix:1,2", "pair:a,b", "", "x", "single:2"])
def test_malformed_target_text_is_refused(text):
    with pytest.raises(InvalidTargetError, match=f"malformed target {text!r}"):
        RecycleTarget.parse(text)


def test_non_integer_fields_are_refused():
    for n, m, q in [(4.0, 1, 2), (4, 1.0, 2), (4, 1, 2.0), (True, 1, 2), (4, True, 2), (4, 1, "2")]:
        with pytest.raises(InvalidShapeError, match="is not an integer"):
            CircuitShape(Family.CONVOLUTIONAL, n, m, q)
    for target in (RecycleTarget.single(2.5), RecycleTarget.single(2.0), RecycleTarget.pair(3, True), RecycleTarget.prefix("2")):
        with pytest.raises(InvalidTargetError, match="are not integers"):
            target.validate(5)


def test_shape_json_round_trip():
    shape = CircuitShape(Family.HYBRID, 5, 2, 3)
    target = RecycleTarget.pair(3, 1)
    text = '{"family": "hybrid", "n": 5, "m": 2, "q": 3, "target": {"kind": "pair", "indices": [3, 1]}}'
    shape2, target2 = CircuitShape.from_json(text)
    assert shape2 == shape and target2 == target


def test_rewinding_preserves_active_qudit_state():
    """Applying the rewinding right after the forward circuit leaves the
    non-rewound qudit's reduced state unchanged (the rewound block is
    unitarily inverted)."""
    rng = np.random.default_rng(5)
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    q, n = 2, 3
    gates = {gid: haar_unitary(4, rng) for gid in {s.gate_id for s in layout.slots}}

    def run(slots):
        psi = np.zeros(q**n, dtype=complex)
        psi[0] = 1.0
        for s in slots:
            g = gates[s.gate_id]
            if s.dagger:
                g = g.conj().T
            a = s.qudits[0]
            pre, post = q ** (a - 1), q ** (n - a - 1)
            psi = np.einsum("ij,pjq->piq", g, psi.reshape(pre, 4, post)).reshape(-1)
        return psi

    full = run(layout.slots)
    forward = run(layout.forward_slots)

    def reduced_last(psi):
        m = psi.reshape(4, 2)
        return m.conj().T @ m

    assert np.allclose(reduced_last(full), reduced_last(forward), atol=1e-12)
