import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from enqode import ansatz, pipeline
from enqode.ansatz import AnsatzConfig, ansatz_physical, build, cy_pairs, invert_epilogue
from enqode.circuit import GateKind
from enqode.symbolic import OverlapModel


def test_config_validation():
    with pytest.raises(ValueError):
        AnsatzConfig(1, 3)
    with pytest.raises(ValueError):
        AnsatzConfig(4, 0)
    assert AnsatzConfig(8, 8).num_params == 64


def test_smallest_instance_structure():
    bundle = build(AnsatzConfig(2, 1))
    kinds = [g.kind for g in bundle.logical_circuit.gates]
    # prologue RX x2, one RZ per qubit, one CY, epilogue RX+RY per qubit
    assert kinds.count(GateKind.RZ) == 2
    assert kinds.count(GateKind.CY) == 1
    assert bundle.num_params == 2
    slots = [g.slot for g in bundle.logical_circuit.gates if g.kind is GateKind.RZ]
    assert slots == [0, 1]


def test_eight_qubit_eight_layer_counts():
    bundle = build(AnsatzConfig(8, 8))
    assert bundle.num_params == 64
    cy_count = sum(g.kind is GateKind.CY for g in bundle.logical_circuit.gates)
    assert cy_count == 28  # 4 even-layer pairs and 3 odd-layer pairs, 4 layers each


def test_cy_pairs_alternate():
    assert cy_pairs(0, 8) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert cy_pairs(1, 8) == [(1, 2), (3, 4), (5, 6)]


def test_build_is_deterministic():
    a = build(AnsatzConfig(5, 3)).logical_circuit
    b = build(AnsatzConfig(5, 3)).logical_circuit
    assert a.gates == b.gates
    assert a.num_params == b.num_params


def test_physical_circuit_and_embedding_share_one_build(monkeypatch):
    builds = []  # every build starts from init_plus_i, whoever calls it
    real = ansatz.init_plus_i
    monkeypatch.setattr(ansatz, "init_plus_i", lambda n: builds.append(n) or real(n))
    config = AnsatzConfig(3, 2)
    pipeline._bundle_for.cache_clear()
    bundle = pipeline._bundle_for(config)
    physical = ansatz_physical(config)
    assert builds == [3]
    assert physical.num_params == bundle.logical_circuit.num_params
    pipeline._bundle_for.cache_clear()
    ansatz_physical(config)
    assert builds == [3, 3]
    pipeline._bundle_for.cache_clear()


@given(st.integers(2, 6), st.integers(1, 5))
def test_all_cy_pairs_chain_adjacent(num_qubits, layers):
    bundle = build(AnsatzConfig(num_qubits, layers))
    for gate in bundle.logical_circuit.gates:
        if gate.kind is GateKind.CY:
            control, target = gate.qubits
            assert target - control == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_dense_simulation_equals_epilogue_of_symbolic(num_qubits, layers, seed):
    rng = np.random.default_rng(seed)
    bundle = build(AnsatzConfig(num_qubits, layers))
    theta = rng.uniform(-np.pi, np.pi, size=bundle.num_params)
    dense = oracles.simulate(bundle.logical_circuit, theta)
    symbolic = bundle.symbolic.evaluate(theta)
    for q, factor in enumerate(bundle.epilogue_factors):
        symbolic = oracles.embed_one(factor, q, num_qubits) @ symbolic
    assert np.max(np.abs(dense - symbolic)) <= 1e-10


def test_invert_epilogue_is_unit_norm_and_consistent():
    rng = np.random.default_rng(11)
    bundle = build(AnsatzConfig(2, 2))
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    t = invert_epilogue(bundle, x)
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-12
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=bundle.num_params)
        lhs = abs(np.vdot(t, bundle.symbolic.evaluate(theta)))
        rhs = abs(np.vdot(x, oracles.simulate(bundle.logical_circuit, theta)))
        assert abs(lhs - rhs) <= 1e-10


def test_invert_epilogue_rejects_unnormalized():
    bundle = build(AnsatzConfig(2, 1))
    with pytest.raises(ValueError):
        invert_epilogue(bundle, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        invert_epilogue(bundle, np.ones(8) / np.sqrt(8))
    with pytest.raises(ValueError, match="normalized"):
        invert_epilogue(bundle, np.array([1.0, np.nan, 0.0, 0.0]))


def test_generator_output_has_zero_loss_at_generator():
    # theta = 0 prepares the uniform vector up to global phase, a real
    # target in the circuit's image; the pulled-back objective vanishes
    # there, so cold starts always begin in a known basin.
    for num_qubits, layers in [(2, 1), (3, 2), (4, 3)]:
        bundle = build(AnsatzConfig(num_qubits, layers))
        theta0 = np.zeros(bundle.num_params)
        full = oracles.simulate(bundle.logical_circuit, theta0)
        uniform = np.full(full.size, full.size**-0.5)
        assert np.allclose(np.abs(full), uniform, atol=1e-12)
        model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, uniform))
        assert model.loss(theta0) <= 1e-12
