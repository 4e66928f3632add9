import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpathdiv import serialize
from qpathdiv.errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidShape,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from qpathdiv.states import (
    RandomSpec,
    commutation_defect,
    max_mixed,
    random_commuting_pair,
    random_density,
    random_direction,
    validate_density,
    validate_distribution,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_validate_maximally_mixed():
    dm = validate_density(np.eye(2) / 2)
    assert dm.full_rank


def test_validate_pure_state_not_full_rank():
    dm = validate_density(np.diag([1.0, 0.0]))
    assert not dm.full_rank


def test_validate_trace_not_one():
    with pytest.raises(TraceNotOne):
        validate_density(np.diag([0.6, 0.6]))


def test_validate_not_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_validate_not_psd():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.1, -0.1]))


def test_validate_rejects_rectangular():
    with pytest.raises(InvalidShape):
        validate_density(np.ones((2, 3)))


def test_random_density_deterministic():
    spec = RandomSpec(2, 7, 0.05)
    a = random_density(spec)
    b = random_density(spec)
    assert np.array_equal(a.matrix, b.matrix)


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=5))
def test_random_density_validates(seed, dim):
    dm = random_density(RandomSpec(dim, seed, 0.01))
    again = validate_density(dm.matrix, tol=1e-10)
    assert again.full_rank


def test_density_eig_is_cached_and_read_only():
    rho = random_density(RandomSpec(3, 17, 0.05))
    assert rho.eig is rho.eig
    assert np.array_equal(rho.spectrum(), rho.eig.eigenvalues)
    with pytest.raises(ValueError):
        rho.eig.eigenvalues[0] = 0.5
    with pytest.raises(ValueError):
        rho.eig.eigenvectors[0, 0] = 1.0


def test_random_density_floor():
    dm = random_density(RandomSpec(4, 1, 0.1))
    assert np.linalg.eigvalsh(dm.matrix).min() >= 0.1 - 1e-12


def test_random_spec_rejects_bad_floor():
    with pytest.raises(InvalidShape):
        RandomSpec(2, 0, 0.6)  # 0.6 >= 1/2


def test_max_mixed():
    assert np.allclose(max_mixed(2).matrix, np.diag([0.5, 0.5]))
    assert np.allclose(max_mixed(3).matrix, np.eye(3) / 3)


def test_max_mixed_entropy():
    from qpathdiv.divergences import von_neumann_entropy

    for dim in (2, 3, 5):
        assert np.isclose(von_neumann_entropy(max_mixed(dim)), np.log(dim), atol=1e-12)


def test_commutation_defect_self():
    dm = random_density(RandomSpec(3, 5, 0.05))
    assert commutation_defect(dm, dm) <= 1e-14


def test_commutation_defect_diagonal_pair():
    a = validate_density(np.diag([0.7, 0.3]))
    b = validate_density(np.diag([0.5, 0.5]))
    assert commutation_defect(a, b) <= 1e-14


def test_commutation_defect_noncommuting():
    a = validate_density(np.diag([0.7, 0.3]))
    b = validate_density((np.eye(2) + 0.5 * PAULI_X) / 2)
    assert commutation_defect(a, b) > 0.01


def test_commutation_defect_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        commutation_defect(max_mixed(2), max_mixed(3))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_commuting_pair(dim):
    rho, sigma = random_commuting_pair(dim, 99, 0.02)
    assert commutation_defect(rho, sigma) <= 1e-12
    assert rho.full_rank and sigma.full_rank


def test_random_direction_traceless_hermitian():
    l = random_direction(3, 17)
    assert np.abs(np.trace(l)) <= 1e-12
    assert np.linalg.norm(l - l.conj().T) <= 1e-14
    assert np.isclose(np.linalg.norm(l), 1.0)


def test_validate_distribution():
    w = validate_distribution(np.array([0.25, 0.75]))
    assert np.allclose(w, [0.25, 0.75])
    with pytest.raises(InvalidDistribution):
        validate_distribution(np.array([0.6, 0.6]))
    with pytest.raises(InvalidDistribution):
        validate_distribution(np.array([1.2, -0.2]))


def test_state_json_roundtrip(tmp_path):
    dm = random_density(RandomSpec(3, 21, 0.05))
    path = tmp_path / "state.json"
    serialize.save_state(path, dm)
    back = serialize.load_state(path)
    assert np.allclose(back.matrix, dm.matrix, atol=1e-15)
    obj = json.loads(path.read_text())
    assert set(obj) == {"dim", "re", "im"}
    assert obj["dim"] == 3


def test_matrix_json_rejects_malformed():
    with pytest.raises(InvalidShape):
        serialize.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


def test_random_direction_dim_one_is_rejected():
    with pytest.raises(InvalidShape, match="dim >= 2, got dim 1"):
        random_direction(1, 17)
    with pytest.raises(InvalidShape, match="dim >= 1, got dim 0"):
        random_direction(0, 17, traceless=False)
    assert np.isclose(abs(random_direction(1, 17, traceless=False)[0, 0]), 1.0)
