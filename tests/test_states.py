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
    NotFullRank,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from qpathdiv.linalg import SUPPORT_EPS, hermitian_part
from qpathdiv.metrics import SLD, e_to_m
from qpathdiv.states import (
    RandomSpec,
    check_densities,
    commutation_defect,
    max_mixed,
    random_commuting_pair,
    random_density,
    random_direction,
    require_full_rank,
    validate_density,
    validate_distribution,
)
from qpathdiv.transport import GeodesicKind, make_geodesic, solve_auxiliary_direction

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


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, 0.5, np.nan], [np.inf, -np.inf, 1.0]])
def test_validate_distribution_rejects_non_finite_weights(weights):
    with pytest.raises(InvalidDistribution, match="weights must be finite"):
        validate_distribution(np.array(weights))


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
    for dim in (0, 1):
        with pytest.raises(InvalidShape, match=f"traceless direction needs dim >= 2, got dim {dim}$"):
            random_direction(dim, 17)
    l = random_direction(2, 17)
    assert abs(np.trace(l)) <= 1e-15 and np.isclose(np.linalg.norm(l), 1.0)


def _state_stack(n: int, dim: int, seed: int) -> np.ndarray:
    return np.stack([random_density(RandomSpec(dim, seed + i, 0.05)).matrix for i in range(n)])


def test_check_densities_stack_matches_validate_density():
    stack = _state_stack(3, 3, 800)
    h, low = check_densities(stack)
    for k in range(len(stack)):
        single = validate_density(stack[k])
        assert np.array_equal(h[k], single.matrix)
        assert low[k] == np.linalg.eigvalsh(single.matrix).min()
    h_one, low_one = check_densities(stack[0])
    assert np.array_equal(h_one, h[0]) and low_one.shape == ()


def test_check_densities_names_the_bad_matrix_of_a_stack():
    good = _state_stack(3, 2, 810)
    cases = [
        (NotHermitian, 1e-6, lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6)),
        (TraceNotOne, 0.2, lambda m: m.__setitem__((0, 0), m[0, 0] + 0.2)),
        (NotPSD, 0.1, lambda m: m.__setitem__(slice(None), np.diag([1.1, -0.1]))),
    ]
    for error, defect, corrupt in cases:
        stack = good.copy()
        corrupt(stack[1])
        with pytest.raises(error, match=r"\(matrix 1 of 3 in the stack\)") as info:
            check_densities(stack)
        assert info.value.defect == pytest.approx(defect, rel=1e-6)
        with pytest.raises(error) as single:
            validate_density(stack[1])
        assert "in the stack" not in str(single.value)
        assert single.value.defect == info.value.defect
    stack = good.copy()
    stack[2, 1, 0] = np.inf
    with pytest.raises(InvalidShape, match=r"non-finite entries \(matrix 2 of 3 in the stack\)"):
        check_densities(stack)


def test_check_densities_reports_the_worst_matrix():
    stack = np.stack([np.diag([1.05, -0.05]), np.diag([0.5, 0.5]), np.diag([1.2, -0.2])]).astype(complex)
    with pytest.raises(NotPSD, match=r"-2\.000e-01 below .*\(matrix 2 of 3 in the stack\)"):
        check_densities(stack)


def test_validate_density_rejects_a_stack_and_an_empty_matrix():
    with pytest.raises(InvalidShape, match="expected a square matrix"):
        validate_density(_state_stack(2, 2, 820))
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        with pytest.raises(InvalidShape, match=r"nonempty square matrix .* got shape \((3, )?0, 0\)"):
            check_densities(empty)
    with pytest.raises(InvalidShape):
        validate_density(np.zeros((0, 0)))


def test_pair_checks_name_the_state_and_its_minimum_eigenvalue():
    from qpathdiv.channels import sandwich_pvm
    from qpathdiv.divergences import (
        bs_divergence,
        e_divergence_closed,
        m_divergence,
        m_divergence_detail,
        quantum_relative_entropy,
    )
    from qpathdiv.metrics import SLD, fisher_info_mixture
    from qpathdiv.transport import GeodesicKind, m_geodesic, solve_direction

    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    full = validate_density(np.diag([0.4, 0.6]))
    both = [
        bs_divergence,
        lambda r, s: e_divergence_closed(GeodesicKind.RLD, r, s),
        lambda r, s: m_divergence(SLD, r, s),
        lambda r, s: m_divergence_detail((SLD, SLD), r, s),
        lambda r, s: solve_direction(GeodesicKind.BOGOLJUBOV, r, s),
    ]
    sigma_only = [quantum_relative_entropy, sandwich_pvm]
    for name, rho, sigma, entries in (("rho", thin, full, both), ("sigma", full, thin, both + sigma_only)):
        for entry in entries:
            with pytest.raises(NotFullRank, match=rf"^{name} has minimum eigenvalue 5\.000e-13, at or below 1e-12") as info:
                entry(rho, sigma)
            assert info.value.defect == pytest.approx(5e-13, rel=1e-3)
    three = max_mixed(3)
    dims = both + sigma_only + [
        commutation_defect,
        lambda r, s: fisher_info_mixture(r, s, SLD, 0.5),
        lambda r, s: m_geodesic(r, s, 0.5),
    ]
    for entry in dims:
        with pytest.raises(DimensionMismatch, match="dims 2 and 3 differ"):
            entry(full, three)


@pytest.mark.parametrize(
    "name, entry",
    [
        ("base", lambda s: make_geodesic(GeodesicKind.SLD, s, np.diag([1.0, -1.0]))),
        ("sigma", lambda s: solve_auxiliary_direction(GeodesicKind.RLD, s, PAULI_X)),
        ("rho", lambda s: e_to_m(s, SLD, PAULI_X)),
    ],
    ids=["make_geodesic", "solve_auxiliary_direction", "e_to_m"],
)
def test_single_state_checks_name_the_state_and_carry_its_minimum_eigenvalue(name, entry):
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    with pytest.raises(NotFullRank, match=rf"^{name} has minimum eigenvalue 5\.000e-13, at or below 1e-12 ") as info:
        entry(thin)
    assert info.value.defect == 5e-13


def test_not_full_rank_reports_the_eigenvalue_validation_judged():
    # smallest eigenvalue within 3e-16 of SUPPORT_EPS in a random basis, dims
    # 2-4: eigvalsh (validation) and eigh can fall on either side of the
    # threshold, and the defect must be the value that full_rank was judged by
    rng = np.random.Generator(np.random.PCG64(2024))
    raised = []
    for k in range(1000):
        dim = 2 + k % 3
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = rng.uniform(0.1, 1.0, dim)
        w[0] = 0.0
        w *= (1.0 - 1e-12) / w.sum()
        w[0] = SUPPORT_EPS + rng.uniform(-3e-16, 3e-16)
        state = validate_density(hermitian_part((q * w) @ q.conj().T))
        try:
            require_full_rank(state, "rho")
        except NotFullRank as exc:
            raised.append((state, exc))
    assert 0 < len(raised) < 1000
    assert max(exc.defect for _, exc in raised) <= SUPPORT_EPS
    for state, exc in raised:
        assert exc.defect == state.min_eigenvalue and not state.full_rank
        assert str(exc).startswith(f"rho has minimum eigenvalue {state.min_eigenvalue:.3e}, at or below 1e-12")
