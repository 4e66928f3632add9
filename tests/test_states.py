import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpathdiv import linalg, serialize
from qpathdiv.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    InvalidDistribution,
    InvalidShape,
    NotFullRank,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from qpathdiv.linalg import SUPPORT_EPS, HermitianEigen, eig_hermitian, frobenius, hermitian_part
from qpathdiv.metrics import SLD, e_to_m
from qpathdiv.states import (
    RandomSpec,
    _states_from_eig,
    commutation_defect,
    max_mixed,
    random_commuting_pair,
    random_densities,
    random_density,
    random_direction,
    require_full_rank,
    state_from_eig,
    validate_densities,
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


def test_states_from_eig_stack_matches_validate_density():
    stack = _state_stack(3, 3, 800)
    eig = eig_hermitian(stack)
    states = _states_from_eig(stack, eig)
    for k in range(len(stack)):
        single = validate_density(stack[k])
        assert np.array_equal(states[k].matrix, single.matrix)
        assert states[k].min_eigenvalue == eig.eigenvalues[k, 0]
        assert states[k].eig.eigenvalues.tobytes() == eig.eigenvalues[k].tobytes()
    (one,) = _states_from_eig(stack[0], eig_hermitian(stack[0]))
    assert np.array_equal(one.matrix, states[0].matrix)


def test_stacked_checks_name_the_bad_matrix_of_a_stack():
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
            _states_from_eig(stack, linalg._eigh(hermitian_part(stack)))
        assert info.value.defect == pytest.approx(defect, rel=1e-6)
        with pytest.raises(error) as single:
            validate_density(stack[1])
        assert "in the stack" not in str(single.value)
        assert single.value.defect == info.value.defect
    stack = good.copy()
    stack[2, 1, 0] = np.inf
    with pytest.raises(InvalidShape, match=r"non-finite entries \(matrix 2 of 3 in the stack\)"):
        _states_from_eig(stack, eig_hermitian(good))


def test_stacked_checks_report_the_worst_matrix():
    stack = np.stack([np.diag([1.05, -0.05]), np.diag([0.5, 0.5]), np.diag([1.2, -0.2])]).astype(complex)
    with pytest.raises(NotPSD, match=r"-2\.000e-01 below .*\(matrix 2 of 3 in the stack\)"):
        _states_from_eig(stack, eig_hermitian(stack))


def test_validate_densities_of_a_stack_equal_validate_density_of_each_matrix():
    stack = _state_stack(4, 3, 830)
    states = validate_densities(stack)
    assert len(states) == 4
    for state, m in zip(states, stack):
        single = validate_density(m)
        assert state.matrix.tobytes() == single.matrix.tobytes()
        assert state.min_eigenvalue == single.min_eigenvalue
    (one,) = validate_densities(stack[0])
    assert one.matrix.tobytes() == states[0].matrix.tobytes()
    bad = stack.copy()
    bad[2] = np.diag([1.1, -0.05, -0.05])
    with pytest.raises(NotPSD, match=r"\(matrix 2 of 4 in the stack\)"):
        validate_densities(bad)


def test_validate_density_rejects_a_stack_and_an_empty_matrix():
    with pytest.raises(InvalidShape, match="expected a square matrix"):
        validate_density(_state_stack(2, 2, 820))
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        with pytest.raises(InvalidShape, match=r"nonempty square matrix .* got shape \((3, )?0, 0\)"):
            _states_from_eig(empty, HermitianEigen(np.zeros(empty.shape[:-1]), empty))
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


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("floor", [0.05, 1e-3, 1e-8])
def test_random_density_carries_its_decomposition(monkeypatch, floor, dim):
    states = [random_density(RandomSpec(dim, 1000 * dim + seed, floor)) for seed in range(6)]

    def no_further_decomposition(h):
        raise AssertionError("random_density states carry their decomposition")

    monkeypatch.setattr(linalg, "eig_hermitian", no_further_decomposition)
    for state in states:
        eig = state.eig
        assert eig is state.eig and np.array_equal(state.spectrum(), eig.eigenvalues)
        for array in (eig.eigenvalues, eig.eigenvectors):
            with pytest.raises(ValueError):
                array[0] = 0.0
        defect = np.linalg.norm(eig.reconstruct() - state.matrix)
        assert defect <= 1e-10 * np.linalg.norm(state.matrix)
        assert state.min_eigenvalue == eig.eigenvalues[0]
        assert state.min_eigenvalue >= floor - 1e-15


def test_states_built_from_their_decomposition_agree_on_full_rank_and_log():
    # the construction of the test above, 2000 times: the smallest eigenvalue
    # within 3e-16 of SUPPORT_EPS, where eigvalsh and eigh can fall on either
    # side of it; full_rank and log read one spectrum, so they never disagree
    rng = np.random.Generator(np.random.PCG64(2024))
    judged_full_rank = 0
    for k in range(2000):
        dim = 2 + k % 3
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = rng.uniform(0.1, 1.0, dim)
        w[0] = 0.0
        w *= (1.0 - 1e-12) / w.sum()
        w[0] = SUPPORT_EPS + rng.uniform(-3e-16, 3e-16)
        m = hermitian_part((q * w) @ q.conj().T)
        state = state_from_eig(m, eig_hermitian(m))
        try:
            state.eig.log()
        except DomainError:
            assert not state.full_rank
        else:
            assert state.full_rank
            judged_full_rank += 1
    assert 0 < judged_full_rank < 2000


def _family_state(dim: int, seed: int):
    from qpathdiv.divergences import QuantumExponentialFamily

    family = QuantumExponentialFamily(dim)
    return family.state(np.random.Generator(np.random.PCG64(seed)).uniform(-0.8, 0.8, family.k))


def _pinned_states(dim: int, seed: int):
    from qpathdiv.harness import _NEAR_BOUNDARY_FLOORS, _pinned

    base, _ = random_commuting_pair(dim, seed, 0.05)
    return [_pinned(base, floor) for floor in _NEAR_BOUNDARY_FLOORS]


_SPECTRUM_BUILDERS = {
    "family-state": lambda dim, seed: [_family_state(dim, seed)],
    "commuting-pair": lambda dim, seed: list(random_commuting_pair(dim, seed, 0.05)),
    "pinned-near-boundary": _pinned_states,
}


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("builder", sorted(_SPECTRUM_BUILDERS))
def test_states_built_from_their_spectrum_decompose_nothing_more(monkeypatch, builder, dim):
    states = [state for seed in (3, 4, 5) for state in _SPECTRUM_BUILDERS[builder](dim, seed)]

    def refuse(*args, **kwargs):
        raise AssertionError("a state with a known spectrum was decomposed again")

    monkeypatch.setattr(linalg, "_eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for state in states:
        eig = state.eig
        assert state.full_rank and state.min_eigenvalue == eig.eigenvalues[0]
        assert np.all(np.diff(eig.eigenvalues) >= 0) and not eig.eigenvalues.flags.writeable
        assert frobenius(eig.reconstruct() - state.matrix) <= 1e-12
        assert np.isfinite(eig.log()).all()


def test_state_from_eig_runs_every_density_check():
    m = np.diag([0.7, 0.3]).astype(complex)
    eig = HermitianEigen(np.array([0.3, 0.7]), np.eye(2, dtype=complex)[:, ::-1].copy())
    assert state_from_eig(m, eig).min_eigenvalue == 0.3
    bad = m.copy()
    bad[0, 1] = np.nan
    with pytest.raises(InvalidShape, match="non-finite entries"):
        state_from_eig(bad, eig)
    bad = m.copy()
    bad[0, 1] = 1e-6
    with pytest.raises(NotHermitian, match="density matrix is not Hermitian within 1e-10"):
        state_from_eig(bad, eig)
    with pytest.raises(TraceNotOne):
        state_from_eig(2.0 * m, HermitianEigen(2.0 * eig.eigenvalues, eig.eigenvectors))
    with pytest.raises(ConvergenceFailure, match="reconstruction defect"):
        state_from_eig(m, HermitianEigen(np.array([0.3, 0.7]), np.eye(2, dtype=complex)))
    negative = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(NotPSD, match=r"minimum eigenvalue -1\.000e-01") as info:
        state_from_eig(negative, HermitianEigen(np.array([-0.1, 1.1]), np.eye(2, dtype=complex)[:, ::-1].copy()))
    assert info.value.defect == pytest.approx(0.1)
    with pytest.raises(InvalidShape, match="expected a square matrix"):
        state_from_eig(np.stack([m, m]), eig)


@pytest.mark.parametrize("perturbation", [1e-6, np.nan])
@pytest.mark.parametrize("floor", [0.0, 0.3])
def test_random_density_checks_the_lapack_step_once_against_the_state(monkeypatch, floor, perturbation):
    # floor 0 never lifts the Ginibre draw; floor 0.3 at dim 3 always does;
    # a NaN eigenvector gives a NaN reconstruction defect, which fails too
    from qpathdiv import states

    spec = RandomSpec(3, 77, floor)
    assert (random_density(spec).min_eigenvalue >= 0.3 - 1e-12) == (floor > 0)
    eigh = states._eigh
    calls = []

    def perturbed(h):
        eig = eigh(h)
        u = eig.eigenvectors.copy()
        u[:, 0] += perturbation * u[:, 1]
        calls.append(h.shape)
        return HermitianEigen(eig.eigenvalues, u)

    monkeypatch.setattr(states, "_eigh", perturbed)
    with pytest.raises(ConvergenceFailure, match="reconstruction defect"):
        random_density(spec)
    assert calls == [(3, 3)]


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("floors", [(0.0, 0.0), (0.05, 0.05), (1e-3, 1e-3), (0.0, 0.05), (0.05, 1e-3)])
def test_random_densities_equal_random_density_bitwise(dim, floors):
    for seed in range(0, 40, 2):
        specs = [RandomSpec(dim, seed, floors[0]), RandomSpec(dim, seed + 1, floors[1])]
        for state, spec in zip(random_densities(specs), specs):
            alone = random_density(spec)
            assert state.matrix.tobytes() == alone.matrix.tobytes()
            assert state.min_eigenvalue == alone.min_eigenvalue
            assert state.eig.eigenvalues.tobytes() == alone.eig.eigenvalues.tobytes()
            assert state.eig.eigenvectors.tobytes() == alone.eig.eigenvectors.tobytes()
            assert not state.eig.eigenvalues.flags.writeable and not state.eig.eigenvectors.flags.writeable


@pytest.mark.parametrize("corrupt", [0, 1])
@pytest.mark.parametrize("floor", [0.0, 0.3])
def test_random_densities_check_each_state_of_the_stack(monkeypatch, corrupt, floor):
    from qpathdiv import states

    eigh = states._eigh
    calls = []

    def perturbed(h):
        eig = eigh(h)
        u = eig.eigenvectors.copy()
        u[corrupt, :, 0] += 1e-6 * u[corrupt, :, 1]
        calls.append(h.shape)
        return HermitianEigen(eig.eigenvalues, u)

    monkeypatch.setattr(states, "_eigh", perturbed)
    named = rf"reconstruction defect .* \(matrix {corrupt} of 2 in the stack\)"
    with pytest.raises(ConvergenceFailure, match=named):
        random_densities([RandomSpec(3, 78, floor), RandomSpec(3, 79, floor)])
    assert calls == [(2, 3, 3)]


def test_random_densities_need_one_dim():
    with pytest.raises(DimensionMismatch, match=r"dims \[2, 3\]"):
        random_densities([RandomSpec(2, 1), RandomSpec(3, 2)])
    with pytest.raises(DimensionMismatch):
        random_densities([])


def test_psd_check_fails_on_a_nan_eigenvalue():
    from qpathdiv import states

    with pytest.raises(NotPSD, match="minimum eigenvalue nan"):
        states._check_psd(np.array([np.nan, 0.5]))


def _lifted_one_at_a_time(spec: RandomSpec) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and spectrum of random_density(spec) by a floor lift of one
    state at a time, from the state's draw at floor 0 (which never lifts)."""
    drawn = random_density(RandomSpec(spec.dim, spec.seed))
    d, m, w = spec.dim, drawn.matrix, drawn.eig.eigenvalues
    low, floor = float(w[0]), spec.min_eigenvalue
    if low < floor:
        lam = (floor - low) / (1.0 / d - low)
        m = (1.0 - lam) * m + lam * np.eye(d) / d
        w = (1.0 - lam) * w + lam / d
    return hermitian_part(m), w


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_random_densities_mix_lifted_and_unlifted_specs_bitwise(dim):
    # floor 0 never lifts, 0.9 / dim always does, and 1e-3 and 0.05 lift some draws
    floors = (0.0, 0.9 / dim, 1e-3, 0.05)
    specs = [RandomSpec(dim, 300 + k, floors[k % 4]) for k in range(24)]
    lifted = 0
    for state, spec in zip(random_densities(specs), specs):
        alone = random_density(spec)
        assert state.matrix.tobytes() == alone.matrix.tobytes()
        assert state.eig.eigenvalues.tobytes() == alone.eig.eigenvalues.tobytes()
        assert state.eig.eigenvectors.tobytes() == alone.eig.eigenvectors.tobytes()
        m, w = _lifted_one_at_a_time(spec)
        assert state.matrix.tobytes() == m.tobytes() and state.eig.eigenvalues.tobytes() == w.tobytes()
        assert state.min_eigenvalue >= spec.min_eigenvalue - 1e-15
        lifted += abs(state.min_eigenvalue - spec.min_eigenvalue) <= 1e-15
    assert 6 <= lifted <= 18  # the six floor-0 specs are never lifted


def test_states_rebuilt_from_a_basis_check_that_it_is_unitary():
    from qpathdiv.states import _checked_basis, _state_in_basis, state_from_basis

    # U = diag(1, sqrt 2) is not unitary, yet U diag(0.2, 0.4) U^* = diag(0.2, 0.8) is a
    # state that U and (0.2, 0.4) rebuild exactly: a reconstruction check passes it,
    # though 0.4 is not an eigenvalue of it
    u = np.diag([1.0, np.sqrt(2.0)]).astype(complex)
    w = np.array([0.2, 0.4])
    m = (u * w) @ u.conj().T
    assert state_from_eig(m, HermitianEigen(w, u)).eig.eigenvalues[1] == 0.4
    for build in (lambda: state_from_basis(m, HermitianEigen(w, u)), lambda: _state_in_basis(u, w)):
        with pytest.raises(ConvergenceFailure, match=r"not unitary: U\^\* U misses I by 1\.000e\+00"):
            build()
    q = np.eye(2, dtype=complex)
    good = _state_in_basis(q, w / w.sum())
    assert good.matrix.tobytes() == ((q * (w / w.sum())) @ q.conj().T).tobytes()
    stack = np.stack([m, good.matrix])
    with pytest.raises(ConvergenceFailure, match=r"\(matrix 0 of 2 in the stack\)"):
        _checked_basis(stack, HermitianEigen(np.stack([w, w / w.sum()]), np.stack([u, q])))
