import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpathdiv.errors import ConvergenceFailure, DomainError, NotHermitian
from qpathdiv.linalg import (
    apply_fn,
    eig_hermitian,
    herm_log,
    herm_power,
    hermitian_part,
    log_sum_exp,
    require_hermitian,
    tensor_product,
)

from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eig_identity():
    eig = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])
    assert np.allclose(eig.eigenvectors @ eig.eigenvectors.conj().T, np.eye(2))


def test_eig_sorted_ascending():
    eig = eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(eig.eigenvalues, [1.0, 3.0])


def test_eig_pauli_x():
    # characteristic polynomial l^2 - 1 by hand
    eig = eig_hermitian(PAULI_X)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_rejects_non_finite():
    with pytest.raises(DomainError):
        eig_hermitian(np.array([[np.inf, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_eig_reconstruction(dim, seed):
    h = random_hermitian(dim, seed)
    eig = eig_hermitian(h)
    assert np.linalg.norm(eig.reconstruct() - h) <= 1e-10 * max(np.linalg.norm(h), 1e-300)


def test_apply_fn_exp_of_zero():
    assert np.allclose(apply_fn(np.zeros((3, 3), dtype=complex), np.exp), np.eye(3))


def test_apply_fn_log_diagonal():
    h = np.diag([np.e, np.e**2]).astype(complex)
    assert np.allclose(apply_fn(h, np.log), np.diag([1.0, 2.0]), atol=1e-12)


def test_apply_fn_sqrt_squares_back():
    h = np.array([[2, 1], [1, 2]], dtype=complex)
    root = apply_fn(h, np.sqrt)
    assert np.linalg.norm(root @ root - h) <= 1e-10


def test_apply_fn_log_domain_error():
    h = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(DomainError):
        apply_fn(h, np.log)


def test_herm_log_support_threshold():
    with pytest.raises(DomainError):
        herm_log(np.diag([1.0, 1e-13]).astype(complex))


def test_herm_power_negative_needs_positive_spectrum():
    with pytest.raises(DomainError):
        herm_power(np.diag([1.0, 0.0]).astype(complex), -0.5)


def test_herm_power_fractional_accepts_zero_eigenvalue():
    h = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(herm_power(h, 0.5), h)
    with pytest.raises(DomainError, match="-1.000e-06"):
        herm_power(np.diag([1.0, -1e-6]).astype(complex), 0.5)


def test_herm_power_zero_is_identity():
    assert np.array_equal(herm_power(random_hermitian(3, 5), 0.0), np.eye(3))


@given(st.integers(min_value=0, max_value=10_000))
def test_exp_log_roundtrip(seed):
    h = random_hermitian(3, seed)
    h *= 5.0 / max(np.abs(np.linalg.eigvalsh(h)).max(), 1.0)  # spectrum in [-5, 5]
    exp_h = apply_fn(h, np.exp)
    assert np.linalg.norm(apply_fn(exp_h, np.log) - h) <= 1e-8
    assert np.linalg.norm(eig_hermitian(exp_h).log() - h) <= 1e-8


@given(st.integers(min_value=0, max_value=10_000))
def test_commuting_composition(seed):
    h = random_hermitian(3, seed)
    lhs = apply_fn(h, np.exp) @ apply_fn(h, np.sin)
    rhs = apply_fn(h, lambda v: np.exp(v) * np.sin(v))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_hermitian_part_fixes_hermitian():
    h = random_hermitian(3, 7)
    assert np.allclose(hermitian_part(h), h)


def test_hermitian_part_kills_skew():
    s = np.array([[0, 1], [-1, 0]], dtype=complex)  # skew-Hermitian
    assert np.allclose(hermitian_part(s), 0)


def test_hermitian_part_worked_example():
    x = np.array([[0, 2], [0, 0]], dtype=complex)
    assert np.allclose(hermitian_part(x), PAULI_X)


def test_tensor_identity():
    assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal():
    out = tensor_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


@given(st.integers(min_value=0, max_value=10_000))
def test_tensor_trace_multiplicative(seed):
    a = random_hermitian(2, seed)
    b = random_hermitian(2, seed + 1)
    assert np.isclose(
        np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b), atol=1e-12
    )


@given(st.integers(min_value=0, max_value=10_000))
def test_tensor_mixed_product(seed):
    a, b = random_hermitian(2, seed), random_hermitian(2, seed + 1)
    c, d = random_hermitian(2, seed + 2), random_hermitian(2, seed + 3)
    lhs = tensor_product(a, b) @ tensor_product(c, d)
    rhs = tensor_product(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


def test_convergence_failure_is_exported():
    assert issubclass(ConvergenceFailure, Exception)


def _stack(dim: int, count: int, seed: int) -> np.ndarray:
    return np.stack([random_hermitian(dim, seed + k) for k in range(count)])


@pytest.mark.parametrize("dim", [2, 3, 16])
def test_eig_stack_matches_single_matrices(dim):
    h = _stack(dim, 5, 300) + 3.0 * np.eye(dim) * np.sqrt(dim)  # positive definite
    eig = eig_hermitian(h)
    assert eig.eigenvalues.shape == (5, dim) and eig.dim == dim
    for k in range(5):
        single = eig_hermitian(h[k])
        assert np.array_equal(eig.eigenvalues[k], single.eigenvalues)
        assert np.allclose(eig.reconstruct()[k], h[k], atol=1e-12)
        assert np.allclose(eig.power(0.5)[k], single.power(0.5), atol=1e-12)
        assert np.allclose(eig.power(-1.0)[k], single.power(-1.0), atol=1e-12)
        assert np.allclose(eig.log()[k], single.log(), atol=1e-12)
    assert np.array_equal(eig.power(0), np.broadcast_to(np.eye(dim), h.shape))


def test_eig_stack_rejects_one_non_hermitian_slice():
    h = _stack(3, 4, 310)
    h[2, 0, 1] += 1e-6
    with pytest.raises(NotHermitian, match=r"\(matrix 2 of 4 in the stack\)") as info:
        eig_hermitian(h)
    assert info.value.defect == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_require_hermitian_rejects_non_finite_entries(bad):
    # |M - M^*| is NaN at a NaN or diagonal inf entry, and a NaN defect must fail the check
    for i, j in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex)
        m[i, j] = m[j, i] = bad
        with pytest.raises(NotHermitian, match="direction has non-finite entries"):
            require_hermitian(m, name="direction")
    stack = np.stack([np.eye(2, dtype=complex), m])
    with pytest.raises(NotHermitian, match=r"non-finite entries \(matrix 1 of 2 in the stack\)"):
        require_hermitian(stack)


def test_eig_stack_rejects_one_non_finite_slice():
    h = _stack(3, 4, 320)
    h[1, 2, 2] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        eig_hermitian(h)


def test_eig_stack_reports_worst_reconstruction_defect(monkeypatch):
    h = _stack(3, 4, 330)
    eigh = np.linalg.eigh

    def corrupted(m):
        w, u = eigh(m)
        w = w.copy()
        w[1, 0] += 1e-6  # only slice 1 misses its matrix
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    # the shifted eigenvalue puts slice 1 off by 1e-6 in Frobenius norm
    with pytest.raises(ConvergenceFailure, match=r"defect 1\.000e-06 .* \(matrix 1 of 4 "):
        eig_hermitian(h)


def test_log_sum_exp_stack_matches_rows():
    x = np.array([[0.1, -2.0, 3.5], [800.0, 799.0, -5.0]])
    rows = [log_sum_exp(row) for row in x]
    assert np.array_equal(log_sum_exp(x), np.array(rows))
    assert rows[1] == 800.0 + np.log(1.0 + np.exp(-1.0) + np.exp(-805.0))
