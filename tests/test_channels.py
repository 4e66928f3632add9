import numpy as np
import pytest

from qpathdiv.channels import (
    Povm,
    QuantumChannel,
    apply_channel,
    measure,
    partial_trace,
    random_channel,
    random_povm,
    sandwich_pvm,
)
from qpathdiv.divergences import classical_kl, e_divergence_closed, quantum_relative_entropy
from qpathdiv.errors import (
    DimensionMismatch,
    InvalidShape,
    NotFullRank,
    NotTracePreserving,
    PovmIncomplete,
)
from qpathdiv.linalg import tensor_product
from qpathdiv.states import (
    RandomSpec,
    max_mixed,
    random_commuting_pair,
    random_density,
    validate_density,
)
from qpathdiv.transport import GeodesicKind


def test_identity_channel():
    rho = random_density(RandomSpec(3, 1, 0.05))
    channel = QuantumChannel(kraus=(np.eye(3, dtype=complex),))
    assert np.allclose(apply_channel(channel, rho).matrix, rho.matrix)


def test_full_depolarization():
    # Kraus set |i><j| / sqrt(n) sends every state to I/n
    n = 2
    kraus = tuple(
        np.outer(np.eye(n)[:, i], np.eye(n)[:, j]) / np.sqrt(n)
        for i in range(n)
        for j in range(n)
    )
    channel = QuantumChannel(kraus=kraus)
    rho = random_density(RandomSpec(n, 2, 0.05))
    assert np.allclose(apply_channel(channel, rho).matrix, max_mixed(n).matrix, atol=1e-12)


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(NotTracePreserving):
        QuantumChannel(kraus=(0.5 * np.eye(2, dtype=complex),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_rejects_a_non_finite_kraus_operator(bad):
    kraus = np.eye(2, dtype=complex) / np.sqrt(2)
    bad_kraus = kraus.copy()
    bad_kraus[0, 0] = bad
    with pytest.raises(InvalidShape, match="Kraus operator 1 has non-finite entries"):
        QuantumChannel(kraus=(kraus, bad_kraus))


def test_channel_rejects_mixed_shapes():
    with pytest.raises(InvalidShape):
        QuantumChannel(kraus=(np.eye(2, dtype=complex), np.eye(3, dtype=complex)))


def test_random_channel_single_kraus_is_unitary():
    channel = random_channel(2, 2, 1, seed=9)
    (k,) = channel.kraus
    assert np.allclose(k @ k.conj().T, np.eye(2), atol=1e-12)


def test_random_channel_deterministic():
    a = random_channel(3, 2, 2, seed=4)
    b = random_channel(3, 2, 2, seed=4)
    for x, y in zip(a.kraus, b.kraus):
        assert np.array_equal(x, y)


def test_random_channel_tp_defect():
    channel = random_channel(2, 2, 4, seed=3)
    total = sum(k.conj().T @ k for k in channel.kraus)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-10


def test_random_channel_shape_guard():
    with pytest.raises(InvalidShape):
        random_channel(4, 1, 2, seed=0)  # 1*2 < 4


def test_random_channel_output_validates():
    rho = random_density(RandomSpec(3, 7, 0.05))
    out = apply_channel(random_channel(3, 3, 3, seed=8), rho)
    assert validate_density(out.matrix, tol=1e-9).dim == 3


def test_partial_trace_product_state():
    a = random_density(RandomSpec(2, 11, 0.05))
    b = random_density(RandomSpec(2, 12, 0.05))
    joint = validate_density(tensor_product(a.matrix, b.matrix))
    assert np.allclose(partial_trace(joint, (2, 2), "A").matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 2), "B").matrix, b.matrix, atol=1e-12)


def test_partial_trace_max_mixed():
    assert np.allclose(partial_trace(max_mixed(4), (2, 2), "A").matrix, np.eye(2) / 2)


def test_partial_trace_bell_mixture():
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell[:, :] = np.outer(v, v)
    mixed = validate_density(0.9 * bell + 0.1 * np.eye(4) / 4)
    assert np.allclose(partial_trace(mixed, (2, 2), "A").matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_shape_guard():
    with pytest.raises(InvalidShape):
        partial_trace(max_mixed(4), (2, 3), "A")
    with pytest.raises(InvalidShape):
        partial_trace(max_mixed(4), (2, 2), "C")


def test_povm_validation():
    with pytest.raises(PovmIncomplete):
        Povm(elements=(np.eye(2) / 2,))
    with pytest.raises(InvalidShape):
        Povm(elements=())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_povm_rejects_non_finite_elements(bad):
    # eigvalsh of a NaN matrix can return finite garbage, so no PSD check can see it
    m = np.diag([bad, 1.0]).astype(complex)
    with pytest.raises(InvalidShape, match="POVM element 0 has non-finite entries"):
        Povm(elements=(m, np.eye(2) - m))


def test_measure_own_eigenbasis_gives_spectrum():
    rho = random_density(RandomSpec(3, 21, 0.05))
    from qpathdiv.linalg import eig_hermitian

    eig = eig_hermitian(rho.matrix)
    projectors = tuple(
        np.outer(eig.eigenvectors[:, i], eig.eigenvectors[:, i].conj()) for i in range(3)
    )
    outcome = measure(rho, Povm(elements=projectors))
    assert np.allclose(np.sort(outcome), np.sort(eig.eigenvalues), atol=1e-12)


def test_measure_trivial_povm():
    rho = random_density(RandomSpec(2, 22, 0.05))
    assert np.allclose(measure(rho, Povm(elements=(np.eye(2, dtype=complex),))), [1.0])


def test_measure_max_mixed_linearity():
    povm = random_povm(3, seed=23)
    outcome = measure(max_mixed(3), povm)
    expected = np.array([np.trace(m).real / 3 for m in povm.elements])
    assert np.allclose(outcome, expected, atol=1e-12)


def test_measure_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        measure(max_mixed(3), Povm(elements=(np.eye(2, dtype=complex),)))


def test_random_povm_nonprojective_and_complete():
    povm = random_povm(2, seed=31)
    total = sum(povm.elements)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-9
    # Heisenberg images of rank-1 projectors are generally not projectors
    m = povm.elements[0]
    assert np.linalg.norm(m @ m - m) > 1e-6


def test_sandwich_pvm_self():
    sigma = random_density(RandomSpec(2, 41, 0.05))
    pvm = sandwich_pvm(sigma, sigma)
    induced = classical_kl(measure(sigma, pvm), measure(sigma, pvm))
    assert induced == 0.0


def test_sandwich_pvm_commuting():
    rho, sigma = random_commuting_pair(3, 42, 0.05)
    pvm = sandwich_pvm(rho, sigma)
    induced = classical_kl(measure(rho, pvm), measure(sigma, pvm))
    assert np.isclose(induced, quantum_relative_entropy(rho, sigma), atol=1e-9)


def test_sandwich_pvm_achieves_s_divergence(pair_2x2):
    rho, sigma = pair_2x2
    pvm = sandwich_pvm(rho, sigma)
    induced = classical_kl(measure(rho, pvm), measure(sigma, pvm))
    target = e_divergence_closed(GeodesicKind.SLD, rho, sigma)
    assert abs(induced - target) <= 1e-8


def test_sandwich_pvm_pure_rho():
    # only sigma must be full rank: the inner square root sees a zero eigenvalue
    pure = validate_density(np.diag([1.0, 0.0]))
    sigma = random_density(RandomSpec(2, 43, 0.05))
    pvm = sandwich_pvm(pure, sigma)
    assert np.max(np.abs(sum(pvm.elements) - np.eye(2))) <= 1e-12
    for m in pvm.elements:
        assert np.max(np.abs(m @ m - m)) <= 1e-12


def test_sandwich_pvm_requires_full_rank_sigma():
    pure = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFullRank):
        sandwich_pvm(max_mixed(2), pure)


def test_measurement_monotonicity(pair_3x3):
    rho, sigma = pair_3x3
    d = quantum_relative_entropy(rho, sigma)
    for seed in range(5):
        povm = random_povm(3, seed=seed)
        induced = classical_kl(measure(rho, povm), measure(sigma, povm))
        assert d >= induced - 1e-8


def test_m_divergence_monotone_under_channels(pair_2x2):
    from qpathdiv.divergences import m_divergence
    from qpathdiv.metrics import BOGOLJUBOV, HALF, RLD, SLD

    rho, sigma = pair_2x2
    channel = random_channel(2, 2, 2, seed=17)
    out_rho, out_sigma = apply_channel(channel, rho), apply_channel(channel, sigma)
    for kind in (SLD, BOGOLJUBOV, RLD, HALF):
        assert m_divergence(kind, rho, sigma) >= m_divergence(kind, out_rho, out_sigma) - 1e-7
