import re
from pathlib import Path

import numpy as np
import pytest

from qpathdiv.divergences import (
    ConvexFunctionModel,
    ExponentialFamily,
    QuadratureConfig,
    QuantumExponentialFamily,
    adaptive_gauss_legendre,
    bregman_divergence,
    bs_divergence,
    classical_kl,
    e_divergence_closed,
    e_divergence_quadrature,
    legendre_maximizer,
    legendre_model,
    legendre_transform,
    m_divergence,
    quantum_relative_entropy,
    traceless_hermitian_basis,
    von_neumann_entropy,
)
from qpathdiv.errors import (
    DomainError,
    InvalidShape,
    NotFullRank,
    NotInRange,
    QuadratureNotConverged,
    SupportViolation,
)
from qpathdiv.linalg import tensor_product
from qpathdiv.serialize import load_state
from qpathdiv.states import (
    RandomSpec,
    commutation_defect,
    random_commuting_pair,
    random_density,
    validate_density,
)
from qpathdiv.transport import GeodesicKind
from qpathdiv.metrics import BOGOLJUBOV, HALF, RLD, SLD

FIXTURES = Path(__file__).parent / "fixtures"
ALL_GEO = list(GeodesicKind)
ALL_METRIC = [SLD, BOGOLJUBOV, RLD, HALF]

# frozen scalar oracle: 0.7 log(0.7/0.5) + 0.3 log(0.3/0.5)
KL_73_55 = 0.08228287850505178


def _spectra_in_common_basis(rho, sigma):
    from qpathdiv.linalg import eig_hermitian

    eig = eig_hermitian(rho.matrix + 0.618 * sigma.matrix)
    u = eig.eigenvectors
    return (
        np.diagonal(u.conj().T @ rho.matrix @ u).real,
        np.diagonal(u.conj().T @ sigma.matrix @ u).real,
    )


def test_relative_entropy_self_zero(pair_3x3):
    rho, _ = pair_3x3
    assert abs(quantum_relative_entropy(rho, rho)) <= 1e-12


def test_relative_entropy_worked_example():
    rho = validate_density(np.diag([0.7, 0.3]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    assert np.isclose(quantum_relative_entropy(rho, sigma), KL_73_55, atol=1e-14)


def test_relative_entropy_nonnegative(pair_2x2):
    rho, sigma = pair_2x2
    assert quantum_relative_entropy(rho, sigma) >= -1e-10


def test_relative_entropy_rank_deficient_rho_allowed():
    pure = validate_density(np.diag([1.0, 0.0]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    assert np.isclose(quantum_relative_entropy(pure, sigma), np.log(2.0), atol=1e-12)


def test_relative_entropy_requires_full_rank_sigma():
    pure = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFullRank):
        quantum_relative_entropy(validate_density(np.eye(2) / 2), pure)


def test_relative_entropy_tensor_additive(pair_2x2):
    rho, sigma = pair_2x2
    joint_rho = validate_density(tensor_product(rho.matrix, rho.matrix))
    joint_sigma = validate_density(tensor_product(sigma.matrix, sigma.matrix))
    assert np.isclose(
        quantum_relative_entropy(joint_rho, joint_sigma),
        2.0 * quantum_relative_entropy(rho, sigma),
        atol=1e-9,
    )


def test_bs_self_zero(pair_3x3):
    rho, _ = pair_3x3
    assert abs(bs_divergence(rho, rho)) <= 1e-12


def test_bs_commuting_equals_relative_entropy():
    rho, sigma = random_commuting_pair(3, 11, 0.05)
    assert np.isclose(
        bs_divergence(rho, sigma), quantum_relative_entropy(rho, sigma), atol=1e-10
    )


def test_bs_strictly_above_for_noncommuting(pair_2x2):
    rho, sigma = pair_2x2
    assert commutation_defect(rho, sigma) > 1e-8
    assert bs_divergence(rho, sigma) > quantum_relative_entropy(rho, sigma) + 1e-6


@pytest.mark.parametrize("kind", ALL_GEO)
def test_e_closed_self_zero(kind, pair_3x3):
    rho, _ = pair_3x3
    assert abs(e_divergence_closed(kind, rho, rho)) <= 1e-11


def test_e_closed_commuting_reduction():
    rho, sigma = random_commuting_pair(3, 21, 0.05)
    p, q = _spectra_in_common_basis(rho, sigma)
    kl = classical_kl(p, q)
    for kind in ALL_GEO:
        assert np.isclose(e_divergence_closed(kind, rho, sigma), kl, atol=1e-10)


def test_e_closed_sld_below_relative_entropy(pair_3x3):
    rho, sigma = pair_3x3
    assert (
        e_divergence_closed(GeodesicKind.SLD, rho, sigma)
        <= quantum_relative_entropy(rho, sigma) + 1e-9
    )


def test_e_closed_delegations(pair_2x2):
    rho, sigma = pair_2x2
    assert e_divergence_closed(GeodesicKind.BOGOLJUBOV, rho, sigma) == pytest.approx(
        quantum_relative_entropy(rho, sigma), abs=1e-14
    )
    assert e_divergence_closed(GeodesicKind.RLD, rho, sigma) == pytest.approx(
        bs_divergence(rho, sigma), abs=1e-14
    )


def test_e_quadrature_self_zero(pair_2x2):
    rho, _ = pair_2x2
    for kind in ALL_GEO:
        assert abs(e_divergence_quadrature(kind, rho, rho)) <= 1e-9


def test_e_quadrature_bogoljubov_matches_relative_entropy(pair_3x3):
    rho, sigma = pair_3x3
    quad = e_divergence_quadrature(GeodesicKind.BOGOLJUBOV, rho, sigma)
    assert abs(quad - quantum_relative_entropy(rho, sigma)) <= 1e-6


@pytest.mark.parametrize("kind", ALL_GEO)
def test_e_quadrature_matches_closed_to_roundoff(kind):
    # exact moment-function curvature leaves only quadrature and roundoff error
    rho = load_state(FIXTURES / "rho_2x2_seed42.json")
    sigma = load_state(FIXTURES / "sigma_2x2_seed42.json")
    quad = e_divergence_quadrature(kind, rho, sigma)
    assert abs(quad - e_divergence_closed(kind, rho, sigma)) <= 1e-13


def test_e_quadrature_half_matches_closed(pair_3x3):
    rho, sigma = pair_3x3
    quad = e_divergence_quadrature(GeodesicKind.HALF, rho, sigma)
    closed = e_divergence_closed(GeodesicKind.HALF, rho, sigma)
    assert abs(quad - closed) <= 1e-6


def test_m_divergence_self_zero(pair_2x2):
    rho, _ = pair_2x2
    for kind in ALL_METRIC:
        assert abs(m_divergence(kind, rho, rho)) <= 1e-10


def test_m_divergence_bogoljubov_is_relative_entropy(pair_3x3):
    rho, sigma = pair_3x3
    assert abs(
        m_divergence(BOGOLJUBOV, rho, sigma) - quantum_relative_entropy(rho, sigma)
    ) <= 1e-6


def test_m_divergence_rld_is_bs(pair_3x3):
    rho, sigma = pair_3x3
    assert abs(m_divergence(RLD, rho, sigma) - bs_divergence(rho, sigma)) <= 1e-6


def test_m_divergence_orientation_commuting():
    # rho sits at t = 0: the integral must give KL(spec rho || spec sigma)
    rho = validate_density(np.diag([0.7, 0.3]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    assert np.isclose(m_divergence(BOGOLJUBOV, rho, sigma), KL_73_55, atol=1e-10)
    reverse = m_divergence(BOGOLJUBOV, sigma, rho)
    assert not np.isclose(reverse, KL_73_55, atol=1e-4)  # asymmetric functional


def test_m_divergence_requires_full_rank():
    pure = validate_density(np.diag([1.0, 0.0]))
    other = validate_density(np.eye(2) / 2)
    with pytest.raises(NotFullRank):
        m_divergence(SLD, pure, other)


def test_inequality_chain(pair_3x3):
    rho, sigma = pair_3x3
    d = quantum_relative_entropy(rho, sigma)
    assert e_divergence_closed(GeodesicKind.SLD, rho, sigma) <= d + 1e-8
    assert d <= bs_divergence(rho, sigma) + 1e-8


def test_rld_m_divergence_dominates(pair_2x2):
    rho, sigma = pair_2x2
    top = m_divergence(RLD, rho, sigma)
    for kind in (SLD, BOGOLJUBOV, HALF):
        assert top >= m_divergence(kind, rho, sigma) - 1e-8


def test_sld_m_divergence_below_relative_entropy(pair_2x2):
    rho, sigma = pair_2x2
    assert m_divergence(SLD, rho, sigma) <= quantum_relative_entropy(rho, sigma) + 1e-8


def test_cross_representation_identity(pair_2x2):
    rho, sigma = pair_2x2
    bar = bs_divergence(rho, sigma)
    assert abs(e_divergence_closed(GeodesicKind.RLD, rho, sigma) - bar) <= 1e-6
    assert abs(m_divergence(RLD, rho, sigma) - bar) <= 1e-6


@pytest.mark.parametrize("kind", ALL_GEO)
def test_e_additivity(kind):
    r1 = random_density(RandomSpec(2, 31, 0.05))
    s1 = random_density(RandomSpec(2, 32, 0.05))
    r2 = random_density(RandomSpec(2, 33, 0.05))
    s2 = random_density(RandomSpec(2, 34, 0.05))
    joint = e_divergence_closed(
        kind,
        validate_density(tensor_product(r1.matrix, r2.matrix)),
        validate_density(tensor_product(s1.matrix, s2.matrix)),
    )
    split = e_divergence_closed(kind, r1, s1) + e_divergence_closed(kind, r2, s2)
    assert abs(joint - split) <= 1e-6


# --- classical layer ------------------------------------------------------


def test_classical_kl_basics():
    p = np.array([0.7, 0.3])
    q = np.array([0.5, 0.5])
    assert classical_kl(p, p) == 0.0
    assert np.isclose(classical_kl(p, q), KL_73_55, atol=1e-15)


def test_classical_kl_zero_mass_ok():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert np.isclose(classical_kl(p, q), np.log(2.0), atol=1e-15)


def test_classical_kl_support_violation():
    with pytest.raises(SupportViolation):
        classical_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_classical_mixture_path_integral_trapezoid_oracle():
    # brute-force 1e5-node trapezoid of t * J_t along (1-t) p + t q
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    ts = np.linspace(0.0, 1.0, 100_001)
    mix = (1 - ts)[:, None] * p[None, :] + ts[:, None] * q[None, :]
    info = ((q - p)[None, :] ** 2 / mix).sum(axis=1)
    integral = np.trapezoid(info * ts, ts)
    assert abs(integral - classical_kl(p, q)) <= 1e-6


def test_adaptive_quadrature_polynomial():
    value, nodes = adaptive_gauss_legendre(lambda t: 3.0 * t**2)
    assert np.isclose(value, 1.0, atol=1e-12)
    assert nodes == 64


def test_adaptive_quadrature_not_converged():
    # a discontinuous integrand cannot satisfy a 1e-14 agreement demand
    config = QuadratureConfig(nodes=4, rel_tol=1e-14, max_nodes=16)
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gauss_legendre(lambda t: (t > 0.37).astype(float), config)
    # the message reports the last measured gap between estimates
    reported = float(re.search(r"differ by (\S+) at 16 nodes", str(info.value)).group(1))
    assert reported > 0.0


def test_leggauss_runs_once_per_node_count(monkeypatch):
    from qpathdiv import divergences

    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    divergences._gl_nodes.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    rho = random_density(RandomSpec(2, 901, 0.05))
    sigma = random_density(RandomSpec(2, 902, 0.05))
    for _ in range(3):
        m_divergence(BOGOLJUBOV, rho, sigma)
    assert calls and len(calls) == len(set(calls))
    t, half_w = divergences._gl_nodes(calls[0])
    for table in (t, half_w):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=1)
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=8, rel_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=512, max_nodes=512)


def test_bregman_zero_at_equal_points():
    model = ConvexFunctionModel(dim=1, value=lambda t: float(t[0] ** 2 / 2), grad=lambda t: t)
    theta = np.array([0.8])
    assert bregman_divergence(model, theta, theta) == 0.0


def test_bregman_quadratic():
    model = ConvexFunctionModel(dim=1, value=lambda t: float(t[0] ** 2 / 2), grad=lambda t: t)
    assert np.isclose(
        bregman_divergence(model, np.array([1.5]), np.array([0.5])), 0.5, atol=1e-12
    )


def test_bregman_exponential_family_equals_kl():
    rng = np.random.Generator(np.random.PCG64(5))
    family = ExponentialFamily(
        base=np.array([0.5, 0.3, 0.2]), features=rng.uniform(-1, 1, size=(2, 3))
    )
    theta = np.array([0.4, -0.7])
    theta_bar = np.array([-0.2, 0.9])
    lhs = bregman_divergence(family.model(), theta_bar, theta)
    rhs = classical_kl(family.distribution(theta_bar), family.distribution(theta))
    assert abs(lhs - rhs) <= 1e-8


def test_bregman_max_and_path_characterizations():
    # gradient-gap form vs sup form vs integral form, on a 2-parameter family
    rng = np.random.Generator(np.random.PCG64(8))
    family = ExponentialFamily(
        base=np.array([0.4, 0.35, 0.25]), features=rng.uniform(-1, 1, size=(2, 3))
    )
    model = family.model()
    theta = np.array([0.3, -0.4])
    theta_bar = np.array([-0.5, 0.6])
    direct = bregman_divergence(model, theta_bar, theta)

    eta_bar = model.gradient(theta_bar)
    box = np.array([[-6.0, 6.0], [-6.0, 6.0]])
    sup_form = (
        legendre_transform(model, eta_bar, box)
        - float(eta_bar @ theta)
        + model.value(theta)
    )
    assert abs(sup_form - direct) <= 1e-6

    delta = theta_bar - theta

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.array([t * float(delta @ model.hessian(theta + t * delta) @ delta) for t in ts])

    path_form, _ = adaptive_gauss_legendre(integrand, QuadratureConfig(rel_tol=1e-9))
    assert abs(path_form - direct) <= 1e-6


def test_legendre_quadratic_self_dual():
    model = ConvexFunctionModel(dim=1, value=lambda t: float(t[0] ** 2 / 2), grad=lambda t: t)
    box = np.array([[-10.0, 10.0]])
    for eta in (-1.2, 0.0, 2.5):
        assert np.isclose(
            legendre_transform(model, np.array([eta]), box), eta**2 / 2, atol=1e-9
        )


def test_legendre_binomial_family():
    # mu(t) = log(1 + e^t); dual is the negative binary entropy
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: float(np.logaddexp(0.0, t[0])),
        grad=lambda t: np.array([1.0 / (1.0 + np.exp(-t[0]))]),
    )
    box = np.array([[-30.0, 30.0]])
    for eta in (0.2, 0.3, 0.5, 0.8):
        expected = eta * np.log(eta) + (1 - eta) * np.log(1 - eta)
        assert np.isclose(legendre_transform(model, np.array([eta]), box), expected, atol=1e-9)


def test_legendre_duality_round_trip():
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: float(np.logaddexp(0.0, t[0])),
        grad=lambda t: np.array([1.0 / (1.0 + np.exp(-t[0]))]),
    )
    box = np.array([[-30.0, 30.0]])
    nu = legendre_model(model, box)
    eta_box = np.array([[1e-3, 1 - 1e-3]])
    for theta in (-1.0, 0.0, 1.2):
        recovered = legendre_transform(nu, np.array([theta]), eta_box)
        assert abs(recovered - model.value(np.array([theta]))) <= 1e-6


def test_traceless_basis_and_dual():
    # Tr X_i X_j = 2 delta_ij is what makes X_i / 2 the dual basis
    for dim in (2, 3, 4):
        basis = traceless_hermitian_basis(dim)
        assert len(basis) == dim * dim - 1
        for x in basis:
            assert abs(np.trace(x)) <= 1e-12
            assert np.linalg.norm(x - x.conj().T) <= 1e-12
        gram = np.array([[np.trace(a @ b) for b in basis] for a in basis])
        assert np.abs(gram - 2.0 * np.eye(len(basis))).max() <= 1e-12


def test_quantum_exponential_family_round_trip():
    family = QuantumExponentialFamily(2)
    theta = np.array([0.3, -0.5, 0.7])
    assert family.moment(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    state = family.state(theta)
    eta = family.mixture_coordinates(state)
    assert np.allclose(eta, family.mean_parameters(theta), atol=1e-12)
    rebuilt = family.state_from_mixture(eta)
    assert np.linalg.norm(rebuilt.matrix - state.matrix) <= 1e-10
    for dim in (2, 3, 4):
        family = QuantumExponentialFamily(dim)
        for seed in range(5):
            rho = random_density(RandomSpec(dim, 70_000 + 10 * dim + seed, 0.05))
            rebuilt = family.state_from_mixture(family.mixture_coordinates(rho))
            assert np.abs(rebuilt.matrix - rho.matrix).max() <= 1e-12


def test_quantum_exponential_family_needs_dim_two():
    for dim in (0, 1):
        with pytest.raises(InvalidShape):
            QuantumExponentialFamily(dim)


def test_e_divergence_rld_matches_bs_divergence():
    worst = 0.0
    for trial in range(50):
        dim = 2 + trial % 3
        rho = random_density(RandomSpec(dim, 50_000 + trial, 0.05))
        sigma = random_density(RandomSpec(dim, 60_000 + trial, 0.05))
        worst = max(worst, abs(e_divergence_closed(GeodesicKind.RLD, rho, sigma) - bs_divergence(rho, sigma)))
    assert worst <= 1e-12


def test_legendre_not_in_range():
    # gradient of log(1 + e^t) lives in (0, 1); eta = 1.5 is unreachable
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: float(np.logaddexp(0.0, t[0])),
        grad=lambda t: np.array([1.0 / (1.0 + np.exp(-t[0]))]),
    )
    with pytest.raises(NotInRange):
        legendre_transform(model, np.array([1.5]), np.array([[-20.0, 20.0]]))


def test_legendre_maximizer_is_dual_parameter():
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: float(np.logaddexp(0.0, t[0])),
        grad=lambda t: np.array([1.0 / (1.0 + np.exp(-t[0]))]),
    )
    box = np.array([[-30.0, 30.0]])
    eta = 0.73
    theta = legendre_maximizer(model, np.array([eta]), box)
    assert np.isclose(theta[0], np.log(eta / (1 - eta)), atol=1e-8)


def test_commuting_reduction_all_divergences():
    rho, sigma = random_commuting_pair(3, 41, 0.05)
    p, q = _spectra_in_common_basis(rho, sigma)
    kl = classical_kl(p, q)
    tight = QuadratureConfig(nodes=64, rel_tol=1e-12, max_nodes=1024)
    values = [quantum_relative_entropy(rho, sigma), bs_divergence(rho, sigma)]
    values += [e_divergence_closed(k, rho, sigma) for k in ALL_GEO]
    values += [m_divergence(k, rho, sigma, tight) for k in ALL_METRIC]
    assert max(abs(v - kl) for v in values) <= 1e-10


def test_inequality_chain_zero_slack_at_equal_states(pair_2x2):
    rho, _ = pair_2x2
    d = quantum_relative_entropy(rho, rho)
    e_s = e_divergence_closed(GeodesicKind.SLD, rho, rho)
    bar = bs_divergence(rho, rho)
    assert abs(d - e_s) <= 1e-10 and abs(bar - d) <= 1e-10
    assert abs(d) <= 1e-10


def test_convex_model_hessian_psd_on_grid():
    rng = np.random.Generator(np.random.PCG64(13))
    family = ExponentialFamily(
        base=np.array([0.45, 0.35, 0.2]), features=rng.uniform(-1, 1, size=(2, 3))
    )
    model = family.model()
    for a in np.linspace(-1.0, 1.0, 5):
        for b in np.linspace(-1.0, 1.0, 5):
            low = np.linalg.eigvalsh(model.hessian(np.array([a, b]))).min()
            assert low >= -1e-8


def test_entropy_helper():
    assert np.isclose(
        von_neumann_entropy(validate_density(np.diag([0.5, 0.5]))), np.log(2), atol=1e-12
    )
    assert von_neumann_entropy(validate_density(np.diag([1.0, 0.0]))) == 0.0


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("kind", list(GeodesicKind))
def test_e_divergence_quadrature_matches_node_by_node(kind, dim):
    from qpathdiv.transport import MomentFunction, solve_direction

    rho = random_density(RandomSpec(dim, 911, 0.05))
    sigma = random_density(RandomSpec(dim, 912, 0.05))
    mf = MomentFunction(solve_direction(kind, rho, sigma))
    old, _ = adaptive_gauss_legendre(
        lambda ths: np.array([th * mf.derivative(float(th), 2) for th in ths])
    )
    assert e_divergence_quadrature(kind, rho, sigma) == old


@pytest.mark.parametrize("dim", [2, 16])
def test_kind_b_integrand_is_one_eig_per_block(monkeypatch, dim):
    from qpathdiv import divergences, metrics, transport

    floor = 0.05 if dim < 16 else 0.005
    rho = random_density(RandomSpec(dim, 921, floor))
    sigma = random_density(RandomSpec(dim, 922, floor))
    stacks, estimates = [], []
    eig, estimate = transport.eig_hermitian, divergences._gl_estimate

    def counted_eig(h):
        stacks.append(h.shape[0])
        return eig(h)

    def counted_estimate(f, n):
        estimates.append(n)
        return estimate(f, n)

    monkeypatch.setattr(transport, "eig_hermitian", counted_eig)
    monkeypatch.setattr(divergences, "_gl_estimate", counted_estimate)
    e_divergence_quadrature(GeodesicKind.BOGOLJUBOV, rho, sigma)
    block = metrics._STACK_ENTRIES // dim**2
    expected = [1]  # solve_direction transports once to check its target
    for n in estimates:
        expected += [min(block, n - i) for i in range(0, n, block)]
    assert stacks == expected
    assert len(stacks) - 1 == sum(-(-n * dim**2 // metrics._STACK_ENTRIES) for n in estimates)
