import math
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
    bregman_divergences,
    bs_divergence,
    bs_divergences,
    classical_kl,
    e_divergence_closed,
    e_divergence_quadrature,
    e_divergences,
    e_divergences_closed,
    legendre_model,
    m_divergence,
    m_divergence_detail,
    m_divergences,
    quantum_relative_entropy,
    relative_entropies,
    traceless_hermitian_basis,
    von_neumann_entropy,
)
from qpathdiv.errors import (
    DimensionMismatch,
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
from qpathdiv.transport import GeodesicKind, sandwich_records, solve_directions
from qpathdiv.metrics import BOGOLJUBOV, HALF, RLD, SLD, lambda_kind

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


@pytest.mark.parametrize(
    "p, q",
    [([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [np.nan, 1.0]), ([0.0, 1.0], [np.inf, 0.5])],
    ids=["nan-p", "nan-q", "inf-q-off-support"],
)
def test_classical_kl_rejects_non_finite_inputs(p, q):
    # NaN fails p > cutoff, so unchecked a NaN in p would drop out of the sum
    with pytest.raises(DomainError, match="p and q must be finite"):
        classical_kl(np.array(p), np.array(q))


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
    assert nodes == 57  # the first call's two estimates agree


@pytest.mark.parametrize(
    "f, exact",
    [
        (lambda t: 3.0 * t**2, 1.0),
        (np.exp, np.e - 1.0),
        (lambda t: t / (t + 1e-10), 1.0 - 1e-10 * np.log1p(1e10)),
        (np.sqrt, 2.0 / 3.0),
        (lambda t: -np.log(t), 1.0),
    ],
)
def test_adaptive_quadrature_known_integrals(f, exact):
    value, _ = adaptive_gauss_legendre(f, QuadratureConfig(rel_tol=1e-12))
    assert abs(value - exact) <= 1e-12


def test_tanh_sinh_levels_nest():
    from qpathdiv import divergences

    for level in range(6):
        nodes = [divergences._ts_level(k)[0] for k in range(level + 1)]
        union = np.concatenate(nodes)
        # disjoint levels whose union is the step-2^-level rule
        assert len(np.unique(union[union < 0.5])) == np.sum(union < 0.5)
        assert len(union) == divergences._ts_nodes(level)
        u = np.arange(-divergences._ts_nodes(level) // 2 + 1, divergences._ts_nodes(level) // 2 + 1) / 2.0**level
        assert np.array_equal(np.sort(union), 1.0 / (1.0 + np.exp(-np.pi * np.sinh(u))))
    assert [divergences._ts_nodes(k) for k in range(3, 7)] == [57, 113, 225, 449]


def test_adaptive_quadrature_evaluates_each_node_once():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return 1.0 / (1.0 + 25.0 * (t - 0.5) ** 2)

    value, nodes = adaptive_gauss_legendre(f)
    assert abs(value - np.arctan(2.5) / 2.5) <= 1e-8
    # the first call is levels 0..3 and each later call one new level
    assert sizes == [57, 56, 112] and sum(sizes) == nodes


def test_adaptive_quadrature_not_converged():
    # a discontinuous integrand cannot satisfy a 1e-14 agreement demand
    config = QuadratureConfig(nodes=4, rel_tol=1e-14, max_nodes=29)
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gauss_legendre(lambda t: (t > 0.37).astype(float), config)
    # the message reports the last measured gap between estimates
    reported = float(re.search(r"differ by (\S+) at 29 nodes", str(info.value)).group(1))
    assert reported > 0.0


def test_level_tables_are_computed_once_and_read_only():
    from qpathdiv import divergences

    divergences._ts_levels.cache_clear()
    divergences._ts_level.cache_clear()
    rho = random_density(RandomSpec(2, 901, 0.05))
    sigma = random_density(RandomSpec(2, 902, 0.05))
    for _ in range(3):
        m_divergence(BOGOLJUBOV, rho, sigma)
    # each call reads the first-call table of levels 0..3 (57 nodes), then
    # level 4 (113 nodes); only the first call computes them
    assert m_divergence_detail(BOGOLJUBOV, rho, sigma)[1] == 113
    first = divergences._ts_levels.cache_info()
    assert first.misses == first.currsize == 1 and first.hits == 3
    levels = divergences._ts_level.cache_info()
    assert levels.misses == levels.currsize == 5 and levels.hits == 3
    nodes, weights, offsets = divergences._ts_levels(3)
    assert nodes.size == weights.size == 57 and list(offsets) == [0, 7, 15, 29]
    tables = [nodes, weights, offsets] + [table for k in range(5) for table in divergences._ts_level(k)]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=1)
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=8, rel_tol=-1.0)
    for rel_tol in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"rel_tol must be finite and positive, got {rel_tol}"):
            QuadratureConfig(rel_tol=rel_tol)
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=512, max_nodes=512)
    with pytest.raises(
        DomainError, match=r"\(max_nodes=112; the first estimate takes 57 nodes, one level beyond it 113\)"
    ):
        QuadratureConfig(nodes=32, max_nodes=112)
    assert QuadratureConfig(nodes=32, max_nodes=113).max_nodes == 113


def test_bregman_zero_at_equal_points():
    model = ConvexFunctionModel(dim=1, value=lambda t: t[..., 0] ** 2 / 2, grad=lambda t: t)
    theta = np.array([0.8])
    assert bregman_divergence(model, theta, theta) == 0.0


def test_bregman_quadratic():
    model = ConvexFunctionModel(dim=1, value=lambda t: t[..., 0] ** 2 / 2, grad=lambda t: t)
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
        legendre_model(model, box).value(eta_bar)
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
    model = ConvexFunctionModel(dim=1, value=lambda t: t[..., 0] ** 2 / 2, grad=lambda t: t)
    box = np.array([[-10.0, 10.0]])
    for eta in (-1.2, 0.0, 2.5):
        assert np.isclose(
            legendre_model(model, box).value(np.array([eta])), eta**2 / 2, atol=1e-9
        )


def test_legendre_binomial_family():
    # mu(t) = log(1 + e^t); dual is the negative binary entropy
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: np.logaddexp(0.0, t[..., 0]),
        grad=lambda t: 1.0 / (1.0 + np.exp(-t)),
    )
    box = np.array([[-30.0, 30.0]])
    for eta in (0.2, 0.3, 0.5, 0.8):
        expected = eta * np.log(eta) + (1 - eta) * np.log(1 - eta)
        assert np.isclose(legendre_model(model, box).value(np.array([eta])), expected, atol=1e-9)


def test_legendre_duality_round_trip():
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: np.logaddexp(0.0, t[..., 0]),
        grad=lambda t: 1.0 / (1.0 + np.exp(-t)),
    )
    box = np.array([[-30.0, 30.0]])
    nu = legendre_model(model, box)
    eta_box = np.array([[1e-3, 1 - 1e-3]])
    for theta in (-1.0, 0.0, 1.2):
        recovered = legendre_model(nu, eta_box).value(np.array([theta]))
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


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_traceless_basis_is_one_read_only_stack_in_gell_mann_order(dim):
    basis = traceless_hermitian_basis(dim)
    assert basis.shape == (dim * dim - 1, dim, dim) and basis.dtype == complex
    assert not basis.flags.writeable
    # the symmetric and then the antisymmetric element of each i < j, then one diagonal element per level
    expected = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for upper, lower in ((1.0, 1.0), (-1j, 1j)):
                x = np.zeros((dim, dim), dtype=complex)
                x[i, j], x[j, i] = upper, lower
                expected.append(x)
    for level in range(1, dim):
        d = np.zeros(dim)
        d[:level] = 1.0
        d[level] = -level
        expected.append(np.diag(d * np.sqrt(2.0 / (level * (level + 1)))).astype(complex))
    assert basis.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_family_generator_and_coordinates_of_a_stack_equal_each_point_bitwise(dim):
    family = QuantumExponentialFamily(dim)
    thetas = np.random.Generator(np.random.PCG64(dim)).uniform(-0.8, 0.8, size=(6, family.k))
    thetas[0, 0] = 0.0
    generators = family._generator(thetas)
    assert generators.shape == (6, dim, dim)
    for theta, g in zip(thetas, generators):
        # the basis added one element at a time, in basis order
        loop = np.zeros((dim, dim), dtype=complex)
        for t, x in zip(theta, family.basis):
            loop = loop + t * x
        assert g.tobytes() == family._generator(theta).tobytes() == loop.tobytes()
    rhos = np.array([random_density(RandomSpec(dim, 900 + k, 0.05)).matrix for k in range(6)])
    coordinates = family._coordinates(rhos)
    assert coordinates.shape == (6, family.k)
    for rho, eta in zip(rhos, coordinates):
        loop = np.array([np.trace(rho @ x).real for x in family.basis])
        assert eta.tobytes() == family._coordinates(rho).tobytes() == loop.tobytes()


def test_quantum_exponential_family_round_trip():
    family = QuantumExponentialFamily(2)
    theta = np.array([0.3, -0.5, 0.7])
    assert family.moment(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    state = family.state(theta)
    eta = family.mixture_coordinates(state)
    assert np.allclose(eta, family.mean_parameters(theta), atol=1e-12)

    def from_mixture(family, eta):
        # I / dim + sum_i eta_i X_i / 2: Tr X_i X_j = 2 delta_ij, so the X_i / 2 are the dual basis
        return np.eye(family.dim) / family.dim + sum(e * x for e, x in zip(eta, family.basis)) / 2.0

    assert np.linalg.norm(from_mixture(family, eta) - state.matrix) <= 1e-10
    for dim in (2, 3, 4):
        family = QuantumExponentialFamily(dim)
        for seed in range(5):
            rho = random_density(RandomSpec(dim, 70_000 + 10 * dim + seed, 0.05))
            rebuilt = from_mixture(family, family.mixture_coordinates(rho))
            assert np.abs(rebuilt - rho.matrix).max() <= 1e-12


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
        value=lambda t: np.logaddexp(0.0, t[..., 0]),
        grad=lambda t: 1.0 / (1.0 + np.exp(-t)),
    )
    with pytest.raises(NotInRange, match=r"^Newton ends 3\.900e\+11 outside the box \(measured defect 3\.900000e\+11\)$"):
        legendre_model(model, np.array([[-20.0, 20.0]])).value(np.array([1.5]))


def test_legendre_maximizer_is_dual_parameter():
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: np.logaddexp(0.0, t[..., 0]),
        grad=lambda t: 1.0 / (1.0 + np.exp(-t)),
    )
    box = np.array([[-30.0, 30.0]])
    eta = 0.73
    theta = legendre_model(model, box).gradient(np.array([eta]))
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
    from qpathdiv import divergences, transport

    floor = 0.05 if dim < 16 else 0.005
    rho = random_density(RandomSpec(dim, 921, floor))
    sigma = random_density(RandomSpec(dim, 922, floor))
    stacks = []
    eig = transport.eig_hermitian

    def counted_eig(h):
        stacks.append(h.shape[0])
        return eig(h)

    monkeypatch.setattr(transport, "eig_hermitian", counted_eig)
    calls = _record_integrand_calls(monkeypatch, divergences)
    e_divergence_quadrature(GeodesicKind.BOGOLJUBOV, rho, sigma)
    # solve_direction transports once to check its target; then one stack per call
    assert calls[0] == 57 and stacks == [1] + calls


def _record_integrand_calls(monkeypatch, divergences) -> list[int]:
    """Patch divergences.adaptive_gauss_legendre to record the size of every
    array it passes to its integrand."""
    sizes: list[int] = []
    quadrature = divergences.adaptive_gauss_legendre

    def recorded(f, *args):
        def counted(t):
            sizes.append(t.size)
            return f(t)

        return quadrature(counted, *args)

    monkeypatch.setattr(divergences, "adaptive_gauss_legendre", recorded)
    return sizes


SHARED_KINDS = (SLD, BOGOLJUBOV, RLD, HALF, lambda_kind(0.3))


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_m_divergence_kind_tuple_matches_one_kind_calls(dim):
    floor = 0.05 if dim < 16 else 0.005
    rho = random_density(RandomSpec(dim, 931 + dim, floor))
    sigma = random_density(RandomSpec(dim, 941 + dim, floor))
    for config in (QuadratureConfig(), QuadratureConfig(nodes=64, rel_tol=1e-12, max_nodes=1024)):
        shared = m_divergence_detail(SHARED_KINDS, rho, sigma, config)
        assert shared == tuple(m_divergence_detail(kind, rho, sigma, config) for kind in SHARED_KINDS)
        assert shared[1][0] == m_divergence(BOGOLJUBOV, rho, sigma, config)


def test_m_divergence_kinds_freeze_at_their_own_node_counts():
    # a pair on which the kinds need different refinement
    rho = random_density(RandomSpec(3, 116, 1e-3))
    sigma = random_density(RandomSpec(3, 1116, 1e-3))
    shared = m_divergence_detail(tuple(ALL_METRIC), rho, sigma)
    assert [nodes for _, nodes in shared] == [113, 57, 113, 57]
    assert list(shared) == [m_divergence_detail(kind, rho, sigma) for kind in ALL_METRIC]


@pytest.mark.parametrize("dim", [2, 16])
def test_m_path_is_one_eig_per_block_per_estimate(monkeypatch, dim):
    from qpathdiv import divergences, metrics

    floor = 0.05 if dim < 16 else 0.005
    rho = random_density(RandomSpec(dim, 951, floor))
    sigma = random_density(RandomSpec(dim, 952, floor))
    stacks = []
    eig = metrics.eig_hermitian

    def counted_eig(h):
        stacks.append(h.shape[0])
        return eig(h)

    monkeypatch.setattr(metrics, "eig_hermitian", counted_eig)
    calls = _record_integrand_calls(monkeypatch, divergences)
    for kinds in ((SLD,), tuple(ALL_METRIC), SHARED_KINDS):
        stacks.clear()
        calls.clear()
        shared = m_divergence_detail(kinds, rho, sigma)
        assert calls[0] == 57 and sum(calls) == max(nodes for _, nodes in shared)
        # one stack of all the call's mixture states per integrand call
        assert stacks == calls


def test_m_divergence_rejects_empty_kind_tuple(pair_2x2):
    with pytest.raises(InvalidShape, match="at least one metric kind"):
        m_divergence_detail((), *pair_2x2)


def test_m_divergence_kind_tuple_not_full_rank_report():
    # rho is not full rank: the tuple form rejects the pair as one kind does
    rho = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    sigma = validate_density(np.diag([0.4, 0.6]))
    reports = []
    for kind in (SLD, tuple(ALL_METRIC)):
        with pytest.raises(NotFullRank) as info:
            m_divergence_detail(kind, rho, sigma)
        reports.append((str(info.value), info.value.defect))
    assert reports[0] == reports[1]


def test_adaptive_quadrature_rows_freeze_and_are_not_read_again():
    sizes = []

    def rows(t):
        sizes.append(t.size)
        # a polynomial, a wide and a sharp Runge bump, one per row
        every = np.array([3.0 * t**2, 1.0 / (1.0 + 4.0 * (t - 0.5) ** 2), 1.0 / (1.0 + 100.0 * (t - 0.5) ** 2)])
        # a row's values after the call that froze it must not be read
        every[: sum(n in (28, 56) for n in sizes[:-1])] = np.nan
        return every

    pairs, nodes = adaptive_gauss_legendre(rows, QuadratureConfig(nodes=4, rel_tol=1e-10, max_nodes=4096))
    (poly, poly_nodes), (wide, wide_nodes), (bump, bump_nodes) = pairs
    assert (poly_nodes, wide_nodes, bump_nodes, nodes) == (57, 113, 449, 449)
    assert sizes == [15, 14, 28, 56, 112, 224]
    assert abs(poly - 1.0) <= 1e-14 and abs(wide - np.pi / 4.0) <= 1e-14
    assert abs(bump - np.arctan(5.0) / 5.0) <= 1e-10
    # a (k, n) array gives the same pairs, each equal to its row alone
    array_pairs, _ = adaptive_gauss_legendre(
        lambda t: np.array([3.0 * t**2, np.exp(t)]), QuadratureConfig(nodes=4, rel_tol=1e-10)
    )
    assert array_pairs == (
        adaptive_gauss_legendre(lambda t: 3.0 * t**2, QuadratureConfig(nodes=4, rel_tol=1e-10)),
        adaptive_gauss_legendre(np.exp, QuadratureConfig(nodes=4, rel_tol=1e-10)),
    )


def test_adaptive_quadrature_names_each_row_not_converged():
    config = QuadratureConfig(nodes=4, rel_tol=1e-14, max_nodes=113)
    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gauss_legendre(
            lambda t: np.array([3.0 * t**2, (t > 0.37).astype(float), (t > 0.61).astype(float)]),
            config,
            ("poly", "step-a", "step-b"),
        )
    message = str(info.value)
    assert "poly" not in message
    for label in ("step-a", "step-b"):
        gap = float(re.search(label + r": estimates still differ by (\S+) at 113 nodes", message).group(1))
        assert gap > 0.0


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_e_quadrature_decomposes_g_once(monkeypatch, kind):
    # G = 2 log F is read off F's kept decomposition, so on a fresh pair the
    # closed form and the quadrature decompose G never; of X = s rho s with
    # s = sigma^{1/2-2p} and F = X^{1/2} sandwiched by sigma^{p-1/2}, kind s
    # decomposes X and F once each, kind r (F = X^{1/2}) X once and F never,
    # and kind half (X = rho, which keeps its decomposition) F once
    from qpathdiv import linalg
    from qpathdiv.linalg import hermitian_part
    from qpathdiv.transport import sandwich_record, solve_direction

    rho = random_density(RandomSpec(3, 961, 0.05))
    sigma = random_density(RandomSpec(3, 962, 0.05))
    decomposed = []
    eigh = linalg._eigh

    def counted(h):
        decomposed.append(np.array(h))
        return eigh(h)

    monkeypatch.setattr(linalg, "_eigh", counted)
    closed = e_divergence_closed(kind, rho, sigma)
    quad = e_divergence_quadrature(kind, rho, sigma)
    inner = sigma.eig.power(0.5 - 2.0 * kind.sandwich_power)
    x = hermitian_part(inner @ rho.matrix @ inner)
    f = sandwich_record(kind, rho, sigma).matrix
    gen = solve_direction(kind, rho, sigma).aux_direction
    expected = {GeodesicKind.SLD: (1, 1), GeodesicKind.RLD: (1, 0), GeodesicKind.HALF: (0, 1)}[kind]
    assert tuple(sum(np.array_equal(h, a) for h in decomposed) for a in (x, f)) == expected
    assert not any(np.array_equal(h, rho.matrix) for h in decomposed)
    assert not any(np.allclose(h, gen, rtol=0.0, atol=1e-8) for h in decomposed)
    # a repeat decomposes nothing
    decomposed.clear()
    assert e_divergence_closed(kind, rho, sigma) == closed
    assert e_divergence_quadrature(kind, rho, sigma) == quad
    assert decomposed == []


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
@pytest.mark.parametrize("first", ["closed", "quadrature", "sandwich_pvm"])
def test_kept_sandwich_operator_leaves_e_values_bitwise_unchanged(kind, first):
    from qpathdiv.channels import sandwich_pvm

    specs = [RandomSpec(3, 971, 0.05), RandomSpec(3, 972, 1e-3), RandomSpec(3, 973, 0.0)]

    def fresh():
        return [random_density(spec) for spec in specs]

    closed = [e_divergence_closed(kind, fresh()[i], fresh()[2]) for i in (0, 1)]
    quad = [e_divergence_quadrature(kind, fresh()[i], fresh()[2]) for i in (0, 1)]
    # two rho, one sigma: each pair keeps its own F
    rho, other, sigma = fresh()
    for i, r in enumerate((rho, other)):
        if first == "sandwich_pvm":
            sandwich_pvm(r, sigma)
        if first == "quadrature":
            assert e_divergence_quadrature(kind, r, sigma) == quad[i]
        assert e_divergence_closed(kind, r, sigma) == closed[i]
        assert e_divergence_quadrature(kind, r, sigma) == quad[i]


def _classical_family(seed: int, alphabet: int = 5, k: int = 3) -> ExponentialFamily:
    rng = np.random.Generator(np.random.PCG64(seed))
    return ExponentialFamily(
        base=rng.dirichlet(np.ones(alphabet)) * 0.9 + 0.1 / alphabet,
        features=rng.uniform(-1.0, 1.0, size=(k, alphabet)),
    )


def test_families_on_a_stack_equal_row_by_row_calls():
    rng = np.random.Generator(np.random.PCG64(990))
    families = [_classical_family(991), _classical_family(992, alphabet=3, k=2)]
    families += [QuantumExponentialFamily(dim) for dim in (2, 3, 4)]
    for family in families:
        k = family.dim if isinstance(family, ExponentialFamily) else family.k
        thetas = rng.uniform(-1.5, 1.5, size=(7, k))
        moments, means = family.moment(thetas), family.mean_parameters(thetas)
        assert moments.shape == (7,) and means.shape == (7, k)
        for row, moment, mean in zip(thetas, moments, means):
            assert moment == family.moment(row)
            assert np.array_equal(mean, family.mean_parameters(row))
        if isinstance(family, ExponentialFamily):
            dists = family.distribution(thetas)
            assert all(np.array_equal(p, family.distribution(row)) for row, p in zip(thetas, dists))
        else:
            assert all(
                np.array_equal(family.mean_parameters(row), family.mixture_coordinates(family.state(row)))
                for row in thetas
            )


def _hessian_column_by_column(model: ConvexFunctionModel, theta: np.ndarray) -> np.ndarray:
    out = np.zeros((model.dim, model.dim))
    for i in range(model.dim):
        h = 1e-6 * (1.0 + abs(theta[i]))
        e = np.zeros(model.dim)
        e[i] = h
        out[:, i] = (model.gradient(theta + e) - model.gradient(theta - e)) / (2.0 * h)
    return (out + out.T) / 2.0


def test_hessian_equals_the_column_loop():
    rng = np.random.Generator(np.random.PCG64(993))
    quantum = QuantumExponentialFamily(2)
    models = [_classical_family(994).model(), quantum.model()]
    models += [QuantumExponentialFamily(dim).model() for dim in (3, 4)]
    for model in models:
        for _ in range(3):
            theta = rng.uniform(-1.0, 1.0, size=model.dim)
            assert np.array_equal(model.hessian(theta), _hessian_column_by_column(model, theta))
    nu = legendre_model(quantum.model(), np.array([[-3.0, 3.0]] * 3))
    eta = quantum.mean_parameters(np.array([0.2, -0.4, 0.5]))
    assert np.array_equal(nu.hessian(eta), _hessian_column_by_column(nu, eta))


def test_legendre_model_maps_a_stack_row_by_row():
    model = _classical_family(995, alphabet=3, k=2).model()
    nu = legendre_model(model, np.array([[-5.0, 5.0]] * 2))
    etas = model.gradient(np.array([[0.3, -0.2], [-0.6, 0.4], [0.1, 0.9]]))
    values, grads = nu.value(etas), nu.gradient(etas)
    assert values.shape == (3,) and grads.shape == (3, 2)
    for eta, value, grad in zip(etas, values, grads):
        assert value == nu.value(eta) and isinstance(nu.value(eta), float)
        assert np.array_equal(grad, nu.gradient(eta))


def _seed_of(model_value, eta: np.ndarray, box: np.ndarray) -> np.ndarray:
    """The point Newton starts from: the first point the gradient is asked for."""
    seen = []

    def grad(t):
        seen.append(np.array(t))
        return np.zeros_like(t)

    model = ConvexFunctionModel(dim=len(eta), value=model_value, grad=grad)
    legendre_model(model, box).gradient(eta)
    return seen[0]


def test_newton_starts_at_the_box_centre():
    for box, centre in (([[-3.0, 3.0], [-1.0, 2.0]], [0.0, 0.5]), ([[1.0, 4.0], [-6.0, -2.0]], [2.5, -4.0])):
        start = _seed_of(lambda t: float(np.sum(t**2)), np.zeros(2), np.array(box))
        assert np.array_equal(start, centre)


def test_quantum_dual_stacks_at_most_2k_matrices_and_one_eig_per_hessian(monkeypatch):
    from qpathdiv import divergences

    family = QuantumExponentialFamily(2)
    eta = family.mean_parameters(np.array([0.4, -0.3, 0.6]))
    box = np.array([[-3.0, 3.0]] * 3)
    expected = legendre_model(family.model(), box).gradient(eta)
    eigvalsh, eig, hessian = np.linalg.eigvalsh, divergences.eig_hermitian, ConvexFunctionModel.hessian
    eigvalsh_shapes, eig_shapes, hessians = [], [], []

    def counted_eigvalsh(m):
        eigvalsh_shapes.append(np.shape(m))
        return eigvalsh(m)

    def counted_eig(h):
        eig_shapes.append(h.shape)
        return eig(h)

    def counted_hessian(self, theta):
        hessians.append(len(eig_shapes))
        return hessian(self, theta)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(divergences, "eig_hermitian", counted_eig)
    monkeypatch.setattr(ConvexFunctionModel, "hessian", counted_hessian)
    assert np.array_equal(legendre_model(family.model(), box).gradient(eta), expected)
    # no decomposition is larger than the 2 k points of one Hessian
    stacked = [shape[0] for shape in eigvalsh_shapes + eig_shapes if len(shape) == 3]
    assert eigvalsh_shapes and max(stacked) <= 2 * family.k
    assert hessians and eig_shapes.count((6, 2, 2)) == len(hessians)
    # each Hessian is one stacked decomposition, taken right after it starts
    assert all(eig_shapes[i] == (6, 2, 2) for i in hessians)
    assert set(eig_shapes) == {(2, 2), (6, 2, 2)}


def _dual_models():
    """(model, box, points inside the box) of the quantum families at dims 2-4
    and classical families of 2-4 features, whose duals the tests solve."""
    rng = np.random.Generator(np.random.PCG64(1201))
    out = []
    for dim in (2, 3, 4):
        family = QuantumExponentialFamily(dim)
        thetas = rng.uniform(-0.8, 0.8, size=(6, family.k))
        out.append(pytest.param(family.model(), np.array([[-3.0, 3.0]] * family.k), thetas, id=f"quantum-{dim}"))
    for k in (2, 3, 4):
        family = _classical_family(1202 + k, alphabet=k + 2, k=k)
        thetas = rng.uniform(-1.0, 1.0, size=(6, k))
        out.append(pytest.param(family.model(), np.array([[-5.0, 5.0]] * k), thetas, id=f"classical-{k}"))
    return out


@pytest.mark.parametrize("model, box, thetas", _dual_models())
def test_maximize_duals_rows_equal_each_point_alone_bitwise(model, box, thetas):
    from qpathdiv.divergences import _maximize_dual, _maximize_duals

    # the first row is stationary at the box centre, and Newton stops there at once
    etas = model.gradient(np.concatenate([box.mean(axis=1)[None], thetas]))
    stacked, values = _maximize_duals(model, etas, box)
    assert stacked.shape == etas.shape and values.shape == (len(etas),)
    assert np.array_equal(stacked[0], box.mean(axis=1))
    for eta, theta, value in zip(etas, stacked, values):
        alone, alone_value = _maximize_dual(model, eta, box)
        assert isinstance(alone_value, float)
        assert theta.tobytes() == alone.tobytes() and value.tobytes() == np.float64(alone_value).tobytes()
    # a point's result does not depend on the strides it came with
    strided = np.asfortranarray(etas)
    for eta, theta, value in zip(strided, stacked, values):
        alone, alone_value = _maximize_dual(model, eta, box)
        assert theta.tobytes() == alone.tobytes() and value.tobytes() == np.float64(alone_value).tobytes()


def _kinked_model() -> ConvexFunctionModel:
    """Two logistic coordinates and a third whose gradient, -sqrt(0.1 - t) left
    of 0.1, is flat on [0.1, 0.5]: Newton from 0 towards eta_3 = 0 lands at 0.2,
    where the Hessian is singular. Its value is NaN where t_1 > 0 > t_2, so a
    line search that heads there from the centre stalls."""

    def value(t):
        t3 = t[..., 2]
        flat = (2.0 / 3.0) * np.maximum(0.1 - t3, 0.0) ** 1.5 + np.maximum(t3 - 0.5, 0.0) ** 2
        return np.logaddexp(0.0, t[..., :2]).sum(-1) + flat + np.where((t[..., 0] > 0) & (t[..., 1] < 0), np.nan, 0.0)

    def grad(t):
        g3 = -np.sqrt(np.maximum(0.1 - t[..., 2], 0.0)) + 2.0 * np.maximum(t[..., 2] - 0.5, 0.0)
        return np.concatenate([1.0 / (1.0 + np.exp(-t[..., :2])), g3[..., None]], axis=-1)

    return ConvexFunctionModel(dim=3, value=value, grad=grad)


def test_maximize_duals_freezes_stalled_and_singular_rows_as_alone(monkeypatch):
    from qpathdiv.divergences import _maximize_dual, _maximize_duals

    model, box = _kinked_model(), np.array([[-5.0, 5.0]] * 3)
    centre_eta = model.gradient(np.zeros(3))
    etas = np.array(
        [
            centre_eta,  # stationary at the box centre
            [0.7, 0.8, -0.5],
            [0.5 + 1e-8, 0.5 - 1e-8, centre_eta[2]],  # its line search stalls at the centre
            [0.3, 0.6, 0.0],  # its Hessian turns singular after one step
            [0.2, 0.9, -0.6],
        ]
    )
    singular = []
    solve = np.linalg.solve

    def recorded(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", recorded)
    stacked, values = _maximize_duals(model, etas, box)
    # the stack fell back row by row, and only the singular row was regularized
    assert (5, 3, 3) not in singular and (3, 3, 3) in singular and (1, 3, 3) in singular
    assert singular.count((1, 3, 3)) == singular.count((3, 3, 3))
    assert np.array_equal(stacked[0], np.zeros(3)) and np.array_equal(stacked[2], np.zeros(3))
    assert np.max(np.abs(model.gradient(stacked[2]) - etas[2])) > 1e-9  # stopped by the stall, not converged
    assert model.hessian(stacked[3])[2, 2] == 0.0
    monkeypatch.setattr(np.linalg, "solve", solve)
    for eta, theta, value in zip(etas, stacked, values):
        alone, alone_value = _maximize_dual(model, eta, box)
        assert theta.tobytes() == alone.tobytes() and value.tobytes() == np.float64(alone_value).tobytes()


@pytest.mark.parametrize("model, box, thetas", _dual_models())
def test_stacked_hessian_equals_each_point_bitwise(model, box, thetas):
    nu = legendre_model(model, box)
    etas = model.gradient(thetas[:3])
    for m, points in ((model, thetas), (nu, etas)):
        stacked = m.hessian(points)
        assert stacked.shape == (len(points), model.dim, model.dim)
        assert all(h.tobytes() == m.hessian(point).tobytes() for h, point in zip(stacked, points))


def test_quantum_dual_of_n_points_takes_one_decomposition_of_at_most_2kn_matrices_per_hessian(monkeypatch):
    from qpathdiv import divergences

    family = QuantumExponentialFamily(2)
    etas = family.mean_parameters(np.array([[0.4, -0.3, 0.6], [-0.7, 0.1, 0.2], [0.05, 0.5, -0.45], [0.0, 0.0, 0.0]]))
    box = np.array([[-3.0, 3.0]] * 3)
    expected = [legendre_model(family.model(), box).gradient(eta) for eta in etas]
    eig, hessian = divergences.eig_hermitian, ConvexFunctionModel.hessian
    eig_shapes, hessians = [], []

    def counted_eig(h):
        eig_shapes.append(h.shape)
        return eig(h)

    def counted_hessian(self, theta):
        hessians.append((len(eig_shapes), len(theta)))
        return hessian(self, theta)

    monkeypatch.setattr(divergences, "eig_hermitian", counted_eig)
    monkeypatch.setattr(ConvexFunctionModel, "hessian", counted_hessian)
    got = legendre_model(family.model(), box).gradient(etas)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))
    # each Hessian is one decomposition of the 2 k points of each row still
    # moving, taken right after it starts, and no other decomposition is as large
    assert hessians and all(eig_shapes[i] == (2 * family.k * n, 2, 2) for i, n in hessians)
    assert sum(shape[0] > len(etas) for shape in eig_shapes) == len(hessians)
    assert max(shape[0] for shape in eig_shapes) <= 2 * family.k * len(etas)
    assert hessians[0][1] == 3  # the row at the maximally mixed state is stationary at the centre


def test_maximize_duals_names_the_point_that_is_not_in_range():
    from qpathdiv.divergences import _maximize_duals

    # the gradient of log(1 + e^t) lives in (0, 1): 1.5 is unreachable
    model = ConvexFunctionModel(
        dim=1,
        value=lambda t: np.logaddexp(0.0, t[..., 0]),
        grad=lambda t: 1.0 / (1.0 + np.exp(-t)),
    )
    box = np.array([[-20.0, 20.0]])
    with pytest.raises(NotInRange) as alone:
        _maximize_duals(model, np.array([1.5]), box)
    assert " at point" not in str(alone.value)
    with pytest.raises(NotInRange) as stacked:
        _maximize_duals(model, np.array([[0.3], [1.5], [0.7]]), box)
    assert str(stacked.value) == str(alone.value).replace(" (measured", " at point 1 of 3 (measured")
    assert stacked.value.defect == alone.value.defect


@pytest.mark.parametrize("model, box, thetas", _dual_models())
def test_bregman_divergences_equal_each_pair_bitwise(model, box, thetas):
    nu = legendre_model(model, box)
    etas = model.gradient(thetas)
    for m, points in ((model, thetas), (nu, etas)):
        bars, others = points[::2], points[1::2]
        values = bregman_divergences(m, bars, others)
        assert all(isinstance(v, float) for v in values)
        assert values == [bregman_divergence(m, bar, other) for bar, other in zip(bars, others)]
    with pytest.raises(DomainError, match=r"^points must be two \(n, \d+\) stacks"):
        bregman_divergences(model, thetas[0], thetas[1])


def test_bregman_divergences_name_the_pair_that_is_not_finite():
    model = ConvexFunctionModel(dim=1, value=lambda t: np.where(t[..., 0] > 1.0, np.inf, t[..., 0] ** 2), grad=lambda t: 2 * t)
    assert bregman_divergences(model, np.array([[0.5]]), np.array([[0.25]])) == [0.0625]
    with pytest.raises(DomainError, match="^model evaluated to a non-finite value at pair 1$"):
        bregman_divergences(model, np.array([[0.5], [0.5]]), np.array([[0.25], [2.0]]))
    with pytest.raises(DomainError, match="^model evaluated to a non-finite value$"):
        bregman_divergence(model, np.array([0.5]), np.array([2.0]))


def test_m_divergences_refine_only_the_open_pairs(monkeypatch):
    from qpathdiv import metrics

    def pair(dim, seed, floor):
        return random_density(RandomSpec(dim, seed, floor)), random_density(RandomSpec(dim, seed + 1000, floor))

    # the dim-3 pair at seed 116 refines kinds s and r to 113 nodes, the dim-2 pair
    # at seed 901 every kind; the pairs near I/3 and I/2 settle at 57 nodes
    settled = [pair(3, 500 + k, 0.3) for k in range(3)]
    lists = [
        [settled[0], pair(3, 116, 1e-3), settled[1], settled[2]],
        [pair(2, 500, 0.3), pair(2, 901, 0.05), pair(2, 501, 0.3)],
    ]
    alone = [[m_divergence_detail(tuple(ALL_METRIC), *p) for p in pairs] for pairs in lists]
    assert [[[nodes for _, nodes in rows] for rows in each] for each in alone] == [
        [[57] * 4, [113, 57, 113, 57], [57] * 4, [57] * 4], [[57] * 4, [113] * 4, [57] * 4]
    ]
    stacks = []
    eig = metrics.eig_hermitian

    def counted_eig(h):
        stacks.append(h.shape[0])
        return eig(h)

    monkeypatch.setattr(metrics, "eig_hermitian", counted_eig)
    assert [m_divergences(tuple(ALL_METRIC), pairs) for pairs in lists] == alone
    # one quadrature per list; a refining level decomposes the mixture states
    # of the one open pair only
    assert stacks == [4 * 57, 56, 3 * 57, 56]
    for pairs in lists:
        assert m_divergences(BOGOLJUBOV, pairs) == [m_divergence_detail(BOGOLJUBOV, *p) for p in pairs]


def test_m_paths_check_each_pair_once_per_call(monkeypatch):
    from qpathdiv import metrics, states

    # the pair at seed 116 refines, so the m-path integrand runs more than once
    pairs = [(random_density(RandomSpec(3, s, 1e-3)), random_density(RandomSpec(3, s + 1000, 1e-3))) for s in (1, 116)]
    checked = []
    check_pair = states.check_pair

    def counted(rho, sigma, *args):
        checked.append((rho, sigma))
        return check_pair(rho, sigma, *args)

    for module in (states, metrics):
        monkeypatch.setattr(module, "check_pair", counted)
    assert max(nodes for rows in m_divergences(tuple(ALL_METRIC), pairs) for _, nodes in rows) > 57
    assert checked == pairs
    checked.clear()
    metrics.fisher_info_mixture(*pairs[0], SLD, np.linspace(0.1, 0.9, 5))
    assert checked == pairs[:1]


def test_e_paths_check_each_pair_once_per_call(monkeypatch):
    from qpathdiv import states, transport

    pairs = _e_pairs(3, [1, 2, 3])
    checked = []
    check_pair = states.check_pair

    def counted(rho, sigma, *args):
        checked.append((rho, sigma))
        return check_pair(rho, sigma, *args)

    for module in (states, transport):
        monkeypatch.setattr(module, "check_pair", counted)
    for kind in GeodesicKind:
        checked.clear()
        e_divergences(kind, pairs)
        assert checked == pairs
    checked.clear()
    e_divergence_quadrature(GeodesicKind.HALF, *pairs[0])
    assert checked == pairs[:1]
    # the closed forms too, kind b through the relative entropy and the
    # sandwich kinds through their records
    for kind in GeodesicKind:
        checked.clear()
        e_divergences_closed(kind, pairs)
        assert checked == pairs
        checked.clear()
        e_divergence_closed(kind, *pairs[0])
        assert checked == pairs[:1]


def test_m_divergences_name_the_pair_in_errors():
    good = (random_density(RandomSpec(2, 1, 0.05)), random_density(RandomSpec(2, 2, 0.05)))
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    with pytest.raises(NotFullRank, match=r"^sigma of pair 1 has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
        m_divergences(SLD, [good, (good[0], thin)])
    with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
        m_divergences(SLD, [(good[0], thin)])
    # within 57 nodes the pair at seed 1 converges and those at seeds 2 and 4 do not
    config = QuadratureConfig(nodes=16, rel_tol=1e-8, max_nodes=57)
    pairs = [(random_density(RandomSpec(2, s, 1e-3)), random_density(RandomSpec(2, s + 1000, 1e-3))) for s in (1, 2, 4)]
    lone = []
    for rho, sigma in pairs[1:]:
        with pytest.raises(QuadratureNotConverged) as info:
            m_divergence_detail(SLD, rho, sigma, config)
        lone.append(str(info.value))
        assert re.fullmatch(r"m_s: estimates still differ by \S+ at 57 nodes", lone[-1])
    with pytest.raises(QuadratureNotConverged) as info:
        m_divergences(SLD, pairs, config)
    assert str(info.value) == "; ".join(m.replace("m_s:", f"m_s of pair {k}:") for k, m in enumerate(lone, 1))


def _e_pairs(dim: int, seeds, floor: float = 0.05) -> list:
    """The pair (rho, sigma) drawn at seeds s and s + 1000, for each s."""
    return [tuple(random_density(RandomSpec(dim, s + t, floor)) for t in (0, 1000)) for s in seeds]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", list(GeodesicKind))
def test_e_divergences_equal_lone_calls_bitwise(kind, dim):
    # eight pairs of the dim: one quadrature
    pairs = _e_pairs(dim, range(1, 9))
    batched = e_divergences(kind, pairs)
    alone = [e_divergences(kind, [pair])[0] for pair in pairs]
    assert repr(batched) == repr(alone)
    assert [value for value, _ in batched] == [e_divergence_quadrature(kind, *pair) for pair in pairs]
    # the pairs settle at different levels, so a batch refines only some of them
    assert {nodes for _, nodes in batched} == {57, 113}


@pytest.mark.parametrize("kind", list(GeodesicKind))
def test_a_repeated_pair_gives_its_lone_results_bitwise(kind):
    from qpathdiv.transport import solve_direction

    p, q = _e_pairs(3, [5, 6])
    values = e_divergences(kind, [p, q, p])
    geodesics = solve_directions(kind, [p, q, p])
    thetas = np.linspace(-0.5, 1.5, 5)
    # fresh states for each lone call, so that nothing kept is shared
    for k, pair in enumerate(_e_pairs(3, [5, 6, 5])):
        assert repr(values[k]) == repr(e_divergences(kind, [pair])[0])
        got, lone = geodesics[k], solve_direction(kind, *pair)
        assert got.direction.tobytes() == lone.direction.tobytes()
        assert got.moment(0.7) == lone.moment(0.7)
        assert got.moment.derivative(thetas, 2).tobytes() == lone.moment.derivative(thetas, 2).tobytes()
        assert got.moment.state(0.7).matrix.tobytes() == lone.moment.state(0.7).matrix.tobytes()
    # the two curves of the repeated pair are rows of one moment function,
    # each its own: equal arrays, no memory shared
    first, third = vars(geodesics[0].moment), vars(geodesics[2].moment)
    assert first["_direction"].base is third["_direction"].base
    for name, a in first.items():
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, third[name]) and not np.shares_memory(a, third[name]), name


def test_e_divergences_stack_shrinks_as_rows_freeze(monkeypatch):
    from qpathdiv.transport import MomentFunction

    pairs = _e_pairs(3, range(1, 9))
    stacks = []
    stacked = MomentFunction._moments

    def counted(moments, theta, order):
        stacks.append(len(moments._direction))
        return stacked(moments, theta, order)

    monkeypatch.setattr(MomentFunction, "_moments", counted)
    nodes = [n for _, n in e_divergences(GeodesicKind.SLD, pairs)]
    # the first call takes every pair, and the next level only the pairs
    # still refining: those that settle beyond 57 nodes
    assert sorted(set(nodes)) == [57, 113]
    assert stacks == [len(pairs), sum(n > 57 for n in nodes)]


def test_e_divergences_name_the_pair_when_not_converged():
    from qpathdiv.transport import solve_direction

    # within 57 nodes the pair at seed 1 converges and those at seeds 4 and 5 do not
    config = QuadratureConfig(nodes=16, rel_tol=1e-8, max_nodes=57)
    pairs = _e_pairs(2, (1, 4, 5))
    lone = []
    for rho, sigma in pairs[1:]:
        with pytest.raises(QuadratureNotConverged) as info:
            e_divergence_quadrature(GeodesicKind.SLD, rho, sigma, config)
        lone.append(str(info.value))
        # the one-pair message names no row, as a one-row integrand's does
        mf = solve_direction(GeodesicKind.SLD, rho, sigma).moment
        with pytest.raises(QuadratureNotConverged) as direct:
            adaptive_gauss_legendre(lambda ths: ths * mf.derivative(ths, 2), config)
        assert lone[-1] == str(direct.value)
        assert re.fullmatch(r"estimates still differ by \S+ at 57 nodes", lone[-1])
    with pytest.raises(QuadratureNotConverged) as info:
        e_divergences(GeodesicKind.SLD, pairs, config)
    assert str(info.value) == "; ".join(f"e_s of pair {k}: {m}" for k, m in enumerate(lone, 1))


def test_e_divergences_name_the_pair_that_is_not_full_rank():
    good = _e_pairs(2, [1])[0]
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    for kind in GeodesicKind:
        with pytest.raises(NotFullRank, match=r"^sigma of pair 1 has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
            e_divergences(kind, [good, (good[0], thin)])
        with pytest.raises(NotFullRank, match=r"^rho of pair 0 has minimum eigenvalue 5\.000e-13"):
            e_divergences(kind, [(thin, good[1]), good])
        with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
            e_divergences(kind, [(good[0], thin)])


# each closed form's list form and its one-pair form
CLOSED_FORMS = {
    **{
        kind.value: (
            lambda pairs, kind=kind: e_divergences_closed(kind, pairs),
            lambda rho, sigma, kind=kind: e_divergence_closed(kind, rho, sigma),
        )
        for kind in GeodesicKind
    },
    "bs": (bs_divergences, bs_divergence),
    "D": (relative_entropies, quantum_relative_entropy),
}


def _closed_pairs(dims) -> list:
    """Fresh pairs at floor 1e-3, one per entry of ``dims``; every third pair
    is rebuilt from its matrices, so it holds no decomposition yet."""
    pairs = []
    for k, dim in enumerate(dims):
        pair = _e_pairs(dim, [40 + k], 1e-3)[0]
        pairs.append(tuple(validate_density(state.matrix) for state in pair) if k % 3 == 2 else pair)
    return pairs


def _one_dim_lists(pairs: list) -> list[list]:
    """The pairs of each dim, in order, the dims in order of first appearance."""
    dims = dict.fromkeys(rho.dim for rho, _ in pairs)
    return [[pair for pair in pairs if pair[0].dim == dim] for dim in dims]


@pytest.mark.parametrize("dims", [(2,) * 5, (3,) * 5, (4,) * 5, (2, 4, 3, 2, 4, 3)], ids=["2", "3", "4", "mixed"])
@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_closed_list_forms_equal_lone_calls_bitwise(form, dims):
    batch, lone = CLOSED_FORMS[form]
    # fresh states for each side, so that no kept sandwich operator is shared;
    # the pairs of mixed dims run as one list per dim, one after the other
    batched = [batch(pairs) for pairs in _one_dim_lists(_closed_pairs(dims))]
    alone = [[lone(*pair) for pair in pairs] for pairs in _one_dim_lists(_closed_pairs(dims))]
    lists_of_one = [[batch([pair])[0] for pair in pairs] for pairs in _one_dim_lists(_closed_pairs(dims))]
    assert repr(batched) == repr(alone) == repr(lists_of_one)


# every list form over (rho, sigma) pairs, each kind of a form in turn
LIST_FORMS = {
    "D": relative_entropies,
    "bs": bs_divergences,
    "e_closed": lambda pairs: [v for kind in GeodesicKind for v in e_divergences_closed(kind, pairs)],
    "e_quadrature": lambda pairs: [v for kind in GeodesicKind for v in e_divergences(kind, pairs)],
    "m": lambda pairs: m_divergences(tuple(ALL_METRIC), pairs) + m_divergences(SLD, pairs),
    "sandwich": lambda pairs: [r for kind in (GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF)
                               for r in sandwich_records(kind, pairs)],
    "directions": lambda pairs: [g for kind in GeodesicKind for g in solve_directions(kind, pairs)],
}


@pytest.mark.parametrize("form", list(LIST_FORMS))
def test_list_forms_take_an_empty_list(form):
    assert LIST_FORMS[form]([]) == []


@pytest.mark.parametrize("form", list(LIST_FORMS))
def test_list_forms_refuse_pairs_of_mixed_dims(form):
    # a list of pairs is of one dim, checked once at the call
    pairs = _e_pairs(3, [1, 2]) + _e_pairs(2, [3])
    with pytest.raises(DimensionMismatch, match=r"^pair 2 has dim 2, pair 0 has dim 3$"):
        LIST_FORMS[form](pairs)
    # a pair whose own states differ in dim is named too
    with pytest.raises(DimensionMismatch, match=r"^dims 3 and 2 of pair 1 differ$"):
        LIST_FORMS[form]([pairs[0], (pairs[1][0], pairs[2][1])])


@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_closed_list_forms_decompose_undecomposed_states_in_one_call(monkeypatch, form):
    from qpathdiv import linalg

    pairs = [tuple(validate_density(state.matrix) for state in pair) for pair in _closed_pairs((3,) * 4)]
    shapes = []
    eigh = linalg._eigh

    def counted(h):
        shapes.append(np.shape(h))
        return eigh(h)

    monkeypatch.setattr(linalg, "_eigh", counted)
    CLOSED_FORMS[form][0](pairs)
    # each of rho and sigma that a form reads is decomposed by one stacked call and keeps it
    assert shapes.count((4, 3, 3)) == {"s": 3, "b": 2, "r": 2, "half": 3, "bs": 3, "D": 2}[form]
    assert all(shape == (4, 3, 3) for shape in shapes)
    read = [state for pair in pairs for state in pair if "eig" in state.__dict__]
    # kinds s and r read no decomposition of rho
    assert read == [sigma for _, sigma in pairs] if form in ("s", "r") else len(read) == 8
    for state in read:
        assert not state.eig.eigenvectors.flags.writeable
        assert np.array_equal(state.eig.eigenvalues, np.linalg.eigh(state.matrix)[0])


@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_closed_list_forms_name_the_pair_that_is_not_full_rank(form):
    batch, lone = CLOSED_FORMS[form]
    good = _e_pairs(2, [1])[0]
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    with pytest.raises(NotFullRank, match=r"^sigma of pair 1 has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
        batch([good, (good[0], thin)])
    with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
        batch([(good[0], thin)])
    with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
        lone(good[0], thin)
    if form == "D":  # the relative entropy takes a rank-deficient rho
        assert batch([good, (thin, good[1])])[1] == lone(thin, good[1])
        return
    with pytest.raises(NotFullRank, match=r"^rho of pair 0 has minimum eigenvalue 5\.000e-13"):
        batch([(thin, good[1]), good])
    with pytest.raises(NotFullRank, match=r"^rho has minimum eigenvalue 5\.000e-13"):
        batch([(thin, good[1])])
    with pytest.raises(NotFullRank, match=r"^rho has minimum eigenvalue 5\.000e-13"):
        lone(thin, good[1])


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_solve_direction_after_the_closed_list_form_reuses_each_record(monkeypatch, kind):
    from qpathdiv import linalg
    from qpathdiv.transport import sandwich_record, sandwich_records, solve_direction

    pairs = _closed_pairs((3, 3, 2, 3))[:2] + _e_pairs(3, [60, 61])
    e_divergences_closed(kind, pairs)
    records = sandwich_records(kind, pairs)
    decomposed = []
    eigh = linalg._eigh
    monkeypatch.setattr(linalg, "_eigh", lambda h: decomposed.append(h) or eigh(h))
    for (rho, sigma), record in zip(pairs, records):
        assert sandwich_record(kind, rho, sigma) is record
        geodesic = solve_direction(kind, rho, sigma)
        # G = 2 log F is read off the kept decomposition of F
        assert geodesic.aux_eig.eigenvectors is record.eig.eigenvectors
    assert decomposed == []
