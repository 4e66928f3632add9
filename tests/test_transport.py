import re

import numpy as np
import pytest

from qpathdiv.errors import (
    DimensionMismatch,
    DomainError,
    InvalidShape,
    NotFullRank,
    NotHermitian,
    TargetMismatch,
)
from qpathdiv.linalg import HermitianEigen, eig_hermitian, frobenius, hermitian_part, tensor_product
from qpathdiv.metrics import fisher_info_numeric
from qpathdiv.states import (
    RandomSpec,
    _state_in_basis,
    max_mixed,
    random_commuting_pair,
    random_density,
    random_direction,
    validate_density,
)
from qpathdiv.transport import (
    GeodesicKind,
    MomentFunction,
    e_transport,
    m_geodesic,
    make_geodesic,
    sandwich_record,
    sandwich_records,
    solve_auxiliary_direction,
    solve_direction,
    solve_directions,
    transport_commutation_defect,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
ALL_KINDS = list(GeodesicKind)

# frozen oracle: off-diagonal reweighting 2 / (sqrt(3/7) + sqrt(7/3))
AUX_WEIGHT_73 = 0.9165151389911679


def test_aux_direction_identity_base():
    base = max_mixed(3)
    l = random_direction(3, 5)
    for kind in (GeodesicKind.RLD, GeodesicKind.HALF):
        assert np.allclose(solve_auxiliary_direction(kind, base, l), l, atol=1e-12)


def test_aux_direction_commuting():
    base = validate_density(np.diag([0.5, 0.3, 0.2]))
    l = np.diag([1.0, -0.5, -0.5]).astype(complex)
    assert np.allclose(solve_auxiliary_direction(GeodesicKind.RLD, base, l), l, atol=1e-12)


def test_aux_direction_worked_example():
    base = validate_density(np.diag([0.7, 0.3]))
    aux = solve_auxiliary_direction(GeodesicKind.RLD, base, PAULI_X)
    assert np.isclose(aux[0, 1].real, AUX_WEIGHT_73, atol=1e-13)


@pytest.mark.parametrize("kind", [GeodesicKind.RLD, GeodesicKind.HALF])
def test_aux_direction_resubstitution(kind):
    from qpathdiv.linalg import herm_power, hermitian_part

    base = random_density(RandomSpec(3, 9, 0.05))
    l = random_direction(3, 10)
    aux = solve_auxiliary_direction(kind, base, l)
    p = kind.sandwich_power
    sp, sm = herm_power(base.matrix, p), herm_power(base.matrix, -p)
    rebuilt = hermitian_part(sm @ aux @ sp)
    assert frobenius(rebuilt - l) <= 1e-9


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_sandwich_operator_rebuilds_target(kind):
    # sigma^p F sigma^{1-2p} F sigma^p = rho for every member of the family
    p = kind.sandwich_power
    worst = 0.0
    for trial in range(30):
        dim = 2 + trial % 3
        rho = random_density(RandomSpec(dim, 30_000 + trial, 0.05))
        sigma = random_density(RandomSpec(dim, 40_000 + trial, 0.05))
        f = sandwich_record(kind, rho, sigma).matrix
        a, b = sigma.eig.power(p), sigma.eig.power(1.0 - 2.0 * p)
        worst = max(worst, frobenius(a @ f @ b @ f @ a - rho.matrix))
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_kept_sandwich_operator_and_its_decomposition_are_read_only(kind):
    rho = random_density(RandomSpec(3, 51, 0.05))
    sigma = random_density(RandomSpec(3, 52, 0.05))
    record = sandwich_record(kind, rho, sigma)
    assert sandwich_record(kind, rho, sigma) is record
    assert record.eig is record.eig
    gen_eig = solve_direction(kind, rho, sigma).aux_eig
    # G = 2 log F is read off F's decomposition: F's eigenvectors, 2 log f
    assert gen_eig.eigenvectors is record.eig.eigenvectors
    assert np.array_equal(gen_eig.eigenvalues, 2.0 * np.log(record.eig.eigenvalues))
    for array in (record.matrix, record.eig.eigenvalues, record.eig.eigenvectors):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_kind_r_keeps_f_decomposed_from_x():
    # F = X^{1/2} with X = sigma^{-1/2} rho sigma^{-1/2}: F's decomposition is
    # X's eigenvectors with the square roots of X's eigenvalues
    rho = random_density(RandomSpec(4, 55, 1e-3))
    sigma = random_density(RandomSpec(4, 56, 1e-3))
    record = sandwich_record(GeodesicKind.RLD, rho, sigma)
    inner = sigma.eig.power(-0.5)
    x = eig_hermitian(hermitian_part(inner @ rho.matrix @ inner))
    eig = record.eig
    assert not eig.eigenvalues.flags.writeable and not eig.eigenvectors.flags.writeable
    assert frobenius(eig.reconstruct() - record.matrix) <= 1e-10 * frobenius(record.matrix)
    assert np.array_equal(eig.eigenvectors, x.eigenvectors)
    assert np.allclose(2.0 * np.log(eig.eigenvalues), np.log(x.eigenvalues), rtol=0.0, atol=1e-13)


def test_kind_half_takes_its_root_from_rho(monkeypatch):
    rho = random_density(RandomSpec(3, 57, 0.05))
    sigma = random_density(RandomSpec(3, 58, 0.05))
    power = HermitianEigen.power
    calls = []

    def spied(self, p):
        calls.append((self, p, power(self, p)))
        return calls[-1][2]

    monkeypatch.setattr(HermitianEigen, "power", spied)
    f = sandwich_record(GeodesicKind.HALF, rho, sigma).matrix
    roots = [result for _, p, result in calls if p == 0.5]
    assert len(roots) == 1 and roots[0] is rho.eig.power(0.5)
    outer = sigma.eig.power(-0.25)
    assert np.array_equal(f, hermitian_part(outer @ roots[0] @ outer))


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
@pytest.mark.parametrize("dim", [2, 4])
def test_solved_moment_matches_one_that_decomposes_g(kind, dim):
    rho = random_density(RandomSpec(dim, 53, 1e-3))
    sigma = random_density(RandomSpec(dim, 54, 1e-3))
    solved = solve_direction(kind, rho, sigma)
    rebuilt = MomentFunction(make_geodesic(kind, sigma, solved.direction, aux_direction=solved.aux_direction))
    thetas = np.linspace(-0.5, 1.5, 9)
    for order in (1, 2):
        got, expected = solved.moment.derivative(thetas, order), rebuilt.derivative(thetas, order)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_sandwich_operator_wrong_kind():
    with pytest.raises(DomainError):
        sandwich_record(GeodesicKind.BOGOLJUBOV, max_mixed(2), max_mixed(2))


def test_aux_direction_wrong_kind():
    with pytest.raises(DomainError):
        solve_auxiliary_direction(GeodesicKind.SLD, max_mixed(2), PAULI_X)


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_sandwich_geodesic_carries_checked_aux_direction(kind):
    base = random_density(RandomSpec(3, 9, 0.05))
    l = random_direction(3, 10)
    geo = make_geodesic(kind, base, l)
    if kind is GeodesicKind.SLD:
        assert np.array_equal(geo.aux_direction, l)
    with pytest.raises(TargetMismatch):
        make_geodesic(kind, base, l, aux_direction=2.0 * geo.aux_direction)
    assert make_geodesic(GeodesicKind.BOGOLJUBOV, base, l).aux_direction is None


def test_make_geodesic_rejects_non_hermitian_direction():
    with pytest.raises(NotHermitian):
        make_geodesic(GeodesicKind.SLD, max_mixed(2), np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_geodesic_rejects_a_non_finite_direction(kind, bad):
    direction = PAULI_X.copy()
    direction[0, 1] = direction[1, 0] = bad
    with pytest.raises(NotHermitian, match="direction has non-finite entries"):
        make_geodesic(kind, max_mixed(2), direction)


def test_make_geodesic_rejects_rank_deficient_base():
    with pytest.raises(NotFullRank):
        make_geodesic(GeodesicKind.SLD, validate_density(np.diag([1.0, 0.0])), PAULI_X)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transport_at_zero_is_base(kind):
    base = random_density(RandomSpec(3, 21, 0.05))
    g = make_geodesic(kind, base, random_direction(3, 22))
    assert frobenius(e_transport(g, 0.0).matrix - base.matrix) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_commuting_transport_is_classical_exponential_family(kind):
    # diagonal base and direction: p_theta(w) proportional to p(w) e^(theta X(w))
    p = np.array([0.5, 0.3, 0.2])
    x = np.array([0.8, -0.2, -0.6])
    base = validate_density(np.diag(p))
    g = make_geodesic(kind, base, np.diag(x).astype(complex))
    for theta in (0.0, 0.5, 1.3, -0.7):
        target = p * np.exp(theta * x)
        target /= target.sum()
        out = e_transport(g, theta)
        assert np.allclose(np.diagonal(out.matrix).real, target, atol=1e-12)
        assert frobenius(out.matrix - np.diag(np.diagonal(out.matrix))) <= 1e-12


def test_transport_b_reaches_target():
    rho = random_density(RandomSpec(3, 31, 0.05))
    sigma = random_density(RandomSpec(3, 32, 0.05))
    from qpathdiv.linalg import herm_log

    l = herm_log(rho.matrix) - herm_log(sigma.matrix)
    g = make_geodesic(GeodesicKind.BOGOLJUBOV, sigma, l)
    assert frobenius(e_transport(g, 1.0).matrix - rho.matrix) <= 1e-10
    # shifting the direction by a multiple of the identity changes nothing
    g2 = make_geodesic(GeodesicKind.BOGOLJUBOV, sigma, l + 0.37 * np.eye(3))
    assert frobenius(e_transport(g2, 1.0).matrix - rho.matrix) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_zero_at_origin(kind):
    base = random_density(RandomSpec(3, 41, 0.05))
    g = make_geodesic(kind, base, random_direction(3, 42))
    assert abs(MomentFunction(g)(0.0)) <= 1e-12


def test_moment_linear_example():
    # base I/2, direction I: the curve stays put and mu(theta) = theta
    g = make_geodesic(GeodesicKind.SLD, max_mixed(2), np.eye(2, dtype=complex))
    for theta in (0.3, 1.0, 2.5):
        assert np.isclose(MomentFunction(g)(theta), theta, atol=1e-12)
    assert np.isclose(MomentFunction(g).derivative(1.0, 1), 1.0, atol=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_commuting_matches_classical(kind):
    p = np.array([0.5, 0.3, 0.2])
    x = np.array([0.8, -0.2, -0.6])
    g = make_geodesic(kind, validate_density(np.diag(p)), np.diag(x).astype(complex))
    for theta in (0.4, 1.1):
        classical = np.log(np.sum(p * np.exp(theta * x)))
        assert np.isclose(MomentFunction(g)(theta), classical, atol=1e-12)
        # mu' and mu'' are the mean and variance of x under p_theta
        p_theta = p * np.exp(theta * x)
        p_theta /= p_theta.sum()
        mean = np.sum(p_theta * x)
        assert abs(MomentFunction(g).derivative(theta, 1) - mean) <= 1e-12
        assert abs(MomentFunction(g).derivative(theta, 2) - np.sum(p_theta * (x - mean) ** 2)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_derivatives_match_differences(kind):
    # central differences of mu and of mu' agree with the closed forms to
    # their own truncation error
    base = random_density(RandomSpec(3, 55, 0.05))
    mf = MomentFunction(make_geodesic(kind, base, random_direction(3, 56)))
    h = 1e-4
    for theta in (-0.8, 0.0, 0.6, 1.5):
        d1 = (mf(theta + h) - mf(theta - h)) / (2.0 * h)
        d2 = (mf.derivative(theta + h, 1) - mf.derivative(theta - h, 1)) / (2.0 * h)
        assert abs(d1 - mf.derivative(theta, 1)) <= 1e-8
        assert abs(d2 - mf.derivative(theta, 2)) <= 1e-8


def test_moment_derivative_orders():
    # mu itself is the function's value, not a derivative of order 0
    base = random_density(RandomSpec(2, 51, 0.05))
    for kind in ALL_KINDS:
        mf = MomentFunction(make_geodesic(kind, base, random_direction(2, 52)))
        for order in (0, 3):
            with pytest.raises(DomainError, match=f"^derivative order must be 1 or 2, got {order}$"):
                mf.derivative(0.5, order)


def test_moment_second_derivative_nonnegative():
    base = random_density(RandomSpec(3, 61, 0.05))
    for kind in ALL_KINDS:
        g = make_geodesic(kind, base, random_direction(3, 62))
        for theta in np.linspace(-1.0, 1.0, 9):
            assert MomentFunction(g).derivative(theta, 2) >= -1e-8


def test_moment_first_derivative_at_one_is_relative_entropy():
    from qpathdiv.divergences import quantum_relative_entropy

    rho = random_density(RandomSpec(3, 71, 0.05))
    sigma = random_density(RandomSpec(3, 72, 0.05))
    g = solve_direction(GeodesicKind.BOGOLJUBOV, rho, sigma)
    d = quantum_relative_entropy(rho, sigma)
    assert abs(MomentFunction(g).derivative(1.0, 1) - d) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_direction_self_is_zero_curve(kind):
    sigma = random_density(RandomSpec(3, 81, 0.05))
    g = solve_direction(kind, sigma, sigma)
    assert frobenius(e_transport(g, 1.0).matrix - sigma.matrix) <= 1e-10
    if kind is GeodesicKind.BOGOLJUBOV:
        assert frobenius(g.direction) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_direction_commuting_classical_spectrum(kind):
    rho, sigma = random_commuting_pair(3, 91, 0.05)
    g = solve_direction(kind, rho, sigma)
    # direction commutes with the base and carries the log-likelihood ratio
    assert frobenius(g.direction @ sigma.matrix - sigma.matrix @ g.direction) <= 1e-8
    from qpathdiv.linalg import eig_hermitian

    eig = eig_hermitian(rho.matrix + 0.618 * sigma.matrix)
    u = eig.eigenvectors
    p = np.diagonal(u.conj().T @ rho.matrix @ u).real
    q = np.diagonal(u.conj().T @ sigma.matrix @ u).real
    llr = np.sort(np.log(p) - np.log(q))
    assert np.allclose(np.sort(np.linalg.eigvalsh(g.direction)), llr, atol=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_direction_round_trip_1000_pairs(kind):
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 3
        rho = random_density(RandomSpec(dim, 10_000 + trial, 0.05))
        sigma = random_density(RandomSpec(dim, 20_000 + trial, 0.05))
        g = solve_direction(kind, rho, sigma)
        worst = max(worst, frobenius(e_transport(g, 1.0).matrix - rho.matrix))
    assert worst <= 1e-8


def test_solve_direction_requires_full_rank():
    pure = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFullRank):
        solve_direction(GeodesicKind.SLD, pure, max_mixed(2))


def test_m_geodesic_endpoints_and_midpoint():
    rho = validate_density(np.diag([1.0, 0.0]))
    sigma = validate_density(np.diag([0.0, 1.0]))
    assert np.allclose(m_geodesic(rho, sigma, 0.0).matrix, rho.matrix)
    assert np.allclose(m_geodesic(rho, sigma, 1.0).matrix, sigma.matrix)
    assert np.allclose(m_geodesic(rho, sigma, 0.5).matrix, np.eye(2) / 2)


def test_m_geodesic_affine_in_t():
    rho = random_density(RandomSpec(2, 101, 0.05))
    sigma = random_density(RandomSpec(2, 102, 0.05))
    a = m_geodesic(rho, sigma, 0.25).matrix
    b = m_geodesic(rho, sigma, 0.75).matrix
    mid = m_geodesic(rho, sigma, 0.5).matrix
    assert frobenius((a + b) / 2 - mid) <= 1e-14


def test_m_geodesic_domain():
    rho = random_density(RandomSpec(2, 111, 0.05))
    with pytest.raises(DomainError):
        m_geodesic(rho, rho, 1.5)
    with pytest.raises(DimensionMismatch):
        m_geodesic(rho, max_mixed(3), 0.5)


def test_commutation_defect_bogoljubov_vanishes():
    sigma = random_density(RandomSpec(3, 121, 0.05))
    l1, l2 = random_direction(3, 122), random_direction(3, 123)
    defect = transport_commutation_defect(GeodesicKind.BOGOLJUBOV, sigma, l1, l2, 0.9, -0.6)
    assert defect <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_commutation_defect_commuting_inputs(kind):
    sigma = validate_density(np.diag([0.5, 0.3, 0.2]))
    l1 = np.diag([0.3, -0.1, -0.2]).astype(complex)
    l2 = np.diag([-0.4, 0.5, -0.1]).astype(complex)
    assert transport_commutation_defect(kind, sigma, l1, l2, 1.0, 1.0) <= 1e-10


def test_commutation_defect_sld_counterexample():
    sigma = validate_density(np.diag([0.7, 0.3]))
    defect = transport_commutation_defect(GeodesicKind.SLD, sigma, PAULI_X, PAULI_Z, 1.0, 1.0)
    assert defect > 1e-3


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.BOGOLJUBOV])
def test_semigroup_along_one_direction(kind):
    base = random_density(RandomSpec(3, 131, 0.05))
    l = random_direction(3, 132)
    g = make_geodesic(kind, base, l)
    direct = e_transport(g, 0.9)
    middle = e_transport(g, 0.4)
    relayed = e_transport(make_geodesic(kind, middle, l), 0.5)
    assert frobenius(direct.matrix - relayed.matrix) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tensor_covariance(kind):
    s1 = random_density(RandomSpec(2, 141, 0.05))
    s2 = random_density(RandomSpec(2, 142, 0.05))
    l1, l2 = random_direction(2, 143), random_direction(2, 144)
    joint_base = validate_density(tensor_product(s1.matrix, s2.matrix))
    joint_l = tensor_product(l1, np.eye(2)) + tensor_product(np.eye(2), l2)
    joint = e_transport(make_geodesic(kind, joint_base, joint_l), 0.8)
    split = tensor_product(
        e_transport(make_geodesic(kind, s1, l1), 0.8).matrix,
        e_transport(make_geodesic(kind, s2, l2), 0.8).matrix,
    )
    assert frobenius(joint.matrix - split) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_curvature_equals_fisher_info(kind):
    rho = random_density(RandomSpec(2, 151, 0.05))
    sigma = random_density(RandomSpec(2, 152, 0.05))
    g = solve_direction(kind, rho, sigma)
    mf = MomentFunction(g)
    for theta in (0.0, 0.5, 1.0):
        curvature = mf.derivative(theta, 2)
        info = fisher_info_numeric(mf.state, theta, kind.metric)
        assert abs(curvature - info) <= 1e-5


def test_large_theta_does_not_overflow():
    base = random_density(RandomSpec(2, 161, 0.05))
    l = random_direction(2, 162) * 3.0
    for kind in ALL_KINDS:
        g = make_geodesic(kind, base, l)
        mu = MomentFunction(g)(400.0)
        assert np.isfinite(mu)
        assert np.isfinite(MomentFunction(g).derivative(400.0, 1))
        assert np.isfinite(MomentFunction(g).derivative(400.0, 2))
        out = e_transport(g, 400.0)
        assert np.all(np.isfinite(out.matrix))


def _solved_moment(kind, dim, seed):
    floor = 0.05 if dim < 16 else 0.005
    rho = random_density(RandomSpec(dim, seed, floor))
    sigma = random_density(RandomSpec(dim, seed + 1, floor))
    return MomentFunction(solve_direction(kind, rho, sigma))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_array_matches_scalar_bitwise(kind, dim, order):
    mf = _solved_moment(kind, dim, 171)
    thetas = np.concatenate([np.linspace(-1.0, 1.5, 6), np.polynomial.legendre.leggauss(9)[0]])
    stacked = mf.derivative(thetas, order)
    assert isinstance(stacked, np.ndarray) and stacked.shape == thetas.shape
    singles = [mf.derivative(float(th), order) for th in thetas]
    assert all(isinstance(v, float) for v in singles)
    assert np.array_equal(stacked, np.array(singles))
    one = mf.derivative(thetas[:1], order)
    assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == singles[0]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_state_and_moment_returns_the_moment_bitwise(kind, dim):
    # one log-partition: the moment that comes with a state is mf(theta), bit for bit
    mf = _solved_moment(kind, dim, 231)
    for theta in np.concatenate([np.linspace(-2.0, 3.0, 11), np.polynomial.legendre.leggauss(5)[0]]):
        assert mf.state_and_moment(float(theta))[1] == mf(float(theta))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_rejects_malformed_theta(kind):
    mf = _solved_moment(kind, 2, 201)
    for bad in (np.zeros((2, 2)), np.array([])):
        with pytest.raises(InvalidShape, match="theta"):
            mf.derivative(bad, 2)
    for bad, text in ((np.nan, "nan"), (np.inf, "inf"), (np.array([0.1, 0.2, -np.inf]), "-inf")):
        for order in (1, 2):
            with pytest.raises(DomainError, match=f"theta must be finite, got {text}"):
                mf.derivative(bad, order)
    for evaluate in (mf, mf.state):
        with pytest.raises(DomainError, match="theta must be finite, got nan"):
            evaluate(np.nan)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_geodesic_caches_its_moment_function_without_a_cycle(kind):
    import weakref

    rho = random_density(RandomSpec(3, 211, 0.05))
    sigma = random_density(RandomSpec(3, 212, 0.05))
    geo = solve_direction(kind, rho, sigma)
    mf = geo.moment
    assert geo.moment is mf
    assert e_transport(geo, 0.5).matrix.tobytes() == mf.state(0.5).matrix.tobytes()
    assert MomentFunction(geo).derivative(0.5, 2) == mf.derivative(0.5, 2)
    # freed by reference counting alone once the geodesic goes
    ref = weakref.ref(mf)
    del geo, mf
    assert ref() is None


def test_kind_b_transported_state_carries_its_spectrum(monkeypatch):
    from qpathdiv import linalg, transport

    sigma = random_density(RandomSpec(3, 61, 0.05))
    rho = random_density(RandomSpec(3, 62, 0.05))
    mf = solve_direction(GeodesicKind.BOGOLJUBOV, rho, sigma).moment
    calls = []
    eig = transport.eig_hermitian

    def counted(h):
        calls.append(h.shape)
        return eig(h)

    monkeypatch.setattr(transport, "eig_hermitian", counted)
    monkeypatch.setattr(linalg, "eig_hermitian", counted)
    for theta in (-0.5, 0.0, 0.4, 1.0):
        calls.clear()
        state, mu = mf.state_and_moment(theta)
        # one decomposition of log sigma + theta L, and none for the state's spectrum
        spectrum = state.spectrum()
        assert calls == [(1, 3, 3)]
        assert state.min_eigenvalue == spectrum[0] and np.all(np.diff(spectrum) >= 0)
        assert abs(spectrum.sum() - 1.0) <= 1e-12
        assert frobenius(state.eig.reconstruct() - state.matrix) <= 1e-12
        with pytest.raises(ValueError):
            state.eig.eigenvalues[0] = 0.0
        assert mu == mf(theta)
    assert frobenius(mf.state(1.0).matrix - rho.matrix) <= 1e-8


def _fresh_pairs(dims) -> list:
    """Fresh pairs at floor 1e-3, one per entry of ``dims``."""
    return [tuple(random_density(RandomSpec(dim, 700 + 2 * k + t, 1e-3)) for t in (0, 1)) for k, dim in enumerate(dims)]


@pytest.mark.parametrize("dims", [(2,) * 4, (3,) * 4, (4,) * 4, (3, 2, 4, 2, 3)], ids=["2", "3", "4", "mixed"])
@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_sandwich_records_equal_lone_records_bitwise(kind, dims):
    from qpathdiv.linalg import decomposition

    # the pairs of mixed dims run as one list per dim, one after the other
    lists = [[k for k, d in enumerate(dims) if d == dim] for dim in dict.fromkeys(dims)]
    fresh, batched = _fresh_pairs(dims), []
    for numbers in lists:
        records = sandwich_records(kind, [fresh[k] for k in numbers])
        # the records of a list decomposed as one stack, each lone one on its own
        decomposition(records)
        batched += records
    fresh = _fresh_pairs(dims)
    lone = [sandwich_record(kind, *fresh[k]) for numbers in lists for k in numbers]
    for got, expected in zip(batched, lone):
        for a, b in ((got.matrix, expected.matrix), (got.eig.eigenvalues, expected.eig.eigenvalues),
                     (got.eig.eigenvectors, expected.eig.eigenvectors)):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_sandwich_records_are_kept_and_built_once(monkeypatch, kind):
    from qpathdiv import linalg

    pairs = _fresh_pairs((3, 3, 3))
    # a pair that comes twice is built once
    records = sandwich_records(kind, pairs + pairs[:1])
    assert records[3] is records[0]
    decomposed = []
    eigh = linalg._eigh
    monkeypatch.setattr(linalg, "_eigh", lambda h: decomposed.append(h) or eigh(h))
    again = sandwich_records(kind, pairs[::-1])
    assert all(a is b for a, b in zip(again, records[2::-1]))
    assert all(sandwich_record(kind, *pair) is record for pair, record in zip(pairs, records))
    assert decomposed == []
    # a new pair beside kept ones: only the new pair is built
    new = _fresh_pairs((3, 3, 3, 3))[3]
    assert all(a is b for a, b in zip(sandwich_records(kind, pairs + [new]), records[:3]))
    # X for kinds s and r; kind half's X is rho, which holds its decomposition
    assert [np.shape(h) for h in decomposed] == [(3, 3)] * (kind != GeodesicKind.HALF)


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD, GeodesicKind.HALF])
def test_sandwich_records_forget_a_rho_that_died(kind):
    import gc

    (rho, sigma), (other, _) = _fresh_pairs((3, 3))
    kept = sandwich_records(kind, [(rho, sigma), (other, sigma)])[1]
    assert len(sigma.__dict__["_sandwiches"]) == 2
    del rho
    gc.collect()
    # sigma keeps no dead rho alive: only the living rho's entry is left
    assert list(sigma.__dict__["_sandwiches"]) == [(kind, id(other))]
    assert sandwich_record(kind, other, sigma) is kept


def _direction_pairs(dim: int, seeds) -> list:
    """The pair (rho, sigma) drawn at seeds s and s + 1, for each s; every
    third pair is rebuilt from its matrices, so it holds no decomposition yet."""
    floor = 0.05 if dim < 16 else 0.005
    pairs = [tuple(random_density(RandomSpec(dim, s + t, floor)) for t in (0, 1)) for s in seeds]
    return [tuple(validate_density(x.matrix) for x in pair) if k % 3 == 2 else pair for k, pair in enumerate(pairs)]


def _solved_arrays(geodesic) -> dict:
    """Every array a solved geodesic holds: its direction, G and G's
    decomposition, and its moment function's arrays, each a stack of one
    curve; G's decomposition in the moment function is the geodesic's."""
    arrays = {"direction": geodesic.direction}
    moment = {name: a for name, a in vars(geodesic.moment).items() if isinstance(a, np.ndarray)}
    assert all(len(a) == 1 for a in moment.values())
    if geodesic.kind is not GeodesicKind.BOGOLJUBOV:
        eig = geodesic.aux_eig
        arrays.update(aux=geodesic.aux_direction, aux_values=eig.eigenvalues, aux_vectors=eig.eigenvectors)
        assert np.shares_memory(moment["_gen_values"], eig.eigenvalues)
        assert np.shares_memory(moment["_gen_vectors"], eig.eigenvectors)
    return {**arrays, **moment}


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_directions_equal_lone_calls_bitwise(kind, dim):
    seeds = range(300, 330, 5)
    pairs = _direction_pairs(dim, seeds)
    if kind is not GeodesicKind.BOGOLJUBOV:
        # the even pairs hold their sandwich records already, the odd ones do not
        sandwich_records(kind, pairs[::2])
    batched = solve_directions(kind, pairs)
    assert [g.base for g in batched] == [sigma for _, sigma in pairs]
    lone = [solve_direction(kind, *pair) for pair in _direction_pairs(dim, seeds)]
    for got, expected in zip(batched, lone):
        a, b = _solved_arrays(got), _solved_arrays(expected)
        assert a.keys() == b.keys() and len(a) == (3 if kind is GeodesicKind.BOGOLJUBOV else 11)
        for name in a:
            assert a[name].shape == b[name].shape and np.array_equal(a[name], b[name]), name
        assert got.moment(0.7) == expected.moment(0.7)
        assert got.moment.state(0.7).matrix.tobytes() == expected.moment.state(0.7).matrix.tobytes()


def _thin_pair() -> tuple:
    """A pair whose sigma has smallest eigenvalue 2e-12: the transport of
    kinds s and r misses its rho by about 3e-6, far above TARGET_TOL."""
    base = random_density(RandomSpec(3, 7, 0.05))
    w = base.eig.eigenvalues
    low = 2e-12
    sigma = _state_in_basis(base.eig.eigenvectors, np.concatenate([[low], w[1:] * ((1.0 - low) / w[1:].sum())]))
    return random_density(RandomSpec(3, 8, 0.05)), sigma


@pytest.mark.parametrize("kind", [GeodesicKind.SLD, GeodesicKind.RLD])
def test_solve_directions_name_the_pair_that_misses_its_target(kind):
    good = _direction_pairs(3, [1, 3])[:2]
    with pytest.raises(TargetMismatch) as info:
        solve_direction(kind, *_thin_pair())
    lone = str(info.value)
    assert re.fullmatch(r"transport misses the target by \d\.\d{3}e-0[5-7] \(tolerance 1e-08\)", lone)
    with pytest.raises(TargetMismatch) as info:
        solve_directions(kind, good + [_thin_pair()])
    assert str(info.value) == lone.replace("transport", "transport of pair 2")
    with pytest.raises(TargetMismatch, match=r"^transport misses the target"):
        solve_directions(kind, [_thin_pair()])


def test_solve_directions_name_the_pair_that_is_not_full_rank():
    good = _direction_pairs(2, [1])[0]
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    for kind in ALL_KINDS:
        with pytest.raises(NotFullRank, match=r"^sigma of pair 1 has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
            solve_directions(kind, [good, (good[0], thin)])
        with pytest.raises(NotFullRank, match=r"^rho of pair 0 has minimum eigenvalue 5\.000e-13"):
            solve_directions(kind, [(thin, good[1]), good])
        with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
            solve_directions(kind, [(good[0], thin)])
        with pytest.raises(NotFullRank, match=r"^sigma has minimum eigenvalue 5\.000e-13, at or below 1e-12"):
            solve_direction(kind, good[0], thin)


@pytest.mark.parametrize("k", [1, 5])
def test_kind_b_target_check_is_one_stacked_decomposition(monkeypatch, k):
    from qpathdiv import linalg, transport

    pairs = _direction_pairs(3, range(400, 400 + 3 * k, 3))
    for pair in pairs:  # every state holds its decomposition
        pair[0].eig, pair[1].eig
    calls = []
    eig = transport.eig_hermitian

    def counted(h):
        calls.append(h.shape)
        return eig(h)

    monkeypatch.setattr(transport, "eig_hermitian", counted)
    monkeypatch.setattr(linalg, "eig_hermitian", counted)
    solve_directions(GeodesicKind.BOGOLJUBOV, pairs)
    assert calls == [(k, 3, 3)]


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_states_on_a_grid_equal_each_lone_curve_bitwise(kind, dim):
    from qpathdiv.states import check_pairs
    from qpathdiv.transport import _solved_directions

    seeds = range(500, 520, 5)
    pairs = _direction_pairs(dim, seeds)
    moments = _solved_directions(kind, pairs, check_pairs(pairs, ("rho", "sigma")))[0]
    # each curve its own thetas, so that a row mix-up shows
    grid = np.array([[-0.3, 0.0, 0.45, 1.0, 1.7]]) + 0.1 * np.arange(len(pairs))[:, None]
    states, mus = moments._states(grid)
    assert len(states) == grid.size and (mus is None) == (kind is not GeodesicKind.BOGOLJUBOV)
    lone = [solve_direction(kind, *pair).moment for pair in _direction_pairs(dim, seeds)]
    for k, (mf, thetas) in enumerate(zip(lone, grid)):
        for j, theta in enumerate(thetas):
            got, expected = states[k * grid.shape[1] + j], mf.state(float(theta))
            assert got.matrix.tobytes() == expected.matrix.tobytes()
            assert got.min_eigenvalue == expected.min_eigenvalue
            if kind is GeodesicKind.BOGOLJUBOV:
                # the kept decomposition, and mu, are those of the curve alone
                assert "eig" in vars(got) and "eig" in vars(expected)
                assert got.eig.eigenvalues.tobytes() == expected.eig.eigenvalues.tobytes()
                assert got.eig.eigenvectors.tobytes() == expected.eig.eigenvectors.tobytes()
                assert mus[k * grid.shape[1] + j] == mf.state_and_moment(float(theta))[1]
    # one theta per curve is the grid's one-column case
    ones, _ = moments._states(grid[:, 2])
    assert [s.matrix.tobytes() for s in ones] == [s.matrix.tobytes() for s in states[2 :: grid.shape[1]]]


def _commutation_trials(dim: int, count: int) -> tuple:
    """The base states, both directions and both thetas of ``count`` trials."""
    sigmas = [random_density(RandomSpec(dim, 900 + k, 0.05)) for k in range(count)]
    l1 = [random_direction(dim, 950 + k) for k in range(count)]
    l2 = [random_direction(dim, 990 + k) for k in range(count)]
    thetas = np.random.Generator(np.random.PCG64(dim)).uniform(-1.0, 1.0, size=(2, count))
    return sigmas, l1, l2, thetas[0], thetas[1]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_commutation_defects_equal_lone_trials_bitwise(kind, dim):
    from qpathdiv.transport import _commutation_defects

    batched = _commutation_defects(kind, *_commutation_trials(dim, 6))
    # fresh states of the same draws, each base with the decomposition it was drawn with
    lone = [transport_commutation_defect(kind, *trial) for trial in zip(*_commutation_trials(dim, 6))]
    assert len(batched) == 6 and all(isinstance(v, float) for v in batched)
    assert batched == lone
    if kind is GeodesicKind.BOGOLJUBOV:
        assert max(batched) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_commutation_defects_name_the_bad_trial(kind):
    from qpathdiv.transport import _commutation_defects

    sigmas, l1, l2, theta1, theta2 = _commutation_trials(2, 4)
    bad = [[0, 1], [0, 0]]
    with pytest.raises(NotHermitian, match=r"^direction is not Hermitian within 1e-10 \(matrix 2 of 4 in the stack\)"):
        _commutation_defects(kind, sigmas, l1[:2] + [bad] + l1[3:], l2, theta1, theta2)
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    with pytest.raises(NotFullRank, match=r"^base of trial 3 has minimum eigenvalue 5\.000e-13"):
        _commutation_defects(kind, sigmas[:3] + [thin], l1, l2, theta1, theta2)
    # a batch of one, and the one-trial function, keep the one-trial messages
    for defects in (
        lambda *args: _commutation_defects(kind, *([a] for a in args)),
        lambda *args: transport_commutation_defect(kind, *args),
    ):
        with pytest.raises(NotHermitian, match=r"^direction is not Hermitian within 1e-10 \(measured"):
            defects(sigmas[0], np.array(bad, dtype=complex), l2[0], 0.3, 0.4)
        with pytest.raises(NotFullRank, match=r"^base has minimum eigenvalue 5\.000e-13, at or below 1e-12 \(measured"):
            defects(thin, l1[0], l2[0], 0.3, 0.4)
        with pytest.raises(DimensionMismatch, match=r"^direction shape \(3, 3\) does not match state dim 2$"):
            defects(sigmas[0], l1[0], random_direction(3, 1), 0.3, 0.4)
