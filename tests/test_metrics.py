import decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpathdiv.errors import DomainError, InvalidShape, NotFullRank
from qpathdiv.linalg import herm_power
from qpathdiv.metrics import (
    BOGOLJUBOV,
    HALF,
    RLD,
    SLD,
    MetricKind,
    e_inner,
    e_to_m,
    fisher_info_mixture,
    fisher_info_numeric,
    kernel_matrix,
    lambda_kind,
    m_inner,
    m_to_e,
    metric_from_tag,
)
from qpathdiv.states import RandomSpec, check_pairs, random_density, validate_density
from qpathdiv.transport import m_geodesic

from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
RHO_73 = validate_density(np.diag([0.7, 0.3]))

ALL_KINDS = [SLD, BOGOLJUBOV, RLD, HALF]

# frozen scalar-kernel oracles for rho = diag(0.7, 0.3)
C_B_73 = 0.4720890004575314  # 0.4 / (log 0.7 - log 0.3)
E_INNER_B_73 = 0.9441780009150628
M_INNER_RLD_73 = 4.761904761904762  # 1/0.7 + 1/0.3


def test_kernel_values():
    d = np.array([0.7, 0.3])
    assert np.isclose(kernel_matrix(SLD, d)[0, 1], 0.5)
    assert np.isclose(kernel_matrix(BOGOLJUBOV, d)[0, 1], C_B_73, atol=1e-14)
    assert np.isclose(kernel_matrix(RLD, d)[0, 1], 0.7)
    assert np.isclose(kernel_matrix(RLD, d)[1, 0], 0.3)
    assert np.isclose(kernel_matrix(HALF, d)[0, 1], np.sqrt(0.21), atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_diagonal_is_identity_map(kind):
    d = np.array([0.41, 0.41, 0.18])  # includes an exactly coincident pair
    c = kernel_matrix(kind, d)
    assert np.allclose(np.diagonal(c), d)
    assert c[0, 1] == pytest.approx(0.41, abs=0)  # c(a, a) = a exactly


def test_bogoljubov_kernel_near_degenerate_branch():
    d = np.array([0.5, 0.5 * (1 + 1e-9)])
    c = kernel_matrix(BOGOLJUBOV, d)
    assert np.isfinite(c).all()
    assert np.isclose(c[0, 1], 0.5, atol=1e-9)


@pytest.mark.parametrize("b", [0.5, 0.013, 1e-6])
def test_bogoljubov_kernel_matches_decimal_reference(b):
    # 50-digit logarithmic mean, including gaps just above 1e-8
    gaps = [1e-12, 1e-10, 1e-9, 5e-9, 1.01e-8, 2e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.1, 0.5]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for gap in gaps:
            a = b * (1.0 + gap)
            da, db = decimal.Decimal(a), decimal.Decimal(b)
            reference = float((da - db) / (da.ln() - db.ln()))
            c = kernel_matrix(BOGOLJUBOV, np.array([a, b]))
            assert c[0, 1] == c[1, 0]
            assert abs(c[0, 1] - reference) <= 1e-14 * reference, gap


def test_metric_kind_validation():
    for lam in (1.5, -0.1, float("nan")):
        with pytest.raises(InvalidShape):
            lambda_kind(lam)
    with pytest.raises(InvalidShape):
        MetricKind("lambda")
    for name in ("bogus", "measure"):
        with pytest.raises(InvalidShape):
            MetricKind(name)


def test_metric_from_tag_parses_and_round_trips_each_tag():
    tags = [
        ("s", SLD),
        ("b", BOGOLJUBOV),
        ("r", RLD),
        ("half", HALF),
        ("lambda=0.5", HALF),
        ("lambda=0.25", lambda_kind(0.25)),
        ("lambda=0.3", lambda_kind(0.3)),
        ("lambda=1e-3", lambda_kind(1e-3)),
    ]
    for tag, kind in tags:
        assert metric_from_tag(tag) == kind
        assert metric_from_tag(kind.label()) == kind
    assert [k.label() for k in ALL_KINDS] == ["s", "b", "r", "half"]
    assert lambda_kind(0.3).label() == "lambda=0.3"
    assert lambda_kind(1 / 3).label() == f"lambda={1 / 3!r}"
    bad = ("lambda", "lambda=", "lambda=x", "lambda=1.5", "lambda=nan", "lambda(0.3)", "S", "",
           {"lambda": 0.5}, {"measure": [[0.0, 0.5], [1.0, 0.5]]}, 0.5)
    for tag in bad:
        with pytest.raises(InvalidShape):
            metric_from_tag(tag)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_e_to_m_identity_gives_state(kind):
    rho = random_density(RandomSpec(3, 31, 0.05))
    assert np.allclose(e_to_m(rho, kind, np.eye(3)), rho.matrix, atol=1e-12)


def test_e_to_m_worked_examples():
    assert np.allclose(e_to_m(RHO_73, SLD, PAULI_X), 0.5 * PAULI_X, atol=1e-14)
    expected_rld = np.array([[0, 0.7], [0.3, 0]], dtype=complex)
    assert np.allclose(e_to_m(RHO_73, RLD, PAULI_X), expected_rld, atol=1e-14)


def test_e_to_m_matches_direct_formulas():
    rho = random_density(RandomSpec(3, 41, 0.05))
    x = random_hermitian(3, 42) + 1j * 0.3 * random_hermitian(3, 43)
    sld_direct = (rho.matrix @ x + x @ rho.matrix) / 2
    assert np.linalg.norm(e_to_m(rho, SLD, x) - sld_direct) <= 1e-9
    assert np.linalg.norm(e_to_m(rho, RLD, x) - rho.matrix @ x) <= 1e-9


def test_bogoljubov_matches_lambda_average():
    # oracle: 64-node quadrature of rho^l X rho^(1-l) over l in [0, 1]
    rho = random_density(RandomSpec(3, 51, 0.05))
    x = random_hermitian(3, 52)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    lam = (nodes + 1) / 2
    acc = np.zeros((3, 3), dtype=complex)
    for l, w in zip(lam, weights):
        acc += 0.5 * w * herm_power(rho.matrix, l) @ x @ herm_power(rho.matrix, 1 - l)
    assert np.linalg.norm(e_to_m(rho, BOGOLJUBOV, x) - acc) <= 1e-9


def test_m_to_e_worked_example():
    assert np.allclose(m_to_e(RHO_73, SLD, PAULI_X), 2.0 * PAULI_X, atol=1e-13)


def test_m_to_e_inverse_of_state():
    rho = random_density(RandomSpec(3, 61, 0.05))
    for kind in ALL_KINDS:
        assert np.allclose(m_to_e(rho, kind, rho.matrix), np.eye(3), atol=1e-11)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip(kind, seed):
    rho = random_density(RandomSpec(3, 71, 0.05))
    x = random_hermitian(3, seed)
    back = m_to_e(rho, kind, e_to_m(rho, kind, x))
    assert np.linalg.norm(back - x) <= 1e-9 * max(np.linalg.norm(x), 1.0)


def test_full_rank_required():
    pure = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFullRank):
        e_to_m(pure, SLD, PAULI_X)
    with pytest.raises(NotFullRank):
        m_to_e(pure, SLD, PAULI_X)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_e_inner_identity_normalization(kind):
    rho = random_density(RandomSpec(3, 81, 0.05))
    assert np.isclose(e_inner(rho, kind, np.eye(3), np.eye(3)), 1.0, atol=1e-12)


def test_e_inner_worked_bogoljubov():
    value = e_inner(RHO_73, BOGOLJUBOV, PAULI_X, PAULI_X)
    assert np.isclose(value.real, E_INNER_B_73, atol=1e-13)
    assert abs(value.imag) <= 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(st.integers(min_value=0, max_value=10_000))
def test_e_inner_positive_and_hermitian(kind, seed):
    rho = random_density(RandomSpec(2, 91, 0.05))
    x = random_hermitian(2, seed)
    y = random_hermitian(2, seed + 1)
    xx = e_inner(rho, kind, x, x)
    assert xx.real >= -1e-12 and abs(xx.imag) <= 1e-10
    assert abs(e_inner(rho, kind, y, x) - np.conj(e_inner(rho, kind, x, y))) <= 1e-10


def test_symmetric_kinds_preserve_hermiticity():
    rho = random_density(RandomSpec(3, 111, 0.05))
    x = random_hermitian(3, 112)
    for kind in (SLD, BOGOLJUBOV, HALF):
        out = e_to_m(rho, kind, x)
        assert np.linalg.norm(out - out.conj().T) <= 1e-10


def test_m_inner_state_normalization():
    rho = random_density(RandomSpec(3, 121, 0.05))
    for kind in ALL_KINDS:
        assert np.isclose(m_inner(rho, kind, rho.matrix, rho.matrix).real, 1.0, atol=1e-11)


def test_m_inner_worked_rld():
    value = m_inner(RHO_73, RLD, PAULI_X, PAULI_X)
    assert np.isclose(value.real, M_INNER_RLD_73, atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_m_inner_duality(seed):
    rho = random_density(RandomSpec(3, 131, 0.05))
    a = random_hermitian(3, seed)
    for kind in ALL_KINDS:
        direct = m_inner(rho, kind, a, a)
        via_e = e_inner(rho, kind, m_to_e(rho, kind, a), m_to_e(rho, kind, a))
        assert abs(direct - via_e) <= 1e-9 * max(abs(direct), 1.0)


@given(st.integers(min_value=0, max_value=10_000))
def test_rld_norm_dominates(seed):
    rho = random_density(RandomSpec(3, 141, 0.05))
    a = random_hermitian(3, seed)
    top = m_inner(rho, RLD, a, a).real
    for kind in (SLD, BOGOLJUBOV, HALF):
        assert top >= m_inner(rho, kind, a, a).real - 1e-10


def test_fisher_mixture_zero_tangent():
    rho = random_density(RandomSpec(3, 151, 0.05))
    for kind in ALL_KINDS:
        assert fisher_info_mixture(rho, rho, kind, 0.3) <= 1e-20


def test_fisher_mixture_commuting_matches_classical():
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    rho = validate_density(np.diag(p))
    sigma = validate_density(np.diag(q))
    for t in (0.2, 0.5, 0.8):
        classical = float(np.sum((q - p) ** 2 / ((1 - t) * p + t * q)))
        values = [fisher_info_mixture(rho, sigma, kind, t) for kind in ALL_KINDS]
        assert all(np.isclose(v, classical, atol=1e-12) for v in values)


@given(st.integers(min_value=0, max_value=10_000))
def test_fisher_mixture_rld_largest(seed):
    rho = random_density(RandomSpec(2, seed, 0.05))
    sigma = random_density(RandomSpec(2, seed + 1, 0.05))
    t = 0.4
    top = fisher_info_mixture(rho, sigma, RLD, t)
    for kind in (SLD, BOGOLJUBOV, HALF):
        assert top >= fisher_info_mixture(rho, sigma, kind, t) - 1e-10


def test_fisher_numeric_constant_family():
    rho = random_density(RandomSpec(2, 161, 0.05))
    assert fisher_info_numeric(lambda t: rho, 0.5, SLD) <= 1e-18


def test_fisher_numeric_matches_mixture(pair_3x3):
    rho, sigma = pair_3x3
    for kind in ALL_KINDS:
        numeric = fisher_info_numeric(lambda t: m_geodesic(rho, sigma, t), 0.5, kind)
        exact = fisher_info_mixture(rho, sigma, kind, 0.5)
        assert abs(numeric - exact) <= 1e-6


def test_fisher_mixture_not_full_rank():
    pure = validate_density(np.diag([1.0, 0.0]))
    other = validate_density(np.diag([0.0, 1.0]))
    with pytest.raises(NotFullRank):
        fisher_info_mixture(pure, other, SLD, 0.0)


def test_fisher_mixture_not_full_rank_reports_first_t_and_eigenvalue():
    rho = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    sigma = validate_density(np.diag([2e-13, 1.0 - 2e-13]))
    with pytest.raises(NotFullRank, match=r"t=1 has minimum eigenvalue 2\.000e-13") as info:
        fisher_info_mixture(rho, sigma, SLD, np.array([0.3, 1.0, 0.0]))
    assert info.value.defect == pytest.approx(2e-13, rel=1e-3)
    with pytest.raises(NotFullRank, match=r"t=0 has minimum eigenvalue 5\.000e-13") as info:
        fisher_info_mixture(rho, sigma, SLD, 0.0)
    assert info.value.defect == pytest.approx(5e-13, rel=1e-3)


def test_kernel_frame_not_full_rank_reports_eigenvalue():
    rho = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    with pytest.raises(NotFullRank, match=r"minimum eigenvalue 5\.000e-13") as info:
        e_to_m(rho, SLD, PAULI_X)
    assert info.value.defect == pytest.approx(5e-13, rel=1e-3)


@pytest.mark.parametrize(
    "t, error, text",
    [
        (np.full((2, 2), 0.5), InvalidShape, r"t must be a float or a nonempty 1-d array, got shape \(2, 2\)"),
        (np.array([]), InvalidShape, r"t must be a float or a nonempty 1-d array, got shape \(0,\)"),
        (np.nan, DomainError, "t must be finite, got nan"),
        (np.inf, DomainError, "t must be finite, got inf"),
        (np.array([0.1, 0.2, -np.inf]), DomainError, "t must be finite, got -inf"),
    ],
    ids=["matrix", "empty", "nan", "inf", "array-with-minus-inf"],
)
def test_fisher_mixture_rejects_malformed_t(pair_3x3, t, error, text):
    rho, sigma = pair_3x3
    for kind in (SLD, (SLD, RLD)):
        with pytest.raises(error, match=text):
            fisher_info_mixture(rho, sigma, kind, t)


STACK_KINDS = ALL_KINDS + [lambda_kind(0.3)]
# fixed ids, so test names do not follow the label spelling
STACK_IDS = ["s", "b", "r", "half", "lambda(0.3)"]


@pytest.mark.parametrize("kind", STACK_KINDS, ids=STACK_IDS)
def test_kernel_matrix_stack_matches_rows(kind):
    spectra = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
    stacked = kernel_matrix(kind, spectra)
    assert stacked.shape == (3, 3, 3)
    for row, c in zip(spectra, stacked):
        assert np.array_equal(c, kernel_matrix(kind, row))
    # coincident eigenvalues are pinned in every row: c(a, a) = a exactly
    assert stacked[1, 0, 1] == 0.3 and stacked[2, 1, 2] == 0.25


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
@pytest.mark.parametrize("kind", STACK_KINDS, ids=STACK_IDS)
def test_fisher_mixture_array_matches_scalar(kind, dim):
    rho = random_density(RandomSpec(dim, 700 + dim, 0.01))
    sigma = random_density(RandomSpec(dim, 800 + dim, 0.01))
    ts = (np.polynomial.legendre.leggauss(64)[0] + 1.0) / 2.0  # two blocks at dim 16
    stacked = fisher_info_mixture(rho, sigma, kind, ts)
    assert stacked.shape == ts.shape
    for t, value in zip(ts, stacked):
        scalar = fisher_info_mixture(rho, sigma, kind, float(t))
        assert isinstance(scalar, float)
        assert abs(value - scalar) <= 1e-14 * abs(scalar)


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_fisher_mixture_kind_tuple_matches_one_kind_calls(dim):
    rho = random_density(RandomSpec(dim, 710 + dim, 0.01))
    sigma = random_density(RandomSpec(dim, 810 + dim, 0.01))
    ts = (np.polynomial.legendre.leggauss(64)[0] + 1.0) / 2.0  # two blocks at dim 16
    kinds = tuple(STACK_KINDS)
    rows = fisher_info_mixture(rho, sigma, kinds, ts)
    assert rows.shape == (len(kinds), ts.size)
    at_point = fisher_info_mixture(rho, sigma, kinds, 0.4)
    assert at_point.shape == (len(kinds),)
    for kind, row, value in zip(kinds, rows, at_point):
        assert np.array_equal(row, fisher_info_mixture(rho, sigma, kind, ts))
        assert value == fisher_info_mixture(rho, sigma, kind, 0.4)


def test_fisher_mixture_rejects_empty_kind_tuple(pair_3x3):
    rho, sigma = pair_3x3
    with pytest.raises(InvalidShape, match="at least one metric kind"):
        fisher_info_mixture(rho, sigma, (), np.array([0.5]))


def test_fisher_mixture_kind_tuple_not_full_rank_report():
    rho = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    sigma = validate_density(np.diag([2e-13, 1.0 - 2e-13]))
    ts = np.array([0.3, 1.0, 0.0])
    reports = []
    for kind in (SLD, (SLD, BOGOLJUBOV, RLD, HALF)):
        with pytest.raises(NotFullRank) as info:
            fisher_info_mixture(rho, sigma, kind, ts)
        reports.append((str(info.value), info.value.defect))
    assert reports[0] == reports[1]
    assert "t=1 has minimum eigenvalue 2.000e-13" in reports[1][0]


def test_kernel_matrix_fails_on_a_nan_eigenvalue():
    with pytest.raises(DomainError, match="strictly positive spectrum, min nan"):
        kernel_matrix(SLD, np.array([np.nan, 0.5]))


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_segment_info_stack_matches_one_pair_calls(dim):
    from qpathdiv.metrics import _segment_info

    pairs = [
        (random_density(RandomSpec(dim, 720 + k, 0.01)), random_density(RandomSpec(dim, 820 + k, 0.01)))
        for k in range(5)
    ]
    ts = (np.polynomial.legendre.leggauss(57)[0] + 1.0) / 2.0
    kinds = tuple(STACK_KINDS)
    stacked = _segment_info(pairs, kinds, ts, check_pairs(pairs))
    assert stacked.shape == (len(pairs), len(kinds), ts.size)
    for rows, (rho, sigma) in zip(stacked, pairs):
        assert rows.tobytes() == fisher_info_mixture(rho, sigma, kinds, ts).tobytes()


def test_segment_info_names_the_pair_of_a_singular_mixture_state():
    from qpathdiv.metrics import _segment_info

    rho = validate_density(np.diag([1.0 - 5e-13, 5e-13]))
    sigma = validate_density(np.diag([2e-13, 1.0 - 2e-13]))
    full = validate_density(np.diag([0.4, 0.6]))
    ts = np.array([0.3, 1.0, 0.0])
    with pytest.raises(NotFullRank, match=r"^mixture state of pair 7 at t=1 has minimum eigenvalue 2\.000e-13"):
        _segment_info([(full, full), (rho, sigma)], (SLD,), ts, [" of pair 3", " of pair 7"])
    with pytest.raises(NotFullRank) as info:
        fisher_info_mixture(rho, sigma, SLD, ts)
    assert str(info.value) == (
        "mixture state at t=1 has minimum eigenvalue 2.000e-13, at or below 1e-12 (measured defect 2.000000e-13)"
    )


@pytest.mark.parametrize("dim", [2, 3, 16])
@pytest.mark.parametrize("kind", [SLD, BOGOLJUBOV, RLD, HALF, lambda_kind(0.3)])
def test_kernel_map_of_a_stack_equals_each_state_bitwise(kind, dim):
    from qpathdiv.linalg import decomposition
    from qpathdiv.metrics import _kernel_map

    floor = 0.05 if dim < 16 else 1e-3
    states = [validate_density(random_density(RandomSpec(dim, 60 + k, floor)).matrix) for k in range(4)]
    operands = np.array([random_hermitian(dim, 80 + k) + 1j * random_hermitian(dim, 90 + k) for k in range(4)])
    # one decomposition of the stack, which each state then keeps
    eig = decomposition(states)
    for op, one in ((np.multiply, e_to_m), (np.divide, m_to_e)):
        expected = np.array([one(rho, kind, x) for rho, x in zip(states, operands)])
        assert _kernel_map(eig, kind, operands, op).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family_of", ["m_geodesic", "moment_state"])
@pytest.mark.parametrize("kind", [SLD, BOGOLJUBOV, RLD, HALF])
def test_numeric_info_equals_fisher_info_numeric_bitwise(kind, family_of):
    from qpathdiv.metrics import _numeric_info
    from qpathdiv.transport import GeodesicKind, solve_direction

    def families():
        # fresh states on every call, so that no decomposition is shared
        for seed in range(40, 44):
            rho, sigma = (random_density(RandomSpec(3, 2 * seed + t, 0.05)) for t in (0, 1))
            if family_of == "m_geodesic":
                yield lambda u, rho=rho, sigma=sigma: m_geodesic(rho, sigma, u)
            else:
                yield solve_direction(GeodesicKind(kind.label()), rho, sigma).moment.state

    thetas = (0.2, 0.5, 0.8)
    lone = [fisher_info_numeric(family, theta, kind) for family in families() for theta in thetas]
    # every point of every family in one call: one run of stencil states per family
    def stencils(grid):
        return [family(u) for family in families() for u in grid.tolist()]

    assert _numeric_info(kind, stencils, thetas).tolist() == lone


def test_numeric_info_names_the_point_that_is_not_full_rank():
    from qpathdiv.metrics import _numeric_info

    good = random_density(RandomSpec(2, 3, 0.05))
    thin = validate_density(np.diag([1.0 - 5e-13, 5e-13]))

    def family(grid):
        # good about 0, thin about 1
        return [good if u < 0.5 else thin for u in grid.tolist()]

    with pytest.raises(NotFullRank, match=r"^rho at point 1 has minimum eigenvalue 5\.000e-13"):
        _numeric_info(SLD, family, [0.0, 1.0])
    with pytest.raises(NotFullRank, match=r"^rho has minimum eigenvalue 5\.000e-13"):
        _numeric_info(SLD, family, [1.0])
