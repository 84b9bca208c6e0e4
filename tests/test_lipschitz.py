from dataclasses import dataclass

import numpy as np
import pytest

from lipsam.errors import DomainError, NonFiniteError, ShapeError
from lipsam.lipschitz import (
    LipschitzEstimate,
    SearchConfig,
    TrialRecord,
    _ascent_gradient,
    _objective,
    conv2d_family,
    counterexample_bias,
    counterexample_permutation,
    estimate_B,
    fixed_modifier_family,
    modifier_jacobian,
    top_singular_triple,
)
from lipsam.modifier import (
    BiasAdd,
    IdentityMap,
    ModifierArchitecture,
    NetMap,
    PermutationMap,
    SoftThreshConstant,
    ZeroMap,
    apply_to_values,
)
from lipsam.network import (
    IDENTITY,
    LEAKY_RELU,
    SOFTPLUS,
    ConvLayer,
    ConvNet,
    project_unit_ball,
)
from oracles import (
    certify_layer,
    jacobian_fd,
    objective_fd_gradient,
    polar_jacobian,
    realify,
    run_trial,
    unrealify,
)

# ---------------------------------------------------------------- realify


def test_realify_interleaves_re_im():
    z = np.array([1.0 + 2.0j, 3.0 - 4.0j])
    assert np.array_equal(realify(z), [1.0, 2.0, 3.0, -4.0])
    assert np.array_equal(unrealify(realify(z), (2,)), z)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
def test_realify_round_trip(shape):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(unrealify(realify(z), shape), z)
    assert realify(z).shape == (2 * z.size,)
    # leading axes stay in front, and each slice realifies on its own
    for lead in (1, 2):
        stack_shape = (2, 3)[:lead] + shape
        stack = rng.standard_normal(stack_shape) + 1j * rng.standard_normal(stack_shape)
        flat = realify(stack, lead=lead)
        assert flat.shape == stack.shape[:lead] + (2 * z.size,)
        assert np.array_equal(unrealify(flat, shape), stack)
        for index in np.ndindex(stack.shape[:lead]):
            assert np.array_equal(flat[index], realify(stack[index]))


def test_unrealify_rejects_wrong_length():
    with pytest.raises(ShapeError):
        unrealify(np.zeros(5), (2,))


def realified(arch, shape):
    """The modifier as a map of interleaved real vectors on ``shape``; leading
    axes of the input stay in front."""

    def mapping(vector):
        return realify(apply_to_values(arch, unrealify(vector, shape)), lead=np.ndim(vector) - 1)

    return mapping


def test_realified_map_matches_modifier():
    arch = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.2))
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    # a stack of realified points maps like each point on its own
    stacked = realified(arch, (2, 3))(realify(z, lead=1))
    assert stacked.shape == (4, 12)
    for k in range(4):
        assert np.array_equal(stacked[k], realify(apply_to_values(arch, z[k])))


# ---------------------------------------------------------------- jacobians


def test_jacobian_fd_matches_analytic_quadratic():
    def fn(p):
        return np.array([p[0] ** 2, p[0] * p[1], p[1] ** 2])

    point = np.array([1.5, -0.7])
    jac = jacobian_fd(fn, point, epsilon=1e-6)
    want = np.array([[3.0, 0.0], [-0.7, 1.5], [0.0, -1.4]])
    assert np.allclose(jac, want, atol=1e-7)


def test_jacobian_fd_validation():
    with pytest.raises(ShapeError):
        jacobian_fd(lambda p: p, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        jacobian_fd(lambda p: p, np.zeros(2), epsilon=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            jacobian_fd(lambda p: p / 0.0, np.ones(2))


def amplitude_jacobian_at(arch, z):
    """The amplitude Jacobian J_A the bound search decomposes at one point ``z``."""
    jac, _, finite = modifier_jacobian(arch, np.abs(z)[None])
    assert finite[0]
    return jac[0]


def _certified_net_2d(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    layers = []
    for c_in, c_out in ((1, 2), (2, 1)):
        raw = ConvLayer(rng.standard_normal((c_out, c_in, 3, 3)), activation=SOFTPLUS)
        layers.append(certify_layer(raw, (4, 4)))
    return ConvNet(tuple(layers), scale=scale)


def _polar_cases():
    """(stacked or shared arch, [trials, *shape] points, each trial's own
    arch) at smooth points, for every inner map the bound search runs."""
    rng = np.random.default_rng(5)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    fam = conv2d_family("am_se")
    thetas = np.stack([fam.sample_parameters(rng) for _ in range(2)])
    cases = [(fam.build(thetas), draw((2, 4, 4)), [fam.build(t) for t in thetas])]
    for arch, shape in (
        (ModifierArchitecture("lipsam_se", NetMap(_certified_net_2d(4))), (4, 4)),
        (ModifierArchitecture("lipsam_se", NetMap(_net_1d())), (4, 5)),
        (ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1)), (4, 4)),
        (ModifierArchitecture("am_se", IdentityMap()), (3,)),
        (ModifierArchitecture("am_se", BiasAdd(1.0)), (3,)),
        (ModifierArchitecture("am_re", PermutationMap(np.array([2, 0, 3, 1]))), (4,)),
    ):
        cases.append((arch, draw((2,) + shape), [arch, arch]))
    return cases


def test_modifier_jacobian_matches_generic_fd():
    for arch, z, singles in _polar_cases():
        jac, _, finite = modifier_jacobian(arch, np.abs(z))
        assert finite.all()
        for r, single in enumerate(singles):
            fast = polar_jacobian(single, z[r])
            # Richardson-extrapolated central differences: O(h^4) truncation
            mapping, point = realified(single, z.shape[1:]), realify(z[r])
            slow = (4.0 * jacobian_fd(mapping, point, 5e-4) - jacobian_fd(mapping, point, 1e-3)) / 3.0
            assert np.allclose(fast, slow, atol=1e-10), (arch.kind, type(arch.inner).__name__)
            # the stacked search path decomposes the J_A of each trial alone
            assert np.allclose(jac[r], amplitude_jacobian_at(single, z[r]), rtol=0.0, atol=1e-14)


@pytest.mark.bitwise
def test_objective_sigma_is_the_svd_of_the_polar_jacobian():
    rng = np.random.default_rng(17)
    fam = conv2d_family("lipsam_re", scale=1.0)
    theta = fam.project(fam.sample_parameters(rng))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bias = ModifierArchitecture("am_se", BiasAdd(1.0))
    cases = [
        # J_A wins: every ratio A/x of a safeguarded kind is at most 1
        (fam, theta, z, fam.build(theta), False),
        # a tangential ratio wins: A/x = (x + 1)/x is large near zero
        (fixed_modifier_family(bias, (3,)), np.zeros(0), np.array([0.01j, 1.0, -2.0 + 1j]),
         bias, True),
    ]
    for family, t, point, arch, tangential in cases:
        x = np.abs(point)
        sigma, u, v, term = _objective(family, t[None], x[None])
        want = np.linalg.svd(polar_jacobian(arch, point), compute_uv=False)[0]
        assert abs(sigma[0] - want) <= 1e-12 * want
        assert (term[0] >= 0) == tangential
        # at the zero-phase point z = x the radial directions are the real
        # axes and the tangential ones the imaginary axes
        left, right = _top_directions(u[0], v[0], term[0])
        jac = polar_jacobian(arch, x)
        assert abs(realify(left) @ jac @ realify(right) - sigma[0]) <= 1e-12 * want
        jac_a, ratio, _ = modifier_jacobian(arch, x[None])
        top_a = np.linalg.svd(jac_a[0], compute_uv=False)[0]
        assert (ratio.max() > top_a) == tangential
        assert sigma[0] == max(ratio.max(), top_a)


def test_objective_masks_a_coefficient_at_exactly_zero():
    # sign(0) = 0: the coordinate has no radial or tangential column, and
    # its 0/0 and 1/0 ratios must not reach the SVD
    for arch in (
        ModifierArchitecture("am_se", BiasAdd(1.0)),
        ModifierArchitecture("lipsam_se", NetMap(_certified_net_2d(4))),
    ):
        shape = (3,) if isinstance(arch.inner, BiasAdd) else (4, 4)
        rng = np.random.default_rng(23)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z.reshape(-1)[1] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            sigma, u, v, term = _objective(
                fixed_modifier_family(arch, shape), np.zeros((1, 0)), np.abs(z)[None]
            )
        assert np.isfinite(sigma[0]) and sigma[0] > 0.0
        # J_A's row and column there are zero, so its singular pair is too
        assert abs(u[0].reshape(-1)[1]) <= 1e-12 and abs(v[0].reshape(-1)[1]) <= 1e-12
        assert term[0] != 1
        want = np.linalg.svd(polar_jacobian(arch, z), compute_uv=False)[0]
        assert abs(sigma[0] - want) <= 1e-12 * want


def test_modifier_jacobian_bounded_by_certificate():
    cases = [
        (ModifierArchitecture("lipsam_se", NetMap(_certified_net_2d(6))), np.sqrt(2.0)),
        (ModifierArchitecture("lipsam_re", NetMap(_certified_net_2d(7))), 2.0),
    ]
    rng = np.random.default_rng(8)
    for arch, bound in cases:
        for _ in range(10):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            sigma, _, _ = top_singular_triple(polar_jacobian(arch, z))
            assert sigma <= bound + 1e-12


# ---------------------------------------------------------------- operator norms


def test_top_singular_triple_on_diagonal():
    sigma, u, v = top_singular_triple(np.diag([3.0, -7.0, 2.0]))
    assert sigma == 7.0
    assert np.array_equal(np.abs(u), [0.0, 1.0, 0.0])
    assert np.array_equal(np.abs(v), [0.0, 1.0, 0.0])


def test_top_singular_triple_consistent():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((6, 5))
    sigma, u, v = top_singular_triple(m)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(u @ m @ v - sigma) < 1e-12
    assert abs(sigma - np.linalg.svd(m, compute_uv=False)[0]) < 1e-12


# ---------------------------------------------------------------- config


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    with pytest.raises(DomainError):
        SearchConfig(step_size=0.0)
    with pytest.raises(DomainError):
        SearchConfig(termination_threshold=-1.0)
    for seed in (-1, 1.5):
        with pytest.raises(DomainError):
            SearchConfig(seed=seed)
    for field in ("step_size", "termination_threshold"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                SearchConfig(**{field: value})
    # numpy integers are integers
    config = SearchConfig(restarts=np.int64(3), max_iterations=np.uint8(0), seed=np.int32(1))
    assert config.restarts == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 2.5),
        ("restarts", np.float64(4.0)),
        ("restarts", True),
        ("restarts", "3"),
        ("max_iterations", 1.5),
        ("max_iterations", False),
        ("seed", True),
    ],
)
def test_search_config_requires_integer_counts(field, value):
    with pytest.raises(DomainError, match=field):
        SearchConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("step_size", True), ("step_size", "0.1"), ("termination_threshold", True)],
)
def test_search_config_requires_numeric_knobs(field, value):
    with pytest.raises(DomainError, match=field):
        SearchConfig(**{field: value})


# ---------------------------------------------------------------- counterexamples


@pytest.mark.parametrize("epsilon", [1.0, 1e-3, 1e-6])
def test_counterexample_bias_formula(epsilon):
    value = counterexample_bias(epsilon)
    expected = (epsilon + 1.0) / epsilon
    assert abs(value - expected) <= 1e-9 * expected


@pytest.mark.parametrize("epsilon", [1.0, 1e-3, 1e-6])
def test_counterexample_permutation_formula(epsilon):
    value = counterexample_permutation(epsilon)
    expected = 1.0 / epsilon
    assert abs(value - expected) <= 1e-9 * expected


def test_counterexamples_blow_up_as_epsilon_shrinks():
    grid = [10.0**-k for k in range(7)]
    bias_values = [counterexample_bias(e) for e in grid]
    perm_values = [counterexample_permutation(e) for e in grid]
    assert all(b > a for a, b in zip(bias_values, bias_values[1:]))
    assert all(b > a for a, b in zip(perm_values, perm_values[1:]))


def test_counterexample_validation():
    with pytest.raises(DomainError):
        counterexample_bias(0.0)
    with pytest.raises(DomainError):
        counterexample_permutation(-1e-3)


# ---------------------------------------------------------------- families


def test_conv2d_family_parameters_round_trip():
    fam = conv2d_family("lipsam_se", scale=2.0)
    assert fam.parameter_count == 27 + 81 + 27
    theta = fam.sample_parameters(np.random.default_rng(11))
    arch = fam.build(theta)
    assert isinstance(arch.inner, NetMap)
    net = arch.inner.net
    assert net.scale == 2.0
    assert np.array_equal(net.flatten_parameters(), theta)
    kinds = [layer.activation.kind for layer in net.layers]
    assert kinds == ["softplus", "softplus", "identity"]
    assert all(layer.bias is None for layer in net.layers)


def test_conv2d_family_unconstrained_has_biases():
    fam = conv2d_family("am_se")
    assert fam.project is None
    assert fam.certified_bound is None
    arch = fam.build(fam.sample_parameters(np.random.default_rng(12)))
    assert all(layer.bias is not None for layer in arch.inner.net.layers)


def test_conv2d_family_projection_contracts():
    from lipsam.network import circulant_operator_norm

    fam = conv2d_family("lipsam_re", scale=1.0)
    theta = 5.0 * fam.sample_parameters(np.random.default_rng(13))
    projected = fam.project(theta)
    net = fam.build(projected).inner.net
    for layer in net.layers:
        assert circulant_operator_norm(layer, (4, 4)) <= 1.0 + 1e-9
    # feasible points are fixed points of the projection
    assert np.array_equal(fam.project(projected), projected)


def test_conv2d_family_projection_is_project_unit_ball():
    fam = conv2d_family("lipsam_se", scale=1.0)
    rng = np.random.default_rng(15)
    for factor in (0.05, 1.0, 5.0):
        theta = factor * fam.sample_parameters(rng)
        net = fam.build(theta).inner.net
        want = project_unit_ball(net, fam.input_shape).flatten_parameters()
        assert fam.project(theta).tobytes() == want.tobytes()


def test_conv2d_family_certified_bounds():
    assert abs(conv2d_family("lipsam_se", scale=2.0).certified_bound - np.sqrt(5.0)) < 1e-12
    assert abs(conv2d_family("lipsam_re", scale=0.5).certified_bound - 1.5) < 1e-12
    assert conv2d_family("am_re").certified_bound is None
    assert conv2d_family("lipsam_se", constrained=False).certified_bound is None


def test_conv2d_family_validation():
    with pytest.raises(DomainError):
        conv2d_family("identity")
    with pytest.raises(DomainError):
        conv2d_family("lipsam_se", scale=0.0)


def test_fixed_family_soft_threshold():
    arch = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1))
    fam = fixed_modifier_family(arch, (4,))
    assert fam.parameter_count == 0
    assert fam.certified_bound == 1.0
    est = estimate_B(fam, SearchConfig(restarts=3, max_iterations=25, seed=2))
    assert 0.9 <= est.value <= 1.0 + 1e-6
    assert not est.violates_bound()


# ---------------------------------------------------------------- estimate_B


def test_estimate_b_identity_modifier_is_one():
    fam = fixed_modifier_family(ModifierArchitecture("am_se", IdentityMap()), (3,))
    est = estimate_B(fam, SearchConfig(restarts=2, max_iterations=10, seed=4))
    assert abs(est.value - 1.0) <= 1e-9
    assert est.certified_bound is None
    assert not est.violates_bound()


def test_estimate_b_deterministic():
    fam = conv2d_family("lipsam_re", scale=1.0)
    config = SearchConfig(restarts=3, max_iterations=12, seed=21)
    first = estimate_B(fam, config)
    second = estimate_B(fam, config)
    assert [r.value for r in first.records] == [r.value for r in second.records]
    assert [r.iterations for r in first.records] == [r.iterations for r in second.records]
    assert [r.terminated_early for r in first.records] == [
        r.terminated_early for r in second.records
    ]
    assert np.array_equal(first.witness_values, second.witness_values)
    assert np.array_equal(first.witness_parameters, second.witness_parameters)
    assert first.witness_trial == second.witness_trial
    assert first.value == second.value


def test_estimate_b_respects_certificate():
    fam = conv2d_family("lipsam_re", scale=1.0)
    est = estimate_B(fam, SearchConfig(restarts=4, max_iterations=30, seed=5))
    assert est.certified_bound == 2.0
    assert est.value <= 2.0 + 0.01
    assert all(r.value <= 2.0 + 0.01 for r in est.records)
    assert not est.violates_bound()


def test_estimate_b_finds_unguarded_blowup():
    fam = conv2d_family("am_se")
    est = estimate_B(fam, SearchConfig(restarts=4, max_iterations=60, seed=6))
    assert est.value > 5.0
    assert any(r.terminated_early for r in est.records)
    # the witness reproduces a Jacobian norm past the threshold
    arch = fam.build(est.witness_parameters)
    sigma, _, _ = top_singular_triple(polar_jacobian(arch, est.witness_values))
    assert abs(sigma - est.value) <= 1e-9 * est.value


def test_estimate_b_zero_iterations_reports_start():
    fam = conv2d_family("lipsam_se", scale=1.0)
    est = estimate_B(fam, SearchConfig(restarts=2, max_iterations=0, seed=7))
    assert np.isfinite(est.value)
    assert all(r.iterations == 0 for r in est.records)


def _top_directions(u, v, term):
    """The top singular pair of the modifier Jacobian at the complex point
    z = x, from ``_objective``'s J_A pair and winning ratio index: u and v
    on the real axes, or i e_i twice when ratio i wins."""
    if term < 0:
        return u.astype(np.complex128), v.astype(np.complex128)
    turn = np.zeros(v.shape, dtype=np.complex128)
    turn.reshape(-1)[term] = 1j
    return turn, turn


def _witnessed_quotient(family, est, eps=1e-5):
    """(sigma, quotient) at the search's witness, the complex point z = x:
    the top singular value of the Jacobian there, and
    ‖D(z + εw) − D(z − εw)‖ / (2ε) along its top right singular vector w."""
    theta, x = est.witness_parameters, est.witness_values
    sigma, u, v, term = _objective(family, theta[None], x[None])
    _, w = _top_directions(u[0], v[0], term[0])
    arch = family.build(theta)
    gap = apply_to_values(arch, x + eps * w) - apply_to_values(arch, x - eps * w)
    return sigma[0], np.linalg.norm(gap) / (2.0 * eps)


def test_estimate_b_takes_a_leaky_relu_inner_net():
    # off its kinks a leaky-relu net is locally linear, so the exact
    # Jacobian norm at the witness is the quotient of two nearby points
    fam = fixed_modifier_family(
        ModifierArchitecture("lipsam_se", NetMap(_net_1d(LEAKY_RELU, channels=6, frames=8))),
        (6, 8),
    )
    est = estimate_B(fam, SearchConfig(restarts=4, max_iterations=20, seed=13))
    assert np.isfinite(est.value) and est.value > 0.5
    assert est.certified_bound == np.sqrt(2.0)
    assert est.value <= est.certified_bound + 1e-9
    sigma, quotient = _witnessed_quotient(fam, est)
    assert sigma == est.value
    assert abs(quotient - est.value) <= 1e-6 * est.value


def test_ascent_gradient_modes_agree():
    # J_A wins on the safeguarded kind; on the unguarded one a small
    # magnitude makes its ratio A_i / x_i win
    for kind, ratio_wins in (("lipsam_re", False), ("am_se", True)):
        fam = conv2d_family(kind, scale=1.0)
        shape = fam.input_shape
        rng = np.random.default_rng(3)
        theta = fam.sample_parameters(rng)
        if fam.project is not None:
            theta = fam.project(theta)
        x = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if ratio_wins:
            x[0, 0] = 0.01
        sigma, u, v, term = _objective(fam, theta[None], x[None])
        assert sigma[0] > 0.1
        assert term[0] == (0 if ratio_wins else -1)
        gx_bp, gt_bp = _ascent_gradient(fam, theta[None], x[None], u, v, term, 1e-5)
        gx_fd, gt_fd = objective_fd_gradient(fam, theta, x, 1e-5)
        g_bp = np.concatenate([gx_bp[0].reshape(-1), gt_bp[0]])
        g_fd = np.concatenate([gx_fd.reshape(-1), gt_fd])
        assert np.linalg.norm(g_bp - g_fd) <= 1e-4 * np.linalg.norm(g_fd), kind
        cosine = g_bp @ g_fd / (np.linalg.norm(g_bp) * np.linalg.norm(g_fd))
        assert cosine > 1.0 - 1e-8, kind


# ---------------------------------------------------------------- lockstep vs sequential


def _net_1d(hidden=SOFTPLUS, channels=4, frames=5):
    rng = np.random.default_rng(8)
    layers = []
    for c_in, c_out, act in ((channels, 3, hidden), (3, channels, IDENTITY)):
        raw = ConvLayer(
            rng.standard_normal((c_out, c_in, 3)), 0.1 * rng.standard_normal(c_out), activation=act
        )
        layers.append(certify_layer(raw, (frames,)))
    return ConvNet(tuple(layers))


@dataclass(frozen=True)
class _NanAbove(IdentityMap):
    """x, but NaN where x > 0.2: most start draws are non-finite."""

    def __call__(self, x):
        return np.where(x > 0.2, np.nan, x)


_ORACLE_CASES = {
    "lipsam_se": (
        lambda: conv2d_family("lipsam_se", scale=2.0),
        SearchConfig(restarts=5, max_iterations=25, termination_threshold=8.0, seed=11),
    ),
    "lipsam_re": (
        lambda: conv2d_family("lipsam_re", scale=1.0),
        SearchConfig(restarts=5, max_iterations=25, termination_threshold=8.0, seed=12),
    ),
    "am_se_unconstrained": (
        lambda: conv2d_family("am_se"),
        SearchConfig(restarts=6, max_iterations=60, termination_threshold=5.0, seed=6),
    ),
    "fixed_net_1d": (
        lambda: fixed_modifier_family(
            ModifierArchitecture("lipsam_se", NetMap(_net_1d())), (4, 5)
        ),
        SearchConfig(restarts=4, max_iterations=20, seed=9),
    ),
    "fixed_leaky_net_1d": (
        lambda: fixed_modifier_family(
            ModifierArchitecture("lipsam_re", NetMap(_net_1d(LEAKY_RELU))), (4, 5)
        ),
        SearchConfig(restarts=4, max_iterations=20, seed=10),
    ),
    "fixed_soft_threshold": (
        lambda: fixed_modifier_family(
            ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1)), (4,)
        ),
        SearchConfig(restarts=3, max_iterations=25, seed=2),
    ),
    "no_iterations": (
        lambda: conv2d_family("lipsam_se"),
        SearchConfig(restarts=3, max_iterations=0, seed=7),
    ),
    "one_restart": (
        lambda: conv2d_family("lipsam_re"),
        SearchConfig(restarts=1, max_iterations=30, seed=5),
    ),
    # every start has a zero Jacobian, so every trial spends all its draws
    "zero_map": (
        lambda: fixed_modifier_family(ModifierArchitecture("am_se", ZeroMap()), (3,)),
        SearchConfig(restarts=3, max_iterations=5, seed=1),
    ),
    # trials that never draw a finite start end NaN beside finite ones
    "nan_above": (
        lambda: fixed_modifier_family(ModifierArchitecture("am_se", _NanAbove()), (1,)),
        SearchConfig(restarts=4, max_iterations=5, seed=0),
    ),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_estimate_b_matches_trials_run_one_at_a_time(case):
    make_family, config = _ORACLE_CASES[case]
    fam = make_family()
    est = estimate_B(fam, config)
    runs = [run_trial(fam, config, trial) for trial in range(config.restarts)]
    want = [record for record, _, _ in runs]
    got = est.records
    assert np.array([r.value for r in got]).tobytes() == np.array([r.value for r in want]).tobytes()
    for field in ("trial", "iterations", "terminated_early", "evaluations", "backtracks"):
        assert [getattr(r, field) for r in got] == [getattr(r, field) for r in want], field
    assert all(r.evaluations >= 1 + r.backtracks for r in got)
    values = [r.value if np.isfinite(r.value) else -np.inf for r in want]
    assert est.witness_trial == values.index(max(values))
    _, z, theta = runs[est.witness_trial]
    assert est.witness_values.tobytes() == z.tobytes()
    assert est.witness_parameters.tobytes() == theta.tobytes()
    if config.max_iterations:
        assert est.total_iterations > 0
    if case == "am_se_unconstrained":
        assert any(r.terminated_early for r in got)
    if case == "zero_map":
        assert [(r.evaluations, r.iterations, r.value) for r in got] == [(20, 1, 0.0)] * 3
    if case == "nan_above":
        assert [r.value for r in got[:2]] == [1.0, 1.0]
        assert all(np.isnan(r.value) and r.evaluations == 20 for r in got[2:])
    # wall times run from the start of the search, so none passes the end
    assert all(0.0 <= r.wall_time for r in got)


@pytest.mark.bitwise
def test_objective_loses_only_the_trial_lapack_fails_on(monkeypatch):
    import lipsam.lipschitz as lipschitz

    fam = conv2d_family("lipsam_re")
    rng = np.random.default_rng(19)
    thetas = fam.project(np.stack([fam.sample_parameters(rng) for _ in range(3)]))
    x = np.abs(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    want = _objective(fam, thetas, x)
    bad = amplitude_jacobian_at(fam.build(thetas[1]), x[1])
    real = lipschitz.top_singular_triple

    def failing(matrix):
        if matrix.ndim == 3 or np.array_equal(matrix, bad):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(matrix)

    monkeypatch.setattr(lipschitz, "top_singular_triple", failing)
    got = _objective(fam, thetas, x)
    assert np.isnan(got[0][1]) and not np.isnan(want[0][1])
    for got, expected in zip(got, want, strict=True):
        assert got[[0, 2]].tobytes() == expected[[0, 2]].tobytes()


# ---------------------------------------------------------------- quotients at the witness
# Each search below is the lockstep ``estimate_B`` on a fixed modifier, and
# each reported value is checked against a difference quotient at its witness.


def test_quotient_search_identity_map():
    fam = fixed_modifier_family(ModifierArchitecture("am_se", IdentityMap()), (3,))
    est = estimate_B(fam, SearchConfig(restarts=2, max_iterations=10))
    assert abs(est.value - 1.0) <= 1e-9
    assert abs(_witnessed_quotient(fam, est)[1] - 1.0) <= 1e-9


def test_quotient_search_finds_linear_gain():
    net = ConvNet((ConvLayer(np.array([[[3.0]]]), activation=IDENTITY),))
    fam = fixed_modifier_family(ModifierArchitecture("am_se", NetMap(net)), (1, 4))
    est = estimate_B(fam, SearchConfig(restarts=2, max_iterations=10))
    assert abs(est.value - 3.0) <= 1e-9
    # the witness reproduces the reported value as a quotient
    assert abs(_witnessed_quotient(fam, est)[1] - est.value) <= 1e-9


def test_quotient_search_soft_threshold_stays_contractive():
    fam = fixed_modifier_family(ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1)), (4,))
    est = estimate_B(fam, SearchConfig(restarts=3, max_iterations=40, seed=3))
    assert 0.99 <= est.value <= 1.0 + 1e-9
    assert abs(_witnessed_quotient(fam, est)[1] - est.value) <= 1e-6 * est.value


def test_quotient_search_respects_leaky_relu_certificate():
    rng = np.random.default_rng(14)
    layers = []
    for c_in, c_out in ((1, 2), (2, 1)):
        raw = ConvLayer(rng.standard_normal((c_out, c_in, 3)), activation=LEAKY_RELU)
        layers.append(certify_layer(raw, (6,)))
    arch = ModifierArchitecture("lipsam_se", NetMap(ConvNet(tuple(layers))))
    fam = fixed_modifier_family(arch, (1, 6))
    est = estimate_B(fam, SearchConfig(restarts=2, max_iterations=15, seed=4))
    assert est.value <= np.sqrt(2.0) + 1e-9
    assert abs(_witnessed_quotient(fam, est)[1] - est.value) <= 1e-6 * est.value


@dataclass(frozen=True)
class _NanMap(IdentityMap):
    def __call__(self, x):
        return np.full_like(x, np.nan)


def test_quotient_search_rejects_a_map_that_is_nan_everywhere():
    fam = fixed_modifier_family(ModifierArchitecture("am_se", _NanMap()), (2,))
    with pytest.raises(NonFiniteError):
        estimate_B(fam, SearchConfig(restarts=2, max_iterations=3))


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (-1,)])
def test_quotient_search_rejects_an_empty_shape(shape):
    arch = ModifierArchitecture("am_se", IdentityMap())
    with pytest.raises(ShapeError):
        fixed_modifier_family(arch, shape)


# ---------------------------------------------------------------- records


def test_estimate_dataclasses():
    record = TrialRecord(trial=0, value=1.5, iterations=3, terminated_early=False, wall_time=0.1)
    est = LipschitzEstimate(
        value=1.5,
        certified_bound=1.4,
        witness_values=np.zeros(2),
        witness_parameters=np.zeros(0),
        witness_trial=0,
        records=(record,),
    )
    assert len(est.records) == 1
    assert est.total_iterations == 3
    assert est.violates_bound(0.01)
    assert not est.violates_bound(0.2)
