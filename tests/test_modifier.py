import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsam.errors import (
    DomainError,
    NonFiniteError,
    ShapeError,
    UnboundedModifierError,
    UncertifiedError,
)
from lipsam.modifier import (
    KINDS,
    AmplitudeMap,
    BiasAdd,
    IdentityMap,
    ModifierArchitecture,
    NetMap,
    PermutationMap,
    SoftThreshConstant,
    ZeroMap,
    amplitude_backward,
    amplitude_forward,
    amplitude_jacobian,
    apply_to_values,
    architecture_from_config,
    _phase_times,
    architecture_to_config,
    modifier_forward,
    theoretical_bound,
)
from lipsam.network import (
    IDENTITY,
    SOFTPLUS,
    ConvLayer,
    ConvNet,
    save_net,
)
from lipsam.signal import StftConfig, analysis, synthesis
from oracles import certify_layer, check_assumption1


def small_net(rng, width=6, channels=(4, 3, 4), scale=1.0, weight_scale=0.4, bias=True):
    layers = []
    for cin, cout in zip(channels[:-1], channels[1:]):
        layers.append(
            ConvLayer(
                weight_scale * rng.standard_normal((cout, cin, 3)),
                0.2 * rng.standard_normal(cout) if bias else None,
                activation=SOFTPLUS,
            )
        )
    return ConvNet(tuple(layers), scale)


def certified_net(rng, channels=(4, 3, 4), scale=1.0):
    layers = tuple(
        certify_layer(ConvLayer(rng.standard_normal((cout, cin, 3)), activation=SOFTPLUS), (6,))
        for cin, cout in zip(channels[:-1], channels[1:])
    )
    return ConvNet(layers, scale)


# ---------------------------------------------------------------- sign


def unit_phase(z):
    """D(z) = A z/|z| with A = 1: the phase alone, 0 at 0."""
    return _phase_times(z, np.maximum(np.abs(z), np.nextafter(0.0, 1.0)), np.ones(z.shape),
                        np.empty_like(z))


def test_complex_sign_basics():
    z = np.array([3.0 + 4.0j, 0.0 + 0.0j, -2.0 + 0.0j])
    s = unit_phase(z)
    np.testing.assert_allclose(s[0], 0.6 + 0.8j, atol=1e-15)
    assert s[1] == 0.0
    np.testing.assert_allclose(s[2], -1.0 + 0.0j, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_complex_sign_unit_modulus_off_zero(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    z = z[np.abs(z) > 1e-6]
    s = unit_phase(z)
    np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)
    np.testing.assert_allclose(s * np.abs(z), z, rtol=1e-12)


# ---------------------------------------------------------------- apply


def test_apply_residual_soft_threshold_closed_form():
    arch = ModifierArchitecture("am_re", SoftThreshConstant(1.0))
    out = apply_to_values(arch, np.array([3.0 + 4.0j]))
    np.testing.assert_allclose(out[0], 4.0 * (0.6 + 0.8j), atol=1e-12)


def test_apply_safeguarded_residual_matches_soft_threshold_oracle():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    tau = 0.7
    arch = ModifierArchitecture("lipsam_re", SoftThreshConstant(tau))
    got = apply_to_values(arch, z)
    want = np.maximum(np.abs(z) - tau, 0.0) * (z / np.abs(z))
    np.testing.assert_allclose(got, want, atol=1e-12)
    also = apply_to_values(ModifierArchitecture("am_re", SoftThreshConstant(tau)), z)
    np.testing.assert_allclose(got, also, atol=1e-15)


def test_apply_bias_counterexample_quotient():
    eps = 1e-3
    arch = ModifierArchitecture("am_se", BiasAdd(1.0))
    z = np.array([eps + 0.0j])
    w = np.array([-eps + 0.0j])
    diff = np.linalg.norm(apply_to_values(arch, z) - apply_to_values(arch, w))
    np.testing.assert_allclose(diff, 2.0 * (1.0 + eps), rtol=1e-12)
    quotient = diff / np.linalg.norm(z - w)
    np.testing.assert_allclose(quotient, 1001.0, rtol=1e-12)


def test_apply_permutation_counterexample_values():
    eps = 1e-3
    arch = ModifierArchitecture("am_se", PermutationMap(np.array([1, 0])))
    z = np.array([eps + 0.0j, 1.0 + 0.0j])
    w = np.array([-eps + 0.0j, 1.0 + 0.0j])
    dz = apply_to_values(arch, z)
    dw = apply_to_values(arch, w)
    np.testing.assert_allclose(dz, [1.0, eps], atol=1e-15)
    np.testing.assert_allclose(dw, [-1.0, eps], atol=1e-15)
    quotient = np.linalg.norm(dz - dw) / np.linalg.norm(z - w)
    np.testing.assert_allclose(quotient, 1.0 / eps, rtol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_zero_coordinates_stay_exactly_zero(kind):
    rng = np.random.default_rng(1)
    arch = ModifierArchitecture(kind, NetMap(small_net(rng)))
    z = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    z[1, 2] = 0.0
    z[3, 0] = 0.0
    # a finite map raises no floating-point warning on exact zeros
    with np.errstate(all="raise"):
        out = apply_to_values(arch, z)
    assert out[1, 2] == 0.0
    assert out[3, 0] == 0.0


class _NonFiniteAtZero(AmplitudeMap):
    """The identity, except ``value`` where the magnitude is exactly 0."""

    def __init__(self, value):
        self.value = value

    def __call__(self, x):
        return np.where(x == 0.0, self.value, x)


# +inf survives only am_se's relu; the other kinds map it to A = 0
@pytest.mark.parametrize(
    "kind, value", [(kind, np.nan) for kind in KINDS] + [("am_se", np.inf)]
)
def test_non_finite_amplitude_at_a_zero_coefficient_is_not_lost(kind, value):
    # the solver's containment needs a non-finite A to reach D(z) even
    # where z = 0, as NaN·0 and inf·0 are NaN
    rng = np.random.default_rng(4)
    arch = ModifierArchitecture(kind, _NonFiniteAtZero(value))
    z = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    z[1, 2] = 0.0
    z[3, 0] = 0.0
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            apply_to_values(arch, z)
        values = modifier_forward(arch, z)[0]
    zero = z == 0.0
    assert not np.any(np.isfinite(values[zero]))
    assert np.all(np.isfinite(values[~zero]))


@pytest.mark.parametrize("kind", KINDS)
def test_apply_preserves_phase(kind):
    rng = np.random.default_rng(2)
    arch = ModifierArchitecture(kind, NetMap(small_net(rng)))
    z = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    out = apply_to_values(arch, z)
    mask = np.abs(out) > 1e-12
    dphi = np.angle(out[mask]) - np.angle(z[mask])
    dphi = np.mod(dphi + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(dphi)) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_amplitudes_are_nonnegative(kind):
    rng = np.random.default_rng(3)
    arch = ModifierArchitecture(kind, NetMap(small_net(rng, weight_scale=1.5)))
    x = np.abs(rng.standard_normal((4, 6)))
    assert np.min(amplitude_forward(arch, x)[0]) >= 0.0


@pytest.mark.parametrize("kind", ["lipsam_se", "lipsam_re"])
def test_safeguard_never_amplifies_magnitudes(kind):
    rng = np.random.default_rng(4)
    for trial in range(20):
        net = small_net(rng, weight_scale=2.0)  # includes biases, adversarial
        arch = ModifierArchitecture(kind, NetMap(net))
        x = np.abs(rng.standard_normal((4, 6))) * 10.0 ** rng.integers(-3, 3)
        a = amplitude_forward(arch, x)[0]
        assert np.all(a <= x)


def test_amplitude_part_rejects_negative_input():
    arch = ModifierArchitecture("am_se", IdentityMap())
    with pytest.raises(DomainError):
        amplitude_forward(arch, np.array([-1.0, 2.0]))


@pytest.mark.bitwise
@pytest.mark.parametrize("kind", KINDS)
def test_modifier_forward_is_the_amplitude_forward_of_the_magnitudes(kind):
    # the modifier skips the public domain check on |z| and keeps its bits
    rng = np.random.default_rng(5)
    arch = ModifierArchitecture(kind, NetMap(small_net(rng, weight_scale=1.5)))
    z = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    z[0, 1, 2] = 0.0
    _, cache = modifier_forward(arch, z)
    a, _ = amplitude_forward(arch, np.abs(z))
    assert cache.a.tobytes() == a.tobytes()


def test_apply_poisoned_inner_output_raises():
    class PoisonMap(AmplitudeMap):
        lipschitz_bound = None

        def __call__(self, x):
            out = x.copy()
            out.flat[0] = np.nan
            return out

    arch = ModifierArchitecture("am_se", PoisonMap())
    with pytest.raises(NonFiniteError):
        apply_to_values(arch, np.ones(4) + 0j)


def test_apply_to_values_keeps_a_spectrogram_shape():
    rng = np.random.default_rng(5)
    config = StftConfig(window_length=16, hop=8)
    spec = analysis(rng.standard_normal(64), config)
    arch = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1))
    out = apply_to_values(arch, spec)
    assert out.shape == spec.shape
    # the modified coefficients synthesize under the analysis config
    assert synthesis(out, config).shape == (64,)


# ---------------------------------------------------------------- identity


def polar(rng, shape, low=0.05, high=3.0):
    mag = rng.uniform(low, high, shape)
    phase = rng.uniform(-np.pi, np.pi, shape)
    return mag * np.exp(1j * phase)


def inner_menu(rng):
    return [
        IdentityMap(),
        ZeroMap(),
        BiasAdd(0.8),
        SoftThreshConstant(0.4),
        PermutationMap(np.asarray(rng.permutation(24))),
        NetMap(small_net(rng, channels=(4, 3, 4))),
    ]


def test_polar_decomposition_identity_random_maps():
    # || D(z) - D(w) ||^2 decomposes into an amplitude term plus a phase
    # coupling term 2 sum_n A(x)_n A(y)_n (1 - cos(phi_n - psi_n)).
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(40):
        for inner in inner_menu(rng):
            for kind in KINDS:
                arch = ModifierArchitecture(kind, inner)
                z = polar(rng, (4, 6))
                w = polar(rng, (4, 6))
                ax = amplitude_forward(arch, np.abs(z))[0]
                ay = amplitude_forward(arch, np.abs(w))[0]
                lhs = float(np.sum(np.abs(apply_to_values(arch, z) - apply_to_values(arch, w)) ** 2))
                coupling = 2.0 * float(
                    np.sum(ax * ay * (1.0 - np.cos(np.angle(z) - np.angle(w))))
                )
                rhs = float(np.sum((ax - ay) ** 2)) + coupling
                assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs, 1e-12)
                checked += 1
    assert checked >= 900


# ---------------------------------------------------------------- assumption


def test_assumption_fails_for_biased_map_with_huge_l2():
    arch = ModifierArchitecture("am_se", BiasAdd(1.0))
    report = check_assumption1(arch, L2=1e6, sample_count=50, seed=0, shape=(8,))
    assert not report.cond2_holds
    assert report.worst_ratio == np.inf
    assert report.witness is not None


def test_assumption_holds_for_safeguarded_net():
    rng = np.random.default_rng(7)
    arch = ModifierArchitecture("lipsam_se", NetMap(small_net(rng)))
    report = check_assumption1(arch, L2=1.0, sample_count=100, seed=1, shape=(4, 6))
    assert report.cond2_holds
    assert report.worst_ratio <= 1.0


def test_assumption_empirical_lipschitz_respects_certificate():
    rng = np.random.default_rng(8)
    net = certified_net(rng)
    arch = ModifierArchitecture("lipsam_se", NetMap(net))
    bound = theoretical_bound(arch)
    report = check_assumption1(arch, L2=1.0, sample_count=100, seed=2, shape=(4, 6))
    assert report.cond1_empirical_L <= bound + 1e-9


# ---------------------------------------------------------------- bounds


def test_theoretical_bound_formulas():
    rng = np.random.default_rng(9)
    unit = NetMap(certified_net(rng, scale=1.0))
    doubled = NetMap(certified_net(rng, scale=2.0))
    assert abs(theoretical_bound(ModifierArchitecture("lipsam_se", unit)) - np.sqrt(2.0)) < 1e-12
    assert abs(theoretical_bound(ModifierArchitecture("lipsam_se", doubled)) - np.sqrt(5.0)) < 1e-12
    assert abs(theoretical_bound(ModifierArchitecture("lipsam_re", unit)) - 2.0) < 1e-12
    assert abs(theoretical_bound(ModifierArchitecture("lipsam_re", doubled)) - 3.0) < 1e-12


def test_soft_threshold_bound_is_one():
    arch = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1))
    assert theoretical_bound(arch) == 1.0


def test_theoretical_bound_raises_for_unguarded():
    with pytest.raises(UnboundedModifierError):
        theoretical_bound(ModifierArchitecture("am_se", IdentityMap()))


def test_theoretical_bound_requires_certificate():
    rng = np.random.default_rng(10)
    arch = ModifierArchitecture("lipsam_se", NetMap(small_net(rng)))
    with pytest.raises(UncertifiedError):
        theoretical_bound(arch)


# ---------------------------------------------------------------- gradients


def margins(arch, x):
    _, cache = amplitude_forward(arch, x)
    inner_out = cache.inner_out
    out = [np.min(np.abs(inner_out))]
    if arch.kind in ("lipsam_se",):
        out.append(np.min(np.abs(inner_out - x)))
        out.append(np.min(np.abs(np.minimum(inner_out, x))))
    if arch.kind == "am_re":
        out.append(np.min(np.abs(x - inner_out)))
    if arch.kind == "lipsam_re":
        out.append(np.min(np.abs(x - np.maximum(inner_out, 0.0))))
    return min(out)


@pytest.mark.parametrize("kind", KINDS)
def test_amplitude_backward_matches_fd(kind):
    rng = np.random.default_rng(11)
    net = small_net(rng, channels=(4, 3, 4), weight_scale=0.6)
    arch = ModifierArchitecture(kind, NetMap(net))
    x = None
    for _ in range(50):
        candidate = 0.5 + np.abs(rng.standard_normal((4, 6)))
        if margins(arch, candidate) > 1e-3:
            x = candidate
            break
    assert x is not None, "could not find a kink-free sample"
    probe = rng.standard_normal((4, 6))
    a, cache = amplitude_forward(arch, x)
    flat, dx = amplitude_backward(cache, probe)

    theta = net.flatten_parameters()
    h = 1e-6

    def loss_at(vec, xs):
        shifted = ModifierArchitecture(kind, NetMap(net.with_parameters(vec)))
        return float(np.sum(amplitude_forward(shifted, xs)[0] * probe))

    fd = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        up[j] += h
        dn = theta.copy()
        dn[j] -= h
        fd[j] = (loss_at(up, x) - loss_at(dn, x)) / (2.0 * h)
    np.testing.assert_allclose(flat, fd, rtol=1e-5, atol=1e-7)

    fdx = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up = x.copy()
        up[idx] += h
        dn = x.copy()
        dn[idx] -= h
        fdx[idx] = (loss_at(theta, up) - loss_at(theta, dn)) / (2.0 * h)
    np.testing.assert_allclose(dx, fdx, rtol=1e-5, atol=1e-7)


@pytest.mark.bitwise
@pytest.mark.parametrize("kind", KINDS)
def test_amplitude_backward_can_skip_the_input_gradient(kind):
    rng = np.random.default_rng(12)
    net_2d = ConvNet((ConvLayer(rng.standard_normal((1, 1, 3, 3)), activation=SOFTPLUS),))
    cases = (
        (NetMap(small_net(rng, weight_scale=1.5)), np.abs(rng.standard_normal((2, 4, 6)))),
        (NetMap(net_2d), np.abs(rng.standard_normal((2, 4, 4)))),
        (BiasAdd(-0.5), np.abs(rng.standard_normal((2, 4, 6)))),
    )
    for inner, x in cases:
        _, cache = amplitude_forward(ModifierArchitecture(kind, inner), x)
        g = rng.standard_normal(x.shape)
        want, _ = amplitude_backward(cache, g)
        got, skipped = amplitude_backward(cache, g, input_gradient=False)
        assert skipped is None
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_amplitude_jacobian_transpose_is_amplitude_backward(kind):
    # one set of kink rules: J_A^T g is the input gradient of the backward
    # pass for any cotangent g, ties and inactive branches included
    rng = np.random.default_rng(13)
    x = np.abs(rng.standard_normal((2, 4, 6)))
    x[0, 1, 2] = 0.0
    # a linear last layer lets the net's output take either sign
    mixed = ConvNet(small_net(rng, weight_scale=1.5).layers[:-1] + (
        ConvLayer(rng.standard_normal((4, 3, 3)), rng.standard_normal(4), activation=IDENTITY),
    ))
    active = []
    for inner in inner_menu(rng) + [BiasAdd(-0.5), NetMap(mixed)]:
        _, cache = amplitude_forward(ModifierArchitecture(kind, inner), x)
        active.append(cache.a > 0.0)
        jac = amplitude_jacobian(cache)
        assert jac.shape == (2, 24, 24)
        for _ in range(3):
            g = rng.standard_normal(x.shape)
            _, dx = amplitude_backward(cache, g)
            want = dx.reshape(2, 24)
            got = np.einsum("toi,to->ti", jac, g.reshape(2, 24))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), type(inner).__name__
    # the net's outputs sit on both sides of the outer relu
    assert active[-1].any() and not active[-1].all()


# ---------------------------------------------------------------- configs


@pytest.mark.parametrize(
    "variant", ["identity", "zero", "bias_add", "soft_thresh", "permutation", "net"]
)
def test_architecture_config_round_trip(tmp_path, variant):
    rng = np.random.default_rng(12)
    net = small_net(rng)
    save_net(tmp_path / "denoiser.bin", net)
    inner = {
        "identity": IdentityMap(),
        "zero": ZeroMap(),
        "bias_add": BiasAdd(0.25),
        "soft_thresh": SoftThreshConstant(0.25),
        "permutation": PermutationMap(np.asarray(rng.permutation(24))),
        "net": NetMap(net),
    }[variant]
    z = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    for kind in KINDS:
        arch = ModifierArchitecture(kind, inner)
        cfg = json.loads(json.dumps(architecture_to_config(arch, net_file="denoiser.bin")))
        assert cfg["inner"]["variant"] == variant
        rebuilt = architecture_from_config(cfg, base_dir=tmp_path)
        assert rebuilt.kind == kind and type(rebuilt.inner) is type(inner)
        assert apply_to_values(rebuilt, z).tobytes() == apply_to_values(arch, z).tobytes()


@pytest.mark.parametrize(
    "inner",
    [
        {"variant": "bias_add", "b": "x"},
        {"variant": "bias_add", "b": float("nan")},
        {"variant": "bias_add", "b": float("inf")},
        {"variant": "soft_thresh", "tau": [0.1]},
        {"variant": "soft_thresh", "tau": float("nan")},
        {"variant": "soft_thresh", "tau": -0.1},
        {"variant": "permutation", "perm": [0.5, 1.5]},
        {"variant": "permutation", "perm": [[0, 1], [1]]},
        {"variant": "permutation", "perm": []},
        {"variant": "net", "file": 5},
        {"variant": ["zero"]},
        "identity",
    ],
    ids=["b-text", "b-nan", "b-inf", "tau-list", "tau-nan", "tau-negative", "perm-float",
         "perm-ragged", "perm-empty", "file-number", "variant-list", "inner-text"],
)
def test_architecture_from_config_rejects_malformed_inner_maps(inner):
    with pytest.raises(DomainError):
        architecture_from_config({"kind": "lipsam_re", "inner": inner})


def test_map_without_gradient_rule_raises_on_backward():
    class CallOnly(AmplitudeMap):
        def __call__(self, x):
            return 2.0 * x

    arch = ModifierArchitecture("am_re", CallOnly())
    z = np.array([[1.0 + 1.0j, 2.0 - 0.5j]])
    out, cache = modifier_forward(arch, z)
    np.testing.assert_allclose(out, apply_to_values(arch, z))
    with pytest.raises(ShapeError, match="no gradient rule"):
        amplitude_backward(cache, np.ones(z.shape))
    with pytest.raises(ShapeError, match="no Jacobian rule"):
        amplitude_jacobian(cache)


def test_architecture_rejects_unknown_kind():
    with pytest.raises(DomainError):
        ModifierArchitecture("am_xx", IdentityMap())
