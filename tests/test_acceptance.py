"""End-to-end acceptance gate.

Twelve independent checks covering the certified-bound searches, the
counterexample and proof identities, the safeguard property, the tight-frame
transform, the ADMM oracle equivalences, solver stability on the standard
synthetic instance, the drop-in wrapper claim, gradient integrity, and the
exact circulant operator norms.  Each test prints a single pass/fail line on
the live terminal; tolerances are stated inline next to the asserts.

Budgets are calibrated for a laptop CPU: the whole file runs in about two
to three minutes, dominated by the two full-budget bound searches.
"""

import numpy as np
import pytest
from scipy import optimize

from lipsam.lipschitz import (
    SearchConfig,
    conv2d_family,
    counterexample_bias,
    counterexample_permutation,
    estimate_B,
)
from lipsam.modifier import (
    BiasAdd,
    IdentityMap,
    ModifierArchitecture,
    NetMap,
    SoftThreshConstant,
    amplitude_forward,
    apply_to_values,
)
from lipsam.network import (
    LEAKY_RELU,
    SOFTPLUS,
    ConvLayer,
    ConvNet,
    _conv_linear,
    backward,
    circulant_operator_norm,
    forward,
    save_weights,
)
from lipsam.pnp import (
    AdmmState,
    Observation,
    SolverConfig,
    admm_iteration,
    admm_operators,
    run,
)
from lipsam.signal import (
    StftConfig,
    TimeSignal,
    circular_convolve,
    istft,
    si_snr,
    stft,
)
from lipsam.trainer import (
    SynthCorpusConfig,
    TrainConfig,
    _batch_loss_and_grads,
    build_denoiser_net,
    synth_speechlike,
)

from oracles import quick_train, realify, standard_instance, unrealify

RATE = 8000
SOLVER_STFT = StftConfig(window_length=64, hop=32)


@pytest.fixture()
def report(capsys):
    def _line(number, label, ok, detail=""):
        suffix = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")

    return _line


# ---------------------------------------------------------------------------
# 1: certified bounds hold under full-budget adversarial search


def test_criterion_01_safeguarded_bounds_hold(report):
    cells = []
    for kind, bound_of in (
        ("lipsam_se", lambda s: float(np.sqrt(s * s + 1.0))),
        ("lipsam_re", lambda s: s + 1.0),
    ):
        for scale in (0.5, 1.0, 2.0, 4.0):
            family = conv2d_family(kind, scale=scale, constrained=True)
            search = SearchConfig(
                restarts=100, max_iterations=100, termination_threshold=8.0, seed=11
            )
            estimate = estimate_B(family, search)
            bound = bound_of(scale)
            assert abs(estimate.certified_bound - bound) < 1e-12
            worst = max(
                (r.value for r in estimate.records if np.isfinite(r.value)), default=0.0
            )
            cells.append((kind, scale, worst, bound))
    ok = all(worst <= bound + 0.01 for _, _, worst, bound in cells)
    tightest = min(bound + 0.01 - worst for _, _, worst, bound in cells)
    report(1, "safeguarded bounds hold over 800 trials", ok, f"min margin {tightest:.4f}")
    for kind, scale, worst, bound in cells:
        assert worst <= bound + 0.01, f"{kind} scale {scale}: found {worst} > {bound} + 0.01"


# ---------------------------------------------------------------------------
# 2: unguarded AM-SE blows past the termination threshold


def test_criterion_02_unconstrained_am_is_unbounded(report):
    family = conv2d_family("am_se", constrained=False)
    search = SearchConfig(
        restarts=100, max_iterations=100, termination_threshold=5.0, seed=11
    )
    estimate = estimate_B(family, search)
    over = sum(1 for r in estimate.records if np.isfinite(r.value) and r.value > 5.0)
    ok = over >= 10
    report(2, "unconstrained am_se escapes the threshold", ok, f"{over}/100 trials over 5")
    assert ok, f"only {over}/100 restarts exceeded 5"


# ---------------------------------------------------------------------------
# 3: closed-form counterexample certificates


def test_criterion_03_counterexample_certificates(report):
    worst = 0.0
    for epsilon in (1.0, 1e-3, 1e-6):
        got_bias = counterexample_bias(epsilon)
        want_bias = (epsilon + 1.0) / epsilon
        got_perm = counterexample_permutation(epsilon)
        want_perm = 1.0 / epsilon
        worst = max(
            worst,
            abs(got_bias - want_bias) / want_bias,
            abs(got_perm - want_perm) / want_perm,
        )
    ok = worst <= 1e-9
    report(3, "counterexample quotients match the formulas", ok, f"worst rel {worst:.2e}")
    assert ok, f"worst relative error {worst}"


# ---------------------------------------------------------------------------
# 4: polar expansion identity behind the Lipschitz proof


def _identity_archs():
    rng = np.random.default_rng(40)
    net = ConvNet(
        (
            ConvLayer(0.4 * rng.standard_normal((6, 4, 3)), 0.1 * rng.standard_normal(6)),
            ConvLayer(0.4 * rng.standard_normal((4, 6, 3)), activation=SOFTPLUS),
        )
    )
    return (
        ModifierArchitecture("am_se", NetMap(net)),
        ModifierArchitecture("lipsam_se", NetMap(net)),
        ModifierArchitecture("am_re", BiasAdd(0.7)),
        ModifierArchitecture("lipsam_re", SoftThreshConstant(0.2)),
    )


def test_criterion_04_polar_expansion_identity(report):
    archs = _identity_archs()
    rng = np.random.default_rng(41)
    worst = 0.0
    for pair in range(1000):
        arch = archs[pair % len(archs)]
        shape = (4, 8)
        x = rng.uniform(0.05, 2.0, size=shape)
        y = rng.uniform(0.05, 2.0, size=shape)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        psi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        z = x * np.exp(1j * phi)
        w = y * np.exp(1j * psi)
        lhs = float(np.sum(np.abs(apply_to_values(arch, z) - apply_to_values(arch, w)) ** 2))
        ax = amplitude_forward(arch, x)[0]
        ay = amplitude_forward(arch, y)[0]
        rhs = float(
            np.sum((ax - ay) ** 2) + 2.0 * np.sum(ax * ay * (1.0 - np.cos(phi - psi)))
        )
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    ok = worst <= 1e-9
    report(4, "polar expansion identity on 1000 pairs", ok, f"worst rel {worst:.2e}")
    assert ok, f"worst relative error {worst}"


# ---------------------------------------------------------------------------
# 5: the safeguards never let amplitude exceed input magnitude


def _adversarial_inners():
    rng = np.random.default_rng(50)

    def biased_net(shift):
        return NetMap(
            ConvNet(
                (
                    ConvLayer(
                        rng.standard_normal((6, 4, 3)),
                        shift + rng.standard_normal(6),
                        activation=LEAKY_RELU,
                    ),
                    ConvLayer(
                        rng.standard_normal((4, 6, 3)),
                        shift + rng.standard_normal(4),
                    ),
                ),
                scale=3.0,
            )
        )

    return (
        biased_net(+3.0),
        biased_net(-3.0),
        BiasAdd(5.0),
        IdentityMap(),
        SoftThreshConstant(0.1),
    )


def test_criterion_05_safeguard_never_exceeds_input(report):
    rng = np.random.default_rng(51)
    checked = 0
    ok = True
    for kind in ("lipsam_se", "lipsam_re"):
        for inner in _adversarial_inners():
            arch = ModifierArchitecture(kind, inner)
            x = rng.uniform(0.0, 3.0, size=(1000, 4, 8))
            a = amplitude_forward(arch, x)[0]
            ok = ok and bool(np.all(a <= x))
            checked += x.shape[0]
    report(5, f"safeguard property on {checked} inputs", ok, "exact inequality")
    assert ok


# ---------------------------------------------------------------------------
# 6: tight-frame transform at the full-scale geometry


def test_criterion_06_tight_frame_at_full_scale(report):
    config = StftConfig(window_length=512, hop=256)
    rng = np.random.default_rng(60)
    worst_round = 0.0
    worst_energy = 0.0
    for _ in range(200):
        signal = TimeSignal(rng.standard_normal(4096), RATE)
        spec = stft(signal, config)
        back = istft(spec, config, RATE)
        worst_round = max(worst_round, float(np.max(np.abs(back.samples - signal.samples))))
        energy_time = float(np.sum(signal.samples**2))
        energy_spec = float(np.sum(np.abs(spec.values) ** 2))
        worst_energy = max(worst_energy, abs(energy_spec - energy_time) / energy_time)
    ok = worst_round < 1e-10 and worst_energy <= 1e-9
    report(
        6,
        "Hann-512/256 tight frame on 200 signals",
        ok,
        f"round trip {worst_round:.2e}, energy {worst_energy:.2e}",
    )
    assert worst_round < 1e-10
    assert worst_energy <= 1e-9


# ---------------------------------------------------------------------------
# 7: fast solver updates match the dense-matrix reference


def _dense_analysis(config, length):
    columns = []
    for i in range(length):
        e = np.zeros(length)
        e[i] = 1.0
        columns.append(realify(stft(TimeSignal(e, RATE), config).values))
    return np.stack(columns, axis=1)


def test_criterion_07_dense_admm_oracle(report):
    length = 64
    stft_config = StftConfig(window_length=16, hop=8)
    rng = np.random.default_rng(70)
    y = TimeSignal(rng.standard_normal(length), RATE)
    h = TimeSignal(rng.standard_normal(12), RATE)
    observation = Observation(y, h)
    lam = 0.7
    denoiser = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.05))

    spec_shape = (stft_config.num_bins, length // stft_config.hop)

    def random_spec():
        return rng.standard_normal(spec_shape) + 1j * rng.standard_normal(spec_shape)

    x0, u0, v0 = rng.standard_normal(length), rng.standard_normal(length), random_spec()
    xi10, xi20 = rng.standard_normal(length), random_spec()
    state = AdmmState(x0, np.fft.rfft(u0), v0, np.fft.rfft(xi10), xi20)

    H = np.stack([np.roll(observation.h.samples, j) for j in range(length)], axis=1)
    G = _dense_analysis(stft_config, length)

    operators = admm_operators(observation, stft_config)
    state = admm_iteration(state, operators, denoiser, lam)

    rhs = H.T @ (u0 - xi10) + G.T @ realify(v0 - xi20)
    x_d = np.linalg.solve(H.T @ H + np.eye(length), rhs)
    u_d = (lam / (1.0 + lam)) * (H @ x_d + xi10 - y.samples) + y.samples
    gx = unrealify(G @ x_d, spec_shape)
    v_d = apply_to_values(denoiser, gx + xi20)
    xi1_d = xi10 + H @ x_d - u_d
    xi2_d = xi20 + gx - v_d

    errors = {
        "x": float(np.max(np.abs(state.x - x_d))),
        "u": float(np.max(np.abs(np.fft.irfft(state.u_spectrum, n=length) - u_d))),
        "v": float(np.max(np.abs(state.v - v_d))),
        "xi1": float(np.max(np.abs(np.fft.irfft(state.xi1_spectrum, n=length) - xi1_d))),
        "xi2": float(np.max(np.abs(state.xi2 - xi2_d))),
    }

    r = rng.standard_normal(length)
    fast_solve = np.fft.irfft(np.fft.rfft(r) * operators.inverse_filter, n=length)
    dense_solve = np.linalg.solve(H.T @ H + np.eye(length), r)
    errors["filter"] = float(np.max(np.abs(fast_solve - dense_solve)))

    worst = max(errors.values())
    ok = worst <= 1e-8
    report(7, "one dense-oracle iteration at T=64", ok, f"worst abs {worst:.2e}")
    for name, err in errors.items():
        assert err <= 1e-8, f"{name} deviates by {err}"


# ---------------------------------------------------------------------------
# 8: the data-term prox equals a numeric minimizer


def test_criterion_08_prox_matches_numeric_minimizer(report):
    length = 32
    stft_config = StftConfig(window_length=16, hop=8)
    rng = np.random.default_rng(80)
    y = TimeSignal(rng.standard_normal(length), RATE)
    observation = Observation(y, TimeSignal(rng.standard_normal(4), RATE))
    # the x-update runs first, from u = 0 and v = xi2 = 0; the prox then
    # acts at w = Hx + xi1 - y with that x
    zero_spec = np.zeros((stft_config.num_bins, length // stft_config.hop), dtype=np.complex128)
    xi1 = rng.standard_normal(length)
    state = AdmmState(
        x=np.zeros(length),
        u_spectrum=np.zeros(length // 2 + 1, dtype=np.complex128),
        v=zero_spec,
        xi1_spectrum=np.fft.rfft(xi1),
        xi2=zero_spec,
    )
    operators = admm_operators(observation, stft_config)
    denoiser = ModifierArchitecture("lipsam_se", IdentityMap())

    worst = 0.0
    for lam in (1e-3, 1.0, 1e2):
        new = admm_iteration(state, operators, denoiser, lam)
        hx = circular_convolve(TimeSignal(new.x, RATE), observation.h).samples
        w = hx + xi1 - y.samples
        fast = np.fft.irfft(new.u_spectrum, n=length) - y.samples

        def objective(p):
            return 0.5 / lam * np.sum(p**2) + 0.5 * np.sum((p - w) ** 2)

        def gradient(p):
            return p / lam + (p - w)

        solution = optimize.minimize(
            objective, np.zeros(length), jac=gradient, method="BFGS",
            options={"gtol": 1e-14, "maxiter": 2000},
        )
        worst = max(worst, float(np.max(np.abs(fast - solution.x))))
    ok = worst <= 1e-8
    report(8, "prox closed form vs numeric minimization", ok, f"worst abs {worst:.2e}")
    assert ok, f"worst deviation {worst}"


# ---------------------------------------------------------------------------
# 9: solver stability and gain on the standard synthetic instance


def test_criterion_09_solver_stability_on_standard_instance(report):
    clean, observation = standard_instance()
    base = si_snr(observation.y, clean)

    soft = ModifierArchitecture("lipsam_re", SoftThreshConstant(0.1))
    trained = ModifierArchitecture("lipsam_re", NetMap(quick_train("re", "spectral")))

    # lambda values frozen from a one-off sweep on this instance
    runs = {
        "soft_thresh": run(
            observation, soft, SolverConfig(lam=0.01, max_iterations=2000, stft=SOLVER_STFT),
            reference=clean,
        ),
        "lipsam_re_net": run(
            observation, trained, SolverConfig(lam=0.1, max_iterations=2000, stft=SOLVER_STFT),
            reference=clean,
        ),
    }

    ok = True
    ratios = {}
    for name, result in runs.items():
        ok = ok and result.status == "completed"
        ok = ok and bool(np.all(np.isfinite(result.delta_x)))
        ok = ok and bool(np.all(np.isfinite(result.x_hat.samples)))
        ratios[name] = result.delta_x[499] / result.delta_x[9]
        ok = ok and ratios[name] <= 0.1
    gain = runs["soft_thresh"].si_snr_trace[-1] - base
    ok = ok and gain >= 3.0
    report(
        9,
        "2000-iteration stability at T=4096",
        ok,
        f"contraction {max(ratios.values()):.1e}, soft gain {gain:+.1f} dB",
    )
    for name, result in runs.items():
        assert result.status == "completed", name
        assert np.all(np.isfinite(result.delta_x)), name
        assert ratios[name] <= 0.1, f"{name} contraction ratio {ratios[name]}"
    assert gain >= 3.0, f"soft-threshold gain {gain} dB"


# ---------------------------------------------------------------------------
# 10: safeguard wrapper is a byte-exact drop-in around trained weights


def test_criterion_10_drop_in_wrapper(report):
    net = quick_train("se", "spectral")
    plain = ModifierArchitecture("am_se", NetMap(net))
    wrapped = ModifierArchitecture("lipsam_se", NetMap(net))
    same_bytes = save_weights(plain.inner.net) == save_weights(wrapped.inner.net)

    # Construct a batch on which the estimator stays strictly below the
    # input magnitude: raise exactly the violated coordinates until the
    # element-wise margin is negative, then attach random phases.
    rng = np.random.default_rng([99, 0])
    corpus = SynthCorpusConfig(item_count=1, duration_seconds=0.128, seed=0)
    clean = synth_speechlike(corpus, 0).samples
    noisy = clean + 0.3 * rng.standard_normal(clean.shape)
    x = np.abs(stft(TimeSignal(noisy, RATE), SOLVER_STFT).values)
    for _ in range(50):
        s, _ = forward(net, x)
        if float(np.max(s - x)) < -0.05:
            break
        x = np.maximum(x, s + 0.1)
    s, _ = forward(net, x)
    margin = float(np.max(s - x))
    assert margin < 0.0, "construction failed to deactivate the safeguard"

    phases = rng.uniform(0.0, 2.0 * np.pi, size=x.shape)
    z = x * np.exp(1j * phases)
    deviation = float(np.max(np.abs(apply_to_values(plain, z) - apply_to_values(wrapped, z))))
    identical = bool(np.array_equal(apply_to_values(plain, z), apply_to_values(wrapped, z)))

    ok = same_bytes and identical and deviation == 0.0
    report(
        10,
        "wrapper drop-in equivalence",
        ok,
        f"margin {margin:.3f}, deviation {deviation}",
    )
    assert same_bytes
    assert deviation == 0.0
    assert identical


# ---------------------------------------------------------------------------
# 11: every backward pass agrees with central differences


def _wrapper_margin(kind, net, x):
    s, cache = forward(net, x)
    inner = min(float(np.min(np.abs(p))) for p in cache.preactivations)
    if kind == "am_se":
        outer = float(np.min(np.abs(s)))
    elif kind == "lipsam_se":
        outer = min(float(np.min(np.abs(s - x))), float(np.min(np.abs(np.minimum(s, x)))))
    elif kind == "am_re":
        outer = float(np.min(np.abs(x - s)))
    else:
        outer = min(
            float(np.min(np.abs(s))),
            float(np.min(np.abs(x - np.maximum(s, 0.0)))),
        )
    return min(inner, outer)


def _e2e_case(seed, kind):
    config = TrainConfig(
        epochs=0,
        batch_size=4,
        frames=4,
        arch="se",
        channel_width=(4, 8)[seed % 2],
        kernel_size=(3, 5)[(seed // 2) % 2],
        seed=seed,
        stft=SOLVER_STFT,
    )
    net = build_denoiser_net(config)
    corpus = SynthCorpusConfig(item_count=2, duration_seconds=0.128, seed=seed)
    clean = np.stack(
        [synth_speechlike(corpus, i).samples[: config.segment_samples] for i in range(2)]
    )
    noisy = clean + 0.01 * np.random.default_rng([7, seed]).standard_normal(clean.shape)
    mags = np.stack([np.abs(stft(TimeSignal(n, RATE), SOLVER_STFT).values) for n in noisy])
    return config, net, clean, noisy, _wrapper_margin(kind, net, mags)


def _net_only_case(seed):
    rng = np.random.default_rng([21, seed])
    if seed % 3 == 0:
        channels = (1, 3, 1)
        shape = (channels[0], 5, 5)
        kernel_shape = lambda cout, cin: (cout, cin, 3, 3)
    else:
        channels = (3, 5, 3)
        shape = (channels[0], 8)
        kernel_shape = lambda cout, cin: (cout, cin, 3)
    activation = (LEAKY_RELU, SOFTPLUS)[seed % 2]
    layers = tuple(
        ConvLayer(
            0.4 * rng.standard_normal(kernel_shape(cout, cin)),
            0.1 * rng.standard_normal(cout),
            activation=activation,
        )
        for cin, cout in zip(channels, channels[1:])
    )
    net = ConvNet(layers, scale=1.0 + 0.1 * (seed % 4))
    x = np.abs(rng.standard_normal(shape)) + 0.05
    c = rng.standard_normal((channels[-1],) + shape[1:])
    return rng, net, x, c


KINDS_CYCLE = ("am_se", "am_re", "lipsam_se", "lipsam_re")


def test_criterion_11_gradients_match_finite_differences(report):
    worst = 0.0
    checked_configs = 0

    # end-to-end: analysis, modifier, synthesis, negative-SNR loss
    accepted = 0
    seed = 0
    while accepted < 10 and seed < 200:
        kind = KINDS_CYCLE[accepted % 4]
        config, net, clean, noisy, margin = _e2e_case(seed, kind)
        seed += 1
        if margin <= 1e-4:
            continue  # too close to a relu or min kink for clean differences
        accepted += 1
        _, grad_flat = _batch_loss_and_grads(net, kind, clean, noisy, config)
        flat = net.flatten_parameters()

        def loss_at(vector):
            value, _ = _batch_loss_and_grads(
                net.with_parameters(vector), kind, clean, noisy, config
            )
            return value

        picker = np.random.default_rng([13, seed])
        for i in picker.choice(flat.size, size=6, replace=False):
            eps = 1e-6 * max(1.0, abs(flat[i]))
            plus = flat.copy()
            plus[i] += eps
            minus = flat.copy()
            minus[i] -= eps
            fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps)
            if abs(fd) < 1e-8 and abs(grad_flat[i]) < 1e-8:
                continue
            worst = max(worst, abs(grad_flat[i] - fd) / max(abs(fd), 1e-12))
        checked_configs += 1
    assert accepted == 10

    # net-only: parameter and input gradients of a linear functional
    accepted = 0
    seed = 0
    while accepted < 10 and seed < 200:
        rng, net, x, c = _net_only_case(seed)
        seed += 1
        out, cache = forward(net, x)
        margin = min(float(np.min(np.abs(p))) for p in cache.preactivations)
        if margin <= 1e-4:
            continue
        accepted += 1
        grad_flat, grad_x = backward(net, cache, c)
        flat = net.flatten_parameters()

        def value_at(vector):
            o, _ = forward(net.with_parameters(vector), x)
            return float(np.sum(c * o))

        for i in rng.choice(flat.size, size=6, replace=False):
            eps = 1e-6 * max(1.0, abs(flat[i]))
            plus = flat.copy()
            plus[i] += eps
            minus = flat.copy()
            minus[i] -= eps
            fd = (value_at(plus) - value_at(minus)) / (2.0 * eps)
            worst = max(worst, abs(grad_flat[i] - fd) / max(abs(fd), 1e-12))
        for j in rng.choice(x.size, size=4, replace=False):
            xp = x.reshape(-1).copy()
            xp[j] += 1e-6
            xm = x.reshape(-1).copy()
            xm[j] -= 1e-6
            op, _ = forward(net, xp.reshape(x.shape))
            om, _ = forward(net, xm.reshape(x.shape))
            fd = (float(np.sum(c * op)) - float(np.sum(c * om))) / 2e-6
            worst = max(worst, abs(grad_x.reshape(-1)[j] - fd) / max(abs(fd), 1e-12))
        checked_configs += 1
    assert accepted == 10

    ok = worst <= 1e-4 and checked_configs == 20
    report(
        11,
        "gradients vs central differences, 20 configs",
        ok,
        f"worst rel {worst:.2e}",
    )
    assert checked_configs == 20
    assert worst <= 1e-4, f"worst relative error {worst}"


# ---------------------------------------------------------------------------
# 12: circulant operator norms agree with dense SVD at many widths


def _materialize_layer(layer, spatial):
    in_dim = layer.in_channels * int(np.prod(spatial))
    columns = []
    for j in range(in_dim):
        basis = np.zeros(in_dim)
        basis[j] = 1.0
        columns.append(
            _conv_linear(layer.weights, basis.reshape((layer.in_channels,) + spatial)).reshape(-1)
        )
    return np.stack(columns, axis=1)


LAYER_SPECS = (
    ((1, 1, 3), (8,)),
    ((2, 3, 3), (8,)),
    ((4, 2, 5), (12,)),
    ((3, 1, 7), (16,)),
    ((3, 3, 3, 3), (4, 4)),
    ((2, 1, 3, 5), (6, 6)),
    ((1, 2, 5, 5), (5, 7)),
    ((2, 2, 3, 3), (8, 4)),
)


def _geometries(spatial):
    """The spec's own geometry, a smaller one and a larger one."""
    return (
        spatial,
        tuple(s // 2 + 1 for s in spatial),
        tuple(s + 3 for s in spatial),
    )


def test_criterion_12_circulant_norm_vs_dense_svd(report):
    worst = 0.0
    checked = 0
    for index, (shape, own) in enumerate(LAYER_SPECS):
        rng = np.random.default_rng(100 + index)
        layer = ConvLayer(rng.standard_normal(shape))
        for spatial in _geometries(own):
            dense = _materialize_layer(layer, spatial)
            exact = float(np.linalg.svd(dense, compute_uv=False)[0])
            fast = circulant_operator_norm(layer, spatial)
            worst = max(worst, abs(fast - exact) / exact)
            checked += 1

    ok = worst <= 1e-6 and checked == 3 * len(LAYER_SPECS)
    report(
        12,
        f"circulant norm vs dense SVD, {len(LAYER_SPECS)} layers x 3 widths",
        ok,
        f"worst rel {worst:.2e}",
    )
    assert ok, f"worst relative error {worst}"
