from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from lipsam.errors import DomainError, ShapeError, UndefinedMetricError
from lipsam.cli import parse_lambda_grid
from lipsam.modifier import (
    AmplitudeMap,
    ModifierArchitecture,
    NetMap,
    SoftThreshConstant,
    ZeroMap,
    apply_to_values,
)
from lipsam.pnp import (
    AdmmState,
    Observation,
    SolverConfig,
    admm_iteration,
    admm_operators,
    initial_state,
    lambda_sweep,
    run,
)
from lipsam.signal import (
    StftConfig,
    TimeSignal,
    add_noise_at_snr,
    analysis,
    circular_convolve,
    si_snr,
)

from oracles import (
    output_at_blas_threads,
    quick_train,
    realify,
    standard_instance,
    time_domain_admm_run,
    unrealify,
)

RATE = 8000
SMALL = StftConfig(window_length=16, hop=8)


def delta_signal(length, gain=1.0):
    samples = np.zeros(length)
    samples[0] = gain
    return TimeSignal(samples, RATE)


def identity_denoiser():
    return ModifierArchitecture("lipsam_re", ZeroMap())


def soft_thresh_denoiser(tau=0.1):
    return ModifierArchitecture("lipsam_re", SoftThreshConstant(tau))


def random_observation(seed, length=64, taps=16):
    rng = np.random.default_rng(seed)
    y = TimeSignal(rng.standard_normal(length), RATE)
    h = TimeSignal(rng.standard_normal(taps), RATE)
    return Observation(y, h)


def random_state(seed, observation, config=SMALL):
    rng = np.random.default_rng(seed)
    length = observation.length
    spec_shape = (config.num_bins, length // config.hop)

    def spec():
        return rng.standard_normal(spec_shape) + 1j * rng.standard_normal(spec_shape)

    return AdmmState(
        x=rng.standard_normal(length),
        u_spectrum=np.fft.rfft(rng.standard_normal(length)),
        v=spec(),
        xi1_spectrum=np.fft.rfft(rng.standard_normal(length)),
        xi2=spec(),
    )


def warm_start(obs, config=SMALL):
    return initial_state(admm_operators(obs, config))


def iterate(state, obs, denoiser=None, lam=1.0, config=SMALL):
    """One fused ADMM iteration on ``obs`` from ``state``."""
    ops = admm_operators(obs, config)
    return admm_iteration(state, ops, denoiser or identity_denoiser(), lam)


def samples(spectrum):
    """The time-domain signal of an even-length rfft spectrum."""
    return np.fft.irfft(spectrum)


def convolve(x, h):
    return circular_convolve(TimeSignal(x, RATE), h).samples


def dense_analysis_matrix(config, length):
    columns = []
    for i in range(length):
        e = np.zeros(length)
        e[i] = 1.0
        columns.append(realify(analysis(e, config)))
    return np.stack(columns, axis=1)


def dense_circulant(h_padded):
    return np.stack([np.roll(h_padded, j) for j in range(h_padded.size)], axis=1)


def synthetic_instance(seed=0, length=1024, taps=128, noise_db=30.0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / RATE
    clean = np.zeros(length)
    for f in (150.0, 370.0, 910.0):
        clean += rng.uniform(0.3, 1.0) * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    clean *= 0.5 / np.max(np.abs(clean))
    clean_sig = TimeSignal(clean, RATE)
    h = np.zeros(taps)
    h[0] = 1.0
    h[1:] += 0.3 * rng.standard_normal(taps - 1) * np.exp(-np.arange(1, taps) / 32.0)
    h /= np.linalg.norm(h)
    rir = TimeSignal(h, RATE)
    reverberant = circular_convolve(clean_sig, rir)
    noisy = add_noise_at_snr(reverberant, noise_db, seed=seed + 1)
    return clean_sig, Observation(noisy, rir)


# ---------------------------------------------------------------- containers


def test_observation_pads_impulse_response():
    obs = random_observation(0)
    assert len(obs.h) == obs.length == 64
    assert np.all(obs.h.samples[16:] == 0.0)


def test_observation_validation():
    y = TimeSignal(np.ones(8), RATE)
    with pytest.raises(DomainError):
        Observation(y, TimeSignal(np.zeros(4), RATE))
    with pytest.raises(ShapeError):
        Observation(y, TimeSignal(np.ones(16), RATE))
    with pytest.raises(ShapeError):
        Observation(y, TimeSignal(np.ones(4), RATE + 1))


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(lam=0.0)
    with pytest.raises(DomainError):
        SolverConfig(lam=1.0, max_iterations=0)


@pytest.mark.parametrize(
    "field, value",
    [("max_iterations", 2.5), ("max_iterations", True), ("lam", True), ("lam", "1.0")],
)
def test_solver_config_requires_typed_fields(field, value):
    with pytest.raises(DomainError, match=field):
        SolverConfig(**{field: value})


def test_initial_state_is_warm_start():
    obs = random_observation(1)
    state = warm_start(obs)
    assert np.all(state.x == 0.0)
    assert np.array_equal(state.u_spectrum, np.fft.rfft(obs.y.samples))
    assert state.v.shape == (SMALL.num_bins, 8) and np.all(state.v == 0.0)
    assert state.xi1_spectrum.shape == (33,) and np.all(state.xi1_spectrum == 0.0)
    assert np.all(state.xi2 == 0.0)


def test_initial_state_rejects_lengths_off_the_frame_grid():
    rng = np.random.default_rng(1)
    for length in (60, 8):
        obs = Observation(TimeSignal(rng.standard_normal(length), RATE), delta_signal(1))
        with pytest.raises(ShapeError):
            warm_start(obs)


# ---------------------------------------------------------------- inverse filter


def test_inverse_filter_delta_is_half():
    obs = Observation(TimeSignal(np.ones(64), RATE), delta_signal(4))
    filt = admm_operators(obs, SMALL).inverse_filter
    assert np.allclose(filt, 0.5, atol=1e-15)


def test_inverse_filter_zero_kernel_is_one():
    # an all-zero kernel is not an Observation; one whose square underflows
    # to zero gives the same filter
    obs = Observation(TimeSignal(np.ones(16), RATE), delta_signal(4, gain=1e-200))
    filt = admm_operators(obs, SMALL).inverse_filter
    assert np.allclose(filt, 1.0, atol=1e-15)


def test_inverse_filter_range_and_length():
    obs = random_observation(2)
    filt = admm_operators(obs, SMALL).inverse_filter
    assert filt.shape == (33,)
    assert np.all(filt > 0.0) and np.all(filt <= 1.0)


# ---------------------------------------------------------------- x update


def test_x_update_delta_channel_example():
    obs = Observation(TimeSignal(np.zeros(64) + 1e-12, RATE), delta_signal(1))
    state = replace(warm_start(obs), u_spectrum=np.fft.rfft(delta_signal(64, gain=2.0).samples))
    want = np.zeros(64)
    want[0] = 1.0
    assert np.allclose(iterate(state, obs).x, want, atol=1e-12)


def test_x_update_zero_state_is_zero():
    obs = random_observation(3)
    state = replace(warm_start(obs), u_spectrum=np.zeros(33, dtype=np.complex128))
    assert np.allclose(iterate(state, obs).x, 0.0, atol=1e-15)


def test_x_update_matches_dense_solve():
    obs = random_observation(4)
    state = random_state(5, obs)
    fast = iterate(state, obs).x

    H = dense_circulant(obs.h.samples)
    G = dense_analysis_matrix(SMALL, obs.length)
    assert np.allclose(G.T @ G, np.eye(obs.length), atol=1e-9)
    rhs = H.T @ samples(state.u_spectrum - state.xi1_spectrum) + G.T @ realify(state.v - state.xi2)
    dense = np.linalg.solve(H.T @ H + np.eye(obs.length), rhs)
    assert np.allclose(fast, dense, atol=1e-8)


# ---------------------------------------------------------------- u update


def test_u_update_closed_form_and_prox_oracle():
    obs = random_observation(6)
    state = random_state(7, obs)
    for lam in (1e-3, 1.0, 1e2):
        new = iterate(state, obs, lam=lam)
        w = convolve(new.x, obs.h) + samples(state.xi1_spectrum) - obs.y.samples
        want = (lam / (1.0 + lam)) * w + obs.y.samples
        assert np.allclose(samples(new.u_spectrum), want, atol=1e-12)

        # independent numeric minimization of the prox objective
        target = w[:6]

        def objective(p):
            return np.sum(p * p) / (2.0 * lam) + 0.5 * np.sum((p - target) ** 2)

        def gradient(p):
            return p / lam + (p - target)

        sol = scipy.optimize.minimize(
            objective, np.zeros(6), jac=gradient, method="BFGS", options={"gtol": 1e-14}
        )
        assert np.allclose(sol.x, (lam / (1.0 + lam)) * target, atol=1e-8)


def test_u_update_large_lambda_is_identity():
    obs = random_observation(8)
    state = random_state(9, obs)
    new = iterate(state, obs, lam=1e9)
    hx_xi = convolve(new.x, obs.h) + samples(state.xi1_spectrum)
    assert np.allclose(samples(new.u_spectrum), hx_xi, atol=1e-7)


@pytest.mark.bitwise
def test_u_update_fixed_point_returns_y():
    obs = random_observation(10)
    state = random_state(11, obs)
    ops = admm_operators(obs, SMALL)
    # arrange HX + Xi1 = Y exactly: U = Xi1 and v = xi2 make X, and so HX,
    # bitwise zero
    state = AdmmState(state.x, ops.y_spectrum, state.xi2, ops.y_spectrum, state.xi2)
    for lam in (1e-3, 1.0, 37.0):
        new = admm_iteration(state, ops, identity_denoiser(), lam)
        assert np.all(new.x == 0.0)
        assert np.array_equal(new.u_spectrum, ops.y_spectrum)


# ---------------------------------------------------------------- v update


def test_v_update_identity_denoiser_passthrough():
    obs = random_observation(12)
    state = random_state(13, obs)
    new = iterate(state, obs, identity_denoiser())
    want = analysis(new.x, SMALL) + state.xi2
    assert np.allclose(new.v, want, atol=1e-15)


def test_v_update_matches_scalar_soft_threshold():
    obs = random_observation(14)
    state = random_state(15, obs)
    tau = 0.1
    new = iterate(state, obs, soft_thresh_denoiser(tau))
    z = analysis(new.x, SMALL) + state.xi2
    mags = np.abs(z)
    want = np.where(mags > 0, np.maximum(mags - tau, 0.0) * np.divide(z, np.where(mags > 0, mags, 1.0)), 0.0)
    assert np.allclose(new.v, want, atol=1e-12)


def test_v_update_huge_threshold_zeroes_everything():
    obs = random_observation(16)
    state = random_state(17, obs)
    new = iterate(state, obs, soft_thresh_denoiser(1e6))
    assert np.all(new.v == 0.0)


# ---------------------------------------------------------------- dual update


def test_dual_update_fixed_point_unchanged():
    # y = Hx with zero duals, u = Hx and v = Gx is a fixed point of the whole
    # iteration under the identity denoiser
    rng = np.random.default_rng(18)
    h = TimeSignal(rng.standard_normal(16), RATE)
    x = rng.standard_normal(64)
    hx = convolve(x, h)
    obs = Observation(TimeSignal(hx, RATE), h)
    gx = analysis(x, SMALL)
    zero_spec = np.zeros_like(gx)
    state = AdmmState(
        x=x, u_spectrum=np.fft.rfft(hx), v=gx, xi1_spectrum=np.zeros(33, complex), xi2=zero_spec
    )
    new = iterate(state, obs, lam=rng.uniform(0.1, 10.0))
    assert np.allclose(samples(new.xi1_spectrum), 0.0, atol=1e-12)
    assert np.allclose(new.xi2, 0.0, atol=1e-12)
    assert np.allclose(new.x, x, atol=1e-12)
    assert np.allclose(samples(new.u_spectrum), hx, atol=1e-12)
    assert np.allclose(new.v, gx, atol=1e-12)


def test_dual_update_from_warm_start():
    obs = random_observation(20)
    lam = 0.5
    new = iterate(warm_start(obs), obs, soft_thresh_denoiser(0.1), lam=lam)
    # from u = y and xi1 = 0, the first dual is the scaled data residual
    residual = convolve(new.x, obs.h) - obs.y.samples
    assert np.allclose(samples(new.xi1_spectrum), residual / (1.0 + lam), atol=1e-12)
    gx = analysis(new.x, SMALL)
    assert np.allclose(new.xi2, gx - new.v, atol=1e-12)


def test_dual_update_matches_dense_operators():
    obs = random_observation(21)
    state = random_state(22, obs)
    new = iterate(state, obs, soft_thresh_denoiser(0.05), lam=0.7)
    H = dense_circulant(obs.h.samples)
    G = dense_analysis_matrix(SMALL, obs.length)
    want1 = samples(state.xi1_spectrum) + H @ new.x - samples(new.u_spectrum)
    want2 = state.xi2 + unrealify(G @ new.x, state.v.shape) - new.v
    assert np.allclose(samples(new.xi1_spectrum), want1, atol=1e-10)
    assert np.allclose(new.xi2, want2, atol=1e-10)


# ---------------------------------------------------------------- full iteration oracle


def test_one_iteration_matches_dense_reference():
    obs = random_observation(23)
    lam = 0.7
    denoiser = soft_thresh_denoiser(0.05)
    state = warm_start(obs)
    new = iterate(state, obs, denoiser, lam=lam)

    T = obs.length
    H = dense_circulant(obs.h.samples)
    G = dense_analysis_matrix(SMALL, T)
    y = obs.y.samples
    # warm start: x = 0, u = y, v = 0, duals = 0
    x_d = np.linalg.solve(H.T @ H + np.eye(T), H.T @ y)
    u_d = (lam / (1.0 + lam)) * (H @ x_d - y) + y
    gx = unrealify(G @ x_d, state.v.shape)
    v_d = apply_to_values(denoiser, gx)
    xi1_d = H @ x_d - u_d
    xi2_d = gx - v_d

    assert np.allclose(new.x, x_d, atol=1e-8)
    assert np.allclose(samples(new.u_spectrum), u_d, atol=1e-8)
    assert np.allclose(new.v, v_d, atol=1e-8)
    assert np.allclose(samples(new.xi1_spectrum), xi1_d, atol=1e-8)
    assert np.allclose(new.xi2, xi2_d, atol=1e-8)


# ---------------------------------------------------------------- run


def test_run_identity_channel_recovers_observation():
    rng = np.random.default_rng(24)
    y = TimeSignal(rng.standard_normal(64), RATE)
    obs = Observation(y, delta_signal(1))
    config = SolverConfig(lam=1.0, max_iterations=300, stft=SMALL)
    result = run(obs, identity_denoiser(), config, reference=y)
    assert result.status == "completed"
    assert result.iterations == 300
    assert np.linalg.norm(result.x_hat.samples - y.samples) <= 1e-8 * np.linalg.norm(y.samples)
    assert result.delta_x[-1] <= 1e-9
    assert result.si_snr_trace is not None
    assert result.si_snr_trace[-1] >= 100.0


def test_run_soft_threshold_is_stable():
    clean, obs = synthetic_instance(seed=30)
    config = SolverConfig(
        lam=1.0, max_iterations=200, stft=StftConfig(window_length=64, hop=32)
    )
    result = run(obs, soft_thresh_denoiser(0.1), config, reference=clean)
    assert result.status == "completed"
    assert np.all(np.isfinite(result.delta_x))
    assert result.delta_x[199] <= 0.1 * result.delta_x[9]


class _PoisonAfter(AmplitudeMap):
    """Benign zero map that starts returning NaN after a call budget."""

    lipschitz_bound = None

    def __init__(self, healthy_calls):
        self.healthy_calls = healthy_calls

    def __call__(self, x):
        if self.healthy_calls <= 0:
            return np.full(np.shape(x), np.nan)
        self.healthy_calls -= 1
        return np.zeros(np.shape(x))


@pytest.mark.bitwise
def test_run_contains_denoiser_nan():
    obs = random_observation(25)
    denoiser = ModifierArchitecture("am_se", _PoisonAfter(healthy_calls=4))
    config = SolverConfig(lam=1.0, max_iterations=50, stft=SMALL)
    result = run(obs, denoiser, config, reference=obs.y)
    assert result.status == "diverged"
    assert result.diverged_at == 5
    assert result.status_text == "diverged(5)"
    assert result.delta_x.shape == (4,)
    assert result.si_snr_trace.shape == (4,)
    assert np.all(np.isfinite(result.delta_x))
    # the estimate and the state are those of the last completed iteration
    fresh = ModifierArchitecture("am_se", _PoisonAfter(healthy_calls=4))
    completed = run(obs, fresh, replace(config, max_iterations=4), reference=obs.y)
    assert completed.status == "completed"
    assert result.x_hat.samples.tobytes() == completed.x_hat.samples.tobytes()
    for name in ("x", "u_spectrum", "v", "xi1_spectrum", "xi2"):
        assert getattr(result.state, name).tobytes() == getattr(completed.state, name).tobytes()
    # the iteration itself raises nothing: the NaN reaches v and xi2, where
    # the dual check sees it
    poisoned = ModifierArchitecture("am_se", _PoisonAfter(healthy_calls=0))
    ops = admm_operators(obs, SMALL)
    new = admm_iteration(initial_state(ops), ops, poisoned, 1.0)
    assert np.all(np.isnan(new.v)) and np.all(np.isnan(new.xi2))


class _HugeAfter(AmplitudeMap):
    """Zero map that starts returning 1e308, huge but finite, after a call
    budget."""

    lipschitz_bound = None

    def __init__(self, healthy_calls):
        self.healthy_calls = healthy_calls

    def __call__(self, x):
        if self.healthy_calls <= 0:
            return np.full(np.shape(x), 1e308)
        self.healthy_calls -= 1
        return np.zeros(np.shape(x))


@pytest.mark.bitwise
def test_run_contains_an_overflowing_x():
    # iteration 4 takes v = 1e308 sign(z), still finite; iteration 5 forms
    # v - xi2 = 2e308, so X, x and then Xi1 turn non-finite
    obs = random_observation(29)
    config = SolverConfig(lam=1.0, max_iterations=50, stft=SMALL)
    def denoiser(healthy_calls):
        return ModifierArchitecture("am_se", _HugeAfter(healthy_calls))

    result = run(obs, denoiser(3), config)
    assert result.status_text == "diverged(5)"
    assert result.delta_x.shape == (4,)
    assert np.all(np.isfinite(result.delta_x))
    completed = run(obs, denoiser(3), replace(config, max_iterations=4))
    assert completed.status == "completed"
    assert result.x_hat.samples.tobytes() == completed.x_hat.samples.tobytes()
    for name in ("x", "u_spectrum", "v", "xi1_spectrum", "xi2"):
        assert getattr(result.state, name).tobytes() == getattr(completed.state, name).tobytes()
    assert np.max(np.abs(completed.state.v)) == pytest.approx(1e308)
    # the spectral dual is what catches iteration 5
    with np.errstate(all="ignore"):
        new = admm_iteration(completed.state, admm_operators(obs, SMALL), denoiser(0), 1.0)
    assert not np.all(np.isfinite(new.x))
    assert not np.any(np.isfinite(new.xi1_spectrum))


def test_run_matches_the_time_domain_oracle_on_the_standard_instance():
    clean, obs = standard_instance()
    denoiser = ModifierArchitecture("lipsam_re", NetMap(quick_train("re", "spectral")))
    config = SolverConfig(lam=0.1, max_iterations=500, stft=StftConfig(window_length=64, hop=32))
    result = run(obs, denoiser, config, reference=clean)
    x_hat, delta_x, si_snr_trace, status, diverged_at = time_domain_admm_run(
        obs, denoiser, config, clean
    )
    assert (result.status, result.diverged_at) == (status, diverged_at) == ("completed", None)
    # late entries of delta_x are differences of nearly equal iterates, so
    # they agree normwise, not entry by entry
    assert np.linalg.norm(result.x_hat.samples - x_hat) <= 1e-12 * np.linalg.norm(x_hat)
    assert np.linalg.norm(result.delta_x - delta_x) <= 1e-12 * np.linalg.norm(delta_x)
    assert np.max(np.abs(result.si_snr_trace - si_snr_trace) / np.abs(si_snr_trace)) <= 1e-12


def test_run_steps_the_public_iteration():
    # a run takes pnp.admm_iteration's step once per iteration, on arrays it
    # reuses, and its state is bit for bit the last iterate that step gives
    obs = random_observation(33)
    result = run(obs, soft_thresh_denoiser(), SolverConfig(lam=1.0, max_iterations=6, stft=SMALL))
    assert result.status == "completed"
    assert result.iterations == 6
    ops = admm_operators(obs, SMALL)
    state = initial_state(ops)
    for _ in range(6):
        state = admm_iteration(state, ops, soft_thresh_denoiser(), 1.0)
    for name in ("x", "u_spectrum", "v", "xi1_spectrum", "xi2"):
        assert getattr(result.state, name).tobytes() == getattr(state, name).tobytes()


def test_run_checks_the_reference_before_iterating():
    obs = random_observation(28)
    config = SolverConfig(lam=1.0, max_iterations=3, stft=SMALL)
    denoiser = ModifierArchitecture("am_se", _PoisonAfter(healthy_calls=5))
    with pytest.raises(ShapeError):
        run(obs, denoiser, config, reference=TimeSignal(obs.y.samples[:56], RATE))
    with pytest.raises(ShapeError):
        run(obs, denoiser, config, reference=TimeSignal(obs.y.samples, RATE * 2))
    with pytest.raises(UndefinedMetricError):
        run(obs, denoiser, config, reference=TimeSignal(np.zeros(obs.length), RATE))
    # no iteration ran: the denoiser was never called
    assert denoiser.inner.healthy_calls == 5


# ---------------------------------------------------------------- lambda sweep


def test_default_lambda_grid_shape():
    grid = parse_lambda_grid("1e-3:1e2:26log")
    assert grid.shape == (26,)
    assert abs(grid[0] - 1e-3) < 1e-12
    assert abs(grid[-1] - 1e2) < 1e-10


def test_lambda_sweep_single_point_matches_direct_run():
    clean, obs = synthetic_instance(seed=31, length=512, taps=64)
    config = SolverConfig(
        lam=999.0, max_iterations=40, stft=StftConfig(window_length=32, hop=16)
    )
    rows = lambda_sweep(obs, soft_thresh_denoiser(0.1), [0.5], config, reference=clean)
    direct = run(obs, soft_thresh_denoiser(0.1), SolverConfig(
        lam=0.5, max_iterations=40, stft=StftConfig(window_length=32, hop=16)
    ), reference=clean)
    assert len(rows) == 1
    assert rows[0]["lambda"] == 0.5
    assert rows[0]["status"] == "completed"
    assert rows[0]["best"] is True
    assert abs(rows[0]["final_si_snr"] - direct.si_snr_trace[-1]) < 1e-12


def test_lambda_sweep_marks_single_best():
    clean, obs = synthetic_instance(seed=32, length=512, taps=64)
    config = SolverConfig(
        lam=1.0, max_iterations=30, stft=StftConfig(window_length=32, hop=16)
    )
    rows = lambda_sweep(
        obs, soft_thresh_denoiser(0.1), [1e-2, 1e-1, 1.0, 10.0], config, reference=clean
    )
    assert len(rows) == 4
    assert all(np.isfinite(row["final_si_snr"]) for row in rows)
    assert sum(row["best"] for row in rows) == 1
    best = max(rows, key=lambda row: row["final_si_snr"])
    assert best["best"] is True


def test_lambda_sweep_records_divergence_and_continues():
    obs = random_observation(26)
    config = SolverConfig(lam=1.0, max_iterations=20, stft=SMALL)

    calls = []

    class _FreshPoison(AmplitudeMap):
        lipschitz_bound = None

        def __call__(self, x):
            calls.append(1)
            if len(calls) > 3:
                return np.full(np.shape(x), np.nan)
            return np.zeros(np.shape(x))

    rows = lambda_sweep(
        obs,
        ModifierArchitecture("am_se", _FreshPoison()),
        [0.5, 2.0],
        config,
        reference=obs.y,
    )
    assert len(rows) == 2
    assert rows[0]["status"] == "completed" or rows[0]["status"].startswith("diverged")
    assert rows[1]["status"].startswith("diverged")
    assert not np.isfinite(rows[1]["final_si_snr"])


def test_lambda_sweep_checks_every_weight_before_the_first_solve():
    obs = random_observation(34)
    config = SolverConfig(lam=1.0, max_iterations=5, stft=SMALL)
    denoiser = ModifierArchitecture("am_se", _PoisonAfter(healthy_calls=100))
    with pytest.raises(DomainError):
        lambda_sweep(obs, denoiser, [1.0, 0.0], config)
    assert denoiser.inner.healthy_calls == 100


def test_lambda_sweep_rejects_empty_grid():
    obs = random_observation(27)
    config = SolverConfig(lam=1.0, max_iterations=5, stft=SMALL)
    with pytest.raises(DomainError):
        lambda_sweep(obs, identity_denoiser(), [], config)


SOLVE_DIGEST = """
import hashlib
from lipsam import pnp
from lipsam.modifier import ModifierArchitecture, NetMap
from lipsam.signal import StftConfig
from oracles import quick_train, standard_instance
_, observation = standard_instance()
denoiser = ModifierArchitecture("lipsam_re", NetMap(quick_train("re", "spectral")))
config = pnp.SolverConfig(lam=0.1, max_iterations=50, stft=StftConfig(window_length=64, hop=32))
result = pnp.run(observation, denoiser, config)
assert result.status == "completed"
print(hashlib.sha256(result.x_hat.samples.tobytes()).hexdigest())
"""


@pytest.mark.bitwise
def test_solve_does_not_depend_on_the_blas_thread_count():
    # the short-window STFT and the network's convolutions are GEMMs whose
    # work OpenBLAS may split across threads
    assert output_at_blas_threads(SOLVE_DIGEST, 1) == output_at_blas_threads(SOLVE_DIGEST, 2)
