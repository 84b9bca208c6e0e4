"""Corpus synthesis, negative-SNR loss, training loop, and evaluation."""

import math

import numpy as np
import pytest

from lipsam.errors import DomainError, ShapeError, UndefinedMetricError
from lipsam.modifier import IdentityMap, ModifierArchitecture, NetMap, ZeroMap
from lipsam.network import forward
from lipsam.signal import StftConfig, TimeSignal, stft
from lipsam.trainer import (
    CORPUS_RATE,
    SynthCorpusConfig,
    TrainConfig,
    _batch_loss_and_grads,
    _neg_snr_loss,
    build_denoiser_net,
    certify_denoiser_net,
    evaluate_denoiser,
    synth_rir,
    synth_speechlike,
    train_denoiser,
)

from oracles import eigvalsh_operator_norm, neg_snr_loss_row

RATE = 8000
SMALL_STFT = StftConfig(window_length=64, hop=32)
SMALL_CORPUS = SynthCorpusConfig(item_count=8, duration_seconds=0.128, seed=0)


def small_train_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=2,
        batch_size=4,
        learning_rate=1e-2,
        frames=32,
        arch="re",
        channel_width=16,
        kernel_size=5,
        seed=0,
        stft=SMALL_STFT,
    )
    base.update(overrides)
    return TrainConfig(**base)


def logs_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.keys() != rb.keys():
            return False
        for key in ra:
            va, vb = ra[key], rb[key]
            if isinstance(va, float) and math.isnan(va):
                if not (isinstance(vb, float) and math.isnan(vb)):
                    return False
            elif va != vb:
                return False
    return True


# ---------------------------------------------------------------------------
# Corpus synthesis


def test_speechlike_deterministic_per_seed_and_index():
    a = synth_speechlike(SMALL_CORPUS, 3)
    b = synth_speechlike(SMALL_CORPUS, 3)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate == CORPUS_RATE
    other = synth_speechlike(SMALL_CORPUS, 4)
    assert not np.array_equal(a.samples, other.samples)
    reseeded = synth_speechlike(SynthCorpusConfig(item_count=8, duration_seconds=0.128, seed=1), 3)
    assert not np.array_equal(a.samples, reseeded.samples)


def test_speechlike_peak_normalized_and_voiced():
    for index in range(6):
        s = synth_speechlike(SMALL_CORPUS, index).samples
        assert abs(float(np.max(np.abs(s))) - 0.5) < 1e-12
        assert float(np.sqrt(np.mean(s * s))) > 0.01


def test_speechlike_fft_peak_lands_on_a_harmonic():
    # A point f0 range pins the fundamental, so the strongest FFT bin must
    # sit within one bin of some harmonic of 200 Hz despite drift/envelopes.
    config = SynthCorpusConfig(
        item_count=1, f0_range=(200.0, 200.0), silence_probability=0.0, seed=3
    )
    n = config.num_samples
    bin_hz = CORPUS_RATE / n
    for index in range(5):
        s = synth_speechlike(config, index)
        spectrum = np.abs(np.fft.rfft(s.samples))
        peak_hz = np.fft.rfftfreq(n, 1.0 / CORPUS_RATE)[int(np.argmax(spectrum))]
        harmonic = round(peak_hz / 200.0)
        assert harmonic >= 1
        assert abs(peak_hz - harmonic * 200.0) <= bin_hz


def test_speechlike_silence_guard_keeps_items_voiced():
    config = SynthCorpusConfig(item_count=1, duration_seconds=0.128, silence_probability=1.0, seed=11)
    saw_gap = False
    for index in range(8):
        s = synth_speechlike(config, index).samples
        assert float(np.sqrt(np.mean(s * s))) > 0.01
        # zero runs mark the carved gaps
        zero = np.abs(s) == 0.0
        run, best = 0, 0
        for flag in zero:
            run = run + 1 if flag else 0
            best = max(best, run)
        saw_gap = saw_gap or best >= 40
    assert saw_gap


def test_corpus_config_validation():
    with pytest.raises(DomainError):
        SynthCorpusConfig(item_count=0)
    with pytest.raises(DomainError):
        SynthCorpusConfig(f0_range=(100.0, 4000.0))
    with pytest.raises(DomainError):
        SynthCorpusConfig(f0_range=(0.0, 100.0))
    with pytest.raises(DomainError):
        SynthCorpusConfig(silence_probability=1.5)
    with pytest.raises(DomainError):
        SynthCorpusConfig(duration_seconds=0.0)
    # a duration that rounds to no sample at all
    with pytest.raises(DomainError):
        SynthCorpusConfig(duration_seconds=1e-9)
    assert SynthCorpusConfig(duration_seconds=1.0 / 8000).num_samples == 1
    for duration in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            SynthCorpusConfig(duration_seconds=duration)
    for seed in (-1, 1.5):
        with pytest.raises(DomainError):
            SynthCorpusConfig(seed=seed)


def test_rir_energy_normalized_and_deterministic():
    h = synth_rir(512, 0.032, seed=5)
    assert abs(float(np.dot(h.samples, h.samples)) - 1.0) < 1e-12
    again = synth_rir(512, 0.032, seed=5)
    assert np.array_equal(h.samples, again.samples)
    assert not np.array_equal(h.samples, synth_rir(512, 0.032, seed=6).samples)


def test_rir_approaches_delta_for_vanishing_decay():
    h = synth_rir(512, 1e-9, seed=5).samples
    assert h[0] == 1.0
    assert float(np.linalg.norm(h[1:])) == 0.0


def test_rir_log_envelope_slope_matches_decay_rate():
    # Amplitude decays like e^(-t/tau), so the log of the binned RMS envelope
    # has slope -1/tau.
    decay_seconds = 0.032
    tau = decay_seconds * RATE
    h = synth_rir(512, decay_seconds, seed=5).samples
    bins = 16
    tail = h[1:481].reshape(bins, -1)
    rms = np.sqrt(np.mean(tail * tail, axis=1))
    centers = 1 + (np.arange(bins) + 0.5) * (480 / bins)
    slope = np.polyfit(centers, np.log(rms), 1)[0]
    assert abs(slope - (-1.0 / tau)) <= 0.1 / tau


def test_rir_validation():
    with pytest.raises(DomainError):
        synth_rir(0, 0.032, seed=0)
    with pytest.raises(DomainError):
        synth_rir(512, 0.0, seed=0)


# ---------------------------------------------------------------------------
# Negative-SNR loss


def test_neg_snr_loss_definition_example():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(256)
    g = rng.standard_normal(256)
    g *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(g))
    loss, _ = _neg_snr_loss(ref + g, ref)
    assert abs(loss - (-20.0)) < 1e-9


def test_neg_snr_loss_gradient_matches_fd():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(128)
    est = ref + 0.3 * rng.standard_normal(128)
    _, grad = _neg_snr_loss(est, ref)
    eps = 1e-6
    for i in (0, 31, 64, 127):
        plus = est.copy()
        plus[i] += eps
        minus = est.copy()
        minus[i] -= eps
        lp, _ = _neg_snr_loss(plus, ref)
        lm, _ = _neg_snr_loss(minus, ref)
        fd = (lp - lm) / (2.0 * eps)
        assert abs(grad[i] - fd) <= 1e-5 * abs(fd)


def test_neg_snr_loss_floor_is_finite():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(256)
    loss, grad = _neg_snr_loss(ref, ref)
    assert np.isfinite(loss)
    assert loss < -100.0
    assert np.all(grad == 0.0)


def test_neg_snr_loss_rejects_bad_inputs():
    with pytest.raises(UndefinedMetricError):
        _neg_snr_loss(np.ones(64), np.zeros(64))
    ref = np.ones((3, 64))
    ref[1] = 0.0
    with pytest.raises(UndefinedMetricError):
        _neg_snr_loss(np.ones((3, 64)), ref)


@pytest.mark.bitwise
@pytest.mark.parametrize("shape", [(32, 8192), (57, 8192), (8, 128), (6, 128), (2, 3, 128)])
def test_batched_neg_snr_loss_matches_row_calls_bit_for_bit(shape):
    rng = np.random.default_rng(shape[-2])
    ref = rng.standard_normal(shape)
    est = ref + 0.3 * rng.standard_normal(shape)
    loss, grad = _neg_snr_loss(est, ref)
    assert loss.shape == shape[:-1] and grad.shape == shape
    for row in np.ndindex(shape[:-1]):
        for loss_row, grad_row in (_neg_snr_loss(est[row], ref[row]),
                                   neg_snr_loss_row(est[row], ref[row])):
            assert loss[row].tobytes() == np.float64(loss_row).tobytes()
            assert grad[row].tobytes() == grad_row.tobytes()


# ---------------------------------------------------------------------------
# Configuration and network construction


def test_train_config_validation():
    with pytest.raises(DomainError):
        small_train_config(epochs=21)
    with pytest.raises(DomainError):
        small_train_config(epochs=-1)
    with pytest.raises(DomainError):
        small_train_config(batch_size=0)
    with pytest.raises(DomainError):
        small_train_config(learning_rate=0.0)
    with pytest.raises(DomainError):
        small_train_config(snr_range=(40.0, 20.0))
    with pytest.raises(DomainError):
        small_train_config(frames=0)
    # a segment shorter than one analysis window
    with pytest.raises(ShapeError):
        small_train_config(frames=1)
    with pytest.raises(DomainError):
        small_train_config(arch="mask")
    with pytest.raises(DomainError):
        small_train_config(lipschitz="soft")
    with pytest.raises(DomainError):
        small_train_config(channel_width=0)
    with pytest.raises(DomainError):
        small_train_config(kernel_size=4)
    for seed in (-1, 1.5):
        with pytest.raises(DomainError):
            small_train_config(seed=seed)


def test_train_config_properties():
    config = small_train_config()
    assert config.segment_samples == 32 * 32
    assert config.modifier_kind == "am_re"
    assert small_train_config(arch="se").modifier_kind == "am_se"


def test_build_denoiser_net_shape_and_determinism():
    config = small_train_config()
    net = build_denoiser_net(config)
    bins = SMALL_STFT.num_bins
    assert [layer.weights.shape for layer in net.layers] == [
        (16, bins, 5),
        (16, 16, 5),
        (bins, 16, 5),
    ]
    assert [layer.activation.kind for layer in net.layers] == [
        "leaky_relu",
        "leaky_relu",
        "identity",
    ]
    assert all(np.all(layer.bias == 0.0) for layer in net.layers)
    assert np.array_equal(
        net.flatten_parameters(), build_denoiser_net(config).flatten_parameters()
    )
    assert not np.array_equal(
        net.flatten_parameters(),
        build_denoiser_net(small_train_config(seed=1)).flatten_parameters(),
    )


def test_build_denoiser_net_spectral_mode_starts_feasible():
    from lipsam.network import circulant_operator_norm

    config = small_train_config(lipschitz="spectral")
    net = build_denoiser_net(config)
    for layer in net.layers:
        assert circulant_operator_norm(layer, (config.frames,)) <= 1.0


def test_denoiser_architecture_kind_mapping():
    net = build_denoiser_net(small_train_config())
    for arch in ("se", "re"):
        trained = ModifierArchitecture(small_train_config(arch=arch).modifier_kind, NetMap(net))
        assert trained.kind == "am_" + arch and not trained.is_safeguarded
        assert ModifierArchitecture("lipsam_" + arch, NetMap(net)).is_safeguarded
    with pytest.raises(DomainError):
        small_train_config(arch="cnn")
    with pytest.raises(DomainError):
        ModifierArchitecture("am_cnn", NetMap(net))


def test_certify_denoiser_net_stamps_exact_norms():
    from lipsam.network import circulant_operator_norm

    config = small_train_config()
    net = build_denoiser_net(config)
    certified = certify_denoiser_net(net, config.frames)
    for raw, stamped in zip(net.layers, certified.layers):
        assert stamped.norm_certificate == circulant_operator_norm(raw, (config.frames,))
        assert np.array_equal(stamped.weights, raw.weights)


@pytest.mark.bitwise
def test_spectral_training_with_the_eigvalsh_norm_gives_the_same_bytes(monkeypatch):
    # the training geometry (257 -> 64 -> 64 -> 257, 32 frames), where the
    # norm screens its Grams; swapping in one eigvalsh per frequency must
    # change no weight and no certificate
    from lipsam import network, trainer
    from lipsam.network import save_weights

    config = TrainConfig(epochs=1, batch_size=4, lipschitz="spectral", seed=5)
    corpus = SynthCorpusConfig(item_count=9, seed=5)
    screened = train_denoiser(config, corpus)
    monkeypatch.setattr(network, "circulant_operator_norm", eigvalsh_operator_norm)
    monkeypatch.setattr(trainer, "circulant_operator_norm", eigvalsh_operator_norm)
    solved = train_denoiser(config, corpus)
    assert screened.status == solved.status == "completed"
    assert all(layer.norm_certificate is not None for layer in screened.net.layers)
    assert save_weights(screened.net) == save_weights(solved.net)
    assert repr(screened.log) == repr(solved.log)  # NaN-safe, exact for floats


# ---------------------------------------------------------------------------
# Training loop


def test_zero_epochs_returns_initialized_net_unchanged():
    config = small_train_config(epochs=0)
    result = train_denoiser(config, SMALL_CORPUS)
    expected = build_denoiser_net(config)
    assert np.array_equal(result.net.flatten_parameters(), expected.flatten_parameters())
    assert result.status == "completed"
    assert result.best_epoch == 0
    assert len(result.log) == 1
    assert result.log[0]["epoch"] == 0
    assert math.isnan(result.log[0]["train_loss"])


def test_training_is_bitwise_deterministic():
    config = small_train_config()
    first = train_denoiser(config, SMALL_CORPUS)
    second = train_denoiser(config, SMALL_CORPUS)
    assert np.array_equal(
        first.net.flatten_parameters(), second.net.flatten_parameters()
    )
    assert logs_equal(first.log, second.log)
    assert first.best_epoch == second.best_epoch
    assert first.best_val_loss == second.best_val_loss


def test_two_epochs_beat_the_untrained_net():
    # Frozen regression baseline: at this learning rate the 2-epoch run on
    # 64 items gains far more than the 1 dB it must clear.
    corpus = SynthCorpusConfig(item_count=64, duration_seconds=0.128, seed=0)
    config = small_train_config(batch_size=8)
    result = train_denoiser(config, corpus)
    assert result.status == "completed"
    untrained = result.log[0]["val_loss"]
    assert untrained - result.best_val_loss >= 1.0


def test_validation_selection_invariant():
    result = train_denoiser(small_train_config(), SMALL_CORPUS)
    values = [row["val_loss"] for row in result.log]
    assert result.best_val_loss == min(values)
    assert all(result.best_val_loss <= v for v in values)
    assert result.log[result.best_epoch]["val_loss"] == result.best_val_loss


def test_identity_task_keeps_zero_residual_net_at_floor():
    # A zero residual net is already the identity denoiser, so on nearly
    # noise-free input the epoch-0 checkpoint stays the best one.
    config = small_train_config(epochs=1, learning_rate=1e-4, snr_range=(290.0, 300.0))
    zero_net = build_denoiser_net(config).with_parameters(
        np.zeros(build_denoiser_net(config).parameter_count)
    )
    result = train_denoiser(config, SMALL_CORPUS, initial_net=zero_net)
    assert result.log[0]["val_loss"] < -120.0
    assert result.best_epoch == 0
    assert result.best_val_loss == result.log[0]["val_loss"]
    assert np.all(result.net.flatten_parameters() == 0.0)


def test_training_aborts_on_poisoned_loss_with_last_good_checkpoint():
    config = small_train_config(arch="se", learning_rate=1e120)
    result = train_denoiser(config, SMALL_CORPUS)
    assert result.status == "aborted"
    assert result.poisoned_at is not None
    epoch, step = result.poisoned_at
    assert epoch >= 1 and step >= 0
    assert np.all(np.isfinite(result.net.flatten_parameters()))
    # only fully completed epochs are logged
    assert all(row["epoch"] < epoch for row in result.log)


def test_spectral_training_returns_certified_feasible_net():
    config = small_train_config(epochs=1, lipschitz="spectral")
    result = train_denoiser(config, SMALL_CORPUS)
    assert result.status == "completed"
    for layer in result.net.layers:
        assert layer.norm_certificate is not None
        assert layer.norm_certificate <= 1.0


def test_training_rejects_tiny_or_short_corpora():
    with pytest.raises(DomainError):
        train_denoiser(small_train_config(), SynthCorpusConfig(item_count=1))
    short = SynthCorpusConfig(item_count=8, duration_seconds=0.064, seed=0)
    with pytest.raises(ShapeError):
        train_denoiser(small_train_config(), short)


def test_training_skips_silent_segments():
    # Item 37 of this corpus is silent over its first 128 samples, the
    # training segment at frames=4 and hop 32; it used to abort the run with
    # an undefined SNR.
    config = small_train_config(
        batch_size=8, frames=4, lipschitz="spectral", seed=997880702
    )
    corpus = SynthCorpusConfig(item_count=64, duration_seconds=0.128, seed=997880702)
    assert not np.any(synth_speechlike(corpus, 37).samples[: config.segment_samples])
    result = train_denoiser(config, corpus)
    assert result.status == "completed"
    assert all(np.isfinite(row["val_loss"]) for row in result.log)


def test_training_rejects_corpora_with_fewer_than_two_voiced_segments(monkeypatch):
    import lipsam.trainer as trainer_module

    config = small_train_config(frames=4)
    needed = config.segment_samples

    def mostly_silent(corpus, index):
        samples = np.full(2 * needed, 0.5)
        if index > 0:
            samples[:needed] = 0.0
        return TimeSignal(samples, RATE)

    monkeypatch.setattr(trainer_module, "synth_speechlike", mostly_silent)
    with pytest.raises(DomainError):
        train_denoiser(config, SynthCorpusConfig(item_count=4, seed=0))


def test_warm_start_rejects_mismatched_nets():
    config = small_train_config()
    wrong_bins = TrainConfig(
        epochs=2,
        batch_size=4,
        learning_rate=1e-2,
        frames=32,
        arch="re",
        channel_width=16,
        kernel_size=5,
        seed=0,
        stft=StftConfig(window_length=32, hop=16),
    )
    net = build_denoiser_net(wrong_bins)
    with pytest.raises(ShapeError):
        train_denoiser(config, SMALL_CORPUS, initial_net=net)


# ---------------------------------------------------------------------------
# Gradient invariants


def _training_batch(count=4):
    items = np.stack(
        [synth_speechlike(SMALL_CORPUS, i).samples[:1024] for i in range(count)]
    )
    return items


def _batch_magnitudes(batch):
    z = np.stack([stft(TimeSignal(row, RATE), SMALL_STFT).values for row in batch])
    return np.abs(z)


def _shift_final_bias(net, delta):
    theta = net.flatten_parameters()
    theta[-net.out_channels :] += delta  # the final layer's bias comes last
    return net.with_parameters(theta)


def test_wrapper_first_step_gradients_match_for_re_pair():
    # With R > 0 everywhere on the batch the safeguard relu is pass-through,
    # so training the safeguarded wrapper must produce the same first-step
    # gradients as its plain sibling, bit for bit.
    batch = _training_batch()
    x = _batch_magnitudes(batch)
    config = small_train_config(channel_width=8, kernel_size=3, seed=5)
    net = build_denoiser_net(config)
    residual = NetMap(net)(x)
    net = _shift_final_bias(net, max(0.0, 1e-3 - float(np.min(residual))))
    assert float(np.min(NetMap(net)(x))) > 0.0
    loss_plain, grad_plain = _batch_loss_and_grads(net, "am_re", batch, batch, config)
    loss_safe, grad_safe = _batch_loss_and_grads(net, "lipsam_re", batch, batch, config)
    assert loss_plain == loss_safe
    assert np.array_equal(grad_plain, grad_safe)


def test_wrapper_first_step_gradients_match_for_se_pair():
    # Mirror condition for the spectral pair: S(x) < x everywhere keeps the
    # safeguard min inactive.
    batch = _training_batch()
    x = _batch_magnitudes(batch)
    config = small_train_config(arch="se", channel_width=8, kernel_size=3, seed=6)
    net = build_denoiser_net(config)
    estimate = NetMap(net)(x)
    net = _shift_final_bias(net, -(float(np.max(estimate - x)) + 1e-3))
    assert float(np.max(NetMap(net)(x) - x)) < 0.0
    loss_plain, grad_plain = _batch_loss_and_grads(net, "am_se", batch, batch, config)
    loss_safe, grad_safe = _batch_loss_and_grads(net, "lipsam_se", batch, batch, config)
    assert loss_plain == loss_safe
    assert np.array_equal(grad_plain, grad_safe)


def test_end_to_end_gradient_matches_finite_differences():
    config = small_train_config(arch="se", channel_width=4, kernel_size=3, seed=6)
    net = build_denoiser_net(config)
    clean = _training_batch(2)
    noisy = clean + 0.01 * np.random.default_rng(3).standard_normal(clean.shape)

    # precondition: the batch sits away from every relu kink, so central
    # differences see a smooth function
    magnitudes = _batch_magnitudes(noisy)
    _, cache = forward(net, magnitudes)
    assert min(float(np.min(np.abs(p))) for p in cache.preactivations) > 1e-4

    _, grad_flat = _batch_loss_and_grads(net, "am_se", clean, noisy, config)
    flat = net.flatten_parameters()

    def loss_at(vector):
        value, _ = _batch_loss_and_grads(
            net.with_parameters(vector), "am_se", clean, noisy, config
        )
        return value

    rng = np.random.default_rng(1)
    checked = 0
    for i in rng.choice(flat.size, size=12, replace=False):
        eps = 1e-6 * max(1.0, abs(flat[i]))
        plus = flat.copy()
        plus[i] += eps
        minus = flat.copy()
        minus[i] -= eps
        fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps)
        if abs(fd) < 1e-8 and abs(grad_flat[i]) < 1e-8:
            continue
        assert abs(grad_flat[i] - fd) <= 1e-4 * max(abs(fd), 1e-12)
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# Evaluation


def _short_items(count=4):
    return [
        TimeSignal(synth_speechlike(SMALL_CORPUS, i).samples[:1024], RATE)
        for i in range(count)
    ]


def test_evaluate_identity_denoiser_reports_input_snr_exactly():
    identity = ModifierArchitecture("lipsam_re", ZeroMap())
    rows = evaluate_denoiser(identity, _short_items(), [30.0], stft_config=SMALL_STFT)
    assert len(rows) == 1
    assert rows[0]["input_snr_db"] == 30.0
    assert abs(rows[0]["mean_snr_db"] - 30.0) < 1e-9


def test_evaluate_zero_output_denoiser_hits_sentinel():
    # a = relu(x - x) = 0: the denoiser silences everything
    zero_output = ModifierArchitecture("lipsam_re", IdentityMap())
    rows = evaluate_denoiser(zero_output, _short_items(), [30.0], stft_config=SMALL_STFT)
    assert rows[0]["mean_snr_db"] == -300.0
    assert rows[0]["mean_si_snr_db"] == -300.0


def test_evaluate_is_deterministic_and_validates():
    identity = ModifierArchitecture("lipsam_re", ZeroMap())
    items = _short_items(2)
    a = evaluate_denoiser(identity, items, [10.0, 20.0], stft_config=SMALL_STFT, seed=3)
    b = evaluate_denoiser(identity, items, [10.0, 20.0], stft_config=SMALL_STFT, seed=3)
    assert a == b
    assert [row["input_snr_db"] for row in a] == [10.0, 20.0]
    with pytest.raises(DomainError):
        evaluate_denoiser(identity, [], [10.0], stft_config=SMALL_STFT)
    with pytest.raises(DomainError):
        evaluate_denoiser(identity, items, [], stft_config=SMALL_STFT)


def test_trained_denoiser_improves_noisy_speech():
    corpus = SynthCorpusConfig(item_count=64, duration_seconds=0.128, seed=0)
    result = train_denoiser(small_train_config(batch_size=8), corpus)
    fresh = SynthCorpusConfig(item_count=50, duration_seconds=0.128, seed=1234)
    test_items = [synth_speechlike(fresh, i) for i in range(50)]
    arch = ModifierArchitecture("am_re", NetMap(result.net))
    rows = evaluate_denoiser(arch, test_items, [20.0], stft_config=SMALL_STFT, seed=7)
    assert rows[0]["mean_snr_db"] >= 20.0
