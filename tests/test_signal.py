import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsam.errors import (
    DomainError,
    FormatError,
    InvalidWindowError,
    ShapeError,
    UndefinedMetricError,
)
from lipsam.signal import (
    Spectrogram,
    StftConfig,
    TimeSignal,
    add_noise_at_snr,
    analysis,
    circular_convolve,
    hann_window,
    istft,
    make_tight_window,
    read_wav,
    si_snr,
    snr,
    stft,
    synthesis,
    write_wav,
)
from oracles import roll_istft, roll_stft


def random_signal(rng, length, sample_rate=8000):
    return TimeSignal(rng.standard_normal(length), sample_rate)


# ---------------------------------------------------------------- windows


def test_tight_window_rectangular_overlap_two():
    w = make_tight_window(np.ones(4), hop=2)
    np.testing.assert_allclose(w, np.full(4, 1.0 / np.sqrt(2.0)), atol=1e-15)


def test_tight_window_hann_512_256_partition_of_unity():
    w = make_tight_window(hann_window(512), hop=256)
    sums = np.sum(w.reshape(-1, 256) ** 2, axis=0)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_tight_window_rejects_no_overlap_hann():
    with pytest.raises(InvalidWindowError):
        make_tight_window(hann_window(512), hop=512)


def test_tight_window_rejects_length_not_multiple_of_hop():
    with pytest.raises(InvalidWindowError):
        StftConfig(window_length=10, hop=4)


def test_stft_config_rejects_non_dividing_hop():
    with pytest.raises(InvalidWindowError):
        StftConfig(window_length=512, hop=100)


def test_stft_config_window_is_the_tight_hann():
    config = StftConfig(window_length=16, hop=4)
    want = make_tight_window(hann_window(16), hop=4)
    assert config.window.tobytes() == want.tobytes()


def test_stft_config_is_a_value_on_its_geometry():
    config = StftConfig(window_length=16, hop=8)
    assert config == StftConfig(window_length=16, hop=8)
    assert hash(config) == hash(StftConfig(window_length=16, hop=8))
    assert config != StftConfig(window_length=16, hop=4)
    assert config != StftConfig(window_length=32, hop=8)
    # a spectrogram from an equal config synthesizes under another instance
    x = TimeSignal(np.random.default_rng(3).standard_normal(32))
    back = istft(stft(x, config), StftConfig(window_length=16, hop=8))
    np.testing.assert_allclose(back.samples, x.samples, atol=1e-12)


# ---------------------------------------------------------------- STFT frame


def loop_stft(x, config):
    """Direct triple-loop analysis, the frozen reference for the fast path."""
    length = config.window_length
    hop = config.hop
    frames = x.size // hop
    bins = config.num_bins
    weights = np.full(bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    weights /= np.sqrt(length)
    out = np.zeros((bins, frames), dtype=np.complex128)
    for f in range(frames):
        for k in range(bins):
            acc = 0.0 + 0.0j
            for n in range(length):
                angle = -2.0j * np.pi * k * n / length
                acc += config.window[n] * x[(f * hop + n) % x.size] * np.exp(angle)
            out[k, f] = weights[k] * acc
    return out


def test_stft_matches_loop_reference():
    rng = np.random.default_rng(0)
    config = StftConfig(window_length=8, hop=4)
    sig = random_signal(rng, 24)
    fast = stft(sig, config).values
    slow = loop_stft(sig.samples, config)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(2, 12),
    geometry=st.sampled_from([(8, 4), (16, 8), (16, 4), (32, 16)]),
)
def test_stft_round_trip_identity(seed, frames, geometry):
    length, hop = geometry
    if frames * hop < length:
        frames = length // hop
    config = StftConfig(window_length=length, hop=hop)
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, frames * hop)
    back = istft(stft(sig, config), config)
    assert np.max(np.abs(back.samples - sig.samples)) < 1e-10


def test_stft_round_trip_default_speech_config():
    rng = np.random.default_rng(7)
    config = StftConfig()
    sig = random_signal(rng, 8192)
    back = istft(stft(sig, config), config)
    assert np.max(np.abs(back.samples - sig.samples)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(2, 12))
def test_stft_parseval(seed, frames):
    config = StftConfig(window_length=16, hop=8)
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, max(frames, 2) * 8)
    coeff_norm = np.linalg.norm(stft(sig, config).values)
    sig_norm = np.linalg.norm(sig.samples)
    assert abs(coeff_norm - sig_norm) <= 1e-9 * sig_norm


def test_stft_linearity():
    rng = np.random.default_rng(3)
    config = StftConfig(window_length=16, hop=8)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    a, b = 1.7, -0.4
    lhs = stft(TimeSignal(a * x + b * y), config).values
    rhs = a * stft(TimeSignal(x), config).values + b * stft(TimeSignal(y), config).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_stft_adjointness():
    # <G x, V>_Re == <x, G^H V> certifies that istft is the exact adjoint.
    rng = np.random.default_rng(11)
    config = StftConfig(window_length=16, hop=8)
    x = rng.standard_normal(64)
    v = rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8))
    gx = stft(TimeSignal(x), config).values
    ghv = istft(Spectrogram(v), config).samples
    lhs = float(np.sum(np.real(np.conj(v) * gx)))
    rhs = float(np.dot(x, ghv))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_stft_synthesis_then_analysis_is_projection():
    rng = np.random.default_rng(5)
    config = StftConfig(window_length=16, hop=8)
    v = rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8))
    once = stft(istft(Spectrogram(v), config), config).values
    twice = stft(istft(Spectrogram(once), config), config).values
    np.testing.assert_allclose(twice, once, atol=1e-10)


def assert_core_matches(got, want, config):
    """Bitwise at 50% overlap; within 1e-15 relative at higher overlap."""
    if config.window_length == 2 * config.hop:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry", [(64, 32), (16, 8), (512, 256), (16, 4), (64, 16)])
@pytest.mark.parametrize("batch_shape", [(3,), (2, 3)])
def test_stft_core_matches_roll_oracles_and_per_row_calls(geometry, batch_shape):
    window_length, hop = geometry
    config = StftConfig(window_length=window_length, hop=hop)
    rng = np.random.default_rng(window_length + hop + len(batch_shape))
    frames = window_length // hop + 3
    x = rng.standard_normal(batch_shape + (frames * hop,))
    shape = batch_shape + (config.num_bins, frames)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values = analysis(x, config)
    back = synthesis(v, config)
    assert values.shape == shape and back.shape == x.shape
    for index in np.ndindex(batch_shape):
        assert_core_matches(values[index], roll_stft(x[index], config), config)
        assert_core_matches(values[index], stft(TimeSignal(x[index]), config).values, config)
        assert_core_matches(back[index], roll_istft(v[index], config), config)
        assert_core_matches(back[index], istft(Spectrogram(v[index]), config).samples, config)


@pytest.mark.bitwise
@pytest.mark.parametrize("geometry", [(64, 32), (16, 8), (512, 256), (16, 4)])
def test_stft_scales_match_the_bin_weight_formula_bit_for_bit(geometry):
    config = StftConfig(*geometry)
    # sqrt(2) on the interior bins, 1 at DC and Nyquist
    weights = np.full(config.num_bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    want_analysis = weights / np.sqrt(config.window_length)
    want_synthesis = np.sqrt(config.window_length) / weights
    assert config.analysis_scale.tobytes() == want_analysis.tobytes()
    assert config.synthesis_scale.tobytes() == want_synthesis.tobytes()


def test_stft_rejects_bad_length_without_pad():
    config = StftConfig(window_length=16, hop=8)
    with pytest.raises(ShapeError):
        stft(TimeSignal(np.ones(30)), config)


@pytest.mark.parametrize("length", [30, 8])  # not a multiple of the hop; under one window
def test_analysis_rejects_a_length_its_frame_view_cannot_cover(length):
    with pytest.raises(ShapeError):
        analysis(np.ones((2, length)), StftConfig(window_length=16, hop=8))


def test_istft_rejects_mismatched_config():
    config = StftConfig(window_length=16, hop=8)
    other = StftConfig(window_length=16, hop=4)
    spec = stft(TimeSignal(np.ones(32)), config)
    with pytest.raises(ShapeError):
        istft(spec, other)


# ---------------------------------------------------------------- convolution


def dense_circulant(h, size):
    kernel = np.zeros(size)
    kernel[: h.size] = h
    mat = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            mat[i, j] = kernel[(i - j) % size]
    return mat


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 64), ksize=st.integers(1, 64))
def test_circular_convolve_matches_dense_oracle(seed, size, ksize):
    ksize = min(ksize, size)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    h = rng.standard_normal(ksize)
    fast = circular_convolve(TimeSignal(x), TimeSignal(h)).samples
    slow = dense_circulant(h, size) @ x
    np.testing.assert_allclose(fast, slow, atol=1e-10 * max(1.0, np.max(np.abs(slow))))


def test_circular_convolve_commutes_for_equal_lengths():
    rng = np.random.default_rng(1)
    x = TimeSignal(rng.standard_normal(32))
    h = TimeSignal(rng.standard_normal(32))
    np.testing.assert_allclose(
        circular_convolve(x, h).samples, circular_convolve(h, x).samples, atol=1e-10
    )


def test_circular_convolve_delta_is_identity():
    rng = np.random.default_rng(2)
    x = TimeSignal(rng.standard_normal(40))
    delta = TimeSignal(np.array([1.0]))
    np.testing.assert_allclose(circular_convolve(x, delta).samples, x.samples, atol=1e-12)


def test_circular_convolve_rejects_long_kernel():
    with pytest.raises(ShapeError):
        circular_convolve(TimeSignal(np.ones(4)), TimeSignal(np.ones(8)))


# ---------------------------------------------------------------- metrics


def test_si_snr_orthogonal_noise_is_exact():
    # Construct noise exactly orthogonal to the reference with 1/10 its norm:
    # alpha is then exactly 1 and the ratio is exactly 100, i.e. 20 dB.
    rng = np.random.default_rng(9)
    ref = rng.standard_normal(256)
    raw = rng.standard_normal(256)
    noise = raw - (np.dot(raw, ref) / np.dot(ref, ref)) * ref
    noise *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(noise))
    value = si_snr(TimeSignal(ref + noise), TimeSignal(ref))
    assert abs(value - 20.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gain=st.floats(0.01, 100.0))
def test_si_snr_scale_invariance(seed, gain):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(128)
    est = ref + 0.1 * rng.standard_normal(128)
    base = si_snr(TimeSignal(est), TimeSignal(ref))
    scaled = si_snr(TimeSignal(gain * est), TimeSignal(ref))
    assert abs(base - scaled) < 1e-6


def test_si_snr_exact_multiple_hits_cap():
    ref = TimeSignal(np.sin(np.linspace(0, 10, 100)))
    est = TimeSignal(2.0 * ref.samples)
    assert si_snr(est, ref) == 300.0


def test_si_snr_zero_estimate_hits_negative_cap():
    ref = TimeSignal(np.sin(np.linspace(0, 10, 100)))
    assert si_snr(TimeSignal(np.zeros(100)), ref) == -300.0


def test_si_snr_zero_reference_is_undefined():
    with pytest.raises(UndefinedMetricError):
        si_snr(TimeSignal(np.ones(8)), TimeSignal(np.zeros(8)))


def test_snr_zero_estimate_sentinel():
    ref = TimeSignal(np.sin(np.linspace(0, 10, 100)))
    assert snr(TimeSignal(np.zeros(100)), ref) == -300.0


def test_add_noise_at_snr_is_exact():
    rng = np.random.default_rng(4)
    clean = TimeSignal(rng.standard_normal(1000))
    for target in (0.0, 12.5, 30.0):
        noisy = add_noise_at_snr(clean, target, seed=99)
        assert abs(snr(noisy, clean) - target) < 1e-9


def test_add_noise_at_snr_deterministic():
    clean = TimeSignal(np.sin(np.linspace(0, 20, 500)))
    a = add_noise_at_snr(clean, 20.0, seed=7)
    b = add_noise_at_snr(clean, 20.0, seed=7)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_add_noise_rejects_zero_signal():
    with pytest.raises(DomainError):
        add_noise_at_snr(TimeSignal(np.zeros(16)), 20.0, seed=0)


# ---------------------------------------------------------------- containers


def test_time_signal_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        TimeSignal(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        TimeSignal(np.zeros(0))
    with pytest.raises(DomainError):
        TimeSignal(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        TimeSignal(np.ones(4), sample_rate=0)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 8000.5, 0])
def test_time_signal_rejects_bad_sample_rate(rate):
    with pytest.raises(DomainError):
        TimeSignal(np.ones(4), sample_rate=rate)


def test_spectrogram_rejects_non_finite():
    with pytest.raises(DomainError):
        Spectrogram(np.array([[np.inf + 0j, 0j]]))


# ---------------------------------------------------------------- wav io


def test_wav_round_trip_float32(tmp_path):
    rng = np.random.default_rng(12)
    sig = TimeSignal(np.clip(rng.standard_normal(800) * 0.2, -1, 1))
    path = tmp_path / "f32.wav"
    write_wav(path, sig, encoding="float32")
    back = read_wav(path)
    assert back.sample_rate == sig.sample_rate
    np.testing.assert_allclose(back.samples, sig.samples, atol=1e-6)


def test_wav_round_trip_pcm16(tmp_path):
    rng = np.random.default_rng(13)
    sig = TimeSignal(np.clip(rng.standard_normal(800) * 0.2, -1, 1), sample_rate=16000)
    path = tmp_path / "p16.wav"
    write_wav(path, sig, encoding="pcm16")
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, sig.samples, atol=1e-4)


def test_wav_rejects_unknown_encoding(tmp_path):
    with pytest.raises(FormatError):
        write_wav(tmp_path / "x.wav", TimeSignal(np.zeros(8)), encoding="pcm24")
