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
    GEMM_MAX_WINDOW,
    StftConfig,
    TimeSignal,
    add_noise_at_snr,
    analysis,
    circular_convolve,
    hann_window,
    make_tight_window,
    read_wav,
    si_snr,
    snr,
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


@pytest.mark.parametrize(
    "window_length, hop", [(64.0, 32), ("64", 32), (True, 1), (64, 32.0), (64, True), (None, 32)]
)
def test_stft_config_requires_integer_geometry(window_length, hop):
    with pytest.raises(DomainError, match="window_length|hop"):
        StftConfig(window_length, hop)


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
    x = np.random.default_rng(3).standard_normal(32)
    back = synthesis(analysis(x, config), StftConfig(window_length=16, hop=8))
    np.testing.assert_allclose(back, x, atol=1e-12)


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
    fast = analysis(sig.samples, config)
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
    back = synthesis(analysis(sig.samples, config), config)
    assert np.max(np.abs(back - sig.samples)) < 1e-10


def test_stft_round_trip_default_speech_config():
    rng = np.random.default_rng(7)
    config = StftConfig()
    sig = random_signal(rng, 8192)
    back = synthesis(analysis(sig.samples, config), config)
    assert np.max(np.abs(back - sig.samples)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(2, 12))
def test_stft_parseval(seed, frames):
    config = StftConfig(window_length=16, hop=8)
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, max(frames, 2) * 8)
    coeff_norm = np.linalg.norm(analysis(sig.samples, config))
    sig_norm = np.linalg.norm(sig.samples)
    assert abs(coeff_norm - sig_norm) <= 1e-9 * sig_norm


def test_stft_linearity():
    rng = np.random.default_rng(3)
    config = StftConfig(window_length=16, hop=8)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    a, b = 1.7, -0.4
    lhs = analysis(a * x + b * y, config)
    rhs = a * analysis(x, config) + b * analysis(y, config)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_stft_adjointness():
    # <G x, V>_Re == <x, G^H V> certifies that synthesis is the exact adjoint.
    rng = np.random.default_rng(11)
    config = StftConfig(window_length=16, hop=8)
    x = rng.standard_normal(64)
    v = rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8))
    gx = analysis(x, config)
    ghv = synthesis(v, config)
    lhs = float(np.sum(np.real(np.conj(v) * gx)))
    rhs = float(np.dot(x, ghv))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_stft_synthesis_then_analysis_is_projection():
    rng = np.random.default_rng(5)
    config = StftConfig(window_length=16, hop=8)
    v = rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8))
    once = analysis(synthesis(v, config), config)
    twice = analysis(synthesis(once, config), config)
    np.testing.assert_allclose(twice, once, atol=1e-10)


def assert_core_matches(got, want, config):
    """Bitwise at 50% overlap; within 1e-15 relative at higher overlap."""
    if config.window_length == 2 * config.hop:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def frame_index(config, frames):
    """[frames, window_length] indices of each frame's samples, wrapping."""
    starts = np.arange(frames)[:, None] * config.hop
    return (starts + np.arange(config.window_length)) % (frames * config.hop)


def analysis_mass(x, config):
    """scale_k Σₙ |wₙ xₙ| for every bin k of every frame: [bins, frames]."""
    frames = np.abs(x[frame_index(config, x.size // config.hop)])
    return np.outer(config.analysis_scale, frames @ config.window)


def synthesis_mass(v, config):
    """For each output sample, the sum over the frame samples n landing on
    it of wₙ Σ_k scale_k (|Re v_k| + |Im v_k|) of their frame: [samples]."""
    per_frame = config.analysis_scale @ (np.abs(v.real) + np.abs(v.imag))
    mass = np.zeros(v.shape[1] * config.hop)
    np.add.at(mass, frame_index(config, v.shape[1]), np.outer(per_frame, config.window))
    return mass


def assert_within_gemm_rounding(got, want, mass, window_length):
    """|got - want| <= 2·L·u·mass entrywise, real and imaginary parts apart,
    u = 2⁻⁵³ the unit roundoff and L the window length.

    A short window's STFT entry is one GEMM entry, a sum of m products: m = L
    for an analysis bin, m = 2·bins = L + 2 for a synthesis frame sample.  A
    floating-point sum of m products is off by at most γ_m Σ|products|,
    γ_m = m·u / (1 - m·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, §3.1), and each matrix entry scale_k·wₙ·cos θ carries at most
    about 4u relative error of its own (the cosine and two products), so the
    GEMM is within (L + 6)·u·mass of the exact value.  For analysis bin k of
    a frame the mass is scale_k Σₙ|wₙxₙ|; for a synthesis sample it is the
    sum, over the frame samples that the overlap-add lands on it, of wₙ
    Σ_k scale_k (|Re v_k| + |Im v_k|), and the overlap-add's L/hop additions
    add at most (L/hop)·u·mass.  The roll oracle's FFT is within about
    log₂L·u·mass of the exact value, so the two differ by at most
    (L + 6 + L/hop + log₂L)·u·mass, below 2·L·u·mass for L >= 16 and
    L/hop <= 4, as in every geometry here.
    """
    bound = 2.0 * window_length * 2.0**-53 * mass
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= bound)


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
        if window_length <= GEMM_MAX_WINDOW:
            assert_within_gemm_rounding(
                values[index], roll_stft(x[index], config), analysis_mass(x[index], config),
                window_length,
            )
            assert_within_gemm_rounding(
                back[index], roll_istft(v[index], config), synthesis_mass(v[index], config),
                window_length,
            )
        else:
            assert_core_matches(values[index], roll_stft(x[index], config), config)
            assert_core_matches(back[index], roll_istft(v[index], config), config)
        assert_core_matches(values[index], analysis(x[index], config), config)
        assert_core_matches(back[index], synthesis(v[index], config), config)


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


@pytest.mark.parametrize("length", [30, 8])  # not a multiple of the hop; under one window
def test_analysis_rejects_a_length_its_frame_view_cannot_cover(length):
    with pytest.raises(ShapeError):
        analysis(np.ones((2, length)), StftConfig(window_length=16, hop=8))


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


# ---------------------------------------------------------------- wav io


def test_wav_round_trip_float32(tmp_path):
    rng = np.random.default_rng(12)
    sig = TimeSignal(np.clip(rng.standard_normal(800) * 0.2, -1, 1))
    path = tmp_path / "f32.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_rate == sig.sample_rate
    np.testing.assert_allclose(back.samples, sig.samples, atol=1e-6)


def test_wav_round_trip_pcm16(tmp_path):
    # lipsam writes float32 only; a 16-bit PCM file from another writer
    # reads back scaled by 1/32768
    import scipy.io.wavfile

    data = np.array([0, 1, -1, 16384, -16384, 32767, -32768], dtype=np.int16)
    path = tmp_path / "p16.wav"
    scipy.io.wavfile.write(path, 16000, data)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.samples.tobytes() == (data.astype(np.float64) / 32768.0).tobytes()


def test_wav_rejects_unknown_encoding(tmp_path):
    import scipy.io.wavfile

    stereo = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(stereo, 8000, np.zeros((8, 2), dtype=np.float32))
    with pytest.raises(FormatError, match="only mono"):
        read_wav(stereo)
    wide = tmp_path / "int32.wav"
    scipy.io.wavfile.write(wide, 8000, np.zeros(8, dtype=np.int32))
    with pytest.raises(FormatError, match="unsupported WAV sample format int32"):
        read_wav(wide)


def _truncated_wav(path):
    write_wav(path, TimeSignal(np.ones(64)))
    path.write_bytes(path.read_bytes()[:30])


@pytest.mark.parametrize(
    "make",
    [
        lambda path: path.write_text("not a wav\n"),
        lambda path: path.write_bytes(b""),
        lambda path: path.write_bytes(b"RIFF\x24\x00\x00\x00AVI LIST"),  # RIFF, not WAVE
        _truncated_wav,  # cut inside the fmt chunk
    ],
    ids=["text", "empty", "riff-not-wave", "truncated"],
)
def test_read_wav_reports_a_malformed_file_as_a_format_error(tmp_path, make):
    path = tmp_path / "bad.wav"
    make(path)
    with pytest.raises(FormatError, match="cannot read .*bad.wav as a WAV file"):
        read_wav(path)
