"""Time-domain signals, tight-frame STFT analysis, and scalar audio metrics.

The STFT here is circular (frames wrap around the end of the signal) and
Parseval tight: analysis followed by synthesis is the identity, and the
stored coefficient matrix has the same Euclidean norm as the signal.  Both
properties are exact up to FFT rounding, which is what makes the frame
usable as the change-of-variables operator inside a splitting solver.

Tightness is obtained in two steps.  The window prototype is normalized so
its squared hop-shifted copies sum to one at every sample, and the DFT is
scaled unitarily with sqrt(2) weights on the interior bins so that one-sided
storage of a real input loses no energy.  The synthesis path applies the
exact adjoint, so ``synthesis(analysis(x)) == x`` with no further correction.

A short window's DFT is one small real matrix product rather than an FFT:
at 64 samples and below a pocketfft call costs more in per-call overhead
than the [frames, L] by [L, 2·bins] GEMM costs in flops (the lowering
``network`` uses for its convolutions).  Longer windows keep the FFT.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    InvalidWindowError,
    ShapeError,
    UndefinedMetricError,
    check_field_types,
)

SNR_CAP_DB = 300.0


@dataclass(frozen=True)
class TimeSignal:
    """A finite mono signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = 8000

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 1:
            raise ShapeError(f"expected a 1-D sample vector, got shape {samples.shape}")
        if samples.size == 0:
            raise ShapeError("signal must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise DomainError("signal samples must be finite")
        rate = float(self.sample_rate)
        if not (np.isfinite(rate) and rate.is_integer() and rate > 0):
            raise DomainError(f"sample rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(rate))

    def __len__(self) -> int:
        return self.samples.size


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window, the STFT prototype."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def make_tight_window(prototype: np.ndarray, hop: int) -> np.ndarray:
    """Normalize a window prototype so hop-shifted squares sum to one.

    Parameters
    ----------
    prototype : array of shape [window_length]
        Finite nonnegative analysis prototype. Its length must be a
        positive multiple of hop.
    hop : int
        Frame advance in samples.

    Returns
    -------
    array of shape [window_length]
        Window w with sum_k w[m + k * hop]^2 == 1 for every residue m.

    The normalizer depends only on the sample index modulo hop, so a zero
    denominator (for example a Hann window with hop equal to its length)
    cannot be repaired and raises InvalidWindowError.
    """
    folded = prototype.reshape(-1, hop)
    denom = np.sum(folded * folded, axis=0)
    if np.any(denom <= 0.0):
        raise InvalidWindowError(
            "hop-shifted squared prototype sums to zero at some sample; "
            "pick a window/hop pair with full coverage"
        )
    return prototype / np.sqrt(np.tile(denom, prototype.size // hop))


# The longest window whose DFT runs as a GEMM.  Timed on 4096 samples at
# half overlap (2 vCPUs, numpy 2.4 with OpenBLAS 0.3.31 at 1 thread), the
# GEMM analysis ran 1.8x faster than the rfft at 64 samples and 1.2x slower
# at 128.
GEMM_MAX_WINDOW = 64


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters for the circular tight-frame STFT.

    A config is a plain value on ``(window_length, hop)``: configs with equal
    geometry compare equal.  The window is always the periodic Hann prototype
    made tight for the hop, derived at construction and checked to satisfy
    the tight-frame condition that makes the x-update of the solver exact.
    The per-bin DFT scales of :func:`analysis` and :func:`synthesis` are
    derived once here too.  For a window of at most ``GEMM_MAX_WINDOW``
    samples, ``dft`` is the real [window_length, 2·num_bins] analysis matrix
    with the window and the scales folded in, and ``dft_adjoint`` its
    transpose, copied once into the row order synthesis multiplies by
    fastest; the window is then read at construction only.  A longer window
    leaves both None, and both functions read ``window`` at call time.
    """

    window_length: int = 512
    hop: int = 256
    window: np.ndarray = field(init=False, compare=False)
    analysis_scale: np.ndarray = field(init=False, compare=False, repr=False)
    synthesis_scale: np.ndarray = field(init=False, compare=False, repr=False)
    dft: np.ndarray | None = field(init=False, compare=False, repr=False)
    dft_adjoint: np.ndarray | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_field_types(self, ("window_length", "hop"))
        if self.window_length <= 0 or self.hop <= 0:
            raise InvalidWindowError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise InvalidWindowError(
                f"hop {self.hop} must divide window_length {self.window_length}"
            )
        if self.window_length % 2 != 0:
            raise InvalidWindowError("window_length must be even")
        window = make_tight_window(hann_window(self.window_length), self.hop)
        folded = window.reshape(-1, self.hop)
        if not np.max(np.abs(np.sum(folded * folded, axis=0) - 1.0)) <= 1e-10:
            raise InvalidWindowError("window is not tight: shifted squares must sum to 1")
        object.__setattr__(self, "window", window)
        # sqrt(2) on interior bins makes one-sided storage an isometry;
        # DC and Nyquist appear once in the full spectrum, interior bins twice.
        weights = np.full(self.num_bins, np.sqrt(2.0))
        weights[0] = 1.0
        weights[-1] = 1.0
        object.__setattr__(self, "analysis_scale", weights / np.sqrt(self.window_length))
        object.__setattr__(self, "synthesis_scale", np.sqrt(self.window_length) / weights)
        dft = adjoint = None
        if self.window_length <= GEMM_MAX_WINDOW:
            dft = _dft_matrix(window, self.analysis_scale)
            adjoint = np.ascontiguousarray(dft.T)
            adjoint.flags.writeable = False
        object.__setattr__(self, "dft", dft)
        object.__setattr__(self, "dft_adjoint", adjoint)

    @property
    def num_bins(self) -> int:
        return self.window_length // 2 + 1

    def check_length(self, length: int, what: str = "signal") -> None:
        """Raise ShapeError unless ``length`` samples are a multiple of the
        hop and at least one window long, as the circular frame needs."""
        if length % self.hop or length < self.window_length:
            raise ShapeError(
                f"{what} length {length} must be a multiple of hop {self.hop} "
                f"and cover one window of {self.window_length}"
            )


def _dft_matrix(window: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The read-only real [L, 2·bins] matrix that takes a frame to its
    windowed, scaled one-sided spectrum: columns 2k and 2k + 1 hold
    scale_k w_n cos(2πkn/L) and -scale_k w_n sin(2πkn/L), the real and
    imaginary parts of bin k, so a product viewed as complex128 is the
    spectrum.  The angle is reduced to kn mod L before the cosine, and the
    quarter turns are set to their exact 0 and ±1, so that the DC and
    Nyquist bins of a real frame carry exactly zero imaginary parts, as
    rfft gives them."""
    length = window.size
    turns = np.outer(np.arange(length), np.arange(scale.size)) % length
    angles = 2.0 * np.pi * turns / length
    parts = np.stack([np.cos(angles), -np.sin(angles)], axis=-1)
    quarter = 4 * turns % length == 0
    parts[quarter] = np.round(parts[quarter])
    parts *= scale[:, None]
    parts *= window[:, None, None]
    dft = parts.reshape(length, -1)
    dft.flags.writeable = False
    return dft


def analysis(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """Tight-frame analysis of [..., samples] to [..., num_bins, num_frames].

    The sample count must be a multiple of the hop and cover one window.
    Frame j starts at sample j*hop and wraps around the end, so the frames
    are one strided view of the signal extended by its first samples.  A
    short window multiplies that view by ``config.dft``; a long one takes
    its rfft.
    """
    hop = config.hop
    # the view below does not fit the buffer on any other length
    config.check_length(x.shape[-1])
    extended = np.concatenate([x, x[..., : config.window_length - hop]], axis=-1)
    step = extended.strides[-1]
    # a view on the fresh contiguous buffer, built with less call overhead
    # than as_strided
    frames = np.ndarray(
        extended.shape[:-1] + (x.shape[-1] // hop, config.window_length),
        extended.dtype,
        buffer=extended,
        strides=extended.strides[:-1] + (hop * step, step),
    )
    if config.dft is not None:
        # interleaved real and imaginary parts are complex128's layout
        spectrum = (frames @ config.dft).view(np.complex128)
    else:
        spectrum = np.fft.rfft(frames * config.window, n=config.window_length, axis=-1)
        spectrum *= config.analysis_scale
    return np.ascontiguousarray(np.swapaxes(spectrum, -1, -2))


def synthesis(values: np.ndarray, config: StftConfig) -> np.ndarray:
    """The exact adjoint of :func:`analysis`: [..., num_bins, num_frames] to
    [..., num_frames * hop]."""
    if config.dft is not None:
        # the transposed matrix on the interleaved parts; its zero rows at
        # the imaginary DC and Nyquist parts drop them, as irfft does
        parts = np.ascontiguousarray(np.swapaxes(values, -1, -2)).view(np.float64)
        frames = parts @ config.dft_adjoint
    else:
        # Adjoint of the weighted one-sided DFT. Imaginary parts at DC and
        # Nyquist do not couple to real signals; irfft ignores them.  C order
        # gives irfft contiguous frames.
        scaled = np.multiply(np.swapaxes(values, -1, -2), config.synthesis_scale, order="C")
        frames = np.fft.irfft(scaled, n=config.window_length, axis=-1)
        frames *= config.window
    hop = config.hop
    count = frames.shape[-2]
    blocks = frames.reshape(frames.shape[:-1] + (config.window_length // hop, hop))
    # Block j of frame i lands on strip (i + j) mod count.
    out = np.zeros(frames.shape[:-2] + (count, hop))
    for j in range(blocks.shape[-2]):
        out[..., j:, :] += blocks[..., : count - j, j, :]
        out[..., :j, :] += blocks[..., count - j :, j, :]
    return out.reshape(out.shape[:-2] + (count * hop,))


def circular_convolve(x: TimeSignal, h: TimeSignal) -> TimeSignal:
    """Circular convolution of x with a kernel h zero-padded to len(x)."""
    if x.sample_rate != h.sample_rate:
        raise ShapeError("sample rates differ")
    if len(h) > len(x):
        raise ShapeError(f"kernel length {len(h)} exceeds signal length {len(x)}")
    kernel = np.zeros(len(x))
    kernel[: len(h)] = h.samples
    out = np.fft.irfft(np.fft.rfft(x.samples) * np.fft.rfft(kernel), n=len(x))
    return TimeSignal(out, x.sample_rate)


def snr(estimate: TimeSignal, reference: TimeSignal) -> float:
    """Plain signal-to-noise ratio of an estimate against a reference, in dB.

    A silent estimate carries no signal at all and is reported as the
    -300 dB sentinel rather than the 0 dB a literal reading would give.
    """
    if len(estimate) != len(reference):
        raise ShapeError("signals must have equal length")
    ref = reference.samples
    est = estimate.samples
    ref_power = float(np.dot(ref, ref))
    if ref_power == 0.0:
        raise UndefinedMetricError("reference signal is identically zero")
    if not np.any(est):
        return -SNR_CAP_DB
    err = ref - est
    err_power = float(np.dot(err, err))
    if err_power == 0.0:
        return SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(ref_power / err_power), -SNR_CAP_DB, SNR_CAP_DB))


def si_snr(estimate: TimeSignal, reference: TimeSignal) -> float:
    """Scale-invariant SNR in dB, capped at +/-300 dB.

    The reference is rescaled by the projection coefficient
    alpha = <estimate, reference> / ||reference||^2 before the ratio is
    computed, so the metric ignores the estimate's overall gain.
    """
    if len(estimate) != len(reference):
        raise ShapeError("signals must have equal length")
    return si_snr_values(estimate.samples, reference.samples)


def si_snr_values(est: np.ndarray, ref: np.ndarray) -> float:
    """:func:`si_snr` on two sample vectors of equal length."""
    ref_power = float(np.dot(ref, ref))
    if ref_power == 0.0:
        raise UndefinedMetricError("reference signal is identically zero")
    alpha = float(np.dot(est, ref)) / ref_power
    target = alpha * ref
    target_power = float(np.dot(target, target))
    if target_power == 0.0:
        return -SNR_CAP_DB
    err = target - est
    err_power = float(np.dot(err, err))
    if err_power == 0.0:
        return SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(target_power / err_power), -SNR_CAP_DB, SNR_CAP_DB))


def add_noise_at_snr(signal: TimeSignal, snr_db: float, seed: int) -> TimeSignal:
    """Add white Gaussian noise scaled to hit the requested SNR exactly."""
    x = signal.samples
    if float(np.linalg.norm(x)) == 0.0:
        raise DomainError("cannot scale noise against an all-zero signal")
    noise = np.random.default_rng(seed).standard_normal(x.size)
    return TimeSignal(add_scaled_noise(x, snr_db, noise), signal.sample_rate)


def add_scaled_noise(x: np.ndarray, snr_db: float, noise: np.ndarray) -> np.ndarray:
    """``x`` plus ``noise`` scaled by ||x|| 10^(-snr_db/20) / ||noise||, so
    that the sum has an SNR of ``snr_db`` dB against ``x``."""
    scale = float(np.linalg.norm(x)) * 10.0 ** (-snr_db / 20.0) / float(np.linalg.norm(noise))
    return x + noise * scale


def read_wav(path) -> TimeSignal:
    """Read a mono WAV file (16-bit PCM or 32-bit float) as float64 in [-1, 1]."""
    import scipy.io.wavfile  # here, not at module level: only WAV I/O needs scipy.io

    try:
        rate, data = scipy.io.wavfile.read(path)
    except (ValueError, struct.error) as exc:
        # what scipy raises on a file that is not a WAV or is cut short
        raise FormatError(f"cannot read {path} as a WAV file: {exc}") from exc
    if data.ndim != 1:
        raise FormatError("only mono WAV files are supported")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"unsupported WAV sample format {data.dtype}")
    return TimeSignal(samples, rate)


def write_wav(path, signal: TimeSignal) -> None:
    """Write a mono 32-bit float WAV file."""
    # A diverged solver iterate can exceed the float32 range; the cast
    # saturating to inf is the faithful post-mortem record, so only the
    # overflow warning is suppressed.
    with np.errstate(over="ignore"):
        data = signal.samples.astype(np.float32)
    import scipy.io.wavfile

    scipy.io.wavfile.write(path, signal.sample_rate, data)
