"""Desk-scale denoiser training on a synthetic speech-like corpus.

The corpus generator produces harmonic signals with drifting fundamentals,
smooth amplitude envelopes, and occasional silent gaps; impulse responses
are exponentially decaying noise behind a unit direct-path spike.  Training
runs the Gaussian denoising task: add white noise at a random SNR, analyze,
run an amplitude-modifier architecture, synthesize, and minimize negative
time-domain SNR against the clean signal.

Gradients come from ``modifier_forward`` and ``amplitude_backward``, the
amplitude half of the VJP the bound search uses: the phase z/|z| does not
depend on the weights, so they flow through the amplitude path alone.  Synthesis is
the exact adjoint of analysis, and relu/min kinks use the zero subgradient
on their inactive side.  The plain AM wrappers are the trained objects; the
safeguarded variants reuse the same weights post hoc.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError, UndefinedMetricError
from .errors import check_field_types
from .modifier import (
    ModifierArchitecture,
    NetMap,
    amplitude_backward,
    apply_to_values,
    modifier_forward,
)
from .network import (
    IDENTITY,
    LEAKY_RELU,
    AdamState,
    ConvLayer,
    ConvNet,
    adam_step,
    circulant_operator_norm,
    project_unit_ball,
)
from .signal import StftConfig, TimeSignal, add_scaled_noise, analysis, si_snr, snr, synthesis

LOSS_EPSILON = 1e-12

# The corpus generator's fixed settings: sample rate (Hz), the range of the
# fundamental (Hz) and of the harmonic count, the chance of each of up to
# three silent gaps, and the gap ramps (attack back in, decay out), in seconds.
CORPUS_RATE = 8000
F0_RANGE = (80.0, 300.0)
HARMONIC_RANGE = (3, 8)
SILENCE_PROBABILITY = 0.3
ATTACK_SECONDS = 0.015
DECAY_SECONDS = 0.03

# Named rng streams, so corpus, validation noise, and epoch shuffles never
# alias even when drawn in a different order.
_VALIDATION_STREAM = 1
_EPOCH_STREAM = 2


# ---------------------------------------------------------------------------
# Synthetic corpus


@dataclass(frozen=True)
class SynthCorpusConfig:
    """Generative parameters for the speech-like corpus.

    Items are deterministic per ``(seed, index)`` and sampled at
    ``CORPUS_RATE``; the fundamental, the harmonic count, the gap chance and
    the gap ramps are the fixed ``F0_RANGE``, ``HARMONIC_RANGE``,
    ``SILENCE_PROBABILITY``, ``ATTACK_SECONDS`` and ``DECAY_SECONDS``.  The
    defaults give 8192 samples, which is exactly 32 analysis frames at hop
    256.  A duration must round to at least one sample.
    """

    item_count: int = 64
    duration_seconds: float = 1.024
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, ("item_count", "seed"), ("duration_seconds",))
        if self.item_count <= 0:
            raise DomainError("item_count must be positive")
        if not 0.0 < self.duration_seconds < np.inf:
            raise DomainError("duration must be positive and finite")
        if self.num_samples < 1:
            raise DomainError(
                f"duration {self.duration_seconds!r} s is under one sample at {CORPUS_RATE} Hz"
            )
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_seconds * CORPUS_RATE))


def _voiced_draw(rng: np.random.Generator, config: SynthCorpusConfig) -> np.ndarray:
    """One harmonic draw: drifting f0, 1/k harmonic falloff, smooth envelope."""
    n = config.num_samples
    rate = CORPUS_RATE
    time = np.arange(n) / rate

    f0 = rng.uniform(*F0_RANGE)
    harmonics = int(rng.integers(HARMONIC_RANGE[0], HARMONIC_RANGE[1] + 1))
    # Relative drift of 3e-4 keeps k*f0 within one FFT bin over one second.
    drift_depth = 3e-4
    drift_cycles = rng.uniform(0.1, 0.5)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi)
    instantaneous = f0 * (
        1.0
        + drift_depth
        * np.sin(2.0 * np.pi * drift_cycles * time / config.duration_seconds + drift_phase)
    )
    base_phase = 2.0 * np.pi * np.cumsum(instantaneous) / rate

    x = np.zeros(n)
    nyquist = rate / 2.0
    for k in range(1, harmonics + 1):
        if k * f0 * (1.0 + drift_depth) >= nyquist:
            break
        amplitude = rng.uniform(0.5, 1.0) / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amplitude * np.sin(k * base_phase + phase)

    # Smooth amplitude modulation from a handful of random control points.
    points = rng.uniform(0.2, 1.0, size=8)
    envelope = np.interp(np.linspace(0.0, 7.0, n), np.arange(8.0), points)
    return x * envelope


def _carve_gaps(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero out up to three gaps with linear decay/attack ramps at the edges."""
    n = x.size
    decay = max(1, int(round(DECAY_SECONDS * CORPUS_RATE)))
    attack = max(1, int(round(ATTACK_SECONDS * CORPUS_RATE)))
    mask = np.ones(n)
    for _ in range(3):
        if rng.uniform() >= SILENCE_PROBABILITY:
            continue
        gap = int(round(n * rng.uniform(0.05, 0.15)))
        start = int(rng.integers(0, max(1, n - gap)))
        mask[start : start + gap] = 0.0
        ramp_down = np.linspace(1.0, 0.0, decay)
        lo = max(0, start - decay)
        mask[lo:start] = np.minimum(mask[lo:start], ramp_down[decay - (start - lo) :])
        end = start + gap
        ramp_up = np.linspace(0.0, 1.0, attack)
        hi = min(n, end + attack)
        mask[end:hi] = np.minimum(mask[end:hi], ramp_up[: hi - end])
    return x * mask


def synth_speechlike(config: SynthCorpusConfig, index: int) -> TimeSignal:
    """Deterministic speech-like item: harmonic stack, envelope, silent gaps.

    Peak-normalized to 0.5.  Draws whose silent gaps swallow nearly the whole
    signal are rejected and redrawn from the same stream until the RMS guard
    (> 0.01) passes, so every item keeps at least one voiced stretch.
    """
    rng = np.random.default_rng([config.seed, int(index)])
    n = config.num_samples
    for attempt in range(64):
        x = _voiced_draw(rng, config)
        # After repeated rejections, drop the gaps: a gapless draw always
        # passes the guard, which bounds the loop.
        if attempt < 8:
            x = _carve_gaps(x, rng)
        peak = float(np.max(np.abs(x)))
        if peak == 0.0:
            continue
        x *= 0.5 / peak
        if float(np.sqrt(np.mean(x * x))) > 0.01:
            return TimeSignal(x, CORPUS_RATE)
    raise DomainError("corpus draw failed the RMS guard repeatedly")


def synth_rir(length: int, decay_time_seconds: float, seed: int) -> TimeSignal:
    """Synthetic room impulse response at ``CORPUS_RATE``, energy-normalized to 1.

    A unit direct-path spike at t = 0 followed by white noise shaped by the
    amplitude envelope e^(-t/tau), tau = decay_time_seconds * CORPUS_RATE.
    """
    if length <= 0:
        raise DomainError("length must be positive")
    if decay_time_seconds <= 0.0:
        raise DomainError("decay_time_seconds must be positive")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    tau = decay_time_seconds * CORPUS_RATE
    with np.errstate(under="ignore"):
        h = rng.standard_normal(length) * np.exp(-t / tau)
    h[0] = 1.0
    h /= np.linalg.norm(h)
    return TimeSignal(h, CORPUS_RATE)


# ---------------------------------------------------------------------------
# Loss


def _neg_snr_loss(est: np.ndarray, ref: np.ndarray):
    """Negative time-domain SNR of each [..., samples] estimate row and its
    analytic gradient.

    loss = -10 log10(||ref||^2 / (||ref - est||^2 + eps)), eps = 1e-12, one
    per row.  The guard keeps the loss finite at est = ref; the gradient
    returned is the exact gradient of the guarded loss.  Each row's dot is
    the same BLAS dot a lone row gets, so a row's bits do not depend on its
    batch.
    """
    ref_power = _row_dot(ref, ref)
    if np.any(ref_power == 0.0):
        raise UndefinedMetricError("negative-SNR loss is undefined for a zero reference")
    err = est - ref
    denom = _row_dot(err, err) + LOSS_EPSILON
    loss = -10.0 * np.log10(ref_power / denom)
    gradient = (20.0 / np.log(10.0)) * err / np.expand_dims(denom, -1)
    return loss, gradient


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching [..., samples] rows, one BLAS dot per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Training configuration and network construction


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the Gaussian denoising task."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-4
    snr_range: tuple = (20.0, 40.0)
    frames: int = 32
    arch: str = "re"
    lipschitz: str = "none"
    channel_width: int = 64
    kernel_size: int = 5
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self) -> None:
        check_field_types(
            self,
            ("epochs", "batch_size", "frames", "channel_width", "kernel_size", "seed"),
            ("learning_rate",),
            ("snr_range",),
        )
        if not 0 <= self.epochs <= 20:
            raise DomainError("epochs must lie in [0, 20]")
        if self.batch_size < 1:
            raise DomainError("batch_size must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise DomainError("learning_rate must be positive and finite")
        low, high = self.snr_range
        if not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise DomainError("snr_range must satisfy low <= high")
        if self.frames <= 0:
            raise DomainError("frames must be positive")
        self.stft.check_length(self.segment_samples, "segment")
        if self.arch not in ("se", "re"):
            raise DomainError("arch must be 'se' or 're'")
        if self.lipschitz not in ("none", "spectral"):
            raise DomainError("lipschitz must be 'none' or 'spectral'")
        if self.channel_width < 1:
            raise DomainError("channel_width must be at least 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise DomainError("kernel_size must be odd and positive")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        object.__setattr__(self, "snr_range", (float(low), float(high)))

    @property
    def segment_samples(self) -> int:
        return self.frames * self.stft.hop

    @property
    def modifier_kind(self) -> str:
        return "am_" + self.arch


def build_denoiser_net(config: TrainConfig) -> ConvNet:
    """Initialize the amplitude network: bins -> width -> width -> bins.

    Leaky-relu hidden layers, identity output, biases zero-initialized.  In
    spectral mode every layer is projected onto the unit operator-norm ball
    at initialization, so training starts feasible.
    """
    rng = np.random.default_rng([config.seed, 0])
    bins = config.stft.num_bins
    chain = (bins, config.channel_width, config.channel_width, bins)
    activations = (LEAKY_RELU, LEAKY_RELU, IDENTITY)
    layers = []
    for cin, cout, act in zip(chain, chain[1:], activations):
        fan_in = cin * config.kernel_size
        weights = rng.standard_normal((cout, cin, config.kernel_size)) * np.sqrt(2.0 / fan_in)
        layers.append(ConvLayer(weights, np.zeros(cout), activation=act))
    net = ConvNet(tuple(layers))
    if config.lipschitz == "spectral":
        net = project_unit_ball(net, (config.frames,))
    return net


def certify_denoiser_net(net: ConvNet, frames: int) -> ConvNet:
    """Stamp exact per-layer operator norms as certificates.

    Uses the circulant norm at the training frame count; the certificate is
    the measured norm itself, so downstream bounds stay tight.
    """
    layers = (replace(layer, norm_certificate=circulant_operator_norm(layer, (frames,)))
              for layer in net.layers)
    return ConvNet(tuple(layers), net.scale)


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainResult:
    """Outcome of a training run.

    ``net`` is the best-validation checkpoint.  ``log`` holds one row per
    evaluated epoch as dicts with keys epoch, train_loss, val_loss; epoch 0
    is the untrained net (train_loss is NaN there).  ``status`` is
    "completed" or "aborted"; an abort reports the poisoned step and still
    returns the last good checkpoint.
    """

    net: ConvNet
    arch: str
    lipschitz: str
    log: tuple
    status: str
    best_epoch: int
    best_val_loss: float
    poisoned_at: tuple | None = None

    @property
    def modifier_kind(self) -> str:
        return "am_" + self.arch


def _batch_loss_and_grads(net, kind, clean, noisy, config: TrainConfig):
    """Mean negative-SNR loss over a batch and its flat parameter gradient.

    The chain is analysis -> modifier -> synthesis -> loss.  Synthesis is the
    exact adjoint of analysis, so the coefficient gradient is the analysis of
    the time-domain gradient.  The phase z/|z| does not depend on the weights,
    so ``amplitude_backward`` carries the radial part Re(conj(grad)·z)/|z|
    to them, 0 where z = 0; the noisy coefficients are data, so no input
    gradient is formed.
    """
    arch = ModifierArchitecture(kind, NetMap(net))
    z = analysis(noisy, config.stft)
    values, cache = modifier_forward(arch, z)
    estimates = synthesis(values, config.stft)
    del values  # free each batch-sized array once it is dead

    losses, grad_time = _neg_snr_loss(estimates, clean)
    del estimates
    grad_values = analysis(grad_time / clean.shape[0], config.stft)
    del grad_time
    grad_a = grad_values.real * z.real
    grad_a += grad_values.imag * z.imag
    del grad_values, z
    np.divide(grad_a, cache.x, out=grad_a, where=cache.x > 0.0)
    grad_theta, _ = amplitude_backward(cache, grad_a, input_gradient=False)
    return float(np.mean(losses)), grad_theta


def _validation_loss(net, kind, clean, noisy, config: TrainConfig) -> float:
    arch = ModifierArchitecture(kind, NetMap(net))
    estimates = synthesis(apply_to_values(arch, analysis(noisy, config.stft)), config.stft)
    return float(np.mean(_neg_snr_loss(estimates, clean)[0]))


def _corpus_segments(corpus: SynthCorpusConfig, needed: int) -> np.ndarray:
    """The first ``needed`` samples of every item, skipping silent segments.

    A segment that falls wholly inside a silent gap has no defined SNR, so
    it can serve neither as a training target nor as a validation reference.
    """
    items = []
    for i in range(corpus.item_count):
        samples = synth_speechlike(corpus, i).samples
        if samples.size < needed:
            raise ShapeError(
                f"corpus items are {samples.size} samples but training needs {needed}"
            )
        if np.any(samples[:needed]):
            items.append(samples[:needed])
    if len(items) < 2:
        raise DomainError("training needs at least two corpus items with a non-silent segment")
    return np.stack(items)


def train_denoiser(train_config: TrainConfig, corpus_config: SynthCorpusConfig) -> TrainResult:
    """Train an amplitude-modifier denoiser on the Gaussian denoising task.

    Items whose training segment is silent are skipped.  10% of the rest (at
    least one item) is held out with fixed validation noise; the returned
    checkpoint minimizes validation loss over epoch 0 (untrained) and every
    completed epoch.  A blow-up anywhere in an epoch, in a step's loss,
    gradient, update, rebuild or projection or in the epoch's validation
    pass, aborts the run at that step (the epoch's last step for the
    validation pass) and returns the best checkpoint seen so far.  Identical
    configurations reproduce bitwise-identical results.
    """
    needed = train_config.segment_samples
    items = _corpus_segments(corpus_config, needed)

    val_count = max(1, int(round(0.1 * items.shape[0])))
    val_clean = items[:val_count]
    train_clean = items[val_count:]

    low, high = train_config.snr_range
    rng_val = np.random.default_rng([train_config.seed, _VALIDATION_STREAM])
    val_noisy = np.stack(
        [
            add_scaled_noise(row, rng_val.uniform(low, high), rng_val.standard_normal(needed))
            for row in val_clean
        ]
    )

    net = build_denoiser_net(train_config)
    kind = train_config.modifier_kind
    theta = net.flatten_parameters()
    state = AdamState.init(theta, learning_rate=train_config.learning_rate)

    val0 = _validation_loss(net, kind, val_clean, val_noisy, train_config)
    log = [{"epoch": 0, "train_loss": float("nan"), "val_loss": val0}]
    best_net, best_epoch, best_val = net, 0, val0
    status = "completed"
    poisoned_at = None

    for epoch in range(1, train_config.epochs + 1):
        rng_epoch = np.random.default_rng([train_config.seed, _EPOCH_STREAM, epoch])
        order = rng_epoch.permutation(train_clean.shape[0])
        epoch_losses = []
        try:
            # Blow-ups surface as exceptions, not as numpy warnings: from the
            # loss check below, adam_step's gradient check, the rebuilt
            # layers' finiteness checks, the projection's eigensolver and
            # the validation pass's amplitude check.
            with np.errstate(all="ignore"):
                for step, start in enumerate(range(0, order.size, train_config.batch_size)):
                    chosen = order[start : start + train_config.batch_size]
                    clean = train_clean[chosen]
                    snrs = rng_epoch.uniform(low, high, size=chosen.size)
                    noise = rng_epoch.standard_normal(clean.shape)
                    noisy = np.stack(
                        [add_scaled_noise(c, s, n) for c, s, n in zip(clean, snrs, noise)]
                    )
                    loss, grad = _batch_loss_and_grads(net, kind, clean, noisy, train_config)
                    if not np.isfinite(loss):
                        raise NonFiniteError("training loss is not finite")
                    theta, state = adam_step(theta, grad, state)
                    net = net.with_parameters(theta)
                    if train_config.lipschitz == "spectral":
                        net = project_unit_ball(net, (train_config.frames,))
                        theta = net.flatten_parameters()
                    epoch_losses.append(loss)
                val = _validation_loss(net, kind, val_clean, val_noisy, train_config)
        except (NonFiniteError, np.linalg.LinAlgError):
            status = "aborted"
            poisoned_at = (epoch, step)
            break
        log.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_loss": val}
        )
        if val < best_val:
            best_net, best_epoch, best_val = net, epoch, val

    if train_config.lipschitz == "spectral":
        best_net = certify_denoiser_net(best_net, train_config.frames)
    return TrainResult(
        net=best_net,
        arch=train_config.arch,
        lipschitz=train_config.lipschitz,
        log=tuple(log),
        status=status,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        poisoned_at=poisoned_at,
    )


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_denoiser(
    arch: ModifierArchitecture,
    items,
    snr_levels,
    stft_config: StftConfig,
    seed: int = 0,
):
    """Mean output SNR and SI-SNR per input-SNR level.

    Noise draws are deterministic per (seed, level index, item index).
    Returns one dict per level with keys input_snr_db, mean_snr_db,
    mean_si_snr_db.
    """
    items = list(items)
    if not items:
        raise DomainError("evaluation needs at least one item")
    levels = [float(s) for s in snr_levels]
    if not levels:
        raise DomainError("evaluation needs at least one SNR level")
    rows = []
    for level_index, level in enumerate(levels):
        snrs = []
        si_snrs = []
        for item_index, clean in enumerate(items):
            noise = np.random.default_rng([seed, level_index, item_index]).standard_normal(
                len(clean)
            )
            noisy = add_scaled_noise(clean.samples, level, noise)
            denoised = apply_to_values(arch, analysis(noisy, stft_config))
            estimate = TimeSignal(synthesis(denoised, stft_config), clean.sample_rate)
            snrs.append(snr(estimate, clean))
            si_snrs.append(si_snr(estimate, clean))
        rows.append(
            {
                "input_snr_db": level,
                "mean_snr_db": float(np.mean(snrs)),
                "mean_si_snr_db": float(np.mean(si_snrs)),
            }
        )
    return rows
