"""Slow reference implementations the test suites compare the package against.

None of these run in production: each is a deliberately direct version of a
quantity the package computes faster, or a set-up helper that only tests
need.
"""

import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from lipsam.errors import DomainError, NonFiniteError, ShapeError
from lipsam.lipschitz import FD_EPSILON, TrialRecord, _objective
from lipsam.modifier import (
    ModifierArchitecture,
    amplitude_backward,
    amplitude_forward,
    amplitude_jacobian,
    apply_to_values,
    modifier_forward,
)
from lipsam.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ConvLayer,
    _phase_table,
    circulant_operator_norm,
)
from lipsam.pnp import AdmmOperators, Observation, admm_operators, initial_state
from lipsam.signal import (
    StftConfig,
    add_noise_at_snr,
    analysis,
    circular_convolve,
    si_snr_values,
    synthesis,
)
from lipsam.trainer import (
    LOSS_EPSILON,
    SynthCorpusConfig,
    TrainConfig,
    synth_rir,
    synth_speechlike,
    train_denoiser,
)


def realify(values: np.ndarray, lead: int = 0) -> np.ndarray:
    """Flatten a complex array into interleaved (Re, Im, ...) real vectors,
    keeping its first ``lead`` axes in front."""
    values = np.asarray(values, dtype=np.complex128)
    flat = values.reshape(values.shape[:lead] + (-1,))
    out = np.empty(flat.shape[:-1] + (2 * flat.shape[-1],))
    out[..., 0::2] = flat.real
    out[..., 1::2] = flat.imag
    return out


def unrealify(vector: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of ``realify`` for the given complex shape; leading axes of
    ``vector`` stay in front of ``shape``."""
    vector = np.asarray(vector, dtype=np.float64)
    size = 2 * int(np.prod(shape, dtype=np.int64))
    if vector.shape[-1:] != (size,):
        raise ShapeError(f"expected a real vector of length {size}, got {vector.shape}")
    return (vector[..., 0::2] + 1j * vector[..., 1::2]).reshape(vector.shape[:-1] + tuple(shape))


def jacobian_fd(fn: Callable, point: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a real vector map at ``point``.

    ``fn`` maps 1-D real vectors to real arrays; the result has one column
    per input coordinate.  Non-finite map values raise NonFiniteError.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.ndim != 1:
        raise ShapeError("jacobian_fd expects a 1-D point")
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    columns = []
    for j in range(point.size):
        hi = point.copy()
        hi[j] += epsilon
        lo = point.copy()
        lo[j] -= epsilon
        diff = np.asarray(fn(hi), dtype=np.float64) - np.asarray(fn(lo), dtype=np.float64)
        columns.append(diff.reshape(-1) / (2.0 * epsilon))
    jac = np.stack(columns, axis=1) if columns else np.zeros((0, 0))
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("jacobian contains non-finite entries")
    return jac


def polar_jacobian(arch: ModifierArchitecture, z: np.ndarray) -> np.ndarray:
    """The full [2n, 2n] realified Jacobian of the modifier at one complex
    point ``z`` of n coefficients, assembled from its polar parts as
    R J_A Rᵀ + T diag(A / x) Tᵀ.

    Column i of R is coefficient i's realified sign s_i and column i of T
    is i s_i, so a coefficient at exactly 0 contributes no column and its
    0/0 ratio is never formed.
    """
    z = np.asarray(z, dtype=np.complex128)
    _, cache = modifier_forward(arch, z[None])
    x, a = cache.x.reshape(-1), cache.a.reshape(-1)
    s = np.divide(z.reshape(-1), x, out=np.zeros_like(z.reshape(-1)), where=x > 0.0)
    radial = np.zeros((2 * s.size, s.size))
    tangential = np.zeros_like(radial)
    radial[0::2], radial[1::2] = np.diag(s.real), np.diag(s.imag)
    tangential[0::2], tangential[1::2] = np.diag(-s.imag), np.diag(s.real)
    ratio = np.divide(a, x, out=np.zeros_like(a), where=x > 0.0)
    jac = radial @ amplitude_jacobian(cache)[0] @ radial.T + (tangential * ratio) @ tangential.T
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("jacobian contains non-finite entries")
    return jac


def objective_fd_gradient(family, theta: np.ndarray, x: np.ndarray, h: float):
    """Central differences of the search objective itself at the magnitudes
    |x|, one evaluation pair per input coordinate and per parameter.

    Every perturbed point is one trial of a stacked objective evaluation.
    Returns (x part, flat theta part) like the production ascent gradient,
    or (None, None) when an evaluation is non-finite.
    """
    count = x.size + theta.size
    points = np.concatenate([x.reshape(-1), theta])
    points = points + h * np.concatenate([np.eye(count), -np.eye(count)])
    thetas = np.ascontiguousarray(points[:, x.size :])
    magnitudes = np.abs(points[:, : x.size]).reshape((-1,) + x.shape)
    sigma = _objective(family, thetas, magnitudes)[0]
    if not np.all(np.isfinite(sigma)):
        return None, None
    grad_flat = (sigma[:count] - sigma[count:]) / (2.0 * h)
    return grad_flat[: x.size].reshape(x.shape), grad_flat[x.size :]


# ---------------------------------------------------------------------------
# the bound search one trial at a time


def objective(family, theta: np.ndarray, x: np.ndarray):
    """(sigma, u, v, term) at one point of magnitudes, or (nan, None, None,
    -1) if sick: the production objective on a batch of this one trial."""
    sigma, u, v, term = _objective(family, theta[None], x[None])
    if not np.isfinite(sigma[0]):
        return float("nan"), None, None, -1
    return sigma[0], u[0], v[0], term[0]


def ascent_gradient(family, theta, x, u, v, term, eps):
    """Ascent direction of one trial, x part plus flat theta part: the
    secant surrogate differentiated one secant point at a time, or, when
    ratio ``term`` wins, the gradient of A_i / x_i at x."""
    if term >= 0:
        weight = np.zeros(x.shape)
        weight.reshape(-1)[term] = 1.0 / x.reshape(-1)[term]
        passes = [(x, weight)]
    else:
        weight = u / (2.0 * eps)
        passes = [(x + eps * v, weight), (x - eps * v, -weight)]
    grad_x = np.zeros(x.shape)
    grad_t = np.zeros(family.parameter_count)
    arch = family.build(theta)
    for point, weight in passes:
        a, cache = amplitude_forward(arch, np.abs(point))
        grad_theta, gx = amplitude_backward(cache, weight)
        grad_x += gx * np.sign(point)
        if grad_t.size and grad_theta is not None:
            grad_t += grad_theta
    if term >= 0:
        grad_x.reshape(-1)[term] -= a.reshape(-1)[term] / x.reshape(-1)[term] ** 2
    return grad_x, grad_t


def run_trial(family, config, trial: int):
    """One ``estimate_B`` restart on its own, with the same draws, steps and
    verdicts: returns (TrialRecord, x, theta).  ``wall_time`` is this
    trial's own run time."""
    start = time.perf_counter()
    rng = np.random.default_rng([config.seed, trial])
    shape = family.input_shape
    evaluations = backtracks = 0
    for _ in range(20):
        theta = family.sample_parameters(rng)
        if family.project is not None:
            theta = family.project(theta)
        x = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        sigma, u, v, term = objective(family, theta, x)
        evaluations += 1
        if np.isfinite(sigma) and sigma > 1e-9:
            break
    if not np.isfinite(sigma):
        record = TrialRecord(
            trial, float("nan"), 0, False, time.perf_counter() - start, evaluations, 0
        )
        return record, x, theta
    iterations = 0
    early = sigma > config.termination_threshold
    step = config.step_size
    while not early and iterations < config.max_iterations:
        iterations += 1
        grad_x, grad_t = ascent_gradient(family, theta, x, u, v, term, FD_EPSILON)
        if not (np.all(np.isfinite(grad_x)) and np.all(np.isfinite(grad_t))):
            break
        norm = np.sqrt(np.sum(grad_x**2) + np.sum(grad_t**2))
        if norm == 0.0:
            break
        accepted = False
        while step >= 1e-12:
            x_new = np.abs(x + (step / norm) * grad_x)
            theta_new = theta + (step / norm) * grad_t
            if family.project is not None:
                theta_new = family.project(theta_new)
            sigma_new, u_new, v_new, term_new = objective(family, theta_new, x_new)
            evaluations += 1
            if np.isfinite(sigma_new) and sigma_new > sigma:
                x, theta, sigma, u, v, term = x_new, theta_new, sigma_new, u_new, v_new, term_new
                accepted = True
                step *= 2.0
                break
            backtracks += 1
            step *= 0.5
        if not accepted:
            break
        if sigma > config.termination_threshold:
            early = True
    record = TrialRecord(
        trial, float(sigma), iterations, bool(early), time.perf_counter() - start,
        evaluations, backtracks,
    )
    return record, x, theta


def roll_stft(x: np.ndarray, config) -> np.ndarray:
    """Analysis of one signal with the frames gathered by ``np.roll``:
    [samples] to [num_bins, num_frames]."""
    hop = config.hop
    strips = x.reshape(-1, hop)
    blocks = [np.roll(strips, -j, axis=0) for j in range(config.window_length // hop)]
    frames = np.concatenate(blocks, axis=1) * config.window
    spectrum = np.fft.rfft(frames, n=config.window_length, axis=1)
    weights = np.full(config.num_bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    return (spectrum * (weights / np.sqrt(config.window_length))).T


def roll_istft(values: np.ndarray, config) -> np.ndarray:
    """Synthesis of one coefficient matrix, overlap-adding each window block
    with ``np.roll``: [num_bins, num_frames] to [samples]."""
    weights = np.full(config.num_bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    scaled = (values.T * (np.sqrt(config.window_length) / weights)).copy()
    scaled[:, 0] = scaled[:, 0].real
    scaled[:, -1] = scaled[:, -1].real
    frames = np.fft.irfft(scaled, n=config.window_length, axis=1) * config.window
    hop = config.hop
    out = np.zeros((values.shape[1], hop))
    for j in range(config.window_length // hop):
        out += np.roll(frames[:, j * hop : (j + 1) * hop], j, axis=0)
    return out.reshape(-1)


def full_spectrum_operator_norm(layer: ConvLayer, input_shape: tuple):
    """``circulant_operator_norm`` from every frequency's transfer matrix:
    a full ``fftn`` and one SVD per frequency, conjugate pairs included."""
    w = layer.weights
    lead = int(layer.stacked)
    kernel_shape = w.shape[2 + lead :]
    kernel = np.zeros(w.shape[: 2 + lead] + tuple(input_shape))
    for offset in np.ndindex(*kernel_shape):
        tap = tuple((d - k // 2) % size for d, k, size in zip(offset, kernel_shape, input_shape))
        kernel[(..., *tap)] += w[(..., *offset)]
    transfer = np.fft.fftn(kernel, axes=tuple(range(2 + lead, w.ndim)))
    blocks = np.moveaxis(transfer, (lead, lead + 1), (-2, -1))
    blocks = blocks.reshape(w.shape[:lead] + (-1,) + w.shape[lead : lead + 2])
    norms = np.max(np.linalg.svd(blocks, compute_uv=False), axis=(-2, -1))
    return norms if layer.stacked else float(norms)


def eigvalsh_operator_norm(layer: ConvLayer, input_shape: tuple):
    """``circulant_operator_norm`` with every Gram through ``eigvalsh``, the
    1×1 ones included."""
    w = layer.weights
    lead = int(layer.stacked)
    kernel_shape = w.shape[2 + lead :]
    w = w.swapaxes(lead, lead + 1) if w.shape[lead] > w.shape[lead + 1] else w
    trials, (m, c), taps = w.shape[:lead], w.shape[lead : lead + 2], int(np.prod(kernel_shape))
    stack = np.moveaxis(w.reshape(trials + (m, c, taps)), -1, lead).reshape(trials + (-1, c))
    products = (stack @ stack.swapaxes(-1, -2)).reshape(trials + (taps, m, taps, m))
    products = products.swapaxes(-3, -2).reshape(trials + (taps * taps, m * m))
    re, im = np.split(_phase_table(kernel_shape, tuple(input_shape)) @ products, 2, axis=-2)
    top = np.linalg.eigvalsh((re + 1j * im).reshape(trials + (-1, m, m)))[..., -1]
    norms = np.sqrt(np.maximum(np.max(top, axis=-1), 0.0))
    return norms if layer.stacked else float(norms)


def certify_layer(layer: ConvLayer, input_shape: tuple, target: float = 1.0) -> ConvLayer:
    """Rescale ``layer`` to operator norm ``target`` on ``input_shape`` and
    stamp ``target`` as its certificate.

    The 1e-12 relative margin keeps the true norm at or below the
    certificate despite rounding.  A zero layer keeps its weights and gets a
    zero certificate.
    """
    norm = circulant_operator_norm(layer, input_shape)
    if norm == 0.0:
        return replace(layer, norm_certificate=0.0)
    return ConvLayer(
        layer.weights * (target / (norm * (1.0 + 1e-12))),
        layer.bias,
        activation=layer.activation,
        norm_certificate=float(target),
    )


def rewrite_member(path, name: str, value) -> None:
    """Store ``value`` as member ``name`` of the ``save_net`` archive at
    ``path``, keeping the other members, so that only the value checks in
    ``load_net`` can reject it.  ``np.savez`` writes fresh CRCs."""
    with np.load(path, allow_pickle=False) as archive:
        members = dict(archive)
    members[name] = value
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def saved_form(net) -> tuple:
    """What a weight file records of ``net``, comparable with ``==``: the
    flat parameter bytes, the scale, and each layer's shape, activation and
    certificate."""
    layers = [(layer.weights.shape, layer.activation, layer.norm_certificate) for layer in net.layers]
    return net.flatten_parameters().tobytes(), net.scale, layers


@dataclass(frozen=True)
class Assumption1Report:
    """Outcome of sampling the two amplitude-map conditions.

    cond2 is the elementwise sandwich 0 <= A(x)_n <= L2 * x_n; cond1_empirical_L
    is a sampled lower bound on the Lipschitz constant of A (it can only
    undershoot the true constant).
    """

    cond2_holds: bool
    worst_ratio: float
    cond1_empirical_L: float
    witness: np.ndarray | None


def check_assumption1(
    arch: ModifierArchitecture,
    L2: float,
    sample_count: int = 200,
    seed: int = 0,
    shape: tuple = (16,),
    scale: float = 3.0,
) -> Assumption1Report:
    """Sample magnitudes and test the sandwich condition against L2.

    Samples include exact zeros, where the condition degenerates to
    A(x)_n == 0; any positive output at a zero coordinate is an instant
    failure with an infinite worst ratio.
    """
    if L2 < 0.0:
        raise DomainError("L2 must be nonnegative")
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    witness = None
    cond2 = True
    empirical = 0.0
    for _ in range(sample_count):
        x = scale * np.abs(rng.standard_normal(shape))
        x[rng.random(shape) < 0.2] = 0.0
        a = amplitude_forward(arch, x)[0]
        zero_mask = x == 0.0
        if np.any(a[zero_mask] != 0.0):
            return Assumption1Report(False, np.inf, empirical, x)
        positive = ~zero_mask
        if np.any(positive):
            with np.errstate(divide="ignore"):
                ratios = a[positive] / (L2 * x[positive]) if L2 > 0.0 else np.where(
                    a[positive] > 0.0, np.inf, 0.0
                )
            local = float(np.max(ratios)) if ratios.size else 0.0
            if local > worst_ratio:
                worst_ratio = local
                witness = x
            if np.any(a < -0.0) or local > 1.0:
                cond2 = False
        y = scale * np.abs(rng.standard_normal(shape))
        denom = float(np.linalg.norm(x - y))
        if denom > 1e-12:
            gap = amplitude_forward(arch, x)[0] - amplitude_forward(arch, y)[0]
            quotient = float(np.linalg.norm(gap) / denom)
            empirical = max(empirical, quotient)
    return Assumption1Report(cond2, worst_ratio, empirical, witness)


# ---------------------------------------------------------------------------
# the standard dereverberation instance and its quickly trained denoiser


def quick_train(arch, lipschitz, seed=0):
    """A width-16, k = 5 denoiser net trained for 2 epochs at the 64/32 STFT."""
    config = TrainConfig(
        epochs=2,
        batch_size=8,
        learning_rate=1e-2,
        frames=4,
        arch=arch,
        lipschitz=lipschitz,
        channel_width=16,
        kernel_size=5,
        seed=seed,
        stft=StftConfig(window_length=64, hop=32),
    )
    corpus = SynthCorpusConfig(item_count=64, duration_seconds=0.128, seed=seed)
    result = train_denoiser(config, corpus)
    assert result.status == "completed"
    return result.net


def standard_instance():
    """(clean, observation): a 4096-sample speech-like item behind a
    512-tap impulse response with 0.02 s decay, at 30 dB SNR."""
    corpus = SynthCorpusConfig(item_count=1, duration_seconds=0.512, seed=0)
    clean = synth_speechlike(corpus, 0)
    rir = synth_rir(512, 0.02, seed=1)
    observed = add_noise_at_snr(circular_convolve(clean, rir), 30.0, seed=2)
    return clean, Observation(observed, rir)


# ---------------------------------------------------------------------------
# the ADMM iteration in the time domain


@dataclass(frozen=True, eq=False)
class TimeDomainState:
    """The five ADMM variables with u and xi1 in the time domain: x, u, xi1
    of shape [samples]; v, xi2 of shape [num_bins, num_frames]."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray


def time_domain_admm_iteration(
    state: TimeDomainState, ops: AdmmOperators, denoiser: ModifierArchitecture, lam: float
) -> TimeDomainState:
    """One ADMM iteration with u and xi1 in the time domain: rfft(u - xi1)
    and irfft(Hx) beside the STFT pair, six FFTs."""
    n = ops.y.size
    rhs = np.fft.rfft(state.u - state.xi1) * np.conj(ops.h_spectrum) + np.fft.rfft(
        synthesis(state.v - state.xi2, ops.stft)
    )
    x_spectrum = rhs * ops.inverse_filter
    x = np.fft.irfft(x_spectrum, n=n)
    hx = np.fft.irfft(x_spectrum * ops.h_spectrum, n=n)
    gx = analysis(x, ops.stft)
    u = (lam / (1.0 + lam)) * (hx + state.xi1 - ops.y) + ops.y
    v = apply_to_values(denoiser, gx + state.xi2)
    return TimeDomainState(x=x, u=u, v=v, xi1=state.xi1 + hx - u, xi2=state.xi2 + gx - v)


def time_domain_admm_run(observation, denoiser, config, reference):
    """``pnp.run`` on :func:`time_domain_admm_iteration`: returns (x_hat
    samples, delta_x, SI-SNR trace, status, diverged_at)."""
    ops = admm_operators(observation, config.stft)
    start = initial_state(ops)
    state = TimeDomainState(start.x, ops.y, start.v, np.zeros_like(ops.y), start.xi2)
    delta_x, si_snr_trace = [], []
    status, diverged_at = "completed", None
    with np.errstate(all="ignore"):
        for k in range(1, config.max_iterations + 1):
            try:
                new = time_domain_admm_iteration(state, ops, denoiser, config.lam)
            except NonFiniteError:
                new = None
            if new is None or not (np.all(np.isfinite(new.xi1)) and np.all(np.isfinite(new.xi2))):
                status, diverged_at = "diverged", k
                break
            delta_x.append(float(np.linalg.norm(new.x - state.x)))
            state = new
            si_snr_trace.append(si_snr_values(state.x, reference.samples))
    return state.x, np.asarray(delta_x), np.asarray(si_snr_trace), status, diverged_at


# ---------------------------------------------------------------------------
# the negative-SNR loss one row at a time


def neg_snr_loss_row(est: np.ndarray, ref: np.ndarray):
    """(loss, gradient) of one 1-D estimate, each row dot a plain ``np.dot``."""
    err = est - ref
    denom = float(np.dot(err, err)) + LOSS_EPSILON
    loss = -10.0 * np.log10(float(np.dot(ref, ref)) / denom)
    return float(loss), (20.0 / np.log(10.0)) * err / denom


# ---------------------------------------------------------------------------
# Adam one parameter array at a time


@dataclass(frozen=True)
class ReferenceAdamState:
    """Per-array Adam moments for :func:`reference_adam_step`."""

    first_moment: tuple
    second_moment: tuple
    step_count: int
    learning_rate: float

    @classmethod
    def init(cls, params, learning_rate: float) -> "ReferenceAdamState":
        zeros = tuple(np.zeros_like(p) for p in params)
        return cls(zeros, zeros, 0, float(learning_rate))


def reference_adam_step(params, grads, state: ReferenceAdamState):
    """One bias-corrected Adam update of a list of parameter arrays, one
    array at a time; returns (new params, new state)."""
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment, strict=True):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(state, first_moment=tuple(new_m), second_moment=tuple(new_v),
                               step_count=t)


# ---------------------------------------------------------------------------
# runs at a given BLAS thread count


def output_at_blas_threads(code: str, threads: int) -> str:
    """What ``code`` prints when run in a fresh interpreter whose BLAS is
    held to ``threads`` threads, with ``src`` and ``tests`` importable.  The
    thread count is read when numpy loads, so it takes a new process."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
