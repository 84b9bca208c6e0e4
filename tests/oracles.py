"""Slow reference implementations the test suites compare the package against.

None of these run in production: each is a deliberately direct version of a
quantity the package computes faster, or a set-up helper that only tests
need.
"""

import struct
import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lipsam.errors import DomainError, NonFiniteError, ShapeError
from lipsam.lipschitz import _objective, realify, unrealify
from lipsam.modifier import ModifierArchitecture, amplitude_forward
from lipsam.network import ConvLayer, circulant_operator_norm


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


def objective_fd_gradient(family, theta: np.ndarray, z: np.ndarray, h: float):
    """Central differences of the search objective itself, one evaluation
    pair per realified input coordinate and per parameter.

    Returns (complex z part, flat theta part) like the production ascent
    gradient, or (None, None) when an evaluation is non-finite.
    """
    shape = family.input_shape
    zr = realify(z)
    grad_flat = np.zeros(zr.size + theta.size)
    for j in range(grad_flat.size):
        point = np.concatenate([zr, theta])
        point[j] += h
        hi, _, _ = _objective(family, point[zr.size :], unrealify(point[: zr.size], shape), h)
        point[j] -= 2.0 * h
        lo, _, _ = _objective(family, point[zr.size :], unrealify(point[: zr.size], shape), h)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            return None, None
        grad_flat[j] = (hi - lo) / (2.0 * h)
    return unrealify(grad_flat[: zr.size], shape), grad_flat[zr.size :]


def roll_stft(x: np.ndarray, config) -> np.ndarray:
    """Analysis of one signal with the frames gathered by ``np.roll``:
    [samples] to [num_bins, num_frames]."""
    hop = config.hop
    strips = x.reshape(-1, hop)
    blocks = [np.roll(strips, -j, axis=0) for j in range(config.window_length // hop)]
    frames = np.concatenate(blocks, axis=1) * config.window
    spectrum = np.fft.rfft(frames, n=config.fft_length, axis=1)
    weights = np.full(config.num_bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    return (spectrum * (weights / np.sqrt(config.fft_length))).T


def roll_istft(values: np.ndarray, config) -> np.ndarray:
    """Synthesis of one coefficient matrix, overlap-adding each window block
    with ``np.roll``: [num_bins, num_frames] to [samples]."""
    weights = np.full(config.num_bins, np.sqrt(2.0))
    weights[0] = weights[-1] = 1.0
    scaled = (values.T * (np.sqrt(config.fft_length) / weights)).copy()
    scaled[:, 0] = scaled[:, 0].real
    scaled[:, -1] = scaled[:, -1].real
    frames = np.fft.irfft(scaled, n=config.fft_length, axis=1) * config.window
    hop = config.hop
    out = np.zeros((values.shape[1], hop))
    for j in range(config.window_length // hop):
        out += np.roll(frames[:, j * hop : (j + 1) * hop], j, axis=0)
    return out.reshape(-1)


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


def rewrite_first_layer_header(blob: bytes, slope=None, certificate=None, shape=None) -> bytes:
    """A ``save_weights`` blob whose first layer stores a different activation
    slope, norm certificate and/or weight shape (same rank), re-checksummed so
    that only the value checks in ``load_weights`` can reject it.
    """
    # blob: magic (8) + version (4) | payload | crc32 (4); the payload opens
    # with scale <d and layer count <I, then the first header <BBdBBd and
    # its shape, one <I per dim
    payload = bytearray(blob[12:-4])
    if slope is not None:
        struct.pack_into("<d", payload, 14, slope)
    if certificate is not None:
        struct.pack_into("<Bd", payload, 23, 1, certificate)
    if shape is not None:
        struct.pack_into(f"<{len(shape)}I", payload, 32, *shape)
    return blob[:12] + bytes(payload) + struct.pack("<I", zlib.crc32(payload))


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
