"""Amplitude modifiers: phase-preserving nonlinear maps on complex spectra.

An amplitude modifier rewrites the magnitude of every coefficient while
keeping its phase: D(z) = A(|z|) * sign(z), with the complex sign defined as
z/|z| and 0 at 0.  The effective amplitude map A is assembled from an inner
map (a network or an analytic rule) in one of four ways:

    am_se       relu(S(x))                spectral estimation, unguarded
    am_re       relu(x - R(x))            residual estimation, unguarded
    lipsam_se   relu(min(S(x), x))        spectral estimation, safeguarded
    lipsam_re   relu(x - relu(R(x)))      residual estimation, safeguarded

The safeguarded forms force 0 <= A(x) <= x elementwise, which is what turns
an inner Lipschitz certificate into a certificate for the whole modifier:
sqrt(c^2 + 1) for the safeguarded spectral form and c + 1 for the
safeguarded residual form, where c bounds the inner map.  The unguarded
forms admit no finite bound at all; see the counterexamples in
:mod:`lipsam.lipschitz`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NonFiniteError,
    ShapeError,
    UnboundedModifierError,
    UncertifiedError,
)
from .network import ConvNet, backward as net_backward, forward as net_forward
from .network import lipschitz_upper_bound
from .signal import Spectrogram

KINDS = ("am_se", "am_re", "lipsam_se", "lipsam_re")
SPECTRAL_KINDS = ("am_se", "lipsam_se")
SAFEGUARDED_KINDS = ("lipsam_se", "lipsam_re")


class AmplitudeMap:
    """Interface: maps a nonnegative magnitude array to a real array."""

    lipschitz_bound: float | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(AmplitudeMap):
    lipschitz_bound = 1.0

    def __call__(self, x):
        return x


@dataclass(frozen=True)
class ZeroMap(AmplitudeMap):
    lipschitz_bound = 0.0

    def __call__(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class BiasAdd(AmplitudeMap):
    """x + b. Lipschitz with constant 1, but violates A(0) = 0 for b != 0."""

    b: float = 1.0
    lipschitz_bound = 1.0

    def __call__(self, x):
        return x + self.b


@dataclass(frozen=True)
class SoftThreshConstant(AmplitudeMap):
    """The constant map x -> tau. As the residual of a safeguarded
    residual-estimation modifier it realizes magnitude soft thresholding."""

    tau: float = 0.1
    lipschitz_bound = 0.0

    def __post_init__(self):
        if self.tau < 0.0 or not np.isfinite(self.tau):
            raise DomainError("threshold must be finite and nonnegative")

    def __call__(self, x):
        return np.full_like(x, self.tau)


@dataclass(frozen=True, eq=False)
class PermutationMap(AmplitudeMap):
    """Reorders the flattened coefficients of each sample. Lipschitz 1."""

    perm: np.ndarray = None
    lipschitz_bound = 1.0

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise DomainError("perm must be a bijection on 0..n-1")
        object.__setattr__(self, "perm", perm)

    def __call__(self, x):
        n = self.perm.size
        if x.size % n != 0:
            raise ShapeError(f"input size {x.size} is not a multiple of {n}")
        flat = x.reshape(-1, n)
        return flat[:, self.perm].reshape(x.shape)


@dataclass(frozen=True, eq=False)
class NetMap(AmplitudeMap):
    """A convolutional network as the inner amplitude map.

    1-D nets consume the magnitude matrix directly (frequency bins are the
    channel axis).  2-D nets see a single-channel image, so ``__call__``
    inserts and removes the channel axis around the network.
    """

    net: ConvNet = None

    def __post_init__(self):
        if not isinstance(self.net, ConvNet):
            raise ShapeError("NetMap wraps a ConvNet")
        if self.net.is_2d and (self.net.in_channels != 1 or self.net.out_channels != 1):
            raise ShapeError("2-D inner nets must map one channel to one channel")

    @property
    def lipschitz_bound(self):
        try:
            return lipschitz_upper_bound(self.net)
        except UncertifiedError:
            return None

    def __call__(self, x):
        out, _ = self._forward(x)
        return out

    def _forward(self, x):
        if self.net.is_2d:
            out, cache = net_forward(self.net, np.expand_dims(x, -3))
            return np.squeeze(out, -3), cache
        out, cache = net_forward(self.net, x)
        return out, cache

    def _backward(self, cache, grad):
        if self.net.is_2d:
            grads, gx = net_backward(self.net, cache, np.expand_dims(grad, -3))
            return grads, np.squeeze(gx, -3)
        return net_backward(self.net, cache, grad)


@dataclass(frozen=True)
class ModifierArchitecture:
    """An architecture kind plus its inner amplitude map."""

    kind: str
    inner: AmplitudeMap

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.inner, AmplitudeMap):
            raise ShapeError("inner must implement AmplitudeMap")

    @property
    def is_safeguarded(self) -> bool:
        return self.kind in SAFEGUARDED_KINDS


def complex_sign(z: np.ndarray) -> np.ndarray:
    """z / |z| elementwise, with sign(0) = 0."""
    z = np.asarray(z, dtype=np.complex128)
    magnitude = np.abs(z)
    out = np.zeros_like(z)
    nonzero = magnitude > 0.0
    np.divide(z, magnitude, out=out, where=nonzero)
    return out


def amplitude_part(arch: ModifierArchitecture, x: np.ndarray) -> np.ndarray:
    """The effective amplitude map A(x) of the architecture on magnitudes x."""
    a, _ = _amplitude_with_cache(arch, x)
    return a


@dataclass
class ApplyCache:
    """Everything the amplitude backward pass needs."""

    arch: ModifierArchitecture
    x: np.ndarray
    inner_out: np.ndarray
    net_cache: object


def _amplitude_with_cache(arch: ModifierArchitecture, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise DomainError("amplitude maps are defined on nonnegative inputs")
    inner = arch.inner
    if isinstance(inner, NetMap):
        inner_out, net_cache = inner._forward(x)
    else:
        inner_out, net_cache = inner(x), None
    if arch.kind == "am_se":
        a = np.maximum(inner_out, 0.0)
    elif arch.kind == "lipsam_se":
        a = np.maximum(np.minimum(inner_out, x), 0.0)
    elif arch.kind == "am_re":
        a = np.maximum(x - inner_out, 0.0)
    else:  # lipsam_re
        a = np.maximum(x - np.maximum(inner_out, 0.0), 0.0)
    return a, ApplyCache(arch, x, inner_out, net_cache)


def _inner_input_vjp(inner: AmplitudeMap, grad: np.ndarray, cache: ApplyCache):
    """Gradient through the inner map: returns (net param grads or None, dx)."""
    if isinstance(inner, NetMap):
        return inner._backward(cache.net_cache, grad)
    if isinstance(inner, (IdentityMap, BiasAdd)):
        return None, grad
    if isinstance(inner, (ZeroMap, SoftThreshConstant)):
        return None, np.zeros_like(grad)
    if isinstance(inner, PermutationMap):
        n = inner.perm.size
        flat = grad.reshape(-1, n)
        out = np.zeros_like(flat)
        out[:, inner.perm] = flat
        return None, out.reshape(grad.shape)
    raise ShapeError(f"no gradient rule for inner map {type(inner).__name__}")


def amplitude_backward(arch: ModifierArchitecture, cache: ApplyCache, grad_a: np.ndarray):
    """Backpropagate through the amplitude path A.

    Given d(loss)/dA, returns (inner-net parameter gradients or None,
    d(loss)/dx) where x is the magnitude input.  Kinks (relu and the
    safeguard min) use the zero subgradient on their inactive side and route
    ties to the safeguard branch, matching the forward tie-breaking of
    np.minimum/np.maximum.
    """
    x, inner_out = cache.x, cache.inner_out
    if arch.kind == "am_se":
        mask = (inner_out > 0.0).astype(np.float64)
        param_grads, dx_inner = _inner_input_vjp(arch.inner, grad_a * mask, cache)
        return param_grads, dx_inner
    if arch.kind == "lipsam_se":
        clipped = np.minimum(inner_out, x)
        relu_mask = (clipped > 0.0).astype(np.float64)
        take_inner = (inner_out < x).astype(np.float64)
        g = grad_a * relu_mask
        param_grads, dx_inner = _inner_input_vjp(arch.inner, g * take_inner, cache)
        return param_grads, dx_inner + g * (1.0 - take_inner)
    if arch.kind == "am_re":
        mask = ((x - inner_out) > 0.0).astype(np.float64)
        g = grad_a * mask
        param_grads, dx_inner = _inner_input_vjp(arch.inner, -g, cache)
        return param_grads, g + dx_inner
    # lipsam_re
    rect = np.maximum(inner_out, 0.0)
    mask = ((x - rect) > 0.0).astype(np.float64)
    inner_mask = (inner_out > 0.0).astype(np.float64)
    g = grad_a * mask
    param_grads, dx_inner = _inner_input_vjp(arch.inner, -g * inner_mask, cache)
    return param_grads, g + dx_inner


def apply_to_values(arch: ModifierArchitecture, values: np.ndarray) -> np.ndarray:
    """Apply the modifier to a complex coefficient array of any shape."""
    values = np.asarray(values, dtype=np.complex128)
    magnitude = np.abs(values)
    amplitude = amplitude_part(arch, magnitude)
    if not np.all(np.isfinite(amplitude)):
        raise NonFiniteError("inner amplitude map produced non-finite values")
    return amplitude * complex_sign(values)


def apply(arch: ModifierArchitecture, spec: Spectrogram) -> Spectrogram:
    """Apply the modifier to a spectrogram, preserving its configuration."""
    return Spectrogram(apply_to_values(arch, spec.values), spec.config)


def theoretical_bound(arch: ModifierArchitecture) -> float:
    """Certified Lipschitz bound of a safeguarded modifier.

    sqrt(c^2 + 1) for lipsam_se and c + 1 for lipsam_re, where c is the
    inner map's certified bound.  Unguarded architectures have no finite
    bound and raise UnboundedModifierError.
    """
    if not arch.is_safeguarded:
        raise UnboundedModifierError(
            f"{arch.kind} admits no finite Lipschitz bound; use a safeguarded kind"
        )
    inner_bound = arch.inner.lipschitz_bound
    if inner_bound is None:
        raise UncertifiedError("inner map carries no Lipschitz certificate")
    if arch.kind == "lipsam_se":
        return float(np.sqrt(inner_bound**2 + 1.0))
    return float(inner_bound + 1.0)


# ------------------------------------------------------------ configuration

_ANALYTIC_BUILDERS = {
    "identity": lambda cfg: IdentityMap(),
    "zero": lambda cfg: ZeroMap(),
    "bias_add": lambda cfg: BiasAdd(float(cfg["b"])),
    "soft_thresh": lambda cfg: SoftThreshConstant(float(cfg["tau"])),
    "permutation": lambda cfg: PermutationMap(np.asarray(cfg["perm"], dtype=np.int64)),
}


def architecture_to_config(arch: ModifierArchitecture, net_file: str | None = None) -> dict:
    """JSON-ready description of an architecture; nets go by file reference."""
    inner = arch.inner
    if isinstance(inner, NetMap):
        if net_file is None:
            raise ValueError("serializing a net-backed modifier needs a net_file path")
        inner_cfg = {"variant": "net", "file": str(net_file)}
    elif isinstance(inner, SoftThreshConstant):
        inner_cfg = {"variant": "soft_thresh", "tau": inner.tau}
    elif isinstance(inner, BiasAdd):
        inner_cfg = {"variant": "bias_add", "b": inner.b}
    elif isinstance(inner, PermutationMap):
        inner_cfg = {"variant": "permutation", "perm": inner.perm.tolist()}
    elif isinstance(inner, IdentityMap):
        inner_cfg = {"variant": "identity"}
    elif isinstance(inner, ZeroMap):
        inner_cfg = {"variant": "zero"}
    else:
        raise ValueError(f"cannot serialize inner map {type(inner).__name__}")
    return {"kind": arch.kind, "inner": inner_cfg}


def architecture_from_config(config: dict, base_dir=".") -> ModifierArchitecture:
    """Rebuild an architecture from :func:`architecture_to_config` output."""
    from pathlib import Path

    from .network import load_net

    kind = config.get("kind")
    inner_cfg = config.get("inner", {})
    variant = inner_cfg.get("variant")
    if variant == "net":
        net_path = Path(base_dir) / inner_cfg["file"]
        inner = NetMap(load_net(net_path))
    elif variant in _ANALYTIC_BUILDERS:
        inner = _ANALYTIC_BUILDERS[variant](inner_cfg)
    else:
        raise DomainError(f"unknown inner map variant {variant!r}")
    return ModifierArchitecture(kind, inner)
