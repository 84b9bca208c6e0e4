"""Amplitude modifiers: phase-preserving nonlinear maps on complex spectra.

An amplitude modifier rewrites the magnitude of every coefficient while
keeping its phase: D(z) = A(|z|) z/|z|, with the phase z/|z| taken as 0 at
0, so that D(0) = 0 for a finite A and NaN for a non-finite one.  The
effective amplitude map A is assembled from an inner map (a network or an
analytic rule) in one of four ways:

    am_se       relu(S(x))                spectral estimation, unguarded
    am_re       relu(x - R(x))            residual estimation, unguarded
    lipsam_se   relu(min(S(x), x))        spectral estimation, safeguarded
    lipsam_re   relu(x - relu(R(x)))      residual estimation, safeguarded

The safeguarded forms force 0 <= A(x) <= x elementwise, which is what turns
an inner Lipschitz certificate into a certificate for the whole modifier:
sqrt(c^2 + 1) for the safeguarded spectral form and c + 1 for the
safeguarded residual form, where c bounds the inner map (``safeguard_bound``).
The unguarded forms admit no finite bound at all; see the counterexamples in
:mod:`lipsam.lipschitz`.

Every inner map owns its rules: ``forward`` returns its output and a cache,
``backward`` turns an output gradient into (flat parameter gradient, input
gradient), ``parameter_gradient`` gives the first of the two alone, ``jvp``
pushes input tangents through the map, and ``variant`` names its JSON form,
whose fields are the map's dataclass fields.
``modifier_forward`` is the forward pass of D itself; training holds the
phase fixed and passes the radial part Re(conj(g)·z)/|z| of a coefficient
gradient g to ``amplitude_backward``.  ``apply_to_values`` and the solver
run D through the inner map's cache-free pass instead.  The
bound search works on magnitudes alone, through ``amplitude_forward``,
``amplitude_backward`` and ``amplitude_jacobian``, the exact Jacobian of A,
which shares its kink rules with ``amplitude_backward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    NonFiniteError,
    ShapeError,
    UnboundedModifierError,
    UncertifiedError,
)
from .network import ConvNet, backward as net_backward, forward as net_forward, jvp as net_jvp
from .network import _apply as net_apply, lipschitz_upper_bound, load_net

KINDS = ("am_se", "am_re", "lipsam_se", "lipsam_re")
SAFEGUARDED_KINDS = ("lipsam_se", "lipsam_re")


class AmplitudeMap:
    """Interface: maps a nonnegative magnitude array to a real array.

    Subclasses implement ``__call__``.  A differentiable map overrides
    ``forward``/``backward`` and ``jvp``; a serializable one sets ``variant``.
    """

    lipschitz_bound: float | None = None
    variant: str | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, x):
        """(output, cache for ``backward``)."""
        return self(x), None

    def _infer(self, x, out):
        """``self(x)`` with no cache, in ``out`` where the map can write
        there (a net) and otherwise in a fresh array."""
        return self(x)

    def backward(self, cache, grad):
        """(flat parameter gradient or None, input gradient) from the output gradient."""
        raise ShapeError(f"no gradient rule for inner map {type(self).__name__}")

    def parameter_gradient(self, cache, grad):
        """``backward``'s parameter gradient alone; a map may skip forming
        the input gradient here."""
        return self.backward(cache, grad)[0]

    def jvp(self, cache, tangents):
        """Output tangents from input tangents at the cached point.  For an
        input [*batch, *sample], ``tangents`` is [*batch, k, *sample]."""
        raise ShapeError(f"no Jacobian rule for inner map {type(self).__name__}")

    def to_config(self, net_file: str | None = None) -> dict:
        if self.variant is None:
            raise ValueError(f"cannot serialize inner map {type(self).__name__}")
        values = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
        return {"variant": self.variant, **values}

    @classmethod
    def from_config(cls, config: dict, base_dir) -> "AmplitudeMap":
        return cls(**{f.name: config[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class IdentityMap(AmplitudeMap):
    lipschitz_bound = 1.0
    variant = "identity"

    def __call__(self, x):
        return x

    def backward(self, cache, grad):
        return None, grad

    def jvp(self, cache, tangents):
        return tangents


@dataclass(frozen=True)
class ZeroMap(AmplitudeMap):
    lipschitz_bound = 0.0
    variant = "zero"

    def __call__(self, x):
        return np.zeros_like(x)

    def backward(self, cache, grad):
        return None, np.zeros_like(grad)

    def jvp(self, cache, tangents):
        return np.zeros_like(tangents)


@dataclass(frozen=True)
class BiasAdd(AmplitudeMap):
    """x + b. Lipschitz with constant 1, but violates A(0) = 0 for b != 0."""

    b: float = 1.0
    lipschitz_bound = 1.0
    variant = "bias_add"

    def __post_init__(self):
        b = float(self.b)
        if not np.isfinite(b):
            raise DomainError("bias must be finite")
        object.__setattr__(self, "b", b)

    def __call__(self, x):
        return x + self.b

    def backward(self, cache, grad):
        return None, grad

    def jvp(self, cache, tangents):
        return tangents


@dataclass(frozen=True)
class SoftThreshConstant(AmplitudeMap):
    """The constant map x -> tau. As the residual of a safeguarded
    residual-estimation modifier it realizes magnitude soft thresholding."""

    tau: float = 0.1
    lipschitz_bound = 0.0
    variant = "soft_thresh"

    def __post_init__(self):
        tau = float(self.tau)
        if not 0.0 <= tau < np.inf:
            raise DomainError("threshold must be finite and nonnegative")
        object.__setattr__(self, "tau", tau)

    def __call__(self, x):
        return np.full_like(x, self.tau)

    def backward(self, cache, grad):
        return None, np.zeros_like(grad)

    def jvp(self, cache, tangents):
        return np.zeros_like(tangents)


@dataclass(frozen=True, eq=False)
class PermutationMap(AmplitudeMap):
    """Reorders the flattened coefficients of each sample. Lipschitz 1."""

    perm: np.ndarray = None
    lipschitz_bound = 1.0
    variant = "permutation"

    def __post_init__(self):
        perm = np.asarray(self.perm)
        integral = perm.dtype.kind in "iu" and perm.ndim == 1 and perm.size > 0
        if not (integral and np.array_equal(np.sort(perm), np.arange(perm.size))):
            raise DomainError("perm must be a bijection on 0..n-1")
        object.__setattr__(self, "perm", perm.astype(np.int64))

    def __call__(self, x):
        n = self.perm.size
        if x.size % n != 0:
            raise ShapeError(f"input size {x.size} is not a multiple of {n}")
        flat = x.reshape(-1, n)
        return flat[:, self.perm].reshape(x.shape)

    def backward(self, cache, grad):
        flat = grad.reshape(-1, self.perm.size)
        out = np.zeros_like(flat)
        out[:, self.perm] = flat
        return None, out.reshape(grad.shape)

    def jvp(self, cache, tangents):
        return self(tangents)


@dataclass(frozen=True, eq=False)
class NetMap(AmplitudeMap):
    """A convolutional network as the inner amplitude map.

    1-D nets consume the magnitude matrix directly (frequency bins are the
    channel axis).  2-D nets see a single-channel image, so ``forward``
    inserts and removes the channel axis around the network.  In JSON the
    net goes by file reference.
    """

    net: ConvNet = None
    variant = "net"

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
        return self.forward(x)[0]

    def forward(self, x):
        if self.net.is_2d:
            out, cache = net_forward(self.net, np.expand_dims(x, -3))
            return np.squeeze(out, -3), cache
        return net_forward(self.net, x)

    def _infer(self, x, out):
        if self.net.is_2d:
            net_apply(self.net, np.expand_dims(x, -3), np.expand_dims(out, -3))
        else:
            net_apply(self.net, x, out)
        return out

    def backward(self, cache, grad):
        if self.net.is_2d:
            grad_theta, gx = net_backward(cache, np.expand_dims(grad, -3))
            return grad_theta, np.squeeze(gx, -3)
        return net_backward(cache, grad)

    def parameter_gradient(self, cache, grad):
        if self.net.is_2d:
            grad = np.expand_dims(grad, -3)
        return net_backward(cache, grad, input_gradient=False)[0]

    def jvp(self, cache, tangents):
        if self.net.is_2d:
            return np.squeeze(net_jvp(cache, np.expand_dims(tangents, -3)), -3)
        return net_jvp(cache, tangents)

    def to_config(self, net_file: str | None = None) -> dict:
        if net_file is None:
            raise ValueError("serializing a net-backed modifier needs a net_file path")
        return {"variant": self.variant, "file": str(net_file)}

    @classmethod
    def from_config(cls, config: dict, base_dir) -> "NetMap":
        return cls(load_net(Path(base_dir) / config["file"]))


_VARIANTS = {
    cls.variant: cls
    for cls in (IdentityMap, ZeroMap, BiasAdd, SoftThreshConstant, PermutationMap, NetMap)
}


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
        # (shape, |z|, A) of the last :func:`_denoise` call
        object.__setattr__(self, "_scratch", (None, None, None))

    @property
    def is_safeguarded(self) -> bool:
        return self.kind in SAFEGUARDED_KINDS


@dataclass
class ModifierCache:
    """What the backward passes need."""

    arch: ModifierArchitecture
    x: np.ndarray
    inner_out: np.ndarray
    inner_cache: object
    a: np.ndarray


def amplitude_forward(arch: ModifierArchitecture, x: np.ndarray):
    """The effective amplitude map A(x) on magnitudes x, plus its cache."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise DomainError("amplitude maps are defined on nonnegative inputs")
    return _amplitude_forward(arch, x)


def _amplitude_forward(arch: ModifierArchitecture, x: np.ndarray):
    """``amplitude_forward`` on a float64 ``x`` known to be nonnegative."""
    inner_out, inner_cache = arch.inner.forward(x)
    a = _amplitude(arch.kind, x, inner_out, None)
    return a, ModifierCache(arch, x, inner_out, inner_cache, a)


def _amplitude(kind: str, x: np.ndarray, inner_out: np.ndarray, out: np.ndarray | None):
    """A(x) from the inner map's output, written into ``out`` (a fresh
    array if None), which may be ``inner_out`` itself."""
    if kind == "am_se":
        return np.maximum(inner_out, 0.0, out=out)
    if kind == "lipsam_se":
        a = np.minimum(inner_out, x, out=out)
    elif kind == "am_re":
        a = np.subtract(x, inner_out, out=out)
    else:  # lipsam_re
        a = np.maximum(inner_out, 0.0, out=out)
        np.subtract(x, a, out=a)
    return np.maximum(a, 0.0, out=a)


def _kink_masks(cache: ModifierCache):
    """The derivative of A as masks: dA/dx = sign * diag(through) J + diag(direct)
    with J the inner map's Jacobian.

    Returns (through, direct, sign): boolean arrays shaped like x, with
    ``direct`` None for am_se, which passes no part of x straight through,
    and ``sign`` -1 for the residual kinds.  Kinks (relu and the safeguard
    min) use the zero subgradient on their inactive side and route ties to
    the safeguard branch, matching the forward tie-breaking of
    np.minimum/np.maximum.
    """
    kind, x, inner_out = cache.arch.kind, cache.x, cache.inner_out
    if kind == "am_se":
        return inner_out > 0.0, None, 1.0
    if kind == "lipsam_se":
        active = np.minimum(inner_out, x) > 0.0
        take_inner = inner_out < x
        return active & take_inner, active & ~take_inner, 1.0
    if kind == "am_re":
        active = (x - inner_out) > 0.0
        return active, active, -1.0
    # lipsam_re
    active = (x - np.maximum(inner_out, 0.0)) > 0.0
    return active & (inner_out > 0.0), active, -1.0


def amplitude_backward(cache: ModifierCache, grad_a: np.ndarray, input_gradient: bool = True):
    """Backpropagate through the amplitude path A.

    Given d(loss)/dA, returns (the inner map's flat parameter gradient or None,
    d(loss)/dx) where x is the magnitude input, under the kink rules of
    ``_kink_masks``.  With ``input_gradient`` False, d(loss)/dx is not formed
    and comes back as None.
    """
    through, direct, sign = _kink_masks(cache)
    # float * bool masks give the same bits as float * 0.0/1.0 copies
    g = grad_a * through
    g = g if sign > 0 else -g
    if not input_gradient:
        return cache.arch.inner.parameter_gradient(cache.inner_cache, g), None
    grad_theta, grad_x = cache.arch.inner.backward(cache.inner_cache, g)
    if direct is not None:
        grad_x = grad_x + grad_a * direct
    return grad_theta, grad_x


def amplitude_jacobian(cache: ModifierCache) -> np.ndarray:
    """The exact Jacobians dA/dx at a stack of cached magnitudes.

    x is [trials, *sample] with n magnitudes per sample, and the result is
    [trials, n, n], outputs along the rows.  The n unit tangents of every
    trial go through the inner map's ``jvp`` in one pass; the kink rules
    are ``amplitude_backward``'s, so for any g the product J_Aᵀ g is its
    input gradient.
    """
    trials, sample = cache.x.shape[0], cache.x.shape[1:]
    n = math.prod(sample)
    through, direct, sign = _kink_masks(cache)
    eye = np.eye(n).reshape((n,) + sample)
    columns = cache.arch.inner.jvp(cache.inner_cache, np.broadcast_to(eye, (trials,) + eye.shape))
    jac = np.swapaxes(columns.reshape(trials, n, n), 1, 2) * (sign * through).reshape(trials, n, 1)
    if direct is not None:
        diagonal = np.arange(n)
        jac[:, diagonal, diagonal] += direct.reshape(trials, n)
    return jac


def modifier_forward(arch: ModifierArchitecture, z: np.ndarray):
    """D(z) = A(|z|) z/|z| on a complex array of any shape, plus its cache
    (:func:`_phase_times`).  Unlike ``apply_to_values`` it does not check
    that A is finite."""
    z = np.asarray(z, dtype=np.complex128)
    x = np.abs(z)
    # |z| is nonnegative, so the public entry's domain check is skipped
    a, cache = _amplitude_forward(arch, x)
    return _phase_times(z, np.maximum(x, _SMALLEST), a, np.empty_like(z)), cache


# the smallest positive float64: max(|z|, it) is |z| wherever z != 0
_SMALLEST = np.nextafter(0.0, 1.0)


def _phase_times(z: np.ndarray, divisor: np.ndarray, a: np.ndarray, out: np.ndarray):
    """A (z/|z|) into the complex ``out``, from the amplitudes ``a`` and
    ``divisor`` = max(|z|, ``_SMALLEST``).

    The phase divides the real and imaginary parts of z apart, so no
    complex division runs, and is 0/divisor = 0 at z = 0: D(0) = 0·A is 0
    for a finite A and NaN for a non-finite one.  Neither part of the
    phase exceeds 1 in magnitude, so D is finite wherever A is, which a
    ratio A/|z| would not be where it overflows.
    """
    np.divide(z.real, divisor, out=out.real)
    np.divide(z.imag, divisor, out=out.imag)
    return np.multiply(out, a, out=out)


def _denoise(arch: ModifierArchitecture, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """D(z) into ``out`` with :func:`modifier_forward`'s bits, for a
    complex128 ``z``, through the inner map's cache-free pass.  |z| and A
    live in scratch that ``arch`` keeps for the last shape of ``z``, which
    makes concurrent calls on one ``arch`` unsafe.  Returns A."""
    if arch._scratch[0] != z.shape:
        object.__setattr__(arch, "_scratch", (z.shape, np.empty(z.shape), np.empty(z.shape)))
    _, x, a = arch._scratch
    np.abs(z, out=x)
    _amplitude(arch.kind, x, arch.inner._infer(x, a), a)
    _phase_times(z, np.maximum(x, _SMALLEST, out=x), a, out)
    return a


def apply_to_values(arch: ModifierArchitecture, values: np.ndarray) -> np.ndarray:
    """Apply the modifier to a complex coefficient array of any shape."""
    z = np.asarray(values, dtype=np.complex128)
    out = np.empty_like(z)
    if not np.all(np.isfinite(_denoise(arch, z, out))):
        raise NonFiniteError("inner amplitude map produced non-finite values")
    return out


def safeguard_bound(kind: str, inner_bound: float) -> float:
    """Lipschitz bound of a safeguarded kind around a c-Lipschitz inner map:
    sqrt(c^2 + 1) for lipsam_se and c + 1 for lipsam_re."""
    if kind == "lipsam_se":
        return float(np.sqrt(inner_bound**2 + 1.0))
    return float(inner_bound + 1.0)


def theoretical_bound(arch: ModifierArchitecture) -> float:
    """Certified Lipschitz bound of a safeguarded modifier: ``safeguard_bound``
    of the inner certificate.  Unguarded kinds raise UnboundedModifierError."""
    if not arch.is_safeguarded:
        raise UnboundedModifierError(
            f"{arch.kind} admits no finite Lipschitz bound; use a safeguarded kind"
        )
    inner_bound = arch.inner.lipschitz_bound
    if inner_bound is None:
        raise UncertifiedError("inner map carries no Lipschitz certificate")
    return safeguard_bound(arch.kind, inner_bound)


# ------------------------------------------------------------ configuration


def architecture_to_config(arch: ModifierArchitecture, net_file: str | None = None) -> dict:
    """JSON-ready description of an architecture; nets go by file reference."""
    return {"kind": arch.kind, "inner": arch.inner.to_config(net_file)}


def architecture_from_config(config: dict, base_dir=".") -> ModifierArchitecture:
    """Rebuild an architecture from :func:`architecture_to_config` output; a
    missing field raises KeyError and any other malformed one DomainError."""
    inner_cfg = config.get("inner", {})
    variant = inner_cfg.get("variant") if isinstance(inner_cfg, dict) else None
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise DomainError(f"unknown inner map variant {variant!r}")
    try:
        inner = _VARIANTS[variant].from_config(inner_cfg, base_dir)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {variant} inner map: {exc}") from exc
    return ModifierArchitecture(config.get("kind"), inner)
