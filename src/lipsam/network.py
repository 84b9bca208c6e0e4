"""Small convolutional networks with hand-rolled forward/backward passes.

Layers convolve circularly with centered kernels, in one spatial dimension
(channels x width, used for spectrogram magnitudes with frequency bins as
channels) or two (channels x height x width, used for small image-like
inputs).  Every array op broadcasts over leading batch axes.  The forward
map, its adjoint and the weight gradient take one of two rank-generic forms,
chosen from the shapes alone.  A grid with fewer cells than twice the
kernel's taps (the bound search's 4x4 patches, a net trained at 4 frames)
goes through the layer's dense doubly-block-circulant matrix
[out·cells, in·cells] (Sedghi et al. 2019), built from the weights and a
cached 0/1 tap table.  Each sample row is its own matmul: BLAS may give a
row different bits depending on how many rows share one GEMM, and the bound
search must reproduce a trial batched with others bit for bit.  Any
larger grid (training at 32 frames, the solver at 128) is lowered to im2col
columns (Chellapilla et al. 2006): one strided view of the wrap-extended
input, copied once into [in·taps, cells], and one GEMM per sample with the
[out, in·taps] weights, with fewer flops than the dense matrix.  A net
derives each layer's operand for a grid (the dense matrix or the weight
rows) and its broadcast bias on its first pass over that grid and keeps
them.  ``forward``, ``jvp`` and the adjoint in ``backward`` all start from
them, so the three passes at one point build each operator once.  Inference
that needs no backward pass (the solver's denoiser) takes ``forward``'s
arithmetic without its cache, on buffers the net keeps for the last input
shape (``_apply``).

A stacked layer or net (``stacked=True``) holds one layer or net per search
trial: its weights carry a leading trial axis, [trials, out, in, *kernel],
and the inputs it maps carry the same leading axis.  The flag is explicit
because the rank of the weights cannot tell a stacked 1-D layer from a 2-D
one.  A stacked net computes, slice by slice, exactly what each trial's own
net computes, so a search can advance all its trials in one batch.  Besides
the forward pass and its backward pass, ``jvp`` pushes tangents through the
linearized net, which is how the bound search takes exact Jacobians.

The linear part of each layer can carry a norm certificate: an upper bound
on its operator norm for a fixed input geometry (``circulant_operator_norm``).
At frequency ω a layer with tap matrices W_s at offsets τ_s acts as
B(ω) = Σ_s W_s e^{-iω·τ_s}, whose squared norm is the top eigenvalue of the
Gram B Bᴴ = Σ_{s,t} W_s W_tᵀ e^{-iω·(τ_s-τ_t)}, or of Bᴴ B if that side is
smaller; real weights make B(-ω) conjugate to B(ω), so half the spectrum
suffices.  Certificates multiply through activations (all 1-Lipschitz here)
and the output scale into a certified bound for the whole network.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NonFiniteError, ShapeError, UncertifiedError


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity applied after a layer's affine map."""

    kind: str
    slope: float = 0.1

    _KINDS = ("identity", "leaky_relu", "softplus")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")
        if not np.isfinite(self.slope):
            raise NonFiniteError("activation slope must be finite")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self._into(v, None)

    def _into(self, v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``self(v)`` written into ``out`` (a fresh array if None); the
        identity returns ``v`` itself."""
        if self.kind == "identity":
            return v
        if self.kind == "leaky_relu":
            scaled = np.multiply(v, self.slope, out=out)
            if 0.0 < self.slope <= 1.0:
                # for such a slope, v >= slope * v exactly when v >= 0, so
                # this picks the masked form's bits, signed zeros,
                # infinities and NaN included (slope 0 would turn +inf to NaN)
                return np.maximum(v, scaled, out=scaled)
            np.copyto(scaled, v, where=v > 0.0)
            return scaled
        return np.logaddexp(0.0, v, out=out)

    def derivative(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.ones_like(v)
        if self.kind == "leaky_relu":
            return np.where(v > 0.0, 1.0, self.slope)
        # the logistic function 1 / (1 + exp(-v)), in place; for v < -709
        # exp(-v) overflows to inf and the quotient is the exact 0
        s = np.negative(v)
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += 1.0
        return np.divide(1.0, s, out=s)

    @property
    def lipschitz(self) -> float:
        if self.kind == "leaky_relu":
            return max(1.0, abs(self.slope))
        return 1.0


IDENTITY = Activation("identity")
LEAKY_RELU = Activation("leaky_relu", 0.1)
SOFTPLUS = Activation("softplus")


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """Circular convolution plus optional bias and an activation.

    ``weights`` has shape [out_channels, in_channels, *kernel] with one
    kernel dim for 1-D layers or two for 2-D layers; each kernel dim is odd
    (centered, same-size circular padding) and may differ from the others
    or exceed the input size.  A stacked layer puts a trial axis in front
    of ``weights`` and ``bias``.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    activation: Activation = LEAKY_RELU
    norm_certificate: float | None = None
    stacked: bool = False

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        lead = int(self.stacked)
        if weights.ndim - lead not in (3, 4):
            raise ShapeError("weights must be [out, in, k] or [out, in, k1, k2]")
        if 0 in weights.shape[lead : lead + 2]:
            raise ShapeError("a layer needs at least one input and one output channel")
        if any(k % 2 == 0 for k in weights.shape[2 + lead :]):
            raise ShapeError("kernel sizes must be odd (centered circular padding)")
        if not np.all(np.isfinite(weights)):
            raise NonFiniteError("layer weights must be finite")
        object.__setattr__(self, "weights", weights)
        if self.bias is not None:
            bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
            if bias.shape != weights.shape[: lead + 1]:
                raise ShapeError("bias must have one entry per output channel")
            if not np.all(np.isfinite(bias)):
                raise NonFiniteError("layer bias must be finite")
            object.__setattr__(self, "bias", bias)
        if self.norm_certificate is not None:
            if not np.isfinite(self.norm_certificate):
                raise NonFiniteError("norm certificate must be finite")
            if self.norm_certificate < 0.0:
                raise ValueError("norm certificate must be nonnegative")

    @property
    def is_2d(self) -> bool:
        return self.weights.ndim - int(self.stacked) == 4

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1 + int(self.stacked)]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[int(self.stacked)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _dense_form(kernel_shape: tuple, sizes: tuple) -> bool:
    """Whether a layer maps this grid through its dense operator.

    Below twice as many cells as taps the dense [out·P, in·P] product does
    fewer than twice the flops of the column GEMM and makes one BLAS call
    per row, without the wrap extension and the column copy of in·taps
    rows.
    """
    return math.prod(sizes) < 2 * math.prod(kernel_shape)


@functools.lru_cache(maxsize=16)
def _tap_table(kernel_shape: tuple, sizes: tuple) -> np.ndarray:
    """Read-only [taps, P·P] 0/1 table on a grid of P cells: entry
    (s, p·P + q) is 1 when tap s carries input cell q to output cell p, i.e.
    q = p + s - kernel_shape // 2 circularly on every axis."""
    n, cells, taps = len(sizes), math.prod(sizes), math.prod(kernel_shape)
    centre = np.array(kernel_shape).reshape(n, 1, 1) // 2
    offsets = np.indices(kernel_shape).reshape(n, -1, 1) - centre
    cells_in = (np.indices(sizes).reshape(n, 1, -1) + offsets) % np.array(sizes).reshape(n, 1, 1)
    sources = np.ravel_multi_index(cells_in, sizes)  # [taps, P]: q for each (s, p)
    table = np.zeros((taps, cells, cells))
    table[np.arange(taps)[:, None], np.arange(cells), sources] = 1.0
    return _read_only(table.reshape(taps, -1))


@functools.lru_cache(maxsize=32)
def _wrap_index(k: int, size: int) -> np.ndarray:
    """Read-only indices that extend an axis of ``size`` cells by k // 2
    wrapped cells on each side, as a centred kernel of k taps reads it."""
    return _read_only(np.arange(-(k // 2), size + k // 2) % size)


def _columns(x: np.ndarray, kernel_shape: tuple, channel_axis: int) -> np.ndarray:
    """im2col: the [..., in·taps, rest] column matrix of ``x``.

    Row (c, s) holds channel c of ``x`` shifted by tap s, read circularly on
    the trailing spatial axes; the row order matches
    ``weights.reshape(out, in·taps)``.  Every axis after ``channel_axis`` is
    merged into the columns, the spatial axes last, and the axes before it
    stay in front.  The input is wrap-extended once per spatial axis and the
    columns are a strided view of that extension, so the final reshape is
    the only copy of input size times taps.
    """
    n = len(kernel_shape)
    c = channel_axis % x.ndim
    ext = x
    for axis, k in zip(range(x.ndim - n, x.ndim), kernel_shape):
        ext = np.take(ext, _wrap_index(k, x.shape[axis]), axis=axis)
    view = _tap_view(ext, x.shape, kernel_shape, c)
    return view.reshape(x.shape[:c] + (x.shape[c] * math.prod(kernel_shape), -1))


def _tap_view(ext: np.ndarray, shape: tuple, kernel_shape: tuple, c: int) -> np.ndarray:
    """The [..., in, *kernel, *rest] view of the contiguous wrap extension
    ``ext`` of an input of ``shape`` whose channel axis is ``c``: tap s of
    channel i reads that channel shifted by s."""
    n = len(kernel_shape)
    # built with less call overhead than as_strided
    return np.ndarray(
        ext.shape[: c + 1] + kernel_shape + shape[c + 1 :],
        ext.dtype,
        buffer=ext,
        strides=ext.strides[: c + 1] + ext.strides[-n:] + ext.strides[c + 1 :],
    )


def _dense_operator(weights: np.ndarray, sizes: tuple, lead: int) -> np.ndarray:
    """The layer's [out·P, in·P] doubly-block-circulant matrix on a grid of
    P cells, with a leading trial axis if ``lead``; one product of the
    [out·in, taps] weights with the tap table."""
    trials, (out, inp) = weights.shape[:lead], weights.shape[lead : lead + 2]
    cells = math.prod(sizes)
    op = weights.reshape(trials + (out * inp, -1)) @ _tap_table(weights.shape[2 + lead :], sizes)
    op = op.reshape(trials + (out, inp, cells, cells)).swapaxes(-3, -2)
    return op.reshape(trials + (out * cells, inp * cells))


def _linear_operand(weights: np.ndarray, sizes: tuple, lead: int) -> np.ndarray:
    """What :func:`_apply_linear` multiplies a layer's input by on a grid of
    ``sizes``: on a dense-form grid the transposed dense operator
    [*trials, in·P, out·P], on any other the [*trials, out, in·taps] weight
    rows that multiply the im2col columns."""
    if _dense_form(weights.shape[2 + lead :], sizes):
        return _dense_operator(weights, sizes, lead).swapaxes(-1, -2)
    return weights.reshape(weights.shape[: lead + 1] + (-1,))


def _adjoint_operand(weights: np.ndarray, operand: np.ndarray, sizes: tuple, lead: int):
    """The :func:`_apply_linear` operand of the adjoint of the layer whose
    :func:`_linear_operand` on ``sizes`` is ``operand``: on a dense-form grid
    the dense operator, copied into the layout ``operand`` has; on any other
    the rows of the flipped, channel-swapped kernel, whose correlation is
    the adjoint of the odd, centred kernel's."""
    if _dense_form(weights.shape[2 + lead :], sizes):
        return np.ascontiguousarray(operand).swapaxes(-1, -2)
    flipped = np.flip(weights, tuple(range(2 + lead, weights.ndim))).swapaxes(lead, lead + 1)
    return flipped.reshape(flipped.shape[: lead + 1] + (-1,))


def _over_batch(array: np.ndarray, lead: int, batch: int) -> np.ndarray:
    """``array`` with ``batch`` unit axes after its ``lead`` trial axes, so
    that a trial's slice broadcasts over that trial's samples."""
    return array.reshape(array.shape[:lead] + (1,) * batch + array.shape[lead:])


def _apply_linear(
    operand: np.ndarray, kernel_shape: tuple, x: np.ndarray, lead: int
) -> np.ndarray:
    """The linear part of a layer from its :func:`_linear_operand` on x's
    grid, or its adjoint from its :func:`_adjoint_operand`; x may carry
    leading batch axes after ``lead`` trial axes.  Each sample is its own
    matmul, so its bits do not depend on how many samples share the call."""
    n = len(kernel_shape)
    sizes = x.shape[-n:]
    operand = _over_batch(operand, lead, x.ndim - n - 1 - lead)
    if _dense_form(kernel_shape, sizes):
        out = x.reshape(x.shape[: -n - 1] + (1, -1)) @ operand
        return out.reshape(x.shape[: -n - 1] + (-1,) + sizes)
    out = operand @ _columns(x, kernel_shape, -n - 1)
    return out.reshape(out.shape[:-1] + sizes)


def _flatten(arrays: list, lead: tuple) -> np.ndarray:
    """Concatenate per-parameter arrays, each [*lead, ...], into [*lead, P]."""
    return np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)


@dataclass(frozen=True, eq=False)
class ConvNet:
    """A stack of ConvLayers with a scalar output scale."""

    layers: tuple
    scale: float = 1.0

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("a network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_channels != b.in_channels or a.is_2d != b.is_2d:
                raise ShapeError("consecutive layers disagree on channels or rank")
            if a.weights.shape[: int(a.stacked)] != b.weights.shape[: int(b.stacked)]:
                raise ShapeError("consecutive layers disagree on the trial stack")
        if not np.isfinite(self.scale):
            raise NonFiniteError("scale must be finite")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "_operands", {})
        # (input shape, :func:`_inference_plan`) of the last :func:`_apply` call
        object.__setattr__(self, "_scratch", (None, ()))

    @property
    def is_2d(self) -> bool:
        return self.layers[0].is_2d

    @property
    def stacked(self) -> bool:
        return self.layers[0].stacked

    @property
    def in_channels(self) -> int:
        return self.layers[0].in_channels

    @property
    def out_channels(self) -> int:
        return self.layers[-1].out_channels

    def _layer_operands(self, sizes: tuple) -> tuple:
        """Each layer's :func:`_linear_operand` and bias, shaped to broadcast
        over its output channels, on a grid of ``sizes``; derived on the
        first call for that grid, so ``forward``, ``jvp`` and ``backward``
        share them.  Layers are values: nothing writes to their weights in place."""
        if sizes not in self._operands:
            lead, ones = int(self.stacked), (1,) * len(sizes)
            self._operands[sizes] = tuple(
                (
                    _linear_operand(layer.weights, sizes, lead),
                    None if layer.bias is None else layer.bias.reshape(layer.bias.shape + ones),
                )
                for layer in self.layers
            )
        return self._operands[sizes]

    def parameters(self) -> list:
        """Weights and biases in layer order, biases after their weights."""
        params = []
        for layer in self.layers:
            params.append(layer.weights)
            if layer.bias is not None:
                params.append(layer.bias)
        return params

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def flatten_parameters(self) -> np.ndarray:
        """One flat parameter vector, or a [trials, P] stack of them."""
        return _flatten(self.parameters(), self.layers[0].weights.shape[: int(self.stacked)])

    def with_parameters(self, vector: np.ndarray) -> "ConvNet":
        """Rebuild the net from a flat parameter vector, or a stacked net from
        a [trials, P] stack of them; certificates drop."""
        vector = np.asarray(vector, dtype=np.float64)
        if self.stacked or vector.ndim not in (1, 2) or vector.shape[-1] != self.parameter_count:
            raise ShapeError(
                f"expected parameter vectors of length {self.parameter_count}"
            )
        lead = vector.shape[:-1]
        layers = []
        offset = 0
        for layer in self.layers:
            w = vector[..., offset : offset + layer.weights.size]
            w = w.reshape(lead + layer.weights.shape)
            offset += layer.weights.size
            b = None
            if layer.bias is not None:
                b = vector[..., offset : offset + layer.bias.size]
                offset += layer.bias.size
            layers.append(
                ConvLayer(w, b, activation=layer.activation, norm_certificate=None,
                          stacked=bool(lead))
            )
        return ConvNet(tuple(layers), self.scale)


@dataclass
class ForwardCache:
    """What forward keeps for backward and jvp: its net, whose per-grid
    operands they reuse, and each layer's input and pre-activation."""

    net: ConvNet
    inputs: list
    preactivations: list


def _checked_input(net: ConvNet, x: np.ndarray):
    """``x`` as float64 once it is shown to feed ``net``; with the net's
    trial stack and the count of axes a sample spans, its channel axis
    included."""
    x = np.asarray(x, dtype=np.float64)
    lead = net.layers[0].weights.shape[: int(net.stacked)]
    spatial = net.layers[0].weights.ndim - 1 - len(lead)
    if x.ndim < spatial + len(lead) or x.shape[-spatial] != net.in_channels:
        raise ShapeError(
            f"input shape {x.shape} does not feed a net with {net.in_channels} input channels"
        )
    if x.shape[: len(lead)] != lead:
        raise ShapeError(f"input shape {x.shape} does not lead with the trial stack {lead}")
    return x, lead, spatial


def forward(net: ConvNet, x: np.ndarray):
    """Run the network; returns (output, cache).

    ``x`` is [in_channels, width] or [in_channels, height, width], with any
    number of leading batch axes allowed; a stacked net needs the trial axis
    first.
    """
    x, lead, spatial = _checked_input(net, x)
    inputs = []
    preactivations = []
    batch = x.ndim - len(lead) - spatial
    for layer, (operand, bias) in zip(net.layers, net._layer_operands(x.shape[1 - spatial :])):
        inputs.append(x)
        z = _apply_linear(operand, layer.weights.shape[1 - spatial :], x, len(lead))
        if bias is not None:
            z += _over_batch(bias, len(lead), batch)
        preactivations.append(z)
        x = layer.activation(z)
    return net.scale * x, ForwardCache(net, inputs, preactivations)


def _apply(net: ConvNet, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``forward(net, x)[0]`` bit for bit, written into ``out``, with no cache
    for the backward passes.

    Each layer's wrap extensions, im2col columns, GEMM product and
    activation go into buffers the net keeps, with their views, for the last
    input shape it saw (:func:`_inference_plan`), so repeated calls on one
    geometry (an ADMM solve) allocate nothing, and a new shape replaces
    them.  The buffers make concurrent calls on one net unsafe.
    """
    x, _, _ = _checked_input(net, x)
    if net._scratch[0] != x.shape:
        object.__setattr__(net, "_scratch", (x.shape, _inference_plan(net, x.shape)))
    for layer, step in zip(net.layers, net._scratch[1]):
        if step.columns is None:
            np.matmul(x.reshape(step.rows), step.operand, out=step.flat)
        else:
            for index, axis, extension in step.wraps:
                x = np.take(x, index, axis=axis, out=extension, mode="clip")
            np.copyto(step.columns, step.taps)
            np.matmul(step.operand, step.rows, out=step.flat)
        if step.bias is not None:
            np.add(step.product, step.bias, out=step.product)
        x = layer.activation._into(step.product, step.post)
    return np.multiply(x, net.scale, out=out)


class _InferenceStep(NamedTuple):
    """One layer of :func:`_apply` on one input shape.  ``operand`` and
    ``bias`` broadcast over the batch.  On a dense-form grid ``rows`` is the
    shape the input takes as GEMM rows and the column fields are None;
    otherwise ``wraps`` holds (indices, axis, buffer) for each wrap
    extension, ``taps`` is the strided view of the last one that
    ``columns`` copies, and ``rows`` the columns as GEMM operand.  ``flat``
    is ``product`` shaped as the GEMM output; ``post`` holds the
    activation's output (None for the identity)."""

    operand: np.ndarray
    bias: np.ndarray | None
    wraps: tuple
    taps: np.ndarray | None
    columns: np.ndarray | None
    rows: object
    flat: np.ndarray
    product: np.ndarray
    post: np.ndarray | None


def _inference_plan(net: ConvNet, shape: tuple) -> list:
    """The :class:`_InferenceStep` of each layer of ``net`` on inputs of
    ``shape``, with its buffers allocated and its views built."""
    lead = int(net.stacked)
    rank = net.layers[0].weights.ndim - 2 - lead
    front, sizes = shape[: -rank - 1], shape[-rank:]
    plan = []
    for layer, (operand, bias) in zip(net.layers, net._layer_operands(sizes)):
        kernel_shape = layer.weights.shape[-rank:]
        operand = _over_batch(operand, lead, len(front) - lead)
        bias = None if bias is None else _over_batch(bias, lead, len(front) - lead)
        product = np.empty(front + (layer.out_channels,) + sizes)
        post = None if layer.activation.kind == "identity" else np.empty_like(product)
        if _dense_form(kernel_shape, sizes):
            rows = front + (1, -1)
            step = (operand, bias, (), None, None, rows, product.reshape(rows), product, post)
        else:
            in_shape = front + (layer.in_channels,) + sizes
            extended, wraps = list(in_shape), []
            for axis, k in zip(range(len(front) + 1, len(in_shape)), kernel_shape):
                index = _wrap_index(k, in_shape[axis])
                extended[axis] = index.size
                wraps.append((index, axis, np.empty(extended)))
            taps = _tap_view(wraps[-1][2], in_shape, kernel_shape, len(front))
            columns = np.empty(taps.shape)
            rows = columns.reshape(front + (-1, math.prod(sizes)))
            flat = product.reshape(front + (layer.out_channels, -1))
            step = (operand, bias, tuple(wraps), taps, columns, rows, flat, product, post)
        plan.append(_InferenceStep(*step))
    return plan


def backward(cache: ForwardCache, upstream: np.ndarray, input_gradient: bool = True):
    """Backpropagate through the net that produced ``cache``; returns
    (parameter gradient, input gradient).

    The parameter gradient is laid out exactly like
    ``net.flatten_parameters()``: [P], or [trials, P] for a stacked net.
    Batch axes in the cache are summed into it.  Each layer's adjoint is
    derived from the operand forward used.  With ``input_gradient`` False
    the first layer's adjoint is skipped and the input gradient comes back
    as None; the parameter gradient keeps its bits.
    """
    net = cache.net
    lead = net.layers[0].weights.shape[: int(net.stacked)]
    spatial = net.layers[0].weights.ndim - 1 - len(lead)  # the channel axis too
    sizes = cache.inputs[0].shape[1 - spatial :]
    g = np.asarray(upstream, dtype=np.float64) * net.scale
    grads = []  # in reverse parameter order
    depth = len(net.layers)
    steps = zip(net.layers, net._layer_operands(sizes), cache.inputs, cache.preactivations)
    for layer, (operand, _), x_in, z in list(steps)[::-1]:
        dz = g * layer.activation.derivative(z)
        if layer.bias is not None:
            axes = tuple(i for i in range(len(lead), dz.ndim) if i != dz.ndim - spatial)
            grads.append(np.sum(dz, axis=axes))
        grads.append(_weight_gradient(layer.weights, x_in, dz, net.stacked))
        depth -= 1
        if depth or input_gradient:
            adjoint = _adjoint_operand(layer.weights, operand, sizes, len(lead))
            g = _apply_linear(adjoint, layer.weights.shape[1 - spatial :], dz, len(lead))
        else:
            g = None
    return _flatten(grads[::-1], lead), g


def jvp(cache: ForwardCache, tangents: np.ndarray) -> np.ndarray:
    """Jacobian-vector products, at the cached input, of the net that
    produced ``cache``.

    For a forward input [..., in_channels, *spatial], ``tangents`` carries
    one more axis in front of the channel axis, [..., k, in_channels,
    *spatial], and the result is the k output tangents [..., k,
    out_channels, *spatial].  Each tangent goes through forward's operands
    and the activation derivatives as one more sample row, so a stacked
    net's trial slice is exactly what that trial's own net computes.
    """
    net = cache.net
    rank = net.layers[0].weights.ndim - 1 - int(net.stacked)
    d = np.asarray(tangents, dtype=np.float64)
    x = cache.inputs[0]
    if d.ndim != x.ndim + 1 or d.shape[: -rank - 1] + d.shape[-rank:] != x.shape:
        raise ShapeError(f"tangents {d.shape} do not carry one axis ahead of input {x.shape}")
    lead = int(net.stacked)
    operands = net._layer_operands(x.shape[1 - rank :])
    for layer, (operand, _), z in zip(net.layers, operands, cache.preactivations):
        d = _apply_linear(operand, layer.weights.shape[1 - rank :], d, lead)
        d *= np.expand_dims(layer.activation.derivative(z), -rank - 1)
    return net.scale * d


def _weight_gradient(
    weights: np.ndarray, x: np.ndarray, dz: np.ndarray, stacked: bool = False
) -> np.ndarray:
    """Gradient of the weights from layer input ``x`` and output gradient
    ``dz``, summed over batch axes but, with ``stacked``, not over trials."""
    lead = int(stacked)
    kernel_shape = weights.shape[2 + lead :]
    sizes = x.shape[-len(kernel_shape) :]
    if _dense_form(kernel_shape, sizes):
        # the samples' summed outer products dzᵀ x are the gradient of the
        # dense operator; the tap table sums its entries back onto the taps
        trials, (out, inp) = weights.shape[:lead], weights.shape[lead : lead + 2]
        cells = math.prod(sizes)
        dz_cols = dz.reshape(trials + (-1, out * cells)).swapaxes(-1, -2)
        outer = dz_cols @ x.reshape(trials + (-1, inp * cells))
        outer = outer.reshape(trials + (out, cells, inp, cells)).swapaxes(-3, -2)
        outer = outer.reshape(trials + (out * inp, -1))
        return (outer @ _tap_table(kernel_shape, sizes).T).reshape(weights.shape)
    # channels ahead of the batch axes: one GEMM sums over batch and cells
    channel_axis = 1 - weights.ndim + lead
    dz_rows = np.moveaxis(dz, channel_axis, lead).reshape(weights.shape[: lead + 1] + (-1,))
    columns = _columns(np.moveaxis(x, channel_axis, lead), kernel_shape, lead)
    return (dz_rows @ columns.swapaxes(-1, -2)).reshape(weights.shape)


@functools.lru_cache(maxsize=16)
def _phase_table(kernel_shape: tuple, sizes: tuple) -> np.ndarray:
    """Read-only [2F, taps²] table of cos and -sin of ω·(τ_s - τ_t) over the
    F half-spectrum frequencies ω of a grid of ``sizes``, for every tap pair."""
    n = len(sizes)
    offsets = np.indices(kernel_shape).reshape(n, -1, 1)
    lags = (offsets - offsets.swapaxes(1, 2)).reshape(n, 1, -1)  # τ_s - τ_t
    freqs = np.indices(sizes[:-1] + (sizes[-1] // 2 + 1,)).reshape(n, -1, 1)
    period = np.array(sizes).reshape(n, 1, 1)
    angles = 2.0 * np.pi * np.sum(freqs * lags % period / period, axis=0)
    return _read_only(np.concatenate([np.cos(angles), -np.sin(angles)]))


# The screen of ``_largest_top_eigenvalue``: power steps that rank the
# frequencies, the relative margin below the running top at which a Gram
# must factor, and the smallest Gram side on which the screen beats one
# batched eigvalsh (timed at 1 BLAS thread).
_RANK_STEPS = 8
_SCREEN_MARGIN = 1e-9
_SCREEN_MIN_SIDE = 32


def _largest_top_eigenvalue(grams: np.ndarray):
    """``np.max(np.linalg.eigvalsh(grams)[..., -1])`` of a [F, m, m] stack of
    Hermitian Grams, bit for bit, with an eigensolve only where it can matter.

    A few power steps from the all-ones vector rank the frequencies by an
    estimate of their top eigenvalue, and the first-ranked Gram gets an
    eigvalsh: λ.  Every other Gram G, in rank order, must then pass a
    Cholesky factorization of λ(1 - τ)I - G, τ = ``_SCREEN_MARGIN``; one that
    fails gets its own eigvalsh, and λ becomes the larger top.

    Why this is exact: Cholesky is backward stable, so a Gram that factors
    has every eigenvalue below λ(1 - τ) up to a relative error of order m·u
    (u the unit roundoff), and eigvalsh puts its top within the same order of
    the truth.  τ is far above m·u, so the top eigvalsh would compute for a
    Gram that factors lies below λ, which is no larger than the final
    answer; every top that could reach the answer fails the screen and is
    computed.  LAPACK solves one matrix at a time, batched or not, so each
    computed top has the bits the batched call gives it.  A poor ranking
    only costs extra eigensolves, and a zero λ (a zero layer) fails every
    Gram, which costs what the batched call costs.
    """
    v = np.ones(grams.shape[:-1] + (1,), dtype=grams.dtype)
    for _ in range(_RANK_STEPS):
        v = grams @ v
        size = np.linalg.norm(v, axis=(-2, -1))
        # a zero Gram keeps a zero vector instead of dividing 0 by 0
        v /= np.maximum(size, np.finfo(size.dtype).tiny)[:, None, None]
    order = np.argsort(-size, kind="stable")
    top = np.linalg.eigvalsh(grams[order[0]])[-1]
    eye = np.eye(grams.shape[-1])
    for f in order[1:]:
        try:
            np.linalg.cholesky(top * (1.0 - _SCREEN_MARGIN) * eye - grams[f])
        except np.linalg.LinAlgError:
            top = max(top, np.linalg.eigvalsh(grams[f])[-1])
    return top


def circulant_operator_norm(layer: ConvLayer, input_shape: tuple):
    """Exact operator norm of the layer's linear part on the given geometry.

    A circular convolution block-diagonalizes in the Fourier basis: at
    frequency ω it acts as B(ω) = Σ_s W_s e^{-iω·τ_s}, with [out, in] tap
    matrices W_s at centred offsets τ_s, and its norm is the square root of
    the largest top eigenvalue of any Gram
    B Bᴴ = Σ_{s,t} W_s W_tᵀ e^{-iω·(τ_s-τ_t)}.  One real product of the tap
    stack with itself gives every W_s W_tᵀ, one product with the phase table
    every Gram.  With more outputs than inputs the channels swap first,
    giving the conjugate of Bᴴ B: the same eigenvalues, on the smaller side.
    Real weights make B(-ω) conjugate to B(ω), so the half spectrum (every
    frequency on the leading spatial axes, 0..N/2 on the last) holds every
    distinct norm.  A stacked layer gets one norm per trial back.

    Only the largest top is needed.  A 1×1 Gram is its own eigenvalue.
    Stacked layers (the bound search's 3×3 Grams) and Grams with fewer than
    ``_SCREEN_MIN_SIDE`` rows go through one batched eigvalsh.  Any other
    layer eigensolves the Gram that power steps rank first and screens the
    rest with Cholesky factorizations (``_largest_top_eigenvalue``), which
    gives the batched call's bits for a fraction of its eigensolves.
    """
    w = layer.weights
    lead = int(layer.stacked)
    kernel_shape = w.shape[2 + lead :]
    n = len(kernel_shape)
    sizes = np.array(input_shape)
    if sizes.shape != (n,) or sizes.dtype.kind not in "iu" or np.any(sizes <= 0):
        raise ShapeError(f"input_shape {input_shape} needs a positive integer size per axis ({n})")
    w = w.swapaxes(lead, lead + 1) if w.shape[lead] > w.shape[lead + 1] else w
    trials, (m, c), taps = w.shape[:lead], w.shape[lead : lead + 2], math.prod(kernel_shape)
    stack = np.moveaxis(w.reshape(trials + (m, c, taps)), -1, lead).reshape(trials + (-1, c))
    products = (stack @ stack.swapaxes(-1, -2)).reshape(trials + (taps, m, taps, m))
    products = products.swapaxes(-3, -2).reshape(trials + (taps * taps, m * m))
    phases = _phase_table(kernel_shape, tuple(int(size) for size in sizes))
    spectrum = phases @ products
    half = spectrum.shape[-2] // 2
    re, im = spectrum[..., :half, :], spectrum[..., half:, :]
    if m == 1:
        # a 1×1 Hermitian Gram is its own real eigenvalue
        top = np.max(re[..., 0], axis=-1)
    else:
        # filled part by part: no complex temporary beside the stack
        grams = np.empty(re.shape, dtype=np.complex128)
        grams.real, grams.imag = re, im
        grams = grams.reshape(trials + (-1, m, m))
        if layer.stacked or m < _SCREEN_MIN_SIDE:
            top = np.max(np.linalg.eigvalsh(grams)[..., -1], axis=-1)
        else:
            top = _largest_top_eigenvalue(grams)
    norms = np.sqrt(np.maximum(top, 0.0))
    return norms if layer.stacked else float(norms)


def project_unit_ball(net: ConvNet, input_shape: tuple) -> ConvNet:
    """Scale every layer whose operator norm on ``input_shape`` exceeds 1
    back onto the unit ball; in a stacked net, every trial's layer.

    Rescaled layers drop their certificates; a net with no layer above 1
    comes back as the same object.
    """
    layers = []
    changed = False
    for layer in net.layers:
        norm = circulant_operator_norm(layer, input_shape)
        over = norm > 1.0
        if np.any(over):
            # dividing by 1.0 leaves the trials inside the ball bit for bit
            divisor = np.where(over, norm * (1.0 + 1e-12), 1.0)
            divisor = divisor.reshape(divisor.shape + (1,) * (layer.weights.ndim - divisor.ndim))
            layers.append(
                ConvLayer(layer.weights / divisor, layer.bias, activation=layer.activation,
                          stacked=layer.stacked)
            )
            changed = True
        else:
            layers.append(layer)
    if not changed:
        return net
    return ConvNet(tuple(layers), net.scale)


def lipschitz_upper_bound(net: ConvNet) -> float:
    """Certified bound: product of layer certificates, activation constants,
    and the absolute output scale. Raises if any layer lacks a certificate."""
    bound = abs(net.scale)
    for i, layer in enumerate(net.layers):
        if layer.norm_certificate is None:
            raise UncertifiedError(f"layer {i} carries no norm certificate")
        bound *= layer.norm_certificate * layer.activation.lipschitz
    return bound


# Adam's moment decay rates and denominator guard, the usual published values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam moment estimates of a flat parameter vector plus the learning
    rate; treat as immutable.  The other hyperparameters are the fixed
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float

    @classmethod
    def init(cls, theta: np.ndarray, learning_rate: float = 1e-4) -> "AdamState":
        return cls(np.zeros_like(theta), np.zeros_like(theta), 0, float(learning_rate))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState):
    """One bias-corrected Adam update of the whole vector ``theta``; Adam is
    elementwise, so every entry steps on its own.  Returns (new theta, new
    state)."""
    if not theta.shape == grad.shape == state.first_moment.shape:
        raise ShapeError("parameter vector, gradient and Adam state must share one shape")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("non-finite gradient would poison the Adam state")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * state.first_moment + (1.0 - b1) * grad
    v = b2 * state.second_moment + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    theta = theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return theta, replace(state, first_moment=m, second_moment=v, step_count=t)


# ------------------------------------------------------------ serialization


def save_net(path, net: ConvNet, metadata: dict | None = None) -> None:
    """Write ``net`` as an uncompressed ``np.savez`` archive and ``metadata``
    as the sidecar ``<path>.json``.  Layer i is ``weights_i``, ``activation_i``
    (a plain string), ``slope_i`` and, if present, ``bias_i`` and
    ``certificate_i``; ``scale`` goes last, as a damaged zip directory can
    hide a tail of the members."""
    if net.stacked:
        raise ShapeError("a stacked net is search state; save each trial's net instead")
    members = {}
    for i, layer in enumerate(net.layers):
        members[f"weights_{i}"] = layer.weights
        members[f"activation_{i}"] = np.str_(layer.activation.kind)
        members[f"slope_{i}"] = np.float64(layer.activation.slope)
        if layer.bias is not None:
            members[f"bias_{i}"] = layer.bias
        if layer.norm_certificate is not None:
            members[f"certificate_{i}"] = np.float64(layer.norm_certificate)
    members["scale"] = np.float64(net.scale)
    with open(path, "wb") as handle:  # given a name, np.savez would append ".npz"
        np.savez(handle, **members)
    with open(f"{path}.json", "w", encoding="utf-8") as handle:
        json.dump(metadata or {}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_net(path) -> ConvNet:
    """Read a network written by :func:`save_net`.  Any defect raises
    FormatError: a damaged or foreign file, a failed member CRC, a missing,
    non-float64 numeric or unread member, or a value the layers reject."""
    try:
        # np.load reads any other file as npy or pickle, and says so
        if not zipfile.is_zipfile(path):
            raise FormatError("not an npz archive written by save_net")
        with np.load(path, allow_pickle=False) as archive:
            if archive.zip.testzip() is not None:
                raise FormatError("a member fails its CRC check")
            members = {name: archive[name] for name in archive.files}

        def number(name):
            value = np.asarray(members.pop(name))
            if value.dtype != np.float64:
                raise FormatError(f"member {name} holds {value.dtype}, not float64")
            return value

        layers = []
        while f"weights_{len(layers)}" in members:
            i = len(layers)
            bias = number(f"bias_{i}") if f"bias_{i}" in members else None
            cert = float(number(f"certificate_{i}")) if f"certificate_{i}" in members else None
            activation = Activation(str(members.pop(f"activation_{i}")), float(number(f"slope_{i}")))
            layers.append(ConvLayer(number(f"weights_{i}"), bias, activation, cert))
        net = ConvNet(tuple(layers), float(number("scale")))
        if members:
            raise FormatError(f"members {sorted(members)} belong to no layer")
    # zipfile and numpy raise many undocumented types on damaged bytes, the layers their own
    except Exception as exc:
        raise FormatError(f"cannot load a network from {path}: {exc}") from exc
    return net
