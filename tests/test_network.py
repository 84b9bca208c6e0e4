import math
import warnings

import numpy as np
import pytest

from lipsam.errors import FormatError, NonFiniteError, ShapeError, UncertifiedError
from lipsam.network import (
    IDENTITY,
    LEAKY_RELU,
    SOFTPLUS,
    Activation,
    AdamState,
    ConvLayer,
    ConvNet,
    _adjoint_operand,
    _apply,
    _apply_linear,
    _columns,
    _dense_form,
    _dense_operator,
    _linear_operand,
    _phase_table,
    _tap_table,
    _weight_gradient,
    _wrap_index,
    adam_step,
    backward,
    circulant_operator_norm,
    forward,
    jvp,
    lipschitz_upper_bound,
    load_net,
    project_unit_ball,
    save_net,
)
from oracles import (
    ReferenceAdamState,
    certify_layer,
    eigvalsh_operator_norm,
    full_spectrum_operator_norm,
    quick_train,
    reference_adam_step,
    rewrite_member,
)

# ---------------------------------------------------------------- oracles


def loop_conv1d(weights, bias, x):
    out_ch, in_ch, k = weights.shape
    width = x.shape[-1]
    c = k // 2
    out = np.zeros((out_ch, width))
    for o in range(out_ch):
        for t in range(width):
            acc = 0.0 if bias is None else bias[o]
            for i in range(in_ch):
                for d in range(k):
                    acc += weights[o, i, d] * x[i, (t + d - c) % width]
            out[o, t] = acc
    return out


def loop_conv2d(weights, bias, x):
    out_ch, in_ch, k1, k2 = weights.shape
    height, width = x.shape[-2:]
    c1, c2 = k1 // 2, k2 // 2
    out = np.zeros((out_ch, height, width))
    for o in range(out_ch):
        for p in range(height):
            for q in range(width):
                acc = 0.0 if bias is None else bias[o]
                for i in range(in_ch):
                    for d in range(k1):
                        for e in range(k2):
                            acc += weights[o, i, d, e] * x[
                                i, (p + d - c1) % height, (q + e - c2) % width
                            ]
                out[o, p, q] = acc
    return out


def materialize_1d(weights, width):
    in_dim = weights.shape[1] * width
    cols = []
    for j in range(in_dim):
        basis = np.zeros(in_dim)
        basis[j] = 1.0
        cols.append(loop_conv1d(weights, None, basis.reshape(weights.shape[1], width)).reshape(-1))
    return np.stack(cols, axis=1)


def materialize_2d(weights, height, width):
    in_dim = weights.shape[1] * height * width
    cols = []
    for j in range(in_dim):
        basis = np.zeros(in_dim)
        basis[j] = 1.0
        cols.append(
            loop_conv2d(weights, None, basis.reshape(weights.shape[1], height, width)).reshape(-1)
        )
    return np.stack(cols, axis=1)


def loop_weight_gradient(weights, x, dz):
    """d<dz, A_w x>/dw through the loop oracles.  The basis weight at
    (o, i, s) carries input channel i through tap s into output channel o
    alone, so one one-channel loop conv per (i, s) serves every o."""
    loop_conv = loop_conv1d if weights.ndim == 3 else loop_conv2d
    spatial = weights.ndim - 2
    kernel = weights.shape[2:]
    xs = x.reshape((-1,) + x.shape[-spatial - 1 :])
    dzs = dz.reshape((-1,) + dz.shape[-spatial - 1 :])
    cells = tuple(range(1, spatial + 1))
    grad = np.zeros_like(weights)
    for i in range(weights.shape[1]):
        for tap in np.ndindex(kernel):
            basis = np.zeros((1, 1) + kernel)
            basis[(0, 0) + tap] = 1.0
            for item, g in zip(xs, dzs):
                carried = loop_conv(basis, None, item[i : i + 1])
                grad[(slice(None), i) + tap] += np.sum(g * carried, axis=cells)
    return grad


def apply_layer(w, x, stacked=False, adjoint=False):
    """A layer's linear part, or its adjoint, on x's grid through the
    operands a net derives for that grid."""
    lead = int(stacked)
    kernel = w.shape[2 + lead :]
    sizes = x.shape[-len(kernel) :]
    operand = _linear_operand(w, sizes, lead)
    if adjoint:
        operand = _adjoint_operand(w, operand, sizes, lead)
    return _apply_linear(operand, kernel, x, lead)


def make_net_1d(rng, channels=(3, 4, 2), kernel=3, bias=True, activation=SOFTPLUS, scale=1.0):
    layers = []
    for cin, cout in zip(channels[:-1], channels[1:]):
        layers.append(
            ConvLayer(
                0.3 * rng.standard_normal((cout, cin, kernel)),
                0.1 * rng.standard_normal(cout) if bias else None,
                activation=activation,
            )
        )
    return ConvNet(tuple(layers), scale)


# ---------------------------------------------------------------- forward


def test_forward_matches_loop_oracle_1d():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 2, 5))
    b = rng.standard_normal(3)
    x = rng.standard_normal((2, 9))
    net = ConvNet((ConvLayer(w, b, activation=IDENTITY),))
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, loop_conv1d(w, b, x), atol=1e-10)


def test_forward_matches_loop_oracle_2d_two_layers():
    rng = np.random.default_rng(1)
    w1 = 0.5 * rng.standard_normal((3, 1, 3, 3))
    b1 = 0.1 * rng.standard_normal(3)
    w2 = 0.5 * rng.standard_normal((2, 3, 3, 3))
    net = ConvNet(
        (
            ConvLayer(w1, b1, activation=SOFTPLUS),
            ConvLayer(w2, None, activation=IDENTITY),
        ),
        scale=1.5,
    )
    x = rng.standard_normal((1, 4, 4))
    out, _ = forward(net, x)
    hidden = np.logaddexp(0.0, loop_conv2d(w1, b1, x))
    expected = 1.5 * loop_conv2d(w2, None, hidden)
    np.testing.assert_allclose(out, expected, atol=1e-10)


CONV_CASES = [
    ((3, 2, 5), (2, 2, 3)),  # 1-D kernel wider than the input, one batch axis
    ((2, 3, 5, 3), (2, 3, 3, 2)),  # 2-D kernel wider than the input
    ((4, 3, 3, 3), (2, 2, 3, 4, 5)),  # two leading batch axes; 20 cells, 9 taps: columns
    ((3, 2, 5), (2, 2, 8)),  # 8 cells < 2 * 5 taps: dense operator
    ((3, 2, 5), (2, 2, 10)),  # 10 cells = 2 * 5 taps: columns
    ((3, 2, 3, 3), (2, 2, 4, 4)),  # 16 cells < 2 * 9 taps: dense operator
    ((2, 3, 2, 3, 3), (2, 3, 2, 4, 4)),  # a stacked 2-D layer, dense
    ((2, 3, 2, 3, 3), (2, 3, 2, 6, 6)),  # a stacked 2-D layer, columns
    ((2, 3, 9, 1), (2, 3, 4, 16)),  # a kernel taller than its grid wraps twice, columns
    ((16, 33, 5), (33, 128)),  # the solver's first layer, 33→16, no batch axis, columns
]


@pytest.mark.bitwise
@pytest.mark.parametrize("wshape,xshape", CONV_CASES)
def test_conv_ops_match_loop_oracles(wshape, xshape):
    rng = np.random.default_rng(9)
    stacked = len(wshape) == 5  # five weight axes can only be a stacked 2-D layer
    w = rng.standard_normal(wshape)
    b = rng.standard_normal(wshape[: 1 + stacked])
    x = rng.standard_normal(xshape)
    loop_conv = loop_conv1d if len(wshape) - stacked == 3 else loop_conv2d
    spatial = len(wshape) - stacked - 2
    out, _ = forward(ConvNet((ConvLayer(w, b, activation=IDENTITY, stacked=stacked),)), x)
    g = rng.standard_normal(out.shape)
    trials = list(zip(w, b, x, g)) if stacked else [(w, b, x, g)]
    want = []
    for w_r, b_r, x_r, _ in trials:
        items = x_r.reshape((-1,) + x_r.shape[-spatial - 1 :])
        want.append(np.stack([loop_conv(w_r, b_r, item) for item in items]))
    np.testing.assert_allclose(out, np.stack(want).reshape(out.shape), atol=1e-10)
    # adjoint identity <A x, g> = <x, A^T g>, to rounding of |<A x, g>|'s bound
    adjoint = apply_layer(w, g, stacked, adjoint=True)
    lhs = np.sum(apply_layer(w, x, stacked) * g)
    rhs = np.sum(x * adjoint)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(g) * np.abs(w).sum()
    # A^T is the correlation with the flipped, channel-swapped kernel; where
    # three or more taps alias one cell, the dense path may round otherwise
    want_adjoint = []
    for w_r, _, _, g_r in trials:
        flipped = np.flip(w_r, tuple(range(2, w_r.ndim))).swapaxes(0, 1)
        items = g_r.reshape((-1,) + g_r.shape[-spatial - 1 :])
        want_adjoint.append(np.stack([loop_conv(flipped, None, item) for item in items]))
    np.testing.assert_allclose(adjoint, np.stack(want_adjoint).reshape(x.shape), atol=1e-10)
    want_grad = [loop_weight_gradient(w_r, x_r, g_r) for w_r, _, x_r, g_r in trials]
    np.testing.assert_allclose(
        _weight_gradient(w, x, g, stacked), np.stack(want_grad).reshape(w.shape), atol=1e-10
    )


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "kernel,spatial,dense",
    [
        ((5,), (8,), True),
        ((5,), (16,), False),
        ((3, 3), (4, 4), True),
        ((3, 3), (6, 6), False),
        ((5,), (128,), False),
        # 27 column rows and a cell count off the GEMM's column blocking: the
        # 1-D shape where one GEMM over all samples changes the bits
        ((9,), (20,), False),
    ],
)
@pytest.mark.parametrize("stacked", [False, True])
def test_conv_rows_do_not_depend_on_the_batch_they_run_in(kernel, spatial, dense, stacked):
    # the lockstep bound search batches trials on an input axis and must
    # reproduce each trial run alone bit for bit, on both forms of the conv
    assert _dense_form(kernel, spatial) == dense
    rng = np.random.default_rng(41)
    lead = (2,) * stacked
    w = rng.standard_normal(lead + (3, 3) + kernel)
    x = rng.standard_normal(lead + (64, 3) + spatial)
    trial_axes = (slice(None),) * stacked
    for adjoint in (False, True):
        alone = [apply_layer(w, x[(*trial_axes, i)], stacked, adjoint) for i in range(64)]
        for batch in (2, 7, 64):
            out = apply_layer(w, x[(*trial_axes, slice(batch))], stacked, adjoint)
            for i in range(batch):
                assert out[(*trial_axes, i)].tobytes() == alone[i].tobytes()


@pytest.mark.parametrize(
    "kernel,spatial,dense",
    [
        ((3, 3), (4, 4), True),  # the bound search's patches
        ((5,), (4,), True),  # a denoiser trained at 4 frames
        ((5,), (32,), False),  # the training default
        ((5,), (128,), False),  # the solver's standard instance
    ],
)
def test_dense_form_is_chosen_from_the_grid_alone(kernel, spatial, dense):
    assert _dense_form(kernel, spatial) == dense


def test_cached_tables_are_read_only():
    for table in (_tap_table((3, 3), (4, 4)), _phase_table((5,), (8,))):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    assert _tap_table((3, 3), (4, 4)) is _tap_table((3, 3), (4, 4))
    # every tap carries each output cell from exactly one input cell
    assert np.array_equal(_tap_table((5,), (3,)).reshape(5, 3, 3).sum(axis=2), np.ones((5, 3)))
    index = _wrap_index(9, 4)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 1
    assert _wrap_index(9, 4) is index
    assert index.tolist() == [0, 1, 2, 3] * 3


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "kernel,xshape,channel_axis",
    [
        ((5,), (2, 3, 7), 1),  # forward: [batch, in, width]
        ((9, 3), (2, 3, 4, 5), 1),  # forward, a kernel taller than its grid
        ((5,), (3, 2, 6), 0),  # weight gradient: channels ahead of the batch
        ((3, 3), (2, 3, 2, 4, 4), 1),  # stacked weight gradient: [trials, in, batch, h, w]
    ],
)
def test_columns_match_a_circular_index_loop(kernel, xshape, channel_axis):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(xshape)
    n = len(kernel)
    front, channels = xshape[:channel_axis], xshape[channel_axis]
    middle, sizes = xshape[channel_axis + 1 : -n], xshape[-n:]
    want = []
    for head in np.ndindex(front):
        rows = []
        for c in range(channels):
            for tap in np.ndindex(kernel):
                row = []
                for mid in np.ndindex(middle):
                    for cell in np.ndindex(sizes):
                        source = tuple(
                            (p + t - k // 2) % size
                            for p, t, k, size in zip(cell, tap, kernel, sizes)
                        )
                        row.append(x[head + (c,) + mid + source])
                rows.append(row)
        want.append(rows)
    columns = _columns(x, kernel, channel_axis)
    assert columns.shape == front + (channels * math.prod(kernel), math.prod(middle + sizes))
    assert np.array_equal(columns, np.array(want).reshape(columns.shape))


def test_forward_batched_matches_per_item():
    rng = np.random.default_rng(2)
    net = make_net_1d(rng, activation=LEAKY_RELU)
    batch = rng.standard_normal((6, 3, 7))
    out_batch, _ = forward(net, batch)
    for i in range(6):
        out_single, _ = forward(net, batch[i])
        np.testing.assert_allclose(out_batch[i], out_single, atol=1e-12)


def test_forward_rejects_channel_mismatch():
    rng = np.random.default_rng(3)
    net = make_net_1d(rng)
    with pytest.raises(ShapeError):
        forward(net, rng.standard_normal((5, 7)))


def test_layer_rejects_even_kernel():
    with pytest.raises(ShapeError):
        ConvLayer(np.zeros((1, 1, 4)))


@pytest.mark.parametrize(
    "shape, stacked",
    [((0, 4, 5), False), ((3, 0, 5), False), ((0, 1, 3, 3), False), ((2, 1, 0, 3), True)],
)
def test_layer_rejects_zero_channels(shape, stacked):
    with pytest.raises(ShapeError, match="channel"):
        ConvLayer(np.zeros(shape), stacked=stacked)


# ---------------------------------------------------------------- backward


def scalar_loss_and_grads(net, x, probe):
    out, cache = forward(net, x)
    loss = float(np.sum(out * probe))
    grad_theta, input_grad = backward(cache, probe)
    return loss, grad_theta, input_grad


def fd_param_gradient(net, x, probe, h=1e-6):
    theta = net.flatten_parameters()
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        for sign, bucket in ((1.0, 1.0), (-1.0, -1.0)):
            shifted = theta.copy()
            shifted[j] += sign * h
            out, _ = forward(net.with_parameters(shifted), x)
            grad[j] += bucket * float(np.sum(out * probe))
    return grad / (2.0 * h)


@pytest.mark.bitwise
def test_softplus_derivative_matches_scipy_expit():
    # the derivative is 1 / (1 + exp(-v)) in numpy, the formula of scipy's
    # expit; numpy's SIMD exp rounds differently from libm's in the last
    # bits of about 2% of random doubles, never on these edge values
    from scipy.special import expit

    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      709.0, -709.0, 745.0, -745.0, 1e308, -1e308])
    rng = np.random.default_rng(21)
    normals = rng.standard_normal(10**5) * np.geomspace(1e-3, 800.0, 10**5)
    strided = normals.reshape(-1, 4)[:, 1:3]
    inputs = {"edges": edges, "normals": normals, "strided": strided}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {name: SOFTPLUS.derivative(v) for name, v in inputs.items()}
    for name, v in inputs.items():
        assert got[name].dtype == np.float64 and got[name].shape == v.shape
    assert got["edges"].tobytes() == expit(edges).tobytes()
    reference = expit(normals)
    assert np.all(np.abs(got["normals"] - reference) <= 4 * np.spacing(reference))
    assert got["strided"].tobytes() == SOFTPLUS.derivative(np.ascontiguousarray(strided)).tobytes()


@pytest.mark.parametrize("activation", [SOFTPLUS, LEAKY_RELU, IDENTITY])
def test_backward_parameter_gradients_match_fd(activation):
    rng = np.random.default_rng(4)
    net = make_net_1d(rng, channels=(2, 3, 1), activation=activation, scale=0.7)
    x = rng.standard_normal((2, 6))
    if activation.kind == "leaky_relu":
        # keep pre-activations away from the kink so FD and backprop agree
        _, cache = forward(net, x)
        assert all(np.min(np.abs(z)) > 1e-3 for z in cache.preactivations)
    probe = rng.standard_normal((1, 6))
    _, grad_theta, _ = scalar_loss_and_grads(net, x, probe)
    fd = fd_param_gradient(net, x, probe)
    np.testing.assert_allclose(grad_theta, fd, rtol=1e-6, atol=1e-8)


def test_backward_input_gradient_matches_fd():
    rng = np.random.default_rng(5)
    net = make_net_1d(rng, channels=(2, 4, 2), activation=SOFTPLUS)
    x = rng.standard_normal((2, 5))
    probe = rng.standard_normal((2, 5))
    _, _, input_grad = scalar_loss_and_grads(net, x, probe)
    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        op, _ = forward(net, xp)
        om, _ = forward(net, xm)
        fd[idx] = np.sum((op - om) * probe) / (2.0 * h)
    np.testing.assert_allclose(input_grad, fd, rtol=1e-6, atol=1e-8)


def test_backward_2d_gradients_match_fd():
    rng = np.random.default_rng(6)
    layers = (
        ConvLayer(0.4 * rng.standard_normal((2, 1, 3, 3)), 0.05 * rng.standard_normal(2),
                  activation=SOFTPLUS),
        ConvLayer(0.4 * rng.standard_normal((1, 2, 3, 3)), None, activation=IDENTITY),
    )
    net = ConvNet(layers, scale=2.0)
    x = rng.standard_normal((1, 4, 4))
    probe = rng.standard_normal((1, 4, 4))
    _, grad_theta, _ = scalar_loss_and_grads(net, x, probe)
    fd = fd_param_gradient(net, x, probe)
    np.testing.assert_allclose(grad_theta, fd, rtol=1e-6, atol=1e-8)


def test_backward_batch_sums_item_gradients():
    rng = np.random.default_rng(7)
    net = make_net_1d(rng, channels=(2, 3, 2), activation=SOFTPLUS)
    batch = rng.standard_normal((4, 2, 6))
    probe = rng.standard_normal((4, 2, 6))
    _, grad_batch, _ = scalar_loss_and_grads(net, batch, probe)
    assert grad_batch.shape == (net.parameter_count,)
    summed = sum(scalar_loss_and_grads(net, batch[i], probe[i])[1] for i in range(4))
    np.testing.assert_allclose(grad_batch, summed, atol=1e-10)


@pytest.mark.bitwise
@pytest.mark.parametrize("rank", [1, 2])
def test_backward_without_input_gradient_keeps_parameter_gradient_bits(rank):
    rng = np.random.default_rng(9)
    if rank == 1:
        net = make_net_1d(rng, channels=(3, 4, 2), activation=SOFTPLUS)
        x = rng.standard_normal((5, 3, 16))  # the column form
    else:
        net = ConvNet((
            ConvLayer(rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)),
            ConvLayer(rng.standard_normal((1, 2, 3, 3)), activation=IDENTITY),
        ))
        x = rng.standard_normal((5, 1, 4, 4))  # the dense form
    out, cache = forward(net, x)
    probe = rng.standard_normal(out.shape)
    want, input_grad = backward(cache, probe)
    got, skipped = backward(cache, probe, input_gradient=False)
    assert input_grad.shape == x.shape and skipped is None
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- norms


@pytest.mark.parametrize("shape,width", [((2, 3, 3), 6), ((3, 2, 5), 8), ((1, 1, 7), 4)])
def test_circulant_norm_matches_dense_svd_1d(shape, width):
    rng = np.random.default_rng(21)
    layer = ConvLayer(rng.standard_normal(shape), activation=IDENTITY)
    dense = materialize_1d(layer.weights, width)
    want = np.linalg.svd(dense, compute_uv=False)[0]
    got = circulant_operator_norm(layer, (width,))
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize(
    "shape,spatial", [((2, 2, 3, 3), (4, 4)), ((3, 1, 3, 3), (4, 6)), ((2, 3, 5, 3), (3, 2))]
)
def test_circulant_norm_matches_dense_svd_2d(shape, spatial):
    rng = np.random.default_rng(22)
    layer = ConvLayer(rng.standard_normal(shape), activation=IDENTITY)
    dense = materialize_2d(layer.weights, *spatial)
    want = np.linalg.svd(dense, compute_uv=False)[0]
    got = circulant_operator_norm(layer, spatial)
    assert abs(got - want) <= 1e-10 * want


def test_circulant_norm_rejects_wrong_geometry():
    layer = ConvLayer(np.ones((1, 1, 3)), activation=IDENTITY)
    with pytest.raises(ShapeError):
        circulant_operator_norm(layer, (4, 4))


def test_circulant_norm_zero_layer():
    layer = ConvLayer(np.zeros((2, 2, 3)), activation=IDENTITY)
    assert circulant_operator_norm(layer, (6,)) == 0.0


@pytest.mark.parametrize(
    "shape,spatial",
    [
        ((3, 2, 5), (8,)),  # even width
        ((3, 2, 5), (7,)),  # odd width
        ((2, 3, 9), (4,)),  # kernel wider than the input
        ((2, 2, 3), (1,)),
        ((8, 8, 5), (32,)),
        ((2, 3, 3, 3), (4, 6)),
        ((2, 3, 3, 3), (5, 7)),
        ((3, 2, 3, 5), (6, 3)),
        ((2, 2, 5, 7), (3, 2)),  # both kernel dims wider than the input
        ((1, 1, 5), (8,)),  # one channel on each side: a rank-1 Gram
        ((1, 4, 3), (6,)),
        ((4, 1, 3), (6,)),
        ((3, 1, 3, 3), (4, 5)),
        ((5, 2, 3), (6,)),  # out > in: the Gram is taken on the input side
        ((2, 5, 3), (6,)),  # in > out
        ((4, 2, 3, 3), (4, 4)),
        ((2, 4, 3, 3), (4, 4)),
        ((3, 2, 5), (2,)),  # widths 1 and 2
        ((2, 3, 3, 3), (1, 2)),
        ((3, 2, 5, 3), (2, 1)),  # both kernel dims wider than the input
        ((64, 257, 5), (256,)),  # a training layer on a fine frequency grid
    ],
)
@pytest.mark.parametrize("stacked", [False, True])
def test_half_spectrum_norm_matches_full_spectrum(shape, spatial, stacked):
    rng = np.random.default_rng(23)
    weights = rng.standard_normal(((3,) if stacked else ()) + shape)
    for w in (weights, np.zeros_like(weights)):  # a zero layer's norm is exactly 0
        layer = ConvLayer(w, activation=IDENTITY, stacked=stacked)
        got = np.asarray(circulant_operator_norm(layer, spatial))
        want = np.asarray(full_spectrum_operator_norm(layer, spatial))
        assert got.shape == want.shape == ((3,) if stacked else ())
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        if stacked:
            for r in range(3):
                alone = circulant_operator_norm(ConvLayer(w[r], activation=IDENTITY), spatial)
                assert got[r] == alone


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "shape, spatial",
    [
        ((3, 1, 3, 3), (4, 4)),  # the bound-search family's first layer
        ((1, 3, 3, 3), (4, 4)),  # and its last
        ((1, 1, 3, 3), (5, 3)),
        ((1, 4, 5), (16,)),
        ((4, 1, 3), (7,)),
        ((2, 3, 3), (8,)),  # a 2×2 Gram still goes through eigvalsh
    ],
)
@pytest.mark.parametrize("stacked", [False, True])
def test_one_by_one_gram_norm_is_the_eigvalsh_norm(shape, spatial, stacked):
    rng = np.random.default_rng(24)
    for _ in range(20):
        weights = rng.standard_normal(((5,) if stacked else ()) + shape)
        layer = ConvLayer(weights, activation=IDENTITY, stacked=stacked)
        got = np.asarray(circulant_operator_norm(layer, spatial))
        assert got.tobytes() == np.asarray(eigvalsh_operator_norm(layer, spatial)).tobytes()


@pytest.fixture(scope="module")
def training_layers():
    """Every layer a short spectral run at the training geometry hands to
    the norm (257 -> 64 -> 64 -> 257 channels, kernel 5, 32 frames): the
    initial layers, each step's and the certificate's."""
    from lipsam import network as network_module
    from lipsam.trainer import SynthCorpusConfig, TrainConfig, train_denoiser

    seen = []

    def recording(layer, input_shape):
        seen.append((layer, input_shape))
        return circulant_operator_norm(layer, input_shape)

    config = TrainConfig(epochs=1, batch_size=4, lipschitz="spectral", seed=3)
    corpus = SynthCorpusConfig(item_count=9, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "circulant_operator_norm", recording)
        patch.setattr("lipsam.trainer.circulant_operator_norm", recording)
        train_denoiser(config, corpus)
    return seen


@pytest.mark.bitwise
def test_screened_norm_of_training_layers_is_the_eigvalsh_norm(training_layers):
    shapes = {layer.weights.shape for layer, _ in training_layers}
    assert shapes == {(64, 257, 5), (64, 64, 5), (257, 64, 5)}
    assert {sizes for _, sizes in training_layers} == {(32,)}
    for layer, sizes in training_layers:
        got = np.float64(circulant_operator_norm(layer, sizes))
        assert got.tobytes() == np.float64(eigvalsh_operator_norm(layer, sizes)).tobytes()


def centre_tap(matrices, kernel=3):
    """A layer whose only nonzero tap is the centre one, [out, in, kernel]."""
    weights = np.zeros(matrices.shape + (kernel,))
    weights[..., kernel // 2] = matrices
    return ConvLayer(weights, activation=IDENTITY)


def paired_channels(first, second, kernel_first, kernel_second, m=32):
    """A block-diagonal m x m layer: ``first`` maps channels 0 and 1 with the
    1-D kernel ``kernel_first``, ``second`` maps channels 2 and 3 with
    ``kernel_second``; every other weight is zero."""
    weights = np.zeros((m, m, len(kernel_first)))
    weights[:2, :2] = np.multiply.outer(first, kernel_first)
    weights[2:4, 2:4] = np.multiply.outer(second, kernel_second)
    return ConvLayer(weights, activation=IDENTITY)


def screened_case(name):
    rng = np.random.default_rng(25)
    if name == "tied":
        # every frequency's Gram is the identity: all tops tie exactly
        return centre_tap(np.eye(40)), (16,)
    if name == "within 1e-13":
        # a DC norm of 1 on channels 0-1 and a Nyquist norm 1e-13 above it
        # on channels 2-3, both tops' eigenvectors along the ones vector
        both = np.full((2, 2), 0.5)
        low, high = np.array([1.0, 2.0, 1.0]) / 4.0, np.array([-1.0, 2.0, -1.0]) / 4.0
        return paired_channels(both, both * (1.0 + 1e-13), low, high), (8,)
    if name == "wrong pick":
        # the DC top (1.0) has an eigenvector orthogonal to the ones vector,
        # so the power steps see nothing there and rank Nyquist (0.95²) first
        low, high = np.array([1.0, 2.0, 1.0]) / 4.0, np.array([-1.0, 2.0, -1.0]) / 4.0
        difference = np.array([[0.5, -0.5], [-0.5, 0.5]])
        return paired_channels(difference, 0.95 * np.abs(difference), low, high), (8,)
    if name == "zero":
        return ConvLayer(np.zeros((64, 64, 5)), activation=IDENTITY), (32,)
    if name == "2-D kernel":
        return ConvLayer(rng.standard_normal((40, 36, 3, 3)), activation=IDENTITY), (6, 8)
    if name == "fine grid":
        return ConvLayer(rng.standard_normal((64, 257, 5)), activation=IDENTITY), (256,)
    raise ValueError(name)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "name", ["tied", "within 1e-13", "wrong pick", "zero", "2-D kernel", "fine grid"]
)
def test_screened_norm_is_the_eigvalsh_norm_bit_for_bit(name, monkeypatch):
    layer, sizes = screened_case(name)
    want = np.float64(eigvalsh_operator_norm(layer, sizes))
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = circulant_operator_norm(layer, sizes)
    # one Gram at a time: the screen ran instead of the batched call
    assert all(shape == solved[0] and len(shape) == 2 for shape in solved)
    assert np.float64(got).tobytes() == want.tobytes()
    if name in ("tied", "within 1e-13", "wrong pick"):
        # the Grams whose tops reach the answer failed the screen
        assert len(solved) > 1
    if name == "wrong pick":
        assert got == 1.0
    if name == "zero":
        assert got == 0.0


@pytest.mark.parametrize("spatial", [(0,), (-2,), (2.5,), (4.0,), ("4",), ()])
@pytest.mark.parametrize("stacked", [False, True])
def test_circulant_norm_rejects_sizes_that_are_not_positive_integers(spatial, stacked):
    for kernel, sizes in (((3,), spatial), ((3, 3), (4,) + spatial)):
        weights = np.ones((2,) * stacked + (2, 3) + kernel)
        with pytest.raises(ShapeError):
            circulant_operator_norm(ConvLayer(weights, stacked=stacked), sizes)


def test_project_unit_ball_bounds_every_layer():
    rng = np.random.default_rng(12)
    big = ConvLayer(3.0 * rng.standard_normal((2, 2, 3)), activation=SOFTPLUS)
    small = ConvLayer(0.01 * rng.standard_normal((2, 2, 3)), activation=IDENTITY)
    projected = project_unit_ball(ConvNet((big, small), scale=2.0), (8,))
    assert projected.scale == 2.0
    tops = [
        np.linalg.svd(materialize_1d(layer.weights, 8), compute_uv=False)[0]
        for layer in projected.layers
    ]
    assert all(top <= 1.0 for top in tops)
    # the clipped layer lands on the sphere, the feasible one is untouched
    assert tops[0] > 1.0 - 1e-9
    assert projected.layers[1] is small
    np.testing.assert_array_equal(projected.layers[0].bias, big.bias)
    assert projected.layers[0].activation == big.activation


def test_project_unit_ball_returns_feasible_net_unchanged():
    rng = np.random.default_rng(13)
    net = ConvNet(
        (
            ConvLayer(5.0 * rng.standard_normal((2, 2, 3, 3)), activation=SOFTPLUS),
            ConvLayer(np.zeros((1, 2, 3, 3)), activation=IDENTITY),
        )
    )
    once = project_unit_ball(net, (4, 4))
    assert once is not net
    assert project_unit_ball(once, (4, 4)) is once


@pytest.mark.parametrize("seed", range(3))
def test_projection_of_a_projected_training_net_is_a_fixed_point(seed):
    # the training geometry: 257 -> 64 -> 64 -> 257 channels, kernel 5, 32 frames
    rng = np.random.default_rng(seed)
    shapes = ((64, 257, 5), (64, 64, 5), (257, 64, 5))
    net = ConvNet(tuple(ConvLayer(rng.standard_normal(shape)) for shape in shapes))
    once = project_unit_ball(net, (32,))
    for layer in once.layers:
        assert 1.0 - 1e-9 < circulant_operator_norm(layer, (32,)) <= 1.0
    assert project_unit_ball(once, (32,)) is once


def test_lipschitz_upper_bound_product():
    rng = np.random.default_rng(14)
    layers = tuple(
        certify_layer(
            ConvLayer(rng.standard_normal((2, 2, 3)), activation=LEAKY_RELU), (8,), target=t
        )
        for t in (1.0, 2.0)
    )
    net = ConvNet(layers, scale=-0.5)
    assert abs(lipschitz_upper_bound(net) - 1.0) < 1e-12


def test_lipschitz_upper_bound_requires_certificates():
    net = ConvNet((ConvLayer(np.ones((1, 1, 3))),))
    with pytest.raises(UncertifiedError):
        lipschitz_upper_bound(net)


def test_certified_bound_is_sound_on_random_pairs():
    rng = np.random.default_rng(15)
    layers = tuple(
        certify_layer(
            ConvLayer(2.0 * rng.standard_normal((3, 3, 3)), activation=SOFTPLUS), (8,)
        )
        for _ in range(2)
    )
    net = ConvNet(layers, scale=1.3)
    bound = lipschitz_upper_bound(net)
    for _ in range(500):
        x = rng.standard_normal((3, 8))
        y = rng.standard_normal((3, 8))
        fx, _ = forward(net, x)
        fy, _ = forward(net, y)
        lhs = np.linalg.norm(fx - fy)
        rhs = bound * np.linalg.norm(x - y)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------- adam


def test_adam_single_step_analytic():
    theta = np.array([0.0, 2.0])
    grad = np.array([1.0, -4.0])
    state = AdamState.init(theta, learning_rate=0.1)
    new_theta, new_state = adam_step(theta, grad, state)
    # bias correction makes the first step exactly -lr * g / (|g| + eps)
    np.testing.assert_allclose(new_theta, [-0.1, 2.1], rtol=0.0, atol=1e-8)
    assert new_state.step_count == 1


def test_adam_rejects_nan_gradient():
    theta = np.zeros(3)
    state = AdamState.init(theta)
    with pytest.raises(NonFiniteError):
        adam_step(theta, np.array([1.0, np.nan, 0.0]), state)


def test_adam_rejects_shape_mismatch():
    theta = np.zeros(3)
    state = AdamState.init(theta)
    with pytest.raises(ShapeError):
        adam_step(theta, np.zeros(4), state)
    with pytest.raises(ShapeError):
        adam_step(np.zeros(4), np.zeros(4), state)


def test_adam_deterministic_sequence():
    rng = np.random.default_rng(16)
    theta = rng.standard_normal(4)
    grad = rng.standard_normal(4)
    state_a = AdamState.init(theta, learning_rate=0.01)
    state_b = AdamState.init(theta, learning_rate=0.01)
    pa, sa = adam_step(theta, grad, state_a)
    pb, sb = adam_step(theta, grad, state_b)
    np.testing.assert_array_equal(pa, pb)
    pa2, _ = adam_step(pa, grad, sa)
    pb2, _ = adam_step(pb, grad, sb)
    np.testing.assert_array_equal(pa2, pb2)


def test_flat_adam_matches_the_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    net = make_net_1d(rng, channels=(3, 5, 4, 2))
    theta = net.flatten_parameters()
    state = AdamState.init(theta, learning_rate=0.05)
    params = net.parameters()
    reference = ReferenceAdamState.init(params, learning_rate=0.05)
    x = rng.standard_normal((2, 3, 7))
    for _ in range(5):
        current = net.with_parameters(theta)
        out, cache = forward(current, x)
        grad, _ = backward(cache, out - 0.5)
        grads = current.with_parameters(grad).parameters()  # the same vector, per array
        theta, state = adam_step(theta, grad, state)
        params, reference = reference_adam_step(params, grads, reference)
        flat = np.concatenate([p.reshape(-1) for p in params])
        assert theta.tobytes() == flat.tobytes()
    assert state.step_count == reference.step_count == 5


# ---------------------------------------------------------------- weights io


def saved(tmp_path, net):
    path = tmp_path / "weights.bin"
    save_net(path, net)
    return path


def assert_same_net(a, b):
    assert a.scale == b.scale
    assert len(a.layers) == len(b.layers)
    for x, y in zip(a.layers, b.layers):
        assert x.weights.shape == y.weights.shape
        assert x.weights.tobytes() == y.weights.tobytes()
        assert (x.bias is None) == (y.bias is None)
        assert x.bias is None or x.bias.tobytes() == y.bias.tobytes()
        assert x.activation == y.activation
        assert x.norm_certificate == y.norm_certificate


def test_save_load_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(17)
    net = make_net_1d(rng, channels=(3, 5, 2), activation=LEAKY_RELU, scale=0.9)
    path = saved(tmp_path, net)
    loaded = load_net(path)
    assert_same_net(net, loaded)
    save_net(tmp_path / "again.bin", loaded)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_save_load_round_trips_every_layer_kind(tmp_path):
    # 2-D layers, every activation, a slope off the default, with and
    # without bias and certificate, and a negative scale
    rng = np.random.default_rng(26)
    layers = (
        ConvLayer(rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2),
                  activation=Activation("leaky_relu", -0.3), norm_certificate=2.5),
        ConvLayer(rng.standard_normal((3, 2, 1, 5)), activation=SOFTPLUS),
        ConvLayer(rng.standard_normal((1, 3, 3, 1)), rng.standard_normal(1),
                  activation=IDENTITY, norm_certificate=0.0),
    )
    net = ConvNet(layers, scale=-1.25)
    assert_same_net(net, load_net(saved(tmp_path, net)))


def test_save_load_preserves_certificates(tmp_path):
    layer = certify_layer(ConvLayer(np.ones((1, 1, 3))), (8,), target=1.0)
    net = ConvNet((layer,))
    loaded = load_net(saved(tmp_path, net))
    assert loaded.layers[0].norm_certificate == 1.0


def test_load_rejects_truncated_stream(tmp_path):
    rng = np.random.default_rng(18)
    path = saved(tmp_path, make_net_1d(rng))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(FormatError):
        load_net(path)


def test_load_rejects_corrupted_payload(tmp_path):
    rng = np.random.default_rng(19)
    net = make_net_1d(rng)
    path = saved(tmp_path, net)
    blob = bytearray(path.read_bytes())
    blob[blob.find(net.layers[0].weights.tobytes()) + 5] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="CRC"):
        load_net(path)


def test_every_flipped_byte_is_caught_or_harmless(tmp_path):
    # a flip in the zip bookkeeping (a member's date, say) may leave the net
    # intact; any flip that would change the net must raise
    net = ConvNet((ConvLayer(np.ones((2, 2, 3)), np.zeros(2), norm_certificate=1.0),))
    blob = saved(tmp_path, net).read_bytes()
    path = tmp_path / "flipped.bin"
    for i in range(len(blob)):
        path.write_bytes(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :])
        try:
            loaded = load_net(path)
        except FormatError:
            continue
        assert_same_net(net, loaded)


def test_load_rejects_a_damaged_shape_in_a_large_member(tmp_path):
    # numpy reads only the bytes the (damaged) header promises, so zipfile
    # never reaches the member's end to check its CRC during that read
    net = ConvNet((ConvLayer(np.ones((64, 33, 5))),))
    path = saved(tmp_path, net)
    blob = path.read_bytes()
    at = blob.index(b"(64, 33, 5)") + len(b"(64, 33, ")
    path.write_bytes(blob[:at] + b"3" + blob[at + 1 :])
    with pytest.raises(FormatError, match="CRC"):
        load_net(path)


@pytest.mark.parametrize("contents", [
    b"",
    b"LSAMNET1\x01\x00\x00\x00" + bytes(32),  # a file of the retired hand-rolled format
    b"XXXXXXXX" + bytes(32),
], ids=["empty", "old-format", "foreign"])
def test_load_rejects_an_empty_or_foreign_file(tmp_path, contents):
    path = tmp_path / "weights.bin"
    path.write_bytes(contents)
    with pytest.raises(FormatError):
        load_net(path)


def write_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.ones(3))


@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"LSAMNET1"),
    lambda path: path.write_text("not a weight file\n"),
    write_npy,
], ids=["old-format-magic", "text", "bare-npy"])
def test_load_names_a_file_that_is_no_npz_archive(tmp_path, write):
    # numpy's own message for such a file advises loading it with pickle
    path = tmp_path / "weights.bin"
    write(path)
    with pytest.raises(FormatError, match="not an npz archive written by save_net") as caught:
        load_net(path)
    assert "pickle" not in str(caught.value)


@pytest.mark.parametrize("field,value", [
    ("certificate", float("nan")),
    ("certificate", float("inf")),
    ("certificate", -1.0),
    ("slope", float("nan")),
    ("slope", float("inf")),
])
def test_load_rejects_invalid_certificate_or_slope(tmp_path, field, value):
    rng = np.random.default_rng(23)
    path = saved(tmp_path, make_net_1d(rng, activation=LEAKY_RELU))
    rewrite_member(path, f"{field}_0", np.float64(value))
    with pytest.raises(FormatError):
        load_net(path)


@pytest.mark.parametrize("name,value", [
    ("weights_0", np.ones((4, 3))),
    ("weights_0", np.ones((4, 3, 3), dtype=complex)),  # ConvLayer alone would drop the imaginary part
    ("slope_0", np.float32(0.1)),
    ("activation_0", np.str_("tanh")),
    ("scale", np.ones(2)),
    ("bias_2", np.ones(2)),  # a member no layer reads
], ids=["rank-2-weights", "complex-weights", "float32-slope", "unknown-activation",
        "vector-scale", "unread-member"])
def test_load_rejects_a_bad_or_unread_member(tmp_path, name, value):
    rng = np.random.default_rng(23)
    path = saved(tmp_path, make_net_1d(rng, activation=LEAKY_RELU))
    rewrite_member(path, name, value)
    with pytest.raises(FormatError):
        load_net(path)


@pytest.mark.parametrize("name", ["scale", "weights_0", "slope_1", "activation_1"])
def test_load_rejects_a_missing_member(tmp_path, name):
    rng = np.random.default_rng(23)
    path = saved(tmp_path, make_net_1d(rng))
    with np.load(path, allow_pickle=False) as archive:
        members = {key: archive[key] for key in archive.files if key != name}
    with open(path, "wb") as handle:
        np.savez(handle, **members)
    with pytest.raises(FormatError):
        load_net(path)


def test_load_accepts_rechecksummed_valid_header(tmp_path):
    rng = np.random.default_rng(23)
    path = saved(tmp_path, make_net_1d(rng, activation=LEAKY_RELU))
    rewrite_member(path, "slope_0", np.float64(0.2))
    rewrite_member(path, "certificate_0", np.float64(0.5))
    loaded = load_net(path)
    assert loaded.layers[0].activation.slope == 0.2
    assert loaded.layers[0].norm_certificate == 0.5


@pytest.mark.bitwise
@pytest.mark.parametrize("slope", [0.1, 0.5, 1.0, 0.0, 1.5, -0.2])
def test_leaky_relu_matches_the_where_form_bit_for_bit(slope):
    rng = np.random.default_rng(25)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]
    v = np.concatenate([special, rng.standard_normal(200), rng.standard_normal(200) * 1e-310])
    with np.errstate(invalid="ignore"):
        got = Activation("leaky_relu", slope)(v)
        want = np.where(v > 0.0, v, slope * v)
    assert got.tobytes() == want.tobytes()


def test_layer_rejects_non_finite_certificate_and_slope():
    for certificate in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteError):
            ConvLayer(np.ones((1, 1, 3)), norm_certificate=certificate)
    with pytest.raises(ValueError):
        ConvLayer(np.ones((1, 1, 3)), norm_certificate=-1.0)
    with pytest.raises(NonFiniteError):
        Activation("leaky_relu", float("nan"))


def test_save_net_writes_sidecar(tmp_path):
    rng = np.random.default_rng(21)
    net = make_net_1d(rng)
    path = tmp_path / "weights.bin"
    save_net(path, net, metadata={"kind": "am_se", "hop": 32})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.bin", "weights.bin.json"]
    loaded = load_net(path)
    out_a, _ = forward(net, np.ones((3, 6)))
    out_b, _ = forward(loaded, np.ones((3, 6)))
    np.testing.assert_array_equal(out_a, out_b)
    import json

    sidecar = json.loads((tmp_path / "weights.bin.json").read_text())
    assert sidecar == {"kind": "am_se", "hop": 32}
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files[-1] == "scale"


def test_flatten_with_parameters_round_trip():
    rng = np.random.default_rng(22)
    net = make_net_1d(rng)
    vec = net.flatten_parameters()
    rebuilt = net.with_parameters(vec)
    out_a, _ = forward(net, np.ones((3, 6)))
    out_b, _ = forward(rebuilt, np.ones((3, 6)))
    np.testing.assert_array_equal(out_a, out_b)
    with pytest.raises(ShapeError):
        net.with_parameters(vec[:-1])


# ---------------------------------------------------------------- trial stacks


def _stack_template(rank):
    if rank == 1:
        shapes = ((3, 2, 3), (2, 3, 5))
    else:
        shapes = ((2, 1, 3, 3), (1, 2, 3, 1))
    layers = tuple(
        ConvLayer(np.zeros(shape), np.zeros(shape[0]), activation=act)
        for shape, act in zip(shapes, (SOFTPLUS, IDENTITY))
    )
    return ConvNet(layers, scale=1.5)


@pytest.mark.bitwise
@pytest.mark.parametrize("rank, spatial", [(1, (6,)), (2, (4, 5))])
def test_stacked_net_matches_each_trial_bit_for_bit(rank, spatial):
    rng = np.random.default_rng(31)
    template = _stack_template(rank)
    thetas = 2.0 * rng.standard_normal((3, template.parameter_count))
    thetas[0] *= 0.01  # inside the unit ball: projection must leave it alone
    stacked = template.with_parameters(thetas)
    assert stacked.stacked and stacked.is_2d == (rank == 2)
    assert stacked.flatten_parameters().tobytes() == thetas.tobytes()
    x = rng.standard_normal((3, 2, template.in_channels) + spatial)
    upstream = rng.standard_normal((3, 2, template.out_channels) + spatial)
    out, cache = forward(stacked, x)
    grads, gx = backward(cache, upstream)
    assert grads.shape == thetas.shape
    projected = project_unit_ball(stacked, spatial).flatten_parameters()
    for r, theta in enumerate(thetas):
        net = template.with_parameters(theta)
        out_r, cache_r = forward(net, x[r])
        grads_r, gx_r = backward(cache_r, upstream[r])
        assert out[r].tobytes() == out_r.tobytes()
        assert gx[r].tobytes() == gx_r.tobytes()
        assert grads[r].tobytes() == grads_r.tobytes()
        for layer, layer_r in zip(stacked.layers, net.layers):
            norm = circulant_operator_norm(layer_r, spatial)
            assert circulant_operator_norm(layer, spatial)[r] == norm
        want = project_unit_ball(net, spatial).flatten_parameters()
        assert projected[r].tobytes() == want.tobytes()
    assert projected[0].tobytes() == thetas[0].tobytes()


@pytest.mark.bitwise
@pytest.mark.parametrize("rank, spatial", [(1, (6,)), (1, (2,)), (2, (4, 5)), (2, (4, 4))])
def test_stacked_jvp_matches_each_trial_bit_for_bit(rank, spatial):
    # the bound search pushes every trial's unit tangents through one
    # stacked or shared net and must reproduce each trial alone bit for bit
    rng = np.random.default_rng(37)
    template = _stack_template(rank)
    thetas = rng.standard_normal((3, template.parameter_count))
    stacked = template.with_parameters(thetas)
    x = rng.standard_normal((3, template.in_channels) + spatial)
    tangents = rng.standard_normal((3, 5, template.in_channels) + spatial)
    _, cache = forward(stacked, x)
    out = jvp(cache, tangents)
    assert out.shape == (3, 5, template.out_channels) + spatial
    shared = template.with_parameters(thetas[0])
    _, shared_cache = forward(shared, x)
    shared_out = jvp(shared_cache, tangents)
    for r, theta in enumerate(thetas):
        net = template.with_parameters(theta)
        _, cache_r = forward(net, x[r])
        assert out[r].tobytes() == jvp(cache_r, tangents[r]).tobytes()
        _, cache_0 = forward(shared, x[r])
        assert shared_out[r].tobytes() == jvp(cache_0, tangents[r]).tobytes()


@pytest.mark.parametrize("stacked", [False, True])
def test_forward_and_jvp_build_each_dense_operator_once(stacked, monkeypatch):
    # the bound search's objective runs forward, then jvp, on every net it
    # builds, and its ascent backward with the input gradient; on its 4x4
    # grid every layer goes through the dense operator
    import lipsam.network as network

    builds = []

    def counting(*args):
        builds.append(args[1])
        return _dense_operator(*args)

    monkeypatch.setattr(network, "_dense_operator", counting)
    rng = np.random.default_rng(39)
    shapes = ((3, 1, 3, 3), (3, 3, 3, 3), (1, 3, 3, 3))  # the bound search's net
    template = ConvNet(tuple(ConvLayer(np.zeros(shape), np.zeros(shape[0])) for shape in shapes))
    thetas = rng.standard_normal((2, template.parameter_count))
    net = template.with_parameters(thetas if stacked else thetas[0])
    x = rng.standard_normal(((2,) if stacked else ()) + (template.in_channels, 4, 4))
    out, cache = forward(net, x)
    jvp(cache, np.expand_dims(x, -4))
    backward(cache, out)
    forward(net, x)
    assert builds == [(4, 4)] * len(net.layers)


@pytest.mark.parametrize("rank, spatial", [(1, (6,)), (2, (4, 5))])
def test_jvp_is_the_adjoint_of_backward(rank, spatial):
    rng = np.random.default_rng(38)
    net = _stack_template(rank)
    net = net.with_parameters(rng.standard_normal(net.parameter_count))
    x = rng.standard_normal((2, net.in_channels) + spatial)
    tangents = rng.standard_normal((2, 3, net.in_channels) + spatial)
    upstream = rng.standard_normal((2, 3, net.out_channels) + spatial)
    _, cache = forward(net, x)
    pushed = jvp(cache, tangents)
    for k in range(3):
        _, pulled = backward(cache, upstream[:, k])
        left = np.vdot(pushed[:, k], upstream[:, k])
        scale = np.linalg.norm(pushed[:, k]) * np.linalg.norm(upstream[:, k])
        assert abs(left - np.vdot(tangents[:, k], pulled)) <= 1e-12 * scale
    with pytest.raises(ShapeError):
        jvp(cache, tangents[:, :, :, :-1])


def test_stacked_layer_takes_its_trial_axis_from_the_flag(tmp_path):
    w = np.zeros((2, 3, 3, 5))  # one 2-D layer, or two stacked 1-D layers
    assert ConvLayer(w).is_2d and ConvLayer(w).in_channels == 3
    layer = ConvLayer(w, np.zeros((2, 3)), stacked=True)
    assert not layer.is_2d and (layer.out_channels, layer.in_channels) == (3, 3)
    with pytest.raises(ShapeError):
        ConvLayer(w, np.zeros(2), stacked=True)
    net = ConvNet((layer,))
    assert forward(net, np.zeros((2, 3, 4)))[0].shape == (2, 3, 4)
    with pytest.raises(ShapeError):
        forward(net, np.zeros((3, 3, 4)))
    with pytest.raises(ShapeError):
        save_net(tmp_path / "stacked.bin", net)
    with pytest.raises(ShapeError):
        net.with_parameters(net.flatten_parameters())
    with pytest.raises(ShapeError):
        ConvNet((layer, ConvLayer(np.zeros((3, 3, 5)))))


@pytest.mark.bitwise
def test_inference_pass_equals_the_differentiable_forward():
    # the solver's unbatched 33×128, a [6, 257, 32] validation batch of the
    # CLI-default spectral net, and the bound search's stacked 1→3→3→1 net
    # on 4×4 (dense form)
    from lipsam.lipschitz import conv2d_family
    from lipsam.trainer import TrainConfig, build_denoiser_net

    rng = np.random.default_rng(61)
    family = conv2d_family("am_se")
    stacked = family.build(np.stack([family.sample_parameters(rng) for _ in range(3)])).inner.net
    cases = [
        (quick_train("re", "spectral"), (33, 128), (33, 96)),
        (build_denoiser_net(TrainConfig(lipschitz="spectral")), (6, 257, 32), (2, 257, 32)),
        (stacked, (3, 1, 4, 4), (3, 5, 1, 4, 4)),
    ]
    for net, shape, other in cases:
        # two inputs of one shape and one of another, interleaved on one net,
        # so that nothing one call leaves in the net's buffers reaches the next
        for input_shape in (shape, other, shape, shape):
            x = np.abs(rng.standard_normal(input_shape))
            want = forward(net, x)[0]
            out = np.empty_like(want)
            assert _apply(net, x, out) is out
            assert out.tobytes() == want.tobytes()
