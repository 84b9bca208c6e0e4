"""Empirical Lipschitz analysis of amplitude modifiers.

The headline tool is ``estimate_B``: a multi-restart projected gradient
ascent that searches input coefficients (and, for parametric families, the
inner-network weights) for large Jacobian operator norms.  The resulting
maximum is a lower bound on the true Lipschitz constant, to be compared
against the certified upper bound of safeguarded architectures.  The
restarts of one search advance in lockstep as one batch: each round takes
one stacked ascent gradient for the trials that just climbed and one
stacked projection, Jacobian and SVD for every trial that awaits the
verdict on a start or a step, and every trial still follows exactly the
path it would follow alone.

The Jacobians are exact and use the polar structure of the modifier,
D(z) = A(|z|) sign(z): with R and T the orthonormal radial and tangential
unit vectors of the coefficients, J = R J_A Rᵀ + T diag(A/|z|) Tᵀ
(``modifier_jacobian``), so the top singular value of the realified 2n×2n
Jacobian is the larger of that of the n×n amplitude Jacobian J_A and the
largest ratio A/|z| (``_objective``).  J_A comes from pushing the n unit
tangents through the inner map's JVP in one pass.

The same search serves every inner map, piecewise-linear nets (leaky
relu) included: off every kink such a net is locally linear, so its exact
Jacobian is the derivative of the modifier there and a limit of difference
quotients.  ``counterexample_bias`` / ``counterexample_permutation``
reproduce the two analytic blow-up constructions for unguarded
architectures.
"""

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    NonFiniteError,
    ShapeError,
    UnboundedModifierError,
    UncertifiedError,
)
from .modifier import (
    KINDS,
    SAFEGUARDED_KINDS,
    BiasAdd,
    ModifierArchitecture,
    NetMap,
    PermutationMap,
    amplitude_jacobian,
    apply_to_values,
    modifier_backward,
    modifier_forward,
    safeguard_bound,
    theoretical_bound,
)
from .network import IDENTITY, SOFTPLUS, ConvLayer, ConvNet, project_unit_ball

_STEP_FLOOR = 1e-12
# central-difference step of the ascent secant; the Jacobians are exact
FD_EPSILON = 1e-5


# ---------------------------------------------------------------------------
# jacobians and operator norms


def modifier_jacobian(arch: ModifierArchitecture, values: np.ndarray):
    """The polar parts of the realified modifier Jacobians at a stack of
    complex points [trials, *shape] of n coefficients each.

    With x = |z| and s = sign(z), D(z) = A(x) s differentiates to
    J = R J_A Rᵀ + T diag(A / x) Tᵀ, where column i of R is coefficient i's
    realified radial unit vector s_i and column i of T its tangential unit
    vector i s_i.  One forward pass at the points gives the amplitudes and
    ``amplitude_jacobian`` the exact [trials, n, n] J_A; ``arch`` is either
    shared by the trials or stacked over them.  A coefficient at exactly 0
    has sign 0 and so no radial or tangential column: its row and column of
    J_A and its ratio read 0.

    Returns (J_A, ratios A / x [trials, n], signs [trials, n], and a
    [trials] mask of the trials whose amplitudes and parts are all finite).
    """
    trials = values.shape[0]
    _, cache = modifier_forward(arch, values)
    x = cache.x.reshape(trials, -1)
    a = cache.a.reshape(trials, -1)
    nonzero = x > 0.0
    jac = np.where(nonzero[:, :, None] & nonzero[:, None, :], amplitude_jacobian(cache), 0.0)
    ratio = np.divide(a, x, out=np.zeros_like(a), where=nonzero)
    finite = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(ratio), axis=1)
    finite &= np.all(np.isfinite(jac.reshape(trials, -1)), axis=1)
    return jac, ratio, cache.sign.reshape(trials, -1), finite


def top_singular_triple(matrix: np.ndarray):
    """(sigma, u, v) for the top singular direction of a dense matrix, or
    arrays of them for a stack of matrices, from one (stacked) SVD."""
    u, s, vh = np.linalg.svd(np.asarray(matrix, dtype=np.float64), full_matrices=False)
    return s[..., 0], u[..., :, 0], vh[..., 0, :]


# ---------------------------------------------------------------------------
# search configuration and results


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the adversarial bound search.

    Ascent directions differentiate a two-point secant surrogate of the top
    singular value through the modifier's backward pass: two forward and
    two backward passes per step.  The secant step is the fixed
    ``FD_EPSILON``; the objective's Jacobians are exact and take no step.
    Starting points are standard normal draws.
    """

    restarts: int = 100
    max_iterations: int = 100
    step_size: float = 0.1
    termination_threshold: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 0:
            raise DomainError("restarts must be >= 1 and max_iterations >= 0")
        if not all(0.0 < knob < np.inf for knob in (self.step_size, self.termination_threshold)):
            raise DomainError("step_size and termination_threshold must be positive and finite")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class TrialRecord:
    """One restart of ``estimate_B``.

    ``iterations`` counts ascent steps (the last one may find no better
    point), ``evaluations`` every objective evaluation, start redraws
    included, and ``backtracks`` the step candidates that were rejected.
    The restarts of a search run as one batch, so ``wall_time`` is the
    seconds from the start of the search until this trial settled.
    """

    trial: int
    value: float
    iterations: int
    terminated_early: bool
    wall_time: float
    evaluations: int = 0
    backtracks: int = 0


@dataclass(frozen=True, eq=False)
class LipschitzEstimate:
    """Outcome of one ``estimate_B`` run.

    ``value`` is the largest exact Jacobian norm found.  Where the modifier
    is differentiable, which for a leaky-relu inner net is everywhere off
    its kinks, the Jacobian norm is a limit of difference quotients, so the
    value is an empirical lower bound on the true Lipschitz constant, up to
    rounding.  ``certified_bound`` is the family's theoretical upper bound,
    or None when the family certifies nothing.
    """

    value: float
    certified_bound: Optional[float]
    witness_values: np.ndarray
    witness_parameters: np.ndarray
    witness_trial: int
    records: tuple

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.records)

    def violates_bound(self, tolerance: float = 0.01) -> bool:
        """True when the empirical value exceeds the certificate it should obey."""
        if self.certified_bound is None:
            return False
        return self.value > self.certified_bound + tolerance


# ---------------------------------------------------------------------------
# modifier families


@dataclass(frozen=True, eq=False)
class ModifierFamily:
    """A parametric set of modifiers on complex inputs of ``input_shape``.

    ``sample_parameters`` draws a flat parameter vector, ``build`` turns one
    into a concrete architecture, and ``project`` (optional) maps parameters
    back onto the feasible set after each ascent step; constrained families
    use it to keep every inner layer inside the unit operator-norm ball so
    that ``certified_bound`` stays valid throughout the search.

    ``build`` and ``project`` also take a [trials, P] stack of parameter
    vectors, which is how ``estimate_B`` advances its restarts together:
    ``project`` then maps each row, and ``build`` returns one architecture
    that applies trial r's modifier to slice r of inputs with a leading
    trial axis, either through a stacked inner net or because the family
    has one modifier for all trials.
    """

    input_shape: tuple
    parameter_count: int
    sample_parameters: Callable[[np.random.Generator], np.ndarray]
    build: Callable[[np.ndarray], ModifierArchitecture]
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    certified_bound: Optional[float] = None

    def __post_init__(self):
        shape = tuple(int(s) for s in self.input_shape)
        if not shape or any(s <= 0 for s in shape):
            raise ShapeError("input_shape must be nonempty and positive")
        object.__setattr__(self, "input_shape", shape)
        if self.parameter_count < 0:
            raise DomainError("parameter_count must be nonnegative")


def conv2d_family(
    kind: str,
    scale: float = 1.0,
    constrained: Optional[bool] = None,
    hidden_channels: tuple = (3, 3),
    kernel_size: int = 3,
    input_shape: tuple = (4, 4),
) -> ModifierFamily:
    """Small 2-D convolutional inner nets on single-channel magnitude patches.

    Hidden layers are SoftPlus, the final layer is linear, and ``scale``
    multiplies the net output.  Constrained families (the default for
    safeguarded kinds) project every layer onto the unit operator-norm ball,
    so the inner map is ``scale``-Lipschitz and the family carries the
    matching certified bound.  Unconstrained families have biased layers,
    giving the search the offsets it needs to expose unguarded blow-ups
    near zero; constrained ones have none.
    """
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    if constrained is None:
        constrained = kind in SAFEGUARDED_KINDS
    if scale <= 0.0:
        raise DomainError("scale must be positive")
    spatial = tuple(int(s) for s in input_shape)
    if len(spatial) != 2:
        raise ShapeError("conv2d_family expects a 2-D input_shape")

    chain = (1,) + tuple(int(c) for c in hidden_channels) + (1,)
    layers = []
    for index, (c_in, c_out) in enumerate(zip(chain, chain[1:])):
        act = IDENTITY if index == len(chain) - 2 else SOFTPLUS
        bias = None if constrained else np.zeros(c_out)
        layers.append(
            ConvLayer(np.zeros((c_out, c_in, kernel_size, kernel_size)), bias, activation=act)
        )
    template = ConvNet(tuple(layers), scale=scale)

    def sample_parameters(rng: np.random.Generator) -> np.ndarray:
        drawn = []
        for layer in template.layers:
            w = rng.standard_normal(layer.weights.shape) / np.sqrt(layer.weights[0].size)
            b = None if layer.bias is None else 0.3 * rng.standard_normal(layer.bias.size)
            drawn.append(replace(layer, weights=w, bias=b))
        return ConvNet(tuple(drawn), scale).flatten_parameters()

    def build(theta: np.ndarray) -> ModifierArchitecture:
        # a [trials, P] stack builds one stacked net
        return ModifierArchitecture(kind, NetMap(template.with_parameters(theta)))

    project = None
    if constrained:

        def project(theta: np.ndarray) -> np.ndarray:
            return project_unit_ball(template.with_parameters(theta), spatial).flatten_parameters()

    certified = safeguard_bound(kind, scale) if constrained and kind in SAFEGUARDED_KINDS else None

    return ModifierFamily(
        input_shape=spatial,
        parameter_count=template.parameter_count,
        sample_parameters=sample_parameters,
        build=build,
        project=project,
        certified_bound=certified,
    )


def fixed_modifier_family(arch: ModifierArchitecture, input_shape: tuple) -> ModifierFamily:
    """Wrap one concrete modifier so the search optimizes inputs only; its
    trials share the modifier, so only their inputs are stacked."""
    try:
        bound = theoretical_bound(arch)
    except (UnboundedModifierError, UncertifiedError):
        bound = None
    return ModifierFamily(
        input_shape=tuple(input_shape),
        parameter_count=0,
        sample_parameters=lambda rng: np.zeros(0),
        build=lambda theta: arch,
        project=None,
        certified_bound=bound,
    )


# ---------------------------------------------------------------------------
# the lockstep search


def _objective(family: ModifierFamily, thetas: np.ndarray, z: np.ndarray):
    """Top singular triples of the realified modifier Jacobians at a stack
    of trials.

    ``thetas`` is [trials, P] and ``z`` is [trials, *input_shape] with n
    coefficients.  [R T] of ``modifier_jacobian`` is orthogonal, so
    sigma_max(J) is the larger of sigma_max(J_A) and the largest ratio
    A_i / x_i.  When J_A wins (ties included) its top singular pair maps to
    u = R u_A and v = R v_A; when coefficient i's ratio wins, u = v = t_i.
    As complex arrays, R u_A is sign(z) u_A and t_i is i sign(z_i) at
    coefficient i.  One SVD of the [trials, n, n] J_A stack serves every
    trial.  Returns (sigma [trials], u, v [trials, *input_shape] complex);
    sigma is nan for every trial whose parameters, Jacobian parts or SVD
    are not finite.
    """
    trials = z.shape[0]
    n = z[0].size
    sigma = np.full(trials, np.nan)
    u = np.zeros(z.shape, dtype=np.complex128)
    v = np.zeros(z.shape, dtype=np.complex128)
    rows = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    if rows.size:
        jac, ratio, sign, finite = modifier_jacobian(family.build(thetas[rows]), z[rows])
        rows, jac, ratio, sign = rows[finite], jac[finite], ratio[finite], sign[finite]
    if rows.size:
        try:
            top, top_u, top_v = top_singular_triple(jac)
        except np.linalg.LinAlgError:
            # a matrix LAPACK cannot decompose costs only its own trial
            top = np.full(rows.size, np.nan)
            top_u, top_v = np.zeros((2, rows.size, n))
            for k, matrix in enumerate(jac):
                try:
                    top[k], top_u[k], top_v[k] = top_singular_triple(matrix)
                except np.linalg.LinAlgError:
                    pass
        index = np.arange(rows.size)
        spin = np.argmax(ratio, axis=1)
        spin_ratio = ratio[index, spin]
        # ties go to J_A, and a nan top (failed SVD) stays nan
        tangential = spin_ratio > top
        top = np.where(tangential, spin_ratio, top)
        u_c, v_c = sign * top_u, sign * top_v
        turn = np.zeros_like(sign)
        turn[index, spin] = 1j * sign[index, spin]
        u_c[tangential] = v_c[tangential] = turn[tangential]
        keep = np.isfinite(top)
        rows = rows[keep]
        sigma[rows] = top[keep]
        shape = (-1,) + z.shape[1:]
        u[rows], v[rows] = u_c[keep].reshape(shape), v_c[keep].reshape(shape)
    return sigma, u, v


def _ascent_gradient(family, thetas, z, u, v, eps):
    """Ascent directions at a stack of trials: the complex z parts
    [trials, *input_shape] and the flat theta parts [trials, P].

    Differentiates the secant surrogate Re<u, D(z + eps v) - D(z - eps v)>
    / (2 eps) of each top singular value through the modifier's backward
    pass, with both secant points of every trial in one stacked pass.
    """
    trials, shape = z.shape[0], z.shape[1:]
    signs = (1.0, -1.0)
    points = np.stack([z + sign * eps * v for sign in signs], axis=1)
    # rows 2r and 2r + 1 hold trial r's secant points, each with its own copy
    # of the trial's parameters, so that no parameter gradient mixes them
    arch = family.build(np.repeat(thetas, 2, axis=0))
    _, cache = modifier_forward(arch, points.reshape((2 * trials,) + shape))
    grad_theta, gz = modifier_backward(cache, np.repeat(u, 2, axis=0))
    gz = gz.reshape((trials, 2) + shape)
    grad_z = np.zeros(z.shape, dtype=np.complex128)
    grad_t = np.zeros(thetas.shape)
    # a fixed family carries no search parameters even when the wrapped net
    # itself has weights, so key off grad_t, not grad_theta
    with_t = grad_t.size and grad_theta is not None
    if with_t:
        gt = grad_theta.reshape(trials, 2, -1)
    for k, sign in enumerate(signs):
        grad_z += (sign / (2.0 * eps)) * gz[:, k]
        if with_t:
            grad_t += (sign / (2.0 * eps)) * gt[:, k]
    return grad_z, grad_t


# what a trial waits for in the next round of the lockstep search
_DRAW, _CLIMB, _TRY, _SETTLED = range(4)
_START_DRAWS = 20


def estimate_B(family: ModifierFamily, config: SearchConfig) -> LipschitzEstimate:
    """Adversarial lower bound on the Lipschitz constant of a modifier family.

    Runs ``config.restarts`` trials of projected gradient ascent on the top
    singular value of the exact realified Jacobian, each seeded from
    ``(config.seed, trial)`` so results are reproducible bit for bit.  A
    trial redraws a start whose Jacobian vanishes, up to 20 times, then
    steps along its normalized ascent direction with an adaptive trust
    region: the step doubles after a success and halves while the objective
    refuses to climb.  Trials stop early once the objective clears
    ``termination_threshold``: by then the family is already past every
    certificate of interest.

    The trials advance in lockstep as one batch.  Each round draws the
    pending starts, takes one stacked ascent gradient for the trials that
    just climbed, and projects and evaluates every pending start or step
    candidate in one stacked pass; per-trial phases tell which trials need
    a gradient, which are backtracking and which have settled.  Every
    stacked operation computes each trial's slice exactly as it would for
    that trial alone, so each trial follows its own sequential path.

    Piecewise-linear inner nets (leaky relu) need no special case: off
    their kinks the net is locally linear, so the exact Jacobian there is
    the derivative of the modifier and a limit of its difference quotients.
    """
    start = time.perf_counter()
    trials, shape, eps = config.restarts, family.input_shape, FD_EPSILON
    rngs = [np.random.default_rng([config.seed, trial]) for trial in range(trials)]
    z = np.zeros((trials,) + shape, dtype=np.complex128)
    theta = np.zeros((trials, family.parameter_count))
    sigma = np.full(trials, np.nan)
    u, v = np.zeros_like(z), np.zeros_like(z)
    new_z, new_theta, grad_z, grad_t = z.copy(), theta.copy(), z.copy(), theta.copy()
    norm = np.ones(trials)
    step = np.full(trials, config.step_size)
    phase = np.full(trials, _DRAW)
    early = np.zeros(trials, dtype=bool)
    iterations, draws, evaluations, backtracks = np.zeros((4, trials), dtype=np.int64)
    wall_time = np.zeros(trials)

    def settle(index):
        phase[index] = _SETTLED
        wall_time[index] = time.perf_counter() - start

    while True:
        # a start whose amplitude vanishes on the whole patch has an exactly
        # zero Jacobian and no ascent direction, so it is drawn again
        for r in np.flatnonzero(phase == _DRAW):
            new_theta[r] = family.sample_parameters(rngs[r])
            new_z[r] = rngs[r].standard_normal(shape) + 1j * rngs[r].standard_normal(shape)

        climbing = np.flatnonzero(phase == _CLIMB)
        if climbing.size:
            iterations[climbing] += 1
            gz, gt = _ascent_gradient(
                family, theta[climbing], z[climbing], u[climbing], v[climbing], eps
            )
            axes = tuple(range(1, gz.ndim))
            size = np.sqrt(np.sum(np.abs(gz) ** 2, axis=axes) + np.sum(gt**2, axis=1))
            finite = np.all(np.isfinite(gz), axis=axes) & np.all(np.isfinite(gt), axis=1)
            moving = finite & (size != 0.0) & (step[climbing] >= _STEP_FLOOR)
            go = climbing[moving]
            grad_z[go], grad_t[go], norm[go] = gz[moving], gt[moving], size[moving]
            phase[go] = _TRY
            settle(climbing[~moving])

        # normalized direction with an adaptive trust region
        trying = phase == _TRY
        ratio = step[trying] / norm[trying]
        new_z[trying] = z[trying] + ratio.reshape((-1,) + (1,) * len(shape)) * grad_z[trying]
        new_theta[trying] = theta[trying] + ratio[:, None] * grad_t[trying]

        pending = np.flatnonzero((phase == _DRAW) | trying)
        if not pending.size:
            break
        if family.project is not None:
            new_theta[pending] = family.project(new_theta[pending])
        new_sigma, new_u, new_v = _objective(family, new_theta[pending], new_z[pending])
        evaluations[pending] += 1

        drew = phase[pending] == _DRAW
        draws[pending[drew]] += 1
        started = drew & ((new_sigma > 1e-9) | (draws[pending] == _START_DRAWS))
        accepted = ~drew & (new_sigma > sigma[pending])
        taken = started | accepted
        moved = pending[taken]
        z[moved], theta[moved] = new_z[moved], new_theta[moved]
        sigma[moved], u[moved], v[moved] = new_sigma[taken], new_u[taken], new_v[taken]

        step[pending[accepted]] *= 2.0
        rejected = pending[~drew & ~accepted]
        backtracks[rejected] += 1
        step[rejected] *= 0.5
        settle(rejected[step[rejected] < _STEP_FLOOR])

        dead = np.isnan(sigma[moved])
        settle(moved[dead])
        moved = moved[~dead]
        early[moved] = sigma[moved] > config.termination_threshold
        climb = ~early[moved] & (iterations[moved] < config.max_iterations)
        phase[moved[climb]] = _CLIMB
        settle(moved[~climb])

    records = tuple(
        TrialRecord(t, float(sigma[t]), int(iterations[t]), bool(early[t]),
                    float(wall_time[t]), int(evaluations[t]), int(backtracks[t]))
        for t in range(trials)
    )
    finite = np.isfinite(sigma)
    if not finite.any():
        raise NonFiniteError("every search trial produced a non-finite objective")
    # the first of the largest values, as a sequential scan would keep it
    best = int(np.argmax(np.where(finite, sigma, -np.inf)))
    return LipschitzEstimate(
        value=float(sigma[best]),
        certified_bound=family.certified_bound,
        witness_values=z[best].copy(),
        witness_parameters=theta[best].copy(),
        witness_trial=best,
        records=records,
    )


# ---------------------------------------------------------------------------
# analytic counterexamples for the unguarded architectures


def _checked_quotient(name, arch, z, w, expected: float) -> float:
    """The difference quotient of ``arch`` at the pair (z, w), asserted
    against its analytic value."""
    num = np.linalg.norm(apply_to_values(arch, z) - apply_to_values(arch, w))
    measured = float(num / np.linalg.norm(z - w))
    if abs(measured - expected) > 1e-9 * expected:
        raise AssertionError(
            f"{name} counterexample drifted: measured {measured!r}, expected {expected!r}"
        )
    return measured


def counterexample_bias(epsilon: float = 1e-3) -> float:
    """Difference quotient (1 + eps) / eps of a biased spectral estimator.

    The inner map adds the constant 1, so amplitudes near zero stay pinned
    at 1 while the phase flips sign across the origin: the quotient at the
    pair (eps, -eps) grows without bound as eps shrinks.  The analytic
    value is asserted against the measured one before returning it.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    arch = ModifierArchitecture("am_se", BiasAdd(1.0))
    z = np.array([complex(epsilon, 0.0)])
    w = np.array([complex(-epsilon, 0.0)])
    return _checked_quotient("bias", arch, z, w, (1.0 + epsilon) / epsilon)


def counterexample_permutation(epsilon: float = 1e-3) -> float:
    """Difference quotient 1 / eps of a coefficient-swapping estimator.

    Swapping two bins hands the small coordinate's phase to the large
    coordinate's amplitude: at the pair ((eps, 1), (-eps, 1)) the outputs
    differ by 2 while the inputs differ by 2 eps.  The analytic value is
    asserted against the measured one before returning it.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    arch = ModifierArchitecture("am_se", PermutationMap(np.array([1, 0])))
    z = np.array([complex(epsilon, 0.0), 1.0 + 0.0j])
    w = np.array([complex(-epsilon, 0.0), 1.0 + 0.0j])
    return _checked_quotient("permutation", arch, z, w, 1.0 / epsilon)
