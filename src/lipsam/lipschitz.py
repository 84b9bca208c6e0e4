"""Empirical Lipschitz analysis of amplitude modifiers.

The headline tool is ``estimate_B``: a multi-restart projected gradient
ascent that searches input magnitudes (and, for parametric families, the
inner-network weights) for large Jacobian operator norms.  The resulting
maximum is a lower bound on the true Lipschitz constant, to be compared
against the certified upper bound of safeguarded architectures.  The
restarts of one search advance in lockstep as one batch: each round takes
one stacked ascent gradient for the trials that just climbed and one
stacked projection, Jacobian and SVD for every trial that awaits the
verdict on a start or a step, and every trial still follows exactly the
path it would follow alone.

The Jacobians are exact and use the polar structure of the modifier,
D(z) = A(|z|) z/|z|: at x = |z| the realified Jacobian is the amplitude
Jacobian J_A(x) on the radial directions and diag(A/x) on the tangential
ones, so ‖J_D(z)‖ = max(‖J_A(x)‖, maxᵢ Aᵢ(x)/xᵢ), the two terms of the
paper's sufficient condition (A Lipschitz on the nonnegative orthant, and
0 ≤ A(x) ≤ x for the safeguarded kinds).  The search therefore climbs on
real magnitudes x ≥ 0, and its witness x is the point z = x with zero
phase.  J_A comes from pushing the n unit tangents through the inner map's
JVP in one pass.

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
    check_field_types,
)
from .modifier import (
    KINDS,
    SAFEGUARDED_KINDS,
    BiasAdd,
    ModifierArchitecture,
    NetMap,
    PermutationMap,
    amplitude_backward,
    amplitude_forward,
    amplitude_jacobian,
    apply_to_values,
    safeguard_bound,
    theoretical_bound,
)
from .network import IDENTITY, SOFTPLUS, ConvLayer, ConvNet, project_unit_ball

_STEP_FLOOR = 1e-12
# central-difference step of the ascent secant; the Jacobians are exact
FD_EPSILON = 1e-5
# how far an empirical value may pass its certificate before it violates it
BOUND_TOLERANCE = 0.01


# ---------------------------------------------------------------------------
# jacobians and operator norms


def modifier_jacobian(arch: ModifierArchitecture, x: np.ndarray):
    """(J_A [trials, n, n], ratios A / x [trials, n], and a [trials] mask of
    the finite trials) at a stack of magnitudes x [trials, *shape].

    ``arch`` is either shared by the trials or stacked over them.  D has no
    direction to differentiate along at a coefficient at exactly 0, so its
    row and column of J_A and its ratio read 0.
    """
    trials = x.shape[0]
    a, cache = amplitude_forward(arch, x)
    x, a = cache.x.reshape(trials, -1), a.reshape(trials, -1)
    nonzero = x > 0.0
    jac = np.where(nonzero[:, :, None] & nonzero[:, None, :], amplitude_jacobian(cache), 0.0)
    ratio = np.divide(a, x, out=np.zeros_like(a), where=nonzero)
    finite = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(ratio), axis=1)
    finite &= np.all(np.isfinite(jac.reshape(trials, -1)), axis=1)
    return jac, ratio, finite


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

    Ascent directions differentiate a two-point secant surrogate of ‖J_A‖
    through the amplitude map's backward pass: two forward and two backward
    passes per step.  The secant step is the fixed ``FD_EPSILON``; the
    objective's Jacobians are exact and take no step.  Starting points are
    the magnitudes of complex standard normal draws.
    """

    restarts: int = 100
    max_iterations: int = 100
    step_size: float = 0.1
    termination_threshold: float = 5.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(
            self, ("restarts", "max_iterations", "seed"), ("step_size", "termination_threshold")
        )
        if self.restarts < 1 or self.max_iterations < 0:
            raise DomainError("restarts must be >= 1 and max_iterations >= 0")
        if not all(0.0 < knob < np.inf for knob in (self.step_size, self.termination_threshold)):
            raise DomainError("step_size and termination_threshold must be positive and finite")
        if self.seed < 0:
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

    ``value`` is the largest exact Jacobian norm found, at the magnitudes
    ``witness_values``, which are coefficients with zero phase.  Where the
    modifier is differentiable, which for a leaky-relu inner net is
    everywhere off its kinks, the Jacobian norm is a limit of difference
    quotients, so the value is an empirical lower bound on the true
    Lipschitz constant, up to rounding.  ``certified_bound`` is the family's
    theoretical upper bound, or None when the family certifies nothing.
    """

    value: float
    certified_bound: Optional[float]
    witness_values: np.ndarray
    witness_parameters: np.ndarray
    witness_trial: int
    records: tuple

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.records)

    def violates_bound(self, tolerance: float = BOUND_TOLERANCE) -> bool:
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


# The bound-validation geometry of ``conv2d_family``.
CONV2D_CHANNELS = (1, 3, 3, 1)
CONV2D_KERNEL = (3, 3)
CONV2D_INPUT_SHAPE = (4, 4)


def conv2d_family(kind: str, scale: float = 1.0, constrained: Optional[bool] = None) -> ModifierFamily:
    """Small 2-D convolutional inner nets on single-channel magnitude patches.

    The geometry is fixed: ``CONV2D_CHANNELS`` (1 -> 3 -> 3 -> 1) with
    ``CONV2D_KERNEL`` (3x3) kernels on ``CONV2D_INPUT_SHAPE`` (4x4) patches.
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

    chain = CONV2D_CHANNELS
    layers = []
    for index, (c_in, c_out) in enumerate(zip(chain, chain[1:])):
        act = IDENTITY if index == len(chain) - 2 else SOFTPLUS
        bias = None if constrained else np.zeros(c_out)
        layers.append(ConvLayer(np.zeros((c_out, c_in) + CONV2D_KERNEL), bias, activation=act))
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
            net = template.with_parameters(theta)
            return project_unit_ball(net, CONV2D_INPUT_SHAPE).flatten_parameters()

    certified = safeguard_bound(kind, scale) if constrained and kind in SAFEGUARDED_KINDS else None

    return ModifierFamily(
        input_shape=CONV2D_INPUT_SHAPE,
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


def _objective(family: ModifierFamily, thetas: np.ndarray, x: np.ndarray):
    """The Jacobian norms max(sigma_max(J_A), max_i A_i / x_i) at a stack of
    trials, ties going to J_A, from one SVD of the [trials, n, n] J_A stack.

    ``thetas`` is [trials, P] and ``x`` is [trials, *input_shape].  Returns
    (sigma [trials], J_A's top singular vectors u and v shaped like x, and
    the index i of the winning ratio [trials], or -1 where J_A wins); sigma
    is nan for every trial whose parameters, terms or SVD are not finite.
    """
    trials = x.shape[0]
    sigma, term = np.full(trials, np.nan), np.full(trials, -1)
    u, v = np.zeros((2,) + x.shape)
    rows = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    if rows.size:
        jac, ratio, finite = modifier_jacobian(family.build(thetas[rows]), x[rows])
        rows, jac, ratio = rows[finite], jac[finite], ratio[finite]
    if rows.size:
        try:
            top, top_u, top_v = top_singular_triple(jac)
        except np.linalg.LinAlgError:
            # a matrix LAPACK cannot decompose costs only its own trial
            top = np.full(rows.size, np.nan)
            top_u, top_v = np.zeros((2,) + jac.shape[:2])
            for k, matrix in enumerate(jac):
                try:
                    top[k], top_u[k], top_v[k] = top_singular_triple(matrix)
                except np.linalg.LinAlgError:
                    pass
        best = np.argmax(ratio, axis=1)
        best_ratio = ratio[np.arange(rows.size), best]
        # ties go to J_A, and a nan top (failed SVD) stays nan
        wins = best_ratio > top
        top = np.where(wins, best_ratio, top)
        keep = np.isfinite(top)
        rows = rows[keep]
        sigma[rows], term[rows] = top[keep], np.where(wins, best, -1)[keep]
        shape = (-1,) + x.shape[1:]
        u[rows], v[rows] = top_u[keep].reshape(shape), top_v[keep].reshape(shape)
    return sigma, u, v, term


def _ascent_gradient(family, thetas, x, u, v, term, eps):
    """Ascent directions at a stack of trials, x parts [trials, *input_shape]
    and flat theta parts [trials, P], from one stacked amplitude pass: the
    gradient of the secant <u, A(|x + eps v|) - A(|x - eps v|)> / (2 eps)
    where J_A wins, and of A_i(x) / x_i where ratio i wins.
    """
    trials, shape = x.shape[0], x.shape[1:]
    r = np.flatnonzero(term >= 0)
    step = eps * v
    weights = np.stack([u, -u], axis=1).reshape(2 * trials, -1) / (2.0 * eps)
    if r.size:
        # a ratio trial needs one pass at x, so its second row carries no weight
        i, x_i = term[r], x.reshape(trials, -1)[r, term[r]]
        step[r] = 0.0
        weights[2 * r] = weights[2 * r + 1] = 0.0
        weights[2 * r, i] = 1.0 / x_i
    # rows 2t and 2t + 1 hold trial t's two points, each with its own copy
    # of the trial's parameters, so that no parameter gradient mixes them
    points = np.stack([x + step, x - step], axis=1).reshape((2 * trials,) + shape)
    a, cache = amplitude_forward(family.build(np.repeat(thetas, 2, axis=0)), np.abs(points))
    grad_theta, gx = amplitude_backward(cache, weights.reshape(points.shape))
    grad_x = np.sum((gx * np.sign(points)).reshape(trials, 2, -1), axis=1)
    if r.size:
        grad_x[r, i] -= a.reshape(2 * trials, -1)[2 * r, i] / x_i**2
    # a fixed family carries no search parameters even when the wrapped net
    # itself has weights, so key off thetas, not grad_theta
    if not thetas.size or grad_theta is None:
        return grad_x.reshape(x.shape), np.zeros(thetas.shape)
    return grad_x.reshape(x.shape), np.sum(grad_theta.reshape(trials, 2, -1), axis=1)


# what a trial waits for in the next round of the lockstep search
_DRAW, _CLIMB, _TRY, _SETTLED = range(4)
_START_DRAWS = 20


def estimate_B(family: ModifierFamily, config: SearchConfig) -> LipschitzEstimate:
    """Adversarial lower bound on the Lipschitz constant of a modifier family.

    Runs ``config.restarts`` trials of projected gradient ascent on the
    exact Jacobian norm over magnitudes x, each seeded from
    ``(config.seed, trial)`` so results are reproducible bit for bit.  A
    trial redraws a start whose Jacobian vanishes, up to 20 times, then
    steps along its normalized ascent direction with an adaptive trust
    region: the step doubles after a success and halves while the objective
    refuses to climb.  |.| reflects a step back onto the orthant, which
    loses nothing, as the norm at z depends on |z| only.  Trials stop early
    once the objective clears ``termination_threshold``, past every
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
    x = np.zeros((trials,) + shape)
    theta = np.zeros((trials, family.parameter_count))
    sigma = np.full(trials, np.nan)
    u, v, term = np.zeros_like(x), np.zeros_like(x), np.full(trials, -1)
    new_x, new_theta, grad_x, grad_t = x.copy(), theta.copy(), x.copy(), theta.copy()
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
            new_x[r] = np.abs(rngs[r].standard_normal(shape) + 1j * rngs[r].standard_normal(shape))

        climbing = np.flatnonzero(phase == _CLIMB)
        if climbing.size:
            iterations[climbing] += 1
            gx, gt = _ascent_gradient(family, theta[climbing], x[climbing], u[climbing],
                                      v[climbing], term[climbing], eps)
            axes = tuple(range(1, gx.ndim))
            size = np.sqrt(np.sum(gx**2, axis=axes) + np.sum(gt**2, axis=1))
            finite = np.all(np.isfinite(gx), axis=axes) & np.all(np.isfinite(gt), axis=1)
            moving = finite & (size != 0.0) & (step[climbing] >= _STEP_FLOOR)
            go = climbing[moving]
            grad_x[go], grad_t[go], norm[go] = gx[moving], gt[moving], size[moving]
            phase[go] = _TRY
            settle(climbing[~moving])

        # normalized direction with an adaptive trust region
        trying = phase == _TRY
        ratio = step[trying] / norm[trying]
        spread = ratio.reshape((-1,) + (1,) * len(shape))
        new_x[trying] = np.abs(x[trying] + spread * grad_x[trying])
        new_theta[trying] = theta[trying] + ratio[:, None] * grad_t[trying]

        pending = np.flatnonzero((phase == _DRAW) | trying)
        if not pending.size:
            break
        if family.project is not None:
            new_theta[pending] = family.project(new_theta[pending])
        new_sigma, new_u, new_v, new_term = _objective(family, new_theta[pending], new_x[pending])
        evaluations[pending] += 1

        drew = phase[pending] == _DRAW
        draws[pending[drew]] += 1
        started = drew & ((new_sigma > 1e-9) | (draws[pending] == _START_DRAWS))
        accepted = ~drew & (new_sigma > sigma[pending])
        taken = started | accepted
        moved = pending[taken]
        x[moved], theta[moved] = new_x[moved], new_theta[moved]
        sigma[moved], u[moved], v[moved] = new_sigma[taken], new_u[taken], new_v[taken]
        term[moved] = new_term[taken]

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
        witness_values=x[best].copy(),
        witness_parameters=theta[best].copy(),
        witness_trial=best,
        records=records,
    )


# ---------------------------------------------------------------------------
# analytic counterexamples for the unguarded architectures


def _quotient(arch, z, w) -> float:
    """The difference quotient ||D(z) - D(w)|| / ||z - w|| of ``arch``."""
    num = np.linalg.norm(apply_to_values(arch, z) - apply_to_values(arch, w))
    return float(num / np.linalg.norm(z - w))


def counterexample_bias(epsilon: float = 1e-3) -> float:
    """Difference quotient (1 + eps) / eps of a biased spectral estimator.

    The inner map adds the constant 1, so amplitudes near zero stay pinned
    at 1 while the phase flips sign across the origin: the quotient at the
    pair (eps, -eps) grows without bound as eps shrinks.  The value is
    measured, not taken from the formula; ``lipsam selfcheck`` compares them.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    arch = ModifierArchitecture("am_se", BiasAdd(1.0))
    z = np.array([complex(epsilon, 0.0)])
    w = np.array([complex(-epsilon, 0.0)])
    return _quotient(arch, z, w)


def counterexample_permutation(epsilon: float = 1e-3) -> float:
    """Difference quotient 1 / eps of a coefficient-swapping estimator.

    Swapping two bins hands the small coordinate's phase to the large
    coordinate's amplitude: at the pair ((eps, 1), (-eps, 1)) the outputs
    differ by 2 while the inputs differ by 2 eps.  The value is measured,
    not computed from the formula.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    arch = ModifierArchitecture("am_se", PermutationMap(np.array([1, 0])))
    z = np.array([complex(epsilon, 0.0), 1.0 + 0.0j])
    w = np.array([complex(-epsilon, 0.0), 1.0 + 0.0j])
    return _quotient(arch, z, w)
