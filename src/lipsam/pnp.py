"""ADMM Plug-and-Play dereverberation with spectrogram denoisers.

The observation model is y = Hx + n with H circular convolution by a known
impulse response.  Splitting u = Hx and v = Gx (G the tight-frame STFT)
gives the ADMM recursion

    x  <- (H^T H + G^H G)^-1 (H^T (u - xi1) + G^H (v - xi2))
    u  <- prox of the data term at Hx + xi1
    v  <- D(Gx + xi2)
    xi <- xi + residuals

where the v-proximity operator is replaced by an amplitude-modifier
denoiser D.  Because the window is Parseval tight, G^H G = I, and H^T H is
diagonalized by the FFT, so the x-update is one division by |FFT(h)|^2 + 1
in the frequency domain.  u and xi1 enter the recursion only linearly and
only through H, so a solve carries them (and y) as rfft spectra U, Xi1, Y
and forms HX = X * rfft(h) in the spectrum; x stays in the time domain for
the STFT.  One iteration is then one rfft of G^H (v - xi2), one irfft of
X, one STFT and one ISTFT (two more FFTs, or two GEMMs at a short window).
The iteration works on plain arrays; signal types appear only where a solve
starts and ends.

A solve keeps two sets of iterate arrays and writes iterate k+1 over
iterate k-1, so after its first iterations it allocates only inside the
FFTs, the STFT pair and the traces; the denoiser reuses its own scratch.

Divergence is contained, not fatal: after each iteration one finiteness
check on the two duals ends the run with a diverged status; the estimate,
the state and the traces are those of the last completed iteration.
Finite duals mean a finite iteration.  A non-finite x reaches every bin of
Gx and so xi2 = (Gx + xi2) - v, and a non-finite v reaches xi2 directly.
The denoiser forms v = A p with the phase p = z/|z| taken as 0 at z = 0,
so a non-finite amplitude A makes v non-finite in its bin even there, as
inf * 0 is NaN.  In the spectrum, a non-finite bin of X makes that bin of
W = HX + Xi1 non-finite (an infinite X times a zero bin of rfft(h) is
NaN); U = c (W - Y) + Y with c = lam / (1 + lam) in (0, 1) is then
non-finite there too, and Xi1 = W - U is NaN.  A U that overflows on its
own leaves an infinite Xi1.  So a finite Xi1 means finite W, HX and U in
every bin.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, UndefinedMetricError, check_field_types
from .modifier import ModifierArchitecture, _denoise
from .signal import StftConfig, TimeSignal, analysis, si_snr_values, synthesis


@dataclass(frozen=True, eq=False)
class Observation:
    """A reverberant noisy recording with its known impulse response.

    The response is zero-padded to the signal length at construction so all
    circular operators act on one common period.
    """

    y: TimeSignal
    h: TimeSignal

    def __post_init__(self):
        if self.y.sample_rate != self.h.sample_rate:
            raise ShapeError("observation and impulse response sample rates differ")
        if len(self.h) > len(self.y):
            raise ShapeError("impulse response is longer than the observation")
        if not np.any(self.h.samples):
            raise DomainError("impulse response must not be all-zero")
        if len(self.h) < len(self.y):
            padded = np.zeros(len(self.y))
            padded[: len(self.h)] = self.h.samples
            object.__setattr__(self, "h", TimeSignal(padded, self.h.sample_rate))

    @property
    def length(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """ADMM parameters.  ``lam`` weighs the data term against the prior."""

    lam: float = 1.0
    max_iterations: int = 500
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        check_field_types(self, ("max_iterations",), ("lam",))
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise DomainError("lam must be positive and finite")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class AdmmState:
    """The five ADMM variables: x of shape [samples]; u and xi1 as their
    rfft spectra, of shape [samples // 2 + 1]; v, xi2 of shape
    [num_bins, num_frames]."""

    x: np.ndarray
    u_spectrum: np.ndarray
    v: np.ndarray
    xi1_spectrum: np.ndarray
    xi2: np.ndarray


@dataclass(frozen=True, eq=False)
class AdmmOperators:
    """What a solve holds fixed: y and its spectrum rfft(y), the spectrum
    rfft(h) of the padded impulse response, the x-update filter
    1 / (|rfft(h)|^2 + 1) and the STFT.  ``filtered_adjoint``, the
    product conj(rfft(h)) * filter that H^T and the filter make, is
    derived from them.

    The filter is real in (0, 1]; the +1 from the tight STFT branch keeps
    its denominator away from zero, so no regularization knob is needed.
    """

    y: np.ndarray
    y_spectrum: np.ndarray
    h_spectrum: np.ndarray
    inverse_filter: np.ndarray
    stft: StftConfig
    filtered_adjoint: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        adjoint = np.conj(self.h_spectrum) * self.inverse_filter
        object.__setattr__(self, "filtered_adjoint", adjoint)


def admm_operators(observation: Observation, stft_config: StftConfig) -> AdmmOperators:
    """Precompute the fixed operators of a solve on ``observation``."""
    y = observation.y.samples
    h_spectrum = np.fft.rfft(observation.h.samples)
    return AdmmOperators(
        y, np.fft.rfft(y), h_spectrum, 1.0 / (np.abs(h_spectrum) ** 2 + 1.0), stft_config
    )


def initial_state(ops: AdmmOperators) -> AdmmState:
    """Warm start from the observation: x = 0, u = y, v = 0, duals = 0."""
    length = ops.y.size
    ops.stft.check_length(length, "observation")
    zero_spec = np.zeros((ops.stft.num_bins, length // ops.stft.hop), dtype=np.complex128)
    return AdmmState(
        x=np.zeros(length),
        u_spectrum=ops.y_spectrum,
        v=zero_spec,
        xi1_spectrum=np.zeros_like(ops.y_spectrum),
        xi2=zero_spec,
    )


def admm_iteration(
    state: AdmmState, ops: AdmmOperators, denoiser: ModifierArchitecture, lam: float
) -> AdmmState:
    """One ADMM iteration: the x-, u-, v- and dual updates in order.

    The u-update is the closed-form prox of (1/(2 lam))||. - y||^2 at
    Hx + xi1, i.e. multiplication of the residual Hx + xi1 - y by
    lam/(1+lam), taken in the spectrum.  A non-finite denoiser output
    reaches v and xi2 and raises nothing; the caller's dual check sees it.
    The new state's arrays are fresh; ``run`` takes the same step on
    reused ones.
    """
    return _step(state, ops, denoiser, lam, _outputs_like(state))


def _outputs_like(state: AdmmState) -> AdmmState:
    """Empty u, v and dual arrays shaped like ``state``'s, for :func:`_step`
    to write over; x is None."""
    arrays = (state.u_spectrum, state.v, state.xi1_spectrum, state.xi2)
    return AdmmState(None, *(np.empty(a.shape, np.complex128) for a in arrays))


def _step(
    state: AdmmState, ops: AdmmOperators, denoiser: ModifierArchitecture, lam: float, into
) -> AdmmState:
    """:func:`admm_iteration` written over the u, v and dual arrays of the
    state ``into`` (complex128 arrays that share no memory with ``state``;
    its x is ignored); the new x is fresh."""
    # X = (U - Xi1) conj(H) F + rfft(G^H (v - xi2)) F, held in into's U
    x_spectrum = np.subtract(state.u_spectrum, state.xi1_spectrum, out=into.u_spectrum)
    x_spectrum *= ops.filtered_adjoint
    frames = np.fft.rfft(synthesis(np.subtract(state.v, state.xi2, out=into.v), ops.stft))
    frames *= ops.inverse_filter
    x_spectrum += frames
    x = np.fft.irfft(x_spectrum, n=ops.y.size)
    # HX + Xi1 and Gx + xi2 feed both the primal update and the dual
    hx_xi1 = np.multiply(x_spectrum, ops.h_spectrum, out=into.xi1_spectrum)
    hx_xi1 += state.xi1_spectrum
    gx_xi2 = np.add(analysis(x, ops.stft), state.xi2, out=into.xi2)
    u = np.subtract(hx_xi1, ops.y_spectrum, out=into.u_spectrum)
    u *= lam / (1.0 + lam)
    u += ops.y_spectrum
    v = into.v
    _denoise(denoiser, gx_xi2, v)
    hx_xi1 -= u
    gx_xi2 -= v
    return AdmmState(x, u, v, hx_xi1, gx_xi2)


def _all_finite(values: np.ndarray) -> bool:
    # isfinite on the float64 view of a complex array skips its complex loop
    return bool(np.isfinite(values.view(np.float64)).all())


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Final estimate plus per-iteration traces and the completion status."""

    x_hat: TimeSignal
    delta_x: np.ndarray
    si_snr_trace: Optional[np.ndarray]
    status: str
    diverged_at: Optional[int]
    iterations: int
    state: AdmmState

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    @property
    def status_text(self) -> str:
        if self.diverged:
            return f"diverged({self.diverged_at})"
        return self.status


def run(
    observation: Observation,
    denoiser: ModifierArchitecture,
    config: SolverConfig,
    reference: Optional[TimeSignal] = None,
) -> SolveResult:
    """Run the ADMM recursion for ``config.max_iterations`` iterations.

    Records ||x_k - x_{k-1}|| each iteration, and SI-SNR against
    ``reference`` when one is supplied (purely observational, the iteration
    never sees it).  The reference must match the observation's length and
    sample rate and must not be all zero; it is checked before the first
    iteration.  The first iteration that produces a non-finite value stops
    the run with status ``diverged`` at that iteration.  ``x_hat``, ``state``
    and the traces then hold the last completed iteration, whichever update
    failed.  Each iteration takes :func:`admm_iteration`'s step, on arrays
    that the run reuses.
    """
    rate = observation.y.sample_rate
    if reference is not None:
        if len(reference) != observation.length:
            raise ShapeError("reference and observation lengths differ")
        if reference.sample_rate != rate:
            raise ShapeError("reference and observation sample rates differ")
        if not np.any(reference.samples):
            raise UndefinedMetricError("reference signal is identically zero")
    ops = admm_operators(observation, config.stft)
    state = initial_state(ops)
    # iterate k is written over iterate k - 2, never over the start, whose
    # arrays alias y's spectrum and each other
    outputs = (_outputs_like(state), _outputs_like(state))
    delta_x, si_snr_trace = [], []
    status = "completed"
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(1, config.max_iterations + 1):
            new = _step(state, ops, denoiser, config.lam, outputs[k % 2])
            # finite duals mean a finite iteration (see the module docstring)
            if not (_all_finite(new.xi1_spectrum) and _all_finite(new.xi2)):
                status = "diverged"
                diverged_at = k
                break
            delta_x.append(float(np.linalg.norm(new.x - state.x)))
            state = new
            if reference is not None:
                si_snr_trace.append(si_snr_values(state.x, reference.samples))
    return SolveResult(
        x_hat=TimeSignal(state.x, rate),
        delta_x=np.asarray(delta_x),
        si_snr_trace=None if reference is None else np.asarray(si_snr_trace),
        status=status,
        diverged_at=diverged_at,
        iterations=len(delta_x),
        state=state,
    )


def lambda_sweep(
    observation: Observation,
    denoiser: ModifierArchitecture,
    lambda_grid,
    config: SolverConfig,
    reference: Optional[TimeSignal] = None,
) -> list:
    """Independent solver runs over a grid of regularization weights.

    Returns one row per weight: final SI-SNR (NaN when the run diverged or
    no reference was given), the status text, and a marker on the best
    finite SI-SNR.  Every weight is checked before the first run; divergence
    at one weight never aborts the sweep.
    """
    grid = [float(g) for g in np.atleast_1d(lambda_grid)]
    if not grid:
        raise DomainError("lambda grid must be non-empty")
    configs = [replace(config, lam=lam) for lam in grid]
    rows = []
    for solver in configs:
        result = run(observation, denoiser, solver, reference)
        final = float("nan")
        if result.si_snr_trace is not None and result.si_snr_trace.size and not result.diverged:
            final = float(result.si_snr_trace[-1])
        rows.append(
            {
                "lambda": solver.lam,
                "final_si_snr": final,
                "status": result.status_text,
                "best": False,
            }
        )
    finite = [i for i, row in enumerate(rows) if np.isfinite(row["final_si_snr"])]
    if finite:
        best = max(finite, key=lambda i: rows[i]["final_si_snr"])
        rows[best]["best"] = True
    return rows
