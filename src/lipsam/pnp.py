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
X, one STFT and one ISTFT: four FFTs.  The iteration works on plain arrays;
signal types appear only where a solve starts and ends.

Divergence is contained, not fatal: after each iteration one finiteness
check on the two duals (and a non-finite denoiser output) ends the run
with a diverged status; the estimate, the state and the traces are those of
the last completed iteration.  Finite duals mean a finite iteration.  A
non-finite x reaches every bin of Gx and so xi2 = (Gx + xi2) - v, and a
non-finite v reaches xi2 directly.  In the spectrum, a non-finite bin of X
makes that bin of W = HX + Xi1 non-finite (an infinite X times a zero bin
of rfft(h) is NaN); U = c (W - Y) + Y with c = lam / (1 + lam) in (0, 1)
is then non-finite there too, and Xi1 = W - U is NaN.  A U that overflows
on its own leaves an infinite Xi1.  So a finite Xi1 means finite W, HX and
U in every bin.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError, UndefinedMetricError
from .modifier import ModifierArchitecture, apply_to_values
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
    1 / (|rfft(h)|^2 + 1) and the STFT.

    The filter is real in (0, 1]; the +1 from the tight STFT branch keeps
    its denominator away from zero, so no regularization knob is needed.
    """

    y: np.ndarray
    y_spectrum: np.ndarray
    h_spectrum: np.ndarray
    inverse_filter: np.ndarray
    stft: StftConfig


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
    lam/(1+lam), taken in the spectrum.  A denoiser that returns non-finite
    values raises NonFiniteError.
    """
    # H^T a is a multiplication by conj(rfft(h)) in the frequency domain.
    rhs = (state.u_spectrum - state.xi1_spectrum) * np.conj(ops.h_spectrum) + np.fft.rfft(
        synthesis(state.v - state.xi2, ops.stft)
    )
    x_spectrum = rhs * ops.inverse_filter
    x = np.fft.irfft(x_spectrum, n=ops.y.size)
    # HX + Xi1 and Gx + xi2 feed both the primal update and the dual
    hx_xi1 = x_spectrum * ops.h_spectrum + state.xi1_spectrum
    gx_xi2 = analysis(x, ops.stft) + state.xi2
    u = (lam / (1.0 + lam)) * (hx_xi1 - ops.y_spectrum) + ops.y_spectrum
    v = apply_to_values(denoiser, gx_xi2)
    return AdmmState(x, u, v, hx_xi1 - u, gx_xi2 - v)


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
    failed.
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
    delta_x, si_snr_trace = [], []
    status = "completed"
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(1, config.max_iterations + 1):
            try:
                new = admm_iteration(state, ops, denoiser, config.lam)
            except NonFiniteError:
                new = None
            # finite duals mean a finite iteration (see the module docstring)
            if new is None or not (_all_finite(new.xi1_spectrum) and _all_finite(new.xi2)):
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
