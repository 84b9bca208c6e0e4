"""The benchmark's three workloads, driven through lipsam's public API.

Each workload builds its fixed state in the constructor (that is the timed
set-up), then serves ops.  ``inputs(i)`` draws op ``i``'s inputs from
``(seed, i)``, ``run`` is the timed call into the package, and ``inspect``
checks the output and reduces it to an ``Outcome``.  Why each workload
exists and which layers it loads is written down in README.md.
"""

from dataclasses import dataclass, field

import numpy as np

from lipsam import lipschitz, pnp, trainer
from lipsam.cli import BOUND_TOLERANCE
from lipsam.errors import UnboundedModifierError, UncertifiedError
from lipsam.modifier import ModifierArchitecture, NetMap, theoretical_bound
from lipsam.signal import StftConfig, add_noise_at_snr, circular_convolve, si_snr

def op_seed(seed, index):
    """The 32-bit seed of op ``index``'s inputs, fixed by (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What the benchmark keeps of one op: failed checks, a bitwise
    fingerprint for the determinism check, the work done, the output quality
    and counts the package reports about its own work."""

    failures: list
    fingerprint: bytes
    work: float
    quality: float
    counts: dict = field(default_factory=dict)


class Dereverb:
    """One op: a 500-iteration ADMM solve on the standard 4096-sample instance,
    with the SI-SNR reference trace on (the CLI ``dereverb --reference`` path)."""

    name = "dereverb"
    work_metric = ("admm_iters_per_s", "1/s")
    also_per_s = None
    quality_metric = ("si_snr_db", "dB")
    stft = StftConfig(window_length=64, hop=32)
    solver = pnp.SolverConfig(lam=0.1, max_iterations=500, stft=stft)

    def __init__(self, seed):
        self.seed = seed
        # criterion 09's quick_train, its seed 0 included: the denoiser is
        # fixed state like the solver settings, not an op input.  Some other
        # training seeds draw an all-zero 128-sample segment, on which
        # train_denoiser raises UndefinedMetricError.
        config = trainer.TrainConfig(
            epochs=2,
            batch_size=8,
            learning_rate=1e-2,
            frames=4,
            arch="re",
            lipschitz="spectral",
            channel_width=16,
            kernel_size=5,
            seed=0,
            stft=self.stft,
        )
        corpus = trainer.SynthCorpusConfig(item_count=64, duration_seconds=0.128, seed=0)
        result = trainer.train_denoiser(config, corpus)
        if result.status != "completed":
            raise RuntimeError(f"denoiser training in set-up ended {result.status}")
        self.denoiser = ModifierArchitecture("lipsam_re", NetMap(result.net))

    def inputs(self, index):
        s = op_seed(self.seed, index)
        corpus = trainer.SynthCorpusConfig(item_count=1, duration_seconds=0.512, seed=s)
        clean = trainer.synth_speechlike(corpus, 0)
        rir = trainer.synth_rir(512, 0.02, seed=s + 1)
        observed = add_noise_at_snr(circular_convolve(clean, rir), 30.0, seed=s + 2)
        return clean, pnp.Observation(observed, rir)

    def run(self, inputs):
        clean, observation = inputs
        return pnp.run(observation, self.denoiser, self.solver, reference=clean)

    def inspect(self, inputs, result):
        clean, observation = inputs
        x = result.x_hat.samples
        failures = []
        if result.status != "completed":
            failures.append(f"status {result.status_text}")
        if not np.all(np.isfinite(x)):
            failures.append("x_hat is not finite")
        final = si_snr(result.x_hat, clean)
        gain = final - si_snr(observation.y, clean)
        if not gain >= 3.0:
            failures.append(f"SI-SNR gain {gain:.2f} dB < 3 dB")
        return Outcome(
            failures,
            x.tobytes(),
            work=float(result.iterations),
            quality=final,
            counts={"pnp.iterations": result.iterations, "pnp.diverged": int(result.diverged)},
        )


class Train:
    """One op: ``train_denoiser`` at the CLI ``train`` defaults with the
    spectral projection on: 2 epochs over 64 items of 8192 samples."""

    name = "train"
    work_metric = ("train_examples_per_s", "1/s")
    also_per_s = None
    quality_metric = ("val_loss_db", "dB")
    corpus_items = 64

    def __init__(self, seed):
        self.seed = seed

    def inputs(self, index):
        s = op_seed(self.seed, index)
        config = trainer.TrainConfig(epochs=2, lipschitz="spectral", seed=s)
        corpus = trainer.SynthCorpusConfig(
            item_count=self.corpus_items, duration_seconds=config.segment_samples / 8000.0, seed=s
        )
        return config, corpus

    def run(self, inputs):
        return trainer.train_denoiser(*inputs)

    def inspect(self, inputs, result):
        _, corpus = inputs
        failures = []
        if result.status != "completed":
            failures.append(f"status {result.status}")
        certificates = [layer.norm_certificate for layer in result.net.layers]
        if not all(c is not None and c <= 1.0 + 1e-9 for c in certificates):
            failures.append(f"layer certificates {certificates} exceed 1 + 1e-9")
        try:
            bound = theoretical_bound(ModifierArchitecture("lipsam_re", NetMap(result.net)))
        except (UnboundedModifierError, UncertifiedError) as error:
            failures.append(f"theoretical_bound raised {error!r}")
        else:
            if not np.isfinite(bound):
                failures.append(f"theoretical_bound {bound} is not finite")
        if not result.best_val_loss < result.log[0]["val_loss"]:
            failures.append("best validation loss does not beat epoch 0")
        weights = np.concatenate([p.reshape(-1) for p in result.net.parameters()])
        epochs = len(result.log) - 1
        held_out = max(1, int(round(0.1 * corpus.item_count)))
        return Outcome(
            failures,
            weights.tobytes(),
            work=float(epochs * (corpus.item_count - held_out)),
            quality=result.best_val_loss,
            counts={"trainer.epochs": epochs, "trainer.aborted": int(result.status == "aborted")},
        )


class BoundSearch:
    """One op: one ``estimate_B`` cell of criterion 01 (lipsam_se, scale 1,
    constrained) with 10 restarts."""

    name = "bound_search"
    # The work unit is the accepted ascent step.  A trial's cost depends on
    # its inputs, so trials per second spreads more across seeds than
    # ascent iterations per second does; it is reported beside it.
    work_metric = ("ascent_iters_per_s", "1/s")
    also_per_s = ("search_trials_per_s", "lipschitz.trials")
    quality_metric = ("best_B", "1")
    restarts = 10

    def __init__(self, seed):
        self.seed = seed
        self.family = lipschitz.conv2d_family("lipsam_se", scale=1.0, constrained=True)

    def inputs(self, index):
        return lipschitz.SearchConfig(
            restarts=self.restarts,
            max_iterations=100,
            termination_threshold=8.0,
            seed=op_seed(self.seed, index),
        )

    def run(self, inputs):
        return lipschitz.estimate_B(self.family, inputs)

    def inspect(self, inputs, result):
        records = result.records
        finite = [r for r in records if np.isfinite(r.value)]
        failures = []
        if not finite:
            failures.append("no trial is finite")
        if not result.value <= result.certified_bound + BOUND_TOLERANCE:
            failures.append(f"best_B {result.value} > {result.certified_bound} + {BOUND_TOLERANCE}")
        fingerprint = np.concatenate(
            [[result.value], result.witness_values.view(np.float64).reshape(-1), result.witness_parameters]
        )
        return Outcome(
            failures,
            fingerprint.tobytes(),
            work=float(result.total_iterations),
            quality=result.value,
            counts={
                "lipschitz.trials": len(records),
                "lipschitz.ascent_iterations": result.total_iterations,
                "lipschitz.early_stops": sum(r.terminated_early for r in records),
                "lipschitz.nonfinite_trials": len(records) - len(finite),
            },
        )


WORKLOADS = {w.name: w for w in (Dereverb, Train, BoundSearch)}

# every count an Outcome may carry; a workload that does not report one reads 0
RESULT_COUNTS = (
    "pnp.iterations",
    "pnp.diverged",
    "lipschitz.trials",
    "lipschitz.ascent_iterations",
    "lipschitz.early_stops",
    "lipschitz.nonfinite_trials",
    "trainer.epochs",
    "trainer.aborted",
)


def install_spans(tracer):
    """Wrap every cross-module call the per-layer metrics are made of.

    Names are wrapped where the calling module looks them up, so a span
    covers exactly the calls one layer makes into another.
    """
    import numpy.fft

    import lipsam.modifier as modifier_module

    for owner in (pnp, trainer):
        tracer.span(owner, "stft", "signal.stft")
        tracer.span(owner, "istft", "signal.istft")
    tracer.span(pnp, "circular_convolve", "signal.circular_convolve")
    tracer.span(pnp, "si_snr", "signal.si_snr")
    for update in ("x_update", "u_update", "v_update", "dual_update"):
        tracer.span(pnp, update, f"pnp.{update}")
    tracer.span(pnp, "apply", "modifier.apply_to_values")
    for owner in (lipschitz, trainer):
        tracer.span(owner, "apply_to_values", "modifier.apply_to_values")
        tracer.span(owner, "_amplitude_with_cache", "modifier.amplitude_forward")
        tracer.span(owner, "amplitude_backward", "modifier.amplitude_backward")
        tracer.span(owner, "circulant_operator_norm", "network.circulant_operator_norm")
    tracer.span(modifier_module, "net_forward", "network.forward")
    tracer.span(modifier_module, "net_backward", "network.backward")
    tracer.span(trainer, "adam_step", "network.adam_step")
    tracer.span(lipschitz, "modifier_jacobian", "lipschitz.modifier_jacobian")
    tracer.span(lipschitz, "top_singular_triple", "lipschitz.top_singular_triple")
    tracer.span(trainer, "synth_speechlike", "trainer.synth_speechlike")
    for transform in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                      "fftn", "ifftn", "rfftn", "irfftn"):
        tracer.count(numpy.fft, transform, "signal.fft")
