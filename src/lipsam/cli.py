"""Command-line entry point: experiments as subcommands with CSV outputs.

Each subcommand takes a parameter from the flag of the same name, else from
its strict JSON --config document, else from its default; unknown keys and
wrong-typed values are rejected before any computation. The seed comes from
--seed, and results are machine-readable CSV. Exit codes: 0 success, 1 usage
or configuration error, 2 assertion or bound violation, 3 divergence only.
"""

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    InvalidWindowError,
    NonFiniteError,
    ShapeError,
    UndefinedMetricError,
)
from .lipschitz import (
    SearchConfig,
    conv2d_family,
    counterexample_bias,
    counterexample_permutation,
    estimate_B,
    fixed_modifier_family,
)
from .modifier import KINDS, ModifierArchitecture, NetMap, ZeroMap, architecture_from_config
from .modifier import architecture_to_config
from .pnp import AdmmState, Observation, SolverConfig, admm_iteration, admm_operators
from .pnp import lambda_sweep, run
from .signal import StftConfig, TimeSignal, circular_convolve, istft, read_wav, stft, write_wav
from .trainer import CORPUS_RATE, SynthCorpusConfig, TrainConfig, train_denoiser
from .network import save_net

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_DIVERGED = 3

BOUND_TOLERANCE = 0.01


# ---------------------------------------------------------------------------
# CSV and config plumbing


def _format_cell(value) -> str:
    """Deterministic CSV cell: NaN literal, lowercase booleans, repr floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _load_json(path) -> dict:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


_EXPECTED = {
    int: "an integer", float: "a finite number", str: "a string", tuple: "a pair of numbers",
    list: "a non-empty list of numbers", (str, float): "a string or a number",
}


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _typed(kind, value):
    """``value`` converted to the table type ``kind``; ValueError if it is not one."""
    if kind is int and _is_finite(value) and float(value).is_integer():
        return int(value)
    if kind in (float, (str, float)) and _is_finite(value):
        return float(value)
    if kind in (str, (str, float)) and isinstance(value, str):
        return value
    if kind in (list, tuple) and isinstance(value, list) and all(map(_is_finite, value)):
        if len(value) == 2 or kind is list and value:
            return kind(float(item) for item in value)
    raise ValueError


_STFT_KEYS = {"window_length": (int, 512), "hop": (int, 256)}

# Each subcommand's config keys as key: (type, default). A flag named after
# a key overrides the file; a None default is worked out by the command.
# Keys named after a field of a config dataclass pass to it by name.
CONFIG_KEYS = {
    "validate-bounds": {
        "restarts": (int, 100),
        "max_iterations": (int, 100),
        "scales": (list, [0.5, 1.0, 2.0, 4.0]),
        "step_size": (float, 0.1),
        "termination_threshold": (float, 5.0),
    },
    "train": {
        "epochs": (int, 2),
        "batch_size": (int, 32),
        "learning_rate": (float, 1e-4),
        "snr_range": (tuple, (20.0, 40.0)),
        "frames": (int, 32),
        "arch": (str, "re"),
        "lipschitz": (str, "none"),
        "channel_width": (int, 64),
        "kernel_size": (int, 5),
        **_STFT_KEYS,
        "item_count": (int, 64),
        "duration_seconds": (float, None),
        "corpus_seed": (int, None),
    },
    "dereverb": {"lambda": (float, 1.0), "iters": (int, 500), **_STFT_KEYS},
    "sweep-lambda": {"grid": ((str, float), "1e-3:1e2:26log"), "iters": (int, 500), **_STFT_KEYS},
    "certify": {
        "restarts": (int, 8),
        "max_iterations": (int, 40),
        "frames": (int, 8),
        "shape": (str, None),
    },
}


def _resolve(args) -> dict:
    """The subcommand's parameters: CLI flag, then config file, then default."""
    table = CONFIG_KEYS[args.command]
    document = {} if args.config is None else _load_json(args.config)
    unknown = sorted(set(document) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed keys are {sorted(table)}")
    resolved = {key: default for key, (_, default) in table.items()}
    flags = {key: getattr(args, key) for key in table if getattr(args, key, None) is not None}
    for key, value in [*document.items(), *flags.items()]:
        kind = table[key][0]
        try:
            resolved[key] = _typed(kind, value)
        except (ValueError, OverflowError):
            raise ConfigError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")
    return resolved


def _fields(cls, config: dict) -> dict:
    """The entries of ``config`` that name a field of dataclass ``cls``."""
    return {f.name: config[f.name] for f in fields(cls) if f.name in config}


def _out_path(args, name_or_path) -> Path:
    path = Path(name_or_path)
    if not path.is_absolute():
        path = Path(args.out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# validate-bounds


def _bounds_task(task):
    """One architecture x constraint x scale cell, picklable for the pool."""
    kind, constrained, scale, search = task
    family = conv2d_family(kind, scale=scale, constrained=constrained)
    estimate = estimate_B(family, search)
    bound = estimate.certified_bound
    bound_cell = float("nan") if bound is None else bound
    rows = [
        (kind, constrained, scale, record.trial, record.value, bound_cell,
         record.terminated_early, record.iterations, record.evaluations, record.backtracks)
        for record in estimate.records
    ]
    violated = estimate.violates_bound(BOUND_TOLERANCE)
    return rows, (kind, constrained, scale, estimate.value, bound, violated)


def cmd_validate_bounds(args) -> int:
    config = _resolve(args)
    search = SearchConfig(**_fields(SearchConfig, config), seed=args.seed)
    cells = product(KINDS, (True, False), config["scales"])
    tasks = [(*cell, replace(search, seed=args.seed + index)) for index, cell in enumerate(cells)]

    if args.threads > 1:
        # the pool starts all its workers up front, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(args.threads, len(tasks))) as pool:
            outcomes = list(pool.map(_bounds_task, tasks))
    else:
        outcomes = [_bounds_task(task) for task in tasks]

    rows = [row for cell_rows, _ in outcomes for row in cell_rows]
    csv_path = _out_path(args, "validate_bounds.csv")
    write_csv(
        csv_path,
        ("architecture", "constrained", "scale", "trial", "empirical_B",
         "theoretical_bound", "terminated_early", "iterations", "evaluations", "backtracks"),
        rows,
    )

    violations = 0
    for _, (kind, constrained, scale, best, bound, violated) in outcomes:
        if bound is None:
            verdict = "unbounded"
            bound_text = "NaN"
        else:
            verdict = "FAIL" if violated else "PASS"
            bound_text = f"{bound:.6f}"
        print(
            f"{kind} scale={scale:g} constrained={str(constrained).lower()}: "
            f"max B {best:.6f} bound {bound_text} {verdict}"
        )
        violations += int(violated)
    print(f"wrote {csv_path}")
    if violations:
        print(f"{violations} cell(s) exceeded their certified bound", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    config = _resolve(args)
    stft_config = StftConfig(**_fields(StftConfig, config))
    train_config = TrainConfig(**_fields(TrainConfig, config), seed=args.seed, stft=stft_config)
    if config["duration_seconds"] is None:
        config["duration_seconds"] = train_config.segment_samples / CORPUS_RATE
    corpus_seed = args.seed if config["corpus_seed"] is None else config["corpus_seed"]
    corpus = SynthCorpusConfig(**_fields(SynthCorpusConfig, config), seed=corpus_seed)

    result = train_denoiser(train_config, corpus)

    weights_path = _out_path(args, args.out)
    save_net(
        weights_path,
        result.net,
        metadata={
            "kind": result.modifier_kind,
            "arch": result.arch,
            "lipschitz": result.lipschitz,
            "window_length": stft_config.window_length,
            "hop": stft_config.hop,
            "best_epoch": result.best_epoch,
        },
    )
    log_path = _out_path(args, "train_log.csv")
    write_csv(
        log_path,
        ("epoch", "train_loss", "val_loss"),
        [(row["epoch"], row["train_loss"], row["val_loss"]) for row in result.log],
    )
    # Deployment config for the safeguarded wrapper around the trained net,
    # directly consumable by dereverb, sweep-lambda, and certify. The plain
    # trained kind is deliberately not emitted here: wrapping it is a choice
    # the user should make knowing it carries no certified bound.
    deploy_path = weights_path.with_name(weights_path.stem + ".deploy.json")
    deploy_document = architecture_to_config(
        ModifierArchitecture("lipsam_" + result.arch, NetMap(result.net)), weights_path.name
    )
    with open(deploy_path, "w", encoding="utf-8") as handle:
        json.dump(deploy_document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"status {result.status}: best epoch {result.best_epoch}, "
        f"validation loss {result.best_val_loss:.4f}"
    )
    print(f"wrote {weights_path}")
    print(f"wrote {log_path}")
    print(f"wrote {deploy_path}")
    if result.status != "completed":
        print(f"training aborted at {result.poisoned_at}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# dereverb and sweep-lambda

def _load_denoiser(path):
    document = _load_json(path)
    try:
        return architecture_from_config(document, base_dir=Path(path).parent)
    except (KeyError, DomainError, ShapeError, FormatError) as exc:
        raise ConfigError(f"invalid denoiser config {path}: {exc}")


def _solver_inputs(args, config, lam):
    """Observation, denoiser, optional reference and solver config of a run."""
    observation = Observation(read_wav(args.input), read_wav(args.rir))
    denoiser = _load_denoiser(args.denoiser)
    reference = read_wav(args.reference) if args.reference else None
    stft_config = StftConfig(**_fields(StftConfig, config))
    solver = SolverConfig(lam=lam, max_iterations=config["iters"], stft=stft_config)
    return observation, denoiser, reference, solver


def cmd_dereverb(args) -> int:
    config = _resolve(args)
    observation, denoiser, reference, solver = _solver_inputs(args, config, config["lambda"])

    result = run(observation, denoiser, solver, reference=reference)

    out_path = _out_path(args, args.out)
    write_wav(out_path, result.x_hat)
    print(f"wrote {out_path}")
    if args.trace:
        header = ["iteration", "delta_x"]
        rows = [[k + 1, d] for k, d in enumerate(result.delta_x)]
        if result.si_snr_trace is not None:
            header.append("si_snr")
            for row, value in zip(rows, result.si_snr_trace):
                row.append(value)
        trace_path = _out_path(args, args.trace)
        write_csv(trace_path, header, rows)
        print(f"wrote {trace_path}")
    print(f"status {result.status_text} after {result.iterations} iteration(s)")
    if result.diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def parse_lambda_grid(text: str) -> np.ndarray:
    """Grid syntax: 'lo:hi:Nlog', 'lo:hi:Nlin' (or bare N, linear), or a
    single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) != 3:
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        count_text = parts[2]
        spacing = "lin"
        if count_text.endswith("log"):
            spacing, count_text = "log", count_text[:-3]
        elif count_text.endswith("lin"):
            count_text = count_text[:-3]
        count = int(count_text)
        if count < 1 or lo <= 0.0 and spacing == "log":
            raise ValueError
        if spacing == "log":
            return np.logspace(np.log10(lo), np.log10(hi), count)
        return np.linspace(lo, hi, count)
    except ValueError:
        raise ConfigError(
            f"cannot parse lambda grid {text!r}; expected 'lo:hi:Nlog', 'lo:hi:Nlin', or a number"
        )


def cmd_sweep_lambda(args) -> int:
    config = _resolve(args)
    grid = parse_lambda_grid(str(config["grid"]))
    observation, denoiser, reference, solver = _solver_inputs(args, config, 1.0)

    results = lambda_sweep(observation, denoiser, grid, solver, reference=reference)

    csv_path = _out_path(args, args.out)
    write_csv(
        csv_path,
        ("lambda", "final_si_snr", "status", "best"),
        [(r["lambda"], r["final_si_snr"], r["status"], r["best"]) for r in results],
    )
    print(f"wrote {csv_path}")
    for r in results:
        if r["best"]:
            print(f"best lambda {r['lambda']:g} with SI-SNR {r['final_si_snr']:.4f}")
    if all(r["status"].startswith("diverged") for r in results):
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _certify_input_shape(arch, config) -> tuple:
    shape_text = config["shape"]
    if shape_text is not None:
        try:
            dims = tuple(int(d) for d in shape_text.lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse shape {shape_text!r}; expected e.g. '4x4'")
        if len(dims) != 2 or min(dims) < 1:
            raise ConfigError("shape must be two positive dimensions, e.g. '4x4'")
        return dims
    # Default small: every trial forms a dense n×n amplitude Jacobian and its
    # SVD for n coefficients, so wide default shapes would crawl.
    if isinstance(arch.inner, NetMap) and not arch.inner.net.is_2d:
        return (arch.inner.net.in_channels, config["frames"])
    return (4, 4)


def cmd_certify(args) -> int:
    config = _resolve(args)
    arch = _load_denoiser(args.modifier)
    shape = _certify_input_shape(arch, config)
    scale = arch.inner.net.scale if isinstance(arch.inner, NetMap) else float("nan")
    family = fixed_modifier_family(arch, shape)
    bound = float("nan") if family.certified_bound is None else family.certified_bound

    estimate = estimate_B(family, SearchConfig(**_fields(SearchConfig, config), seed=args.seed))
    best = estimate.value

    csv_path = _out_path(args, args.out)
    write_csv(
        csv_path,
        ("trial_id", "architecture", "scale", "empirical_B", "theoretical_bound",
         "terminated_early", "wall_time", "evaluations", "backtracks"),
        [
            (record.trial, arch.kind, scale, record.value, bound, record.terminated_early,
             record.wall_time, record.evaluations, record.backtracks)
            for record in estimate.records
        ],
    )
    print(f"wrote {csv_path}")
    if math.isnan(bound):
        print(f"{arch.kind}: empirical B {best:.6f}, no certified bound")
        return EXIT_OK
    verdict = "PASS" if best <= bound + BOUND_TOLERANCE else "FAIL"
    print(f"{arch.kind}: empirical B {best:.6f} vs bound {bound:.6f} {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# selfcheck

def _check_stft_round_trip(fault: bool):
    config = StftConfig()
    if fault:
        # Simulated corruption: denormalize the tight window after validation.
        object.__setattr__(config, "window", config.window * 1.0005)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        x = TimeSignal(rng.standard_normal(4096), 8000)
        back = istft(stft(x, config), config, 8000)
        worst = max(worst, float(np.max(np.abs(back.samples - x.samples))))
    return worst < 1e-10, f"max round-trip error {worst:.3e}"


def _identity_iteration(y, h, u, xi1):
    """State, operators and identity denoiser for one fused ADMM iteration
    on y and h, from time-domain u and xi1 with x = v = xi2 = 0."""
    rate = 8000
    small = StftConfig(window_length=16, hop=8)
    observation = Observation(TimeSignal(y, rate), TimeSignal(h, rate))
    ops = admm_operators(observation, small)
    zero = np.zeros(y.size)
    zero_spec = np.zeros((small.num_bins, y.size // small.hop), dtype=np.complex128)
    state = AdmmState(
        x=zero, u_spectrum=np.fft.rfft(u), v=zero_spec, xi1_spectrum=np.fft.rfft(xi1), xi2=zero_spec
    )
    return state, ops, ModifierArchitecture("lipsam_re", ZeroMap())


def _check_prox_closed_form(fault: bool):
    import scipy.optimize

    rng = np.random.default_rng(1)
    y = rng.standard_normal(32)
    h = rng.standard_normal(4)
    xi1 = rng.standard_normal(32)
    state, ops, identity = _identity_iteration(y, h, y, xi1)
    worst = 0.0
    for lam in (1e-3, 1.0, 1e2):
        result = admm_iteration(state, ops, identity, lam)
        w = (
            circular_convolve(TimeSignal(result.x), TimeSignal(h)).samples
            + xi1
            - y
        )
        lam_oracle = lam * 1.01 if fault else lam

        solution = scipy.optimize.minimize(
            lambda p: np.sum(p * p) / (2.0 * lam_oracle) + 0.5 * np.sum((p - w) ** 2),
            np.zeros(w.size),
            jac=lambda p: p / lam_oracle + (p - w),
            method="BFGS",
            options={"gtol": 1e-14},
        )
        u = np.fft.irfft(result.u_spectrum, n=y.size)
        worst = max(worst, float(np.max(np.abs((u - y) - solution.x))))
    return worst < 1e-8, f"max prox deviation {worst:.3e}"


def _check_inverse_filter(fault: bool):
    rng = np.random.default_rng(2)
    h = rng.standard_normal(8)
    a = rng.standard_normal(48)
    # with v = xi2 = 0 the x-update is (H^T H + I)^-1 H^T (u - xi1)
    state, ops, identity = _identity_iteration(np.zeros(48), h, a, np.zeros(48))
    if fault:
        ops = replace(ops, inverse_filter=ops.inverse_filter + 1e-3)
    fast = admm_iteration(state, ops, identity, 1.0).x
    padded = np.zeros(48)
    padded[:8] = h
    dense_h = np.stack([np.roll(padded, k) for k in range(48)], axis=1)
    dense = np.linalg.solve(dense_h.T @ dense_h + np.eye(48), dense_h.T @ a)
    worst = float(np.max(np.abs(fast - dense)))
    return worst < 1e-8, f"max inverse-filter deviation {worst:.3e}"


def _check_counterexamples(fault: bool):
    bias = counterexample_bias(1e-3)
    permutation = counterexample_permutation(1e-3)
    expected_bias = 1001.0 + (0.5 if fault else 0.0)
    ok = (
        abs(bias - expected_bias) <= 1e-9 * expected_bias
        and abs(permutation - 1000.0) <= 1e-9 * 1000.0
    )
    return ok, f"bias 1e-3 -> {round(bias, 6)}, permutation 1e-3 -> {round(permutation, 6)}"


# each check by name, in the order selfcheck runs them
_CHECKS = {
    "stft-round-trip": _check_stft_round_trip,
    "prox-closed-form": _check_prox_closed_form,
    "inverse-filter": _check_inverse_filter,
    "counterexamples": _check_counterexamples,
}


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check in _CHECKS.items():
        ok, detail = check(fault=(args.inject_fault == name))
        print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        failures += int(not ok)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors through the exit-code contract."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON parameter document (strict schema)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")

    parser = _Parser(prog="lipsam", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("validate-bounds", parents=[common],
                            help="empirical Lipschitz search over the architecture grid")
    p.add_argument("--threads", type=int, default=1, help="worker processes for the cells")
    p.set_defaults(handler=cmd_validate_bounds)

    p = commands.add_parser("train", parents=[common], help="train a denoiser")
    p.add_argument("--arch", choices=("se", "re"))
    p.add_argument("--lipschitz", choices=("none", "spectral"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", default="denoiser.npz")
    p.set_defaults(handler=cmd_train)

    p = commands.add_parser("dereverb", parents=[common], help="run the ADMM solver")
    p.add_argument("--input", required=True)
    p.add_argument("--rir", required=True)
    p.add_argument("--denoiser", required=True, help="architecture config JSON")
    p.add_argument("--lambda", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--out", default="dereverbed.wav")
    p.add_argument("--trace", help="per-iteration trace CSV path")
    p.add_argument("--reference", help="clean WAV for SI-SNR tracing")
    p.set_defaults(handler=cmd_dereverb)

    p = commands.add_parser("sweep-lambda", parents=[common],
                            help="run the solver across a lambda grid")
    p.add_argument("--input", required=True)
    p.add_argument("--rir", required=True)
    p.add_argument("--denoiser", required=True)
    p.add_argument("--grid", help="'lo:hi:Nlog', 'lo:hi:Nlin', or a single value")
    p.add_argument("--iters", type=int)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--reference", help="clean WAV for SI-SNR ranking")
    p.set_defaults(handler=cmd_sweep_lambda)

    p = commands.add_parser("certify", parents=[common],
                            help="empirical Lipschitz estimate for a saved modifier")
    p.add_argument("--modifier", required=True, help="architecture config JSON")
    p.add_argument("--restarts", type=int)
    p.add_argument("--shape", help="complex input shape, e.g. '4x4'")
    p.add_argument("--out", default="certify.csv")
    p.set_defaults(handler=cmd_certify)

    p = commands.add_parser("selfcheck", parents=[common],
                            help="run the built-in oracle suites")
    p.add_argument("--inject-fault", choices=tuple(_CHECKS))
    p.set_defaults(handler=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate-bounds" and args.threads < 1:
            parser.error("--threads must be at least 1")
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DomainError,
        ShapeError,
        FormatError,
        InvalidWindowError,
        UndefinedMetricError,
        NonFiniteError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
