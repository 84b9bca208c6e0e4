"""Exit codes, CSV formats, config validation, and subcommand behavior."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lipsam
from lipsam.cli import CONFIG_KEYS, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from lipsam.cli import build_parser, main, parse_lambda_grid
from lipsam.errors import ConfigError
from lipsam.modifier import BiasAdd, architecture_from_config
from lipsam.network import IDENTITY, ConvLayer, ConvNet, load_net, save_net
from lipsam.signal import TimeSignal, circular_convolve, add_noise_at_snr, read_wav, write_wav
from lipsam.trainer import SynthCorpusConfig, synth_rir, synth_speechlike, train_denoiser
from oracles import rewrite_member

RATE = 8000


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write_json(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def make_wav_fixtures(directory):
    corpus = SynthCorpusConfig(item_count=1, duration_seconds=0.128, seed=0)
    clean = synth_speechlike(corpus, 0)
    rir = synth_rir(64, 0.004, seed=2)
    observed = add_noise_at_snr(circular_convolve(clean, rir), 30.0, seed=3)
    paths = {}
    for name, signal in (("clean", clean), ("rir", rir), ("observed", observed)):
        path = directory / f"{name}.wav"
        write_wav(path, signal)
        paths[name] = str(path)
    return paths


SOLVER_KEYS = {"window_length": 64, "hop": 32}


# ---------------------------------------------------------------------------
# selfcheck


def test_selfcheck_passes_on_fresh_checkout(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("stft-round-trip", "prox-closed-form", "inverse-filter", "counterexamples"):
        assert f"check {name}: ok" in out
    assert "1001.0" in out


@pytest.mark.parametrize(
    "fault", ["stft-round-trip", "prox-closed-form", "inverse-filter", "counterexamples"]
)
def test_selfcheck_fault_injection_names_the_failing_check(capsys, fault):
    assert main(["selfcheck", "--inject-fault", fault]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert f"check {fault}: FAIL" in out
    for name in ("stft-round-trip", "prox-closed-form", "inverse-filter", "counterexamples"):
        if name != fault:
            assert f"check {name}: ok" in out


def test_selfcheck_reports_a_drifted_counterexample_as_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(BiasAdd, "__call__", lambda self, x: x + 1.001 * self.b)
    assert main(["selfcheck"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "check counterexamples: FAIL (bias 1e-3 -> 1002.0," in out
    for name in ("stft-round-trip", "prox-closed-form", "inverse-filter"):
        assert f"check {name}: ok" in out


# ---------------------------------------------------------------------------
# validate-bounds


def test_validate_bounds_small_grid(workdir, capsys):
    config = write_json(
        workdir / "vb.json", {"restarts": 3, "max_iterations": 25, "scales": [1.0]}
    )
    code = main(
        ["validate-bounds", "--config", config, "--out-dir", str(workdir), "--seed", "0"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "lipsam_se scale=1 constrained=true" in out
    assert "bound 1.414214" in out
    assert "bound 2.000000" in out

    rows = read_rows(workdir / "validate_bounds.csv")
    assert rows[0] == [
        "architecture", "constrained", "scale", "trial", "empirical_B",
        "theoretical_bound", "terminated_early", "iterations", "evaluations", "backtracks",
    ]
    assert len(rows) == 1 + 8 * 3  # 4 kinds x 2 constraints, 3 trials each
    for row in rows[1:]:
        assert row[1] in ("true", "false")
        assert row[6] in ("true", "false")
        bound = row[5]
        if row[0].startswith("lipsam") and row[1] == "true":
            assert float(row[4]) <= float(bound) + 0.01
        else:
            assert bound == "NaN"


def test_validate_bounds_output_is_byte_identical(workdir):
    config = write_json(
        workdir / "vb.json", {"restarts": 2, "max_iterations": 15, "scales": [0.5]}
    )
    for sub in ("a", "b"):
        assert (
            main(["validate-bounds", "--config", config,
                  "--out-dir", str(workdir / sub), "--seed", "3"])
            == EXIT_OK
        )
    first = (workdir / "a" / "validate_bounds.csv").read_bytes()
    second = (workdir / "b" / "validate_bounds.csv").read_bytes()
    assert first == second


def test_validate_bounds_threads_do_not_change_output(workdir):
    config = write_json(
        workdir / "vb.json", {"restarts": 2, "max_iterations": 15, "scales": [1.0]}
    )
    assert main(["validate-bounds", "--config", config,
                 "--out-dir", str(workdir / "serial"), "--seed", "1"]) == EXIT_OK
    assert main(["validate-bounds", "--config", config,
                 "--out-dir", str(workdir / "pooled"), "--seed", "1",
                 "--threads", "3"]) == EXIT_OK
    assert (
        (workdir / "serial" / "validate_bounds.csv").read_bytes()
        == (workdir / "pooled" / "validate_bounds.csv").read_bytes()
    )


def test_validate_bounds_starts_no_more_workers_than_cells(workdir, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = write_json(
        workdir / "vb.json", {"restarts": 1, "max_iterations": 2, "scales": [1.0]}
    )
    assert main(["validate-bounds", "--config", config, "--out-dir", str(workdir),
                 "--threads", "64"]) == EXIT_OK
    assert started == [8]  # 4 kinds x 2 constraints x 1 scale
    assert len(read_rows(workdir / "validate_bounds.csv")) == 1 + 8


def test_validate_bounds_rejects_a_non_finite_step_size(workdir, capsys):
    config = write_json(
        workdir / "vb.json",
        {"restarts": 2, "max_iterations": 20, "scales": [4.0], "step_size": float("nan")},
    )
    assert main(["validate-bounds", "--config", config,
                 "--out-dir", str(workdir)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "validate_bounds.csv").exists()


def test_unknown_config_keys_are_a_usage_error(workdir, capsys):
    config = write_json(workdir / "bad.json", {"restarts": 2, "bogus": 1})
    assert main(["validate-bounds", "--config", config,
                 "--out-dir", str(workdir)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-bounds", "certify"])
def test_a_config_that_is_not_utf8_is_a_config_error(workdir, capsys, command):
    if command == "validate-bounds":
        path = workdir / "bounds.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with its byte order mark
        argv = ["validate-bounds", "--config", str(path)]
    else:
        # the weight file passed where its .deploy.json belongs
        path = workdir / "denoiser.npz"
        save_net(path, ConvNet((ConvLayer(np.ones((1, 1, 3))),)))
        argv = ["certify", "--modifier", str(path), "--restarts", "1"]
    assert main(argv + ["--out-dir", str(workdir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# train


def train_args(workdir, config_path, extra=()):
    return [
        "train", "--arch", "re", "--epochs", "2", "--out", "denoiser.npz",
        "--config", config_path, "--out-dir", str(workdir), "--seed", "0", *extra,
    ]


TRAIN_CONFIG = {
    "batch_size": 4,
    "learning_rate": 0.01,
    "channel_width": 8,
    "kernel_size": 3,
    "window_length": 64,
    "hop": 32,
    "item_count": 8,
    "duration_seconds": 0.128,
}


def test_train_rejects_a_non_finite_duration(workdir, capsys):
    config = write_json(workdir / "train.json", {"epochs": 1, "duration_seconds": float("nan")})
    assert main(["train", "--config", config, "--out-dir", str(workdir)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_train_rejects_a_duration_under_one_sample(workdir, capsys):
    config = write_json(workdir / "train.json", {"duration_seconds": 1e-9})
    assert main(["train", "--config", config, "--out-dir", str(workdir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "under one sample" in err
    assert not (workdir / "denoiser.npz").exists()


def test_train_rejects_a_segment_shorter_than_one_window(workdir, capsys):
    config = write_json(workdir / "train.json", {"frames": 1, "hop": 128})
    assert main(["train", "--config", config, "--out-dir", str(workdir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: segment length 128") and "Traceback" not in err
    assert not (workdir / "denoiser.npz").exists()


def test_train_writes_weights_and_log(workdir, capsys, monkeypatch):
    results = []

    def recording_train(*configs):
        results.append(train_denoiser(*configs))
        return results[-1]

    monkeypatch.setattr("lipsam.cli.train_denoiser", recording_train)
    config = write_json(workdir / "train.json", TRAIN_CONFIG)
    assert main(train_args(workdir, config)) == EXIT_OK
    out = capsys.readouterr().out
    assert "status completed" in out

    net = load_net(workdir / "denoiser.npz")
    assert net.in_channels == 33
    sidecar = json.loads((workdir / "denoiser.npz.json").read_text())
    assert sidecar == {"kind": "am_re", "arch": "re", "lipschitz": "none", "window_length": 64,
                       "hop": 32, "best_epoch": results[0].best_epoch}

    # the weight file is a plain npz: numpy alone reads the trained parameters
    with np.load(workdir / "denoiser.npz", allow_pickle=False) as archive:
        members = [archive[name] for name in archive.files
                   if name.startswith(("weights_", "bias_"))]
    flat = np.concatenate([member.reshape(-1) for member in members])
    assert flat.tobytes() == results[0].net.flatten_parameters().tobytes()

    rows = read_rows(workdir / "train_log.csv")
    assert rows[0] == ["epoch", "train_loss", "val_loss"]
    assert len(rows) == 4  # epoch 0 plus two training epochs
    assert rows[1][1] == "NaN"
    assert [row[0] for row in rows[1:]] == ["0", "1", "2"]

    # The emitted deployment config wraps the trained net in its safeguarded
    # counterpart and loads through the same path dereverb and certify use.
    deploy = json.loads((workdir / "denoiser.deploy.json").read_text())
    assert deploy == {
        "kind": "lipsam_re",
        "inner": {"variant": "net", "file": "denoiser.npz"},
    }
    arch = architecture_from_config(deploy, base_dir=workdir)
    assert arch.kind == "lipsam_re"
    assert arch.inner.net.in_channels == 33


def test_a_diverging_train_writes_its_last_good_checkpoint(workdir, capsys):
    # at this learning rate the projection's eigensolver fails on the first update
    config = write_json(workdir / "train.json", {
        "window_length": 64, "hop": 32, "frames": 4, "channel_width": 4, "kernel_size": 3,
        "arch": "se", "item_count": 8, "duration_seconds": 0.128, "epochs": 2,
        "batch_size": 4, "learning_rate": 1e160, "lipschitz": "spectral",
    })
    assert main(["train", "--config", config, "--out-dir", str(workdir)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert "status aborted: best epoch 0" in captured.out
    assert "training aborted at (1, 0)" in captured.err
    for name in ("denoiser.npz", "denoiser.deploy.json", "train_log.csv"):
        assert (workdir / name).exists()
    assert [row[0] for row in read_rows(workdir / "train_log.csv")[1:]] == ["0"]


def test_train_log_is_byte_identical_across_runs(workdir):
    config = write_json(workdir / "train.json", TRAIN_CONFIG)
    for sub in ("one", "two"):
        assert main(train_args(workdir / sub, config)) == EXIT_OK
    assert (
        (workdir / "one" / "train_log.csv").read_bytes()
        == (workdir / "two" / "train_log.csv").read_bytes()
    )
    assert (
        (workdir / "one" / "denoiser.npz").read_bytes()
        == (workdir / "two" / "denoiser.npz").read_bytes()
    )


# ---------------------------------------------------------------------------
# dereverb


def test_dereverb_writes_wav_and_trace(workdir, capsys):
    paths = make_wav_fixtures(workdir)
    solver = write_json(workdir / "solver.json", SOLVER_KEYS)
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    code = main([
        "dereverb", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--lambda", "0.01", "--iters", "40",
        "--out", "dereverbed.wav", "--trace", "trace.csv",
        "--reference", paths["clean"], "--config", solver,
        "--out-dir", str(workdir),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "status completed" in out
    assert (workdir / "dereverbed.wav").exists()

    rows = read_rows(workdir / "trace.csv")
    assert rows[0] == ["iteration", "delta_x", "si_snr"]
    assert len(rows) == 41
    assert [row[0] for row in rows[1:4]] == ["1", "2", "3"]
    assert all(np.isfinite(float(row[1])) for row in rows[1:])


def test_dereverb_rejects_reference_at_another_rate(workdir, capsys):
    paths = make_wav_fixtures(workdir)
    clean = read_wav(paths["clean"])
    write_wav(workdir / "clean_16k.wav", TimeSignal(clean.samples, 2 * RATE))
    solver = write_json(workdir / "solver.json", SOLVER_KEYS)
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    code = main([
        "dereverb", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--iters", "5", "--out", "dereverbed.wav",
        "--reference", str(workdir / "clean_16k.wav"), "--config", solver,
        "--out-dir", str(workdir),
    ])
    assert code == EXIT_USAGE
    assert "sample rates differ" in capsys.readouterr().err
    assert not (workdir / "dereverbed.wav").exists()


def test_dereverb_rejects_an_input_that_is_not_a_wav(workdir, capsys):
    paths = make_wav_fixtures(workdir)
    (workdir / "notes.wav").write_text("not a wav\n")
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    code = main([
        "dereverb", "--input", str(workdir / "notes.wav"), "--rir", paths["rir"],
        "--denoiser", denoiser, "--iters", "5", "--out", "dereverbed.wav",
        "--out-dir", str(workdir),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: cannot read ") and "Traceback" not in err
    assert not (workdir / "dereverbed.wav").exists()


def test_dereverb_without_reference_omits_si_snr_column(workdir):
    paths = make_wav_fixtures(workdir)
    solver = write_json(workdir / "solver.json", SOLVER_KEYS)
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    code = main([
        "dereverb", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--lambda", "0.01", "--iters", "10",
        "--out", "dereverbed.wav", "--trace", "trace.csv", "--config", solver,
        "--out-dir", str(workdir),
    ])
    assert code == EXIT_OK
    assert read_rows(workdir / "trace.csv")[0] == ["iteration", "delta_x"]


def _amplifier_denoiser_config(directory):
    """A gain-10 amplitude net: guaranteed blow-up inside the splitting loop."""
    bins = 33
    weights = 10.0 * np.eye(bins)[:, :, None]
    net = ConvNet((ConvLayer(weights, activation=IDENTITY),))
    save_net(directory / "amplifier.npz", net)
    return write_json(
        directory / "amplifier.json",
        {"kind": "am_se", "inner": {"variant": "net", "file": "amplifier.npz"}},
    )


def test_dereverb_divergence_exits_3(workdir, capsys):
    paths = make_wav_fixtures(workdir)
    solver = write_json(workdir / "solver.json", SOLVER_KEYS)
    denoiser = _amplifier_denoiser_config(workdir)
    code = main([
        "dereverb", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--lambda", "1.0", "--iters", "500",
        "--out", "dereverbed.wav", "--trace", "trace.csv", "--config", solver,
        "--out-dir", str(workdir),
    ])
    assert code == EXIT_DIVERGED
    assert "diverged(" in capsys.readouterr().out
    # the trace covers exactly the completed iterations
    assert len(read_rows(workdir / "trace.csv")) < 501


# ---------------------------------------------------------------------------
# sweep-lambda


def test_sweep_lambda_marks_single_best(workdir):
    paths = make_wav_fixtures(workdir)
    solver = write_json(workdir / "solver.json", SOLVER_KEYS)
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    args = [
        "sweep-lambda", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--grid", "1e-3:1e-1:3log", "--iters", "30",
        "--reference", paths["clean"], "--config", solver,
        "--out-dir", str(workdir), "--out", "sweep.csv",
    ]
    assert main(args) == EXIT_OK
    rows = read_rows(workdir / "sweep.csv")
    assert rows[0] == ["lambda", "final_si_snr", "status", "best"]
    assert len(rows) == 4
    assert sum(row[3] == "true" for row in rows[1:]) == 1
    first = (workdir / "sweep.csv").read_bytes()
    assert main(args) == EXIT_OK
    assert (workdir / "sweep.csv").read_bytes() == first


def test_grid_parser():
    log_grid = parse_lambda_grid("1e-3:1e2:26log")
    assert log_grid.size == 26
    assert log_grid[0] == pytest.approx(1e-3)
    assert log_grid[-1] == pytest.approx(1e2)
    lin = parse_lambda_grid("1:3:3lin")
    assert np.allclose(lin, [1.0, 2.0, 3.0])
    assert np.allclose(parse_lambda_grid("0.25"), [0.25])
    with pytest.raises(ConfigError):
        parse_lambda_grid("1:2")
    with pytest.raises(ConfigError):
        parse_lambda_grid("abc")
    with pytest.raises(ConfigError):
        parse_lambda_grid("-1:10:5log")


@pytest.mark.parametrize("text", ["1:-1:3log", "1:0:3log", "1:inf:3lin", "nan:1:3",
                                  "1:inf:3log", "inf"])
def test_parse_lambda_grid_rejects_a_grid_it_cannot_build(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="cannot parse lambda grid"):
            parse_lambda_grid(text)


# ---------------------------------------------------------------------------
# certify


def test_certify_analytic_modifier_passes(workdir, capsys):
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.1}},
    )
    code = main([
        "certify", "--modifier", denoiser, "--restarts", "4",
        "--out-dir", str(workdir), "--out", "certify.csv", "--seed", "1",
    ])
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    rows = read_rows(workdir / "certify.csv")
    assert rows[0] == [
        "trial_id", "architecture", "scale", "empirical_B", "theoretical_bound",
        "terminated_early", "wall_time", "evaluations", "backtracks",
    ]
    assert len(rows) == 5
    for row in rows[1:]:
        assert row[1] == "lipsam_re"
        assert float(row[4]) == 1.0
        assert float(row[3]) <= 1.0 + 0.01


@pytest.mark.parametrize("b", ["x", float("nan")])
def test_certify_rejects_a_malformed_bias(workdir, capsys, b):
    denoiser = write_json(
        workdir / "bias.json", {"kind": "am_se", "inner": {"variant": "bias_add", "b": b}}
    )
    code = main(["certify", "--modifier", denoiser, "--restarts", "2",
                 "--out-dir", str(workdir)])
    assert code == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_certify_catches_a_lying_certificate(workdir, capsys):
    # A channel-swap gain-5 net whose stamped certificate claims 0.01: the
    # empirical search must land above the fake bound and fail the run.
    weights = np.array([[0.0, 5.0], [5.0, 0.0]])[:, :, None]
    net = ConvNet((ConvLayer(weights, activation=IDENTITY, norm_certificate=0.01),))
    save_net(workdir / "liar.npz", net)
    denoiser = write_json(
        workdir / "liar.json",
        {"kind": "lipsam_se", "inner": {"variant": "net", "file": "liar.npz"}},
    )
    code = main([
        "certify", "--modifier", denoiser, "--restarts", "6", "--shape", "2x4",
        "--out-dir", str(workdir), "--out", "certify.csv", "--seed", "0",
    ])
    assert code == EXIT_VIOLATION
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("certificate", [float("nan"), -1.0])
def test_certify_rejects_a_corrupt_stored_certificate(workdir, capsys, certificate):
    # A CRC-valid archive whose certificate is NaN or negative must stop
    # the run with a usage error, not print "no certified bound" or a traceback.
    net = ConvNet((ConvLayer(np.ones((1, 1, 3)), activation=IDENTITY, norm_certificate=0.5),))
    save_net(workdir / "corrupt.npz", net)
    rewrite_member(workdir / "corrupt.npz", "certificate_0", np.float64(certificate))
    denoiser = write_json(
        workdir / "corrupt.json",
        {"kind": "lipsam_se", "inner": {"variant": "net", "file": "corrupt.npz"}},
    )
    code = main([
        "certify", "--modifier", denoiser, "--restarts", "1", "--shape", "1x4",
        "--out-dir", str(workdir), "--out", "certify.csv", "--seed", "0",
    ])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "certificate" in captured.err
    assert "no certified bound" not in captured.out


@pytest.mark.parametrize("damage", ["truncated", "empty"])
def test_certify_rejects_a_damaged_weight_file(workdir, capsys, damage):
    save_net(workdir / "damaged.npz", ConvNet((ConvLayer(np.ones((1, 1, 3))),)))
    blob = (workdir / "damaged.npz").read_bytes()
    (workdir / "damaged.npz").write_bytes(blob[: len(blob) // 2] if damage == "truncated" else b"")
    denoiser = write_json(
        workdir / "damaged.json",
        {"kind": "lipsam_re", "inner": {"variant": "net", "file": "damaged.npz"}},
    )
    code = main(["certify", "--modifier", denoiser, "--restarts", "1", "--out-dir", str(workdir)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cannot load a network" in err
    assert "Traceback" not in err


def test_certify_rejects_a_zero_width_layer(workdir, capsys):
    # a CRC-valid archive whose hidden layer has no channels: the run must
    # stop with an error, not a traceback from deep inside the search
    layers = (ConvLayer(np.ones((1, 4, 3))), ConvLayer(np.ones((4, 1, 3))))
    object.__setattr__(layers[0], "weights", np.ones((0, 4, 3)))
    object.__setattr__(layers[1], "weights", np.ones((4, 0, 3)))
    save_net(workdir / "hollow.npz", ConvNet(layers))
    denoiser = write_json(
        workdir / "hollow.json",
        {"kind": "lipsam_re", "inner": {"variant": "net", "file": "hollow.npz"}},
    )
    code = main(["certify", "--modifier", denoiser, "--restarts", "1", "--out-dir", str(workdir)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "channel" in err


def _leaky_denoiser(workdir):
    net = ConvNet((ConvLayer(0.3 * np.random.default_rng(0).standard_normal((4, 4, 3))),))
    save_net(workdir / "leaky.npz", net)  # leaky relu is the layer default
    return write_json(
        workdir / "leaky.json",
        {"kind": "lipsam_re", "inner": {"variant": "net", "file": "leaky.npz"}},
    )


def test_certify_leaky_net_writes_one_row_per_restart(workdir, capsys):
    code = main([
        "certify", "--modifier", _leaky_denoiser(workdir), "--restarts", "2", "--shape", "4x4",
        "--out-dir", str(workdir), "--out", "certify.csv", "--seed", "0",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "lipsam_re: empirical B" in out and "no certified bound" in out
    rows = read_rows(workdir / "certify.csv")
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    for row in rows[1:]:
        value, wall_time = float(row[3]), float(row[6])
        evaluations, backtracks = int(row[7]), int(row[8])
        assert np.isfinite(value) and value > 0.0
        assert np.isfinite(wall_time) and wall_time >= 0.0
        assert evaluations >= 1 + backtracks


def test_certify_reports_a_non_finite_search(workdir, capsys, monkeypatch):
    import lipsam.modifier

    denoiser = _leaky_denoiser(workdir)
    real = lipsam.modifier.net_forward

    def nan_forward(net, x):
        out, cache = real(net, x)
        return np.full_like(out, np.nan), cache

    # the inner net reads NaN everywhere, so no trial has a finite objective
    monkeypatch.setattr(lipsam.modifier, "net_forward", nan_forward)
    code = main([
        "certify", "--modifier", denoiser, "--restarts", "2", "--shape", "4x4",
        "--out-dir", str(workdir), "--out", "certify.csv", "--seed", "0",
    ])
    assert code == EXIT_USAGE
    assert "error: every search trial produced a non-finite objective" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors_exit_1(workdir, capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["dereverb", "--rir", "x.wav", "--denoiser", "d.json"]) == EXIT_USAGE
    paths = make_wav_fixtures(workdir)
    denoiser = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    assert main([
        "dereverb", "--input", str(workdir / "missing.wav"), "--rir", paths["rir"],
        "--denoiser", denoiser, "--out-dir", str(workdir),
    ]) == EXIT_USAGE
    assert main([
        "sweep-lambda", "--input", paths["observed"], "--rir", paths["rir"],
        "--denoiser", denoiser, "--grid", "nonsense", "--out-dir", str(workdir),
    ]) == EXIT_USAGE
    assert main(["validate-bounds", "--threads", "0", "--out-dir", str(workdir)]) == EXIT_USAGE
    assert "usage error: --threads must be at least 1" in capsys.readouterr().err
    assert not (workdir / "validate_bounds.csv").exists()


def test_threads_is_a_validate_bounds_option_only(workdir, capsys):
    assert main(["train", "--threads", "2", "--out-dir", str(workdir)]) == EXIT_USAGE
    assert "usage error: unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not any(workdir.iterdir())


# ---------------------------------------------------------------------------
# the config table

WRONG_VALUES = {
    int: ["x", 2.7, True, None],
    float: ["x", float("nan"), True],
    str: [1],
    list: [[], 1.0, ["x"]],
    tuple: [[1], "x"],
    (str, float): [[1], True],
}


@pytest.fixture(scope="module")
def required_args(tmp_path_factory):
    """Valid required flags per subcommand, so only the config can fail."""
    directory = tmp_path_factory.mktemp("inputs")
    paths = make_wav_fixtures(directory)
    denoiser = write_json(
        directory / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.05}},
    )
    solve = ["--input", paths["observed"], "--rir", paths["rir"], "--denoiser", denoiser]
    return {
        "validate-bounds": [], "train": [], "dereverb": solve, "sweep-lambda": solve,
        "certify": ["--modifier", denoiser],
    }


@pytest.mark.parametrize(
    "command, key, value",
    [
        (command, key, value)
        for command, table in CONFIG_KEYS.items()
        for key, (kind, _) in table.items()
        for value in WRONG_VALUES[kind]
    ],
)
def test_every_config_key_rejects_a_wrong_typed_value(
    tmp_path, capsys, required_args, command, key, value
):
    config = write_json(tmp_path / "config.json", {key: value})
    out_dir = tmp_path / "out"
    code = main([command, *required_args[command], "--config", config, "--out-dir", str(out_dir)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_flags_named_after_a_config_key_store_to_that_key():
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    matched = []
    for command, table in CONFIG_KEYS.items():
        for action in commands.choices[command]._actions:
            for option in action.option_strings:
                key = option.lstrip("-").replace("-", "_")
                if key in table:
                    assert action.dest == key
                    matched.append(f"{command} {option}")
    assert sorted(matched) == [
        "certify --restarts", "certify --shape", "dereverb --iters", "dereverb --lambda",
        "sweep-lambda --grid", "sweep-lambda --iters", "train --arch", "train --epochs",
        "train --lipschitz",
    ]


def test_a_flag_overrides_a_config_value_of_the_right_type(workdir, capsys):
    certify = write_json(
        workdir / "soft.json",
        {"kind": "lipsam_re", "inner": {"variant": "soft_thresh", "tau": 0.1}},
    )
    restarts = write_json(workdir / "restarts.json", {"restarts": 1})
    assert main(["certify", "--modifier", certify, "--config", restarts, "--restarts", "3",
                 "--shape", "2x2", "--out-dir", str(workdir)]) == EXIT_OK
    assert len(read_rows(workdir / "certify.csv")) == 1 + 3
    bad = write_json(workdir / "bad.json", {"restarts": "x"})
    assert main(["certify", "--modifier", certify, "--config", bad, "--restarts", "3",
                 "--out-dir", str(workdir / "bad")]) == EXIT_USAGE
    assert "config error: restarts must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["validate-bounds", "--seed", "-1"], {}),
        (["train", "--seed", "-1"], {}),
        (["train"], {"corpus_seed": -1}),
    ],
)
def test_a_negative_seed_is_an_error(workdir, capsys, argv, config):
    document = write_json(workdir / "config.json", config)
    out_dir = workdir / "out"
    assert main([*argv, "--config", document, "--out-dir", str(out_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a nonnegative integer")
    assert not out_dir.exists()


def test_module_invocation_round_trip():
    # the child must import the same package as this process, whatever
    # PYTHONPATH the test runner was started with
    src = os.path.dirname(os.path.dirname(lipsam.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    result = subprocess.run(
        [sys.executable, "-m", "lipsam.cli", "selfcheck"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
    assert result.returncode == 0
    assert "check counterexamples: ok" in result.stdout
