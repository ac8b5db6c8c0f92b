"""End-to-end command-line contracts: exit codes, artifacts, determinism."""

import csv
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from anchorkit import assignnet, attention, baselines, cli, compressor
from anchorkit.assignnet import Layer, AssignmentNetwork, save_checkpoint
from anchorkit.cli import OPTIONS, build_parser, main, resolve_options
from anchorkit.compressor import TrainRecord, TrainReport
from anchorkit.core import load_array, load_tokens
from anchorkit.attention import flop_count
from anchorkit.objective import PRIOR_MODES


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGen:
    def test_mixture_writes_two_files_deterministically(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["gen", "--mixture", "--clusters", "8", "--seed", "1"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert (out1.with_suffix(".vlt")).read_bytes() == (out2.with_suffix(".vlt")).read_bytes()
        assert (tmp_path / "a_labels.csv").read_text() == (tmp_path / "b_labels.csv").read_text()

    def test_invalid_cluster_count_exits_2(self, tmp_path):
        code = run_cli("gen", "--mixture", "--clusters", "0", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_drift_video_written(self, tmp_path):
        out = tmp_path / "vid"
        assert run_cli("gen", "--drift", "--frames", "3", "--height", "8", "--width", "8",
                       "--objects", "2", "--out", str(out), "--seed", "3") == 0
        arr = load_array(out.with_suffix(".vlt"))
        assert arr.shape == (3, 8, 8, 8)  # frames, channels, height, width

    @pytest.mark.parametrize("command,extra", [
        ("train", ()), ("compress", ("--checkpoint", "net.ckpt")), ("attend", ()),
    ], ids=["train", "compress", "attend"])
    def test_drift_latent_rejected_by_token_commands(self, tmp_path, capsys, command, extra):
        """A rank-4 latent is not a token matrix: exit 2 with the rank in the message."""
        out = tmp_path / "vid"
        assert run_cli("gen", "--drift", "--out", str(out), "--seed", "3") == 0
        assert run_cli(command, "--input", str(out.with_suffix(".vlt")), *extra) == 2
        assert "must be rank 2, got rank 4" in capsys.readouterr().err.splitlines()[-1]

    def test_requires_exactly_one_generator(self, tmp_path):
        assert run_cli("gen", "--out", str(tmp_path / "x")) == 2
        assert run_cli("gen", "--mixture", "--drift", "--out", str(tmp_path / "x")) == 2

    # non-finite or negative values are named by their flag; finite values the
    # option table accepts but the library cannot use are named by its field
    @pytest.mark.parametrize("kind,flag,value,field", [
        ("--mixture", "--center-scale", "inf", "--center-scale"),
        ("--mixture", "--center-scale", "-1", "--center-scale"),
        ("--mixture", "--center-scale", "nan", "--center-scale"),
        ("--mixture", "--center-scale", "1e308", "center_scale"),
        ("--mixture", "--noise-sigma", "nan", "--noise-sigma"),
        ("--mixture", "--noise-sigma", "inf", "--noise-sigma"),
        ("--mixture", "--noise-sigma", "-0.5", "--noise-sigma"),
        ("--drift", "--drift-per-frame", "1e300", "drift_per_frame"),
        ("--drift", "--drift-per-frame", "-1e300", "drift_per_frame"),
        ("--drift", "--drift-per-frame", "nan", "--drift-per-frame"),
        ("--drift", "--drift-per-frame", "inf", "--drift-per-frame"),
    ])
    def test_bad_spread_or_drift_exits_2_naming_the_field(
        self, tmp_path, capsys, kind, flag, value, field
    ):
        code = run_cli("gen", kind, f"{flag}={value}", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    def test_leftward_drift_is_legal(self, tmp_path):
        """The drift only has to keep grid positions exact, in either direction."""
        out = tmp_path / "vid"
        assert run_cli("gen", "--drift", "--drift-per-frame", "-1.5", "--out", str(out)) == 0
        assert load_array(out.with_suffix(".vlt")).shape == (4, 8, 16, 16)

    def test_overflowing_noise_exits_2_without_warning(self, tmp_path, capsys):
        """Each spread passes its own check, but the drawn points overflow."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("gen", "--mixture", "--noise-sigma=8e307", "--out", str(tmp_path / "x"))
        assert code == 2
        assert not caught
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "overflow encountered" not in err
        assert "noise_sigma" in err.splitlines()[-1]
        assert "center_scale" in err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    def test_tokens_beyond_float32_exit_2_and_write_nothing(self, tmp_path, capsys):
        """Centers of 1e39 are finite in float64 but overflow the stored
        float32, which the reader would reject."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("gen", "--mixture", "--center-scale", "1e39",
                           "--out", str(tmp_path / "mix"))
        assert code == 2
        assert not caught
        assert "mix.vlt" in capsys.readouterr().err.splitlines()[-1]
        assert not list(tmp_path.iterdir())


@pytest.fixture()
def tokens_file(tmp_path):
    out = tmp_path / "tokens"
    assert run_cli(
        "gen", "--mixture", "--clusters", "4", "--dim", "6", "--points", "16",
        "--noise-sigma", "0.05", "--seed", "5", "--out", str(out),
    ) == 0
    return out.with_suffix(".vlt")


class TestTrain:
    def test_one_step_checkpoint_step_count(self, tmp_path, tokens_file):
        ckpt = tmp_path / "net.ckpt"
        assert run_cli(
            "train", "--input", str(tokens_file), "--steps", "1", "--anchors", "4",
            "--hidden", "8", "--checkpoint", str(ckpt), "--seed", "0",
        ) == 0
        from anchorkit.assignnet import load_checkpoint

        _, steps = load_checkpoint(ckpt)
        assert steps == 1

    def test_prior_none_rejected_before_reading_input(self, tmp_path, capsys):
        """A zero --lambda-vi is the one way to turn the regularizer off;
        the bad mode is reported, not the missing input file."""
        code = run_cli("train", "--input", str(tmp_path / "missing.vlt"), "--prior", "none")
        assert code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "categorical" in err and "gaussian" in err
        assert "missing.vlt" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--lambda-vi", "nan"), ("--lambda-vi", "inf"), ("--temperature", "inf"),
    ])
    def test_non_finite_setting_rejected_before_reading_input(
        self, tmp_path, capsys, flag, value
    ):
        code = run_cli("train", "--input", str(tmp_path / "missing.vlt"), flag, value)
        assert code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "finite" in err
        assert "missing.vlt" not in err

    @pytest.mark.parametrize("hidden", ["0", "8,-1"])
    def test_bad_hidden_width_rejected_before_reading_input(self, tmp_path, capsys, hidden):
        code = run_cli("train", "--input", str(tmp_path / "missing.vlt"), "--hidden", hidden)
        assert code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "--hidden" in err
        assert "missing.vlt" not in err

    @pytest.mark.parametrize("steps,log_every", [(10, 3), (8, 4), (5, 50)])
    def test_report_row_count(self, tmp_path, tokens_file, steps, log_every):
        rep = tmp_path / "r.csv"
        assert run_cli(
            "train", "--input", str(tokens_file), "--steps", str(steps),
            "--log-every", str(log_every), "--anchors", "4", "--hidden", "8",
            "--report", str(rep), "--seed", "1",
        ) == 0
        rows = read_csv(rep)
        assert rows[0] == ["step", "total", "contrastive", "regularizer", "entropy"]
        assert len(rows) - 1 == -(-steps // log_every)

    @pytest.mark.parametrize("extra", [("--top-k", "65"), ("--top-k", "11", "--subsample", "10")],
                             ids=["top-k-over-token-count", "top-k-over-subsample"])
    def test_top_k_over_batch_rejected_before_network_is_built(
        self, tmp_path, tokens_file, monkeypatch, capsys, extra
    ):
        def build(*args, **kwargs):
            raise AssertionError("network built for a run that cannot train")

        monkeypatch.setattr(assignnet, "init_network", build)
        code = run_cli("train", "--input", str(tokens_file), "--steps", "1", "--anchors", "4",
                       "--hidden", "8", *extra)
        assert code == 2
        assert "top_k=" in capsys.readouterr().err.splitlines()[-1]

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("train", "--input", str(tmp_path / "nope.vlt"), "--steps", "1") == 2
        assert run_cli("train", "--steps", "1") == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_exits_3(self, tmp_path, tokens_file, capsys):
        code = run_cli(
            "train", "--input", str(tokens_file), "--steps", "10", "--anchors", "4",
            "--hidden", "8", "--lr", "1e308", "--seed", "0",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "step" in err

    def test_determinism_byte_identical_artifacts(self, tmp_path, tokens_file):
        outs = []
        for name in ("one", "two"):
            ckpt = tmp_path / f"{name}.ckpt"
            rep = tmp_path / f"{name}.csv"
            assert run_cli(
                "train", "--input", str(tokens_file), "--steps", "5", "--anchors", "4",
                "--hidden", "8", "--checkpoint", str(ckpt), "--report", str(rep),
                "--seed", "42",
            ) == 0
            outs.append((ckpt.read_bytes(), rep.read_text()))
        assert outs[0] == outs[1]

    def test_resume_accumulates_step_count(self, tmp_path, tokens_file):
        first = tmp_path / "first.ckpt"
        second = tmp_path / "second.ckpt"
        base = ["train", "--input", str(tokens_file), "--anchors", "4", "--hidden", "8"]
        assert run_cli(*base, "--steps", "3", "--checkpoint", str(first), "--seed", "0") == 0
        assert run_cli(*base, "--steps", "2", "--resume", str(first),
                       "--checkpoint", str(second), "--seed", "0") == 0
        from anchorkit.assignnet import load_checkpoint

        _, steps = load_checkpoint(second)
        assert steps == 5


class TestCompress:
    def test_near_one_hot_identity_checkpoint(self, tmp_path, capsys):
        """A diagonal single-layer checkpoint on basis tokens forces
        near-one-hot columns; quantization error collapses to ~0."""
        m = 6
        tokens = 4.0 * np.eye(m)
        from anchorkit.core import TokenMatrix, save_tokens

        tok_path = tmp_path / "toy.vlt"
        save_tokens(tok_path, TokenMatrix(tokens))
        net = AssignmentNetwork((Layer(8.0 * np.eye(m), np.zeros(m)),))
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(ckpt, net, 0)
        out_r = tmp_path / "r.vlt"
        out_c = tmp_path / "c.vlt"
        assert run_cli(
            "compress", "--input", str(tok_path), "--checkpoint", str(ckpt),
            "--out-r", str(out_r), "--out-c", str(out_c), "--seed", "0",
        ) == 0
        metrics = capsys.readouterr().out.splitlines()[-1]
        fields = dict(part.split("=") for part in metrics.split())
        assert float(fields["quantization_error"]) < 1e-6
        assert 0.0 <= float(fields["entropy"]) <= np.log(m) + 1e-12
        anchors = load_array(out_c)
        assert anchors.shape == (m, m)
        assignments = load_array(out_r)
        np.testing.assert_allclose(assignments.sum(axis=0), 1.0, atol=1e-6)

    def test_more_anchors_than_tokens_prints_infinite_ratio(self, tmp_path, capsys):
        """At k = M the k-means oracle error is exactly 0, so the ratio is inf."""
        tokens = tmp_path / "tokens"
        ckpt = tmp_path / "net.ckpt"
        assert run_cli("gen", "--mixture", "--clusters", "4", "--dim", "8", "--points", "16",
                       "--seed", "0", "--out", str(tokens)) == 0
        assert run_cli("train", "--input", str(tokens.with_suffix(".vlt")), "--anchors", "128",
                       "--steps", "1", "--hidden", "8", "--checkpoint", str(ckpt)) == 0
        capsys.readouterr()
        assert run_cli("compress", "--input", str(tokens.with_suffix(".vlt")),
                       "--checkpoint", str(ckpt)) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert float(fields["kmeans_error"]) == 0.0
        assert fields["ratio"] == "inf"

    def test_dim_mismatch_exits_2(self, tmp_path, tokens_file):
        net = AssignmentNetwork((Layer(np.eye(3), np.zeros(3)),))
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, net, 0)
        assert run_cli("compress", "--input", str(tokens_file),
                       "--checkpoint", str(ckpt)) == 2

    def test_repeat_is_byte_identical(self, tmp_path, tokens_file):
        ckpt = tmp_path / "net.ckpt"
        run_cli("train", "--input", str(tokens_file), "--steps", "2", "--anchors", "4",
                "--hidden", "8", "--checkpoint", str(ckpt), "--seed", "0")
        blobs = []
        for name in ("p", "q"):
            out_r = tmp_path / f"{name}_r.vlt"
            out_c = tmp_path / f"{name}_c.vlt"
            assert run_cli("compress", "--input", str(tokens_file),
                           "--checkpoint", str(ckpt), "--out-r", str(out_r),
                           "--out-c", str(out_c), "--seed", "0") == 0
            blobs.append((out_r.read_bytes(), out_c.read_bytes()))
        assert blobs[0] == blobs[1]


class TestBench:
    def test_csv_rows_and_flop_column(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli(
            "bench", "--m-values", "64,128", "--anchors", "16", "--channels", "8",
            "--proj-dim", "8", "--repeats", "1", "--out", str(out), "--seed", "0",
        ) == 0
        rows = read_csv(out)
        assert rows[0] == ["mode", "M", "A", "c", "d", "wall_ns", "flops"]
        body = rows[1:]
        assert len(body) == 4  # 2 sizes x 2 modes
        for mode, m, a, c, d, wall_ns, flops in body:
            assert int(flops) == flop_count(int(m), int(a), int(c), int(d), mode)
            assert int(wall_ns) > 0

    @pytest.mark.parametrize("flag,value,named", [
        ("--modes", "full,bogus", "bogus"),
        ("--m-values", "64,0", "--m-values"),
        ("--anchors", "0", "--anchors"),
        ("--repeats", "0", "--repeats"),
        ("--repeats", "-5", "--repeats"),
        ("--channels", "0", "--channels"),
        ("--proj-dim", "0", "--proj-dim"),
    ])
    def test_bad_setting_rejected_before_timing(self, monkeypatch, capsys, flag, value, named):
        timed = []
        monkeypatch.setattr(cli, "_time_best", lambda fn, repeats: timed.append(fn) or 1)
        settings = {"--m-values": "64", "--anchors": "16", "--modes": "full,anchor", flag: value}
        code = run_cli(
            "bench", "--channels", "8", "--proj-dim", "8", "--repeats", "1",
            *[word for item in settings.items() for word in item],
        )
        assert code == 2
        captured = capsys.readouterr()
        assert not timed
        assert "bench mode=" not in captured.out
        assert named in captured.err

    def test_a_failing_rss_report_is_not_swallowed(self, monkeypatch, capsys):
        resource = pytest.importorskip("resource")

        def broken(who):
            raise OSError("getrusage failed")

        monkeypatch.setattr(resource, "getrusage", broken)
        code = run_cli("bench", "--m-values", "64", "--anchors", "16", "--channels", "8",
                       "--proj-dim", "8", "--repeats", "1")
        assert code == 2
        assert "getrusage failed" in capsys.readouterr().err.splitlines()[-1]


class TestDdim:
    def test_zero_predictor_error_tiny(self, capsys):
        assert run_cli("ddim", "--predictor", "zero", "--steps", "50", "--seed", "0") == 0
        line = capsys.readouterr().out.splitlines()[-1]
        error = float(line.split("max_abs_error=")[1])
        assert error <= 1e-10

    def test_time_only_predictor_error_small(self, capsys):
        assert run_cli("ddim", "--predictor", "tonly", "--steps", "50", "--seed", "1") == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert float(line.split("max_abs_error=")[1]) <= 1e-8

    def test_single_step(self, capsys):
        assert run_cli("ddim", "--predictor", "zero", "--steps", "1", "--seed", "0") == 0
        assert "steps=1" in capsys.readouterr().out

    def test_unstorable_trajectory_exits_2_without_a_manifest(self, tmp_path, capsys):
        """A guidance of 1e300 drives the states beyond float32's range; every
        state is checked before the directory is made, so nothing is left."""
        dump = tmp_path / "traj"
        code = run_cli("ddim", "--predictor", "tonly", "--guidance", "1e300", "--steps", "5",
                       "--dim", "4", "--dump", str(dump))
        assert code == 2
        assert "state_0001.vlt" in capsys.readouterr().err.splitlines()[-1]
        assert not dump.exists()

    def test_dump_writes_trajectory(self, tmp_path):
        dump = tmp_path / "traj"
        assert run_cli("ddim", "--predictor", "zero", "--steps", "3",
                       "--dump", str(dump), "--seed", "0") == 0
        assert (dump / "manifest.txt").exists()
        assert len(list(dump.glob("state_*.vlt"))) == 4

    @pytest.mark.parametrize("flag,value,named", [
        ("--dim", "0", "--dim"),
        ("--dim", "-2", "--dim"),
        ("--steps", "0", "--steps"),
        ("--guidance", "nan", "--guidance"),
        ("--guidance", "inf", "--guidance"),
        ("--predictor", "bogus", "--predictor"),
    ])
    def test_bad_setting_rejected_before_work(self, tmp_path, capsys, flag, value, named):
        dump = tmp_path / "traj"
        code = run_cli("ddim", "--predictor", "linear", "--steps", "3", flag, value,
                       "--dump", str(dump))
        assert code == 2
        captured = capsys.readouterr()
        assert "steps=" not in captured.out
        assert not dump.exists()
        assert named in captured.err.splitlines()[-1]


class TestCsvBytes:
    """The exact bytes of each CSV artifact: a header row, then one row per
    record, comma separated with CRLF line ends, floats as their repr."""

    def test_training_report(self, tmp_path):
        path = tmp_path / "r.csv"
        TrainReport((TrainRecord(1, 0.1 + 0.2, -2.5, 1e-300, 0.6931471805599453),)).write_csv(path)
        assert path.read_bytes() == (
            b"step,total,contrastive,regularizer,entropy\r\n"
            b"1,0.30000000000000004,-2.5,1e-300,0.6931471805599453\r\n"
        )

    def test_mixture_labels(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("gen", "--mixture", "--clusters", "3", "--dim", "2", "--points", "2",
                       "--seed", "4", "--out", str(out)) == 0
        assert (tmp_path / "g_labels.csv").read_bytes() == (
            b"token,label\r\n0,0\r\n1,0\r\n2,1\r\n3,1\r\n4,2\r\n5,2\r\n"
        )

    def test_bench_header(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--m-values", "8", "--anchors", "2", "--channels", "2",
                       "--proj-dim", "2", "--modes", "anchor", "--repeats", "1",
                       "--out", str(out)) == 0
        header, row, end = out.read_bytes().split(b"\r\n")
        assert header == b"mode,M,A,c,d,wall_ns,flops"
        assert row.startswith(b"anchor,8,2,2,2,") and end == b""


class TestAttend:
    def test_full_mode_writes_output(self, tmp_path, tokens_file):
        out = tmp_path / "attn.vlt"
        assert run_cli("attend", "--input", str(tokens_file), "--mode", "full",
                       "--proj-dim", "5", "--out", str(out), "--seed", "0") == 0
        tokens = load_tokens(tokens_file)
        result = load_array(out)
        assert result.shape == (tokens.num_tokens, 5)

    def test_anchor_mode_needs_anchor_file(self, tokens_file):
        assert run_cli("attend", "--input", str(tokens_file), "--mode", "anchor") == 2

    def test_anchor_mode_runs(self, tmp_path, tokens_file):
        from anchorkit.core import save_array as save

        anchors = tmp_path / "anchors.vlt"
        save(anchors, np.ones((3, 6)))
        out = tmp_path / "attn.vlt"
        assert run_cli("attend", "--input", str(tokens_file), "--mode", "anchor",
                       "--anchors-file", str(anchors), "--proj-dim", "4",
                       "--out", str(out), "--seed", "0") == 0
        assert load_array(out).shape[1] == 4

    def test_signalling_nan_input_exits_2_without_warning(self, tmp_path, tokens_file, capsys):
        raw = bytearray(tokens_file.read_bytes())
        raw[-4:] = b"\x01\x00\x80\x7f"  # float32 signalling NaN in the last token
        bad = tmp_path / "bad.vlt"
        bad.write_bytes(bytes(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("attend", "--input", str(bad), "--mode", "full",
                           "--out", str(tmp_path / "attn.vlt"))
        assert code == 2
        assert not caught
        assert "non-finite" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "attn.vlt").exists()

    @pytest.mark.parametrize("extra,named", [
        (("--mode", "bogus"), "bogus"),
        (("--mode", "anchor"), "--anchors-file"),
        (("--proj-dim", "0"), "--proj-dim"),
    ])
    def test_bad_setting_rejected_before_reading_input(self, tmp_path, capsys, extra, named):
        code = run_cli("attend", "--input", str(tmp_path / "missing.vlt"), *extra)
        assert code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert named in err
        assert "missing.vlt" not in err


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, tokens_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n", encoding="utf-8")
        assert run_cli("train", "--config", str(cfg), "--input", str(tokens_file)) == 2

    def test_file_values_apply_and_flags_override(self, tmp_path, tokens_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "steps = 4\nanchors = 4\nhidden = 8\nlog_every = 2\nseed = 9\n",
            encoding="utf-8",
        )
        rep = tmp_path / "rep.csv"
        assert run_cli("train", "--config", str(cfg), "--input", str(tokens_file),
                       "--steps", "2", "--report", str(rep)) == 0
        err = capsys.readouterr().err
        assert "config train.steps = 2" in err  # flag wins
        assert "config train.anchors = 4" in err  # file applies
        rows = read_csv(rep)
        assert len(rows) - 1 == 1  # ceil(2/2)

    def test_boolean_from_file(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("mixture = yes\nclusters = 2\npoints = 3\n", encoding="utf-8")
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "mix")) == 0
        assert load_tokens(tmp_path / "mix.vlt").num_tokens == 6
        assert (tmp_path / "mix_labels.csv").exists()

    def test_non_boolean_in_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("mixture = maybe\n", encoding="utf-8")
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "mix")) == 2
        assert "not a boolean" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "mix.vlt").exists()

    def test_resolved_config_echoed(self, tmp_path, capsys):
        assert run_cli("ddim", "--steps", "2", "--seed", "3") == 0
        err = capsys.readouterr().err
        assert "config ddim.steps = 2" in err
        assert "config ddim.seed = 3" in err


class TestSeedEnvFallback:
    @pytest.mark.parametrize("env", [None, "77"])
    def test_seed_does_not_carry_over_between_calls(self, tokens_file, tmp_path, monkeypatch,
                                                    capsys, env):
        """The parser is shared by every call, but no parsed value is."""
        if env is None:
            monkeypatch.delenv("ANCHOR_SEED", raising=False)
        else:
            monkeypatch.setenv("ANCHOR_SEED", env)
        ckpt = str(tmp_path / "net.ckpt")
        assert run_cli("train", "--input", str(tokens_file), "--steps", "1", "--anchors", "4",
                       "--top-k", "2", "--checkpoint", ckpt, "--seed", "3") == 0
        assert "config train.seed = 3" in capsys.readouterr().err
        assert run_cli("compress", "--input", str(tokens_file), "--checkpoint", ckpt) == 0
        assert f"config compress.seed = {env or 0}" in capsys.readouterr().err

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ANCHOR_SEED", "77")
        assert run_cli("ddim", "--steps", "2") == 0
        assert "config ddim.seed = 77" in capsys.readouterr().err

    @pytest.mark.parametrize("env,text", [("-1", "must be >= 0"), ("abc", "invalid literal")])
    def test_bad_env_seed_named(self, tmp_path, monkeypatch, capsys, env, text):
        monkeypatch.setenv("ANCHOR_SEED", env)
        assert run_cli("ddim", "--steps", "2", "--dump", str(tmp_path / "traj")) == 2
        err = capsys.readouterr().err
        assert "ANCHOR_SEED" in err.splitlines()[-1]
        assert text in err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ANCHOR_SEED", "77")
        assert run_cli("ddim", "--steps", "2", "--seed", "5") == 0
        assert "config ddim.seed = 5" in capsys.readouterr().err


@pytest.fixture()
def valid_args(tmp_path, tokens_file):
    """Arguments of one small run per subcommand that writes files under tmp_path."""
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, assignnet.init_network(6, 4, (8,), seed=0), 0)
    tokens = str(tokens_file)
    return {
        "gen": ["--mixture", "--out", str(tmp_path / "mix")],
        "train": ["--input", tokens, "--steps", "1", "--anchors", "4", "--hidden", "8",
                  "--checkpoint", str(tmp_path / "new.ckpt"),
                  "--report", str(tmp_path / "r.csv")],
        "compress": ["--input", tokens, "--checkpoint", str(ckpt),
                     "--out-r", str(tmp_path / "r.vlt"), "--out-c", str(tmp_path / "c.vlt")],
        "bench": ["--m-values", "64", "--anchors", "16", "--channels", "8",
                  "--proj-dim", "8", "--repeats", "1", "--out", str(tmp_path / "b.csv")],
        "ddim": ["--steps", "3", "--dump", str(tmp_path / "traj")],
        "attend": ["--input", tokens, "--mode", "full", "--out", str(tmp_path / "a.vlt")],
    }


# every option that names a file the command writes, in table order
OUTPUT_OPTIONS = [("gen", "out"), ("train", "checkpoint"), ("train", "report"),
                  ("compress", "out_r"), ("compress", "out_c"), ("bench", "out"),
                  ("attend", "out")]


class TestOutputPaths:
    def test_table_marks_every_output_option(self):
        marked = [(command, o.name) for command, opts in OPTIONS.items() for o in opts if o.writes]
        assert marked == OUTPUT_OPTIONS

    @pytest.fixture()
    def work(self, monkeypatch):
        """Names of the training, compression, clustering and attention calls made."""
        calls = []
        for module, name in [(compressor, "train"), (compressor, "compress"),
                             (baselines, "kmeans"), (attention, "full_attention"),
                             (attention, "anchor_attention")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        return calls

    @pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
    @pytest.mark.parametrize("command,name", OUTPUT_OPTIONS)
    def test_bad_output_path_exits_2_before_any_work(
        self, tmp_path, valid_args, capsys, work, command, name, where
    ):
        args = valid_args[command]
        flag = "--" + name.replace("_", "-")
        if where == "a directory":
            path = tmp_path / "taken"
            # gen's --out is a prefix: its tokens file is the directory
            Path(f"{path}.vlt" if command == "gen" else path).mkdir()
        else:
            path = tmp_path / "nodir" / "out"
        args[args.index(flag) + 1] = str(path)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(command, *args) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert work == []


# the least legal value of every integer option; a list option's entries share it
INTEGER_FLOORS = {
    "gen": {"clusters": 1, "dim": 1, "points": 1, "frames": 1, "channels": 1, "height": 1,
            "width": 1, "objects": 0, "seed": 0},
    "train": {"steps": 1, "log_every": 1, "anchors": 1, "top_k": 1, "hidden": 1,
              "subsample": 1, "seed": 0},
    "compress": {"seed": 0},
    "bench": {"m_values": 1, "anchors": 1, "channels": 1, "proj_dim": 1, "repeats": 1,
              "seed": 0},
    "ddim": {"steps": 1, "dim": 1, "seed": 0},
    "attend": {"proj_dim": 1, "seed": 0},
}
FLOOR_CASES = [(command, name, low) for command, floors in INTEGER_FLOORS.items()
               for name, low in floors.items()]

# the bound of every float option beyond being finite: "> 0", ">= 0" or None
FLOAT_BOUNDS = {
    "gen": {"center_scale": ">= 0", "noise_sigma": ">= 0", "drift_per_frame": None},
    "train": {"temperature": "> 0", "lambda_vi": ">= 0", "lr": "> 0"},
    "ddim": {"guidance": None},
}
# (command, option, bad value, message after the source)
FLOAT_CASES = [(command, name, "inf", "must be finite, got inf")
               for command, bounds in FLOAT_BOUNDS.items() for name in bounds]
FLOAT_CASES += [(command, name, *{"> 0": ("0", "must be > 0, got 0.0"),
                                  ">= 0": ("-0.5", "must be >= 0, got -0.5")}[bound])
                for command, bounds in FLOAT_BOUNDS.items()
                for name, bound in bounds.items() if bound]
LIST_OPTIONS = [("bench", "m_values"), ("bench", "modes"), ("train", "hidden")]


def _rejected_before_any_work(tmp_path, valid_args, capsys, command, name, value, source):
    """Run ``command`` with one bad setting from ``source``; return the error's
    source and the stderr lines, after checking that nothing was echoed or written."""
    args = valid_args[command]
    flag = "--" + name.replace("_", "-")
    if source == "flag":
        extra, named = (flag, value), flag
    else:
        if flag in args:  # a flag would override the file
            del args[args.index(flag):args.index(flag) + 2]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
        extra, named = ("--config", str(cfg)), f"{cfg} key {name}"
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(command, *args, *extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert not any(line.startswith("config ") for line in err)
    assert sorted(tmp_path.rglob("*")) == before
    return named, err


class TestSettingSources:
    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_negative_seed_rejected_before_any_work(self, tmp_path, valid_args, capsys, command):
        """Rejected before the config echo and before any file is written; the
        same arguments with seed 0 run, so the seed is the one fault."""
        args = valid_args[command]
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(command, *args, "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert "--seed" in err.splitlines()[-1]
        assert "config " not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert run_cli(command, *args, "--seed", "0") == 0
        assert sorted(tmp_path.rglob("*")) != before

    def test_floor_table_covers_every_integer_option(self):
        for command, opts in OPTIONS.items():
            integer = {}
            for opt in opts:
                try:
                    value = opt.conv("1")
                except ValueError:
                    continue
                if type(value) is int or (type(value) is tuple and value):
                    integer[opt.name] = opt
            assert set(integer) == set(INTEGER_FLOORS[command]), command
            for name, low in INTEGER_FLOORS[command].items():
                assert integer[name].conv(str(low)) in (low, (low,))

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command,name,low", FLOOR_CASES,
                             ids=[f"{command}-{name}" for command, name, _ in FLOOR_CASES])
    def test_value_below_floor_rejected_before_any_work(
        self, tmp_path, valid_args, capsys, command, name, low, source
    ):
        """Named by its flag or by its config file and key, before the config
        echo and before any file is written."""
        named, err = _rejected_before_any_work(
            tmp_path, valid_args, capsys, command, name, str(low - 1), source
        )
        assert err[-1] == f"error: {named}: must be >= {low}, got {low - 1}"

    def test_float_table_covers_every_float_option(self):
        for command, opts in OPTIONS.items():
            floats = set()
            for opt in opts:
                try:
                    value = opt.conv("0.5")
                except ValueError:
                    continue
                if type(value) is float:
                    floats.add(opt.name)
                    assert value == 0.5
            assert floats == set(FLOAT_BOUNDS.get(command, {})), command

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command,name,value,text", FLOAT_CASES,
                             ids=[f"{c}-{n}-{v}" for c, n, v, _ in FLOAT_CASES])
    def test_bad_float_rejected_before_any_work(
        self, tmp_path, valid_args, capsys, command, name, value, text, source
    ):
        """Named by its flag or file key, not by the library field it feeds."""
        named, err = _rejected_before_any_work(
            tmp_path, valid_args, capsys, command, name, value, source
        )
        assert err[-1] == f"error: {named}: {text}"

    @pytest.mark.parametrize("value", [",", " , ", ""])
    @pytest.mark.parametrize("command,name", LIST_OPTIONS,
                             ids=[f"{command}-{name}" for command, name in LIST_OPTIONS])
    def test_empty_list_rejected_before_any_work(
        self, tmp_path, valid_args, capsys, command, name, value
    ):
        named, err = _rejected_before_any_work(
            tmp_path, valid_args, capsys, command, name, value, "flag"
        )
        assert err[-1] == f"error: {named}: must list at least one value, got {value!r}"

    @pytest.mark.parametrize("argv,flag,choices", [
        (("train", "--prior", "bogus"), "--prior", PRIOR_MODES),
        (("attend", "--input", "t.vlt", "--mode", "bogus"), "--mode", ("full", "anchor")),
        (("bench", "--modes", "full,bogus"), "--modes", ("full", "anchor")),
        (("ddim", "--predictor", "bogus"), "--predictor", ("zero", "tonly", "linear")),
    ], ids=["prior", "mode", "modes", "predictor"])
    def test_unknown_choice_names_its_flag_and_the_choices(self, capsys, argv, flag, choices):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"error: {flag}: unknown choice 'bogus'")
        assert err[-1].endswith(" | ".join(choices))
        assert not any(line.startswith("config ") for line in err)

    @pytest.mark.parametrize("file_text,argv,named,text", [
        (None, ("train", "--steps", "abc"), "--steps", "invalid literal"),
        (None, ("train", "--hidden", "8,x"), "--hidden", "invalid literal"),
        (None, ("ddim", "--seed", "abc"), "--seed", "invalid literal"),
        ("steps = abc\n", ("train",), "run.cfg key steps", "invalid literal"),
        ("mixture = maybe\n", ("gen",), "run.cfg key mixture", "not a boolean"),
        ("seed = -4\n", ("ddim",), "run.cfg key seed", "must be >= 0"),
        ("steps = 0\n", ("ddim",), "run.cfg key steps", "must be >= 1, got 0"),
        (None, ("gen", "--drift", "--height", "0"), "--height", "must be >= 1, got 0"),
        (None, ("train", "--anchors", "0"), "--anchors", "must be >= 1, got 0"),
    ], ids=["flag-int", "flag-list", "flag-seed", "file-int", "file-bool", "file-seed",
            "file-floor", "flag-extent", "flag-count"])
    def test_bad_value_names_its_source(self, tmp_path, capsys, file_text, argv, named, text):
        extra = ()
        if file_text is not None:
            (tmp_path / "run.cfg").write_text(file_text, encoding="utf-8")
            extra = ("--config", str(tmp_path / "run.cfg"))
        assert run_cli(*argv, *extra) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert named in err
        assert text in err

    @pytest.mark.parametrize("argv,named", [
        (("gen", "--mixture"), "--out"),
        (("compress", "--input", "tokens.vlt"), "--checkpoint"),
        (("attend", "--mode", "full"), "--input"),
        (("ddim", "--predictor", "bogus"), "bogus"),
    ])
    def test_missing_or_unknown_setting_exits_2(self, capsys, argv, named):
        assert run_cli(*argv) == 2
        assert named in capsys.readouterr().err.splitlines()[-1]


def readme_commands():
    """Every ``anchorkit`` command in the README's ``sh`` blocks, continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                words.pop(0)  # environment assignments
            if words and words[0] == "anchorkit":
                commands.append(words[1:])
    return commands


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()


class TestReadme:
    def test_cli_examples_parse(self, capsys):
        commands = readme_commands()
        assert {words[0] for words in commands} == set(OPTIONS)
        for words in commands:
            try:
                args = build_parser().parse_args(words)
            except SystemExit:
                pytest.fail(f"README example {words} does not parse: {capsys.readouterr().err}")
            resolve_options(args.command, args)  # every value converts


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("explode") == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli("ddim", "--warp-speed", "9") == 2
        capsys.readouterr()
