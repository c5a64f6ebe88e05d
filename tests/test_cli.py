import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lieflow
from lieflow import ppca, synth
from lieflow.cli import _ESTIMATOR_CODES, _OPTIONS, main
from lieflow.tensorfile import read_tensors, write_tensors
from reference import Gaussian, LinearGaussianMap, posterior


def run(args):
    return main(args)


class TestGenerate:
    def test_shapes_and_summary(self, tmp_path, capsys):
        out = tmp_path / "rot.lf"
        code = run(["generate", "--kind", "rotation2d", "--n", "500",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        arrays = read_tensors(out)
        assert arrays["z_i"].shape == (500, 2)
        assert arrays["z_next"].shape == (500, 2)
        assert arrays["true_G"].shape == (1, 2, 2)
        summary = capsys.readouterr().out
        assert "n=500" in summary and "seed=7" in summary

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.lf", tmp_path / "b.lf"
        flags = ["generate", "--kind", "rotation2d", "--n", "50",
                 "--seed", "3", "--noise-std", "0.01"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_lambda_scale_keeps_frames_exactly(self, tmp_path):
        out = tmp_path / "still.lf"
        assert run(["generate", "--kind", "rotation2d", "--n", "20",
                    "--lambda-scale", "0", "--noise-std", "0",
                    "--out", str(out)]) == 0
        arrays = read_tensors(out)
        assert np.array_equal(arrays["z_i"], arrays["z_next"])

    def test_image_mode(self, tmp_path):
        out = tmp_path / "img.lf"
        assert run(["generate", "--kind", "rotation2d", "--mode", "image",
                    "--height", "3", "--width", "3", "--n", "10",
                    "--out", str(out)]) == 0
        arrays = read_tensors(out)
        assert arrays["x_i"].shape == (10, 9)
        assert arrays["true_W"].shape == (9, 2)

    def test_unwritable_path_is_io_error(self, tmp_path):
        assert run(["generate", "--out",
                    str(tmp_path / "no" / "such" / "dir.lf")]) == 3


class TestFit:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "rot.lf"
        run(["generate", "--kind", "rotation2d", "--n", "120", "--seed", "7",
             "--noise-std", "1e-3", "--out", str(out)])
        return out

    def test_checkpoint_and_trace(self, tmp_path, dataset, capsys):
        ck = tmp_path / "model.lf"
        trace = tmp_path / "trace.csv"
        code = run(["fit", "--estimator", "dynamics", "--data", str(dataset),
                    "--j", "1", "--max-iters", "80", "--out", str(ck),
                    "--trace-out", str(trace)])
        assert code == 0
        arrays = read_tensors(ck)
        assert arrays["G"].shape == (1, 2, 2)
        assert arrays["Omega"].shape == (2, 2)
        assert arrays["Lambda"].shape == (1, 1)
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "iter,objective"
        summary = capsys.readouterr().out
        iters = int(summary.split("iters=")[1].split()[0])
        assert len(lines) == iters + 1

    def test_rerun_identical_bytes(self, tmp_path, dataset):
        a, b = tmp_path / "a.lf", tmp_path / "b.lf"
        flags = ["fit", "--estimator", "dynamics", "--data", str(dataset),
                 "--max-iters", "40", "--threads", "1"]
        run(flags + ["--out", str(a), "--trace-out", str(tmp_path / "ta.csv")])
        run(flags + ["--out", str(b), "--trace-out", str(tmp_path / "tb.csv")])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "ta.csv").read_bytes() == \
            (tmp_path / "tb.csv").read_bytes()

    def test_dim_mismatch_is_usage_error(self, tmp_path, dataset):
        assert run(["fit", "--estimator", "dynamics", "--data", str(dataset),
                    "--d", "5", "--out", str(tmp_path / "x.lf")]) == 2

    def test_config_file_precedence(self, tmp_path, dataset):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"estimator": "dynamics",
                                   "max_iters": 7, "tol": 0.0}))
        ck = tmp_path / "m.lf"
        code = run(["fit", "--config", str(cfg), "--data", str(dataset),
                    "--out", str(ck),
                    "--trace-out", str(tmp_path / "t.csv")])
        assert code == 0
        # config capped the iterations; flag overrides config
        assert len((tmp_path / "t.csv").read_text().strip().split("\n")) == 8
        code = run(["fit", "--config", str(cfg), "--data", str(dataset),
                    "--max-iters", "3", "--out", str(ck),
                    "--trace-out", str(tmp_path / "t2.csv")])
        assert code == 0
        assert len((tmp_path / "t2.csv").read_text().strip().split("\n")) == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, dataset):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["fit", "--config", str(cfg), "--data", str(dataset),
                    "--out", str(tmp_path / "x.lf")]) == 2

    def test_converged_flag_at_the_iteration_cap(self, tmp_path, capsys):
        data = tmp_path / "rot.lf"
        run(["generate", "--kind", "rotation2d", "--n", "200", "--seed", "7",
             "--noise-std", "1e-3", "--out", str(data)])
        ck = tmp_path / "model.lf"

        def fit(max_iters):
            capsys.readouterr()
            assert run(["fit", "--estimator", "dynamics", "--data", str(data),
                        "--max-iters", str(max_iters), "--out", str(ck)]) == 0
            out = capsys.readouterr().out
            return (out.split()[0], int(out.split("iters=")[1].split()[0]),
                    float(read_tensors(ck)["converged"]))

        flag, stop, _ = fit(500)
        assert flag == "converged=true" and stop < 500
        # the stopping rule fires on the last allowed iteration
        assert fit(stop) == ("converged=true", stop, 1.0)
        assert fit(stop - 1) == ("converged=false", stop - 1, 0.0)

    @pytest.mark.parametrize("estimator", ["dynamics", "ppca"])
    def test_checkpoint_bytes_do_not_depend_on_threads(self, tmp_path,
                                                        estimator):
        data = tmp_path / "data.lf"
        image = ["--mode", "image", "--height", "3", "--width", "3"]
        assert run(["generate", "--kind", "rotation2d", "--n", "120",
                    "--seed", "5", "--noise-std", "0.02",
                    *(image if estimator == "ppca" else []),
                    "--out", str(data)]) == 0
        artifacts = set()
        for threads in (1, 2, 3):
            ck, trace = tmp_path / f"ck{threads}.lf", tmp_path / f"t{threads}.csv"
            assert run(["fit", "--estimator", estimator, "--data", str(data),
                        "--max-iters", "10", "--threads", str(threads),
                        "--out", str(ck), "--trace-out", str(trace)]) == 0
            artifacts.add((ck.read_bytes(), trace.read_bytes()))
        assert len(artifacts) == 1


class TestImageEstimators:
    @pytest.fixture()
    def image_dataset(self, tmp_path):
        out = tmp_path / "img.lf"
        run(["generate", "--kind", "rotation2d", "--mode", "image",
             "--height", "3", "--width", "3", "--n", "60", "--seed", "5",
             "--lambda-scale", "0.05", "--noise-std", "0.02",
             "--out", str(out)])
        return out

    def test_ppca_fit_eval_roll(self, tmp_path, image_dataset):
        ck = tmp_path / "ppca.lf"
        assert run(["fit", "--estimator", "ppca", "--data",
                    str(image_dataset), "--d", "2", "--max-iters", "40",
                    "--out", str(ck),
                    "--trace-out", str(tmp_path / "t.csv")]) == 0
        arrays = read_tensors(ck)
        assert arrays["W"].shape == (9, 2)
        assert arrays["sigma2"].shape == ()
        metrics = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data",
                    str(image_dataset), "--out", str(metrics)]) == 0
        values = dict(line.split(",") for line in
                      metrics.read_text().strip().split("\n")[1:])
        assert float(values["reconstruction_mse"]) < 5 * 0.02 ** 2
        traj = tmp_path / "traj.lf"
        assert run(["roll", "--checkpoint", str(ck), "--data",
                    str(image_dataset), "--steps", "4",
                    "--out", str(traj)]) == 0
        out = read_tensors(traj)
        assert out["x_traj"].shape == (4, 9)

    def test_ppca_eval_matches_per_frame_oracle(self, tmp_path,
                                                image_dataset):
        # eval's batched latent posterior against the Gaussian core, one
        # frame at a time
        ck = tmp_path / "ppca.lf"
        assert run(["fit", "--estimator", "ppca", "--data",
                    str(image_dataset), "--d", "2", "--max-iters", "3",
                    "--out", str(ck),
                    "--trace-out", str(tmp_path / "t.csv")]) == 0
        metrics = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data",
                    str(image_dataset), "--out", str(metrics)]) == 0
        values = dict(line.split(",") for line in
                      metrics.read_text().strip().split("\n")[1:])
        arrays, data = read_tensors(ck), read_tensors(image_dataset)
        w, mu = arrays["W"], arrays["mu"]
        prior = Gaussian(np.zeros(2), np.eye(2))
        lin = LinearGaussianMap(w, mu, float(arrays["sigma2"]) * np.eye(9))
        recon = np.stack([w @ posterior(prior, lin, x).mean + mu
                          for x in data["x_i"]])
        oracle = float(np.mean((recon - data["x_i"]) ** 2))
        assert float(values["reconstruction_mse"]) == pytest.approx(
            oracle, rel=1e-12)

    def test_non_converged_fixed_point_is_numeric_error(self, tmp_path,
                                                        image_dataset, capsys,
                                                        monkeypatch):
        # the message names the pairs still live and their largest residual
        monkeypatch.setattr(ppca, "FIXED_POINT_ITERS", 2)
        ck = tmp_path / "ppca.lf"
        capsys.readouterr()
        code = run(["fit", "--estimator", "ppca", "--data", str(image_dataset),
                    "--d", "2", "--max-iters", "3", "--out", str(ck)])
        err = capsys.readouterr().err
        assert code == 4 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numeric error: fixed-point E-step did not "
                              "converge within 2 iterations (60 of 60 pairs "
                              "still live, largest residual ")
        assert not ck.exists()

    def test_npca_fit_roundtrip(self, tmp_path, image_dataset):
        ck = tmp_path / "npca.lf"
        assert run(["fit", "--estimator", "npca", "--data",
                    str(image_dataset), "--d", "2", "--max-iters", "4",
                    "--hidden", "--warm-start", "--step-size", "1e-4",
                    "--obs-noise-var", "1e-3", "--out", str(ck),
                    "--trace-out", str(tmp_path / "t.csv")]) == 0
        arrays = read_tensors(ck)
        assert arrays["dec_w0"].shape == (9, 2)
        metrics = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data",
                    str(image_dataset), "--out", str(metrics)]) == 0
        assert "reconstruction_mse" in metrics.read_text()
        traj = tmp_path / "traj.lf"
        assert run(["roll", "--checkpoint", str(ck), "--data",
                    str(image_dataset), "--mode", "extrapolate",
                    "--steps", "3", "--out", str(traj)]) == 0
        assert read_tensors(traj)["x_traj"].shape == (3, 9)


class TestEval:
    def test_metrics_file(self, tmp_path, capsys):
        data = tmp_path / "rot.lf"
        run(["generate", "--kind", "rotation2d", "--n", "200", "--seed", "7",
             "--noise-std", "1e-3", "--out", str(data)])
        ck = tmp_path / "model.lf"
        run(["fit", "--estimator", "dynamics", "--data", str(data),
             "--max-iters", "100", "--out", str(ck),
             "--trace-out", str(tmp_path / "t.csv")])
        metrics = tmp_path / "metrics.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data", str(data),
                    "--out", str(metrics)]) == 0
        lines = metrics.read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["subspace_angle_rad"]) < 0.05
        assert "predictive_log_density" in values

    def test_ground_truth_checkpoint_scores_zero_angle(self, tmp_path):
        data = tmp_path / "rot.lf"
        run(["generate", "--kind", "rotation2d", "--n", "50", "--seed", "1",
             "--out", str(data)])
        truth = read_tensors(data)
        ck = tmp_path / "true.lf"
        write_tensors(ck, {"G": truth["true_G"], "Omega": 1e-6 * np.eye(2),
                           "Lambda": 0.05 ** 2 * np.eye(1),
                           "estimator": np.float64(0)})
        metrics = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data", str(data),
                    "--out", str(metrics)]) == 0
        values = dict(line.split(",") for line in
                      metrics.read_text().strip().split("\n")[1:])
        assert float(values["subspace_angle_rad"]) < 1e-10

    def test_zero_generator_scores_below_truth(self, tmp_path):
        data = tmp_path / "rot.lf"
        run(["generate", "--kind", "rotation2d", "--n", "300", "--seed", "2",
             "--lambda-scale", "0.05", "--noise-std", "1e-3",
             "--out", str(data)])
        truth = read_tensors(data)

        def predictive(g, omega_scale):
            ck = tmp_path / "ck.lf"
            write_tensors(ck, {"G": g, "Omega": omega_scale * np.eye(2),
                               "Lambda": 0.05 ** 2 * np.eye(1),
                               "estimator": np.float64(0)})
            out = tmp_path / "m.csv"
            assert run(["eval", "--checkpoint", str(ck), "--data", str(data),
                        "--out", str(out)]) == 0
            values = dict(line.split(",") for line in
                          out.read_text().strip().split("\n")[1:])
            return float(values["predictive_log_density"])

        good = predictive(truth["true_G"], 1e-6)
        # a zero generator cannot explain the rotation component
        bad = predictive(np.zeros((1, 2, 2)), 1e-6)
        assert good > bad

    def test_missing_sidecar_warns_and_succeeds(self, tmp_path, capsys):
        data = tmp_path / "nosidecar.lf"
        z = np.linspace(0, 1, 20).reshape(10, 2)
        write_tensors(data, {"z_i": z, "z_next": z})
        ck = tmp_path / "ck.lf"
        write_tensors(ck, {"G": np.zeros((1, 2, 2)), "Omega": np.eye(2),
                           "Lambda": np.eye(1), "estimator": np.float64(0)})
        out = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(ck), "--data", str(data),
                    "--out", str(out)]) == 0
        assert "sidecar" in capsys.readouterr().err
        assert "subspace_angle_rad" not in out.read_text()


class TestRoll:
    def make_quarter_turn_pair(self, tmp_path):
        """Dataset holding a single exact quarter-turn latent pair."""
        data = tmp_path / "pair.lf"
        z0 = np.array([1.0, 0.0])
        z1 = np.array([0.0, 1.0])
        write_tensors(data, {"z_i": z0[None], "z_next": z1[None]})
        return data, z0

    def make_rotation_checkpoint(self, tmp_path):
        ck = tmp_path / "rot.lf"
        g = np.array([[[0.0, -1.0], [1.0, 0.0]]]) / np.sqrt(2.0)
        write_tensors(ck, {"G": g, "Omega": 1e-9 * np.eye(2),
                           "Lambda": 4.0 * np.eye(1),
                           "estimator": np.float64(0)})
        return ck

    def test_t_zero_reproduces_seed(self, tmp_path):
        data, z0 = self.make_quarter_turn_pair(tmp_path)
        ck = self.make_rotation_checkpoint(tmp_path)
        out = tmp_path / "traj.lf"
        assert run(["roll", "--checkpoint", str(ck), "--data", str(data),
                    "--steps", "5", "--out", str(out)]) == 0
        traj = read_tensors(out)
        assert np.array_equal(traj["z_traj"][0], z0)
        assert traj["t"][0] == 0.0

    def test_t_one_lands_on_next_frame(self, tmp_path):
        data, _ = self.make_quarter_turn_pair(tmp_path)
        ck = self.make_rotation_checkpoint(tmp_path)
        out = tmp_path / "traj.lf"
        assert run(["roll", "--checkpoint", str(ck), "--data", str(data),
                    "--mode", "interpolate", "--steps", "3",
                    "--out", str(out)]) == 0
        traj = read_tensors(out)
        assert np.allclose(traj["z_traj"][-1], [0.0, 1.0], atol=1e-6)

    def test_extrapolation_doubles_quarter_turn(self, tmp_path):
        data, _ = self.make_quarter_turn_pair(tmp_path)
        ck = self.make_rotation_checkpoint(tmp_path)
        out = tmp_path / "traj.lf"
        assert run(["roll", "--checkpoint", str(ck), "--data", str(data),
                    "--mode", "extrapolate", "--t-max", "2", "--steps", "3",
                    "--out", str(out)]) == 0
        traj = read_tensors(out)
        assert np.allclose(traj["z_traj"][-1], [-1.0, 0.0], atol=1e-3)
        csv_lines = (tmp_path / "traj.lf.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "step,t,z_norm"
        assert len(csv_lines) == 4

    @pytest.mark.parametrize("t_max", ["1e30", "1e308", "1.79e308"])
    def test_overflowing_t_max_is_numeric_error(self, tmp_path, capsys, t_max):
        # 1e30 makes matrix_exp need 102 squarings, more than the 27 it
        # allows; 1e308 and 1.79e308 overflow the coefficients t * lambda,
        # which apply_exact rejects as non-finite
        data, _ = self.make_quarter_turn_pair(tmp_path)
        ck = self.make_rotation_checkpoint(tmp_path)
        out = tmp_path / "traj.lf"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["roll", "--checkpoint", str(ck), "--data", str(data),
                        "--t-max", t_max, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4 and not caught
        assert err.startswith("numeric error") and err.count("\n") == 1
        assert not out.exists()

    def roll_to(self, tmp_path, t_max):
        """Exit code of a two-step roll of the quarter turn to ``t_max``
        and, when it succeeded, its trajectory."""
        data, _ = self.make_quarter_turn_pair(tmp_path)
        ck = self.make_rotation_checkpoint(tmp_path)
        out = tmp_path / "traj.lf"
        out.unlink(missing_ok=True)
        code = run(["roll", "--checkpoint", str(ck), "--data", str(data),
                    "--t-max", str(t_max), "--steps", "2",
                    "--out", str(out)])
        return code, read_tensors(out)["z_traj"] if code == 0 else None

    def test_every_accepted_t_max_stays_on_the_unit_circle(self, tmp_path):
        # 20 values of --t-max per decade: matrix_exp refuses the
        # squarings that would let the rotated vector's norm drift
        accepted = []
        for t_max in np.logspace(6, 10, 81):
            code, traj = self.roll_to(tmp_path, t_max)
            assert code in (0, 4)
            if code == 0:
                accepted.append(t_max)
                assert abs(np.linalg.norm(traj[-1]) - 1.0) <= 1e-6, t_max
        assert accepted[0] == 1e6 and len(accepted) < 81

    @pytest.mark.parametrize("t_max", ["1e10", "1e16", "1e30"])
    def test_t_max_beyond_the_squaring_cap_is_numeric_error(self, tmp_path,
                                                             capsys, t_max):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = self.roll_to(tmp_path, t_max)
        err = capsys.readouterr().err
        assert code == 4 and not caught
        assert err.startswith("numeric error") and err.count("\n") == 1
        assert "squarings" in err


def test_wrong_magic_gives_io_exit(tmp_path):
    bad = tmp_path / "bad.lf"
    bad.write_bytes(b"WRONG\n")
    assert run(["fit", "--estimator", "dynamics", "--data", str(bad),
                "--out", str(tmp_path / "x.lf")]) == 3


def assert_npca_fit_aborts_with_one_line(tmp_path, capsys, data, *options):
    """A diverging npca fit exits 4 with a one-line message on stderr and
    prints no numpy warning on the way."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["fit", "--estimator", "npca", "--data", str(data),
                    *options, "--out", str(tmp_path / "x.lf")])
    err = capsys.readouterr().err
    assert code == 4 and not caught
    assert err.startswith("numeric error") and err.count("\n") == 1


def test_numeric_abort_gives_exit_4(tmp_path, capsys):
    data = tmp_path / "img.lf"
    run(["generate", "--kind", "rotation2d", "--mode", "image",
         "--height", "2", "--width", "3", "--n", "20", "--seed", "1",
         "--noise-std", "0.05", "--out", str(data)])
    assert_npca_fit_aborts_with_one_line(
        tmp_path, capsys, data, "--d", "2", "--max-iters", "50",
        "--hidden", "4", "--step-size", "1e3")


def test_npca_fit_on_scaled_frames_aborts_with_one_line(tmp_path, capsys):
    # at three times the generated scale the default step overflows the
    # networks' backward pass within 20 epochs
    data = tmp_path / "img.lf"
    run(["generate", "--kind", "rotation2d", "--mode", "image",
         "--height", "4", "--width", "4", "--n", "64", "--seed", "1",
         "--noise-std", "0.01", "--out", str(data)])
    arrays = read_tensors(data)
    for name in ("x_i", "x_next"):
        arrays[name] = 3.0 * arrays[name]
    write_tensors(data, arrays)
    assert_npca_fit_aborts_with_one_line(
        tmp_path, capsys, data, "--hidden", "16", "--max-iters", "20")


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(synth, "generate_latent_pairs", exhausted)
    out = tmp_path / "huge.lf"
    assert run(["generate", "--n", "1000000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "14.6 TiB" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_import_leaves_scipy_unloaded():
    # start-up of every CLI process pays for what the library imports
    src = str(Path(lieflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lieflow, lieflow.cli, lieflow.oracles; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _image_data(tmp_path, **extra):
    """A 20-pair 1x4 image dataset with arrays replaced or added."""
    out = tmp_path / "img.lf"
    assert run(["generate", "--mode", "image", "--height", "1", "--width", "4",
                "--n", "20", "--out", str(out)]) == 0
    if extra:
        write_tensors(out, read_tensors(out) | extra)
    return out


def _non_finite_data(tmp_path, names):
    out = tmp_path / "nan.lf"
    bad = np.ones((3, 4))
    bad[1, 2] = np.nan
    write_tensors(out, {names[0]: np.ones((3, 4)), names[1]: bad})
    return out


def _pairs_of_shape(tmp_path, names, shape):
    """A file holding the two frame arrays ``names``, ones of ``shape``."""
    out = tmp_path / "pairs.lf"
    write_tensors(out, {name: np.ones(shape) for name in names})
    return out


def _npca_checkpoint(tmp_path, drop=(), **extra):
    """A one-epoch npca checkpoint with arrays removed or added."""
    return _checkpoint(tmp_path, ["--estimator", "npca", "--hidden", "3"],
                       drop, **extra)


def _checkpoint(tmp_path, fit_options, drop=(), **extra):
    """A one-iteration checkpoint fitted with ``fit_options`` on
    :func:`_image_data`, with arrays removed or added."""
    ck = tmp_path / "ck.lf"
    assert run(["fit", *fit_options, "--data", str(_image_data(tmp_path)),
                "--max-iters", "1", "--out", str(ck),
                "--trace-out", str(tmp_path / "t.csv")]) == 0
    arrays = read_tensors(ck)
    for name in drop:
        del arrays[name]
    arrays.update(extra)
    write_tensors(ck, arrays)
    return ck


def _noisy_images(tmp_path):
    out = tmp_path / "noisy.lf"
    assert run(["generate", "--mode", "image", "--height", "4", "--width", "4",
                "--n", "20", "--noise-std", "0.01", "--out", str(out)]) == 0
    return out


def _config(tmp_path, content):
    """``--config`` with a file holding ``content`` as JSON."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    return ["--config", str(path)]


def _score(tmp_path, checkpoint):
    return ["eval", "--checkpoint", str(checkpoint),
            "--data", str(_image_data(tmp_path))]


def _roll(tmp_path, *options):
    return ["roll", "--checkpoint", str(_npca_checkpoint(tmp_path)),
            "--data", str(_image_data(tmp_path)), *options]


def _latent_eval(tmp_path, d):
    """``eval`` of a d = 2 dynamics checkpoint on d-dimensional latent
    pairs without a ground-truth sidecar."""
    ck, data = tmp_path / "ck.lf", tmp_path / "pairs.lf"
    write_tensors(ck, {"G": np.array([[[0.0, -1.0], [1.0, 0.0]]]),
                       "Omega": np.eye(2), "Lambda": np.eye(1),
                       "estimator": np.float64(0)})
    write_tensors(data, {"z_i": np.ones((3, d)), "z_next": np.zeros((3, d))})
    return ["eval", "--checkpoint", str(ck), "--data", str(data)]


# case -> (arguments but --out, exit code, *substrings of the message)
BAD_INPUTS = {
    "no_pairs": (lambda tmp: ["generate", "--n", "0"], 2, "--n"),
    "zero_latent_dim": (
        lambda tmp: ["generate", "--kind", "latent_random", "--d", "0"],
        2, "--d"),
    "zero_generator_count": (
        lambda tmp: ["generate", "--j", "0"], 2, "--j"),
    "negative_generate_seed": (
        lambda tmp: ["generate", "--seed", "-1"], 2, "--seed"),
    "seed_beyond_64_bits": (
        lambda tmp: ["generate", "--seed", str(2 ** 64)], 2,
        "--seed", f"at most {2 ** 64 - 1}"),
    "fit_seed_beyond_64_bits": (
        lambda tmp: ["fit", "--data", str(_image_data(tmp)), "--estimator",
                     "ppca", "--seed", str(2 ** 64)], 2,
        "--seed", f"at most {2 ** 64 - 1}"),
    "zero_image_height": (
        lambda tmp: ["generate", "--mode", "image", "--height", "0"],
        2, "--height"),
    "zero_image_width": (
        lambda tmp: ["generate", "--mode", "image", "--width", "0"],
        2, "--width"),
    "negative_noise": (
        lambda tmp: ["generate", "--noise-std", "-0.1"], 2, "--noise-std"),
    "negative_lambda_scale": (
        lambda tmp: ["generate", "--lambda-scale", "-1"], 2, "--lambda-scale"),
    "rotation_in_3d": (
        lambda tmp: ["generate", "--kind", "rotation2d", "--d", "3"], 2),
    "nan_noise": (lambda tmp: ["generate", "--noise-std", "nan"], 2),
    "infinite_lambda_scale": (
        lambda tmp: ["generate", "--lambda-scale", "inf"], 2),
    "no_iterations": (
        lambda tmp: ["fit", "--estimator", "ppca",
                     "--data", str(_image_data(tmp)), "--max-iters", "0"], 2),
    "latent_dim_above_data_dim": (
        lambda tmp: ["fit", "--estimator", "ppca", "--d", "9",
                     "--data", str(_image_data(tmp))], 2),
    "non_finite_latent_pairs": (
        lambda tmp: ["fit", "--estimator", "dynamics",
                     "--data", str(_non_finite_data(tmp, ("z_i", "z_next")))], 4),
    "non_finite_image_pairs": (
        lambda tmp: ["fit", "--estimator", "ppca",
                     "--data", str(_non_finite_data(tmp, ("x_i", "x_next")))], 4),
    "latent_pairs_of_zero_dim": (
        lambda tmp: ["fit", "--estimator", "dynamics", "--data", str(
            _pairs_of_shape(tmp, ("z_i", "z_next"), (5, 0)))], 2, "D >= 1"),
    "frames_not_n_by_d": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data", str(
            _pairs_of_shape(tmp, ("x_i", "x_next"), (50, 4, 4)))],
        2, "(N, D)", "(50, 4, 4)"),
    "npca_frames_of_zero_width": (
        lambda tmp: ["fit", "--estimator", "npca", "--data", str(
            _pairs_of_shape(tmp, ("x_i", "x_next"), (5, 0)))], 2, "D >= 1"),
    "checkpoint_of_zero_dim": (
        lambda tmp: _score(tmp, _checkpoint(
            tmp, ["--estimator", "ppca"], G=np.zeros((1, 0, 0)),
            Omega=np.zeros((0, 0)))), 2, "dimension of at least 1"),
    "cyclic_shift_of_one_sample": (
        lambda tmp: ["generate", "--kind", "cyclic_shift", "--d", "1"],
        2, "at least 3, got 1"),
    "cyclic_shift_of_two_samples": (
        lambda tmp: ["generate", "--kind", "cyclic_shift", "--d", "2"],
        2, "at least 3, got 2"),
    "raster_of_two_pixels": (
        lambda tmp: ["generate", "--mode", "image", "--embedding", "raster",
                     "--kind", "cyclic_shift", "--height", "1", "--width", "2"],
        2, "at least 3, got 2"),
    "negative_fit_seed": (
        lambda tmp: ["fit", "--estimator", "ppca", "--seed", "-1",
                     "--data", str(_image_data(tmp))], 2, "--seed"),
    "zero_fit_generator_count": (
        lambda tmp: ["fit", "--estimator", "ppca", "--j", "0",
                     "--data", str(_image_data(tmp))], 2, "--j"),
    "negative_fit_generator_count": (
        lambda tmp: ["fit", "--j", "-2",
                     "--data", str(_image_data(tmp))], 2, "--j"),
    "negative_npca_latent_dim": (
        lambda tmp: ["fit", "--estimator", "npca", "--d", "-1",
                     "--data", str(_image_data(tmp))], 2, "--d"),
    "zero_batch_size": (
        lambda tmp: ["fit", "--estimator", "npca", "--batch-size", "0",
                     "--data", str(_image_data(tmp))], 2, "--batch-size"),
    "nan_tol": (
        lambda tmp: ["fit", "--tol", "nan",
                     "--data", str(_image_data(tmp))], 2, "--tol"),
    "negative_threads": (
        lambda tmp: ["fit", "--estimator", "ppca", "--threads", "-1",
                     "--data", str(_image_data(tmp))], 2, "--threads"),
    "nan_step_size": (
        lambda tmp: ["fit", "--estimator", "npca", "--step-size", "nan",
                     "--data", str(_image_data(tmp))], 2, "--step-size"),
    "nan_obs_noise_var": (
        lambda tmp: ["fit", "--estimator", "npca", "--obs-noise-var", "nan",
                     "--data", str(_image_data(tmp))], 2, "--obs-noise-var"),
    "zero_hidden_width": (
        lambda tmp: ["fit", "--estimator", "npca", "--hidden", "4", "0",
                     "--data", str(_image_data(tmp))], 2, "--hidden"),
    "dataset_as_checkpoint": (
        lambda tmp: _score(tmp, _image_data(tmp)), 2, "'G'"),
    "npca_checkpoint_without_decoder_layer": (
        lambda tmp: _score(tmp, _npca_checkpoint(tmp, drop=["dec_w0"])),
        2, "'dec_w0'"),
    "npca_checkpoint_with_huge_layer_count": (
        lambda tmp: _score(tmp, _npca_checkpoint(
            tmp, enc_trunk_count=np.float64(1e300))),
        2, "'enc_trunk_count'"),
    "npca_checkpoint_with_negative_layer_count": (
        lambda tmp: _score(tmp, _npca_checkpoint(
            tmp, enc_trunk_count=np.float64(-1))),
        2, "'enc_trunk_count'"),
    "npca_checkpoint_with_fractional_layer_count": (
        lambda tmp: _score(tmp, _npca_checkpoint(
            tmp, dec_count=np.float64(1.5))),
        2, "'dec_count'"),
    "npca_checkpoint_with_nan_layer_count": (
        lambda tmp: _score(tmp, _npca_checkpoint(
            tmp, dec_count=np.float64(np.nan))),
        4, "'dec_count'", "finite"),
    "npca_checkpoint_with_nan_sigma2": (
        lambda tmp: _score(tmp, _npca_checkpoint(
            tmp, sigma2=np.float64(np.nan))),
        4, "finite"),
    "ppca_checkpoint_with_vector_sigma2": (
        lambda tmp: _score(tmp, _checkpoint(
            tmp, ["--estimator", "ppca"], sigma2=np.array([0.1, 0.1]))),
        2, "'sigma2'", "scalar"),
    "vector_image_height": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data", str(
            _image_data(tmp, height=np.array([4.0, 4.0])))], 2, "'height'"),
    "image_height_not_frame_size": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data", str(
            _image_data(tmp, height=np.float64(4)))], 2, "height", "width"),
    "nan_image_height": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data", str(
            _image_data(tmp, height=np.float64(np.nan)))],
        4, "'height'", "finite"),
    "ppca_checkpoint_with_nan_mean": (
        lambda tmp: _score(tmp, _checkpoint(
            tmp, ["--estimator", "ppca"], mu=np.array([0.0, np.nan, 0.0, 0.0]))),
        4, "finite"),
    "npca_checkpoint_on_other_image_size": (
        lambda tmp: ["eval", "--checkpoint", str(_npca_checkpoint(tmp)),
                     "--data", str(_noisy_images(tmp))],
        2, "observation dimension"),
    "unknown_estimator_code": (
        lambda tmp: _score(tmp, _npca_checkpoint(tmp, estimator=np.float64(7))),
        2, "estimator code"),
    "latent_dim_below_checkpoint": (
        lambda tmp: _latent_eval(tmp, 1), 2, "latent dimensions disagree"),
    "latent_dim_above_checkpoint": (
        lambda tmp: _latent_eval(tmp, 3), 2, "latent dimensions disagree"),
    "zero_roll_steps": (lambda tmp: _roll(tmp, "--steps", "0"), 2, "--steps"),
    "nan_roll_t_max": (lambda tmp: _roll(tmp, "--t-max", "nan"), 2, "--t-max"),
    "quadrature_grid_over_budget": (
        lambda tmp: ["fit", "--estimator", "ppca", "--estep", "quadrature",
                     "--d", "3", "--j", "2", "--data", str(_noisy_images(tmp))],
        2, "1073741824 nodes", "--estep fixed-point"),
    # config values are checked exactly like flags
    "config_float_pair_count": (
        lambda tmp: ["generate", *_config(tmp, {"n": 1.5})], 2, "--n"),
    "config_string_pair_count": (
        lambda tmp: ["generate", *_config(tmp, {"n": "abc"})], 2, "--n"),
    "config_string_seed": (
        lambda tmp: ["generate", *_config(tmp, {"seed": "7"})], 2, "--seed"),
    "config_scalar_hidden": (
        lambda tmp: ["fit", "--estimator", "npca", "--data",
                     str(_image_data(tmp)), *_config(tmp, {"hidden": 3})],
        2, "--hidden"),
    "config_null_threads": (
        lambda tmp: ["fit", "--data", str(_image_data(tmp)),
                     *_config(tmp, {"threads": None})], 2, "--threads"),
    "config_string_generator_count": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data",
                     str(_image_data(tmp)), *_config(tmp, {"j": "2"})],
        2, "--j"),
    "config_string_flag": (
        lambda tmp: ["fit", "--estimator", "ppca", "--data",
                     str(_image_data(tmp)),
                     *_config(tmp, {"estimate_lambda": "no"})],
        2, "--estimate-lambda"),
    "config_integer_path": (
        lambda tmp: ["fit", *_config(tmp, {"data": 3})], 2, "--data"),
    "config_float_roll_steps": (
        lambda tmp: _roll(tmp, *_config(tmp, {"steps": 2.5})), 2, "--steps"),
    "config_number": (
        lambda tmp: ["generate", *_config(tmp, 5)], 2, "JSON object"),
    "config_null": (
        lambda tmp: ["generate", *_config(tmp, None)], 2, "JSON object"),
    "config_list": (
        lambda tmp: ["fit", "--data", str(_image_data(tmp)),
                     *_config(tmp, [1, 2])], 2, "JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_documented_code(tmp_path, capsys, case):
    make_args, code, *details = BAD_INPUTS[case]
    args = make_args(tmp_path) + ["--out", str(tmp_path / "out.lf")]
    capsys.readouterr()
    assert run(args) == code
    label = {2: "usage error", 4: "numeric error"}[code]
    err = capsys.readouterr().err
    assert err.startswith(label)
    assert all(detail in err for detail in details), err


def _rejected_values(opt):
    """JSON values ``opt`` must refuse: every other JSON type, null unless
    the option is nullable, and numbers outside its choices or range."""
    numbers = st.integers() | st.floats()
    scalars = {int: st.floats(), float: st.nothing(), str: numbers,
               bool: numbers, list: numbers}[opt.type]
    wrong = [scalars, st.booleans() if opt.type is not bool else st.nothing()]
    if opt.type is not str:
        wrong.append(st.text(max_size=4))
    if opt.type is not list:
        wrong.append(st.lists(st.integers(), max_size=2))
    else:
        wrong.append(st.lists(st.floats() | st.booleans() | st.text(max_size=4),
                              min_size=1, max_size=2))
    if opt.default is not None or opt.required:
        wrong.append(st.none())
    if opt.choices:
        wrong.append(st.text(max_size=12).filter(
            lambda s: s not in opt.choices))
    if opt.type is float:
        wrong.append(st.sampled_from([float("nan"), float("inf"),
                                      -float("inf")]))
    if opt.low is not None:
        below = (st.integers(max_value=int(opt.low) - (not opt.above))
                 if opt.type in (int, list) else
                 st.floats(max_value=opt.low, exclude_max=not opt.above,
                           allow_nan=False))
        wrong.append(st.lists(below, min_size=1, max_size=2)
                     if opt.type is list else below)
    if opt.high is not None:
        wrong.append(st.integers(min_value=opt.high + 1))
    return st.one_of(wrong)


_ROWS = [(command, opt) for opt in _OPTIONS
         for command in opt.commands.split()]
_PATHS = ("out", "data", "checkpoint", "trace_out", "csv_out")


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_ROWS).flatmap(
           lambda row: st.tuples(st.just(row), _rejected_values(row[1]))),
       path_names=st.lists(st.from_regex(r"[a-z]{1,8}\.lf", fullmatch=True),
                           min_size=len(_PATHS), max_size=len(_PATHS)))
def test_config_value_of_wrong_type_or_range_is_usage_error(
        tmp_path_factory, case, path_names):
    (command, opt), value = case
    work = tmp_path_factory.mktemp("cfg")
    # valid paths for the command's other path options: only the drawn
    # value is wrong, and input files are absent so nothing can be fitted
    names = {o.name for o in _OPTIONS if command in o.commands.split()}
    config = {name: str(work / path) for name, path in zip(_PATHS, path_names)
              if name in names and name != opt.name}
    config[opt.name] = value
    (work / "run.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(work / "run.json")])
    assert code == 2, (config, err.getvalue())
    assert err.getvalue().startswith("usage error")
    assert "--" + opt.name.replace("_", "-") in err.getvalue()
    assert os.listdir(work) == ["run.json"]


_LABELS = {2: "usage error", 3: "i/o error", 4: "numeric error"}
_SHAPE = st.lists(st.integers(0, 3), max_size=3).map(tuple)


def _array_of(shape, seed):
    """Seeded normals for frames; the identity on square trailing axes
    (a valid covariance) and ones elsewhere for checkpoint arrays, so
    that a drawn shape, not its values, decides the outcome."""
    if seed is not None:
        return np.random.default_rng(seed).standard_normal(shape)
    if len(shape) >= 2 and shape[-1] == shape[-2]:
        return np.broadcast_to(np.eye(shape[-1]), shape).copy()
    return np.ones(shape)


@st.composite
def _file_shapes(draw, estimator):
    """Each array's shape: the one that fits the others (three times in
    four), or any shape."""
    n, d, j = (draw(st.integers(1, 3)) for _ in range(3))
    big_d = d if estimator == "dynamics" else d + draw(st.integers(0, 2))
    fitting = {"first": (n, big_d), "next": (n, big_d), "G": (j, d, d),
               "Omega": (d, d), "Lambda": (j, j), "W": (big_d, d),
               "mu": (big_d,), "sigma2": ()}
    return {name: draw(_SHAPE if draw(st.integers(0, 3)) == 0 else st.just(shape))
            for name, shape in fitting.items()}


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["dynamics", "ppca"]).flatmap(
    lambda estimator: st.tuples(st.just(estimator), _file_shapes(estimator))))
def test_files_with_any_array_shapes_end_with_a_documented_code(
        tmp_path_factory, case):
    # well-formed files whose arrays have any shape of 0-3 axes of sizes
    # 0-3: fit, eval and roll raise nothing and warn nothing, a failure
    # is one stderr line under its label, and a zero-size axis in an
    # array the command reads is a usage error
    estimator, shapes = case
    work = tmp_path_factory.mktemp("shapes")
    frames = ("z_i", "z_next") if estimator == "dynamics" else ("x_i", "x_next")
    data, ck = work / "data.lf", work / "ck.lf"
    write_tensors(data, {frames[0]: _array_of(shapes["first"], 0),
                         frames[1]: _array_of(shapes["next"], 1)})
    stored = ("G", "Omega", "Lambda") + (("W", "mu", "sigma2")
                                         if estimator == "ppca" else ())
    write_tensors(ck, {name: _array_of(shapes[name], None) for name in stored}
                  | {"estimator": np.float64(_ESTIMATOR_CODES[estimator])})
    fitters = ["dynamics"] if estimator == "dynamics" else ["ppca", "npca"]
    runs = [(["fit", "--estimator", name, "--max-iters", "1",
              "--trace-out", str(work / "trace.csv")], ("first", "next"))
            for name in fitters]
    runs += [(["eval", "--checkpoint", str(ck)], ("first", "next") + stored),
             (["roll", "--checkpoint", str(ck), "--steps", "2"],
              ("first", "next") + stored)]
    for args, read in runs:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(args + ["--data", str(data),
                                "--out", str(work / "out.lf")])
        assert not caught, (args, [str(w.message) for w in caught])
        assert code in (0, 2, 3, 4), args
        event(f"{args[0]} exits {code}")
        if code:
            message = err.getvalue()
            assert message.startswith(_LABELS[code]), (args, message)
            assert message.count("\n") == 1, (args, message)
        if any(0 in shapes[name] for name in read):
            assert code == 2, (args, err.getvalue())
