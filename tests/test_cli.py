import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hypergcn
from hypergcn.cli import build_parser, main
from hypergcn.dataio import DatasetBundle, save_bundle
from hypergcn.hypergraph import Hypergraph
from hypergcn.training import TrainConfig

TIMING_RE = re.compile(r'"seconds_per_epoch": [0-9eE+.\-]+')


def mask_timing(text: str) -> str:
    return TIMING_RE.sub('"seconds_per_epoch": 0', text)


@pytest.fixture
def dataset_dir(tmp_path):
    rng = np.random.default_rng(7)
    n = 24
    edges = [rng.choice(n, size=int(rng.integers(2, 5)), replace=False) for _ in range(14)]
    labels = np.array([0, 1] * (n // 2))
    features = np.eye(2)[labels] + 0.05 * rng.normal(size=(n, 2))
    bundle = DatasetBundle(
        name="cli-toy",
        hypergraph=Hypergraph.from_edges(n, edges),
        features=features,
        labels=labels,
        num_classes=2,
    )
    out = tmp_path / "data"
    save_bundle(bundle, out)
    return str(out)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, ["counts"])  # missing --data
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag_rejected(self, capsys, dataset_dir):
        code, _, _ = run_cli(capsys, ["counts", "--data", dataset_dir, "--bogus"])
        assert code == 1

    def test_data_error_is_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["counts", "--data", str(tmp_path / "nope")])
        assert code == 2
        assert "data error" in err

    def test_success_is_zero(self, capsys, dataset_dir):
        code, out, _ = run_cli(capsys, ["counts", "--data", dataset_dir])
        assert code == 0


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["densek", "--data", "DATA", "--method", "max-degree", "--k-frac", "1.5"],
            ["densek", "--data", "DATA", "--method", "max-degree", "--k-frac", "0"],
            ["gen-densek", "--vertices", "60", "--k-frac", "1.5", "--out", "OUT"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--dropout", "1.0"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--dropout", "-0.5"],
            # counts below 1 (epochs below 0) used to print a NaN mean,
            # end in a traceback or train a constant model
            ["trials", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--trials", "0"],
            ["trials", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--trials", "-2"],
            ["densek", "--data", "DATA", "--method", "fast-hypergcn", "--trials", "0"],
            ["densek", "--data", "DATA", "--method", "fast-hypergcn", "--trials", "-1"],
            ["densek", "--data", "DATA", "--method", "fast-hypergcn", "--maps", "0"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "0"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--hidden", "0"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "-1"],
            # these used to exit 2 as a data error or end in a traceback
            ["gen-noisy", "--eta", "0", "--out", "OUT"],
            ["gen-noisy", "--eta", "1.5", "--out", "OUT"],
            ["densek", "--data", "DATA", "--method", "brute-force", "--k-frac", "0.5"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--lr", "1e200"],
            # these used to exit 2 as a data error: a budget not divisible
            # by the 2 classes, or more than the 12 members of a class
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "3"],
            ["trials", "--data", "DATA", "--method", "mlp", "--budget", "26", "--trials", "2"],
            # a budget that labels all 24 vertices trained to the end, then
            # ended in a traceback for want of an evaluation set
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "24"],
            # these trained without complaint
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4", "--lr", "-1"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--weight-decay", "-5"],
            ["train", "--data", "DATA", "--method", "mlp-hlr", "--budget", "4",
             "--hlr-lambda", "-1"],
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, capsys, dataset_dir, tmp_path, argv):
        argv = [dataset_dir if a == "DATA" else str(tmp_path / "o") if a == "OUT" else a
                for a in argv]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "usage error:" in err

    @pytest.mark.parametrize("flag", [
        ["--dropout", "1.0"], ["--lr", "-1"], ["--weight-decay", "-5"], ["--hlr-lambda", "-1"],
        ["--hidden", "0"], ["--epochs", "-1"]])
    @pytest.mark.parametrize("command", [
        ["train", "--method", "mlp", "--budget", "4"],
        ["trials", "--method", "mlp", "--budget", "4", "--trials", "2"],
        ["densek", "--method", "fast-hypergcn", "--trials", "2"]])
    def test_out_of_range_training_flag_prints_nothing(self, capsys, dataset_dir, command,
                                                       flag):
        # the first four printed the config echo before the usage error
        code, out, err = run_cli(capsys, command + ["--data", dataset_dir] + flag)
        assert code == 1
        assert out == ""
        assert "usage error:" in err

    def test_greedy_densek_rejects_out_of_range_training_flag(self, capsys, dataset_dir):
        code, out, err = run_cli(capsys, ["densek", "--data", dataset_dir, "--method",
                                          "max-degree", "--dropout", "1.0"])
        assert (code, out) == (1, "")
        assert "usage error: dropout 1.0 is not in [0, 1)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4", "--epochs", "5"],
            ["train", "--data", "DATA", "--method", "hypergcn", "--budget", "4",
             "--epochs", "5"],
            ["trials", "--data", "DATA", "--method", "hgnn", "--budget", "4", "--epochs", "5",
             "--trials", "2"],
            ["densek", "--data", "DATA", "--method", "hypergcn", "--trials", "2",
             "--epochs", "5"],
        ],
    )
    def test_diverged_run_prints_only_its_usage_error(self, capsys, dataset_dir, argv):
        # numpy's overflow and invalid-value warnings would be raised as
        # errors here, so none may escape the run
        argv = [dataset_dir if a == "DATA" else a for a in argv] + ["--lr", "1e200"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert re.fullmatch(r"usage error: training diverged \([^\n]*\)\n", err), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4", "--lr", "nan"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--dropout", "nan"],
            ["trials", "--data", "DATA", "--method", "mlp", "--budget", "4",
             "--weight-decay", "inf"],
            ["trials", "--data", "DATA", "--method", "mlp-hlr", "--budget", "4",
             "--hlr-lambda=-inf"],
            ["densek", "--data", "DATA", "--method", "max-degree", "--k-frac", "nan"],
            ["gen-noisy", "--eta", "nan", "--out", "OUT"],
            ["gen-densek", "--p", "inf", "--out", "OUT"],
            ["train", "--data", "DATA", "--method", "mlp", "--budget", "4", "--lr", "abc"],
        ],
    )
    def test_non_finite_float_flag_prints_nothing(self, capsys, dataset_dir, tmp_path, argv):
        # the config echo wrote NaN and Infinity, which are not JSON
        argv = [dataset_dir if a == "DATA" else str(tmp_path / "o") if a == "OUT" else a
                for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "usage error:" in err and "finite float" in err

    @pytest.mark.parametrize("argv", [["validate"], ["train", "--method", "hgnn", "--budget", "2"],
                                      ["densek", "--method", "max-degree"]])
    def test_empty_dataset_is_data_error(self, capsys, tmp_path, argv):
        # train and densek died with a ValueError traceback; validate passed n=0
        for name in ("features.csv", "labels.txt", "hyperedges.txt"):
            (tmp_path / name).write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [argv[0], "--data", str(tmp_path), *argv[1:]])
        assert code == 2
        assert len(parse_jsonl(out)) == 1  # the config echo only
        assert err == "data error: features.csv: no rows\n"

    def test_malformed_manifest_is_data_error(self, capsys, dataset_dir):
        with open(f"{dataset_dir}/manifest.json", "w") as fh:
            fh.write("[]")
        code, _, err = run_cli(capsys, ["counts", "--data", dataset_dir])
        assert code == 2
        assert "data error: manifest.json: expected an object, got list" in err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "DATA", "--method", "mlp", "--budget", "4", "--epochs", "2"],
        ["trials", "--data", "DATA", "--method", "mlp", "--budget", "4", "--epochs", "2",
         "--trials", "2"],
        ["densek", "--data", "DATA", "--method", "fast-hypergcn", "--trials", "2",
         "--epochs", "2"],
        ["densek", "--data", "DATA", "--method", "max-degree"],
        ["gen-noisy", "--eta", "0.5", "--out", "OUT"],
        ["gen-densek", "--vertices", "60", "--out", "OUT"]])
    def test_negative_seed_is_usage_error(self, capsys, dataset_dir, tmp_path, argv):
        # all but max-degree printed the config echo, then died in numpy with
        # "expected non-negative integer"; max-degree ignored the seed
        argv = [dataset_dir if a == "DATA" else str(tmp_path / "o") if a == "OUT" else a
                for a in argv]
        code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
        assert (code, out) == (1, "")
        usage = [line for line in err.splitlines() if line.startswith("usage error:")]
        assert len(usage) == 1 and "seed" in usage[0]

    def test_thread_count_variable_has_no_effect(self, capsys, dataset_dir, monkeypatch):
        # trials once ran in a process pool sized by HYPERGCN_THREADS
        argv = ["trials", "--data", dataset_dir, "--method", "mlp", "--budget", "4",
                "--trials", "2", "--epochs", "2"]
        code, plain, _ = run_cli(capsys, argv)
        assert code == 0
        monkeypatch.setenv("HYPERGCN_THREADS", "abc")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert mask_timing(out) == mask_timing(plain)


class TestContracts:
    def test_counts_payload(self, capsys, dataset_dir):
        code, out, _ = run_cli(capsys, ["counts", "--data", dataset_dir])
        lines = parse_jsonl(out)
        assert lines[0]["command"] == "counts"
        assert "config" in lines[0]
        payload = lines[1]
        assert set(payload) == {"N", "N_m", "N_c", "m"}
        assert payload["N_m"] <= payload["N_c"]

    def test_validate_payload(self, capsys, dataset_dir):
        code, out, _ = run_cli(capsys, ["validate", "--data", dataset_dir])
        assert code == 0
        payload = parse_jsonl(out)[1]
        assert payload["valid"] is True
        assert payload["violations"] == []

    def test_validate_malformed_file_is_data_error(self, capsys, dataset_dir):
        with open(f"{dataset_dir}/hyperedges.txt", "a") as fh:
            fh.write("0 99\n")
        code, out, err = run_cli(capsys, ["validate", "--data", dataset_dir])
        assert code == 2
        assert len(parse_jsonl(out)) == 1  # the config echo only
        assert "hyperedges.txt line 15: vertex 99 out of range [0, 24)" in err

    def test_densek_payload(self, capsys, dataset_dir):
        code, out, _ = run_cli(
            capsys,
            ["densek", "--data", dataset_dir, "--method", "remove-min-degree",
             "--k-frac", "0.75"],
        )
        assert code == 0
        payload = parse_jsonl(out)[1]
        assert payload["method"] == "remove-min-degree"
        assert payload["k"] == 18
        assert len(payload["vertex_set"]) == 18
        assert payload["density"] >= 0

    def test_train_emits_report(self, capsys, dataset_dir):
        code, out, _ = run_cli(
            capsys,
            ["train", "--data", dataset_dir, "--method", "mlp", "--budget", "4",
             "--epochs", "3", "--seed", "1"],
        )
        assert code == 0
        report = parse_jsonl(out)[1]
        assert report["method"] == "mlp"
        assert len(report["losses"]) == 3
        assert 0.0 <= report["test_error"] <= 100.0

    @pytest.mark.parametrize("method", ("hypergcn", "mlp-hlr"))
    def test_train_is_the_row_of_one_trial(self, capsys, dataset_dir, method):
        argv = ["--data", dataset_dir, "--method", method, "--budget", "4",
                "--epochs", "3", "--seed", "6"]
        _, out, _ = run_cli(capsys, ["train", *argv])
        train = parse_jsonl(out)[1]
        _, out, _ = run_cli(capsys, ["trials", *argv, "--trials", "1"])
        row = parse_jsonl(out)[1]
        assert len(train.pop("losses")) == 3
        assert row.pop("trial") == 0
        for payload in (train, row):
            payload.pop("seconds_per_epoch")
        assert train == row

    def test_trials_rows_and_aggregate(self, capsys, dataset_dir, tmp_path):
        csv_path = str(tmp_path / "agg.csv")
        code, out, _ = run_cli(
            capsys,
            ["trials", "--data", dataset_dir, "--method", "fast-hypergcn",
             "--budget", "4", "--trials", "3", "--epochs", "3", "--seed", "5",
             "--out", csv_path],
        )
        assert code == 0
        lines = parse_jsonl(out)
        trial_rows = [l for l in lines if "trial" in l]
        assert [row["trial"] for row in trial_rows] == [0, 1, 2]
        agg = [l for l in lines if "aggregate" in l][0]["aggregate"]
        errors = [row["test_error"] for row in trial_rows]
        assert agg["mean_error"] == pytest.approx(np.mean(errors))
        assert agg["std_error"] == pytest.approx(np.std(errors, ddof=1))
        with open(csv_path) as fh:
            header, row = fh.read().strip().splitlines()
        assert header.split(",")[:4] == ["method", "dataset", "budget", "mean"]
        assert row.split(",")[0] == "fast-hypergcn"

    def test_gen_noisy_writes_loadable_bundle(self, capsys, tmp_path):
        out_dir = str(tmp_path / "noisy")
        code, out, _ = run_cli(
            capsys, ["gen-noisy", "--eta", "0.5", "--seed", "3", "--out", out_dir]
        )
        assert code == 0
        from hypergcn.dataio import load_bundle

        bundle = load_bundle(out_dir)
        assert bundle.hypergraph.m == 500

    def test_gen_densek_writes_instance(self, capsys, tmp_path):
        out_dir = str(tmp_path / "inst")
        code, out, _ = run_cli(
            capsys,
            ["gen-densek", "--vertices", "60", "--seed", "2", "--out", out_dir],
        )
        assert code == 0
        payload = parse_jsonl(out)[1]
        assert payload["n"] == 60
        with open(f"{out_dir}/hyperedges.txt") as fh:
            assert len(fh.read().strip().splitlines()) == 30
        from hypergcn.dataio import load_bundle

        bundle = load_bundle(out_dir)
        assert (bundle.hypergraph.n, bundle.hypergraph.m) == (60, 30)
        assert bundle.labels.sum() == payload["k"]
        with open(f"{out_dir}/manifest.json") as fh:
            assert json.load(fh)["n"] == 60

    def test_config_echo_includes_seed(self, capsys, dataset_dir):
        _, out, _ = run_cli(
            capsys,
            ["train", "--data", dataset_dir, "--method", "mlp", "--budget", "4",
             "--epochs", "2", "--seed", "9"],
        )
        config = parse_jsonl(out)[0]["config"]
        assert config["seed"] == 9
        assert config["method"] == "mlp"
        assert config["epochs"] == 2


class TestTrainFlags:
    REQUIRED = {"train": ["--method", "mlp", "--budget", "4"],
                "trials": ["--method", "mlp", "--budget", "4"],
                "densek": ["--method", "max-degree"]}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_a_flag_per_config_field_with_its_default_and_type(self, command):
        parser = build_parser()
        argv = [command, "--data", "DATA", *self.REQUIRED[command]]
        defaults = vars(parser.parse_args(argv))
        for f in fields(TrainConfig):
            if f.name in ("method", "seed"):
                continue
            assert defaults[f.name] == f.default and type(defaults[f.name]) is type(f.default)
            flag = "--" + f.name.replace("_", "-")
            given = getattr(parser.parse_args([*argv, flag, "1"]), f.name)
            assert given == 1 and type(given) is type(f.default)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["counts", "--data", "DATA"],
            ["densek", "--data", "DATA", "--method", "max-degree"],
            ["train", "--data", "DATA", "--method", "hypergcn", "--budget", "4",
             "--epochs", "4", "--seed", "13"],
            ["trials", "--data", "DATA", "--method", "hgnn", "--budget", "4",
             "--trials", "2", "--epochs", "3", "--seed", "13"],
        ],
    )
    def test_byte_identical_given_seed(self, capsys, dataset_dir, argv):
        argv = [dataset_dir if a == "DATA" else a for a in argv]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert mask_timing(out1) == mask_timing(out2)


# Run in a fresh interpreter: this one has loaded scipy.special already.
# Prints which of (after the imports, after an SSL `trials` run, after
# the first sigmoid call) had scipy.special in sys.modules.
FOOTPRINT = """
import contextlib, io, json, sys
import numpy as np
import hypergcn, hypergcn.cli, hypergcn.densek as dk
loaded = ["scipy.special" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = hypergcn.cli.main(["trials", "--data", sys.argv[1], "--method", "hypergcn",
                              "--budget", "4", "--epochs", "2", "--trials", "1"])
loaded.append("scipy.special" in sys.modules)
h, target = dk.gen_sample(20, 15, 0.75, np.random.default_rng(0))
if sys.argv[2] == "hindsight_loss":
    dk.hindsight_loss(np.zeros((20, 2)), target.reshape(-1, 1).astype(float))
else:
    dk.predict_maps(dk.DenseKModel(np.ones((2, 3)), np.ones((3, 2)), "fast-hypergcn"), h)
loaded.append("scipy.special" in sys.modules)
bound = loaded[-1] and dk._expit is sys.modules["scipy.special"].expit
print(json.dumps({"code": code, "loaded": loaded, "bound": bound}))
"""


class TestImportFootprint:
    @pytest.mark.parametrize("first_sigmoid", ["hindsight_loss", "predict_maps"])
    def test_scipy_special_loads_with_the_first_sigmoid_only(self, dataset_dir, first_sigmoid):
        src = str(Path(hypergcn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", FOOTPRINT, dataset_dir, first_sigmoid],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"code": 0, "loaded": [False, False, True],
                                          "bound": True}
