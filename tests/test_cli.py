import json
import re
import warnings

import numpy as np
import pytest

from hypergcn.cli import main
from hypergcn.dataio import DatasetBundle, save_bundle
from hypergcn.hypergraph import Hypergraph

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

    def test_malformed_manifest_is_data_error(self, capsys, dataset_dir):
        with open(f"{dataset_dir}/manifest.json", "w") as fh:
            fh.write("[]")
        code, _, err = run_cli(capsys, ["counts", "--data", dataset_dir])
        assert code == 2
        assert "data error: manifest.json: expected an object, got list" in err

    def test_bad_thread_count_is_usage_error(self, capsys, dataset_dir, monkeypatch):
        monkeypatch.setenv("HYPERGCN_THREADS", "abc")
        code, _, err = run_cli(
            capsys,
            ["trials", "--data", dataset_dir, "--method", "mlp", "--budget", "4",
             "--trials", "2", "--epochs", "2"],
        )
        assert code == 1
        assert "usage error: HYPERGCN_THREADS" in err


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
