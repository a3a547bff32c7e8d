import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_equivalence(*args, code=0):
    """The JSON lines of one `--sizes 60` run, which must exit with `code`."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equivalence.py"), "--sizes", "60", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == code, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


class TestEquivalenceScript:
    def test_a_tree_is_identical_to_its_own_saved_run(self, tmp_path):
        saved = tmp_path / "parts.npz"
        first = run_equivalence("--save", str(saved))
        again = run_equivalence("--against", str(saved))
        names = [line["part"] for line in first[:-1]]
        assert "60/unit/clique/csr" in names and "densek/hypergcn" in names
        assert "60/picks/zero" in names and "densek/picks" in names
        kinds = ("zero", "rounded", "ulp", "ulp32", "duplicated", "subnormal", "subnormal-all",
                 "mixed-scale", "2^150", "2^-150", "2^250", "2^-250")
        assert [name for name in names if name.startswith("60/picks/")] == [
            *(f"60/picks/{kind}" for kind in kinds),
            *(f"60/picks/w{width}/{kind}" for width in (2, 32) for kind in kinds)]
        assert [name for name in names if name.startswith("60/spmm/")] == [
            f"60/spmm/{form}/{cols}"
            for form in ("identity", "one-edge", "mediators", "clique", "clique_adjacency",
                         "mediator_adjacency")
            for cols in (1, 2, 32)]
        assert "cli/train/mlp-hlr" in names and "cli/densek/fast-hypergcn" in names
        assert "cli/trials/hypergcn" in names and "ssl/60/dropout0/mlp" in names
        assert "cli/diverge/train/one-hypergcn" in names
        assert all("sha256" in line for line in first[:-1])
        assert [line["part"] for line in again[:-1]] == names
        assert again[-1]["digest"] == first[-1]["digest"]
        assert again[-1]["against"] == {"parts": len(names), "identical": len(names),
                                        "max_abs": 0.0, "max_rel": 0.0, "missing": []}
        # an SSL part holds the report's adjacency pairs, expansions, N, N_m and N_c
        from hypergcn import dataio, expansion, hypergraph

        h = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), n=60, pure=6, noisy=24,
                                 feat_dim=16).hypergraph
        with np.load(saved) as parts:
            counts = parts["ssl/60/hgnn#2"].tolist()
        assert counts == [expansion.expand_clique(h).pair_count, 1, *hypergraph.size_counts(h)]

    def test_reports_the_deltas_of_a_changed_part(self, tmp_path):
        saved = tmp_path / "parts.npz"
        run_equivalence("--save", str(saved))
        with np.load(saved) as parts:
            arrays = dict(parts)
        arrays["densek/hypergcn#1"][0, 0] *= 1.0 + 1e-9  # Θ1
        np.savez(saved, **arrays)
        lines = {line.get("part"): line
                 for line in run_equivalence("--against", str(saved), code=1)}
        changed = lines["densek/hypergcn"]["against"]
        assert not changed["identical"]
        assert 0.9e-9 < changed["max_rel"] < 1.1e-9
        assert lines["densek/fast-hypergcn"]["against"]["identical"]
        assert lines[None]["against"]["identical"] == lines[None]["against"]["parts"] - 1
        assert lines[None]["against"]["missing"] == []

    def test_names_each_saved_part_it_did_not_compute(self, tmp_path):
        # every computed part is identical, but two saved ones were dropped
        saved = tmp_path / "parts.npz"
        run_equivalence("--save", str(saved))
        with np.load(saved) as parts:
            arrays = {**parts, "gone/part#0": np.zeros(2), "gone/error#error": np.array("x")}
        np.savez(saved, **arrays)
        summary = run_equivalence("--against", str(saved), code=1)[-1]["against"]
        assert summary["identical"] == summary["parts"]
        assert sorted(summary["missing"]) == ["gone/error", "gone/part"]


def load_epoch_times():
    spec = importlib.util.spec_from_file_location("epoch_times", ROOT / "scripts" / "epoch_times.py")
    epoch_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(epoch_times)
    return epoch_times


class TestEpochTimesPhases:
    def test_a_line_per_rule_and_per_factored_rule(self):
        epoch_times = load_epoch_times()
        from hypergcn import dataio, expansion, nn

        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), n=60, pure=6, noisy=24,
                                      feat_dim=16)
        search = expansion.extreme_pairs
        lines = epoch_times.phase_times(expansion, nn, bundle.hypergraph, bundle.features,
                                        np.random.default_rng(0))
        assert expansion.extreme_pairs is search
        spmm = {"spmm32_ms", "spmm2_ms"}
        assert [(line.get("rule"), line.get("factored")) for line in lines] == [
            ("one-edge", None), ("mediators", None), ("clique", None),
            (None, "mediators"), (None, "clique")]
        assert all(set(line) == {"rule", "expand_ms", "normalize_ms"} | spmm
                   for line in lines[:3])
        assert all(set(line) == {"factored", "build_ms"} | spmm for line in lines[3:])
        assert all(v >= 0 for line in lines for k, v in line.items() if k.endswith("_ms"))

    def test_a_line_for_the_search(self):
        epoch_times = load_epoch_times()
        from hypergcn import dataio, expansion

        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), n=60, pure=6, noisy=24,
                                      feat_dim=16)
        line = epoch_times.search_times(expansion, bundle.hypergraph, bundle.features,
                                        np.random.default_rng(0))
        assert set(line) == {"phase", "search32_ms", "search2_ms", "feature_dims",
                             "search_features_ms"}
        assert line["phase"] == "extreme_pairs" and line["feature_dims"] == 16
        assert line["search32_ms"] > 0 and line["search2_ms"] > 0
        assert line["search_features_ms"] > 0

    def test_a_line_per_densek_phase(self):
        epoch_times = load_epoch_times()
        from hypergcn import densek, expansion

        rng = np.random.default_rng(7)
        samples = [densek.gen_sample(n, 3 * n // 4, 0.75, rng) for n in (20, 30, 40)]
        lines = epoch_times.densek_phases(densek, expansion, samples, np.random.default_rng(0))
        assert [set(line) for line in lines] == [
            {"densek_phase", "samples", "us_per_call"}, {"densek_phase", "samples", "ms_per_pass"}]
        assert [line["densek_phase"] for line in lines] == ["hindsight_loss", "extreme_pairs"]
        assert all(line["samples"] == 3 for line in lines)
        assert lines[0]["us_per_call"] > 0 and lines[1]["ms_per_pass"] > 0


class TestEpochTimesImport:
    def test_a_line_for_the_cold_import(self):
        epoch_times = load_epoch_times()
        line = epoch_times.import_times(ROOT / "src")
        assert set(line) == {"phase", "module", "import_ms", "cli_import_ms", "runs_ms",
                             "scipy_special"}
        assert line["phase"] == "import" and line["module"] == "hypergcn.cli"
        assert len(line["runs_ms"]) == epoch_times.IMPORTS
        assert 0 < line["cli_import_ms"] < line["import_ms"]
        # importing the CLI leaves the sigmoid's module unloaded
        assert line["scipy_special"] is False


class TestEpochTimesAgainst:
    def test_readings_scale_each_timing_by_its_lines_host(self):
        epoch_times = load_epoch_times()
        nominal = epoch_times.NOMINAL_S
        stdout = "\n".join(json.dumps(line) for line in (
            {"n": 60, "method": "mlp", "epochs": 5, "ms_per_epoch": 3.0, "runs_ms": [3.0],
             "faults_per_epoch": [0.0], "host_s": 2 * nominal},
            {"densek": "hypergcn", "samples": 3, "us_per_step": 10.0, "host_s": nominal / 2},
            {"src_sha256": "abc", "python": "3"}))
        timings, digest = epoch_times.readings(stdout)
        assert timings == {"n=60 method=mlp ms_per_epoch": 1.5,
                           "densek=hypergcn us_per_step": 20.0}
        assert digest == "abc"

    def test_a_tree_against_itself(self):
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "epoch_times.py"), "--sizes", "60",
             "--methods", "mlp", "--against", str(ROOT / "src"), "--pairs", "2"],
            capture_output=True, text=True, timeout=300, check=True)
        lines = [json.loads(line) for line in out.stdout.splitlines()]
        result = lines[-1]["epoch_times"]
        names = [line["line"] for line in lines[:-1]]
        assert "n=60 method=mlp ms_per_epoch" in names
        assert names[:2] == ["phase=import import_ms", "phase=import cli_import_ms"]
        assert "n=60 phase=extreme_pairs search32_ms" in names
        assert "n=60 phase=extreme_pairs search_features_ms" in names
        assert names == list(result["summary"])
        assert result["src_sha256"]["parent"] == result["src_sha256"]["change"]
        ms = result["summary"]["n=60 method=mlp ms_per_epoch"]
        assert len(ms["parent"]) == len(ms["change"]) == 2
        assert ms["ratio_median"] > 0 and ms["change_lower_pairs"] in ("0/2", "1/2", "2/2")


class TestStepProbe:
    def test_a_probe_on_training_counts_every_densek_step(self, monkeypatch):
        epoch_times = load_epoch_times()
        from hypergcn import densek, training

        monkeypatch.setattr(training, "fit_step", training.fit_step)  # restored afterwards
        probe = epoch_times.StepProbe(training)
        rng = np.random.default_rng(7)
        samples = [densek.gen_sample(n, 3 * n // 4, 0.75, rng) for n in (20, 30, 40)]
        densek.train_densek(samples, training.TrainConfig(method="fast-hypergcn", epochs=4),
                            maps=2)
        assert len(probe.faults) == 4 * 3
        assert probe.seconds > 0
