import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_equivalence(*args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equivalence.py"), "--sizes", "60", *args],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


class TestEquivalenceScript:
    def test_a_tree_is_identical_to_its_own_saved_run(self, tmp_path):
        saved = tmp_path / "parts.npz"
        first = run_equivalence("--save", str(saved))
        again = run_equivalence("--against", str(saved))
        names = [line["part"] for line in first[:-1]]
        assert "60/unit/clique/csr" in names and "densek/hypergcn" in names
        assert all("sha256" in line for line in first[:-1])
        assert [line["part"] for line in again[:-1]] == names
        assert again[-1]["digest"] == first[-1]["digest"]
        assert again[-1]["against"] == {"parts": len(names), "identical": len(names),
                                        "max_abs": 0.0, "max_rel": 0.0}

    def test_reports_the_deltas_of_a_changed_part(self, tmp_path):
        saved = tmp_path / "parts.npz"
        run_equivalence("--save", str(saved))
        with np.load(saved) as parts:
            arrays = dict(parts)
        arrays["densek/hypergcn#1"][0, 0] *= 1.0 + 1e-9  # Θ1
        np.savez(saved, **arrays)
        lines = {line.get("part"): line for line in run_equivalence("--against", str(saved))}
        changed = lines["densek/hypergcn"]["against"]
        assert not changed["identical"]
        assert 0.9e-9 < changed["max_rel"] < 1.1e-9
        assert lines["densek/fast-hypergcn"]["against"]["identical"]
        assert lines[None]["against"]["identical"] == lines[None]["against"]["parts"] - 1
