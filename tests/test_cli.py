"""End-to-end tests of the command line interface via subprocess."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lexsel import BenchRecord, cli, exact_lexicase_probs, oracle, save_matrix


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lexsel", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def errors_csv(tmp_path):
    path = tmp_path / "errors.csv"
    save_matrix(path, [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [3.0, 3.0, 0.0], [3.0, 3.0, 3.0]])
    return str(path)


@pytest.fixture
def split_pair_csv(tmp_path):
    # Exact lexicase: rows 0 and 1 each win half the orders, row 2 never.
    path = tmp_path / "pair.csv"
    save_matrix(path, [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    return str(path)


class TestSelect:
    def test_deterministic_indices(self, errors_csv):
        argv = ("select", errors_csv, "--method", "lexicase", "--seed", "3",
                "--events", "12")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        indices = [int(line) for line in first.stdout.splitlines()]
        assert len(indices) == 12
        assert all(0 <= i < 4 for i in indices)

    def test_default_event_count_is_population_size(self, errors_csv):
        result = run_cli("select", errors_csv, "--method", "lexicase", "--seed", "0")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 4

    def test_emit_distribution_json(self, errors_csv):
        result = run_cli(
            "select", errors_csv, "--method", "dalex", "--pressure", "5.0",
            "--seed", "1", "--events", "4000", "--emit-distribution",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["kind"] == "empirical"
        assert payload["n_samples"] == 4000
        assert len(payload["probs"]) == 4
        assert sum(payload["probs"]) == pytest.approx(1.0, abs=1e-9)

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n", encoding="utf-8")
        result = run_cli("select", str(path))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_missing_file_exits_2(self, tmp_path):
        result = run_cli("select", str(tmp_path / "nope.csv"))
        assert result.returncode == 2

    def test_support_shape_mismatch_exits_3(self, errors_csv, tmp_path):
        support = tmp_path / "support.csv"
        save_matrix(support, [[1.0, 1.0], [1.0, 1.0]])
        result = run_cli("select", errors_csv, "--support", str(support))
        assert result.returncode == 3

    @pytest.mark.parametrize("method", ["dalex", "lexicase", "epsilon_lexicase", "batch_lexicase"])
    def test_zero_events_exits_3(self, errors_csv, method):
        result = run_cli("select", errors_csv, "--method", method, "--events", "0")
        assert result.returncode == 3
        assert result.stdout == ""

    def test_unknown_method_exits_4(self, errors_csv):
        result = run_cli("select", errors_csv, "--method", "quantum")
        assert result.returncode == 4
        assert "method" in result.stderr


class TestCompare:
    def test_exact_self_comparison(self, split_pair_csv):
        result = run_cli("compare", split_pair_csv, "--methods", "lexicase")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["reference"] == {"method": "lexicase", "mode": "exact"}
        entry = payload["methods"]["lexicase"]
        assert entry["mode"] == "exact"
        assert entry["js_divergence"] == 0.0

    def test_lineage_ratio_one_for_reference_method(self, split_pair_csv):
        result = run_cli(
            "compare", split_pair_csv, "--methods", "lexicase", "--lineage-id", "0"
        )
        payload = json.loads(result.stdout)
        assert payload["lineage_id"] == 0
        assert payload["methods"]["lexicase"]["probability_ratio"] == 1.0

    def test_lineage_ratio_none_when_reference_zero(self, split_pair_csv):
        result = run_cli(
            "compare", split_pair_csv, "--methods", "lexicase", "--lineage-id", "2"
        )
        payload = json.loads(result.stdout)
        assert payload["methods"]["lexicase"]["probability_ratio"] is None

    def test_lineage_out_of_range_exits_3(self, split_pair_csv):
        result = run_cli(
            "compare", split_pair_csv, "--methods", "lexicase", "--lineage-id", "9"
        )
        assert result.returncode == 3

    def test_high_pressure_dalex_near_exact(self, errors_csv):
        result = run_cli(
            "compare", errors_csv, "--methods", "dalex", "--pressure", "200.0",
            "--samples", "20000", "--seed", "2",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        entry = payload["methods"]["dalex"]
        assert entry["mode"] == "empirical"
        assert 0.0 <= entry["js_divergence"] < 0.01

    def test_oracle_guard_requires_explicit_fallback(self, tmp_path):
        path = tmp_path / "wide.csv"
        gen = np.random.default_rng(0)
        save_matrix(path, gen.integers(0, 6, (3, 13)).astype(float))
        refused = run_cli("compare", str(path), "--methods", "lexicase")
        assert refused.returncode == 4
        assert "allow-empirical-reference" in refused.stderr
        allowed = run_cli(
            "compare", str(path), "--methods", "lexicase",
            "--samples", "2000", "--allow-empirical-reference",
        )
        assert allowed.returncode == 0
        payload = json.loads(allowed.stdout)
        assert payload["reference"]["mode"] == "empirical"

    def test_empty_methods_exits_4(self, split_pair_csv):
        result = run_cli("compare", split_pair_csv, "--methods", " , ")
        assert result.returncode == 4

    def test_exact_reference_computed_once(self, split_pair_csv, monkeypatch, capsys):
        calls = []

        def counted(classing):
            calls.append(classing.k)
            return exact_lexicase_probs(classing)

        monkeypatch.setattr(oracle, "exact_lexicase_probs", counted)
        assert cli.main(["compare", split_pair_csv, "--methods", "lexicase,dalex"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["lexicase"]["js_divergence"] == 0.0
        assert calls == [3]


class TestBench:
    def test_csv_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        result = run_cli(
            "bench", "--regime", "discrete", "--sizes", "30x4,40x5",
            "--methods", "lexicase,dalex", "--repetitions", "3",
            "--seed", "1", "--output", str(out),
        )
        assert result.returncode == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(BenchRecord.CSV_FIELDS)
        assert len(rows) == 5
        assert [(r[0], r[1], int(r[2]), int(r[3])) for r in rows[1:]] == [
            ("discrete", "lexicase", 30, 4),
            ("discrete", "dalex", 30, 4),
            ("discrete", "lexicase", 40, 5),
            ("discrete", "dalex", 40, 5),
        ]
        for row in rows[1:]:
            assert float(row[6]) > 0.0

    def test_stdout_when_no_output_flag(self):
        result = run_cli(
            "bench", "--regime", "discrete", "--sizes", "20x3",
            "--methods", "lexicase", "--repetitions", "3",
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == ",".join(BenchRecord.CSV_FIELDS)

    def test_bad_sizes_exits_4(self):
        result = run_cli("bench", "--sizes", "30", "--repetitions", "3")
        assert result.returncode == 4
        assert "sizes" in result.stderr


EVOLVE_CONFIG = """\
[selector]
method = lexicase
seed = 5

[problem]
kind = discrete_vector
m = 4
n_keys = 2
n_values = 4
seed = 5

[run]
pop_size = 30
generations = 12
runs = 2
"""

FIDELITY_CONFIG = """\
[selector]
method = dalex
pressure = 20.0
seed = 7

[problem]
kind = discrete_vector
m = 8
n_keys = 4
n_values = 8
seed = 22

[run]
pop_size = 40
generations = 8
runs = 1
mode = fidelity
samples = 1500
reference = lexicase
"""


def read_records_without_timing(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            row.pop("selection_seconds")
            rows.append(row)
    return rows


def read_summary_without_timing(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "seed", "success", "generations_to_success",
                       "mean_selection_seconds"]
    return [row[:-1] for row in rows]


class TestEvolve:
    def test_outputs_deterministic_modulo_timing(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(EVOLVE_CONFIG, encoding="utf-8")
        for name in ("a", "b"):
            result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / name))
            assert result.returncode == 0
        rec_a = read_records_without_timing(tmp_path / "a" / "records.jsonl")
        rec_b = read_records_without_timing(tmp_path / "b" / "records.jsonl")
        assert rec_a == rec_b
        sum_a = read_summary_without_timing(tmp_path / "a" / "summary.csv")
        sum_b = read_summary_without_timing(tmp_path / "b" / "summary.csv")
        assert sum_a == sum_b
        assert len(sum_a) == 3
        assert {row[2] for row in sum_a[1:]} <= {"0", "1"}
        runs_seen = {row["run"] for row in rec_a}
        assert runs_seen == {0, 1}

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(EVOLVE_CONFIG, encoding="utf-8")
        run_cli("evolve", str(config), "--output-dir", str(tmp_path / "base"))
        run_cli("evolve", str(config), "--output-dir", str(tmp_path / "re"),
                "--seed", "99")
        base = read_summary_without_timing(tmp_path / "base" / "summary.csv")
        redone = read_summary_without_timing(tmp_path / "re" / "summary.csv")
        assert [row[1] for row in redone[1:]] == ["99", "99"]
        assert base != redone

    def test_fidelity_mode_writes_reports(self, tmp_path):
        config = tmp_path / "fid.ini"
        config.write_text(FIDELITY_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("evolve", str(config), "--output-dir", str(out))
        assert result.returncode == 0
        lines = (out / "fidelity.jsonl").read_text(encoding="utf-8").splitlines()
        # One report per generation that selected: all 8, or those before
        # the reference-driven run solved the problem.
        (_, _, success, generations_to_success), = read_summary_without_timing(
            out / "summary.csv"
        )[1:]
        assert len(lines) == (int(generations_to_success) if success == "1" else 8)
        assert lines
        for generation, line in enumerate(lines):
            row = json.loads(line)
            assert row["run"] == 0
            assert row["generation"] == generation
            assert 0.0 <= row["js_divergence"] <= math.log(2.0) + 1e-12
        assert (out / "records.jsonl").exists()
        assert (out / "summary.csv").exists()

    def test_unknown_section_exits_4(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(EVOLVE_CONFIG + "\n[extra]\nx = 1\n", encoding="utf-8")
        result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 4
        assert "extra" in result.stderr

    def test_missing_problem_section_exits_4(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[selector]\nmethod = lexicase\n", encoding="utf-8")
        result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 4

    def test_unknown_run_key_exits_4(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(EVOLVE_CONFIG + "turbo = yes\n", encoding="utf-8")
        result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 4
        assert "turbo" in result.stderr

    def test_malformed_config_exits_2(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("method = lexicase\n", encoding="utf-8")
        result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 2
