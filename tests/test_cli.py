import json

import pytest

from soncbound.cli import StatusTable, main
from soncbound.poly import parse_instance

MIN_X = {"n": 1, "objective": [[[1], -1.0]], "constraints": [],
         "lower": [-1], "upper": [2]}
MOTZKIN = {
    "n": 2,
    "objective": [[[4, 2], 1.0], [[2, 4], 1.0], [[2, 2], -3.0], [[0, 0], 1.0]],
    "constraints": [], "lower": [-2, -2], "upper": [2, 2],
}


@pytest.fixture
def minx_file(tmp_path):
    path = tmp_path / "minx.json"
    path.write_text(json.dumps(MIN_X))
    return str(path)


class TestSolveCommand:
    def test_optimal_exit_zero(self, minx_file, capsys):
        code = main(["solve", minx_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: optimal" in out
        assert "-2.000" in out

    def test_no_bound_constraints_exit_two(self, minx_file, capsys):
        code = main(["solve", minx_file, "--no-bound-constraints"])
        assert code == 2
        assert "cover-unavailable" in capsys.readouterr().out

    def test_bad_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", str(bad)]) == 1
        assert main(["solve", str(tmp_path / "missing.json")]) == 1

    def test_infeasible_exit_three(self, tmp_path):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps({
            "n": 1, "objective": [[[4], -1.0], [[2], 1.0]],
            "constraints": [], "lower": [-1], "upper": [1],
        }))
        assert main(["solve", str(path), "--no-bound-constraints"]) == 3

    def test_json_format(self, minx_file, capsys):
        code = main(["solve", minx_file, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["gamma_certified"] == pytest.approx(-2.0, abs=1e-5)
        assert payload["start"] == "constructive"
        assert 0 < payload["outer_iterations"] < payload["iterations"]

    def test_emit_certificate(self, minx_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main(["solve", minx_file, "--emit-certificate", str(cert_path)])
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert set(data) == {"gamma", "mu", "nu", "candidates", "circuits", "leftovers"}
        assert data["gamma"] == pytest.approx(-2.0, abs=1e-5)

    def test_dump_model(self, minx_file, capsys):
        main(["solve", minx_file, "--dump-model"])
        out = capsys.readouterr().out
        assert "GEO t[(1,)] <= " in out
        assert "LIN " in out

    def test_bound_exponent_override(self, tmp_path, capsys):
        path = tmp_path / "minx2.json"
        path.write_text(json.dumps({"n": 1, "objective": [[[2], -1.0]],
                                    "constraints": [], "lower": [-1], "upper": [2]}))
        code = main(["solve", str(path), "--bound-exponents", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_exponents"] == [4]
        assert payload["gamma_certified"] == pytest.approx(-4.0, abs=1e-5)

    def test_usage_error_exit_one(self):
        with pytest.raises(SystemExit) as err:
            main(["solve"])  # missing path
        assert err.value.code == 1

    @pytest.mark.parametrize("flag", [["--tol-feas", "1e-7"], ["--max-iters", "5"],
                                      ["--seed", "1"], ["--exponent-strategy", "uniform"]])
    def test_removed_solver_flags_rejected(self, minx_file, flag):
        with pytest.raises(SystemExit) as err:
            main(["solve", minx_file, *flag])
        assert err.value.code == 1


class TestBoundExponentsFlag:
    """--bound-exponents is the one way to other bound exponents; a
    malformed value ends as a usage error, without a traceback."""

    @pytest.fixture
    def corpus(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "minx.json").write_text(json.dumps(MIN_X))
        (directory / "motzkin.json").write_text(json.dumps(MOTZKIN))
        return directory

    @pytest.mark.parametrize("command", ["solve", "batch", "bnb"])
    @pytest.mark.parametrize("value, message", [("4,3", "got 3"), ("0", "got 0"),
                                                ("x", "'x'")])
    def test_bad_entry_is_usage_error(self, corpus, capsys, command, value, message):
        target = corpus if command == "batch" else corpus / "motzkin.json"
        with pytest.raises(SystemExit) as err:
            main([command, str(target), "--bound-exponents", value])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert "argument --bound-exponents: " in err_text and message in err_text

    @pytest.mark.parametrize("command", ["solve", "bnb"])
    @pytest.mark.parametrize("value", ["4", "4,4,4"])
    def test_wrong_length_exit_one(self, corpus, capsys, command, value):
        path = corpus / "motzkin.json"
        assert main([command, str(path), "--bound-exponents", value]) == 1
        captured = capsys.readouterr()
        count = len(value.split(","))
        assert captured.err == f"error: {path}: {count} bound exponents for 2 variables\n"
        assert captured.out == ""

    def test_batch_reports_misfit_instance_and_goes_on(self, corpus, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["batch", str(corpus), "--bound-exponents", "4,4",
                     "--csv", str(csv_path)]) == 0
        assert "minx.json: 2 bound exponents for 1 variables" in capsys.readouterr().err
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert rows[:2] == [["minx.json", config, "numerical-error", "", "", "0.000"]
                            for config in ("with-bcs", "without-bcs")]
        assert rows[2][:3] == ["motzkin.json", "with-bcs", "optimal"]

    @pytest.mark.parametrize("command", ["batch", "bnb"])
    def test_exponent_strategy_flag_removed(self, corpus, command):
        target = corpus if command == "batch" else corpus / "minx.json"
        with pytest.raises(SystemExit) as err:
            main([command, str(target), "--exponent-strategy", "uniform"])
        assert err.value.code == 1


class TestGenerateCommand:
    def test_stdout_single(self, capsys):
        code = main(["generate", "--seed", "5", "--n", "2", "--m", "1",
                     "--max-degree", "4"])
        assert code == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 2 and inst.m == 1

    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["generate", "--seed", "0", "--count", "4", "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 4
        parse_instance(files[0].read_text())

    def test_deterministic_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--seed", "3", "--count", "2", "--out", str(out1)])
        main(["generate", "--seed", "3", "--count", "2", "--out", str(out2)])
        for f1, f2 in zip(sorted(out1.glob("*")), sorted(out2.glob("*"))):
            assert f1.read_text() == f2.read_text()


class TestBatchCommand:
    @pytest.fixture
    def corpus(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "minx.json").write_text(json.dumps(MIN_X))
        (directory / "motzkin.json").write_text(json.dumps(MOTZKIN))
        return directory

    def test_table_and_csv(self, corpus, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["batch", str(corpus), "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "with-bcs" in out and "without-bcs" in out
        assert "finite-bound rate" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "instance,config,status,gamma_solver,gamma_certified,seconds"
        assert len(lines) == 1 + 2 * 2  # two instances, two configurations

    def test_byte_identical_reruns(self, corpus, tmp_path):
        c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["batch", str(corpus), "--csv", str(c1)])
        main(["batch", str(corpus), "--csv", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_row_sums_equal_corpus_size(self, corpus, tmp_path, capsys):
        csv_path = tmp_path / "sums.csv"
        main(["batch", str(corpus), "--csv", str(csv_path)])
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        for config in ("with-bcs", "without-bcs"):
            assert sum(1 for r in rows if r[1] == config) == 2  # corpus size

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 0

    def test_missing_directory_exit_one(self, tmp_path):
        assert main(["batch", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--no-bound-constraints"],
                                      ["--seed", "0"]])
    def test_ignored_flags_rejected(self, corpus, flag):
        # batch writes its table and CSV, in both configurations
        with pytest.raises(SystemExit) as err:
            main(["batch", str(corpus), *flag])
        assert err.value.code == 1

    def test_parallel_jobs_match_serial(self, corpus, tmp_path):
        c1, c2 = tmp_path / "serial.csv", tmp_path / "par.csv"
        main(["batch", str(corpus), "--csv", str(c1)])
        main(["batch", str(corpus), "--csv", str(c2), "--jobs", "2"])
        assert c1.read_text() == c2.read_text()


class TestStatusTable:
    def test_counts_and_rates(self):
        table = StatusTable()
        for _ in range(3):
            table.add("with-bcs", "optimal")
        table.add("with-bcs", "numerical-error")
        table.add("without-bcs", "cover-unavailable")
        assert table.total("with-bcs") == 4
        assert table.finite_rate("with-bcs") == pytest.approx(0.75)
        rendered = table.render()
        assert "with-bcs" in rendered and "75.0%" in rendered


class TestBnbCommand:
    def test_root_solve(self, tmp_path, capsys):
        path = tmp_path / "minx2.json"
        path.write_text(json.dumps({"n": 1, "objective": [[[2], -1.0]],
                                    "constraints": [], "lower": [-1], "upper": [2]}))
        code = main(["bnb", str(path), "--max-nodes", "10", "--gap-tol", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "node 0 depth 0" in out
        assert "status: gap-reached" in out

    def test_no_bound_constraints(self, minx_file, capsys):
        code = main(["bnb", minx_file, "--no-bound-constraints", "--max-nodes", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "node 0 depth 0 bound -inf incumbent inf status cover-unavailable" in out
        assert "lower bound: -inf" in out

    def test_format_rejected(self, minx_file):
        with pytest.raises(SystemExit) as err:
            main(["bnb", minx_file, "--format", "json"])
        assert err.value.code == 1
