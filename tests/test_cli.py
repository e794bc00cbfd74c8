import json
import os
import stat
import tracemalloc

import pytest

from redsim.cli import EXIT_IO, EXIT_NO_RESULT, EXIT_OK, EXIT_USAGE, main
from redsim.resources import graph_from_edge_list, two_centered_graph


def read_rows(path):
    rows = []
    for line in path.read_text().strip().split("\n"):
        cols = line.split("\t")
        rows.append((float(cols[0]), float(cols[1])))
    return rows


class TestCurve:
    def test_w_curve_file(self, tmp_path, capsys):
        out = tmp_path / "n4_w_r1.tsv"
        code = main([
            "curve", "--resource", "w", "--n", "4", "--rounds", "1",
            "--points", "101", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 101
        assert abs(rows[0][0] - 0.0) < 1e-12
        assert abs(rows[0][1] - 0.6898) < 1e-3
        diag = capsys.readouterr().err
        assert "kappa_star" in diag and "lost=2" in diag

    def test_ghz_curve_value(self, tmp_path):
        out = tmp_path / "ghz.tsv"
        assert main(["curve", "--resource", "ghz", "--n", "6", "-o", str(out)]) == EXIT_OK
        rows = dict(read_rows(out))
        assert abs(rows[0.5] - 0.0625) < 1e-12

    def test_two_centered_curve_value(self, tmp_path):
        out = tmp_path / "tc.tsv"
        code = main([
            "curve", "--resource", "twocentered", "--mode", "robust",
            "--n", "4", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = dict(read_rows(out))
        assert abs(rows[0.5] - 0.75) < 1e-12

    def test_fixed_strength_curve(self, tmp_path):
        out = tmp_path / "fixed.tsv"
        code = main([
            "curve", "--resource", "w", "--n", "3", "--kappa", "0.25",
            "--points", "3", "-o", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert abs(rows[0][1] - 0.75) < 1e-12

    @pytest.mark.parametrize("resource", ["ghz", "twocentered"])
    def test_strength_for_fixed_resource_exits_one(self, resource, capsys):
        argv = ["curve", "--resource", resource, "--n", "5", "--kappa", "0.3"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --kappa applies only to --resource w\n"

    @pytest.mark.parametrize("resource", ["w", "ghz"])
    def test_mode_for_other_resource_exits_one(self, resource, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        argv = ["curve", "--resource", resource, "--n", "4", "--mode", "strict",
                "--points", "3", "-o", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --mode applies only to --resource twocentered\n"
        assert not out.exists()

    def test_two_centered_mode_defaults_to_robust(self, tmp_path):
        paths = [tmp_path / "default.tsv", tmp_path / "robust.tsv"]
        base = ["curve", "--resource", "twocentered", "--n", "6", "--points", "5"]
        assert main(base + ["-o", str(paths[0])]) == EXIT_OK
        assert main(base + ["--mode", "robust", "-o", str(paths[1])]) == EXIT_OK
        assert paths[0].read_text() == paths[1].read_text()

    def test_invalid_resource_exits_one(self):
        assert main(["curve", "--resource", "cluster", "--n", "4"]) == EXIT_USAGE

    def test_out_of_range_size_exits_one(self, tmp_path):
        out = tmp_path / "x.tsv"
        assert main(["curve", "--resource", "w", "--n", "2", "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_point_count_is_bounded_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = main(["curve", "--resource", "w", "--n", "4", "--points", str(10**12)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert "100000" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_unwritable_path_exits_two(self, tmp_path):
        target = tmp_path / "missing" / "file.tsv"
        code = main(["curve", "--resource", "ghz", "--n", "4", "-o", str(target)])
        assert code == EXIT_IO
        assert not target.exists()


class TestThreshold:
    def test_w_vs_ghz_json(self, capsys):
        code = main([
            "threshold", "--a", "w", "--b", "ghz", "--n", "4", "--rounds", "1",
            "--json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["epsilon0"] - 0.2) < 0.05
        assert report["resource_a"] == "w"

    def test_identical_resources_exit_three(self, capsys):
        code = main(["threshold", "--a", "ghz", "--b", "ghz", "--n", "5"])
        assert code == EXIT_NO_RESULT

    def test_plain_report(self, capsys):
        code = main(["threshold", "--a", "w", "--b", "twocentered", "--n", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "threshold epsilon0 = " in out


class TestMarkov:
    def test_matrix_file_and_steps(self, tmp_path, capsys):
        out = tmp_path / "chain.tsv"
        code = main([
            "markov", "--n", "3", "--kappa", "0.5", "--steps", "2", "-o", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "state\tW3\tBell\tsep"
        assert lines[1] == "W3\t0.25\t0.5\t0.25"
        step_line = capsys.readouterr().out.strip()
        assert step_line.startswith("W3 after 2 rounds\t")
        values = [float(v) for v in step_line.split("\t")[1:]]
        assert values == pytest.approx([0.0625, 0.625, 0.3125], abs=1e-12)

    def test_too_small_chain_exits_one(self):
        assert main(["markov", "--n", "2", "--kappa", "0.5"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_output_file_honours_umask(self, tmp_path, umask, mode):
        out = tmp_path / "chain.tsv"
        previous = os.umask(umask)
        try:
            assert main(["markov", "--n", "3", "--kappa", "0.5", "-o", str(out)]) == EXIT_OK
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_large_chain_rows_sum_to_one(self, tmp_path):
        out = tmp_path / "chain.tsv"
        assert main(["markov", "--n", "1100", "--kappa", "0.3", "-o", str(out)]) == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 1100
        for row in rows:
            # 12 significant digits per entry bound the rounding of each sum.
            assert abs(sum(float(v) for v in row.split("\t")[1:]) - 1.0) < 1e-9


class TestMc:
    def test_defaults_are_byte_identical(self, capsys):
        args = ["mc", "--n", "4", "--eps", "0.3", "--samples", "20000", "--seed", "42"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_known_target_passes(self, capsys):
        code = main([
            "mc", "--n", "3", "--eps", "0", "--kappa", "0.25",
            "--samples", "100000", "--seed", "7", "--json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["within_3se"] is True
        assert abs(report["reference"] - 0.75) < 1e-12

    def test_zero_samples_exit_one(self):
        code = main(["mc", "--n", "4", "--eps", "0.5", "--samples", "0"])
        assert code == EXIT_USAGE


class TestAdvantage:
    def test_table_and_trends(self, capsys):
        code = main([
            "advantage", "--n-min", "4", "--n-max", "6", "--vs", "ghz", "--json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_decreasing"] is True
        assert report["threshold_decreasing"] is True
        rows = report["rows"]
        assert [row["n"] for row in rows] == [4, 5, 6]
        for row in rows:
            assert abs(row["ghz_slope"] + (row["n"] - 2)) < 1e-3 * (row["n"] - 2)

    def test_ghz_slope_is_exact(self, capsys):
        code = main(["advantage", "--n-min", "4", "--n-max", "12", "--vs", "ghz", "--json"])
        assert code == EXIT_OK
        for row in json.loads(capsys.readouterr().out)["rows"]:
            assert row["ghz_slope"] == -(row["n"] - 2)

    def test_bad_range_exits_one(self):
        assert main(["advantage", "--n-min", "8", "--n-max", "4"]) == EXIT_USAGE


class TestGraph:
    def test_two_centered_edge_list(self, tmp_path):
        out = tmp_path / "edges.txt"
        assert main(["graph", "--n", "6", "-o", str(out)]) == EXIT_OK
        parsed = graph_from_edge_list(out.read_text())
        expected, _ = two_centered_graph(6)
        assert parsed == expected

    def test_pattern_summary_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "edges.txt"
        code = main(["graph", "--n", "5", "--eps", "0.3", "-o", str(out)])
        assert code == EXIT_OK
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
        )
        assert int(lines["patterns"]) == 8
        from redsim.lossy import two_centered_benchmark

        assert float(lines["recoverable_probability"]) == pytest.approx(
            two_centered_benchmark(5, 0.3, "robust"), abs=1e-9
        )

    def test_inspect_file(self, tmp_path, capsys):
        out = tmp_path / "edges.txt"
        main(["graph", "--n", "4", "-o", str(out)])
        code = main(["graph", "--from-file", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "vertices\t4" in text
        assert "edges\t3" in text

    def test_star_kind(self, tmp_path):
        out = tmp_path / "star.txt"
        assert main(["graph", "--n", "5", "--kind", "star", "-o", str(out)]) == EXIT_OK
        parsed = graph_from_edge_list(out.read_text())
        assert parsed.edges == frozenset((0, v) for v in range(1, 5))

    def test_missing_size_exits_one(self):
        assert main(["graph"]) == EXIT_USAGE


class TestEnvironment:
    def test_invalid_thread_cap_exits_one(self, monkeypatch):
        monkeypatch.setenv("REDSIM_THREADS", "banana")
        assert main(["curve", "--resource", "ghz", "--n", "4"]) == EXIT_USAGE
