"""End-to-end CLI tests driving ``main(argv)`` directly.

Output rows are pinned byte-for-byte where the contract promises
deterministic CSV; everything else checks substrings and exit codes.
"""

import time

import pytest

import bandgraph.cli
import bandgraph.suites
from bandgraph.bounds import density_lower_bound, lex_upper_bound_value
from bandgraph.cli import CSV_COLUMNS, main, sweep_row
from bandgraph.core_graph import Params
from bandgraph.suites import Check, SuiteResult

HEADER = "n,k,b,beta,q,r,case,method,bandwidth,ratio,c1,c2,c3,lower_coeff,upper_coeff,error"


class TestInfo:
    def test_pinned_small_instance(self, capsys):
        assert main(["info", "--n", "4", "--k", "2", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "G(n=4, k=2, b=3)" in out
        assert "vertices |V| = 9" in out
        assert "central  |C| = 3" in out
        assert "exact bandwidth (central set nonempty) = 5" in out

    def test_bounds_meet(self, capsys):
        assert main(["info", "--n", "10", "--k", "2", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "density lower bound = 6" in out
        assert "lex upper bound = 6" in out

    def test_bracket_from_certify(self, capsys):
        # the lex bound alone gives [48, 72]; low remainder reaches 60
        assert main(["info", "--n", "20", "--k", "2", "--b", "9"]) == 0
        out = capsys.readouterr().out
        assert "  bandwidth in [48, 60] (witness: low_remainder)\n" in out

    def test_bracket_above_vertex_cap_uses_closed_forms(self, capsys, monkeypatch):
        monkeypatch.setattr(bandgraph.cli, "MAX_VERTICES", 100)
        assert main(["info", "--n", "20", "--k", "2", "--b", "9"]) == 0
        out = capsys.readouterr().out
        assert "  bandwidth in [48, 72] (closed forms)\n" in out

    def test_bracket_from_certify_at_large_n(self, capsys):
        # n = 50000 has n^4 >= 2^63; the band numbering keeps its keys below n^3
        assert main(["info", "--n", "50000", "--k", "2", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "  bounds meet: exact bandwidth = 6 (witness: lex)\n" in out

    def test_bracket_above_table_cap_at_k1(self, capsys):
        # 40001 vertices, but the evaluator's table has 40001 * 39999 cells
        start = time.perf_counter()
        assert main(["info", "--n", "40000", "--k", "1", "--b", "19999"]) == 0
        assert time.perf_counter() - start < 5
        out = capsys.readouterr().out
        assert "  bandwidth in [13334, 19999] (closed forms)\n" in out

    def test_band_regime_shown(self, capsys):
        assert main(["info", "--n", "20", "--k", "2", "--b", "7"]) == 0
        out = capsys.readouterr().out
        assert "beta = b/n = 7/20" in out
        assert "high" in out
        assert "c2" in out or "upper" in out

    def test_bad_params_exit_2(self, capsys):
        assert main(["info", "--n", "4", "--k", "2", "--b", "9"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_edgeless_notes(self, capsys):
        assert main(["info", "--n", "6", "--k", "3", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert "edgeless" in out


class TestSweep:
    def test_header_and_pinned_row(self, capsys):
        assert main(["sweep", "--k", "2", "--n", "50", "--b", "3", "--method", "lex"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == HEADER
        assert HEADER == ",".join(CSV_COLUMNS)
        assert out[1] == (
            "50,2,3,3/50,16,1/25,low,lex,6,0.0024,"
            "0.0034875,0.00342352941176,0.000188235294118,0.0034875,0.0034875,"
        )

    def test_deterministic_output(self, capsys):
        argv = [
            "sweep",
            "--k",
            "2,3",
            "--n",
            "10,20",
            "--b",
            "3",
            "--method",
            "lex,mirror",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        # row order: k outer, then n, then method
        rows = [ln.split(",") for ln in first.splitlines()[1:]]
        key = [(r[1], r[0], r[7]) for r in rows]
        assert key == sorted(key)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        argv = [
            "sweep",
            "--k",
            "2",
            "--n",
            "50",
            "--b",
            "3",
            "--method",
            "lex",
            "--output",
            str(target),
        ]
        assert main(argv) == 0
        content = target.read_text()
        assert content.startswith(HEADER + "\n")
        assert len(content.splitlines()) == 2

    def test_beta_mode_requires_integral_b(self, capsys):
        argv = ["sweep", "--k", "2", "--beta", "1/3", "--n", "10,20", "--method", "lex"]
        assert main(argv) == 2
        assert "non-integer b" in capsys.readouterr().err

    def test_beta_mode_rows(self, capsys):
        argv = [
            "sweep",
            "--k",
            "2",
            "--beta",
            "9/20",
            "--n",
            "20,40",
            "--method",
            "low_remainder",
        ]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("20,2,9,9/20,2,1/10,low,low_remainder,60,0.15,")
        assert rows[1].startswith("40,2,18,9/20,2,1/10,low,low_remainder,242,0.15125,")

    def test_wrong_regime_fills_error_column(self, capsys):
        argv = [
            "sweep",
            "--k",
            "2",
            "--beta",
            "9/20",
            "--n",
            "20",
            "--method",
            "high_remainder,low_remainder",
        ]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        bad = next(r for r in rows if ",high_remainder," in r)
        good = next(r for r in rows if ",low_remainder," in r)
        assert "low remainder" in bad  # error text, bandwidth empty
        assert bad.split(",")[8] == ""
        assert good.split(",")[8] == "60"

    def test_size_guard_refuses_explicit_orders(self, capsys):
        # 666166500 vertices: refused from the closed-form count at once
        start = time.perf_counter()
        assert main(["sweep", "--k", "3", "--n", "2000", "--b", "1000", "--method", "lex,mirror"]) == 0
        assert time.perf_counter() - start < 5
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row, method in zip(rows, ("lex", "mirror")):
            assert row.endswith(f",666166500 vertices exceed the cap 2000000 for {method}")

    def test_size_guard_counts_table_cells_at_k1(self, capsys):
        # 200001 vertices, but the evaluator's table has 200001² cells
        start = time.perf_counter()
        argv = ["sweep", "--k", "1", "--n", "200000", "--b", "100000", "--method", "lex"]
        assert main(argv) == 0
        assert time.perf_counter() - start < 5
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row.endswith(",40000400001 table cells exceed the cap 2000000 for lex")

    def test_size_guard_counts_table_cells_for_band_rows(self, monkeypatch):
        monkeypatch.setattr(bandgraph.cli, "MAX_VERTICES", 100)
        row = sweep_row(2, 50, 5, "low_remainder")  # 240 classes in 51 * 11 cells
        assert row["error"] == "561 table cells exceed the cap 100 for low_remainder"
        assert row["bandwidth"] == ""

    def test_k3_band_row_at_n_1000(self):
        # about 36M vertices but 254k span classes
        row = sweep_row(3, 1000, 300, "low_remainder")
        assert row["error"] == ""
        p = Params(n=1000, k=3, b=300)
        assert density_lower_bound(p) <= int(row["bandwidth"]) <= lex_upper_bound_value(p)

    def test_pairs_mode(self, capsys):
        argv = ["sweep", "--k", "2", "--pairs", "10:3,20:7", "--method", "lex"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("10,2,3,3/10,3,1/10,low,lex,6,")
        assert rows[1].startswith("20,2,7,7/20,2,3/10,high,lex,42,")

    def test_large_beta_leaves_coefficients_empty(self, capsys):
        argv = ["sweep", "--k", "2", "--pairs", "10:7", "--method", "lex"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == "7/10"
        assert row[4] == "" and row[10] == ""  # q and c1 blank

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# demo\nk = 2\nbeta = 9/20\nn = 20\nmethod = low_remainder\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("20,2,9,9/20,2,1/10,low,low_remainder,60,")

    def test_config_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("k = 2\nbeta = 9/20\nn = 20\nmethod = low_remainder\n")
        assert main(["sweep", "--config", str(cfg), "--n", "40"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith("40,2,18,")

    def test_config_duplicate_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 2\nk = 3\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "line 2: duplicate key 'k'" in capsys.readouterr().err

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 2\nwat = 5\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "unknown key 'wat'" in capsys.readouterr().err

    def test_exactly_one_instance_axis(self, capsys):
        assert main(["sweep", "--k", "2", "--method", "lex"]) == 2
        capsys.readouterr()
        argv = [
            "sweep",
            "--k",
            "2",
            "--b",
            "3",
            "--beta",
            "1/3",
            "--n",
            "9",
            "--method",
            "lex",
        ]
        assert main(argv) == 2


class TestVerify:
    def test_passing_suite_exit_0(self, capsys):
        assert main(["verify", "identities"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "result: PASS" in out

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        # every real suite passes, so inject one failing check; run_suite
        # looks the name up in SUITES at call time
        failing = SuiteResult("asymptotics", (Check("injected", False, "x"),))
        monkeypatch.setitem(bandgraph.suites.SUITES, "asymptotics", lambda: failing)
        assert main(["verify", "asymptotics"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "result: FAIL" in out

    def test_seed_and_random_flags(self, capsys):
        assert main(["verify", "cover-equivalence", "--random", "5", "--seed", "3"]) == 0

    @pytest.mark.parametrize("suite", ["meta", "cover-equivalence"])
    def test_negative_random_exit_2(self, suite, capsys):
        # a negative count would run no random instance and pass vacuously
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--random", "-5"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestHypergraphCommand:
    def write(self, tmp_path, text):
        f = tmp_path / "h.txt"
        f.write_text(text)
        return str(f)

    def test_cover_triangle(self, tmp_path, capsys):
        f = self.write(tmp_path, "3\n0 1\n1 2\n0 2\n")
        assert main(["hypergraph", f, "--action", "cover"]) == 0
        assert "weak edge clique cover number = 1" in capsys.readouterr().out

    def test_check_cover_path(self, tmp_path, capsys):
        f = self.write(tmp_path, "3\n0 1\n1 2\n")
        assert main(["hypergraph", f, "--action", "check-cover"]) == 0
        assert "equal (2 = 2)" in capsys.readouterr().out

    def test_transform_single_edge(self, tmp_path, capsys):
        f = self.write(tmp_path, "4\n0 1 2\n")
        assert main(["hypergraph", f, "--action", "transform"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 1 (one per hyperedge)" in out
        assert "edges: 0" in out

    def test_two_section_lists_edges(self, tmp_path, capsys):
        f = self.write(tmp_path, "4\n0 1 2\n")
        assert main(["hypergraph", f, "--action", "two-section"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 4" in out
        assert "edges: 3" in out
        assert "  0 1" in out and "  1 2" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = self.write(tmp_path, "3\n0 x\n")
        assert main(["hypergraph", f, "--action", "cover"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_capacity_exit_1(self, tmp_path, capsys):
        edges = "\n".join(f"{i} {i + 1}" for i in range(25))
        f = self.write(tmp_path, f"30\n{edges}\n")
        assert main(["hypergraph", f, "--action", "cover"]) == 1
        assert "exceeds" in capsys.readouterr().err
