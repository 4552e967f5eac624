"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

from bandgraph.core_graph import Params, vertex_count_formula

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_report_identities_pass(capsys):
    measure_report = load_script("measure_report")
    assert measure_report.main(["--beta", "7/20", "--k", "2", "--n", "50,100"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "identity checks (exact rational):" in out
    checks = [line for line in out.splitlines() if line.startswith("  [")]
    assert checks and all(line.startswith("  [ok ] ") for line in checks)
    # the lattice count in the band at n = 100 is the vertex count of G(100, 2, 35)
    (line,) = [line for line in out.splitlines() if line.startswith("  n =    100  ")]
    assert f"count = {vertex_count_formula(Params(100, 2, 35)):12d}  " in line
    # beta*n = 35/2 at n = 50: the band holds the 714 vertices of G(50, 2, 17)
    (line,) = [line for line in out.splitlines() if line.startswith("  n =     50  ")]
    assert f"count = {vertex_count_formula(Params(50, 2, 17)):12d}  " in line
