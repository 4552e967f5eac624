"""Top-level acceptance checks, one numbered test per contract item.

Each test pins both the mathematical claim and a wall-clock budget, and
reads its verdict from the named suite that ``bandgraph verify`` runs,
so each claim is coded once.  A suite runs at most once per session:
criteria 02 and 03 share ``numberings``, the three criterion-07 tests
share ``asymptotics``, and each budget applies to that one run.

Item 7 checks that the low-remainder construction converges to c1: the
exact gap |c1 - bandwidth/n^2| shrinks strictly along the n-ladder.  No
side of approach is assumed; on this ladder the measured width is
ceil(c1*n^2) - 1, so the ratio c1 - 1/n^2 rises toward c1 from below.

The last test pins the whole check list: ``bandgraph verify all`` must
print ``verify_all.golden.txt`` byte for byte.  It replays the cached
suite runs, so no suite runs twice.  A renamed, re-detailed or dropped
check fails it until the golden file is regenerated (``bandgraph verify
all > tests/verify_all.golden.txt``) and the change is logged.
"""

import functools
import time
from pathlib import Path

import bandgraph.cli
from bandgraph.suites import run_suite, suite_names

GOLDEN = Path(__file__).with_name("verify_all.golden.txt")


@functools.cache
def _timed_suite(name: str, **kwargs):
    start = time.monotonic()
    (result,) = run_suite(name, **kwargs)
    return result, time.monotonic() - start


def run_one(name: str, budget_seconds: float, **kwargs):
    result, elapsed = _timed_suite(name, **kwargs)
    assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s, budget {budget_seconds}s"
    return result


def assert_checks_pass(result, ids):
    """The suite's checks with these ids exist and pass."""
    by_id = {c.id: c for c in result.checks}
    missing = [i for i in ids if i not in by_id]
    assert not missing, f"{result.name} has no checks {missing}"
    failed = [by_id[i] for i in ids if not by_id[i].passed]
    assert not failed, failed


def test_criterion_01_small_exact_equals_formula():
    result = run_one("large-b-exact", 120)
    assert result.passed, result.failures()


def test_criterion_02_mirror_value_formula_grid():
    result = run_one("numberings", 60)
    assert result.passed, result.failures()


def test_criterion_03_flat_band_pins():
    # density lower bound == lex width == k*C(b, k) (6 at b=3, 12 at b=4)
    result = run_one("numberings", 60)
    pins = [f"lex-pin({n},2,3)" for n in (50, 100, 200, 400)]
    pins += [f"lex-pin({n},3,4)" for n in (100, 200, 400)]
    assert_checks_pass(result, pins)


def test_criterion_04_distance_and_diameter_formulas():
    result = run_one("distances", 3)
    assert result.passed, result.failures()


def test_criterion_05_exact_rational_identities():
    result = run_one("identities", 60)
    assert result.passed, result.failures()


def test_criterion_06_lattice_count_convergence():
    result = run_one("counts", 5)
    assert result.passed, result.failures()


def test_criterion_07_case_a_within_10pct():
    result = run_one("asymptotics", 600)
    assert_checks_pass(result, ["low-remainder within 10% at n=640"])


def test_criterion_07_case_a_ratio_decreasing():
    # The ratio approaches c1 from below (the width is ceil(c1*n^2) - 1
    # on this ladder), so what must fall is the exact gap to c1.
    result = run_one("asymptotics", 600)
    assert_checks_pass(result, ["low-remainder gap to c1 decreasing"])


def test_criterion_07_case_b_bracket():
    result = run_one("asymptotics", 600)
    assert_checks_pass(
        result,
        [
            "high-remainder within 10% of c2+c3 at n=640",
            "high-remainder never below lower coefficient - 10%",
        ],
    )


def test_criterion_08_cover_equivalence():
    result = run_one("cover-equivalence", 120, random_count=500, seed=7)
    assert result.passed, result.failures()


def test_criterion_09_transform_identity():
    result = run_one("transform", 60)
    assert result.passed, result.failures()


def test_criterion_10_meta_quantities():
    result = run_one("meta", 60, random_count=100, seed=7)
    assert result.passed, result.failures()


def test_verify_all_prints_the_golden_check_list(capsys, monkeypatch):
    # the suite defaults, spelled as criteria 08 and 10 spell them, so
    # that the cache hands back the runs those tests made
    defaults = {
        "cover-equivalence": {"random_count": 500, "seed": 7},
        "meta": {"random_count": 100, "seed": 7},
    }
    runs = [_timed_suite(name, **defaults.get(name, {}))[0] for name in suite_names()]

    def replay(name, random_count=None, seed=None):
        assert (name, random_count, seed) == ("all", None, None)
        return runs

    monkeypatch.setattr(bandgraph.cli, "run_suite", replay)
    assert bandgraph.cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
