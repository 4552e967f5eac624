"""Self-test of the benchmark: its checker, its seeding and its guards.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

GOLDEN = workloads.load_golden()


def _first(workload: str, op: str) -> workloads.Instance:
    return next(i for i in workloads.make_inputs(workload, 0) if i.op == op)


def test_every_drawable_instance_has_a_golden_answer():
    for workload in workloads.WORKLOADS:
        for inst in workloads.all_instances(workload):
            assert inst.key in GOLDEN, inst.key


def test_certify_grid_holds_every_small_large_b_instance():
    small = [i for i in workloads.all_instances("certify-grid") if i.n <= workloads.LARGE_B_MAX_N]
    assert len(small) == 429
    assert all(i.args[3] == (i.vertices <= workloads.EXACT_CAP) for i in small)


@pytest.mark.parametrize(
    "workload, op",
    [("band-sweep", "sweep"), ("certify-grid", "certify"), ("lattice-count", "count")],
)
def test_checker_flags_off_by_one(workload, op):
    inst = _first(workload, op)
    right = GOLDEN[inst.key]
    assert workloads.check(inst, right, GOLDEN)
    if op == "certify":
        lower, upper, exact = right
        assert not workloads.check(inst, [lower, upper + 1, exact], GOLDEN)
        assert not workloads.check(inst, [lower - 1, upper, exact], GOLDEN)
    else:
        assert not workloads.check(inst, right + 1, GOLDEN)
        assert not workloads.check(inst, right - 1, GOLDEN)


def test_checker_accepts_a_real_call():
    inst = min(workloads.make_inputs("certify-grid", 3), key=lambda i: i.vertices)
    assert workloads.check(inst, workloads.run(inst), GOLDEN)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_within_the_stated_range(workload):
    draws = [workloads.make_inputs(workload, seed) for seed in range(8)]
    assert len({tuple(sorted(i.key for i in d)) for d in draws}) > 1
    rung_of = {
        inst: slot for slot in workloads.slots(workload) for alt in slot.alternatives for inst in alt
    }
    for d in draws:
        assert len({rung_of[i].rung for i in d}) == len(workloads.slots(workload))
        for inst in d:
            slot = rung_of[inst]
            if slot.target is not None:
                assert workloads._within(inst.vertices, slot.target), (inst.key, slot.rung)
        assert sum(i.top for i in d) == 1
    # the lattice scanned by a count does not depend on the drawn beta
    cells = {tuple(sorted((i.args[1:], i.cells) for i in d if i.op == "count")) for d in draws}
    assert len(cells) == 1


def test_size_guard_refuses_before_the_call():
    from bandgraph import Params

    huge = workloads._graph_instance("certify", (8000, 2, 3, False), Params(8000, 2, 3))
    assert huge.refusal() is not None
    p = run.run_pass(workloads, [huge], GOLDEN)
    assert p.times == [None] and len(p.failures) == 1 and p.checks == 1


def test_traced_self_times_add_up_and_patches_are_restored():
    from bandgraph import solver

    original = solver.lex_numbering
    # the smallest narrow rung: long enough that timer overhead stays far below the tolerance
    inst = min((i for i in workloads.make_inputs("certify-grid", 0) if i.ladder), key=lambda i: i.n)
    tracer = Tracer()
    with tracer.installed():
        p = run.run_pass(workloads, [inst], GOLDEN, tracer)
    assert solver.lex_numbering is original
    assert not p.failures
    names = {s.name for s in p.spans}
    assert {"solver.certify", "numbering.build", "numbering.evaluate", "bounds.eval"} <= names
    assert abs(sum(self_times(p.spans)) - p.wall) <= run.SELF_TIME_TOLERANCE * p.wall


def test_time_exponent_recovers_a_power_law():
    ladder = [workloads.Instance("sweep", (n,), n=n, k=2, ladder="a") for n in (10, 20, 40)]
    assert run.time_exponent(ladder, [n**2 * 1e-6 for n in (10, 20, 40)]) == pytest.approx(2.0)
