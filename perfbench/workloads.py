"""Seeded inputs, library calls and output checks of the three workloads.

A workload is a list of slots.  Each slot is one rung of the workload and
lists the alternatives the seed may draw for it; an alternative is a tuple
of instances.  ``make_inputs`` draws one alternative per slot and orders
the result, ``all_instances`` lists every instance any seed can draw (the
golden file holds an answer for each of them).

The alternatives of a sized rung keep |V| and the span-class count within
``SIZE_TOLERANCE`` of the rung's reference instance, so the seed changes
the instance but not the amount of work: the spread between seeds stays
below the benchmark's bounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bandgraph import (
    Params,
    band_polygon,
    beta_decomposition,
    omega_polygon,
    vertex_count_formula,
)
import bandgraph
from bandgraph import cli, geometry, solver

WORKLOADS = ("band-sweep", "certify-grid", "lattice-count")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SIZE_TOLERANCE = Fraction(3, 100)
POOL_SIZE = 5  # alternatives per sized rung, the closest to the reference |V|

# Size guard, checked from closed forms before every instance.  The
# evaluator allocates dense (n+1)^2 tables (lex at (8000, 2, 3) peaks at
# 2 GB), and the numberings hold every vertex tuple.
MAX_CELLS = 25_000_000
MAX_VERTICES = 400_000

# Ops that materialize the vertex list; lattice counts only scan points.
BUILDS_VERTICES = frozenset({"sweep", "certify"})


@dataclass(frozen=True)
class Instance:
    """One library call with its closed-form sizes.

    ``vertices`` is |V| from ``vertex_count_formula`` of the graph the call
    works on, ``classes`` its span-class count and ``cells`` the (n+1)^2
    lattice the evaluator tabulates or the counter scans (0 when the call
    has no graph).  Instances sharing a ``ladder`` differ only in n and are
    fitted for the time exponent.
    """

    op: str
    args: tuple
    n: int = 0
    k: int = 0
    vertices: int = 0
    classes: int = 0
    cells: int = 0
    ladder: str = ""
    top: bool = False

    @property
    def key(self) -> str:
        return f"{self.op}:" + ",".join(str(a) for a in self.args)

    def refusal(self) -> str | None:
        """Why the size guard refuses this instance, or None."""
        if self.cells > MAX_CELLS:
            return f"{self.cells} lattice cells exceed the cap {MAX_CELLS}"
        if self.op in BUILDS_VERTICES and self.vertices > MAX_VERTICES:
            return f"{self.vertices} vertices exceed the cap {MAX_VERTICES}"
        return None


@dataclass(frozen=True)
class Slot:
    """One rung: its name, the reference |V| (None if unsized) and the
    alternatives the seed chooses among."""

    rung: str
    target: int | None
    alternatives: tuple[tuple[Instance, ...], ...]


def class_count(p: Params) -> int:
    """Number of nonempty span classes (lo, hi): k-1 <= hi-lo <= b."""
    return sum(p.n + 1 - d for d in range(p.k - 1, p.b + 1))


def _graph_instance(op: str, args: tuple, p: Params, **kw) -> Instance:
    return Instance(
        op=op,
        args=args,
        n=p.n,
        k=p.k,
        vertices=vertex_count_formula(p),
        classes=class_count(p),
        cells=(p.n + 1) ** 2,
        **kw,
    )


def _within(value: int, target: int) -> bool:
    return abs(value - target) <= SIZE_TOLERANCE * target


# ── band-sweep ────────────────────────────────────────────────────────

# Every n0 is a multiple of 20, so beta0 * n0 is an integer for both betas.
SWEEP_LADDERS = {2: (200, 400), 3: (40, 80), 4: (20, 40)}
# One low-remainder regime with q = 3 and one high-remainder regime with q = 2.
SWEEP_BETAS = {"low": Fraction(3, 10), "high": Fraction(7, 20)}
SWEEP_TOP = (2, 400, "high")


def _sweep_slots() -> list[Slot]:
    slots = []
    for k, ns in SWEEP_LADDERS.items():
        for regime, beta0 in SWEEP_BETAS.items():
            dec0 = beta_decomposition(beta0)
            method = f"{regime}_remainder"
            for n0 in ns:
                ref = Params(n0, k, int(beta0 * n0))
                target, target_classes = vertex_count_formula(ref), class_count(ref)
                reach = max(2, n0 // 50)
                pool = []
                for n in range(n0 - reach, n0 + reach + 1):
                    for b in sorted({math.floor(beta0 * n), math.ceil(beta0 * n)}):
                        dec = beta_decomposition(Fraction(b, n))
                        p = Params(n, k, b)
                        if (
                            (dec.q, dec.regime) == (dec0.q, dec0.regime)
                            and _within(vertex_count_formula(p), target)
                            and _within(class_count(p), target_classes)
                        ):
                            inst = _graph_instance(
                                "sweep",
                                (k, n, b, method),
                                p,
                                ladder=f"k{k}-{regime}",
                                top=(k, n0, regime) == SWEEP_TOP,
                            )
                            pool.append((inst,))
                pool.sort(key=lambda alt: (abs(alt[0].vertices - target), alt[0].args))
                slots.append(
                    Slot(f"sweep-k{k}-n{n0}-{regime}", target, tuple(pool[:POOL_SIZE]))
                )
    return slots


# ── certify-grid ──────────────────────────────────────────────────────

LARGE_B_KS = (2, 3, 4)
LARGE_B_MAX_N = 24
EXACT_CAP = solver.DEFAULT_CAP
# (k, b, n ladder).  A single-digit b is fixed per rung, since one step in
# b moves |V| by 25% or more; the seed moves n by at most 1.3% instead.
NARROW_LADDERS = ((2, 3, (250, 500, 1000, 2000)), (3, 4, (250, 500, 1000)), (2, 10, (1000,)), (3, 20, (150,)))
CERTIFY_TOP = (2, 3, 2000)


def _certify_slots() -> list[Slot]:
    slots = []
    for k in LARGE_B_KS:
        for n in range(k, LARGE_B_MAX_N + 1):
            for b in range(max(1, k - 1), n + 1):
                if 2 * b >= n + k - 1:
                    p = Params(n, k, b)
                    run_exact = vertex_count_formula(p) <= EXACT_CAP
                    inst = _graph_instance("certify", (n, k, b, run_exact), p)
                    slots.append(Slot(f"large-b-{n},{k},{b}", None, ((inst,),)))
    for k, b, ns in NARROW_LADDERS:
        for n0 in ns:
            step = max(1, n0 // 500)
            pool = tuple(
                (
                    _graph_instance(
                        "certify",
                        (n, k, b, False),
                        Params(n, k, b),
                        ladder=f"k{k}-b{b}" if len(ns) > 1 else "",
                        top=(k, b, n0) == CERTIFY_TOP,
                    ),
                )
                for n in range(n0 - 2 * step, n0 + 2 * step + 1, step)
            )
            target = vertex_count_formula(Params(n0, k, b))
            slots.append(Slot(f"narrow-{n0},{k},{b}", target, pool))
    return slots


# ── lattice-count ─────────────────────────────────────────────────────

COUNT_NS = (50, 100)
COUNT_KS = (2, 3)
# Denominators divide every n in COUNT_NS, so each band edge is a lattice line.
BAND_BETAS = ("1/5", "7/25", "3/10", "9/25", "2/5", "1/2")
IDENTITY_BETAS = ("9/20", "7/20", "1/3", "2/5", "1/2", "3/10")  # the identities suite's betas
IDENTITY_KS = (2, 3, 4, 5)
COUNT_TOP = ("band", 100, 3)


def _count_group(shape: str, k: int) -> tuple[Instance, ...]:
    """Counts at every n plus the measure they converge to."""
    name = "omega" if shape == "omega" else "band"
    group = []
    for n in COUNT_NS:
        b = n if shape == "omega" else int(Fraction(shape) * n)
        group.append(
            _graph_instance(
                "count",
                (shape, n, k),
                Params(n, k, b),
                ladder=f"{name}-k{k}",
                top=(name, n, k) == COUNT_TOP,
            )
        )
    group.append(Instance("measure", (shape, k), k=k))
    return tuple(group)


def _count_slots() -> list[Slot]:
    slots = []
    for k in COUNT_KS:
        slots.append(Slot(f"omega-k{k}", None, (_count_group("omega", k),)))
        slots.append(
            Slot(f"band-k{k}", None, tuple(_count_group(beta, k) for beta in BAND_BETAS))
        )
    for beta in IDENTITY_BETAS:
        for k in IDENTITY_KS:
            inst = Instance("identities", (beta, k), k=k)
            slots.append(Slot(f"identities-{beta},{k}", None, ((inst,),)))
    return slots


SLOTS = {
    "band-sweep": _sweep_slots,
    "certify-grid": _certify_slots,
    "lattice-count": _count_slots,
}


def slots(workload: str) -> list[Slot]:
    return SLOTS[workload]()


def make_inputs(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed, in the order they run.

    The rungs of a ladder run back to back, smallest n first, so that the
    time exponent, a ratio of their times, sees one machine state; the
    seed shuffles the ladders and the other instances.
    """
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[Instance]] = {}
    for slot in slots(workload):
        for inst in rng.choice(slot.alternatives):
            groups.setdefault(inst.ladder or inst.key, []).append(inst)
    order = list(groups.values())
    rng.shuffle(order)
    return [inst for group in order for inst in sorted(group, key=lambda i: i.n)]


def all_instances(workload: str) -> list[Instance]:
    return [inst for slot in slots(workload) for alt in slot.alternatives for inst in alt]


# ── library calls ─────────────────────────────────────────────────────


def _polygon(shape: str):
    return omega_polygon() if shape == "omega" else band_polygon(Fraction(shape))


def _sweep(k, n, b, method):
    row = cli.sweep_row(k, n, b, method)
    return row["error"] or int(row["bandwidth"])


def _certify(n, k, b, run_exact):
    c = solver.certify(Params(n, k, b), run_exact=run_exact)
    return [c.lower, c.upper, c.exact_value]


def _count(shape, n, k):
    return geometry.region_vertex_count(_polygon(shape), n, k)


def _measure(shape, k):
    return str(geometry.polygon_measure(_polygon(shape), k))


def _identities(beta, k):
    return geometry.verify_identities(beta, k).all_passed


# Module attributes are looked up at call time, so a tracer that wraps
# them sees these calls.
OPS = {
    "sweep": _sweep,
    "certify": _certify,
    "count": _count,
    "measure": _measure,
    "identities": _identities,
}


def run(inst: Instance):
    """Call the library for one instance; the result is JSON-comparable."""
    return OPS[inst.op](*inst.args)


def source_digest() -> str:
    """SHA-256 of the imported package's sources; it names the code where
    the checkout is not a git repository."""
    package = Path(bandgraph.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["values"]


def check(inst: Instance, output, golden: dict) -> bool:
    """True when the output equals the golden answer recorded for the key."""
    return inst.key in golden and output == golden[inst.key]
