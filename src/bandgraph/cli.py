"""Command-line front end.

Subcommands:
  info        print the counting/bound/regime report for one (n, k, b)
  sweep       run a parameter sweep and emit a CSV of bandwidths/ratios
  verify      run a named verification suite, exit 0 iff it passes
  hypergraph  parse a hypergraph file and run one transformation/count

Exit codes: 0 success, 1 check failure, 2 usage/config/parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import (
    asymptotic_coefficient_interval,
    beta_decomposition,
    coefficients,
    density_lower_bound,
    exact_bandwidth_large_b,
    lex_upper_bound_value,
)
from .core_graph import Params, central_count, diameter, vertex_count_formula
from .hypergraph import (
    CapacityError,
    parse_hypergraph,
    two_section,
    vertex_clique_cover_number,
    weak_edge_clique_cover_number,
    weak_edge_clique_graph,
)
from .numbering import (
    bandwidth_of_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
)
from .solver import certify
from .suites import run_suite, suite_names

__all__ = ["main"]

CSV_COLUMNS = (
    "n",
    "k",
    "b",
    "beta",
    "q",
    "r",
    "case",
    "method",
    "bandwidth",
    "ratio",
    "c1",
    "c2",
    "c3",
    "lower_coeff",
    "upper_coeff",
    "error",
)

NUMBERINGS = {
    "lex": lex_numbering,
    "mirror": mirror_numbering,
    "low_remainder": low_remainder_numbering,
    "high_remainder": high_remainder_numbering,
}


class ConfigError(ValueError):
    """Sweep configuration is malformed or inconsistent."""


def _fmt12(x: Fraction | float) -> str:
    return f"{float(x):.12g}"


# ── info ──────────────────────────────────────────────────────────────


def cmd_info(args: argparse.Namespace) -> int:
    try:
        p = Params(n=args.n, k=args.k, b=args.b)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = []
    out.append(f"G(n={p.n}, k={p.k}, b={p.b})")
    out.append(f"  vertices |V| = {vertex_count_formula(p)}")
    out.append(f"  central  |C| = {central_count(p)}")
    if p.b == p.k - 1:
        out.append("  edgeless graph (b = k-1): bandwidth 0, no distance structure")
    else:
        out.append(f"  diameter = {diameter(p)}")
        out.append(f"  density lower bound = {density_lower_bound(p)}")
        out.append(f"  lex upper bound = {lex_upper_bound_value(p)}")
        if central_count(p) > 0:
            exact = exact_bandwidth_large_b(p)
            out.append(f"  exact bandwidth (central set nonempty) = {exact}")
        else:
            out.append(f"  {_bracket(p)}")
    beta = Fraction(p.b, p.n)
    out.append(f"  beta = b/n = {beta}")
    if 2 * p.b <= p.n and p.k >= 2:
        dec = beta_decomposition(beta)
        co = coefficients(dec, p.k)
        out.append(
            f"  regime: {dec.regime}-remainder (q = {dec.q}, r = {dec.r}, "
            f"gamma = {co.gamma})"
        )
        out.append(f"  c1 = {co.c1} (~{_fmt12(co.c1)})")
        out.append(f"  c2 = {co.c2} (~{_fmt12(co.c2)})")
        out.append(f"  c3 = {co.c3} (~{_fmt12(co.c3)})")
        lo_c, up_c = asymptotic_coefficient_interval(dec, p.k)
        out.append(
            f"  asymptotic bandwidth/n^k interval: [{lo_c}, {up_c}] "
            f"(~[{_fmt12(lo_c)}, {_fmt12(up_c)}])"
        )
    print("\n".join(out))
    return 0


def _bracket(p: Params) -> str:
    """The bandwidth bracket of ``certify`` and its witness; the
    closed-form density and lex bounds where a candidate that certify
    builds is past the size cap."""
    try:
        c = certify(p)
        lower, upper, source = c.lower, c.upper, f"witness: {c.method}"
    except CapacityError:
        lower, upper, source = density_lower_bound(p), lex_upper_bound_value(p), "closed forms"
    if lower == upper:
        return f"bounds meet: exact bandwidth = {lower} ({source})"
    return f"bandwidth in [{lower}, {upper}] ({source})"


# ── sweep ─────────────────────────────────────────────────────────────


def _parse_list(value: str, parse_item) -> list:
    items = [tok.strip() for tok in value.split(",")]
    return [parse_item(tok) for tok in items if tok]


def _parse_positive_int(tok: str) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise ConfigError(f"expected an integer, got {tok!r}") from None
    if v <= 0:
        raise ConfigError(f"expected a positive integer, got {tok}")
    return v


def _parse_fraction(tok: str) -> Fraction:
    try:
        v = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a rational like 9/20, got {tok!r}") from None
    if v <= 0:
        raise ConfigError(f"expected a positive rational, got {tok}")
    return v


def count(tok: str) -> int:
    """argparse type for --random: a non-negative integer (argparse
    names the type in its message, hence the plain name)."""
    v = int(tok)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {tok}")
    return v


def _parse_pair(tok: str) -> tuple[int, int]:
    parts = tok.split(":")
    if len(parts) != 2:
        raise ConfigError(f"expected a pair n:b, got {tok!r}")
    return _parse_positive_int(parts[0]), _parse_positive_int(parts[1])


def _parse_method(tok: str) -> str:
    if tok not in NUMBERINGS:
        raise ConfigError(
            f"unknown method {tok!r}; choose from {', '.join(NUMBERINGS)}"
        )
    return tok


_SWEEP_KEYS = ("k", "n", "beta", "b", "pairs", "method", "output")


def read_sweep_config(text: str) -> dict[str, str]:
    """Parse the key=value sweep config format ('#' comments, blank lines)."""
    raw: dict[str, str] = {}
    for no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {no}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in _SWEEP_KEYS:
            raise ConfigError(
                f"line {no}: unknown key {key!r}; known keys: {', '.join(_SWEEP_KEYS)}"
            )
        if key in raw:
            raise ConfigError(f"line {no}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_sweep(raw: dict[str, str]) -> tuple[list[int], list[tuple[int, int]], list[str], str | None]:
    """Validate a raw config and return (ks, (n,b) rows, methods, output).

    Exactly one of beta (with n), b (with n), or pairs selects the
    instances; every beta*n product must be an integer.
    """
    if "k" not in raw:
        raise ConfigError("missing key 'k'")
    if "method" not in raw:
        raise ConfigError("missing key 'method'")
    ks = _parse_list(raw["k"], _parse_positive_int)
    methods = _parse_list(raw["method"], _parse_method)
    if not ks or not methods:
        raise ConfigError("'k' and 'method' must be non-empty lists")

    modes = [key for key in ("beta", "b", "pairs") if key in raw]
    if len(modes) != 1:
        raise ConfigError("exactly one of 'beta', 'b', or 'pairs' must be given")
    mode = modes[0]
    instances: list[tuple[int, int]] = []
    if mode == "pairs":
        if "n" in raw:
            raise ConfigError("'pairs' already fixes n; drop the 'n' key")
        instances = _parse_list(raw["pairs"], _parse_pair)
    else:
        if "n" not in raw:
            raise ConfigError(f"'{mode}' mode needs an 'n' list")
        ns = _parse_list(raw["n"], _parse_positive_int)
        if not ns:
            raise ConfigError("'n' must be a non-empty list")
        if mode == "b":
            bs = _parse_list(raw["b"], _parse_positive_int)
            instances = [(n, b) for b in bs for n in ns]
        else:
            betas = _parse_list(raw["beta"], _parse_fraction)
            for beta in betas:
                for n in ns:
                    b = beta * n
                    if b.denominator != 1:
                        raise ConfigError(
                            f"beta = {beta} with n = {n} gives non-integer b = {b}; "
                            "choose n divisible by the beta denominator"
                        )
                    instances.append((n, int(b)))
    if not instances:
        raise ConfigError("configuration selects no (n, b) instances")
    return ks, instances, methods, raw.get("output")


def sweep_row(k: int, n: int, b: int, method: str) -> dict[str, str]:
    """One CSV row; failures land in the error column, blanks elsewhere."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row["n"], row["k"], row["b"], row["method"] = str(n), str(k), str(b), method
    beta = Fraction(b, n)
    row["beta"] = str(beta)
    if 2 * b <= n and k >= 2:
        dec = beta_decomposition(beta)
        co = coefficients(dec, k)
        lo_c, up_c = asymptotic_coefficient_interval(dec, k)
        row["q"], row["r"], row["case"] = str(dec.q), str(dec.r), dec.regime
        row["c1"], row["c2"], row["c3"] = _fmt12(co.c1), _fmt12(co.c2), _fmt12(co.c3)
        row["lower_coeff"], row["upper_coeff"] = _fmt12(lo_c), _fmt12(up_c)
    try:
        p = Params(n=n, k=k, b=b)
        bw = bandwidth_of_numbering(NUMBERINGS[method](p))
        row["bandwidth"] = str(bw)
        row["ratio"] = _fmt12(Fraction(bw, n**k))
    except ValueError as e:
        row["error"] = str(e)
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    raw: dict[str, str] = {}
    try:
        if args.config:
            raw = read_sweep_config(Path(args.config).read_text())
        for key in _SWEEP_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                raw[key] = flag
        ks, instances, methods, output = resolve_sweep(raw)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        out = open(output, "w", newline="") if output else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        print(f"error: cannot write {output}: {e.strerror}", file=sys.stderr)
        return 2
    with out as f:
        rows = [sweep_row(k, n, b, m) for k in ks for (n, b) in instances for m in methods]
        _write_csv(f, rows)
    if output:
        print(f"wrote {len(rows)} rows to {output}", file=sys.stderr)
    return 0


def _write_csv(f, rows: list[dict[str, str]]) -> None:
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in CSV_COLUMNS])


# ── verify ────────────────────────────────────────────────────────────


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, random_count=args.random, seed=args.seed)
    all_passed = True
    for result in results:
        print(f"suite {result.name}")
        for check in result.checks:
            mark = "PASS" if check.passed else "FAIL"
            detail = f"  {check.detail}" if check.detail else ""
            print(f"  [{mark}] {check.id}{detail}")
        all_passed &= result.passed
    verdict = "PASS" if all_passed else "FAIL"
    print(f"result: {verdict} ({sum(len(r.checks) for r in results)} checks)")
    return 0 if all_passed else 1


# ── hypergraph ────────────────────────────────────────────────────────


def _print_simple_graph(g, vertex_note: str = "") -> None:
    note = f" ({vertex_note})" if vertex_note else ""
    print(f"vertices: {g.vertex_count}{note}")
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    print(f"edges: {len(edges)}")
    for a, b in edges:
        print(f"  {a} {b}")


def cmd_hypergraph(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        h = parse_hypergraph(text)
    except ValueError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2

    try:
        if args.action == "two-section":
            _print_simple_graph(two_section(h))
        elif args.action == "transform":
            _print_simple_graph(
                weak_edge_clique_graph(h), vertex_note="one per hyperedge"
            )
        elif args.action == "cover":
            print(f"weak edge clique cover number = {weak_edge_clique_cover_number(h)}")
        else:  # check-cover
            edge_num = weak_edge_clique_cover_number(h)
            vert_num = vertex_clique_cover_number(weak_edge_clique_graph(h))
            if edge_num == vert_num:
                print(f"equal ({edge_num} = {vert_num})")
            else:
                print(f"NOT EQUAL ({edge_num} != {vert_num})")
                return 1
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


# ── entry point ───────────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgraph",
        description="Bandwidth computations for graphs of bounded-span k-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="report counts, bounds, and regime for one (n, k, b)")
    p_info.add_argument("--n", type=int, required=True)
    p_info.add_argument("--k", type=int, required=True)
    p_info.add_argument("--b", type=int, required=True)
    p_info.set_defaults(func=cmd_info)

    p_sweep = sub.add_parser("sweep", help="emit a CSV over a parameter grid")
    p_sweep.add_argument("--config", help="key = value config file")
    p_sweep.add_argument("--k", help="comma-separated k list (overrides config)")
    p_sweep.add_argument("--n", help="comma-separated n list")
    p_sweep.add_argument("--beta", help="comma-separated rationals, e.g. 9/20,7/20")
    p_sweep.add_argument("--b", help="comma-separated b list (fixed b mode)")
    p_sweep.add_argument("--pairs", help="comma-separated n:b pairs, e.g. 50:3,100:3")
    p_sweep.add_argument("--method", help=f"comma-separated from {','.join(NUMBERINGS)}")
    p_sweep.add_argument("--output", help="CSV path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=[*suite_names(), "all"])
    p_verify.add_argument("--random", type=count, default=None, help="randomized-instance count")
    p_verify.add_argument("--seed", type=int, default=None, help="random seed")
    p_verify.set_defaults(func=cmd_verify)

    p_hyper = sub.add_parser("hypergraph", help="operate on a hypergraph text file")
    p_hyper.add_argument("file")
    p_hyper.add_argument(
        "--action",
        required=True,
        choices=("two-section", "transform", "cover", "check-cover"),
    )
    p_hyper.set_defaults(func=cmd_hypergraph)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
