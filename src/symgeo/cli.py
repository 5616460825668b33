"""Command-line front end: reproducible table emission, gap computation, and
the numerical verification suites, with machine-readable output.

Exit codes: 0 success, 1 assertion/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .exponents import (
    cx_rows,
    kappa_rows,
    multiplicity_rows,
    r_lower_bound,
    r_profile,
    sln_closed_form_bound,
)
from .rootdata import RANK_ONE_FAMILIES, build_rank_one, build_sln, rho

DEFAULT_SEED = 0xF420

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad command-line input; reported on one stderr line with exit code 2."""


def _require(ok: bool, message: str):
    if not ok:
        raise UsageError(message)


def _emit(payload, out):
    # strict JSON: a NaN or an infinity raises instead of printing a bare token
    out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    out.write("\n")


def _tableize(rows: list[dict]) -> str:
    """Table view of a list of flat rows, derived from the JSON payload and
    never parsed back."""
    if not rows:
        return "(empty)\n"
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows)) for k in keys}
    lines = ["  ".join(str(k).ljust(widths[k]) for k in keys)]
    for r in rows:
        lines.append("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _open_out(path):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args) -> int:
    families = args.family or list(RANK_ONE_FAMILIES)
    n_range = range(2, 7)
    if args.n is not None:
        n_range = [args.n]
        if args.family is None:
            # H2O exists only at n = 2; the default family set omits it elsewhere
            families = [f for f in families if f != "H2O" or args.n == 2]
        for family in families:
            try:
                build_rank_one(family, args.n)  # rejects an n the family lacks
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    try:
        # the row builders verify every entry against the embedded golden
        # case formulas and raise on any mismatch
        mult = multiplicity_rows(families, n_range)
        kap = [r.as_row() for r in kappa_rows(families, n_range)]
        cxs = [r.as_row() for r in cx_rows(families, n_range)]
    except AssertionError as exc:
        print(f"golden table mismatch: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.k is not None:
        kap = [r for r in kap if r["k_or_d"] == args.k]
        _require(bool(kap), f"--k {args.k} matches no kappa row")
    if args.d is not None:
        cxs = [r for r in cxs if r["k_or_d"] == args.d]
        _require(bool(cxs), f"--d {args.d} matches no cx row")
    with _open_out(args.out) as out:
        if args.format == "csv":
            header = "table,family,n,k_or_d,value,provenance\n"
            body = [header]
            for row in mult:
                body.append(
                    f"multiplicities,{row['family']},{row['n']},,"
                    f"({row['m_alpha']};{row['m_2alpha']}),Enumerated\n"
                )
            for tag, rows in (("kappa", kap), ("cx", cxs)):
                for row in rows:
                    body.append(
                        f"{tag},{row['family']},{row['n']},{row['k_or_d']},"
                        f"{row['value']},{row['provenance']}\n"
                    )
            out.write("".join(body))
        else:
            payload = {"multiplicities": mult, "kappa": kap, "cx": cxs}
            if args.format == "table":
                out.write("# multiplicities\n")
                out.write(_tableize(mult))
                out.write("# kappa\n")
                out.write(_tableize(kap))
                out.write("# cx\n")
                out.write(_tableize(cxs))
            else:
                _emit(payload, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# codimension gap
# ---------------------------------------------------------------------------


def cmd_rx(args) -> int:
    target = args.target
    # n in canonical decimal: int() would also take signs, spaces, leading
    # zeros and underscores, and the payload echoes the target as typed
    sln = re.fullmatch(r"SL:(0|[1-9][0-9]*)", target)
    try:
        if target == "H2O":
            rd = build_rank_one("H2O", 2)
            closed_form = 2
        elif sln:
            n = int(sln[1])
            rd = build_sln(n, "TraceForm")
            closed_form = sln_closed_form_bound(n)
        elif target.startswith("SL:"):
            raise UsageError(f"malformed target {target!r}: write n in decimal, "
                             "with no sign, spaces or leading zeros")
        else:
            raise UsageError(f"unsupported target {target!r} (use H2O or SL:<n>)")
        profile = r_profile(rd)
        value = r_lower_bound(rd)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "target": target,
        "r_lower_bound": value,
        "closed_form_bound": closed_form,
        "tau_profile": [
            {"d": d, "tau": str(t), "inside": t < 0} for d, t in profile[: value + 3]
        ],
    }
    with _open_out(args.out) as out:
        if args.format == "table":
            out.write(f"r({target}) = {value}   closed-form bound: {closed_form}\n")
            out.write(_tableize(payload["tau_profile"]))
        else:
            _emit(payload, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_hessian(args) -> list[dict]:
    from . import modelcheck

    sizes = modelcheck.MODEL_SIZES
    _require(args.n in sizes, f"--n must lie in [{sizes[0]}, {sizes[-1]}], got {args.n}")
    lo, hi = modelcheck.STEP_RANGE
    _require(lo <= args.h <= hi, f"--h must lie in [{lo:g}, {hi:g}], got {args.h:g}")
    _require(0 < args.tol < math.inf, f"--tol must be positive and finite, got {args.tol:g}")
    reports = []
    for n in range(2, args.n + 1):
        rd = build_sln(n, "Killing")
        for exp in (False, True):
            reports.append(modelcheck.verify_iwasawa_spectrum(
                n, rho(rd), h=args.h, tol=args.tol, exp=exp
            ))
    return reports


def _suite_spherical(args) -> list[dict]:
    import numpy as np

    from . import spherical
    from .report import check_report

    # a standard error needs two samples
    _require(args.samples >= 2, f"--samples must be at least 2, got {args.samples}")
    reports = []
    N = args.samples
    for n in (2, 3):
        rd = build_sln(n)
        H = np.linspace(1.0, -1.0, n)
        H -= H.mean()
        est = spherical.phi_lambda(n, Fraction(-1) * rho(rd), H, N, args.seed + n)
        err = abs(est.value - 1.0)
        reports.append(check_report("phi_minus_rho_is_one", {"n": n, "H": H.tolist(), "N": N},
                                    err, err <= 4 * est.stderr, est.to_json_dict()))
        reports.append(spherical.phi_zero_bound_check(n, H, N, args.seed + 10 + n))
    return reports


def _suite_monotonicity(args) -> list[dict]:
    from . import modelcheck
    from .report import check_report

    rd = build_rank_one("HnR", 4)
    reports = []
    for k in (2, 3):
        profile = modelcheck.monotonicity_profile(rd, k, range(9))
        margins = modelcheck.monotonicity_margins(profile, float(k - 1))
        reports.append(check_report(
            f"mass_profile_k{k}",
            {"k": k, "n": 4, "grid": list(range(9))},
            max(0.0, -min(margins)),
            min(margins) >= 0.0,
            {"profile": [[r, v] for r, v in profile]},
        ))
    return reports


def _suite_ff(args) -> list[dict]:
    from .ffengine import (
        GeoComplex,
        check_uniform,
        flat_torus_complex,
        run_deformation_suite,
    )

    _require(args.chains >= 1, f"--chains must be at least 1, got {args.chains}")
    if args.mesh:
        try:
            with open(args.mesh) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --mesh {args.mesh}: {exc.strerror}") from None
        try:
            cx = GeoComplex.from_json(text)
            # charts every cell: rejects an empty complex and a degenerate cell
            reports = [check_uniform(cx, r=1.2, delta=0.2)]
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed --mesh {args.mesh}: {exc}") from None
    else:
        cx = flat_torus_complex(8)
        reports = [check_uniform(cx, r=1.2, delta=0.2)]
    if "torus_n" in cx.metadata:
        reports.append(run_deformation_suite(cx, n_chains=args.chains, seed=args.seed))
    return reports


def cmd_verify(args) -> int:
    suites = {
        "hessian": _suite_hessian,
        "spherical": _suite_spherical,
        "monotonicity": _suite_monotonicity,
        "ff": _suite_ff,
    }
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    reports = suites[args.suite](args)
    ok = all(r["pass"] for r in reports)
    payload = {"suite": args.suite, "pass": ok, "checks": reports}
    with _open_out(args.out) as out:
        if args.format == "table":
            out.write(_tableize([{k: r[k] for k in ("check", "pass", "max_abs_err")}
                                 for r in payload["checks"]]))
        else:
            _emit(payload, out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="symgeo",
        description=(
            "Root-system tables, Hessian-spectrum exponents, and numerical "
            "verification suites for rank-one and SL(n) symmetric spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser(
        "tables",
        help="emit the root-multiplicity, k-trace exponent, and contraction "
             "threshold tables, verified against embedded golden values",
    )
    p_tables.add_argument("--family", action="append", choices=RANK_ONE_FAMILIES,
                          help="rank-one family (repeatable; default all)")
    p_tables.add_argument("--n", type=int, help="restrict to one parameter value")
    p_tables.add_argument("--k", type=int,
                          help="restrict the exponent table to one codimension")
    p_tables.add_argument("--d", type=int,
                          help="restrict the threshold table to one dimension drop")
    p_tables.add_argument("--out", help="output file (default stdout)")
    p_tables.add_argument("--format", choices=("json", "csv", "table"),
                          default="json")
    p_tables.set_defaults(func=cmd_tables)

    p_rx = sub.add_parser(
        "rx",
        help="codimension gap certified by the growth bound: enumerated "
             "lower bound, closed-form bound, and the trace profile per "
             "omitted dimension",
    )
    p_rx.add_argument("target", help="H2O or SL:<n> with n >= 3")
    p_rx.add_argument("--out", help="output file (default stdout)")
    p_rx.add_argument("--format", choices=("json", "table"), default="json")
    p_rx.set_defaults(func=cmd_rx)

    p_verify = sub.add_parser(
        "verify",
        help="run a numerical verification suite "
             "(hessian | spherical | monotonicity | ff)",
    )
    p_verify.add_argument("suite",
                          choices=("hessian", "spherical", "monotonicity", "ff"))
    p_verify.add_argument("--n", type=int, default=3,
                          help="largest matrix size for the hessian suite")
    p_verify.add_argument("--tol", type=float, default=1e-3)
    p_verify.add_argument("--h", type=float, default=1e-3,
                          help="finite-difference step")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--samples", "--N", dest="samples", type=int,
                          default=100_000)
    p_verify.add_argument("--chains", type=int, default=20,
                          help="random chains in the deformation suite")
    p_verify.add_argument("--mesh", help="JSON mesh file for the ff suite "
                                         "(default: 8x8 flat torus)")
    p_verify.add_argument("--out", help="output file (default stdout)")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
