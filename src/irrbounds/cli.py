"""Command-line front end, on the standard library's argparse.

Commands: bound, table, verify, omega, search.  Formats: text (aligned
columns), csv, json.  Exit codes: 0 success, 1 usage/validation error,
2 inapplicable parameters, 3 integrality verification failure, 4 a
certificate did not hold (a published value's radius was wider than
10^-(digits-5) of it, the sign of M2+K+N or of the saddle cubic's
discriminant was left open by the radii, the saddle root's certificate or
Omega's Farey-neighbour certificate failed, or the enclosure of a form in
alpha_k was still too wide after its last pass).
Usage errors, --print-digits above --digits - 5 (more digits than the
enclosures certify) among them, are refused before any work with one
stderr line, ``Error: <message>``, and nothing on stdout.

All numeric output is fixed-format at a requested number of significant
digits (6 by default, the table precision), rendered from all the bits of
each value's own precision, so identical invocations are byte-identical and
diffable.  Exact rationals are serialized as "num/den" strings, never
floats.
"""

from __future__ import annotations

import argparse
import io
import sys

import mpmath as mp

from .asymptotics import certify
from .errors import (CertificateError, IntegralityError, NonApplicableError,
                     PrecisionError)
from .exact_arith import Params, format_int, format_rat
from .measures import (BoundResult, grid_size, headline_table, is_degenerate,
                       mu2_bound, mu_bound, predicted_decay, search_params,
                       table_row, verify_forms)
from .omega import compute_omega, n_constants

# the working-precision floor of omega.n_constants and a cap, checked before
# any work.  Each bound computes its constants once, at digits: per
# process, bound --k 6 --a 1 --b 7 takes 0.13-0.17 s at 500 digits, table
# --paper 0.20-0.29 s, and a cold mu_bound(6, 1, 7, 1000) 0.05 s in-process,
# on a shared 2-core machine.
MIN_DIGITS = 30
MAX_DIGITS = 500
# largest total form degree, the sum of d = 3(b-2a)n over the --n list, that
# verify accepts.  The exact forms (eval_UVW) cost about d^2.1: 0.04 s at
# d = 1023, 0.5 s at d = 3333, 1.9 s at d = 6633 and 4.5 s at d = 9999
# in-process on a shared 2-core machine, so the cap stops a run of well under
# a minute.  As b > 4a, it also keeps each prime sieve below b*n < 2d/3.
MAX_VERIFY_DEGREE = 10_000
# largest number of (a, b) cells that search accepts.  With --a-max 1 the
# cap admits b up to 203, and that grid of 100 cells takes 3.5-3.8 s per
# process at the default digits on the same machine: about 1.8 s in Omega's
# walks and 1.2 s in the psi sums of N1 and N2.
MAX_SEARCH_CELLS = 100


class UsageError(Exception):
    """A command line refused before any work (exit 1)."""


def fmt_sig(x, sig: int = 6) -> str:
    """Fixed rendering of an mpf at ``sig`` significant digits, from all the
    bits of its own precision."""
    if x is None:
        return ""
    if mp.isnan(x) or mp.isinf(x):
        return str(x)
    return mp.nstr(x, sig, strip_zeros=False)


def _check_digits(args: argparse.Namespace) -> None:
    """Refuse, before any work, digits outside their ranges, and printed
    digits the enclosures do not certify: each published value is accepted
    only with a radius of at most 10^-(digits-5) of it."""
    if not MIN_DIGITS <= args.digits <= MAX_DIGITS:
        raise UsageError(f"Invalid value for '--digits': {args.digits} is not "
                         f"in the range {MIN_DIGITS}<=x<={MAX_DIGITS}.")
    if args.print_digits < 1:
        raise UsageError(f"Invalid value for '--print-digits': "
                         f"{args.print_digits} is not in the range x>=1.")
    if args.print_digits > args.digits - 5:
        raise UsageError(
            f"--print-digits {args.print_digits} is above --digits {args.digits}"
            f" - 5 = {args.digits - 5}, the digits the enclosures certify")


# json and csv are imported where they format, so a process loads at most
# the one its --format names
def _echo_json(value) -> None:
    import json

    print(json.dumps(value, indent=2))


def _echo_rows(rows: list[dict], fmt: str, order: list[str]) -> None:
    if fmt == "json":
        _echo_json(rows)
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=order, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: ("" if r.get(k) is None else r[k]) for k in order})
        print(buf.getvalue(), end="")
    else:
        lines = [order, *([("" if r.get(c) is None else str(r[c])) for c in order]
                          for r in rows)]
        widths = [max(map(len, column)) for column in zip(*lines)]
        for line in lines:
            print("  ".join(s.rjust(w) for s, w in zip(line, widths)))


def cmd_bound(args) -> int:
    """Compute one measure bound for alpha_k with parameters (a, b)."""
    k, a, b, digits, sig = args.k, args.a, args.b, args.digits, args.print_digits
    res = (mu2_bound if args.quadratic else mu_bound)(k, a, b, digits)
    row = _bound_row(res, sig)
    if args.fmt == "json":
        _echo_json(row)
    elif args.fmt == "csv":
        _echo_rows([row], "csv", list(row))
    else:
        label = "mu2" if args.quadratic else "mu"
        if res.degenerate:
            print(f"note: 2k+1 = {2*k+1} is a perfect square; alpha_{k} "
                  "is a rational multiple of the log of a rational")
        if not res.applicable:
            with mp.workdps(digits + 10):
                total = res.M2 + res.K + res.N
            print(f"{label}(alpha_{k}) bound not applicable at "
                  f"a={a}, b={b}: M2+K+N = {fmt_sig(total, sig)} >= 0")
        else:
            print(f"{label}(alpha_{k}) <= {fmt_sig(res.bound, sig)}   "
                  f"(a={a}, b={b})")
            print(f"  M1 = {fmt_sig(res.M1, sig)}   M2 = {fmt_sig(res.M2, sig)}   "
                  f"K = {fmt_sig(res.K, sig)}   N = {fmt_sig(res.N, sig)}")
    return 0 if res.applicable else 2


def _bound_row(res: BoundResult, sig: int) -> dict:
    return {
        "kind": res.kind, "k": res.k, "a": res.a, "b": res.b,
        "bound": float(fmt_sig(res.bound, sig)) if res.applicable else None,
        "applicable": res.applicable, "degenerate": res.degenerate,
        "M1": float(fmt_sig(res.M1, sig)),
        "M2": float(fmt_sig(res.M2, sig)),
        "K": float(fmt_sig(res.K, sig)),
        "N": float(fmt_sig(res.N, sig)),
        "digits": res.digits,
    }


def cmd_table(args) -> int:
    """Tabulate bounds over k with the table's parameter choices."""
    sig, fmt = args.print_digits, args.fmt
    rows = []
    table = headline_table(args.digits) if args.paper else [table_row(args.k, args.digits)]
    for tr in table:
        row = {
            "k": tr.k,
            "mu": float(fmt_sig(tr.mu.bound, sig)) if tr.mu.applicable else None,
            "mu2": (float(fmt_sig(tr.mu2.bound, sig))
                    if tr.mu2 is not None and tr.mu2.applicable else None),
            "a_mu": tr.mu.a, "b_mu": tr.mu.b,
            "a_mu2": tr.mu2.a if tr.mu2 is not None else None,
            "b_mu2": tr.mu2.b if tr.mu2 is not None else None,
        }
        if fmt == "text" and is_degenerate(tr.k):
            row["note"] = "degenerate: 2k+1 is a perfect square"
        rows.append(row)
    order = ["k", "mu", "mu2", "a_mu", "b_mu", "a_mu2", "b_mu2"]
    if fmt == "text" and any("note" in r for r in rows):
        order.append("note")
    _echo_rows(rows, fmt, order)
    return 0


def cmd_verify(args) -> int:
    """Run the exact integrality pipeline and report the form decay."""
    k, a, b, digits, sig = args.k, args.a, args.b, args.digits, args.print_digits
    try:
        ns = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --n list {args.n!r}") from exc
    if not ns:
        raise UsageError("empty --n list")
    degree = sum(Params(k=k, a=a, b=b, n=n).degree for n in ns)
    if degree > MAX_VERIFY_DEGREE:
        raise UsageError(
            f"the forms for --n {args.n} have total degree {degree}, above "
            f"the cap {MAX_VERIFY_DEGREE} on the sum of 3(b-2a)n")
    pred_l, pred_m = predicted_decay(k, a, b, digits)
    rows = verify_forms(k, a, b, ns, digits, decays=(pred_l, pred_m))
    out = []
    for r in rows:
        entry = {
            "n": r.n, "P": format_int(r.P), "Q": format_int(r.Q),
            "decay_linear": float(fmt_sig(r.decay_linear, sig)),
        }
        if args.quadratic:
            entry.update({"X": format_int(r.X), "Y": format_int(r.Y),
                          "Z": format_int(r.Z),
                          "decay_quadratic": float(fmt_sig(r.decay_quadratic, sig))})
        entry["integral"] = True
        out.append(entry)
    _echo_rows(out, args.fmt, list(out[0]))
    if args.fmt == "text":
        print(f"predicted decay: linear {fmt_sig(pred_l, sig)}"
              f", quadratic {fmt_sig(pred_m, sig)}")
        print(f"all integrality checks passed for n in {ns}")
    return 0


def cmd_omega(args) -> int:
    """Print the certifying set as exact fraction intervals."""
    a, b, digits, sig = args.a, args.b, args.digits, args.print_digits
    report = compute_omega(a, b)
    n1, n2, radius = n_constants(a, b, report.omega, digits)
    with mp.workdps(digits + 10):
        psi_sum = b - n1
        # the subtraction's rounding, within 2^-prec |psi_sum|, on top
        psi_radius = mp.fadd(radius, mp.ldexp(int(abs(psi_sum)) + 1, -mp.mp.prec),
                             exact=True)
    for name, value, r in (("psi sum", psi_sum, psi_radius), ("N1", n1, radius),
                           ("N2", n2, radius)):
        certify(f"Omega({a}, {b}) {name}", value, r, digits)
    measure = format_rat(report.omega.total_measure())
    intervals = [{"lo": format_rat(iv.lo), "hi": format_rat(iv.hi),
                  "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed}
                 for iv in report.omega]
    if args.fmt == "json":
        _echo_json({
            "a": a, "b": b, "intervals": intervals, "measure": measure,
            "psi_sum": float(fmt_sig(psi_sum, sig)),
            "N1": float(fmt_sig(n1, sig)), "N2": float(fmt_sig(n2, sig)),
        })
    elif args.fmt == "csv":
        _echo_rows(intervals, "csv", ["lo", "hi", "lo_closed", "hi_closed"])
    else:
        print(f"Omega({a}, {b}) = {report.omega}")
        print(f"measure = {measure}")
        print(f"psi sum = {fmt_sig(psi_sum, sig)}   "
              f"N1 = {fmt_sig(n1, sig)}   N2 = {fmt_sig(n2, sig)}")
    return 0


def cmd_search(args) -> int:
    """Grid-search (a, b) and rank the applicable bounds."""
    cells = grid_size(args.a_max, args.b_max)
    if cells > MAX_SEARCH_CELLS:
        raise UsageError(
            f"--a-max {args.a_max} --b-max {args.b_max} spans {cells} (a, b) "
            f"cells, above the cap {MAX_SEARCH_CELLS}")
    results = search_params(args.k, args.a_max, args.b_max, args.digits,
                            quadratic=args.quadratic)
    if not results:
        print("no applicable (a, b) on the grid", file=sys.stderr)
        return 2
    rows = [_bound_row(r, args.print_digits) for r in results]
    _echo_rows(rows, args.fmt, list(rows[0]))
    return 0


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parser() -> _Parser:
    """The command line; every command inherits the digit and format options."""
    shared = {"allow_abbrev": False, "formatter_class": _Formatter}
    common = _Parser(add_help=False, **shared)
    common.add_argument("--digits", type=int, default=60, help=f"working "
                        f"digits, {MIN_DIGITS} to {MAX_DIGITS} (default %(default)s)")
    common.add_argument("--print-digits", type=int, default=6, help="digits "
                        "shown, 1 to --digits - 5 (default %(default)s)")
    common.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                        default="text", help="output format (default %(default)s)")

    parser = _Parser(prog="irrbounds", description=(
        "Upper bounds on the irrationality and non-quadraticity measures of "
        "alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1))."), **shared)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)

    def command(name: str, run, *int_options: str,
                quadratic: str | None = None) -> _Parser:
        sub = commands.add_parser(name, parents=[common], help=run.__doc__,
                                  description=run.__doc__, **shared)
        sub.set_defaults(run=run)
        for option in int_options:
            sub.add_argument(f"--{option}", type=int, required=True)
        if quadratic:
            sub.add_argument("--quadratic", action="store_true", help=quadratic)
        return sub

    command("bound", cmd_bound, "k", "a", "b",
            quadratic="non-quadraticity bound instead of irrationality")
    table = command("table", cmd_table).add_mutually_exclusive_group(required=True)
    table.add_argument("--paper", action="store_true",
                       help="the headline table (k = 3, 5, 6, ..., 12)")
    table.add_argument("--k", type=int,
                       help="one row, with the default parameter choices")
    verify = command("verify", cmd_verify, "k", "a", "b",
                     quadratic="also show the quadratic-form columns X, Y, Z")
    verify.add_argument("--n", required=True,
                        help="comma-separated odd n values, e.g. 1,3,5")
    command("omega", cmd_omega, "a", "b")
    search = command("search", cmd_search, "k", quadratic="rank the mu2 bounds")
    search.add_argument("--a-max", type=int, default=2, help="(default %(default)s)")
    search.add_argument("--b-max", type=int, default=15, help="(default %(default)s)")
    return parser


# exception -> exit code and stderr prefix; the first match wins
EXIT_CODES = (
    (UsageError, 1, "Error: "),
    (IntegralityError, 3, "integrality failure: "),
    (NonApplicableError, 2, "not applicable: "),
    (PrecisionError, 4, "precision failure: "),
    (CertificateError, 4, "certificate failure: "),
    (ValueError, 1, "error: "),  # DomainError, SieveCapacityError
)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        args = _parser().parse_args(argv)
        _check_digits(args)
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:
        for types, code, prefix in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
