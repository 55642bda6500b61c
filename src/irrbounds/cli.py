"""Command-line front end.

Commands: bound, table, verify, omega, search.  Formats: text (aligned
columns), csv, json.  Exit codes: 0 success, 1 usage/validation error,
2 inapplicable parameters, 3 integrality verification failure, 4 precision
failure (a precision ladder or a root certificate did not hold, or the
enclosure of a form in alpha_k was still too wide after its last pass).
--print-digits above --digits - 5, more digits than the ladder checks, is a
usage error (exit 1), refused before any work.

All numeric output is fixed-format at a requested number of significant
digits (6 by default, the table precision), rendered from all the bits of
each value's own precision, so identical invocations are byte-identical and
diffable.  Exact rationals are serialized as "num/den" strings, never
floats.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import mpmath as mp

from .errors import (DomainError, IntegralityError, NonApplicableError,
                     PrecisionError, SieveCapacityError)
from .exact_arith import format_int, format_rat
from .forms import Params
from .measures import (BoundResult, grid_size, headline_table, is_degenerate,
                       mu2_bound, mu_bound, predicted_decay, search_params,
                       table_row, verify_forms)
from .omega import compute_omega

FORMATS = click.Choice(["text", "csv", "json"])
# the working-precision floor of omega.n_constants and a cap, checked at
# parse time.  Each bound computes its constants at digits and 2*digits:
# per process, bound --k 6 --a 1 --b 7 takes 0.4-0.5 s at 300 digits and
# 0.6 s at 500, mu_bound(6, 1, 7, 1000) 0.8-0.9 s, and table --paper
# 1.7-1.9 s at 500, on a shared 2-core machine.
MAX_DIGITS = 500
DIGITS = click.IntRange(min=30, max=MAX_DIGITS)
PRINT_DIGITS = click.IntRange(min=1)
# largest total form degree, the sum of d = 3(b-2a)n over the --n list, that
# verify accepts.  The exact forms (eval_UVW) cost about d^2.3: 0.1 s at
# d = 1023, 1.1 s at d = 3333, 5.7 s at d = 6633 and 17 s at d = 9999 on a
# shared 2-core machine, so the cap stops a run of well under a minute.  As
# b > 4a, it also keeps each prime sieve below b*n < 2d/3.
MAX_VERIFY_DEGREE = 10_000
# largest number of (a, b) cells that search accepts.  With --a-max 1 the
# cap admits b up to 203, and that grid of 100 cells took 23 s at the
# default digits on the same machine.
MAX_SEARCH_CELLS = 100


def fmt_sig(x, sig: int = 6) -> str:
    """Fixed rendering of an mpf at ``sig`` significant digits, from all the
    bits of its own precision."""
    if x is None:
        return ""
    if mp.isnan(x) or mp.isinf(x):
        return str(x)
    return mp.nstr(x, sig, strip_zeros=False)


def _check_print_digits(print_digits: int, digits: int) -> None:
    """Refuse, before any work, to print digits the precision ladder does
    not check: it compares each value at digits and 2*digits to digits-5
    places."""
    if print_digits > digits - 5:
        raise click.ClickException(
            f"--print-digits {print_digits} is above --digits {digits} - 5 = "
            f"{digits - 5}, the digits the precision ladder checks")


def _echo_rows(rows: list[dict], fmt: str, order: list[str]) -> None:
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=order, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: ("" if r.get(k) is None else r[k]) for k in order})
        click.echo(buf.getvalue(), nl=False)
    else:
        widths = {c: max(len(c), *(len(str(r.get(c, "") if r.get(c) is not None else ""))
                                   for r in rows)) for c in order}
        click.echo("  ".join(c.rjust(widths[c]) for c in order))
        for r in rows:
            click.echo("  ".join(
                str(r.get(c, "") if r.get(c) is not None else "").rjust(widths[c])
                for c in order))


@click.group()
def cli() -> None:
    """Upper bounds on the irrationality and non-quadraticity measures of
    alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1))."""


@cli.command("bound")
@click.option("--k", type=int, required=True, help="Index of alpha_k.")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--quadratic", is_flag=True,
              help="Non-quadraticity bound instead of irrationality.")
@click.option("--digits", type=DIGITS, default=60, show_default=True,
              help="Working precision (decimal digits).")
@click.option("--print-digits", type=PRINT_DIGITS, default=6, show_default=True,
              help="Significant digits shown.")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_bound(k, a, b, quadratic, digits, print_digits, fmt):
    """Compute one measure bound for alpha_k with parameters (a, b)."""
    _check_print_digits(print_digits, digits)
    res = (mu2_bound if quadratic else mu_bound)(k, a, b, digits)
    row = _bound_row(res, print_digits)
    if fmt == "json":
        click.echo(json.dumps(row, indent=2))
    elif fmt == "csv":
        _echo_rows([row], "csv", list(row))
    else:
        label = "mu2" if quadratic else "mu"
        if res.degenerate:
            click.echo(f"note: 2k+1 = {2*k+1} is a perfect square; alpha_{k} "
                       "is a rational multiple of the log of a rational")
        if not res.applicable:
            with mp.workdps(digits + 10):
                total = res.M2 + res.K + res.N
            click.echo(f"{label}(alpha_{k}) bound not applicable at "
                       f"a={a}, b={b}: M2+K+N = {fmt_sig(total, print_digits)} >= 0")
        else:
            click.echo(f"{label}(alpha_{k}) <= {fmt_sig(res.bound, print_digits)}   "
                       f"(a={a}, b={b})")
            click.echo(f"  M1 = {fmt_sig(res.M1, print_digits)}   "
                       f"M2 = {fmt_sig(res.M2, print_digits)}   "
                       f"K = {fmt_sig(res.K, print_digits)}   "
                       f"N = {fmt_sig(res.N, print_digits)}")
    if not res.applicable:
        raise SystemExit(2)


def _bound_row(res: BoundResult, sig: int) -> dict:
    return {
        "kind": res.kind, "k": res.k, "a": res.a, "b": res.b,
        "bound": float(fmt_sig(res.bound, sig)) if res.applicable else None,
        "applicable": res.applicable,
        "degenerate": res.degenerate,
        "M1": float(fmt_sig(res.M1, sig)),
        "M2": float(fmt_sig(res.M2, sig)),
        "K": float(fmt_sig(res.K, sig)),
        "N": float(fmt_sig(res.N, sig)),
        "digits": res.digits,
    }


@cli.command("table")
@click.option("--paper", is_flag=True,
              help="Reproduce the headline table (k = 3, 5, 6, ..., 12).")
@click.option("--k", "single_k", type=int, default=None,
              help="Single-k row with the default parameter choices.")
@click.option("--digits", type=DIGITS, default=60, show_default=True)
@click.option("--print-digits", type=PRINT_DIGITS, default=6, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_table(paper, single_k, digits, print_digits, fmt):
    """Tabulate bounds over k with the table's parameter choices."""
    _check_print_digits(print_digits, digits)
    if paper == (single_k is not None):
        raise click.UsageError("pass exactly one of --paper or --k")
    rows = []
    table = headline_table(digits) if paper else [table_row(single_k, digits)]
    for tr in table:
        row = {
            "k": tr.k,
            "mu": float(fmt_sig(tr.mu.bound, print_digits)) if tr.mu.applicable else None,
            "mu2": (float(fmt_sig(tr.mu2.bound, print_digits))
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


@cli.command("verify")
@click.option("--k", type=int, required=True)
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--n", "n_list", type=str, required=True,
              help="Comma-separated odd n values, e.g. 1,3,5.")
@click.option("--quadratic", is_flag=True,
              help="Also show the quadratic-form columns X, Y, Z.")
@click.option("--digits", type=DIGITS, default=60, show_default=True)
@click.option("--print-digits", type=PRINT_DIGITS, default=6, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_verify(k, a, b, n_list, quadratic, digits, print_digits, fmt):
    """Run the exact integrality pipeline and report the form decay."""
    _check_print_digits(print_digits, digits)
    try:
        ns = [int(s) for s in n_list.split(",") if s.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --n list {n_list!r}") from exc
    if not ns:
        raise click.UsageError("empty --n list")
    degree = sum(Params(k=k, a=a, b=b, n=n).degree for n in ns)
    if degree > MAX_VERIFY_DEGREE:
        raise click.ClickException(
            f"the forms for --n {n_list} have total degree {degree}, above "
            f"the cap {MAX_VERIFY_DEGREE} on the sum of 3(b-2a)n")
    rows = verify_forms(k, a, b, ns, digits)
    pred_l, pred_m = predicted_decay(k, a, b, digits)
    out = []
    for r in rows:
        entry = {
            "n": r.n, "P": format_int(r.P), "Q": format_int(r.Q),
            "decay_linear": float(fmt_sig(r.decay_linear, print_digits)),
        }
        if quadratic:
            entry.update({"X": format_int(r.X), "Y": format_int(r.Y),
                          "Z": format_int(r.Z),
                          "decay_quadratic": float(fmt_sig(r.decay_quadratic, print_digits))})
        entry["integral"] = True
        out.append(entry)
    order = list(out[0])
    _echo_rows(out, fmt, order)
    if fmt == "text":
        click.echo(f"predicted decay: linear {fmt_sig(pred_l, print_digits)}"
                   f", quadratic {fmt_sig(pred_m, print_digits)}")
        click.echo(f"all integrality checks passed for n in {ns}")


@cli.command("omega")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--digits", type=DIGITS, default=60, show_default=True)
@click.option("--print-digits", type=PRINT_DIGITS, default=6, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_omega(a, b, digits, print_digits, fmt):
    """Print the certifying set as exact fraction intervals."""
    _check_print_digits(print_digits, digits)
    from .omega import n_constants

    report = compute_omega(a, b)
    n1, n2 = n_constants(a, b, report.omega, digits)
    with mp.workdps(digits + 10):
        psi_sum = +(b - n1)  # the digamma-difference total over the components
    if fmt == "json":
        payload = {
            "a": a, "b": b,
            "intervals": [{"lo": format_rat(iv.lo), "hi": format_rat(iv.hi),
                           "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed}
                          for iv in report.omega],
            "measure": format_rat(report.omega.total_measure()),
            "psi_sum": float(fmt_sig(psi_sum, print_digits)),
            "N1": float(fmt_sig(n1, print_digits)),
            "N2": float(fmt_sig(n2, print_digits)),
        }
        click.echo(json.dumps(payload, indent=2))
    elif fmt == "csv":
        rows = [{"lo": format_rat(iv.lo), "hi": format_rat(iv.hi),
                 "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed}
                for iv in report.omega]
        _echo_rows(rows, "csv", ["lo", "hi", "lo_closed", "hi_closed"])
    else:
        click.echo(f"Omega({a}, {b}) = {report.omega}")
        click.echo(f"measure = {format_rat(report.omega.total_measure())}")
        click.echo(f"psi sum = {fmt_sig(psi_sum, print_digits)}   "
                   f"N1 = {fmt_sig(n1, print_digits)}   N2 = {fmt_sig(n2, print_digits)}")


@cli.command("search")
@click.option("--k", type=int, required=True)
@click.option("--a-max", type=int, default=2, show_default=True)
@click.option("--b-max", type=int, default=15, show_default=True)
@click.option("--quadratic", is_flag=True)
@click.option("--digits", type=DIGITS, default=60, show_default=True)
@click.option("--print-digits", type=PRINT_DIGITS, default=6, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def cmd_search(k, a_max, b_max, quadratic, digits, print_digits, fmt):
    """Grid-search (a, b) and rank the applicable bounds."""
    _check_print_digits(print_digits, digits)
    cells = grid_size(a_max, b_max)
    if cells > MAX_SEARCH_CELLS:
        raise click.ClickException(
            f"--a-max {a_max} --b-max {b_max} spans {cells} (a, b) cells, "
            f"above the cap {MAX_SEARCH_CELLS}")
    results = search_params(k, a_max, b_max, digits, quadratic=quadratic)
    if not results:
        click.echo("no applicable (a, b) on the grid", err=True)
        raise SystemExit(2)
    rows = [_bound_row(r, print_digits) for r in results]
    order = ["kind", "k", "a", "b", "bound", "applicable", "degenerate",
             "M1", "M2", "K", "N", "digits"]
    _echo_rows(rows, fmt, order)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="irrbounds", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except IntegralityError as exc:
        click.echo(f"integrality failure: {exc}", err=True)
        return 3
    except NonApplicableError as exc:
        click.echo(f"not applicable: {exc}", err=True)
        return 2
    except PrecisionError as exc:
        click.echo(f"precision failure: {exc}", err=True)
        return 4
    except (ValueError, DomainError, SieveCapacityError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
