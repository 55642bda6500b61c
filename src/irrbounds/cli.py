"""Command-line front end: one option table (:data:`COMMANDS`) and a small
parser that reads it.

Commands: bound, table, verify, omega, search.  Formats: text (aligned
columns), csv, json.  Exit codes (:data:`EXIT_CODES`): 0 success, 1 usage
or validation error (or a non-finite json number), 2 inapplicable
parameters, 3 integrality failure, 4 a certificate did not hold (a radius
too wide for its digits or for a sign, the saddle root's or Omega's
certificate, a form's alpha_k enclosure), 141 stdout closed before all of
it was written (``| head``), as for SIGPIPE, with nothing on stderr.
Usage errors, an option outside its range in the table (--k, --a, --b
below 1 among them), --print-digits above --digits - 5 and --b above MAX_B,
are refused before any work with one stderr line, ``Error: <message>``,
and no stdout.  The parser and ``--help`` load no module (no argparse,
gettext or locale), and each command imports its own layers on entry,
past its argv checks, so ``--help`` and a refused command line are
answered before any of the bound engine (``fixed``, ``asymptotics``,
``omega``, ``measures``, ``forms``) is loaded.

All numeric output is fixed-format at a requested number of significant
digits (6 by default, the table precision), rendered from all the bits of
each value's own precision (``Ball.to_str``; json and csv through
``_number``), so identical invocations are byte-identical and diffable.
An absent value, the M1, M2, K and N of a cell without a complex saddle,
is null in json and an empty field in csv.  Exact rationals are
serialized as "num/den" strings, never floats.
"""

from __future__ import annotations

import io
import os
import sys

from .errors import (CertificateError, IntegralityError, NonApplicableError,
                     PrecisionError)

# the working-precision floor of omega.n_constants and a cap, checked before
# any work; Euler's constant is held for psi up to about 560 digits.  Per
# process on a shared 2-core machine, bound --k 6 --a 1 --b 7 takes
# 0.12-0.15 s at 500 digits and table --paper 0.20-0.22 s.
MIN_DIGITS = 30
MAX_DIGITS = 500
# largest total form degree, the sum of d = 3(b-2a)n over the --n list,
# times the larger of 20 and the bit length of k, that verify accepts.  So
# the total degree is at most 10,000: eval_UVW costs about d^2.1, 0.03 s at
# d = 1023 and 3.1 s at d = 9999 in-process on a shared 2-core machine, and
# as b > 4a each prime sieve stays below b*n < 2d/3.  Past 20 bits the
# product caps the forms, as bits(P) grows by about d/3 per bit of k and k
# is otherwise uncapped.  Per process on the same machine,
# verify --a 1 --b 13 --quadratic --format json gives bits(P) and time
#   d = 1023 (--n 31), k = 8 / 10^20 / 10^51 / 10^100 / 10^300:
#     2,588 / 24,208 / 59,324 / 114,830 / 341,385 bits, 0.16 / 0.36 / 1.0
#     / 3.0 / 16 s
#   d = 3333 (--n 101), k = 8 / 10^20 / 10^51:
#     8,357 / 78,794 / 193,205 bits, 0.41 / 2.9 / 9.1 s
#   d = 9999 (--n 303), k = 8 / 2^17 - 1 / 10^12:
#     25,016 / 74,882 / 147,752 bits, 3.6 / 8.3 / 17 s
# with a peak of 16-17 MB, so at a fixed product the largest d costs most.
# At the cap, d = 1023 / 3333 / 9999 admit k of up to 195 / 60 / 20 bits
# and take 1.2 / 2.6 / 8.7 s (bits(P) 68,388 / 72,752 / 84,881), at most
# 2.5 times the 3.6 s of d = 9999 at k = 8; k = 10^51 at n = 31 is
# 173,910.
MAX_VERIFY_DEGREE_BITS = 200_000
# largest number of (a, b) cells that search accepts.  With --a-max 1 the
# cap admits b up to 203, and that grid of 100 cells takes 0.79-0.90 s per
# process at the default digits on the same machine, and 4.5-4.6 s with a
# 29 MB peak at --digits 500.
MAX_SEARCH_CELLS = 100
# largest b that bound, omega and verify accept: the psi sums of N1 and N2
# cost O(b^2) (Omega's walk is O(b), 0.02 s at b = 1001).  Per process on
# the same machine (two runs), bound --k 6 --a 1 --b B takes 0.09 / 0.13-0.15
# / 0.27-0.31 / 0.35-0.36 / 1.2-1.3 s at B = 201 / 401 / 801 / 1001 / 2001,
# and 0.24-0.25 / 0.68 / 3.0-3.2 / 3.5-4.2 / 11-13 s with an 18-21 MB peak
# at --digits 500, so b = 2001 would triple the slowest bound.
MAX_B = 1001


class UsageError(Exception):
    """A command line refused before any work (exit 1)."""


def _number(x, sig: int):
    """A ball's json and csv number: its centre at ``sig`` significant
    digits, from all its bits, as a float; None, an absent value, stays
    None (json null, an empty csv field)."""
    return None if x is None else float(x.to_str(sig))


def _check_limits(args: Args) -> None:
    """Refuse, before any work, what no one option's range covers: printed
    digits the enclosures do not certify (each published value is accepted
    only with a radius of at most 10^-(digits-5) of it), and b above
    MAX_B."""
    if args.print_digits > args.digits - 5:
        raise UsageError(
            f"--print-digits {args.print_digits} is above --digits {args.digits}"
            f" - 5 = {args.digits - 5}, the digits the enclosures certify")
    if getattr(args, "b", 0) > MAX_B:
        raise UsageError(f"--b {args.b} is above the cap {MAX_B}")


# json and csv are imported where they format, so a process loads at most
# the one its --format names
def _echo_json(value) -> None:
    import json

    # strict json: a nan or an inf raises ValueError (exit 1), never prints
    print(json.dumps(value, indent=2, allow_nan=False))


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
    from .asymptotics import NO_COMPLEX_SADDLE
    from .measures import mu2_bound, mu_bound

    k, a, b, digits, sig = args.k, args.a, args.b, args.digits, args.print_digits
    res = (mu2_bound if args.quadratic else mu_bound)(k, a, b, digits)
    row = _bound_row(res, sig)
    if args.format == "json":
        _echo_json(row)
    elif args.format == "csv":
        _echo_rows([row], "csv", list(row))
    else:
        label = "mu2" if args.quadratic else "mu"
        if res.degenerate:
            print(f"note: 2k+1 = {2*k+1} is a perfect square; alpha_{k} "
                  "is a rational multiple of the log of a rational")
        if not res.applicable:
            reason = NO_COMPLEX_SADDLE if res.M2 is None else (
                f"M2+K+N = {(res.M2 + res.K + res.N).to_str(sig)} >= 0")
            print(f"{label}(alpha_{k}) bound not applicable at "
                  f"a={a}, b={b}: {reason}")
        else:
            print(f"{label}(alpha_{k}) <= {res.bound.to_str(sig)}   "
                  f"(a={a}, b={b})")
            print(f"  M1 = {res.M1.to_str(sig)}   M2 = {res.M2.to_str(sig)}   "
                  f"K = {res.K.to_str(sig)}   N = {res.N.to_str(sig)}")
    return 0 if res.applicable else 2


def _bound_row(res: BoundResult, sig: int) -> dict:
    return {
        "kind": res.kind, "k": res.k, "a": res.a, "b": res.b,
        "bound": _number(res.bound, sig),
        "applicable": res.applicable, "degenerate": res.degenerate,
        **{name: _number(getattr(res, name), sig)
           for name in ("M1", "M2", "K", "N")},
        "digits": res.digits,
    }


def cmd_table(args) -> int:
    """Tabulate bounds over k with the table's parameter choices."""
    from .measures import headline_table, is_degenerate, table_row

    sig, fmt = args.print_digits, args.format
    rows = []
    table = headline_table(args.digits) if args.paper else [table_row(args.k, args.digits)]
    for tr in table:
        row = {"k": tr.k, "mu": _number(tr.mu.bound, sig), "mu2": None,
               "a_mu": tr.mu.a, "b_mu": tr.mu.b, "a_mu2": None, "b_mu2": None}
        if tr.mu2 is not None:
            row.update(mu2=_number(tr.mu2.bound, sig), a_mu2=tr.mu2.a,
                       b_mu2=tr.mu2.b)
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
    from .exact_arith import Params, format_int

    k, a, b, digits, sig = args.k, args.a, args.b, args.digits, args.print_digits
    try:
        ns = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --n list {args.n!r}") from exc
    if not ns:
        raise UsageError("empty --n list")
    degree = sum(Params(k=k, a=a, b=b, n=n).degree for n in ns)
    if degree * max(20, k.bit_length()) > MAX_VERIFY_DEGREE_BITS:
        raise UsageError(
            f"the forms for --n {args.n} have total degree {degree} and --k "
            f"has {k.bit_length()} bits: the degree times the larger of 20 and "
            f"the bits is above the cap {MAX_VERIFY_DEGREE_BITS}")
    # forms, the largest module, is compiled first, while the heap is
    # smallest: that keeps the process's peak down
    from .forms import verify_forms

    if args.format == "text":  # only text prints the decay, and so loads measures
        from .measures import predicted_decay

        pred_l, pred_m = predicted_decay(k, a, b, digits)
    rows = verify_forms(k, a, b, ns, digits)
    out = []
    for r in rows:
        entry = {
            "n": r.n, "P": format_int(r.P), "Q": format_int(r.Q),
            "decay_linear": _number(r.decay_linear, sig),
        }
        if args.quadratic:
            entry.update({"X": format_int(r.X), "Y": format_int(r.Y),
                          "Z": format_int(r.Z),
                          "decay_quadratic": _number(r.decay_quadratic, sig)})
        entry["integral"] = True
        out.append(entry)
    _echo_rows(out, args.format, list(out[0]))
    if args.format == "text":
        print(f"predicted decay: linear {pred_l.to_str(sig)}"
              f", quadratic {pred_m.to_str(sig)}")
        print(f"all integrality checks passed for n in {ns}")
    return 0


def cmd_omega(args) -> int:
    """Print the certifying set as exact fraction intervals."""
    from .exact_arith import format_pair
    from .fixed import certify
    from .omega import compute_omega, n_constants

    a, b, digits, sig = args.a, args.b, args.digits, args.print_digits
    runs = compute_omega(a, b)
    n1, n2 = n_constants(a, b, runs, digits)
    psi_sum = b - n1
    for name, value in (("psi sum", psi_sum), ("N1", n1), ("N2", n2)):
        certify(f"Omega({a}, {b}) {name}", value, digits)
    num, den = 0, 1  # the measure, the sum of hi - lo over the runs
    for (ln, ld), (hn, hd), _, _ in runs:
        num, den = num * ld * hd + (hn * ld - ln * hd) * den, den * ld * hd
    measure = format_pair(num, den)
    intervals = [{"lo": format_pair(*lo), "hi": format_pair(*hi),
                  "lo_closed": lo_closed, "hi_closed": hi_closed}
                 for lo, hi, lo_closed, hi_closed in runs]
    if args.format == "json":
        _echo_json({
            "a": a, "b": b, "intervals": intervals, "measure": measure,
            "psi_sum": _number(psi_sum, sig),
            "N1": _number(n1, sig), "N2": _number(n2, sig),
        })
    elif args.format == "csv":
        _echo_rows(intervals, "csv", ["lo", "hi", "lo_closed", "hi_closed"])
    else:
        # a point as {x}, an interval between its closure brackets
        shown = ["{%s}" % iv["lo"] if iv["lo"] == iv["hi"] else "%s%s, %s%s" % (
            "(["[iv["lo_closed"]], iv["lo"], iv["hi"], ")]"[iv["hi_closed"]])
            for iv in intervals]
        print(f"Omega({a}, {b}) = {' u '.join(shown) or '{}'}")
        print(f"measure = {measure}")
        print(f"psi sum = {psi_sum.to_str(sig)}   "
              f"N1 = {n1.to_str(sig)}   N2 = {n2.to_str(sig)}")
    return 0


def cmd_search(args) -> int:
    """Grid-search (a, b) and rank the applicable bounds."""
    from .exact_arith import grid_size

    cells = grid_size(args.a_max, args.b_max)
    if cells > MAX_SEARCH_CELLS:
        raise UsageError(
            f"--a-max {args.a_max} --b-max {args.b_max} spans {cells} (a, b) "
            f"cells, above the cap {MAX_SEARCH_CELLS}")
    results = []
    if cells:  # an empty grid is answered before the engine loads
        from .measures import search_params

        results = search_params(args.k, args.a_max, args.b_max, args.digits,
                                quadratic=args.quadratic)
    if not results:
        print("no applicable (a, b) on the grid", file=sys.stderr)
        return 2
    rows = [_bound_row(r, args.print_digits) for r in results]
    _echo_rows(rows, args.format, list(rows[0]))
    return 0


class Option:
    """One row of the option table: ``--name``, its type (``int``, ``str``,
    or None for a flag, which takes no value and defaults to False), its
    default, whether it is required, its choices and its range."""

    def __init__(self, name: str, kind=int, default=None, *, required=False,
                 choices=(), low=None, high=None, help=""):
        self.name, self.kind, self.required = name, kind, required
        self.default = False if kind is None else default
        self.choices, self.low, self.high, self.help = choices, low, high, help
        self.dest = name[2:].replace("-", "_")

    def invocation(self) -> str:
        """The option as its help shows it: ``--k K``, ``--format
        {text,csv,json}``, ``--quadratic``."""
        if self.kind is None:
            return self.name
        shown = "{%s}" % ",".join(self.choices) if self.choices else self.dest.upper()
        return f"{self.name} {shown}"


class Args:
    """A parsed command line: ``run``, the command's function, and one
    attribute per option."""

    def __init__(self, **values):
        vars(self).update(values)


def _positive(*names: str) -> tuple[Option, ...]:
    return tuple(Option(name, required=True, low=1) for name in names)


# every command takes these, ahead of its own
COMMON = (
    Option("--digits", default=60, low=MIN_DIGITS, high=MAX_DIGITS,
           help=f"working digits, {MIN_DIGITS} to {MAX_DIGITS}"),
    Option("--print-digits", default=6, low=1,
           help="digits shown, 1 to --digits - 5"),
    Option("--format", str, "text", choices=("text", "csv", "json"),
           help="output format"),
)
# command -> (its function, its own options, the options of which the
# command line gives exactly one)
COMMANDS = {
    "bound": (cmd_bound, (
        *_positive("--k", "--a", "--b"),
        Option("--quadratic", None,
               help="non-quadraticity bound instead of irrationality"),
    ), ()),
    "table": (cmd_table, (
        Option("--paper", None, help="the headline table (k = 3, 5, 6, ..., 12)"),
        Option("--k", low=1, help="one row, with the default parameter choices"),
    ), ("--paper", "--k")),
    "verify": (cmd_verify, (
        *_positive("--k", "--a", "--b"),
        Option("--quadratic", None,
               help="also show the quadratic-form columns X, Y, Z"),
        Option("--n", str, required=True,
               help="comma-separated odd n values, e.g. 1,3,5"),
    ), ()),
    "omega": (cmd_omega, _positive("--a", "--b"), ()),
    "search": (cmd_search, (
        *_positive("--k"),
        Option("--quadratic", None, help="rank the mu2 bounds"),
        Option("--a-max", default=2), Option("--b-max", default=15),
    ), ()),
}
DESCRIPTION = """\
Upper bounds on the irrationality and non-quadraticity measures of
alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1))."""
HELP = ("-h", "--help")


def _is_value(token: str) -> bool:
    """Whether a token can be an option's value: as in argparse, any token
    but one that looks like an option.  A negative number (-1, -.5, -1.5)
    is a value, so that ``--k -1`` reaches the range check."""
    if token[:1] != "-" or token == "-" or " " in token:
        return True
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _parse(argv: list[str]) -> Args | str:
    """The command line read against :data:`COMMANDS`: its Args, or the help
    text that ``-h`` or ``--help`` asks for.  Options come in any order, as
    ``--opt value`` or ``--opt=value``, and the last of a repeated option
    wins.  Refusals raise UsageError with argparse's messages: first a
    value of the wrong type or choice, or one of two exclusive options, in
    argv order; then a missing option; then unknown or abbreviated options
    and stray words; then each option's range, in table order."""
    unknown = []
    for at, token in enumerate(argv):
        if token in HELP:
            return _help()
        if not token.startswith("-"):
            break
        unknown.append(token)
    else:
        raise UsageError("the following arguments are required: COMMAND")
    if token not in COMMANDS:
        raise UsageError(f"argument COMMAND: invalid choice: {token!r} "
                         f"(choose from {_choices(COMMANDS)})")
    command = token
    run, own, one_of = COMMANDS[command]
    options = {option.name: option for option in (*COMMON, *own)}
    values = {option.dest: option.default for option in options.values()}
    given = set()
    tokens = iter(argv[at + 1:])
    for token in tokens:
        if token in HELP:
            return _help(command)
        name, equals, value = token.partition("=")
        option = options.get(name) if token.startswith("--") else None
        if option is None:
            unknown.append(token)
            continue
        if option.kind is None:
            if equals:
                raise UsageError(f"argument {name}: ignored explicit argument "
                                 f"{value!r}")
            value = True
        elif not equals:
            value = next(tokens, "--")  # "--": no token is left to take
            if not _is_value(value):
                raise UsageError(f"argument {name}: expected one argument")
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid int value: "
                                 f"{value!r}") from None
        if option.choices and value not in option.choices:
            raise UsageError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {_choices(option.choices)})")
        others = given.intersection(one_of) - {name} if name in one_of else ()
        if others:
            raise UsageError(f"argument {name}: not allowed with argument "
                             f"{others.pop()}")
        given.add(name)
        values[option.dest] = value
    missing = [option.name for option in own
               if option.required and option.name not in given]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if one_of and not given & set(one_of):
        raise UsageError(f"one of the arguments {' '.join(one_of)} is required")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    for option in options.values():
        value, low, high = values[option.dest], option.low, option.high
        if low is not None and value is not None and (
                value < low or high is not None and value > high):
            span = f"x>={low}" if high is None else f"{low}<=x<={high}"
            raise UsageError(f"Invalid value for '{option.name}': {value} is "
                             f"not in the range {span}.")
    return Args(run=run, **values)


def _help(command: str | None = None) -> str:
    """The help of the whole command line, or of one command: the option
    table as it stands, one row per command or option; an option's row
    ends with its default, "(required)" or the exclusive pair it is in."""
    if command is None:
        head = (f"COMMAND [options]\n\n{DESCRIPTION}\n\n"
                "commands (irrbounds COMMAND --help lists its options):")
        rows = [(name, run.__doc__) for name, (run, _, _) in COMMANDS.items()]
    else:
        run, own, one_of = COMMANDS[command]
        head = f"{command} [options]\n\n{run.__doc__}\n\noptions:"
        rows = [("-h, --help", "show this help message and exit")]
        for option in (*COMMON, *own):
            if option.name in one_of:
                note = f"(one of {', '.join(one_of)})"
            elif option.required:
                note = "(required)"
            elif option.kind and option.default is not None:
                note = f"(default {option.default})"
            else:
                note = ""
            rows.append((option.invocation(), f"{option.help} {note}".strip()))
    return "".join([f"Usage: irrbounds {head}\n",
                    *(f"  {lead}  {text}\n" for lead, text in rows)])


# exception -> exit code and stderr prefix; the first match wins.  main
# turns a closed stdout (BrokenPipeError) into 141, with nothing on stderr
EXIT_CODES = (
    (UsageError, 1, "Error: "),
    (IntegralityError, 3, "integrality failure: "),
    (NonApplicableError, 2, "not applicable: "),
    (PrecisionError, 4, "precision failure: "),
    (CertificateError, 4, "certificate failure: "),
    # DomainError, SieveCapacityError, json's refusal of a nan
    (ValueError, 1, "error: "),
)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help
            sys.stdout.write(args)
            code = 0
        else:
            _check_limits(args)
            code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left has nowhere to go, so stdout
        # points at devnull, where the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:
        for types, code, prefix in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
