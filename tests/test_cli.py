import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irrbounds import asymptotics, omega
from irrbounds.cli import MAX_B, MAX_DIGITS, MAX_SEARCH_CELLS, fmt_sig, main
from irrbounds.errors import IntegralityError, PrecisionError
from irrbounds.fixed import Ball
from pinned_digits import MU2_8_1_13, MU_6_1_7


# the benchmark's recorded stdout, read here and never rewritten
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_text(capsys):
    code, out, _ = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7")
    assert code == 0
    assert "3.51433" in out


def test_bound_quadratic(capsys):
    code, out, _ = run(capsys, "bound", "--k", "6", "--a", "2", "--b", "23",
                       "--quadratic")
    assert code == 0
    assert "12.4084" in out


def test_bound_invalid_params(capsys):
    code, _, err = run(capsys, "bound", "--k", "1", "--a", "1", "--b", "3")
    assert code == 1
    assert "b > 4a" in err


def test_bound_inapplicable_exit_2(capsys):
    code, out, _ = run(capsys, "bound", "--k", "3", "--a", "1", "--b", "7",
                       "--quadratic")
    assert code == 2
    assert "not applicable" in out


def test_bound_json_parses(capsys):
    code, out, _ = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 3.51433
    assert data["applicable"] is True


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_paper_csv(capsys):
    code, out, _ = run(capsys, "table", "--paper", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header + 9 rows
    k10 = next(l for l in lines if l.startswith("10,"))
    assert "3.45356" in k10 and "10.0339" in k10


def test_table_degenerate_flag(capsys):
    code, out, _ = run(capsys, "table", "--k", "4")
    assert code == 0
    assert "degenerate: 2k+1 is a perfect square" in out


def test_table_paper_json_schema(capsys):
    code, out, _ = run(capsys, "table", "--paper", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 9
    keys = {"k", "mu", "mu2", "a_mu", "b_mu", "a_mu2", "b_mu2"}
    for row in rows:
        assert keys <= set(row)
    assert rows[0]["mu2"] is None  # k = 3 has no quadratic parameters


def test_table_usage_error(capsys):
    code, _, err = run(capsys, "table")
    assert code == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "1,3,5")
    assert code == 0
    body = [l for l in out.splitlines() if l and l.lstrip()[0].isdigit()]
    assert len(body) == 3
    assert "all integrality checks passed" in out


def test_verify_even_n_rejected(capsys):
    code, _, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "2")
    assert code == 1
    assert "odd" in err


def test_verify_quadratic_columns(capsys):
    code, out, _ = run(capsys, "verify", "--k", "8", "--a", "1", "--b", "13",
                       "--n", "1,3", "--quadratic", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    for col in ("X", "Y", "Z", "decay_quadratic"):
        assert col in header.split(",")


def test_verify_integrality_failure_exit_3(capsys, monkeypatch):
    import irrbounds.forms as forms_mod

    def boom(*args, **kwargs):
        raise IntegralityError("R*U(x_k)", "7/3")

    # cmd_verify imports verify_forms from forms when it runs
    monkeypatch.setattr(forms_mod, "verify_forms", boom)
    code, _, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "1")
    assert code == 3
    assert "R*U(x_k)" in err


def test_integrality_error_renders_past_the_str_digit_limit():
    exc = IntegralityError("R*U(x_k)", Fraction(7**6000, 3))
    assert str(exc).startswith("R*U(x_k) is not an integer: 3874")
    assert str(exc).endswith("/3")


def test_huge_integrality_failure_exit_3(capsys, monkeypatch):
    import irrbounds.forms as forms_mod

    def boom(*args, **kwargs):
        raise IntegralityError("R*U(x_k)", Fraction(7**6000, 3))

    monkeypatch.setattr(forms_mod, "verify_forms", boom)
    code, _, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "1")
    assert code == 3
    assert err.startswith("integrality failure: R*U(x_k) is not an integer: ")
    assert len(err.splitlines()) == 1


def test_inexact_pole_sum_block_exit_3(capsys, monkeypatch):
    # with blocks of 4, the order-0 block at s0 = 20 holds the first nonzero
    # values A(-m), m > bn = 21; one corrupted coefficient there, the
    # rational part of the beta_4 that advances g past the block, leaves
    # the block's division by eps_4 with a remainder, which must end the run
    # with one line
    import irrbounds.forms as forms_mod

    beta = forms_mod._beta

    def corrupt(w, D, step, delta, s0, size):
        bu, bv = beta(w, D, step, delta, s0, size)
        if s0 == 20 and delta == 45:  # order 0 of degree 45
            bu += 1
        return bu, bv

    monkeypatch.setattr(forms_mod, "_BLOCK", 4)
    monkeypatch.setattr(forms_mod, "_beta", corrupt)
    code, out, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                         "--n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("integrality failure: order-0 pole-sum block at "
                          "s0 = 20 is not an integer: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("state", range(6))
def test_corrupted_walk_state_exit_3(capsys, monkeypatch, state):
    # the walk restarts from the root multiset at m = bn + 1 = 22; one unit
    # added to any of its six states there leaves the next step's division
    # by C(-22) with a remainder, which must end the run with one line
    import irrbounds.forms as forms_mod

    restart = forms_mod._restart

    def corrupt(blocks, m, L, S1, S2):
        states = restart(blocks, m, L, S1, S2)
        if m == 22:
            states[state] += 1
        return states

    monkeypatch.setattr(forms_mod, "_restart", corrupt)
    code, out, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                         "--n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("integrality failure: shift-identity step to m = 23 "
                          "is not an integer: ")
    assert len(err.splitlines()) == 1


# SHA-256 of the stdout of `verify --k 8 --a 1 --b 13 --n N --quadratic
# --format json`, recorded before the pole sum ran in blocks; beyond the
# reach of the dense oracle, these pin the forms at d = 1683 and 3333
PINNED_VERIFY_SHA256 = {
    51: "a0a342c7807054ad469597cb612710bea94c7aa45e14af8b453ba993b586138d",
    101: "25591cf538273d9ff016449293187cf6eab3d067ebf28aafa7aaf417e2aa22e3",
}


@pytest.mark.parametrize("n", sorted(PINNED_VERIFY_SHA256))
def test_large_verify_stdout_pinned(capsys, n):
    code, out, _ = run(capsys, "verify", "--k", "8", "--a", "1", "--b", "13",
                       "--n", str(n), "--quadratic", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_SHA256[n]


def _verify_n31(k):
    return ["verify", "--k", str(k), "--a", "1", "--b", "13", "--n", "31",
            "--quadratic", "--format", "json"]


@pytest.mark.parametrize("label,argv", [
    ("verify-n31-k6", _verify_n31(6)),
    ("verify-n31-k8", _verify_n31(8)),
    ("verify-n31-k10", _verify_n31(10)),
    ("table-paper", ["table", "--paper", "--format", "csv"]),
    *((f"search-grid-k{k}", ["search", "--k", str(k), "--a-max", "3",
                             "--b-max", "21"]) for k in (5, 7, 9, 11)),
])
def test_stdout_matches_benchmark_reference(capsys, label, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (REFERENCE / f"{label}.out").read_bytes()


def test_verify_refuses_degree_above_cap_before_any_work(capsys, monkeypatch):
    import irrbounds.forms as forms_mod
    import irrbounds.omega as omega_mod

    def boom(*args, **kwargs):
        raise RuntimeError("verify started work past its cap")

    # verify_forms imports eval_UVW from forms when it runs
    monkeypatch.setattr(forms_mod, "eval_UVW", boom)
    monkeypatch.setattr(omega_mod, "PrimeSieve", boom)
    code, _, _ = run(capsys, "verify", "--k", "8", "--a", "1", "--b", "13",
                     "--n", "10000001")
    assert code == 1


@pytest.mark.parametrize("a_max,b_max", [
    (1, 2 * MAX_SEARCH_CELLS + 5), (3, 1001), (10**12, 10**12)])
def test_search_refuses_grid_above_cap_before_any_work(capsys, monkeypatch,
                                                       a_max, b_max):
    import irrbounds.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("search started work past its cap")

    monkeypatch.setattr(cli_mod, "search_params", boom)
    code, out, err = run(capsys, "search", "--k", "7", "--a-max", str(a_max),
                         "--b-max", str(b_max))
    assert code == 1
    assert out == "" and "above the cap" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--k", "6", "--a", "1"),
    ("omega", "--a", "1"),
    ("verify", "--k", "6", "--a", "1", "--n", "1"),
], ids=lambda argv: argv[0])
def test_b_above_cap_refused_before_the_walk(capsys, monkeypatch, argv):
    # Omega's Farey walk is O(b^2): b = MAX_B + 2 is refused with one line
    # before the walk starts, and b = MAX_B reaches it
    def boom(*args, **kwargs):
        raise RuntimeError("the Farey walk started")

    monkeypatch.setattr(omega, "_breakpoints", boom)
    code, out, err = run(capsys, *argv, "--b", str(MAX_B + 2))
    assert code == 1 and out == ""
    assert err == f"Error: --b {MAX_B + 2} is above the cap {MAX_B}\n"
    with pytest.raises(RuntimeError, match="the Farey walk started"):
        main([*argv, "--b", str(MAX_B)])


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_text(capsys):
    code, out, _ = run(capsys, "omega", "--a", "1", "--b", "7")
    assert code == 0
    assert "[1/6, 3/7)" in out
    assert "measure = 7/12" in out


def test_omega_json_schema(capsys):
    code, out, _ = run(capsys, "omega", "--a", "1", "--b", "7",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    first = data["intervals"][0]
    assert set(first) == {"lo", "hi", "lo_closed", "hi_closed"}
    assert first["lo"] == "1/6"
    assert isinstance(first["lo_closed"], bool)


def test_omega_deterministic(capsys):
    _, out1, _ = run(capsys, "omega", "--a", "2", "--b", "23")
    _, out2, _ = run(capsys, "omega", "--a", "2", "--b", "23")
    assert out1 == out2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_best_cell_first(capsys):
    code, out, _ = run(capsys, "search", "--k", "6", "--a-max", "2",
                       "--b-max", "9", "--format", "csv")
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert (first[2], first[3]) == ("1", "7")


def test_search_empty_grid_exit_2(capsys):
    code, _, err = run(capsys, "search", "--k", "6", "--a-max", "1",
                       "--b-max", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_fmt_sig_keeps_trailing_zeros():
    def ball(x):
        sign, man, exp, _ = x._mpf_
        return Ball(-man if sign else man, exp)

    assert fmt_sig(ball(mp.mpf("6.6461037")), 6) == "6.64610"
    assert fmt_sig(ball(mp.mpf("12.40837834")), 6) == "12.4084"
    assert fmt_sig(None) == ""


def test_displayed_value_stable_across_working_precision(capsys):
    _, out60, _ = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7")
    _, out100, _ = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7",
                       "--digits", "100")
    assert out60 == out100


def test_not_applicable_sum_at_working_precision(capsys):
    # M2+K+N is summed at the working digits, not at 53 bits; the digits
    # agree with the sum of mu2_bound(3, 1, 7, 120)'s constants
    code, out, _ = run(capsys, "bound", "--k", "3", "--a", "1", "--b", "7",
                       "--quadratic", "--print-digits", "50")
    assert code == 2
    assert out == ("mu2(alpha_3) bound not applicable at a=1, b=7: M2+K+N = "
                   "2.9382935790758548366557872174101604242928458714335 >= 0\n")


def test_high_precision_stdout_pinned(capsys):
    # each value is rendered from its own precision, so stdout carries the
    # digits test_measures pins in the library
    for argv, label, pinned in (
            (("bound", "--k", "6", "--a", "1", "--b", "7", "--digits", "500",
              "--print-digits", "480"), "mu(alpha_6)", MU_6_1_7),
            (("bound", "--k", "8", "--a", "1", "--b", "13", "--quadratic",
              "--digits", "300", "--print-digits", "280"), "mu2(alpha_8)",
             MU2_8_1_13)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        a, b = argv[4], argv[6]
        assert out == (f"{label} <= {pinned['bound']}   (a={a}, b={b})\n"
                       f"  M1 = {pinned['M1']}   M2 = {pinned['M2']}   "
                       f"K = {pinned['K']}   N = {pinned['N']}\n")


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_verify_inapplicable_cell_exit_2(capsys):
    # the complex saddle point does not exist at (k, a, b) = (1, 7, 29); bound
    # reports the same cell with exit 2
    code, _, err = run(capsys, "verify", "--k", "1", "--a", "7", "--b", "29",
                       "--n", "1")
    assert code == 2
    assert "not applicable" in err and "Traceback" not in err
    code, _, _ = run(capsys, "bound", "--k", "1", "--a", "7", "--b", "29")
    assert code == 2


def test_precision_failure_exit_4(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise PrecisionError("saddle root not certified")

    monkeypatch.setattr("irrbounds.cli.mu_bound", fail)
    code, out, err = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7")
    assert code == 4
    assert out == ""
    assert err == "precision failure: saddle root not certified\n"


def _widened(ball, radius):
    """The ball of the same centre with the rational ``radius``."""
    centre = Fraction(*ball.centre())
    return ball.spanning(centre - radius, centre + radius)


def test_omega_wide_radius_exit_4(capsys, monkeypatch):
    # N1, N2 and the psi sum are published only within 10^-(digits-5) of
    # their radius; a radius forced to 10^-50 must refuse them
    n_constants = omega.n_constants

    def widened(a, b, components, digits):
        n1, n2 = n_constants(a, b, components, digits)
        return _widened(n1, Fraction(1, 10**50)), _widened(n2, Fraction(1, 10**50))

    monkeypatch.setattr("irrbounds.cli.n_constants", widened)
    code, out, err = run(capsys, "omega", "--a", "1", "--b", "7")
    assert code == 4
    assert out == ""
    assert err.startswith("precision failure: Omega(1, 7) psi sum = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("bound", "--k", "6", "--a", "1", "--b", "7"),
    ("search", "--k", "7", "--a-max", "1", "--b-max", "9"),
    ("verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1")])
def test_wide_saddle_radius_exit_4(capsys, monkeypatch, argv):
    # a bound, a search and verify's predicted decay stop at the first value
    # whose radius is too wide, with nothing on stdout
    saddle_complex = asymptotics.saddle_complex

    def widened(*args, **kwargs):
        z1, m2 = saddle_complex(*args, **kwargs)
        return z1, _widened(m2, Fraction(1, 10**40))

    monkeypatch.setattr("irrbounds.measures.saddle_complex", widened)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("precision failure: ") and err.count("\n") == 1


def _swap_two(pts):
    pts[3], pts[4] = pts[4], pts[3]
    return pts


@pytest.mark.parametrize("mutate", [
    lambda pts: [(p, q) for p, q in pts if q != 7], _swap_two])
def test_omega_certificate_failure_exit_4(capsys, monkeypatch, mutate):
    # a breakpoint walk without the points of denominator b, or with two
    # neighbours swapped, has a step whose ends are not Farey neighbours
    # beyond b: no set may be printed
    from irrbounds import asymptotics, omega

    farey = omega._breakpoints
    monkeypatch.setattr(omega, "_breakpoints",
                        lambda bound: mutate(list(farey(bound))))
    omega._omega_report.cache_clear()
    try:
        code, out, err = run(capsys, "omega", "--a", "1", "--b", "7")
    finally:
        omega._omega_report.cache_clear()
    assert code == 4
    assert out == ""
    assert err.startswith("certificate failure: ") and err.count("\n") == 1


def test_huge_k_bound_is_certified(capsys):
    # k = 10^24: 1/(1 - x_k) is about 7e11, and the saddle solve carries
    # four guard digits
    code, out, err = run(capsys, "bound", "--k", str(10**24), "--a", "1",
                         "--b", "7")
    assert code == 0 and err == ""
    assert "3.03340" in out


def test_alpha_enclosure_too_wide_exit_4(capsys, monkeypatch):
    # one pass of the alpha enclosure at its starting width cannot certify
    # the forms at n = 31 when nothing sizes that width: a zero decay hint
    # starts it as if the forms were of size 1
    import irrbounds.cli as cli_mod

    predicted = cli_mod.predicted_decay
    monkeypatch.setattr(cli_mod, "predicted_decay",
                        lambda *args: tuple(0 * rate for rate in predicted(*args)))
    monkeypatch.setattr("irrbounds.forms.MAX_ALPHA_PASSES", 1)
    code, out, err = run(capsys, "verify", "--k", "8", "--a", "1", "--b", "13",
                         "--n", "31")
    assert code == 4
    assert out == ""
    assert err.startswith("precision failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("bound", "--k", "6", "--a", "1", "--b", "7"),
    ("table", "--paper"),
    ("verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"),
    ("omega", "--a", "1", "--b", "7"),
    ("search", "--k", "6", "--a-max", "7", "--b-max", str(10**9)),
])
@pytest.mark.parametrize("digit_opts", [
    ("--print-digits", "56"),
    ("--digits", "30", "--print-digits", "26"),
    ("--digits", str(MAX_DIGITS), "--print-digits", "1000000"),
])
def test_print_digits_above_checked_digits_rejected(capsys, argv, digit_opts):
    # more printed digits than the ladder checks (digits - 5) is refused
    # before any work, even ahead of the search grid cap
    code, out, err = run(capsys, *argv, *digit_opts)
    assert code == 1
    assert out == ""
    assert err.startswith("Error: --print-digits ") and err.count("\n") == 1


def test_print_digits_at_checked_digits_accepted(capsys):
    code, out, _ = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7",
                       "--digits", "30", "--print-digits", "25")
    assert code == 0
    assert out.startswith("mu(alpha_6) <= 3.514333682504972767208128   ")


@pytest.mark.parametrize("argv", [
    ("bound", "--k", "6", "--a", "1", "--b", "7", "--print-digits", "0"),
    ("bound", "--k", "6", "--a", "1", "--b", "7", "--print-digits", "-3"),
    ("omega", "--a", "1", "--b", "7", "--print-digits", "0"),
    ("verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1", "--digits", "10"),
    ("table", "--k", "6", "--digits", "29"),
    # --digits above the cap, on all five commands
    *((*argv, "--digits", str(MAX_DIGITS + 1)) for argv in (
        ("bound", "--k", "6", "--a", "1", "--b", "7"),
        ("table", "--paper"),
        ("verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"),
        ("omega", "--a", "1", "--b", "7"),
        ("search", "--k", "6"))),
])
def test_digit_options_rejected_at_parse_time(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Invalid value for '--" in err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_small_argv_ends_in_documented_exit_code(capsys, data):
    draw = data.draw
    cmd = draw(st.sampled_from(["bound", "omega", "table", "verify", "search"]))
    k = str(draw(st.integers(-1, 13)))
    a = str(draw(st.integers(0, 7)))
    b = str(draw(st.sampled_from([3, 7, 13, 14, 23, 29])))
    # a search grid of at most 8 cells, or one far above the cap
    a_max, b_max = draw(st.sampled_from([(2, 13), (1, 9), (0, 7), (-1, 3),
                                         (3, 8), (7, 10**9)]))
    argv = {"bound": ["bound", "--k", k, "--a", a, "--b", b],
            "omega": ["omega", "--a", a, "--b", b],
            "table": ["table", "--k", k],
            "verify": ["verify", "--k", k, "--a", a, "--b", b, "--n",
                       draw(st.sampled_from(["1,3", "2", "0", "x", "1", ""]))],
            "search": ["search", "--k", k, "--a-max", str(a_max),
                       "--b-max", str(b_max)]}[cmd]
    if cmd in ("bound", "verify", "search") and draw(st.booleans()):
        argv.append("--quadratic")
    digits = print_digits = None
    if draw(st.booleans()):
        digits = draw(st.sampled_from(
            ["30", "60", "29", "10", "0", "x", str(MAX_DIGITS + 1), "10000000"]))
        argv += ["--digits", digits]
    if draw(st.booleans()):
        # 26 and 56 lie just above the checked digits at 30 and 60
        print_digits = draw(st.sampled_from(
            ["1", "12", "0", "-3", "x", "26", "56", "1000000"]))
        argv += ["--print-digits", print_digits]
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if (print_digits is not None and print_digits.isdigit()
            and (digits is None or digits.isdigit())
            and int(print_digits) > int(digits or 60) - 5):
        assert code == 1, (argv, code)


# ---------------------------------------------------------------------------
# the command line itself
# ---------------------------------------------------------------------------

# a child that cannot import click or numpy runs --help and one bound and
# prints each exit code and stdout as JSON
NO_CLICK_OR_NUMPY = """
import contextlib, io, json, sys
sys.modules["click"] = sys.modules["numpy"] = None
from irrbounds.cli import main
results = []
for argv in (["--help"], ["bound", "--k", "6", "--a", "1", "--b", "7"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _run_child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's package; bytes out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_cli_runs_without_click_or_numpy():
    child = _run_child("-c", NO_CLICK_OR_NUMPY)
    assert child.returncode == 0, child.stderr
    (help_code, help_out), (bound_code, bound_out) = json.loads(child.stdout)
    assert help_code == 0 and help_out.startswith("Usage:")
    assert bound_code == 0
    assert bound_out == ("mu(alpha_6) <= 3.51433   (a=1, b=7)\n"
                         "  M1 = 24.0684   M2 = -8.53590   K = -2.74653   "
                         "N = 2.00490\n")


# modules no CLI start-up may load: dataclasses, with inspect, cost every
# process about 10 ms, json and csv load only where a --format uses them,
# and mpmath is a test oracle alone
UNUSED_AT_START = {"dataclasses", "inspect", "json", "csv", "mpmath"}


def test_import_and_help_load_no_unused_module():
    child = _run_child("-c", "import sys, irrbounds.cli; print(*sys.modules)")
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.decode().split())
    assert "irrbounds.cli" in loaded
    assert not UNUSED_AT_START & loaded
    # -X importtime names every module the process imports, on stderr
    child = _run_child("-X", "importtime", "-m", "irrbounds", "--help")
    assert child.returncode == 0 and child.stdout.startswith(b"Usage: irrbounds")
    imported = {line.rsplit("|", 1)[1].strip()
                for line in child.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert "irrbounds.cli" in imported
    assert not UNUSED_AT_START & imported
    # the bound commands never compile forms.py; verify loads it, but not
    # the dense oracles of irrbounds.dense
    assert "irrbounds.forms" not in loaded | imported
    for argv, loads_forms in (
            (["table", "--paper"], False),
            (["search", "--k", "7", "--a-max", "1", "--b-max", "9"], False),
            (["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"], True)):
        child = _run_child("-c", "import sys, irrbounds.cli as cli; "
                           "code = cli.main(sys.argv[1:]); "
                           "print(code, *sys.modules, file=sys.stderr)", *argv)
        code, *modules = child.stderr.decode().split()
        assert code == "0", child.stderr
        assert ("irrbounds.forms" in modules) == loads_forms, argv
        assert "irrbounds.dense" not in modules


# a bare interpreter: -I ignores the PYTHON* variables and the user site,
# and -S skips site, so no .pth file or sitecustomize can load a module
# ahead of the package (faking a load) or stub one out (hiding it); -B
# leaves no bytecode in src/
BARE_RUN = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import irrbounds.cli as cli; "
            "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0; "
            "print(code, *sys.modules, file=sys.stderr)")


@pytest.mark.parametrize("argv,loads", [
    ([], False),
    (["table", "--paper"], False),
    (["search", "--k", "7", "--a-max", "1", "--b-max", "9"], False),
    (["bound", "--k", "6", "--a", "1", "--b", "7"], False),
    (["omega", "--a", "1", "--b", "7"], True),
    (["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"], False),
    (_verify_n31(8), False),
], ids=["import", "table", "search", "bound", "omega", "verify", "verify-n31"])
def test_bound_commands_never_load_fractions_or_decimal(argv, loads):
    # the bound path and verify run on ints: the import and table, search,
    # bound and verify leave fractions, decimal and the package's Fraction
    # layer unloaded; omega loads all three, which shows that the check sees
    # a load
    fraction_layer = {"fractions", "decimal", "irrbounds.rational"}
    bare = subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                           "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert not fraction_layer & set(bare.stdout.split())
    child = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", BARE_RUN,
                            str(SRC), *argv], capture_output=True, text=True,
                           timeout=120)
    code, *modules = child.stderr.split()
    assert code == "0", child.stderr
    assert fraction_layer & set(modules) == (fraction_layer if loads else set())


@pytest.mark.parametrize("argv", [
    ["table", "--paper"],
    ["search", "--k", "7", "--a-max", "1", "--b-max", "9"],
    ["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1", "--quadratic"],
    ["bound", "--k", "6", "--a", "1", "--b", "7"],
    ["omega", "--a", "1", "--b", "7", "--format", "json"],
], ids=lambda argv: argv[0])
def test_commands_never_load_mpmath(argv):
    # every command runs on the package's own integer arithmetic
    child = _run_child("-c", "import sys, irrbounds.cli as cli; "
                       "code = cli.main(sys.argv[1:]); "
                       "print(code, 'mpmath' in sys.modules, file=sys.stderr)", *argv)
    assert child.stderr.decode().split() == ["0", "False"], child.stderr


def test_no_module_level_mpmath_import():
    # only the test oracle asymptotics.alpha_value imports mpmath, in its body
    import ast

    for path in sorted(SRC.glob("irrbounds/*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(n.split(".")[0] == "mpmath" for n in names), path


@pytest.mark.parametrize("label,argv", [
    ("table-paper", ["table", "--paper", "--format", "csv"]),
    ("verify-n31-k6", _verify_n31(6)),
])
def test_fresh_process_formats_match_reference(label, argv):
    # json and csv are imported inside the formatting branches; a fresh
    # process has not loaded them through the test run
    child = _run_child("-m", "irrbounds", *argv)
    assert child.returncode == 0, child.stderr
    assert child.stdout == (REFERENCE / f"{label}.out").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([cmd, "--help"] for cmd in ("bound", "table", "verify", "omega", "search")),
])
def test_help_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("Usage: irrbounds ") and err == ""


BOUND_6_1_7 = ("bound", "--k", "6", "--a", "1", "--b", "7")


@pytest.mark.parametrize("argv", [
    pytest.param((), id="no-command"),
    pytest.param(("frobnicate",), id="unknown-command"),
    pytest.param((*BOUND_6_1_7, "--bogus"), id="unknown-option"),
    pytest.param((*BOUND_6_1_7, "--dig", "30"), id="abbreviated-option"),
    pytest.param(("bound", "--k", "x", "--a", "1", "--b", "7"), id="k-not-int"),
    pytest.param((*BOUND_6_1_7, "--format", "xml"), id="unknown-format"),
    pytest.param(("verify", "--k", "6", "--a", "1", "--b", "7"), id="verify-without-n"),
    pytest.param(("table", "--paper", "--k", "3"), id="table-paper-and-k"),
])
def test_usage_errors_exit_1_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("Error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [BOUND_6_1_7, _verify_n31(8)],
                         ids=["bound", "verify-n31"])
def test_closed_stdout_exits_141_with_empty_stderr(argv):
    # stdout's reader is gone before the first write, as with `| head -c 0`:
    # exit 141, as for SIGPIPE, with no traceback and no "Exception
    # ignored" line at interpreter shutdown
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        child = subprocess.run([sys.executable, "-m", "irrbounds", *argv],
                               stdout=write_end, stderr=subprocess.PIPE,
                               env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, b"")
