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

from irrbounds import asymptotics, cli, measures, omega
from irrbounds.cli import (COMMANDS, COMMON, MAX_B, MAX_DIGITS,
                           MAX_SEARCH_CELLS, _number, main)
from irrbounds.errors import IntegralityError, PrecisionError
from irrbounds.fixed import Ball
from oracles import format_rat, omega_intervals, pair, runs_of
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
        raise IntegralityError("R*U(x_k)", (7, 3))

    # cmd_verify imports verify_forms from forms when it runs
    monkeypatch.setattr(forms_mod, "verify_forms", boom)
    code, _, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "1")
    assert code == 3
    assert "R*U(x_k)" in err


def test_integrality_error_renders_past_the_str_digit_limit():
    exc = IntegralityError("R*U(x_k)", (7**6000, 3))
    assert str(exc).startswith("R*U(x_k) is not an integer: 3874")
    assert str(exc).endswith("/3")


def test_huge_integrality_failure_exit_3(capsys, monkeypatch):
    import irrbounds.forms as forms_mod

    def boom(*args, **kwargs):
        raise IntegralityError("R*U(x_k)", (7**6000, 3))

    monkeypatch.setattr(forms_mod, "verify_forms", boom)
    code, _, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                       "--n", "1")
    assert code == 3
    assert err.startswith("integrality failure: R*U(x_k) is not an integer: ")
    assert len(err.splitlines()) == 1


def test_inexact_pole_sum_block_exit_3(capsys, monkeypatch):
    # with blocks of 4, the order-0 block at s0 = 20 holds the first nonzero
    # values A(-m), m > bn = 21; one unit added to the rational part of the
    # alpha_4 that advances the shared g past the block, the X of the unit
    # value's block sum, leaves the advance's division by eps_4 with a
    # remainder, which must end the run with one line; the advance serves
    # all three orders, so the message names the block alone
    import irrbounds.forms as forms_mod

    combine = forms_mod._combine

    def corrupt(c, g, k, D, den, where):
        if where == "pole-sum block at s0 = 20":
            c = (c[0] + 1, *c[1:])
        return combine(c, g, k, D, den, where)

    monkeypatch.setattr(forms_mod, "_BLOCK", 4)
    monkeypatch.setattr(forms_mod, "_combine", corrupt)
    code, out, err = run(capsys, "verify", "--k", "6", "--a", "1", "--b", "7",
                         "--n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("integrality failure: pole-sum block at "
                          "s0 = 20 is not an integer: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("state", range(3))
def test_corrupted_walk_state_exit_3(capsys, monkeypatch, state):
    # the walk restarts from the root multiset at m = bn + 1 = 22; one unit
    # added to any of its three states there leaves the next step's division
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


@pytest.mark.parametrize("k,n,code", [
    (10**51, "31", 4), (2**195 - 1, "31", 4), (2**196, "31", 1),
    (2**20 - 1, "303", 4), (2**20, "303", 1), (2**45 - 1, "31,101", 4),
    (2**45, "31,101", 1)])
def test_verify_caps_degree_times_k_bits_before_any_work(capsys, monkeypatch,
                                                         k, n, code):
    # total degree times bitlen(k) above MAX_VERIFY_DEGREE_BITS is refused
    # with one line; at or below it the forms are reached (stubbed here)
    import irrbounds.forms as forms_mod

    def reached(*args, **kwargs):
        raise PrecisionError("reached the forms")

    monkeypatch.setattr(forms_mod, "verify_forms", reached)
    got, out, err = run(capsys, "verify", "--k", str(k), "--a", "1", "--b",
                        "13", "--n", n, "--format", "json")
    assert got == code and out == ""
    assert ("above the cap" if code == 1 else "reached the forms") in err


@pytest.mark.parametrize("n,code", [("667", 1), ("665", 4)])
def test_verify_caps_degree_at_small_k(capsys, monkeypatch, n, code):
    # below 20 bits of k the cap counts 20 bits, so it caps the total degree
    # at 10,000: 3(7-2)667 = 10,005 is refused, 3(7-2)665 = 9,975 reaches
    # the forms (stubbed here)
    import irrbounds.forms as forms_mod

    def reached(*args, **kwargs):
        raise PrecisionError("reached the forms")

    monkeypatch.setattr(forms_mod, "verify_forms", reached)
    got, out, err = run(capsys, "verify", "--k", "8", "--a", "1", "--b", "7",
                        "--n", n, "--format", "json")
    assert got == code and out == ""
    assert ("above the cap" if code == 1 else "reached the forms") in err


@pytest.mark.parametrize("a_max,b_max", [
    (1, 2 * MAX_SEARCH_CELLS + 5), (3, 1001), (10**12, 10**12)])
def test_search_refuses_grid_above_cap_before_any_work(capsys, monkeypatch,
                                                       a_max, b_max):
    def boom(*args, **kwargs):
        raise RuntimeError("search started work past its cap")

    monkeypatch.setattr(measures, "search_params", boom)
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
    # b = MAX_B + 2 is refused with one line before Omega's walk starts,
    # and b = MAX_B reaches it
    def boom(*args, **kwargs):
        raise RuntimeError("the walk started")

    monkeypatch.setattr(omega, "_points", boom)
    omega.compute_omega.cache_clear()
    code, out, err = run(capsys, *argv, "--b", str(MAX_B + 2))
    assert code == 1 and out == ""
    assert err == (f"Error: Invalid value for '--b': {MAX_B + 2} is not in "
                   f"the range 1<=x<={MAX_B}.\n")
    with pytest.raises(RuntimeError, match="the walk started"):
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


def _omega_by_fractions(a, b, fmt):
    """omega's stdout rendered from the Fraction intervals of the oracles,
    by format_rat and IntervalSet's str, as the package printed it before
    it printed its int runs."""
    intervals = omega_intervals(a, b)
    n1, n2 = omega.n_constants(a, b, runs_of(intervals), 60)
    rows = [{"lo": format_rat(iv.lo), "hi": format_rat(iv.hi),
             "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed}
            for iv in intervals]
    measure = format_rat(intervals.total_measure())
    if fmt == "json":
        return json.dumps({
            "a": a, "b": b, "intervals": rows, "measure": measure,
            **{name: float(value.to_str(6)) for name, value in
               (("psi_sum", b - n1), ("N1", n1), ("N2", n2))}}, indent=2) + "\n"
    if fmt == "csv":
        return "lo,hi,lo_closed,hi_closed\n" + "".join(
            f"{r['lo']},{r['hi']},{r['lo_closed']},{r['hi_closed']}\n" for r in rows)
    return (f"Omega({a}, {b}) = {intervals}\nmeasure = {measure}\n"
            f"psi sum = {(b - n1).to_str(6)}   N1 = {n1.to_str(6)}   "
            f"N2 = {n2.to_str(6)}\n")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_omega_output_matches_the_fraction_rendering(capsys, fmt):
    # every a <= 3 and odd b <= 41, in-process
    for a in (1, 2, 3):
        for b in range(4 * a + 1, 42, 2):
            code, out, err = run(capsys, "omega", "--a", str(a), "--b", str(b),
                                 "--format", fmt)
            assert (code, err) == (0, "")
            assert out == _omega_by_fractions(a, b, fmt), (a, b)


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
    # a grid without a cell is answered from its size, before the engine
    # loads
    for a_max, b_max in (("1", "3"), ("0", "15"), ("2", "4")):
        code, out, err = run(capsys, "search", "--k", "6", "--a-max", a_max,
                             "--b-max", b_max)
        assert (code, out, err) == (2, "", "no applicable (a, b) on the grid\n")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_printed_numbers_keep_trailing_zeros():
    def ball(x):
        sign, man, exp, _ = x._mpf_
        return Ball(-man if sign else man, exp)

    assert ball(mp.mpf("6.6461037")).to_str(6) == "6.64610"
    assert ball(mp.mpf("12.40837834")).to_str(6) == "12.4084"
    # json and csv print the float of the same digits
    assert _number(ball(mp.mpf("6.6461037")), 6) == 6.6461
    assert _number(None, 6) is None  # an absent value: json null, csv empty


def _strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, which RFC 8259
    does not allow."""
    def refuse(name):
        raise ValueError(f"{name} is not json")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    *(["verify", "--k", str(k), "--a", "1", "--b", "13", "--n", "31",
       "--quadratic"] for k in (6, 8, 10)),
    ["table", "--paper"],
    *(["search", "--k", str(k), "--a-max", "3", "--b-max", "21"]
      for k in (5, 7, 9, 11)),
    ["omega", "--a", "1", "--b", "7"],
    ["bound", "--k", "6", "--a", "1", "--b", "7"],
    ["bound", "--k", "1", "--a", "7", "--b", "29"],
    ["bound", "--k", "1", "--a", "7", "--b", "29", "--quadratic"],
], ids=" ".join)
def test_json_output_is_strict_json(capsys, argv):
    # the benchmark's reference argvs and a cell without a complex saddle
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == ((2 if "29" in argv else 0), "")
    _strict_json(out)


@pytest.mark.parametrize("quadratic", [[], ["--quadratic"]], ids=["mu", "mu2"])
@pytest.mark.parametrize("cell", [("1", "7", "29"), ("1", "100", "401")],
                         ids="-".join)
def test_no_complex_saddle_is_absent_in_every_format(capsys, cell, quadratic):
    # no M1, M2, K, N or bound exists there: json null, an empty csv field,
    # and in text the reason verify exits 2 with, each with exit 2
    k, a, b = cell
    argv = ["bound", "--k", k, "--a", a, "--b", b, *quadratic]
    absent = ["bound", "M1", "M2", "K", "N"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    row = _strict_json(out)
    assert [name for name, value in row.items() if value is None] == absent
    assert row["applicable"] is False
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (2, "")
    header, line = out.splitlines()
    fields = dict(zip(header.split(","), line.split(",")))
    assert [name for name, value in fields.items() if value == ""] == absent
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    code_v, _, reason = run(capsys, "verify", "--k", k, "--a", a, "--b", b,
                            "--n", "1")
    assert (code_v, reason) == (2, "not applicable: saddle cubic has three "
                                   "real roots; no complex saddle point\n")
    label = "mu2" if quadratic else "mu"
    assert out == (f"{label}(alpha_{k}) bound not applicable at a={a}, b={b}: "
                   f"{reason.removeprefix('not applicable: ')}")


def test_non_finite_json_number_exits_1_with_empty_stdout(capsys, monkeypatch):
    # json.dumps refuses a nan before anything is printed
    import irrbounds.cli as cli

    monkeypatch.setattr(cli, "_number", lambda x, sig: float("nan"))
    code, out, err = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("Error: Out of range float values are not JSON")


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
    # reports the same cell with exit 2.  Only text-format verify prints the
    # predicted decay that needs it: json prints the exact forms, exit 0
    code, _, err = run(capsys, "verify", "--k", "1", "--a", "7", "--b", "29",
                       "--n", "1")
    assert code == 2
    assert "not applicable" in err and "Traceback" not in err
    code, _, _ = run(capsys, "bound", "--k", "1", "--a", "7", "--b", "29")
    assert code == 2
    code, out, err = run(capsys, "verify", "--k", "1", "--a", "7", "--b", "29",
                         "--n", "1", "--format", "json")
    assert code == 0 and err == ""
    assert [row["integral"] for row in json.loads(out)] == [True]


def test_precision_failure_exit_4(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise PrecisionError("saddle root not certified")

    monkeypatch.setattr("irrbounds.measures.mu_bound", fail)
    code, out, err = run(capsys, "bound", "--k", "6", "--a", "1", "--b", "7")
    assert code == 4
    assert out == ""
    assert err == "precision failure: saddle root not certified\n"


def _widened(ball, radius):
    """The ball of the same centre with the rational ``radius``."""
    centre = Fraction(*ball.centre())
    return ball.spanning(pair(centre - radius), pair(centre + radius))


def test_omega_wide_radius_exit_4(capsys, monkeypatch):
    # N1, N2 and the psi sum are published only within 10^-(digits-5) of
    # their radius; a radius forced to 10^-50 must refuse them
    n_constants = omega.n_constants

    def widened(a, b, components, digits):
        n1, n2 = n_constants(a, b, components, digits)
        return _widened(n1, Fraction(1, 10**50)), _widened(n2, Fraction(1, 10**50))

    monkeypatch.setattr("irrbounds.omega.n_constants", widened)
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
    # a breakpoint walk without the progression j/b of the coefficient b,
    # or with two points swapped, may miss a breakpoint: no set may be
    # printed
    points = omega._points
    monkeypatch.setattr(omega, "_points", lambda table: mutate(points(table)))
    omega.compute_omega.cache_clear()
    try:
        code, out, err = run(capsys, "omega", "--a", "1", "--b", "7")
    finally:
        omega.compute_omega.cache_clear()
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
    # an enclosure of alpha_k 2^bits wider than 2^bits certifies no form in
    # alpha_k, so the one pass allowed ends the run with nothing on stdout
    import irrbounds.forms as forms_mod

    alpha_fixed = forms_mod._alpha_fixed

    def widened(k, bits):
        a, e = alpha_fixed(k, bits)
        return a, e << bits

    monkeypatch.setattr(forms_mod, "_alpha_fixed", widened)
    monkeypatch.setattr(forms_mod, "MAX_ALPHA_PASSES", 1)
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


@pytest.mark.parametrize("option,argv", [
    ("--k", ("bound", "--k", "0", "--a", "1", "--b", "7")),
    ("--a", ("bound", "--k", "6", "--a", "0", "--b", "7")),
    ("--k", ("table", "--k", "0")),
    ("--k", ("search", "--k", "0")),
    ("--k", ("verify", "--k", "-1", "--a", "1", "--b", "7", "--n", "1")),
    ("--k", ("table", "--k", "-1")),
    ("--a", ("omega", "--a", "0", "--b", "7")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_k_and_a_below_one_refused_by_name(capsys, option, argv):
    # refused before any work, naming the option the command line gave
    code, out, err = run(capsys, *argv)
    value = argv[argv.index(option) + 1]
    assert (code, out) == (1, "")
    assert err == (f"Error: Invalid value for '{option}': {value} is not in "
                   "the range x>=1.\n")


@pytest.mark.parametrize("argv", [
    ("bound", "--k", "6", "--a", "1"),
    ("omega", "--a", "1"),
    ("verify", "--k", "6", "--a", "1", "--n", "1"),
], ids=lambda argv: argv[0])
def test_b_below_one_refused_by_name(capsys, argv):
    # the option table holds --b's range, so the refusal names --b before
    # any work, not the engine's k, a, b, n
    for b in ("0", "-1"):
        assert run(capsys, *argv, "--b", b) == (
            1, "", f"Error: Invalid value for '--b': {b} is not in the range "
                   f"1<=x<={MAX_B}.\n")


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


def _modules_after(*argv: str) -> tuple[int, set[str]]:
    """The exit code of the CLI run on argv in a fresh interpreter, and the
    modules loaded by then."""
    child = _run_child("-c", "import sys, irrbounds.cli as cli; "
                       "code = cli.main(sys.argv[1:]); "
                       "print(code, *sys.modules, file=sys.stderr)", *argv)
    code, *modules = child.stderr.decode().splitlines()[-1].split()
    return int(code), set(modules)


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
# mpmath is a test oracle alone, and the command line is read from the
# option table, with no argparse (nor its gettext and locale)
PARSER_MODULES = {"argparse", "gettext", "locale"}
UNUSED_AT_START = {"dataclasses", "inspect", "json", "csv", "mpmath",
                   *PARSER_MODULES}


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
    assert "irrbounds.forms" not in loaded | imported


# the bound engine, which each command imports on entry, past its argv
# checks.  No command loads the dense oracles, and only verify loads forms
ENGINE = {f"irrbounds.{name}" for name in
          ("fixed", "asymptotics", "omega", "measures", "forms", "dense")}
BOUND_ENGINE = ENGINE - {"irrbounds.forms", "irrbounds.dense"}
EXACT_LAYERS = {f"irrbounds.{name}" for name in ("fixed", "omega", "forms")}
ENGINE_LOADS = [
    (["--help"], 0, set()),
    *(([command, "--help"], 0, set())
      for command in ("bound", "table", "verify", "omega", "search")),
    # one refusal of each class
    (["table"], 1, set()),  # neither --paper nor --k
    (["bound", "--k", "6", "--a", "1", "--b", "7", "--digits", "20"], 1, set()),
    (["bound", "--k", "6", "--a", "1", "--b", "7", "--print-digits", "56"], 1, set()),
    (["omega", "--a", "1", "--b", str(MAX_B + 2)], 1, set()),
    (["verify", "--k", "8", "--a", "1", "--b", "13", "--n", "333"], 1, set()),
    (["verify", "--k", "8", "--a", "1", "--b", "13", "--n", ","], 1, set()),
    (["verify", "--k", str(2**200), "--a", "1", "--b", "13", "--n", "31"], 1,
     set()),
    (["search", "--k", "7", "--a-max", "9", "--b-max", "99"], 1, set()),
    (["bound", "--k", "0", "--a", "1", "--b", "7"], 1, set()),
    (["bound", "--k", "6", "--a", "1", "--b", "-1"], 1, set()),
    (["verify", "--k", "6", "--a", "1", "--b", "-1", "--n", "1"], 1, set()),
    (["omega", "--a", "1", "--b", "-1"], 1, set()),
    # an empty grid is answered from its size alone
    (["search", "--k", "6", "--a-max", "0"], 2, set()),
    (["search", "--k", "6", "--b-max", "4"], 2, set()),
    # each command that computes
    (["bound", "--k", "6", "--a", "1", "--b", "7"], 0, BOUND_ENGINE),
    (["table", "--paper"], 0, BOUND_ENGINE),
    (["search", "--k", "7", "--a-max", "1", "--b-max", "9"], 0, BOUND_ENGINE),
    (["omega", "--a", "1", "--b", "7"], 0, BOUND_ENGINE - {"irrbounds.measures"}),
    (["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"], 0,
     ENGINE - {"irrbounds.dense"}),
    # only text prints the predicted decay: json and csv run the exact
    # layers alone
    *((["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1", "--format",
        fmt], 0, EXACT_LAYERS) for fmt in ("json", "csv")),
]


@pytest.mark.parametrize("argv,code,engine", ENGINE_LOADS,
                         ids=[" ".join(argv) for argv, _, _ in ENGINE_LOADS])
def test_each_command_loads_only_its_engine_layers(argv, code, engine):
    # --help and every class of refused command line are answered by the
    # CLI alone; a command that computes loads its own layers only, and no
    # command line loads argparse, gettext or locale
    got, modules = _modules_after(*argv)
    assert got == code
    assert ENGINE & modules == engine
    assert not PARSER_MODULES & modules


# a bare interpreter: -I ignores the PYTHON* variables and the user site,
# and -S skips site, so no .pth file or sitecustomize can load a module
# ahead of the package (faking a load) or stub one out (hiding it); -B
# leaves no bytecode in src/.  The module named first is imported ahead of
# the command.
BARE_RUN = ("import sys, importlib; sys.path.insert(0, sys.argv[1]); "
            "importlib.import_module(sys.argv[2]); "
            "import irrbounds.cli as cli; "
            "code = cli.main(sys.argv[3:]) if sys.argv[3:] else 0; "
            "print(code, *sys.modules, file=sys.stderr)")
# fractions and decimal, and the dense oracles of irrbounds.dense, which
# import fractions; decimal may load only to print an integer past str()'s
# 4300-digit limit, which no command here reaches
FRACTION_LAYER = {"fractions", "decimal", "irrbounds.dense"}


@pytest.mark.parametrize("argv,preload", [
    ([], "irrbounds.cli"),
    (["table", "--paper"], "irrbounds.cli"),
    (["search", "--k", "7", "--a-max", "1", "--b-max", "9"], "irrbounds.cli"),
    (["bound", "--k", "6", "--a", "1", "--b", "7"], "irrbounds.cli"),
    (["omega", "--a", "1", "--b", "7"], "irrbounds.cli"),
    (["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1"], "irrbounds.cli"),
    (_verify_n31(8), "irrbounds.cli"),
    (["omega", "--a", "1", "--b", "7"], "irrbounds.dense"),
], ids=["import", "table", "search", "bound", "omega", "verify", "verify-n31",
        "control"])
def test_bound_commands_never_load_fractions_or_decimal(argv, preload):
    # every command runs on ints: the import and all five commands leave
    # fractions, decimal and irrbounds.dense unloaded.  The control imports
    # irrbounds.dense (and with it fractions and decimal) ahead of omega,
    # which shows that the check sees a load
    bare = subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                           "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert not FRACTION_LAYER & set(bare.stdout.split())
    child = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", BARE_RUN,
                            str(SRC), preload, *argv], capture_output=True,
                           text=True, timeout=120)
    code, *modules = child.stderr.split()
    assert code == "0", child.stderr
    control = preload == "irrbounds.dense"
    assert FRACTION_LAYER & set(modules) == (FRACTION_LAYER if control else set())


# a star import of forms in a bare interpreter, then (the control) one of
# the dense oracles that forms.__getattr__ passes on
STAR_IMPORT = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from irrbounds.forms import *; print(*sys.modules); "
               "import irrbounds.forms; irrbounds.forms.build_A; "
               "print(*sys.modules)")


def test_forms_star_import_loads_no_fraction_layer():
    # forms.__all__ names only what forms defines: the star import leaves
    # fractions, decimal and irrbounds.dense unloaded, and build_A, read
    # through forms.__getattr__, loads them, which shows the check sees a
    # load
    child = subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                            STAR_IMPORT, str(SRC)], capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    star, control = (set(line.split()) for line in child.stdout.splitlines())
    assert "irrbounds.forms" in star and not FRACTION_LAYER & star
    assert FRACTION_LAYER <= control


@pytest.mark.parametrize("argv", [
    ["table", "--paper"],
    ["search", "--k", "7", "--a-max", "1", "--b-max", "9"],
    ["verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1", "--quadratic"],
    ["bound", "--k", "6", "--a", "1", "--b", "7"],
    ["omega", "--a", "1", "--b", "7", "--format", "json"],
], ids=lambda argv: argv[0])
def test_commands_never_load_mpmath(argv):
    # every command runs on the package's own integer arithmetic
    code, modules = _modules_after(*argv)
    assert code == 0 and "mpmath" not in modules


def test_no_module_level_mpmath_import():
    # the whole tree of every module: the one mpmath import in the package
    # is in the body of asymptotics.alpha_value, the test oracle of
    # forms._alpha_fixed (tests pass a Ball to mpmath by conftest's _mpf_)
    import ast

    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any(n.split(".")[0] == "mpmath" for n in names):
                hits.append(f"{path.stem}.{scope}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("irrbounds/*.py")):
        visit(ast.parse(path.read_text()), "")
    assert hits == ["asymptotics.alpha_value"]


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
    ["-h"],
    *([cmd, "-h"] for cmd in ("bound", "table", "verify", "omega", "search")),
    ["bound", "--k", "6", "-h", "--bogus"],
])
def test_help_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("Usage: irrbounds ") and err == ""
    # -h is --help, wherever it stands, ahead of any refusal a later
    # token brings
    command = [word for word in argv[:1] if word in COMMANDS]
    assert run(capsys, *command, "--help") == (0, out, "")
    # the option table as rows, each within 79 columns: the top level's
    # one per command with its docstring, a command's one per option with
    # "required", its default or its exclusive pair
    assert max(map(len, out.splitlines())) <= 79
    if not command:
        for name, (function, _, _) in COMMANDS.items():
            assert f"\n  {name}  {function.__doc__}\n" in out
        return
    _, own, _ = COMMANDS[command[0]]
    rows = {line.split()[0]: line for line in out.splitlines()
            if line.startswith("  --")}
    for option in (*COMMON, *own):
        row = rows[option.name]
        assert row.startswith(f"  {option.invocation()}  ")
        if option.required:
            assert row.endswith(" (required)")
        if option.kind is not None and option.default is not None:
            assert row.endswith(f" (default {option.default})")
    if command == ["table"]:
        assert rows["--paper"].endswith(" (one of --paper, --k)")
        assert rows["--k"].endswith(" (one of --paper, --k)")


def _base_argv(command: str) -> list[str]:
    """The shortest command line the table accepts for a command: each
    required option at 1, and the first of its exclusive options."""
    _, own, one_of = COMMANDS[command]
    argv = [command]
    for option in own:
        if option.required or one_of[:1] == (option.name,):
            argv += [option.name] if option.kind is None else [option.name, "1"]
    return argv


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_the_options_the_parser_accepts(capsys, command):
    # the help and the parser read one table: an option the help lists is
    # one the parser takes, and every other option name is unrecognized
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = {line.split()[0] for line in out.split("\noptions:\n")[1].splitlines()
              if line.lstrip().startswith("--")}
    base = _base_argv(command)
    assert isinstance(cli._parse(base), cli.Args)
    names = {option.name for option in COMMON} | {"--bogus", "--dig"} | {
        option.name for _, own, _ in COMMANDS.values() for option in own}
    accepted = set()
    for name in names:
        try:
            cli._parse([*base, f"{name}=x"])
        except cli.UsageError as exc:
            if str(exc) == f"unrecognized arguments: {name}=x":
                continue
        accepted.add(name)
    assert listed == accepted
    assert accepted == {option.name for option in (*COMMON, *COMMANDS[command][1])}


def test_option_spellings_and_repeats_read_alike(capsys):
    # --opt=value reads as --opt value, and the last of a repeated option
    # wins
    code, out, err = run(capsys, "table", "--k", "6")
    assert (code, err) == (0, "") and "3.51433" in out
    assert run(capsys, "table", "--k=6") == (code, out, err)
    assert run(capsys, "table", "--k", "3", "--k=6") == (code, out, err)
    assert run(capsys, "table", "--format", "json", "--k", "6",
               "--format=text") == (code, out, err)


BOUND_6_1_7 = ("bound", "--k", "6", "--a", "1", "--b", "7")


# each refused command line, with the message of its one stderr line
USAGE_ERRORS = [
    pytest.param((), "the following arguments are required: COMMAND",
                 id="no-command"),
    pytest.param(("frobnicate",), "argument COMMAND: invalid choice: "
                 "'frobnicate' (choose from 'bound', 'table', 'verify', "
                 "'omega', 'search')", id="unknown-command"),
    pytest.param((*BOUND_6_1_7, "--bogus"), "unrecognized arguments: --bogus",
                 id="unknown-option"),
    pytest.param((*BOUND_6_1_7, "--dig", "30"),
                 "unrecognized arguments: --dig", id="abbreviated-option"),
    pytest.param(("bound", "--k", "x", "--a", "1", "--b", "7"),
                 "argument --k: invalid int value: 'x'", id="k-not-int"),
    pytest.param((*BOUND_6_1_7, "--format", "xml"), "argument --format: "
                 "invalid choice: 'xml' (choose from 'text', 'csv', 'json')",
                 id="unknown-format"),
    pytest.param(("verify", "--k", "6", "--a", "1", "--b", "7"),
                 "the following arguments are required: --n",
                 id="verify-without-n"),
    pytest.param(("table", "--paper", "--k", "3"),
                 "argument --k: not allowed with argument --paper",
                 id="table-paper-and-k"),
    pytest.param(("table",), "one of the arguments --paper --k is required",
                 id="table-neither"),
    pytest.param(("bound",), "the following arguments are required: --k, "
                 "--a, --b", id="bound-without-options"),
    pytest.param((*BOUND_6_1_7, "--k"), "argument --k: expected one argument",
                 id="k-without-value"),
    pytest.param(("bound", "--k", "--a", "1", "--b", "7"),
                 "argument --k: expected one argument", id="k-before-option"),
    pytest.param((*BOUND_6_1_7, "--quadratic=1"),
                 "argument --quadratic: ignored explicit argument '1'",
                 id="flag-with-value"),
    pytest.param((*BOUND_6_1_7, "7"), "unrecognized arguments: 7",
                 id="stray-word"),
    # argv is read in order, and its first bad token is the one refused
    pytest.param(("bound", "--bogus", "--k", "x"),
                 "unrecognized arguments: --bogus", id="first-bad-token"),
    pytest.param(("bound", "--k", "0", "--bogus"), "Invalid value for '--k': "
                 "0 is not in the range x>=1.", id="range-before-later-token"),
    pytest.param(("verify", "--k", "6", "--a", "1", "--b", "7", "--n", ","),
                 "argument --n: invalid int_list value: ','", id="empty-n-list"),
    pytest.param(("bound", "--k", "6", "--a", "1", "--b", str(MAX_B + 2)),
                 f"Invalid value for '--b': {MAX_B + 2} is not in the range "
                 f"1<=x<={MAX_B}.", id="b-above-cap"),
    pytest.param((*BOUND_6_1_7, "--digits", "30", "--print-digits", "26"),
                 "--print-digits 26 is above --digits 30 - 5 = 25, the digits "
                 "the enclosures certify", id="print-digits-above-digits"),
    # the paper's cells, one rule for bound, omega and verify
    pytest.param(("bound", "--k", "6", "--a", "1", "--b", "8"),
                 "need b odd and b > 4a >= 4, got a=1, b=8", id="even-b"),
    pytest.param(("bound", "--k", "6", "--a", "2", "--b", "7"),
                 "need b odd and b > 4a >= 4, got a=2, b=7", id="b-not-above-4a"),
    pytest.param(("omega", "--a", "1", "--b", "4"),
                 "need b odd and b > 4a >= 4, got a=1, b=4", id="omega-cell"),
    pytest.param(("verify", "--k", "6", "--a", "1", "--b", "10", "--n", "1"),
                 "need b odd and b > 4a >= 4, got a=1, b=10", id="verify-cell"),
    pytest.param(("verify", "--k", "6", "--a", "1", "--b", "7", "--n", "1,2"),
                 "n must be odd, got 2", id="even-n"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_errors_exit_1_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"Error: {message}\n")


# a child that runs the CLI on argv[2:], then writes the name of every
# module loaded by then to the file argv[1] names, so that stdout and
# stderr hold the CLI's own output alone
REFUSED_RUN = ("import sys, irrbounds.cli as cli; code = cli.main(sys.argv[2:]); "
               "open(sys.argv[1], 'w').write(' '.join(sys.modules)); "
               "sys.exit(code)")
# what a refused command line may load of the package: the cell rule and
# Params are in exact_arith, which loads only math and the errors
REFUSAL_MODULES = {"irrbounds", "irrbounds.cli", "irrbounds.errors",
                   "irrbounds.exact_arith"}


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_refused_line_loads_no_engine_in_a_child(tmp_path, argv, message):
    # a fresh process: exit 1, no stdout, one stderr line, and no engine
    # module loaded, the cell rule's refusals included
    modules = tmp_path / "modules"
    child = _run_child("-c", REFUSED_RUN, str(modules), *argv)
    assert (child.returncode, child.stdout, child.stderr.decode()) == (
        1, b"", f"Error: {message}\n")
    loaded = {name for name in modules.read_text().split()
              if name.split(".")[0] == "irrbounds"}
    assert loaded <= REFUSAL_MODULES


@pytest.mark.parametrize("argv", [BOUND_6_1_7, _verify_n31(8), ("--help",)],
                         ids=["bound", "verify-n31", "help"])
def test_closed_stdout_exits_141_with_empty_stderr(argv):
    # stdout's reader is gone before the first write, as with `| head -c 0`:
    # exit 141, as for SIGPIPE, with no traceback and no "Exception
    # ignored" line at interpreter shutdown.  Buffered, the write fails at
    # the flush; unbuffered, at the write itself, which the help must not
    # swallow
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "irrbounds", *argv],
                                   stdout=write_end, stderr=subprocess.PIPE,
                                   env={**env, **unbuffered}, timeout=120)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b""), unbuffered
