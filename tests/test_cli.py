"""Expression language, disk cache, CLI verbs, and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from magforms.cache import SeriesCache
from magforms.cli import main
from magforms.exprs import ParseError, _eval, evaluate, normalize, parse_expression
from magforms.forms import eisenstein, named_form
from magforms.halfint import named_plus_form, plus_basis
from magforms.lifts import phi, psi
from magforms.series import DomainError, QSeries, UsageError


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "magforms.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


def test_expand_q_literal():
    out = evaluate("q", 50, trim=True)
    assert out.to_json_dict() == {"lead": 1, "prec": 1, "coeffs": ["1"]}


def test_expand_quotient():
    out = evaluate("Delta/E4^2", 50)
    assert out.lead == 1 and out.prec == 50
    assert out.coefficient(1) == 1 and out.coefficient(2) == -504


def test_expand_monomial():
    out = evaluate("f(0,1,0)", 3)
    assert out == eisenstein(4, 3)


def test_expression_operators():
    lhs = evaluate("delta(E4)", 20)
    rhs = evaluate("(E2*E4 - E6)/3", 20)
    assert lhs.agrees_with(rhs)
    anti = evaluate("antiderivative(Delta/E4^2, 1)", 10)
    assert anti.coefficient(2) == -252
    dil = evaluate("dilate(E2, 4)", 10)
    assert dil.coefficient(4) == -24
    neg = evaluate("-E4 + E4", 10)
    assert neg.is_zero_window()
    scaled = evaluate("3/2*f(1,-1,1) - f(0,1,0)", 10)
    assert scaled.coefficient(0) == Fraction(1, 2)


@pytest.mark.parametrize(
    "text, prec, lead",
    [
        ("1/Delta^3", 1, -3),
        ("1/Delta^3", 40, -3),
        ("1/(E4-1)", 1, -1),
        ("1/(E4-1)", 40, -1),
        ("q^-1", 0, -1),
        ("q^-1", 1, -1),
        ("q^-1", 40, -1),
    ],
)
def test_evaluate_widens_once_by_the_shortfall(text, prec, lead):
    # a pass at the requested window comes up short; the widened pass covers it
    assert _eval(parse_expression(text), prec).prec < prec
    out = evaluate(text, prec)
    assert (out.lead, out.prec) == (lead, prec)
    assert out == evaluate(text, prec + 5).truncate(prec)


def test_evaluate_shortfall_at_window_zero():
    # the q leaf works through q^1 at least, so the widened pass starts there
    assert evaluate("q^-1", 0).to_json() == '{"coeffs":["1","0"],"lead":-1,"prec":0}'
    # Delta cannot be built at window 0, and E4 - 1 is zero on it
    with pytest.raises(UsageError):
        evaluate("1/Delta^3", 0)
    with pytest.raises(DomainError):
        evaluate("1/(E4-1)", 0)


def test_parse_errors():
    for bad in ("E4 +", "nope", "f(1,2)", "delta(", "q q", "delta(E4, 7)"):
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_normalize():
    assert normalize(" Delta / E4 ^ 2 ") == "Delta/E4^2"


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = SeriesCache(tmp_path)
    key = cache.key("payload")
    assert cache.get(key) is None
    obj = {"lead": 1, "prec": 2, "coeffs": ["1", "2"]}
    cache.put(key, obj)
    assert cache.get(key) == obj
    disabled = SeriesCache(tmp_path, enabled=False)
    assert disabled.get(key) is None


def test_cache_hit_equals_recomputation(tmp_path):
    env = {"MAGFORMS_CACHE_DIR": str(tmp_path)}
    first = run_cli("expand", "Delta/E4^2", "--prec", "30", env_extra=env)
    second = run_cli("expand", "Delta/E4^2", "--prec", "30", env_extra=env)
    nocache = run_cli("expand", "Delta/E4^2", "--prec", "30", "--no-cache", env_extra=env)
    assert first.returncode == second.returncode == nocache.returncode == 0
    assert first.stdout == second.stdout == nocache.stdout


@pytest.mark.parametrize("entry", ["{}", "[1,2]", '{"lead":1,"prec":0,"coeffs":[]}'])
def test_cli_expand_repairs_corrupt_cache_entry(tmp_path, entry):
    env = {"MAGFORMS_CACHE_DIR": str(tmp_path)}
    args = ("expand", "F4a", "--prec", "30")
    assert run_cli(*args, env_extra=env).returncode == 0
    (entry_file,) = tmp_path.glob("*.json")
    good = entry_file.read_text()
    entry_file.write_text(entry)
    proc = run_cli(*args, env_extra=env)
    nocache = run_cli(*args, "--no-cache", env_extra=env)
    assert proc.returncode == nocache.returncode == 0
    assert proc.stdout == nocache.stdout
    assert entry_file.read_text() == good


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------


def test_cli_expand_q(tmp_path):
    proc = run_cli("expand", "q", "--no-cache")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lead": 1, "prec": 1, "coeffs": ["1"]}


def test_cli_expand_writes_file(tmp_path):
    out = tmp_path / "series.json"
    proc = run_cli("expand", "E4", "--prec", "3", "--out", str(out), "--no-cache")
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["coeffs"] == ["1", "240", "2160", "6720"]


def test_cli_expand_f6half_below_its_normalising_coefficient():
    proc = run_cli("expand", "f6half", "--prec", "2", "--no-cache")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lead": -1, "prec": 2, "coeffs": ["-1/384", "0", "0", "0"]}


def test_cli_parse_error_exit_code():
    proc = run_cli("expand", "E4 +", "--no-cache")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, code",
    [
        (("expand", "(" * 200 + "q" + ")" * 200, "--prec", "5", "--no-cache"), 2),
        (("expand", "+".join(["q"] * 5000), "--prec", "5", "--no-cache"), 0),
        (("reduce", "(" * 1200 + "f(0,1,0)" + ")" * 1200), 2),
        (("reduce", "+".join(["f(0,1,0)"] * 5000)), 0),
        (("congruence", "(" * 1200 + "Delta" + ")" * 1200, "--prec", "20"), 2),
        (("expand", "delta(E4, 7)", "--prec", "5", "--no-cache"), 2),
    ],
    ids=["nested200", "sum5000", "reduce_nested1200", "reduce_sum5000", "congruence_nested1200",
         "delta_arg"],
)
def test_cli_deep_long_or_malformed_expression_exit_code(args, code):
    # the parser and evaluation recurse per nesting level: too deep a nesting is a
    # usage error, reported on one line without a traceback, as is a malformed
    # call; a run of + and - is one node, so a sum of any length evaluates
    proc = run_cli(*args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    elif args[0] == "expand":
        assert json.loads(proc.stdout) == {"lead": 1, "prec": 5, "coeffs": ["5000", "0", "0", "0", "0"]}
    else:
        out = json.loads(proc.stdout)
        assert out["input"] == "5000*f(0,1,0)" and out["verified"] is True


def test_cli_unlift_resolves_a_plus_form_name_before_a_file(tmp_path, monkeypatch, capsys):
    # a file in the working directory named like a plus form is not read, as in lift
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f4a").write_text(named_form("Delta", 10).to_json())
    assert main(["unlift", "f4a", "--k", "2", "--prec", "10"]) == 0
    assert capsys.readouterr().out == phi(named_plus_form("f4a", 10).series, 2).to_json() + "\n"


def test_cli_verify_th1_small():
    proc = run_cli("verify", "th1", "--prec", "200")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_cli_verify_json_schema():
    proc = run_cli("verify", "th2", "--prec", "120", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "magforms-report/1"
    assert payload["verdict"] == "PASS"
    assert all(c["ok"] for c in payload["checks"])
    assert "timing" in payload


def test_cli_reports_reproducible():
    a = run_cli("verify", "th1", "--prec", "150", "--json")
    b = run_cli("verify", "th1", "--prec", "150", "--json")
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    pa.pop("timing"), pb.pop("timing")
    assert pa == pb


def test_cli_congruence_exit_codes():
    good = run_cli("congruence", "F4a", "--prime", "5", "--n", "1", "--prec", "200")
    assert good.returncode == 0
    bad = run_cli("congruence", "Delta", "--prime", "11", "--n", "1", "--prec", "200")
    assert bad.returncode == 1  # counterexample found
    usage = run_cli("congruence", "what(", "--prime", "5")
    assert usage.returncode == 2


def test_cli_congruence_magnetic_expression():
    # the exponent-5 member of the family is not magnetic: witness reported
    bad = run_cli("congruence", "E2^5*delta(E4)/E4", "--order", "1", "--prec", "100")
    assert bad.returncode == 1
    assert "q^11" in bad.stdout
    good = run_cli("congruence", "E2*delta(E6)/E6", "--order", "1", "--prec", "150")
    assert good.returncode == 0
    # p-integrality mode: 7 does not divide any denominator for the m=5 case
    mod7 = run_cli(
        "congruence", "E2^5*delta(E4)/E4", "--order", "1", "--prec", "100",
        "--prime", "7",
    )
    assert mod7.returncode == 0


def test_cli_malformed_series_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a series"}')
    proc = run_cli("unlift", str(bad), "--k", "2")
    assert proc.returncode == 2
    lifted = run_cli("lift", str(bad), "--k", "2")
    assert lifted.returncode == 2
    assert "malformed series file" in lifted.stderr


def test_cli_basis_metadata():
    proc = run_cli("basis", "--k", "2", "--m", "3", "--prec", "10")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["k"] == 2 and payload["m"] == 3
    assert "pool_s_max" in payload
    series = QSeries.from_json_dict(payload["series"])
    assert series.coefficient(-3) == 1


def test_cli_lift_unlift_round_trip(tmp_path):
    lifted = run_cli("lift", "f4a", "--prec", "900")
    assert lifted.returncode == 0
    series = QSeries.from_json_dict(json.loads(lifted.stdout))
    target = named_form("F4a", series.prec)
    assert series.agrees_with(target, 1, series.prec)

    src = tmp_path / "lifted.json"
    src.write_text(json.dumps({"k": 2, "series": series.to_json_dict()}))
    back = run_cli("unlift", str(src), "--k", "2")
    assert back.returncode == 0
    sq = QSeries.from_json_dict(json.loads(back.stdout))
    assert sq.coefficient(1) == 1


def test_cli_basis_file_feeds_lift(tmp_path):
    out = tmp_path / "f7.json"
    made = run_cli("basis", "--k", "2", "--m", "7", "--prec", "110", "--out", str(out))
    assert made.returncode == 0
    lifted = run_cli("lift", str(out))
    assert lifted.returncode == 0
    series = QSeries.from_json_dict(json.loads(lifted.stdout))
    assert series.lead == 1 and series.prec == 10


def test_cli_lift_precision_shortfall_exit_code():
    proc = run_cli("lift", "basis:k=2,m=7", "--k", "2", "--prec", "0")
    assert proc.returncode == 3
    # F4a starts at q^1, so window 0 is a shortfall (3), not a usage error (2)
    expanded = run_cli("expand", "F4a", "--prec", "0", "--no-cache")
    assert expanded.returncode == 3


def test_cli_lift_basis_source_takes_its_own_k():
    proc = run_cli("lift", "basis:k=2,m=3", "--prec", "40")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == psi(plus_basis(2, [3], 40)[3].series, 2).to_json()


def test_cli_lift_checks_k_before_it_evaluates_its_source(tmp_path, monkeypatch, capsys):
    # an expression other than basis:k=K,m=M names no k; the window is not built first
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the source was evaluated")

    monkeypatch.setattr("magforms.cli.evaluate", refuse)
    assert main(["lift", "F4a"]) == 2
    assert capsys.readouterr().err == "error: source 'F4a' needs an explicit --k\n"


def test_cli_expand_coefficients_past_4300_digits(tmp_path):
    # CPython refuses int/str conversions past 4300 digits by default; the printed
    # JSON and the cache entry both go through them
    env = {"MAGFORMS_CACHE_DIR": str(tmp_path)}
    first = run_cli("expand", "10^5000", "--prec", "0", env_extra=env)
    assert first.returncode == 0, first.stderr
    assert QSeries.from_json(first.stdout) == QSeries(0, [10**5000])
    (entry,) = tmp_path.glob("*.json")
    written = entry.stat()
    second = run_cli("expand", "10^5000", "--prec", "0", env_extra=env)
    assert second.returncode == 0 and second.stdout == first.stdout
    # a miss would replace the entry with a new file; a hit leaves it alone
    assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (written.st_ino, written.st_mtime_ns)


def test_cli_lift_reads_coefficients_past_4300_digits(tmp_path):
    big = plus_basis(2, [3], 40)[3].series * 10**5000
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"k": 2, "series": big.to_json_dict()}))
    proc = run_cli("lift", str(src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == psi(big, 2).to_json()


def test_json_round_trip_past_4300_digits_restores_the_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)
    try:
        big = QSeries(-1, [Fraction(10**5000, 3), 0, -(10**6000)])
        assert QSeries.from_json(big.to_json()) == big
        assert repr(big).startswith("QSeries([-1,1]: 1" + "0" * 5000 + "/3*q^-1 + -1")
        assert sys.get_int_max_str_digits() == 4400
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_reduce():
    proc = run_cli("reduce", "f(2,0,0) - f(0,1,0)", "--prec", "120")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verified"] is True
    assert payload["delta_part"] == "12*f(1,0,0)"
    weight6 = run_cli("reduce", "f(2,-1,1) - f(0,0,1)", "--prec", "120")
    assert weight6.returncode == 0
    assert json.loads(weight6.stdout)["generators"]["F6"] == "-4608"
    unsupported = run_cli("reduce", "f(4,-2,0) - f(0,0,0)")
    assert unsupported.returncode == 2
    # a named form is an expression, not an element
    assert run_cli("reduce", "E4").returncode == 2


@pytest.mark.parametrize("rows", ["x", "99", "1,y"])
def test_cli_table1_bad_rows_exit_code(rows):
    # a malformed or unknown row id is a usage error, not a counterexample
    proc = run_cli("table1", "--rows", rows)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "E4", "--prec", "3", "--no-cache", "--out", "{file}/x.json"),
        ("expand", "E4", "--prec", "3", "--cache-dir", "{file}"),
        ("basis", "--k", "0", "--m", "3", "--prec", "8", "--out", "{file}/x.json"),
    ],
)
def test_cli_unwritable_path_exit_code(tmp_path, args):
    # a path that cannot be written is a usage error, not a counterexample
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    proc = run_cli(*(a.format(file=blocker) for a in args))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# a command line each verb accepts, and which of --json, --no-cache and --cache-dir it reads
_VERBS = {
    "expand": (("expand", "q"), ("--no-cache", "--cache-dir")),
    "verify": (("verify", "th1", "--prec", "10"), ("--json",)),
    "table1": (("table1", "--rows", "1", "--coeffs", "5", "--magnetic-prec", "20"), ("--json",)),
    "congruence": (("congruence", "Delta", "--prime", "5", "--prec", "10"), ("--json",)),
    "misc": (("misc", "--prec", "20", "--family-prec", "20"), ("--json",)),
    "basis": (("basis", "--k", "2", "--m", "3", "--prec", "10"), ()),
    "lift": (("lift", "f4a", "--prec", "10"), ()),
    "unlift": (("unlift", "Delta", "--k", "2", "--prec", "10"), ()),
    "reduce": (("reduce", "f(2,0,0) - f(0,1,0)"), ()),
}
_IGNORED = [
    (verb, option)
    for verb, (_, reads) in _VERBS.items()
    for option in (("--json",), ("--no-cache",), ("--cache-dir", "{tmp}"))
    if option[0] not in reads
]


@pytest.mark.parametrize(
    "args",
    [_VERBS[verb][0] + option for verb, option in _IGNORED]
    + [
        ("verify", "th:w4", "--prec", "10"),
        ("verify", "th:w6", "--prec", "10"),
        ("table1", "--rows", "1", "--extended"),
        ("expand", "q", "--no-cache", "--cache-dir", "{tmp}"),
    ],
    ids=[f"{verb}{option[0]}" for verb, option in _IGNORED]
    + ["verify_th:w4", "verify_th:w6", "table1_rows_extended", "expand_no_cache_cache_dir"],
)
def test_cli_option_its_verb_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, args):
    # each verb declares only the options it reads; the parser refuses any other, and
    # options that cancel each other, with exit 2 and its usage message
    monkeypatch.setenv("MAGFORMS_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: magforms") and "Traceback" not in err
