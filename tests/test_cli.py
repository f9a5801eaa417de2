import contextlib
import csv
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_python
from lovelab import conjectures, love
from lovelab.cli import _write_rows, main

PI = math.pi

FLOAT_17 = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ----------------------------------------------------------------------
# solve.
# ----------------------------------------------------------------------

def test_solve_single_row(capsys):
    code, out = run(capsys, ["solve", "--kappa", "1", "--nodes", "400"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["capacitance"]) > 0.0
    assert float(rows[0]["energy"]) > 0.0
    assert float(rows[0]["residual"]) <= 1e-8
    assert rows[0]["error"] == ""


def test_solve_usage_errors(capsys):
    assert main(["solve", "--kappa", "-1"]) == 2
    assert main(["solve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "--kappa", "inf"],
    ["solve", "--kappa", "nan"],
    ["solve", "--kappa-min", "nan", "--kappa-max", "1"],
    ["solve", "--kappa-min", "0.1", "--kappa-max", "inf"],
    ["compare-asymptotics", "--kappa", "nan"],
])
def test_non_finite_kappa_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_solve_strong_coupling_row(capsys):
    code, out = run(capsys, ["solve", "--kappa", "100"])
    assert code == 0
    row = parse_csv(out)[0]
    gamma = float(row["gamma"])
    corrected = PI ** 2 / 3.0 * (gamma / (gamma + 2.0)) ** 2
    assert abs(float(row["energy"]) - corrected) <= 1e-4


def test_solve_grid_sorted(capsys):
    code, out = run(capsys, ["solve", "--kappa-min", "0.2", "--kappa-max", "1.0",
                             "--kappa-points", "4"])
    assert code == 0
    kappas = [float(r["kappa"]) for r in parse_csv(out)]
    assert kappas == sorted(kappas)
    assert len(kappas) == 4


def test_output_deterministic_across_workers(capsys):
    for argv in (["solve", "--kappa-min", "0.3", "--kappa-max", "1.0",
                  "--kappa-points", "3"],
                 ["verify", "--which", "all"]):
        _, first = run(capsys, argv + ["--workers", "1"])
        _, second = run(capsys, argv + ["--workers", "3"])
        assert first == second


# ----------------------------------------------------------------------
# Fresh interpreters: what a command imports and which threads it starts.
# ----------------------------------------------------------------------

IMPORT_PROBE = """
import contextlib, io, json, sys, threading

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

started = []
start = threading.Thread.start

def counted_start(thread):
    started.append(thread.name)
    start(thread)

threading.Thread.start = counted_start

import lovelab.cli
steps = [["import lovelab.cli", 0, modules("scipy"), modules("concurrent"),
          threading.active_count(), len(started)]]
for argv in (["solve", "--kappa", "0.5"], ["fit-weak"],
             ["compare-asymptotics", "--kappa", "0.05"],
             ["verify", "--which", "gamma0"], ["verify", "--which", "gamma1"],
             ["verify", "--which", "residue"], ["verify", "--which", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = lovelab.cli.main([*argv, "--workers", "3"])
    steps.append([" ".join(argv), code, modules("scipy"), modules("concurrent"),
                  threading.active_count(), len(started)])
print(json.dumps(steps))
"""


def test_solver_commands_import_no_scipy():
    # no command starts a thread or loads an executor, whatever --workers
    # says; only verify's gamma2, integral4 and polylog groups load
    # scipy.special, which itself imports the concurrent.futures package but
    # not its thread or process executor.  gamma0, gamma1 and residue need
    # only Lambert W and load none, which is why a group alone integrates
    # its own rows rather than the suite's
    steps = json.loads(run_python(IMPORT_PROBE))
    *no_scipy, verify = steps
    for step, code, scipy, concurrent, threads, started in steps:
        assert code == 0, step
        assert threads == 1 and started == 0, step
        executors = {"concurrent.futures.thread", "concurrent.futures.process"}
        assert not executors & set(concurrent), step
    for step, code, scipy, concurrent, threads, started in no_scipy:
        assert scipy == concurrent == [], step
    assert "scipy.special" in verify[2]


# imports no json itself: one line per statement, the modules loaded after it
LOAD_PROBE = """
import contextlib, io, sys

steps = []
for statement in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        exec(statement)
    steps.append(" ".join(sorted(m for m in sys.modules if m == "lovelab"
                                 or m.startswith("lovelab.")
                                 or m in ("decimal", "fractions", "json"))))
print("\\n".join(steps))
"""


def loaded_modules(*statements):
    """The modules of LOAD_PROBE's list loaded after each statement, run in
    order in a fresh interpreter."""
    return [line.split() for line in run_python(LOAD_PROBE, *statements).splitlines()]


SOLVER = ["lovelab", "lovelab.cli", "lovelab.errors", "lovelab.love", "lovelab.quadrature"]
# fit-weak and compare-asymptotics load no fractions (nor the decimal that
# fractions imports); the identity suite's exact transform table does
EXPANSIONS = ["lovelab.asymptotics", "lovelab.specfun"]
IDENTITY_SUITE = ["decimal", "fractions", *EXPANSIONS, "lovelab.capacitor2d",
                  "lovelab.conjectures"]


@pytest.mark.parametrize("argv, loaded", [
    (["solve", "--kappa", "0.5"], SOLVER),
    (["solve", "--kappa", "0.5", "--format", "json"], ["json", *SOLVER]),
    (["fit-weak"], sorted(SOLVER + EXPANSIONS)),
    (["compare-asymptotics", "--kappa", "0.05"], sorted(SOLVER + EXPANSIONS)),
    (["verify", "--which", "all"], sorted(SOLVER + IDENTITY_SUITE)),
])
def test_each_command_loads_only_its_own_modules(argv, loaded):
    # in a fresh interpreter: `import lovelab` loads no submodule, and
    # `import lovelab.cli` only the solver, all that `solve` runs
    *imports, run = loaded_modules("import lovelab", "import lovelab.cli",
                                   f"assert lovelab.cli.main({argv!r}) == 0")
    assert imports == [["lovelab"], SOLVER]
    if argv[0] == "verify":             # scipy.special imports json itself
        run = [m for m in run if m != "json"]
    assert run == loaded


STAR_PROBE = """
from lovelab import *
star = sorted(name for name in globals() if not name.startswith("_"))
import lovelab as _lovelab
print(len(star), star == sorted(name for name in dir(_lovelab) if not name.startswith("_")))
"""


def test_star_import_gives_the_public_names():
    # the names resolved on first use are the names of dir(lovelab), which
    # test_surface pins
    assert run_python(STAR_PROBE).split() == ["43", "True"]


def test_the_identity_suite_loads_no_solver():
    *_, run = loaded_modules("import lovelab.conjectures", "lovelab.conjectures.run_all()")
    expected = sorted(IDENTITY_SUITE + ["lovelab", "lovelab.errors", "lovelab.quadrature"])
    assert [m for m in run if m != "json"] == expected


SEQUENCE_PROBE = """
import contextlib, io, json, sys
import lovelab.cli

outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = lovelab.cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


def run_sequence(*argvs):
    """[exit code, stdout] of each argv, run one after the other in one process."""
    return json.loads(run_python(SEQUENCE_PROBE, json.dumps(argvs)))


def test_parser_reuse_carries_no_option_over():
    # the parser is built once per process; a command must read exactly as
    # it does when it is the process's first
    default, help_text = ["solve", "--kappa", "0.5"], ["--help"]
    json_run, second, helped = run_sequence(
        ["solve", "--kappa", "0.5", "--nodes", "100", "--format", "json"],
        default, help_text)
    assert json_run[0] == 0 and json_run[1].startswith("[")
    assert second == run_sequence(default)[0]
    assert second[0] == 0 and second[1].startswith("kappa,")
    assert helped == run_sequence(help_text)[0]
    assert helped[0] == 0 and "usage: lovelab" in helped[1]


def test_scan_rows_depend_on_their_kappa_alone():
    # a 16-point scan across kappa ~ 0.192, above which the rows builder
    # skips its mid- and near-field pass, prints each row as a run at that
    # kappa alone does: after the scan in its process, and in a fresh
    # process that runs them in reverse order
    scan = ["solve", "--kappa-min", "0.05", "--kappa-max", "2", "--kappa-points", "16"]
    (code, out), *after_scan = run_sequence(scan, *(
        ["solve", "--kappa", f"{kappa:.16e}"] for kappa in np.geomspace(0.05, 2.0, 16)))
    header, *rows = out.splitlines()
    assert code == 0 and len(rows) == 16
    kappas = [row.split(",")[0] for row in rows]
    assert kappas == [f"{kappa:.16e}" for kappa in np.geomspace(0.05, 2.0, 16)]
    assert float(kappas[0]) < 0.19 < 0.2 < float(kappas[-1])
    reverse = run_sequence(*(["solve", "--kappa", kappa] for kappa in kappas[::-1]))[::-1]
    for runs in (after_scan, reverse):
        assert [code for code, _ in runs] == [0] * 16
        assert [out.splitlines() for _, out in runs] == [[header, row] for row in rows]


def test_seventeen_digit_cells(capsys):
    _, out = run(capsys, ["solve", "--kappa", "1"])
    row = parse_csv(out)[0]
    for key in ("kappa", "gamma", "capacitance", "energy"):
        assert FLOAT_17.match(row[key]), row[key]
        assert float(f"{float(row[key]):.16e}") == float(row[key])


def test_json_escapes_strings_and_nulls_non_finite(capsys):
    message = 'bad "value" in C:\\tmp'
    _write_rows(["kappa", "gamma", "energy", "error"],
                [{"kappa": 1.0, "gamma": math.nan, "energy": math.inf,
                  "error": message}], "json", None)
    out = capsys.readouterr().out
    assert json.loads(out) == [{"kappa": 1.0, "gamma": None, "energy": None,
                                "error": message}]
    assert '"kappa": 1.0000000000000000e+00' in out


def test_csv_quotes_cells_holding_commas(capsys):
    # the solver-floor message reads "...; for smaller kappa, use ..."
    code, out = run(capsys, ["solve", "--kappa", "9e-4"])
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(r) for r in rows] == [6, 6]
    assert "," in rows[1][5] and rows[1][0] == "8.9999999999999998e-04"


@pytest.mark.parametrize("argv, column, value", [
    (["solve", "--kappa", "1"], "capacitance", 0.5795738606506108),
    (["compare-asymptotics", "--kappa", "0.05"], "c_numeric", 5.4851577466051582),
    (["verify", "--which", "gamma0"], "digits", 17),
    (["fit-weak", "--synthetic", "takahashi"], "verdict", "takahashi"),
], ids=["solve", "compare-asymptotics", "verify", "fit-weak"])
def test_json_output(capsys, argv, column, value):
    # a float, an int and a str cell; each reads as its CSV cell does
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0].get("error") is None
    cell = rows[0][column]
    assert type(cell) is type(value)
    assert cell == (pytest.approx(value, rel=1e-12, abs=0) if isinstance(value, float) else value)
    _, out = run(capsys, argv)
    assert type(value)(parse_csv(out)[0][column]) == cell


def test_output_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, _ = run(capsys, ["solve", "--kappa", "1", "--output", str(path)])
    assert code == 0
    assert path.read_text().startswith("kappa,")


def test_output_onto_a_directory_is_usage_error(tmp_path):
    # its parent is a writable directory, so only the write itself fails
    code, out, err = run_quiet(["solve", "--kappa", "1", "--output", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write the table: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv", [["solve", "--kappa", "0.5"], ["verify", "--which", "all"]])
def test_output_onto_a_directory_is_refused_before_the_work(capsys, tmp_path, monkeypatch,
                                                              argv):
    calls = []

    def counted(function):
        def call(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(love, "solve_love", counted(love.solve_love))
    monkeypatch.setattr(conjectures, "run_all", counted(conjectures.run_all))
    # a directory, a missing one (its trailing separator names no file) and
    # the empty path, each with the message open() would give
    for path, error in [(str(tmp_path), "[Errno 21] Is a directory"),
                        (str(tmp_path / "nodir") + os.sep, "[Errno 21] Is a directory"),
                        ("", "[Errno 2] No such file or directory")]:
        assert main(argv + ["--output", path]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write the table: {error}: {path!r}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--kappa", "1"],
    ["verify", "--which", "gamma0"],
    ["fit-weak", "--synthetic", "takahashi"],
    ["compare-asymptotics", "--kappa", "0.05"],
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "rows.csv"
    assert main(argv + ["--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the table")
    assert len(captured.err.splitlines()) == 1


def test_unwritable_output_is_refused_before_the_work(capsys, tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the --output check")

    monkeypatch.setattr(love, "solve_love", no_solve)
    path = tmp_path / "missing" / "x.csv"
    assert main(["solve", "--kappa", "0.5", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the table")


# ----------------------------------------------------------------------
# fit-weak.
# ----------------------------------------------------------------------

def test_fit_weak_synthetic_exact(capsys):
    code, out = run(capsys, ["fit-weak", "--synthetic", "takahashi"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["verdict"] == "takahashi"
    target = 1.0 / 6.0 - 1.0 / PI ** 2
    assert abs(float(row["c2"]) - target) <= 1e-10


def test_fit_weak_solver_verdict(capsys):
    code, out = run(capsys, ["fit-weak", "--gamma-points", "6"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["verdict"] == "takahashi"
    target = 1.0 / 6.0 - 1.0 / PI ** 2
    assert abs(float(row["c2"]) - target) / target <= 0.10


def test_fit_weak_at_window_edge(capsys):
    # epsilon_of_gamma lands solves aimed at gamma = 1e-3 just below it;
    # the CLI accepts the edge, so the fit must accept the solved points
    code, out = run(capsys, ["fit-weak", "--gamma-min", "1e-3",
                             "--gamma-points", "5"])
    assert code == 0
    assert parse_csv(out)[0]["verdict"] == "takahashi"


def test_fit_weak_window_errors(capsys):
    assert main(["fit-weak", "--gamma-min", "1e-4"]) == 2
    assert main(["fit-weak", "--gamma-max", "0.2"]) == 2
    assert main(["fit-weak", "--gamma-points", "3"]) == 2
    capsys.readouterr()


def test_fit_weak_refuses_a_degenerate_grid():
    # gamma-min = gamma-max would fit five copies of one point
    code, out, err = run_quiet(["fit-weak", "--gamma-min", "0.01", "--gamma-max", "0.01"])
    assert (code, out) == (2, "")
    assert err == "error: need gamma-min < gamma-max\n"


@pytest.mark.parametrize("source", [[], ["--synthetic", "takahashi"]],
                         ids=["solver", "synthetic"])
def test_fit_weak_refuses_an_ill_conditioned_grid(source):
    # nine distinct gammas within one ulp cannot separate c2 from c3
    code, out, err = run_quiet(["fit-weak", "--gamma-min", "0.01",
                                "--gamma-max", "0.01000000000000001", *source])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: design matrix ill-conditioned \(rank 1 of 2, "
                        r"sv ratio [0-9.]+e\+16\)\n", err)


# ----------------------------------------------------------------------
# verify.
# ----------------------------------------------------------------------

def test_verify_single(capsys):
    code, out = run(capsys, ["verify", "--which", "gamma1"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert int(rows[0]["digits"]) >= 13


def test_verify_all(capsys):
    code, out = run(capsys, ["verify", "--which", "all"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 13
    assert all(int(r["digits"]) >= 13 for r in rows)


def test_verify_exit_follows_suite_thresholds(capsys, monkeypatch):
    monkeypatch.setattr(conjectures, "MIN_DIGITS", 18)
    code, out = run(capsys, ["verify", "--which", "gamma1"])
    assert code == 1
    assert len(parse_csv(out)) == 1


def test_verify_unknown_name(capsys):
    assert main(["verify", "--which", "nonsense"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# compare-asymptotics.
# ----------------------------------------------------------------------

def test_compare_table(capsys):
    code, out = run(capsys, ["compare-asymptotics", "--kappa-min", "0.02",
                             "--kappa-max", "0.1", "--kappa-points", "3"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["err_extended"]) < float(row["err_kirchhoff"])
    ratios = [float(r["err_extended"]) / float(r["kappa"]) for r in rows]
    assert ratios == sorted(ratios)      # rows ascend in kappa


def test_compare_usage_errors(capsys):
    assert main(["compare-asymptotics", "--kappa-points", "0",
                 "--kappa-min", "0.05", "--kappa-max", "0.1"]) == 2
    assert main(["compare-asymptotics", "--kappa", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "compare-asymptotics"])
def test_kappa_below_floor_is_error_row(capsys, command):
    code, out = run(capsys, [command, "--kappa-min", "9e-4", "--kappa-max",
                             "0.05", "--kappa-points", "2"])
    assert code == 1
    below, solved = parse_csv(out)
    assert float(below["kappa"]) == 9e-4
    assert "is below the solver floor 0.001" in below["error"]
    assert solved["error"] == ""


def test_kappa_whose_pi_kappa_overflows_is_error_row(capsys):
    assert main(["solve", "--kappa", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (row,) = csv.DictReader(io.StringIO(captured.out))
    assert float(row["kappa"]) == 1e308
    assert row["gamma"] == ""
    assert row["error"] == "pi * kappa must lie in (0, inf), got inf"


# ----------------------------------------------------------------------
# configuration plumbing.
# ----------------------------------------------------------------------

def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults for the scan\nkappa = 2.0\nnodes = 300\n")
    _, from_config = run(capsys, ["--config", str(config), "solve"])
    assert float(parse_csv(from_config)[0]["kappa"]) == 2.0
    _, from_flag = run(capsys, ["--config", str(config), "solve",
                                "--kappa", "1.0"])
    assert float(parse_csv(from_flag)[0]["kappa"]) == 1.0


def test_config_file_sets_format_and_output(capsys, tmp_path):
    table = tmp_path / "rows.json"
    config = tmp_path / "run.cfg"
    config.write_text(f"format = json\noutput = {table}\n")
    code, out = run(capsys, ["--config", str(config), "solve", "--kappa", "1"])
    assert code == 0 and out == ""
    assert json.loads(table.read_text())[0]["kappa"] == 1.0
    # the flags beat the file
    other = tmp_path / "rows.csv"
    code, _ = run(capsys, ["--config", str(config), "solve", "--kappa", "2",
                           "--format", "csv", "--output", str(other)])
    assert code == 0 and other.read_text().startswith("kappa,")
    assert json.loads(table.read_text())[0]["kappa"] == 1.0
    config.write_text("format = xml\n")
    assert main(["--config", str(config), "solve", "--kappa", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: format")


def test_config_comment_starts_only_at_line_start_or_after_whitespace(capsys, tmp_path):
    # a '#' inside a value is part of it: the table goes to run#2.csv, as
    # --output 'run#2.csv' sends it, not to a file named run
    table = tmp_path / "run#2.csv"
    config = tmp_path / "run.cfg"
    config.write_text(f"# a whole-line comment\noutput = {table}\nkappa = 1\t# after a tab\n")
    code, out = run(capsys, ["--config", str(config), "solve"])
    assert code == 0 and out == ""
    assert table.read_text().startswith("kappa,")
    assert not (tmp_path / "run").exists()
    # so a value with a '#' glued to it is that whole value
    config.write_text("kappa = 0.5#x\n")
    assert main(["--config", str(config), "solve"]) == 2
    assert "0.5#x" in capsys.readouterr().err


def test_config_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    # a file an editor saved as UTF-8 with a BOM reads as the plain one
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(b"kappa = 0.5\n")
    marked.write_bytes(b"\xef\xbb\xbfkappa = 0.5\n")
    code, want = run(capsys, ["--config", str(plain), "solve"])
    assert code == 0 and want.startswith("kappa,")
    assert run(capsys, ["--config", str(marked), "solve"]) == (0, want)


def test_config_file_rejects_garbage(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("kappa 2.0\n")
    assert main(["--config", str(config), "solve", "--kappa", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lines, named", [
    ("kapa = 0.5\ntol = 1e-30\n", "kapa, tol"),
    ("which = all\n", "which"),            # an option of verify, not of solve
    ("config = other.cfg\n", "config"),
    ("workers = 2\n", "workers"),          # --workers is a flag only
])
def test_config_file_rejects_unknown_keys(capsys, tmp_path, lines, named):
    config = tmp_path / "bad.cfg"
    config.write_text(lines)
    assert main(["--config", str(config), "solve", "--kappa", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.rstrip().endswith(named)


def test_env_var_thread_override(capsys, monkeypatch):
    # LOVE_LAB_THREADS is not read: even a malformed value moves no byte
    argv = ["solve", "--kappa-min", "0.5", "--kappa-max", "1.0",
            "--kappa-points", "2"]
    _, base = run(capsys, argv)
    monkeypatch.setenv("LOVE_LAB_THREADS", "abc")
    code, threaded = run(capsys, argv)
    assert code == 0
    assert base == threaded


# ----------------------------------------------------------------------
# The exit contract over generated input: every malformed flag value or
# config line exits 2 with an error line, and no exception escapes.  No
# strategy builds an input that would start a solve.
# ----------------------------------------------------------------------

def run_quiet(argv):
    """Exit status, stdout and stderr of one in-process run; argparse's own
    usage errors leave through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv):
    code, out, err = run_quiet(argv)
    assert code == 2, (argv, out, err)
    assert out == ""
    assert "error:" in err.rstrip("\n").split("\n")[-1]


def text(exclude=""):
    return st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00" + exclude), max_size=12)


def refused_by(cast, strategy):
    """The strategy's texts that cast rejects with a ValueError."""
    def refused(value):
        try:
            cast(value)
        except ValueError:
            return True
        return False
    return strategy.filter(refused)


def bad_kappa(strategy):
    return st.one_of(refused_by(float, strategy), st.floats(max_value=0.0).map(repr),
                     st.sampled_from(["nan", "inf", "-inf"]))


def bad_count(floor):
    """Text int() rejects, or an integer below floor."""
    return st.one_of(refused_by(int, text()), st.integers(max_value=floor - 1).map(str))


GRID = ["--kappa-min", "0.5", "--kappa-max", "1", "--kappa-points", "2"]

BAD_FLAGS = st.one_of(
    bad_kappa(text()).map(lambda v: ["solve", f"--kappa={v}"]),
    bad_kappa(text()).map(lambda v: ["compare-asymptotics", f"--kappa={v}"]),
    bad_count(1).map(lambda v: ["solve", *GRID[:4], f"--kappa-points={v}"]),
    bad_count(5).map(lambda v: ["fit-weak", f"--gamma-points={v}"]),
    bad_count(1).map(lambda v: ["verify", "--which", "residue", f"--workers={v}"]),
    bad_count(love._MIN_NODES).map(lambda v: ["solve", "--kappa", "1", f"--nodes={v}"]),
    bad_count(love._MIN_NODES).map(
        lambda v: ["compare-asymptotics", "--kappa", "0.1", f"--nodes={v}"]),
    bad_count(love._MIN_NODES).map(lambda v: ["fit-weak", f"--nodes={v}"]),
    text().filter(lambda v: v != "all" and v not in conjectures.SUITE).map(
        lambda v: ["verify", f"--which={v}"]),
    text().filter(lambda v: v not in ("csv", "json")).map(
        lambda v: ["verify", "--which", "gamma0", f"--format={v}"]),
)

# one config line: '#' (at the line's start or after whitespace) starts a
# comment and '=' splits key from value
CONFIG_TEXT = text(exclude="\n\r#=")
SOLVE_OPTIONS = {"kappa", "kappa_min", "kappa_max", "kappa_points", "nodes",
                 "format", "output"}
BAD_CONFIG_LINES = st.one_of(
    CONFIG_TEXT.filter(str.strip),                         # no '='
    st.tuples(CONFIG_TEXT.filter(
        lambda k: k.strip().replace("-", "_") not in SOLVE_OPTIONS),
              CONFIG_TEXT).map(" = ".join),                # unknown key
    bad_kappa(CONFIG_TEXT).map("kappa = {}".format),
    st.integers(max_value=love._MIN_NODES - 1).map("nodes = {}".format),
    CONFIG_TEXT.filter(lambda v: v.strip() not in ("csv", "json")).map("format = {}".format),
)


@settings(max_examples=60, deadline=None)
@given(argv=BAD_FLAGS)
@example(argv=["verify", "--which", "residue", "--workers", "0"])
@example(argv=["solve", "--kappa", "1", "--nodes", "8"])
@example(argv=["compare-asymptotics", "--kappa", "0.1", "--nodes", "8"])
@example(argv=["fit-weak", "--nodes", "3"])
@example(argv=["fit-weak", "--synthetic", "nope"])
# a count numpy cannot allocate is refused with the usage errors, as solve
# and compare-asymptotics refuse it, not raised from the grid
@example(argv=["fit-weak", "--gamma-points", "1000000000000000000000"])
@example(argv=["fit-weak", "--gamma-points", "1000000000000000000000",
               "--synthetic", "takahashi"])
def test_malformed_flag_values_exit_2(argv):
    assert_usage_error(argv)


@settings(max_examples=40, deadline=None)
@given(line=BAD_CONFIG_LINES)
@example(line="workers = 0")
@example(line="nodes = 8")
@example(line="output =")
def test_malformed_config_lines_exit_2(tmp_path_factory, line):
    config = tmp_path_factory.mktemp("config") / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert_usage_error(["--config", str(config), "solve", *GRID])
