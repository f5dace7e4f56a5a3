"""Command-line interface: parsing, output formats, exit codes, determinism."""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import warnings

import pytest

import dhratio
from dhratio import cli, suites
from dhratio.cli import main
from dhratio.dhfun import f

# exit codes, mirroring the module docstring
OK = 0
BAD_INPUT = 2
NO_CONVERGE = 3


def run(args, capsys):
    status = main(args)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_parser_subcommands_are_the_command_table():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)


# ----------------------------------------------------------------------
# eval / ratio
# ----------------------------------------------------------------------


def test_eval_json_payload(capsys):
    status, out, _ = run(["eval", "0.3+2i", "--format", "json"], capsys)
    assert status == OK
    payload = json.loads(out)
    pt = payload["records"][0]
    assert pt["sigma"] == 0.3 and pt["t"] == 2.0
    want = f(0.3 + 2j).value.z
    assert abs(complex(pt["value_re"], pt["value_im"]) - want) < 1e-14
    assert pt["est_abs_err"] < 1e-10
    assert list(payload) == ["command", "records"]


def test_eval_accepts_j_suffix_and_csv(capsys):
    status, out, _ = run(["eval", "2+0j", "--format", "csv"], capsys)
    assert status == OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("sigma,t,")
    assert len(lines) == 2


def test_eval_rejects_garbage_complex(capsys):
    status, _, err = run(["eval", "spam", "--format", "json"], capsys)
    assert status == BAD_INPUT
    assert json.loads(err)["error"] == "DomainError"


def test_eval_takes_a_negative_real_part_after_double_dash(capsys):
    status, out, _ = run(["eval", "--format", "json", "--", "-2+5i"], capsys)
    assert status == OK
    pt = json.loads(out)["records"][0]
    assert (pt["sigma"], pt["t"]) == (-2.0, 5.0)


def test_eval_overflow_is_an_input_error(capsys):
    status, _, err = run(["eval", "--format", "json", "--", "-400+5i"], capsys)
    assert status == BAD_INPUT
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "overflows float64" in payload["message"]


def test_ratio_at_pole_is_an_input_error(capsys):
    status, _, err = run(["ratio", "2+0i", "--format", "json"], capsys)
    assert status == BAD_INPUT
    assert json.loads(err)["error"] == "PoleError"


def test_ratio_reports_unit_modulus_on_line(capsys):
    status, out, _ = run(["ratio", "0.5+3i", "--format", "json"], capsys)
    assert status == OK
    pt = json.loads(out)["records"][0]
    assert abs(pt["log_abs"]) < 1e-12


def test_ratio_far_up_runs_without_warnings(capsys):
    for point in ("0.5+1e155i", "0.5+1e300i"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, _ = run(["ratio", point, "--format", "json"], capsys)
        assert status == OK, point
        assert json.loads(out)["records"][0]["log_abs"] == 0.0


def test_ratio_far_up_off_the_line_keeps_log_abs(capsys):
    # log|X| = 71.33445005202037 at 0.3+1e155i (mpmath); past Re s = 2038
    # the shift of Gamma(1 - s) is out of budget, an input error that names
    # the limit on s itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, _ = run(["ratio", "0.3+1e155i", "--format", "json"], capsys)
    assert status == OK
    assert json.loads(out)["records"][0]["log_abs"] == 71.33445005202034
    status, _, err = run(["ratio", "2100+1i", "--format", "json"], capsys)
    assert status == BAD_INPUT
    assert json.loads(err)["error"] == "DomainError"
    assert "Re s <= 2038" in json.loads(err)["message"]


def test_ratio_past_the_arg_gamma_limit_is_an_input_error(capsys):
    # arg X takes arg Gamma(1 - s), which leaves float64 past |Im s| = 2.5e305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, _, err = run(["ratio", "0.3+1e306i", "--format", "json"], capsys)
    assert status == BAD_INPUT
    assert json.loads(err)["error"] == "DomainError"
    assert "|Im| <= 2.5e+305" in json.loads(err)["message"]


def test_ratio_past_the_log_gamma_limit_is_an_input_error(capsys):
    # log|X| takes log|Gamma(1 - s)|, which leaves float64 below Re s =
    # -2.5e305; f there has long overflowed, and eval says so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, _, err = run(["ratio", "--format", "json", "--", "-3e305+1i"], capsys)
        assert status == BAD_INPUT
        assert json.loads(err)["error"] == "DomainError"
        assert "Re s >= -2.5e+305" in json.loads(err)["message"]
        status, _, err = run(["eval", "--format", "json", "--", "-3e305+1i"], capsys)
    assert status == BAD_INPUT
    assert "|f| overflows float64" in json.loads(err)["message"]


def test_eval_past_the_height_limit_is_an_input_error(capsys):
    # past t = 8.3e18 f's column count wrapped int64 and 0.5+1e19i printed
    # a wrong |f| with exit 0; past 1e8 the point is refused, naming the limit
    for point in ("0.5+1e19i", "0.5+1e20i"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run(["eval", point, "--format", "json"], capsys)
        assert status == BAD_INPUT and out == "", point
        assert json.loads(err)["error"] == "DomainError"
        assert "|Im s| <= 1e+08" in json.loads(err)["message"]


# ----------------------------------------------------------------------
# curve / kappa
# ----------------------------------------------------------------------


def test_curve_requires_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--format", "csv"])
    capsys.readouterr()
    assert exc.value.code == BAD_INPUT


def test_curve_rejects_malformed_window(capsys):
    status, _, err = run(
        ["curve", "--window", "0,1,2", "--format", "json"], capsys
    )
    assert status == BAD_INPUT
    assert json.loads(err)["error"] == "DomainError"


def test_negative_window_needs_equals_sign(capsys):
    # argparse reads "-2,..." as an option unless it is joined with "="
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--window", "-2,-1,0.9,1.5", "--step", "0.5"])
    assert exc.value.code == BAD_INPUT
    assert "expected one argument" in capsys.readouterr().err
    status, _, _ = run(["curve", "--window=-2,-1,0.9,1.5", "--step", "0.5"], capsys)
    assert status == OK


def test_curve_csv_schema(capsys):
    status, out, _ = run(
        ["curve", "--window", "0,1,0.9,1.5", "--step", "0.05"], capsys
    )
    assert status == OK
    lines = out.strip().splitlines()
    assert lines[0] == "component_id,sigma,t"
    assert len(lines) > 10


def test_kappa_json_fields(capsys):
    status, out, _ = run(["kappa", "--format", "json"], capsys)
    assert status == OK
    payload = json.loads(out)
    assert abs(payload["trace_value"] - 1.21164) < 1e-3
    assert abs(payload["root_value"] - 1.21164) < 1e-3
    assert payload["agreement"] < 1e-6


# ----------------------------------------------------------------------
# zeros / scan
# ----------------------------------------------------------------------


def test_zeros_csv_and_parallel_determinism(tmp_path, capsys):
    args = ["zeros", "--rect", "0,1,4,10", "--format", "csv"]
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert main(args + ["--out", str(p1), "--jobs", "1"]) == OK
    assert main(args + ["--out", str(p2), "--jobs", "2"]) == OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["sigma", "t", "residual"]
    assert len(lines) == 3  # header + the two line zeros below t=10


def test_scan_finds_line_zeros(capsys):
    status, out, _ = run(
        ["scan", "--t0", "4", "--t1", "10", "--format", "json"], capsys
    )
    assert status == OK
    recs = json.loads(out)["records"]
    assert [round(r["t"], 6) for r in recs] == [5.094160, 8.939914]
    assert all(r["sigma"] == 0.5 for r in recs)


def test_scan_rejects_reversed_range(capsys):
    status, _, _ = run(["scan", "--t0", "10", "--t1", "4"], capsys)
    assert status == BAD_INPUT


@pytest.mark.parametrize(
    "args, message",
    [
        (["scan", "--t0", "0", "--t1", "inf"], "t0, t1 and step must be finite"),
        (["scan", "--t0", "0", "--t1", "30", "--step", "inf"], "t0, t1 and step must be finite"),
        (["curve", "--window", "0,1,0,1", "--step", "inf"], "step must be positive and finite"),
    ],
)
def test_non_finite_heights_and_steps_are_input_errors(args, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run(args + ["--format", "json"], capsys)
    assert (status, out) == (BAD_INPUT, "")
    assert json.loads(err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize(
    "args, message",
    [
        (["scan", "--t0", "0", "--t1", "1", "--step", "1e-300"], "1e+300 steps of 1e-300"),
        (["curve", "--window", "0,1,0,1", "--step", "1e-300"], "1e+300 steps of 1e-300"),
        (["scan", "--t0", "0", "--t1", "1", "--step", "5e-324"], "inf steps of 4.94066e-324"),
        (["curve", "--window", "0,1,0,1", "--step", "5e-324"], "inf steps of 4.94066e-324"),
        (["zeros", "--rect=-1e308,1e308,0,1"], "overflows float64"),
        (["curve", "--window=-1e308,1e308,0,1", "--step", "1"], "overflows float64"),
        (["zeros", "--rect", "0,1,0,1e7"], "4e+07 cells of side 0.25"),
    ],
)
def test_oversized_axes_and_rectangles_are_input_errors(args, message, capsys):
    # each ran into numpy's size limit, math.ceil(inf) or an infinite
    # width with a traceback (exit 1), or looped without bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run(args + ["--format", "json"], capsys)
    assert (status, out) == (BAD_INPUT, "")
    payload = json.loads(err)
    assert payload["error"] == "DomainError" and message in payload["message"]


# ----------------------------------------------------------------------
# verify / audit
# ----------------------------------------------------------------------


def test_verify_single_suite(capsys):
    status, out, _ = run(
        ["verify", "--suite", "specfun", "--format", "json"], capsys
    )
    assert status == OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = [s["name"] for s in payload["suites"]]
    assert names == ["specfun"]
    assert all(c["passed"] for s in payload["suites"] for c in s["checks"])


def test_verify_seed_is_echoed_and_seeds_the_draws(capsys):
    measured = {}
    for seed in ("7", "42"):
        args = ["verify", "--suite", "xratio", "--seed", seed, "--format", "json"]
        status, out, _ = run(args, capsys)
        assert status == OK
        payload = json.loads(out)
        assert payload["seed"] == int(seed)
        measured[seed] = [c["measured"] for s in payload["suites"] for c in s["checks"]]
    assert measured["7"] != measured["42"]


def test_verify_negative_seed_is_an_input_error(capsys):
    args = ["verify", "--suite", "xratio", "--seed", "-1", "--format", "json"]
    status, _, err = run(args, capsys)
    assert status == BAD_INPUT
    assert json.loads(err) == {
        "error": "DomainError",
        "message": "seed must be a non-negative integer",
    }


def test_seed_is_a_verify_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "3+0i", "--seed", "7"])
    capsys.readouterr()
    assert exc.value.code == BAD_INPUT


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])
    capsys.readouterr()


def test_audit_csv_long_format(capsys):
    status, out, _ = run(
        ["audit", "--rect", "0,1,5,6", "--format", "csv"], capsys
    )
    assert status == OK
    lines = out.strip().splitlines()
    assert lines[0] == "claim_id,input,metric,value"
    claim_ids = {ln.split(",")[0] for ln in lines[1:]}
    assert "Lemma1" in claim_ids and "AppendixA_t" in claim_ids


def test_jobs_below_one_is_an_input_error(capsys):
    for args in (
        ["kappa", "--jobs", "0"],
        ["zeros", "--rect", "0,1,0,1", "--jobs", "-1", "--format", "csv"],
    ):
        status, out, err = run(args, capsys)
        assert (status, out) == (BAD_INPUT, "")
        assert "jobs must be >= 1" in err
    # the rectangle is parsed before the job count is checked
    status, _, err = run(["zeros", "--rect", "0,1", "--jobs", "0", "--format", "csv"], capsys)
    assert status == BAD_INPUT
    assert "rectangle must be sigma0,sigma1,t0,t1" in err


def test_every_command_runs_in_one_process(monkeypatch, capsys):
    # --jobs is accepted but opens no pool, even where there are cores for one
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    commands = (
        ["zeros", "--rect", "0,1,4,10"],
        ["audit", "--rect", "0,1,4,10"],
        ["curve", "--window=-2,3,-2.2,2.2", "--step", "0.1"],
    )
    serial = [run(args + ["--format", "csv", "--jobs", "1"], capsys) for args in commands]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for args, expected in zip(commands, serial):
        assert expected[0] == OK
        assert run(args + ["--format", "csv", "--jobs", "2"], capsys) == expected


# ----------------------------------------------------------------------
# output files
# ----------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    status = main(["kappa", "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert status == OK
    assert abs(json.loads(target.read_text())["trace_value"] - 1.21164) < 1e-3


# ----------------------------------------------------------------------
# start-up: a lazy package, and OpenBLAS on one thread
# ----------------------------------------------------------------------


def fresh_python(code: str, **env) -> list[str]:
    """stdout lines of `code` run in a new interpreter that finds this
    dhratio; `env` sets variables, None removes one.  The environment is
    built here, because importing dhratio.cli in this process already ran
    its setdefault on os.environ."""
    full = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dhratio.__file__)))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    done = subprocess.run(
        [sys.executable, "-c", code], env=full, capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout.splitlines()


def test_import_dhratio_loads_neither_numpy_nor_a_submodule():
    code = (
        "import sys, dhratio\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('dhratio.')))\n"
        "print(dhratio.analysis.__name__, dhratio.f is dhratio.dhfun.f)\n"
    )
    assert fresh_python(code) == ["[]", "dhratio.analysis True"]


def test_every_exported_name_resolves():
    names = {}
    exec("from dhratio import *", names)
    assert set(dhratio.__all__) <= set(names) and set(dhratio.__all__) <= set(dir(dhratio))
    assert all(names[n] is getattr(dhratio, n) for n in dhratio.__all__)
    assert dhratio.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        dhratio.nonsense


def test_verify_loads_neither_numpy_random_nor_secrets():
    # the suites draw from the standard library's Mersenne Twister, which
    # numpy's own import already loads; numpy.random brings eight extension
    # modules and secrets, so OpenSSL's libcrypto
    code = (
        "import contextlib, io, sys\n"
        "from dhratio.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', '--suite', 'dhfun', '--seed', '42', '--format', 'csv'])\n"
        "print(status, sorted(m for m in sys.modules if m in ('numpy.random', 'secrets')))\n"
    )
    assert fresh_python(code) == ["0 []"]


def test_other_commands_do_not_load_the_suites():
    # verify's parser takes its names and default seed from cli's copies
    assert cli._SUITE_NAMES == suites.SUITE_NAMES
    assert cli._DEFAULT_SEED == suites.DEFAULT_SEED
    code = (
        "import contextlib, io, sys\n"
        "from dhratio.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['zeros', '--rect', '0,1,10,20', '--format', 'csv'])\n"
        "print(status, 'dhratio.suites' in sys.modules)\n"
    )
    assert fresh_python(code) == ["0 False"]


_BLAS_THREADS = """
import os, sys
import dhratio.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("Threads:")))
"""


def test_cli_runs_openblas_on_one_thread():
    lines = fresh_python(_BLAS_THREADS, OPENBLAS_NUM_THREADS=None)
    assert lines[0] == "1"
    if sys.platform.startswith("linux"):
        assert lines[1] == "1"  # numpy is loaded, and no BLAS worker started


def test_cli_keeps_a_user_set_openblas_thread_count():
    assert fresh_python(_BLAS_THREADS, OPENBLAS_NUM_THREADS="2")[0] == "2"
