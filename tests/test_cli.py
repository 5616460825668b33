import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symgeo.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_octonionic_rows(self, capsys, tmp_path):
        out_file = tmp_path / "tables.json"
        code, _, _ = run_cli(capsys, "tables", "--family", "H2O",
                             "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        mult = doc["multiplicities"][0]
        assert (mult["m_alpha"], mult["m_2alpha"]) == (8, 7)
        kappa14 = [r for r in doc["kappa"] if r["k_or_d"] == 14][0]
        assert kappa14["value"] == "18"
        cx2 = [r for r in doc["cx"] if r["k_or_d"] == 2][0]
        assert cx2["value"] == "18"

    def test_real_family_column(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--family", "HnR", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert all(
            int(r["value"]) == r["k_or_d"] - 1 for r in doc["kappa"]
        )

    def test_n_filter_keeps_only_families_at_n(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        rows = doc["multiplicities"] + doc["kappa"] + doc["cx"]
        assert {r["n"] for r in rows} == {3}
        assert {r["family"] for r in rows} == {"HnR", "HnC", "HnH"}

    def test_bad_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["tables", "--family", "E8"])
        assert err.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--family", "H2O",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "table,family,n,k_or_d,value,provenance"

    def test_k_and_d_filters(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--family", "H2O",
                               "--k", "14", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert [r["value"] for r in doc["kappa"]] == ["18"]
        assert [r["value"] for r in doc["cx"]] == ["18"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "tables", "--family", "HnH", "--out", str(f1))
        run_cli(capsys, "tables", "--family", "HnH", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestRx:
    def test_octonionic(self, capsys):
        code, out, _ = run_cli(capsys, "rx", "H2O")
        assert code == 0
        doc = json.loads(out)
        assert doc["r_lower_bound"] == 2
        assert doc["tau_profile"][2]["inside"] is True
        assert doc["tau_profile"][3]["inside"] is False

    def test_sl16(self, capsys):
        code, out, _ = run_cli(capsys, "rx", "SL:16")
        assert code == 0
        doc = json.loads(out)
        assert doc["r_lower_bound"] >= doc["closed_form_bound"] == 1

    def test_sl2_rejected(self, capsys):
        code, _, err = run_cli(capsys, "rx", "SL:2")
        assert code == 2
        assert "rank one" in err

    def test_unknown_target(self, capsys):
        code, _, _ = run_cli(capsys, "rx", "E8")
        assert code == 2


class TestVerify:
    def test_hessian_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hessian", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["checks"]) == 4

    def test_monotonicity_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monotonicity")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_spherical_suite_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "spherical",
                               "--samples", "20000", "--seed", "5")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_ff_suite_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ff", "--chains", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        suite = doc["checks"][1]
        assert suite["detail"]["c_empirical"] <= 20.0

    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "ff", "--chains", "3", "--out", str(f1))
        run_cli(capsys, "verify", "ff", "--chains", "3", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "ab209f69c477edb15d83b5cc5bb2eb4b5adf5c5bcf39e84148eef91c13c1f872"),
        ("table", "f57300d8dbbb96dc97da1ac10ca39ef1a056cf1de7a17e7b9f3a899c8c04ac87"),
    ])
    def test_ff_stdout_is_pinned(self, capsys, fmt, digest):
        # sha256 of the stdout before the certificates became array passes:
        # a faster FF engine or certificate must print the same bytes
        code, out, _ = run_cli(capsys, "verify", "ff", "--chains", "20", "--seed", "0",
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_table_has_one_row_per_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--format", "table")
        assert code == 0
        header, *rows = [line.split() for line in out.splitlines()]
        assert header == ["check", "pass", "max_abs_err"]
        _, doc, _ = run_cli(capsys, "verify", "monotonicity")
        checks = json.loads(doc)["checks"]
        assert rows == [[c["check"], str(c["pass"]), str(c["max_abs_err"])] for c in checks]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("argv, passes", [
    (["verify", "hessian", "--n", "2"], True),
    (["verify", "hessian", "--n", "2", "--tol", "1e-12"], False),
    (["verify", "spherical", "--samples", "2000"], True),
    (["verify", "monotonicity"], True),
    (["verify", "ff", "--chains", "2"], True),
    # a 3 x 3 triangle breaks the diameter bound
    (["verify", "ff", "--mesh", "{tmp}/big.json"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_check_has_the_one_report_shape(capsys, tmp_path, argv, passes):
    (tmp_path / "big.json").write_text(
        '{"vertices": [[0, 0], [3, 0], [0, 3]], "simplices": [[0, 1, 2]]}')
    code, out, _ = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["checks"]
    for report in doc["checks"]:
        assert set(report) == {"check", "params", "max_abs_err", "pass", "detail"}
        assert type(report["max_abs_err"]) is float
        assert math.isfinite(report["max_abs_err"]) and report["max_abs_err"] >= 0.0
        assert type(report["pass"]) is bool
    assert doc["pass"] is all(r["pass"] for r in doc["checks"]) is passes
    assert (code == 0) == doc["pass"] and code in (0, 1)


def test_check_report_rejects_non_finite_error():
    from symgeo.report import check_report

    report = check_report("c", {"n": 2}, 0, 1, {})
    assert report == {"check": "c", "params": {"n": 2}, "max_abs_err": 0.0,
                      "pass": True, "detail": {}}
    assert type(report["max_abs_err"]) is float and report["pass"] is True
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            check_report("c", {}, bad, True, {})


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


@pytest.mark.parametrize("argv", [
    ["tables", "--n", "1"],
    ["tables", "--family", "H2O", "--n", "3"],
    ["tables", "--k", "99"],
    ["tables", "--d", "99"],
    ["tables", "--out", "{tmp}/missing/tables.json"],
    ["rx", "H2O", "--out", "{tmp}/missing/rx.json"],
    ["rx", "SL:+8"],
    ["rx", "SL:08"],
    ["rx", "SL:1_6"],
    ["verify", "hessian", "--n", "7"],
    ["verify", "hessian", "--h", "1"],
    ["verify", "hessian", "--h", "5e-5"],
    ["verify", "hessian", "--tol", "0"],
    ["verify", "hessian", "--tol", "nan"],
    ["verify", "hessian", "--tol", "inf"],
    ["verify", "ff", "--chains", "-3"],
    ["verify", "ff", "--chains", "0"],
    ["verify", "ff", "--mesh", "{tmp}/missing.json"],
    ["verify", "ff", "--seed", "-1"],
    ["verify", "spherical", "--samples", "0"],
], ids=" ".join)
def test_usage_error_exits_two_with_one_line(capsys, tmp_path, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_SEQUENCE = [
    ["tables", "--family", "H2O", "--family", "HnC", "--n", "2"],
    ["rx", "H2O"],
    ["rx", "SL:2"],
    ["tables", "--family", "E8"],
    ["verify", "spherical", "--samples", "1"],
    ["tables", "--family", "HnR", "--n", "3", "--format", "table"],
    ["verify", "spherical", "--samples", "200", "--format", "table"],
    ["rx", "SL:5", "--format", "table"],
    ["tables", "--family", "H2O", "--family", "HnC", "--n", "2"],
]


def test_cached_parser_answers_like_a_fresh_one(capsys):
    # one parser serves every main call of a process: a sequence of calls,
    # usage errors from argparse and from the commands included, prints and
    # exits as the same calls with a parser each
    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in _SEQUENCE:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    sequence = [outcome(argv) for argv in _SEQUENCE]
    assert build_parser.cache_info().misses == 1
    assert sequence == fresh
    assert [code for code, _, _ in sequence] == [0, 0, 2, 2, 2, 0, 0, 0, 0]


_TRIANGLE = '"vertices": [[0, 0], [1, 0], [0, 1]]'


@pytest.mark.parametrize("mesh", [
    '{"vertices": [[0, 0]]}',
    'not json',
    '[1, 2]',
    '{"vertices": [0, 1], "simplices": [[0, 1]]}',
    '{"vertices": [[0, 0], [1, 0], [NaN, 1]], "simplices": [[0, 1, 2]]}',
    '{' + _TRIANGLE + ', "simplices": [[0, 0, 1]]}',
    '{' + _TRIANGLE + ', "simplices": [[0, 1, 5]]}',
    '{' + _TRIANGLE + ', "simplices": 7}',
    '{"vertices": [[0, 0], [1, 0], [2, 0]], "simplices": [[0, 1, 2]]}',
    '{' + _TRIANGLE + ', "simplices": []}',
], ids=["no-simplices", "not-json", "not-an-object", "flat-vertices", "nan-vertex",
        "repeated-vertex", "unknown-vertex", "simplices-not-a-list", "degenerate-cell",
        "empty-simplices"])
def test_malformed_mesh_exits_two_with_one_line(capsys, tmp_path, mesh):
    path = tmp_path / "mesh.json"
    path.write_text(mesh)
    code, out, err = run_cli(capsys, "verify", "ff", "--mesh", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed --mesh ") and err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports symgeo from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def test_exact_commands_import_no_numeric_stack():
    # rx and tables are exact integer work: importing numpy and scipy would
    # cost most of their run time
    proc = run_python(
        "import contextlib, io, sys\n"
        "from symgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['rx', 'SL:8']), main(['tables'])]\n"
        "print(codes, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"


def test_spherical_and_hessian_import_no_scipy():
    # phi_lambda and the Hessian model are numpy only; scipy costs most of
    # their start-up time
    proc = run_python(
        "import contextlib, io, sys\n"
        "from symgeo.cli import main\n"
        "from symgeo.spherical import phi_lambda\n"
        "phi_lambda(3, [0.0, 0.0, 0.0], [1.0, 0.0, -1.0], 1000, 0)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', 'spherical', '--samples', '20000']),\n"
        "             main(['verify', 'hessian', '--n', '3'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"


@pytest.mark.parametrize("argv", [
    ["verify", "hessian", "--n", "2"],
    ["verify", "spherical", "--samples", "20000", "--seed", "5"],
    ["verify", "monotonicity"],
    ["verify", "ff", "--chains", "1"],
], ids=lambda argv: argv[1])
def test_verify_suites_run_after_bare_cli_import(argv):
    proc = run_python(f"import sys, symgeo.cli\nsys.exit(symgeo.cli.main({argv!r}))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
