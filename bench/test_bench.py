"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest bench/test_bench.py -q

A one-pass run of every workload must print every metric BENCHMARK.json
names, with its unit, and no failed op; tampered outputs must count as
failed ops.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_pass_reports_every_metric_and_no_failure(workload, trace):
    result = bench_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# tampered outputs count as failed ops
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ops():
    return {name: w.build(3)[0] for name, w in workloads.WORKLOADS.items()
            if name != "ff_torus"}


def _failed(op, output) -> int:
    ledger = run.Ledger()
    ledger.record(0, op, output, None)
    return ledger.failed


def test_untampered_outputs_pass(ops):
    for name, op_list in ops.items():
        op = op_list[0]
        assert _failed(op, op.run()) == 0, name


def test_wrong_r_fails(ops):
    op = next(o for o in ops["exact_gap"] if o.label == "rx SL:24")
    code, text = op.run()
    doc = json.loads(text)
    assert doc["r_lower_bound"] == 3
    doc["r_lower_bound"] = 4
    assert _failed(op, (code, json.dumps(doc))) == 1


def test_wrong_tau_string_fails(ops):
    op = next(o for o in ops["exact_gap"] if o.label == "rx H2O")
    code, text = op.run()
    assert _failed(op, (code, text.replace('"-96"', '"-95"'))) == 1


def test_nan_fails(ops):
    op = next(o for o in ops["mc_spherical"] if o.kind == "phi")
    doc = json.loads(op.run())
    doc["value"] = float("nan")
    assert _failed(op, json.dumps(doc)) == 1


def test_pass_false_and_nonzero_exit_fail(ops):
    op = next(o for o in ops["mc_spherical"] if o.label == "verify monotonicity")
    code, text = op.run()
    doc = json.loads(text)
    doc["checks"][0]["pass"] = False
    assert _failed(op, (code, json.dumps(doc))) == 1
    assert _failed(op, (1, text)) == 1


def test_wrong_table_row_fails(ops):
    op = next(o for o in ops["cone_probe"] if o.kind == "tables")
    code, text = op.run()
    doc = json.loads(text)
    doc["kappa"][0]["value"] = "7"
    assert _failed(op, (code, json.dumps(doc))) == 1


def test_wrong_probe_answer_fails(ops):
    op = next(o for o in ops["cone_probe"] if o.kind == "probe")
    answers = op.run()
    assert _failed(op, answers[:-1] + "T") == 1


def test_deformation_pass_false_and_large_constant_fail():
    report = {"check": "deformation_suite", "params": {"n_chains": 1, "seed": 0},
              "pass": True, "max_abs_err": 0.0,
              "detail": {"c_empirical": 1.5, "mean_ratio": 1.5, "eta_at_c": 0.1,
                         "failures": []}}
    workloads._check_deformation(report, 1)
    with pytest.raises(CheckFailed):
        workloads._check_deformation(report | {"pass": False}, 1)
    with pytest.raises(CheckFailed):
        workloads._check_deformation(
            report | {"detail": report["detail"] | {"c_empirical": 25.0}}, 1)


def test_chain_ops_mix_winding_classes_and_time_only_deformation():
    import numpy as np
    from symgeo import ffengine
    from symgeo.ffengine import deform, suite, torus

    cx = ffengine.flat_torus_complex(8)
    seeds = workloads._suite_seeds_by_winding(np, torus, cx, random.Random(5), 2)
    windings = [torus.random_loop_chain(
        cx, seed=int(np.random.SeedSequence(s).generate_state(1)[0]))[1] for s in seeds]
    assert windings == [w for w in workloads.WINDINGS for _ in range(2)]

    op = workloads._chain_op(suite, cx, seeds[0])
    start = time.perf_counter()
    output = op.run()
    elapsed = time.perf_counter() - start
    assert _failed(op, output) == 0
    (busy_start, busy_end), = op.busy()
    assert start < busy_start < busy_end < start + elapsed
    assert suite.ff_deform is deform.ff_deform
    with pytest.raises(CheckFailed):
        workloads.DeformClock(suite).run(lambda: "no deformation")


def test_setup_probe_imports_symgeo_before_the_harness():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(BENCH / "setup_probe.py"), "exact_gap",
         "1", "symgeo.cli"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == \
        {"import_cli_s", "import_s", "inputs_s", "warmup_s", "mean_speed", "sampler_s"}
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert imported.index("symgeo.cli") < imported.index("workloads")
    assert "tracing" not in imported and "run" not in imported


def test_changed_repeat_output_fails(ops):
    op = ops["cone_probe"][0]
    ledger = run.Ledger()
    output = op.run()
    ledger.record(0, op, output, None)
    ledger.record(0, op, output, None)
    ledger.record(0, op, output.lower(), None)
    assert (ledger.attempted, ledger.failed) == (3, 1)


# ---------------------------------------------------------------------------
# oracles and tracing
# ---------------------------------------------------------------------------


def test_reference_seconds_weight_speed_by_time_and_drop_sampler_time():
    sampler = speed.SpeedSampler(with_numpy=False)
    ref = sampler.reference_s
    # one sample per second: kernels at full reference speed until t = 5,
    # then at half speed (the kernel takes twice as long)
    for t in range(10):
        sampler.starts.append(float(t))
        sampler.ends.append(t + (ref if t < 5 else 2 * ref))
    assert sampler.mean_speed(1.0, 3.0) == pytest.approx(1.0)
    assert sampler.mean_speed(7.0, 8.0) == pytest.approx(0.5)
    # speed changes midway between the samples at t = 4 and t = 5
    assert sampler.mean_speed(4.0, 5.0) == pytest.approx(0.75, rel=1e-3)
    # [7, 9] holds the kernels that start at 7 and 8; they are not work
    assert sampler.reference_seconds(7.0, 9.0) == pytest.approx((2.0 - 4 * ref) * 0.5)


def test_rx_oracle_gives_r_equal_n_over_8():
    for n in (8, 16, 24, 32, 64):
        want = workloads.expected_rx(f"SL:{n}")
        assert want["r_lower_bound"] == n // 8
        assert want["closed_form_bound"] == n // 8 - 1
    assert workloads.expected_rx("H2O")["r_lower_bound"] == 2


def test_tracer_counts_both_r_profile_calls_and_restores_bindings(ops):
    import symgeo.cli
    import symgeo.exponents

    original = symgeo.exponents.r_profile
    op = next(o for o in ops["exact_gap"] if o.label == "rx SL:8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert symgeo.cli.r_profile is symgeo.exponents.r_profile is not original
        tracer.run_op("op.rx", op.run)
    finally:
        tracer.uninstall()
    assert symgeo.cli.r_profile is symgeo.exponents.r_profile is original
    assert tracer.stats["exponents.r_profile"][0] == 2
    assert tracer.stats["op.rx"][0] == 1
    assert all(span[2] == tracer.spans[-1][0] for span in tracer.spans)
