"""The benchmark's workloads: seeded inputs, the fixed list of operations one
pass runs, and the check every operation's output must pass.

Users of symgeo want a *verified* answer, so every op's output is checked:
exact values against oracles written here from the closed forms (integer
arithmetic in e-coordinates, independent of ``symgeo.rootdata``), and every
``pass`` flag the program reports.  JSON is parsed strictly, so ``NaN`` or
``Infinity`` in an output fails the op.

symgeo modules are imported inside ``build`` and reached through module
attributes at call time, so the traced run sees calls the ops make and the
set-up probe can time the imports.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckFailed(Exception):
    """An op's output is wrong, invalid or not reproducible."""


@dataclass(frozen=True)
class Op:
    kind: str                   # ops of one kind share latency statistics
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: int = 0               # throughput units: rx answers, probes, samples, chains
    #: (start, end) perf_counter intervals of the op's last run that
    #: delivered its work; None: the whole run
    busy: Callable[[], list[tuple[float, float]]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]    # imported at set-up, symgeo.cli first
    build: Callable[[int], tuple[list[Op], Op]]  # seed -> (pass ops, warm-up op)
    latency_kind: str           # the op kind op_p50_s / op_tail_s describe
    tail_pct: int               # nearest-rank percentile for op_tail_s
    throughput_name: str        # what throughput_per_s counts on this workload


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in JSON output")


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON output: {exc}") from None


def expect(label: str, got, want):
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


def cli_run(cli, argv: list[str]) -> tuple[int, str]:
    """``symgeo.cli.main(argv)`` with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_json(output) -> dict:
    code, text = output
    expect("exit code", code, 0)
    return strict_json(text)


def check_passed(doc: dict, n_checks: int):
    """A verify payload: the suite and each of its n_checks checks passed."""
    checks = doc["checks"]
    expect("number of checks", len(checks), n_checks)
    for report in checks:
        expect(f"{report.get('check')} pass", report["pass"], True)
    expect("suite pass", doc["pass"], True)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

MULTIPLICITIES = {
    "HnR": lambda n: (n - 1, 0),
    "HnC": lambda n: (2 * n - 2, 1),
    "HnH": lambda n: (4 * n - 4, 3),
    "H2O": lambda n: (8, 7),
}


def _inside(eigenvalues: list, d: int) -> bool:
    """tau_{dim-d} < 0: the dim-d largest eigenvalues sum below zero."""
    smallest = sorted(eigenvalues)[:d]
    return sum(eigenvalues) - sum(smallest) < 0


def _gap_e2(n: int) -> list[int]:
    """2x the e-coordinates of the SLn gap covector 2 rho - theta_so."""
    h = n // 2
    theta2 = [1] * h + [0] * (n - 2 * h) + [-1] * h
    return [2 * (n + 1 - 2 * i) - theta2[i - 1] for i in range(1, n + 1)]


def _sln_eigenvalues(x: list[int], denom: int) -> list[int]:
    """Hessian eigenvalues of exp(xi H), times denom**2 / scale, for the
    covector with e-coordinates x / denom: |xi|^2, rank-1 zeros and
    -<e_i - e_j, xi> for every positive root."""
    n = len(x)
    out = [sum(v * v for v in x)] + [0] * (n - 2)
    out += [-denom * (x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
    return out


def expected_rx(target: str) -> dict:
    """The fields ``symgeo rx <target>`` must print, from the closed forms."""
    if target == "H2O":
        eig, denom, closed = [256] + [-16] * 8 + [-32] * 7, 1, 2
    else:
        n = int(target.split(":")[1])
        eig, denom, closed = _sln_eigenvalues(_gap_e2(n), 2), 4, n // 8 - 1
    eig.sort(reverse=True)
    dim = len(eig)
    prefix = [0]
    for v in eig:
        prefix.append(prefix[-1] + v)
    taus = [Fraction(prefix[dim - d], denom) for d in range(dim)]
    r = -1
    while r + 1 < dim and taus[r + 1] < 0:
        r += 1
    return {
        "target": target,
        "r_lower_bound": r,
        "closed_form_bound": closed,
        "tau_profile": [{"d": d, "tau": str(taus[d]), "inside": taus[d] < 0}
                        for d in range(min(r + 3, dim))],
    }


def check_rx(want: dict, output):
    doc = cli_json(output)
    for key, value in want.items():
        expect(key, doc[key], value)


def expected_tables() -> dict:
    """Rows of ``symgeo tables`` (all families, n = 2..6), from the formulas."""
    mult, kappa, cx = [], [], []
    for family, rule in MULTIPLICITIES.items():
        for n in ([2] if family == "H2O" else range(2, 7)):
            m_a, m_2a = rule(n)
            dim = 1 + m_a + m_2a
            mult.append({"family": family, "n": n, "m_alpha": m_a,
                         "m_2alpha": m_2a, "dim": dim})
            small = [0] + [1] * m_a + [2] * m_2a
            for k in range(1, dim + 1):
                kappa.append({"family": family, "n": n, "k_or_d": k,
                              "value": str(sum(small[:k])), "provenance": "Enumerated"})
            negatives = [1] * m_a + [2] * m_2a
            for d in range(dim + 1):
                value = 0 if d == dim else sum(negatives[:dim - d - 1])
                cx.append({"family": family, "n": n, "k_or_d": d,
                           "value": str(value), "provenance": "Enumerated"})
    return {"multiplicities": mult, "kappa": kappa, "cx": cx}


def _row_key(row: dict):
    return tuple(sorted(row.items()))


def check_tables(want: dict, output):
    doc = cli_json(output)
    for table, rows in want.items():
        got = sorted(doc[table], key=_row_key)
        expect(f"{table} row count", len(got), len(rows))
        for got_row, want_row in zip(got, sorted(rows, key=_row_key)):
            expect(f"{table} row", got_row, want_row)


# ---------------------------------------------------------------------------
# exact_gap
# ---------------------------------------------------------------------------

#: with rx H2O, five rx ops; the median one, SL:24, runs long enough
#: (about 0.1 s) for a steady op_p50_s
EXACT_GAP_N = (8, 24, 32, 64)


def _rx_op(cli, target: str) -> Op:
    want = expected_rx(target)
    return Op("rx", f"rx {target}", lambda: cli_run(cli, ["rx", target]),
              lambda out: check_rx(want, out), work=1)


def build_exact_gap(seed: int):
    cli = importlib.import_module("symgeo.cli")
    targets = ["H2O"] + [f"SL:{n}" for n in EXACT_GAP_N]
    random.Random(seed).shuffle(targets)
    return [_rx_op(cli, t) for t in targets], _rx_op(cli, "SL:8")


# ---------------------------------------------------------------------------
# cone_probe: convexity probes of the Omega cone, criterion-8 shaped
# ---------------------------------------------------------------------------

LAMBDAS = tuple(Fraction(i, 11) for i in range(1, 11))
RANK_ONE_CONFIGS = (("H2O", 2, (0, 1, 2)), ("HnC", 2, (0, 1)),
                    ("HnH", 2, (0, 1)), ("HnR", 4, (0, 1)))
SLN_CONFIGS = ((4, 0), (16, 1))
RANK_ONE_PROBES = 10
SLN_PROBES = 4

#: per probe: xi1, xi2, the ten convex combinations, t * xi1 (all inside)
#: and one exterior point
PROBE_ANSWER = "T" * 13 + "F"


def _probe_answers(ex, rd, d, xi1, xi2, t, outside) -> str:
    points = [xi1, xi2]
    points += [lam * xi1 + (Fraction(1) - lam) * xi2 for lam in LAMBDAS]
    points += [t * xi1, outside]
    return "".join("T" if ex.omega_contains(rd, xi, d) else "F" for xi in points)


def _rank_one_probe(ex, rd, family, n, d, rng) -> Op:
    m_a, m_2a = MULTIPLICITIES[family](n)
    negatives = [1] * m_a + [2] * m_2a
    cx = sum(negatives[: len(negatives) - d])  # dim - d - 1 smallest
    # xi = c alpha lies in the cone iff 0 < c < cx(d)
    a, b = rng.randrange(1, 64 * cx), rng.randrange(1, 64 * cx)
    t = rng.randrange(1, 65)
    e = rng.randrange(64 * cx, 128 * cx + 1)

    def run():
        alpha = rd.alpha
        return _probe_answers(ex, rd, d, Fraction(a, 64) * alpha, Fraction(b, 64) * alpha,
                              Fraction(t, 64), Fraction(e, 64) * alpha)

    return Op("probe", f"probe {family}({n}) d={d}", run,
              lambda out: expect("answers", out, PROBE_ANSWER), work=1)


def _sln_candidate(n: int, d: int, gap2: list[int], rng):
    """A criterion-8 sample t * gap + noise inside the cone, chosen by the
    oracle: (t, noise in simple-root coordinates, 128 x its e-coordinates)."""
    for _ in range(1000):
        t = rng.randrange(8, 63)
        noise = [rng.randrange(-8, 9) for _ in range(n - 1)]
        c = [0] + noise + [0]
        x = [t * g + 2 * (c[i + 1] - c[i]) for i, g in enumerate(gap2)]
        if _inside(_sln_eigenvalues(x, 128), d):
            return t, noise, x
    raise RuntimeError("no cone sample in 1000 draws")


def _sln_probe(ex, rd, gap, n, d, rng) -> Op:
    gap2 = _gap_e2(n)
    t1, noise1, x1 = _sln_candidate(n, d, gap2, rng)
    t2, noise2, _ = _sln_candidate(n, d, gap2, rng)
    t = rng.randrange(1, 65)
    s = 2
    while _inside(_sln_eigenvalues([s * v for v in x1], 128), d):
        s *= 2

    def run():
        xi1 = Fraction(t1, 64) * gap + rd.covector([Fraction(v, 64) for v in noise1])
        xi2 = Fraction(t2, 64) * gap + rd.covector([Fraction(v, 64) for v in noise2])
        return _probe_answers(ex, rd, d, xi1, xi2, Fraction(t, 64), Fraction(s) * xi1)

    return Op("probe", f"probe SL({n}) d={d}", run,
              lambda out: expect("answers", out, PROBE_ANSWER), work=1)


def build_cone_probe(seed: int):
    cli = importlib.import_module("symgeo.cli")
    rootdata = importlib.import_module("symgeo.rootdata")
    ex = importlib.import_module("symgeo.exponents")
    rng = random.Random(seed)
    ops = []
    for family, n, ds in RANK_ONE_CONFIGS:
        rd = rootdata.build_rank_one(family, n)
        for d in ds:
            ops += [_rank_one_probe(ex, rd, family, n, d, rng) for _ in range(RANK_ONE_PROBES)]
    for n, d in SLN_CONFIGS:
        rd = rootdata.build_sln(n)
        gap = ex.gap_covector(rd)
        ops += [_sln_probe(ex, rd, gap, n, d, rng) for _ in range(SLN_PROBES)]
    want = expected_tables()
    ops.append(Op("tables", "tables", lambda: cli_run(cli, ["tables"]),
                  lambda out: check_tables(want, out)))
    return ops, ops[-2]


# ---------------------------------------------------------------------------
# mc_spherical
# ---------------------------------------------------------------------------

SPHERICAL_SAMPLES = 100_000
#: (n, Haar samples per estimate, estimates per pass); the sample counts make
#: one n=4 and one n=5 estimate cost about the same
PHI_CASES = ((4, 24_000, 3), (5, 16_000, 2))


def _phi_op(spherical, lam, n, H, N, seed) -> Op:
    def run():
        est = spherical.phi_lambda(n, lam, H, N, seed)
        return json.dumps(est.to_json_dict(), sort_keys=True)

    def check(out):
        doc = strict_json(out)
        expect("samples", doc["N"], N)
        # phi_{-rho} is identically one
        if not doc["stderr"] > 0 or abs(doc["value"] - 1.0) > 4 * doc["stderr"]:
            raise CheckFailed(f"phi_-rho = {doc['value']} +- {doc['stderr']}, expected 1")

    return Op("phi", f"phi_lambda n={n} N={N}", run, check, work=N)


def _traceless(rng, n: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean = sum(v) / n
    v = [x - mean for x in v]
    scale = rng.uniform(0.3, 1.2) / math.sqrt(sum(x * x for x in v))
    return [x * scale for x in v]


def build_mc_spherical(seed: int):
    cli = importlib.import_module("symgeo.cli")
    rootdata = importlib.import_module("symgeo.rootdata")
    spherical = importlib.import_module("symgeo.spherical")
    rng = random.Random(seed)
    suite_seed = rng.randrange(2**31)
    ops = [Op("suite", "verify spherical",
              lambda: cli_run(cli, ["verify", "spherical", "--samples",
                                    str(SPHERICAL_SAMPLES), "--seed", str(suite_seed)]),
              lambda out: check_passed(cli_json(out), 4), work=4 * SPHERICAL_SAMPLES)]
    for n, N, count in PHI_CASES:
        lam = Fraction(-1) * rootdata.rho(rootdata.build_sln(n))
        ops += [_phi_op(spherical, lam, n, _traceless(rng, n), N, rng.randrange(2**31))
                for _ in range(count)]
    ops.append(Op("suite", "verify hessian --n 5",
                  lambda: cli_run(cli, ["verify", "hessian", "--n", "5"]),
                  lambda out: check_passed(cli_json(out), 8)))
    ops.append(Op("suite", "verify monotonicity",
                  lambda: cli_run(cli, ["verify", "monotonicity"]),
                  lambda out: check_passed(cli_json(out), 2)))
    warm = _phi_op(spherical, Fraction(-1) * rootdata.rho(rootdata.build_sln(4)), 4,
                   _traceless(rng, 4), 2_000, rng.randrange(2**31))
    return ops, warm


# ---------------------------------------------------------------------------
# ff_torus
# ---------------------------------------------------------------------------

#: chains per winding class, so every seed runs the same mix of classes;
#: null-homologous loops are shorter (about 30 pieces against 40).  The
#: deformation work of a loop varies widely, so a pass averages over 64.
FF_CHAINS_PER_CLASS = 16
WINDINGS = ((0, 0), (0, 1), (1, 0), (1, 1))
BETTI_TORI = (8, 16)
C_EMPIRICAL_MAX = 20.0


def _check_deformation(report: dict, n_chains: int):
    expect("check", report["check"], "deformation_suite")
    expect("n_chains", report["params"]["n_chains"], n_chains)
    expect("failures", report["detail"]["failures"], [])
    c = report["detail"]["c_empirical"]
    if not 0 < c <= C_EMPIRICAL_MAX:
        raise CheckFailed(f"c_empirical = {c} outside (0, {C_EMPIRICAL_MAX}]")
    expect("pass", report["pass"], True)


class DeformClock:
    """Times the suite's ``ff_deform`` call, so chains_per_s counts seconds
    of deformation and not the certification around it."""

    def __init__(self, suite):
        self.suite = suite
        self.intervals: list[tuple[float, float]] = []

    def run(self, fn):
        inner = self.suite.ff_deform

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.intervals.append((start, time.perf_counter()))

        self.intervals = []
        self.suite.ff_deform = timed
        try:
            result = fn()
        finally:
            self.suite.ff_deform = inner
        if len(self.intervals) != 1:
            raise CheckFailed(f"run_deformation_suite made {len(self.intervals)} ff_deform "
                              "calls, expected 1")
        return result


def _chain_op(suite, cx, seed: int) -> Op:
    clock = DeformClock(suite)
    return Op("chain", f"deform chain seed={seed}",
              lambda: clock.run(lambda: json.dumps(
                  suite.run_deformation_suite(cx, n_chains=1, seed=seed), sort_keys=True)),
              lambda out: _check_deformation(strict_json(out), 1), work=1,
              busy=lambda: clock.intervals)


def _suite_seeds_by_winding(np, torus, cx, rng, per_class: int) -> list[int]:
    """Suite seeds, per_class for each winding class in WINDINGS order.  The
    suite derives the loop seed as SeedSequence(seed).generate_state(1)[0]
    and the loop draws its winding class from it."""
    found = {w: [] for w in WINDINGS}
    while any(len(seeds) < per_class for seeds in found.values()):
        seed = rng.randrange(2**32)
        loop_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        _, winding = torus.random_loop_chain(cx, seed=loop_seed)
        if len(found[winding]) < per_class:
            found[winding].append(seed)
    return [seed for w in WINDINGS for seed in found[w]]


def _betti_op(homology, cx, n: int) -> Op:
    return Op("betti", f"betti torus({n})",
              lambda: ",".join(str(homology.betti(cx, d)) for d in range(3)),
              lambda out: expect(f"mod-2 Betti numbers of torus({n})", out, "1,2,1"))


def build_ff_torus(seed: int):
    cli = importlib.import_module("symgeo.cli")
    np = importlib.import_module("numpy")
    ff = importlib.import_module("symgeo.ffengine")
    homology = importlib.import_module("symgeo.ffengine.homology")
    suite = importlib.import_module("symgeo.ffengine.suite")
    torus = importlib.import_module("symgeo.ffengine.torus")
    rng = random.Random(seed)
    cx = ff.flat_torus_complex(8)
    chain_seeds = _suite_seeds_by_winding(np, torus, cx, rng, FF_CHAINS_PER_CLASS)
    cli_seed, warm_seed = rng.randrange(2**32), rng.randrange(2**32)
    ops = [_chain_op(suite, cx, s) for s in chain_seeds]
    ops += [_betti_op(homology, ff.flat_torus_complex(n), n) for n in BETTI_TORI]

    def check_cli(out):
        doc = cli_json(out)
        check_passed(doc, 2)
        _check_deformation(doc["checks"][1], 1)

    ops.append(Op("cli", "verify ff --chains 1",
                  lambda: cli_run(cli, ["verify", "ff", "--chains", "1", "--seed", str(cli_seed)]),
                  check_cli))
    return ops, _chain_op(suite, cx, warm_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_gap", ("symgeo.cli",), build_exact_gap,
                 latency_kind="rx", tail_pct=90, throughput_name="rx_per_s"),
        Workload("cone_probe", ("symgeo.cli", "symgeo.exponents"), build_cone_probe,
                 latency_kind="probe", tail_pct=89, throughput_name="probes_per_s"),
        Workload("mc_spherical", ("symgeo.cli", "symgeo.spherical"), build_mc_spherical,
                 latency_kind="phi", tail_pct=80, throughput_name="samples_per_s"),
        Workload("ff_torus", ("symgeo.cli", "symgeo.ffengine"), build_ff_torus,
                 latency_kind="chain", tail_pct=84, throughput_name="chains_per_s"),
    )
}
