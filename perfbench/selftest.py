"""Self-test of the benchmark itself.  From the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

It checks the mpmath reference against closed forms, that inputs repeat per
seed and stay in their bands, that per-layer work counts repeat exactly for
the same seed, that tracing changes no output and restores every binding, and
that BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = run.load_library()
COUNT_SUFFIXES = (".calls", ".neval", ".panels", ".terms", ".spans", ".failed")


def _closed_forms(x):
    """n_hat, u_hat, v_hat, r_hat from mp.besselk sums and mp.polylog."""
    with mp.workdps(reference.DPS):
        x = mp.mpf(x)
        k2_sum = energy_sum = mp.mpf(0)
        n = 1
        while True:
            z = n * x
            k2 = mp.besselk(2, z)
            k2_term, energy_term = k2 / n, mp.besselk(1, z) / z + 3 * k2 / z**2
            k2_sum += k2_term
            energy_sum += energy_term
            if max(k2_term / k2_sum, energy_term / energy_sum) < mp.mpf(10) ** -26:
                break
            n += 1
        w = mp.exp(-x)
        li2, li3, li4 = (mp.polylog(s, w) for s in (2, 3, 4))
        pi2 = mp.pi**2
        return {"n": x * x / pi2 * k2_sum, "u": x**4 / pi2 * energy_sum,
                "v": 2 * (li3 + x * li2) / (x * x * k2_sum),
                "r": 3 / (2 * pi2) * (li4 + x * li3 + x * x / 3 * li2)}


@pytest.mark.parametrize("x", [0.5, 3.0, 40.0])
def test_reference_matches_bessel_sums_and_polylogs(x):
    ref, exact = reference.reduced(x), _closed_forms(x)
    for key in "nuvr":
        assert abs(ref[key] / exact[key] - 1) < 1e-20, key


def test_reference_massless_limits():
    ref = reference.reduced(1e-9)
    with mp.workdps(reference.DPS):
        limits = {"n": 2 * mp.zeta(3) / mp.pi**2, "u": mp.pi**2 / 15, "v": 1,
                  "r": mp.pi**2 / 60}
        for key in "nuvr":  # corrections are O(x^2)
            assert abs(ref[key] / limits[key] - 1) < 1e-15, key


def test_reference_underflow_matches_zero():
    ref = reference.si_values(1e4, 1.0)
    assert reference.rel_err(0.0, ref["number_density"]) == 0.0
    assert reference.rel_err(1.0, ref["number_density"]) > 1.0


@pytest.mark.parametrize("name", ["hot", "series", "cold", "cli"])
def test_inputs_repeat_per_seed(name):
    workload = workloads.WORKLOADS[name]
    if workload.kind == "cli":
        workload.out_dir = "out"
    assert run.first_blocks(workload, 7, 3) == run.first_blocks(workload, 7, 3)
    assert run.first_blocks(workload, 7, 3) != run.first_blocks(workload, 8, 3)


@pytest.mark.parametrize("name", ["hot", "series", "cold"])
def test_each_block_covers_every_stratum_of_its_band(name):
    workload = workloads.WORKLOADS[name]
    a, b = workload.skip or (math.inf, math.inf)
    lo, hi = math.log(workload.lo), math.log(workload.hi * a / b if workload.skip else workload.hi)
    for block in run.first_blocks(workload, 3, 4):
        xs = [mass * workloads.C**2 / (workloads.K_B * t) for mass, t in block]
        assert not any(a * (1 + 1e-12) < x <= b for x in xs)
        drawn = [x * a / b if x > b else x for x in xs]  # undo the move past the skip
        strata = sorted(int((math.log(x) - lo) / (hi - lo) * len(block)) for x in drawn)
        assert strata == list(range(len(block)))
        assert all(workload.lo * (1 - 1e-12) <= x <= workload.hi * (1 + 1e-12) for x in xs)


class _TopOfRange:
    """An rng whose draws sit just below 1, the edge a band may exclude."""

    def random(self):
        return 1.0 - 2.0**-53

    def shuffle(self, seq):
        pass


@pytest.mark.parametrize("open_end", ["hi", "lo"])
def test_band_edges_are_half_open(open_end):
    x = workloads.LogStrata(_TopOfRange(), 0.1, 30.0, 1, open_end)()
    assert 0.1 < x < 30.0


def _traced(name, seed):
    workload = workloads.WORKLOADS[name]
    scratch = run.OUT / f"selftest-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    if workload.kind == "cli":
        workload.out_dir = str(scratch)
    try:
        return run.traced(workload, LIB, seed, 1, scratch / "spans.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.mark.parametrize("name", ["hot", "series", "cold", "cli"])
def test_work_counts_repeat_and_tracing_changes_nothing(name):
    originals = {(m, a): getattr(getattr(LIB, m), a) for m, a, _, _ in tracing.PATCHES}
    first, metrics, _ = _traced(name, 11)
    second, again, _ = _traced(name, 11)
    assert first.problems == [] and second.problems == []
    counts = {k: v for k, (v, _) in metrics.items()
              if k.endswith(COUNT_SUFFIXES) or ".failed." in k}
    assert counts == {k: again[k][0] for k in counts}
    assert {(m, a): getattr(getattr(LIB, m), a) for m, a, _, _ in tracing.PATCHES} == originals
    bessel_calls = sum(metrics[f"specfun.bessel_k2.{b}.calls"][0] for _, b in tracing.BESSEL_BANDS)
    if name == "hot":
        assert bessel_calls == 0 and metrics["oracle.integrate_adaptive.calls"][0] > 0
    if name == "series":
        assert metrics["specfun.bessel_k2.z2_25.calls"][0] > 0
    if name == "cold":
        assert first.failed == 0 and metrics["domain_probe.failed"][0] > 0
    if name == "cli":
        assert metrics["cli.build_parser.calls"][0] == first.attempted
        assert metrics["specfun.energy_bessel_sum.terms"][0] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _, traced_metrics, _ = _traced("cold", 2)
    assert [m["name"] for m in spec["per_layer"]] == list(traced_metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in traced_metrics.values()]
    workload = workloads.WORKLOADS["cold"]
    _, timed_metrics, _ = run.timed(workload, LIB, 2, 1)
    assert [m["name"] for m in spec["end_to_end"]] == list(timed_metrics)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in timed_metrics.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_library_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "hot",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
