"""Tests of the benchmark itself: tracer counters, tracing transparency and
the workload generators.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import workloads as wl  # noqa: E402
from tensorsim import cases, cli  # noqa: E402
from tensorsim import power_model as pm  # noqa: E402
from tensorsim import simulate as sim  # noqa: E402
from tensorsim import study as st  # noqa: E402
from tensorsim import taylor as ty  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def wscc():
    return pm.build_system(cases.wscc9_spec(), 1.0)


@pytest.fixture(scope="module")
def cheap_models(wscc):
    """A one-level model set with random factors: no ALS build needed."""
    model = bench.random_model(wscc, (4, 3), np.random.default_rng(1))
    model = ty.TaylorModel(load_level=1.0, x0=model.x0, a1=ty.jacobian(wscc),
                           a2=model.a2, a3=model.a3, ranks=model.ranks, fits=model.fits)
    return ty.ModelSet(levels=(1.0,), models={1.0: model})


def _traced_run(sys_m, models, mode, t_clear=0.1, t_end=2.0):
    scn = sim.Scenario(fault_bus=7, t_clear=t_clear, t_end=t_end)
    with Tracer() as tr:
        traj = sim.run_adaptive(sys_m, models, scn, sim.SwitchPolicy(mode=mode))
    return traj, tr.stats


def test_force_full_makes_four_rhs_calls_per_step(wscc):
    traj, stats = _traced_run(wscc, None, "force_full")
    assert stats["power_model.rhs"]["calls"] == 4 * traj.n_steps
    assert stats["power_model.rhs"]["rows"] == 4 * traj.n_steps
    assert stats["simulate.run_adaptive"]["steps"] == traj.n_steps


@pytest.mark.parametrize("mode", ["adaptive", "force_hybrid", "force_taylor", "force_linear"])
def test_steps_per_mode_match_trajectory(wscc, cheap_models, mode):
    traj, stats = _traced_run(wscc, cheap_models, mode)
    counts = Counter(traj.modes)
    for m in ("full", "hybrid", "taylor", "linear"):
        assert stats[f"simulate.steps.{m}"]["calls"] == counts.get(m, 0)
    # every rk4 step evaluates its model's right-hand side four times
    assert stats["taylor.reduced_rhs"]["calls"] == 4 * counts.get("taylor", 0)
    assert stats["taylor.linear_rhs"]["calls"] == 4 * counts.get("linear", 0)
    assert stats["taylor.hybrid_rhs"]["calls"] == 4 * counts.get("hybrid", 0)


def test_self_time_excludes_children(wscc):
    _, stats = _traced_run(wscc, None, "force_full")
    ra = stats["simulate.run_adaptive"]
    assert 0.0 < ra["self_s"] < ra["total_s"]
    assert ra["total_s"] - ra["self_s"] >= stats["power_model.rhs"]["total_s"] * 0.999


def test_tracer_uninstall_restores_functions():
    before = (pm._rhs, sim.reduced_rhs, ty.reduced_rhs, cli.main, st.cct_search)
    with Tracer():
        assert pm._rhs is not before[0]
        assert sim.reduced_rhs is not before[1]
    assert (pm._rhs, sim.reduced_rhs, ty.reduced_rhs, cli.main, st.cct_search) == before


def test_tracing_leaves_cct_outputs_unchanged(wscc, cheap_models):
    policy = sim.SwitchPolicy(mode="adaptive", angle_threshold_deg=5.0)
    plain = st.cct_search(wscc, cheap_models, policy, 7, t_end=1.0)
    with Tracer():
        traced = st.cct_search(wscc, cheap_models, policy, 7, t_end=1.0)
    assert (plain.stable_steps, plain.runs) == (traced.stable_steps, traced.runs)


def test_tracing_leaves_cli_payloads_unchanged(tmp_path):
    argv = ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
            "--t-end", "1.0", "--mode", "force_full"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    with Tracer() as tr:
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    assert tr.stats["simulate.export_trajectory_csv"]["bytes"] == (
        tmp_path / "traced" / "trajectory.csv").stat().st_size
    for f in ("trajectory.csv", "switch_log.jsonl", "simulate_report.json"):
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "traced" / f).read_bytes()


def _take(gen, n):
    return list(itertools.islice(gen, n))


WORK = wl.load_refs("wscc9_cct")["work_steps"]
GENERATORS = [lambda seed: wl.wscc9_blocks(seed, WORK), wl.ring_blocks]


@pytest.mark.parametrize("gen", GENERATORS)
def test_generators_are_deterministic_and_seeded(gen):
    assert _take(gen(3), 10) == _take(gen(3), 10)
    assert _take(gen(3), 10) != _take(gen(4), 10)


def test_wscc9_blocks_span_the_work_strata():
    ranked = sorted(WORK, key=lambda k: (WORK[k], k))
    strata = np.array_split(np.arange(len(ranked)), wl.WSCC9_STRATA)
    rank = {wl.wscc9_pair(k): i for i, k in enumerate(ranked)}
    for block in _take(wl.wscc9_blocks(5, WORK), 20):
        got = sorted(rank[p] for p in block)
        assert [any(r in s for r in got) for s in strata] == [True] * wl.WSCC9_STRATA
        assert all(b in wl.WSCC9_BUSES and lv in wl.WSCC9_LEVELS for b, lv in block)


def test_ring_blocks_are_stratified():
    for block in _take(wl.ring_blocks(5), 20):
        assert len(block) == wl.RING_BLOCK
        others = [b for b, _ in block if b != wl.RING_STUDY_BUS]
        assert len(others) == len(set(others)) == wl.RING_BLOCK * 2 // 3
        bands = sorted((k - wl.RING_CLEAR_STEPS[0]) // wl.RING_BAND for _, k in block)
        assert bands == list(range(wl.RING_BLOCK))


def test_references_cover_the_scenario_space():
    cct = wl.load_refs("wscc9_cct")["cct"]
    assert len(cct) == len(wl.WSCC9_BUSES) * len(wl.WSCC9_LEVELS)
    runs = wl.load_refs("ring33_cli")["runs"]
    assert set(runs) == {wl.ring_key(b, k) for b in wl.RING_BUSES for k in wl.RING_CLEAR_STEPS}


def test_reference_check_catches_a_wrong_answer(wscc):
    wk = bench.Wscc9Cct(None)
    # confirm the second op's answer with the full model, so no build is needed
    wk.adaptive, wk.models = wk.full, None
    pair = (7, 1.0)
    res = st.cct_search(wscc, None, wk.full, 7)
    assert res.stable_steps == wk.refs[wl.wscc9_key(*pair)]
    wrong = st.CctResult(**{**res.__dict__, "stable_steps": res.unstable_steps})
    assert wk.check(pair, [wrong, res])[0] == 1  # differs from the reference
    assert wk.check(pair, [res, wrong])[0] == 1  # its stable duration does not complete
    failed, mismatch, _, _ = wk.check(pair, [res, res])
    assert (failed, mismatch) == (0, False)


@pytest.mark.parametrize("n, q", [(20, 50), (40, 75), (100, 90), (1000, 99), (5, 0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert bench.tail_percentile(n) == q


def test_quantile_is_a_harrell_davis_estimate():
    x = np.random.default_rng(0).normal(size=20000)
    assert abs(bench.quantile(x, 0.5)) < 0.02
    assert abs(bench.quantile(x, 0.9) - np.percentile(x, 90)) < 0.02
    assert bench.quantile([2.0] * 30, 0.75) == pytest.approx(2.0)
    # a two-cluster sample: the estimate weighs both clusters' inner ends
    lat = [1.0] * 12 + [3.0] * 12
    assert 1.0 < bench.quantile(lat, 0.5) < 3.0
    assert bench.quantile(lat, 0.5) == pytest.approx(2.0)


def test_run_refuses_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    (bench_dir / "run.py").write_bytes((HERE / "run.py").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "wscc9_cct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
