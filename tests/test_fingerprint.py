"""The committed result fingerprint (``tools/fingerprint.py``): the
schema of ``FINGERPRINT.json``, and ``--compare`` reporting a planted
change.  The tool itself takes minutes and is not run here."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tensorsim import taylor
from tensorsim.tensor_ops import CpFactors

ROOT = Path(__file__).resolve().parents[1]
HEX64 = re.compile(r"[0-9a-f]{64}")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "FINGERPRINT.json").read_text())


def test_schema(tool, committed):
    assert committed["format"] == tool.FORMAT
    assert set(committed) == {"format", "builds", "criterion10", "cct", "ring33", "criteria"}
    assert set(committed["builds"]) == set(tool.BUILDS)
    for name, build in committed["builds"].items():
        assert set(build) == {"pinned", "default", "report"}, name
        for shell in ("pinned", "default"):
            assert set(build[shell]) == {"models.npz", "build_report.json"}, name
            assert all(HEX64.fullmatch(h) for h in build[shell].values()), name
        # one build path in every shell: the same bytes pinned and default
        assert build["pinned"] == build["default"], name
        assert {"ranks", "fits", "iterations", "converged"} <= set(build["report"]), name
    assert committed["builds"]["wscc9_auto"]["report"]["ranks"] == [4, 4]
    assert set(committed["criterion10"]) == set(tool.CRITERION10)
    assert {"models.npz", "build_report.json"} <= set(committed["criterion10"]["build"])
    assert "trajectory.csv" in committed["criterion10"]["simulate"]
    pairs = {f"{lv:.2f}/bus{bus}" for lv in tool.WSCC9_LEVELS for bus in tool.WSCC9_BUSES}
    assert len(pairs) == 81
    for mode in ("force_full", "adaptive"):
        results = committed["cct"][mode]
        assert set(results) == pairs, mode
        for res in results.values():
            assert set(res) == {"stable_steps", "unstable_steps", "capped", "runs"}
            assert res["runs"][0] == [0.0, True]
    assert len(committed["ring33"]) == len(tool.RING33_SCENARIOS)
    for runs in committed["ring33"].values():
        assert set(runs) == {"adaptive", "force_full", "force_hybrid", "force_taylor",
                             "force_linear"}
    assert set(committed["criteria"]) == {"3", "6", "7", "8"}
    assert len(committed["criteria"]["3"]["slopes"]) == 10
    assert len(committed["criteria"]["8"]["rows"]) == 9


def _tiny_set(weight: float) -> taylor.ModelSet:
    ones = np.ones((2, 1))
    model = taylor.TaylorModel(
        load_level=1.0, x0=np.zeros(2), a1=-np.eye(2),
        a2=CpFactors(rank=1, factors=[ones] * 3, weights=[weight]),
        a3=CpFactors(rank=1, factors=[ones] * 4, weights=[1.0]),
        ranks=(1, 1), fits=(1.0, 1.0))
    return taylor.ModelSet(levels=(1.0,), models={1.0: model})


def test_compare_reports_a_planted_change(tool, tmp_path, monkeypatch, capsys):
    # the same fingerprint but for one model set, whose one weight moved
    hashes = {}
    for tag, weight in (("old", 0.5), ("new", 0.5 + 1e-15)):
        out = tmp_path / tag
        out.mkdir()
        taylor.save_model_set(_tiny_set(weight), out / "models.npz")
        hashes[tag] = tool.payload_hashes(out)
    old = {"format": tool.FORMAT, "builds": {"wscc9": {"pinned": hashes["old"]}},
           "criteria": {"3": {"slopes": [4.0, 3.9]}}}
    new = json.loads(json.dumps(old))
    new["builds"]["wscc9"]["pinned"] = hashes["new"]
    path = tmp_path / "FINGERPRINT.json"
    path.write_text(tool.dumps(old))

    monkeypatch.setattr(tool, "fingerprint", lambda: json.loads(json.dumps(old)))
    assert tool.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out == ""

    # compared with the file it then overwrites
    monkeypatch.setattr(tool, "fingerprint", lambda: new)
    assert tool.main(["--compare", str(path), "--out", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f'builds/wscc9/pinned/models.npz: "{hashes["old"]["models.npz"]}" -> '
                     f'"{hashes["new"]["models.npz"]}"']
    assert json.loads(path.read_text()) == new


def test_differences_name_missing_entries(tool):
    old = {"cct": {"a": {"stable_steps": 3, "runs": [[0.0, True]]}}}
    new = {"cct": {"a": {"stable_steps": 3, "runs": [[0.0, True], [0.1, False]]},
                   "b": {"stable_steps": None}}}
    assert tool.differences(old, new) == [
        ("cct/a/runs", [[0.0, True]], [[0.0, True], [0.1, False]]),
        ("cct/b/stable_steps", None, None),
    ]
