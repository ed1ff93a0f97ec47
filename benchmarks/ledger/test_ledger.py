"""Checks of the benchmark itself (``pytest benchmarks/ledger -q``).

Not part of tier-1 (``testpaths`` collects ``tests/`` only): one
``--quick`` ledger run exercises every workload, traced and untraced,
in under half a minute.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--json", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    ledger = json.loads(out.read_text())
    ledger["stdout"] = done.stdout
    return ledger


def test_declared_names_are_well_formed():
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(DECLARED["per_layer"]) <= 128
    assert DECLARED["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_quick_run_prints_exactly_the_declared_metrics(quick_ledger):
    assert sorted(quick_ledger["workloads"]) \
        == sorted(w["name"] for w in DECLARED["workloads"])
    for name, entry in quick_ledger["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
            assert set(entry[kind]) == set(declared), (name, kind)
            for key, m in entry[kind].items():
                assert m["unit"] == declared[key]
                assert math.isfinite(m["value"]), (name, key)
                assert f"   {key} " in quick_ledger["stdout"]
        assert entry["untraced"]["correct"] and entry["traced"]["correct"]
        assert entry["untraced"]["attempted"] >= 1
        assert entry["untraced"]["failed"] == 0
        for key, m in entry["end_to_end"].items():
            assert m["value"] > 0, (name, key)


def test_traced_layers_account_for_the_profile(quick_ledger):
    for name, entry in quick_ledger["workloads"].items():
        per_layer = entry["per_layer"]
        assert abs(per_layer["trace.attributed_frac"]["value"] - 1) < 0.05
        assert per_layer["trace.overhead_x"]["value"] > 1, name
    busy = {
        "packet_fig11": ("sim.datapath", "fluid.kernels"),
        "fluid_large": ("fluid.kernels", "sim.engine"),
    }
    for name, (works, idle) in busy.items():
        per_layer = quick_ledger["workloads"][name]["per_layer"]
        assert per_layer[f"{works}.self_s"]["value"] \
            > 10 * per_layer[f"{idle}.self_s"]["value"]


def test_one_run_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload",
         "hybrid_fig11", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) \
        == {m["name"] for m in DECLARED["end_to_end"]}
    assert last["correct"] is True and last["attempted"] >= 1


def test_layer_table_is_complete(tmp_path):
    table = layers.check_complete(ROOT / "src" / "repro")
    assert table["sim/engine.py"] == "sim.engine"
    assert table["sim/nic.py"] == "sim.host"
    assert table["sim/link.py"] == "sim.datapath"
    assert table["fluid/programs.py"] == "runner"
    assert set(table.values()) | set(layers.EXTERNAL) == set(layers.LAYERS)
    stray = tmp_path / "repro"
    (stray / "newpkg").mkdir(parents=True)
    (stray / "newpkg" / "mod.py").write_text("x = 1\n")
    with pytest.raises(LookupError, match="newpkg/mod.py"):
        layers.check_complete(stray)


def test_bucketing_a_synthetic_profile():
    package = ROOT / "src" / "repro"
    bucketer = layers.Bucketer(package)
    engine = str(package / "fluid" / "engine.py")
    source = (package / "fluid" / "engine.py").read_text().splitlines()
    fire = next(i for i, line in enumerate(source, start=1)
                if line.lstrip().startswith("def _fire("))
    step = (engine, 10, "step")
    fire_fn = (engine, fire, "_fire")
    listcomp = (engine, fire + 20, "<listcomp>")
    nic = (str(package / "sim" / "nic.py"), 5, "send")
    numpy_fn = ("/usr/lib/python3/site-packages/numpy/core/x.py", 3, "f")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    orphan = ("~", 0, "<built-in method builtins.exec>")
    stats = {
        step: (1, 1, 1.0, 9.0, {}),
        fire_fn: (2, 2, 2.0, 3.0, {step: (2, 2, 2.0, 3.0)}),
        listcomp: (4, 4, 0.5, 0.5, {fire_fn: (4, 4, 0.5, 0.5)}),
        nic: (3, 3, 0.25, 1.0, {}),
        numpy_fn: (1, 1, 0.125, 0.125, {step: (1, 1, 0.125, 0.125)}),
        heappush: (10, 10, 1.0, 1.0, {nic: (6, 6, 0.75, 0.75),
                                      fire_fn: (4, 4, 0.25, 0.25)}),
        orphan: (1, 1, 0.0625, 9.0, {}),
    }
    out = bucketer.bucket(stats)
    assert out["fluid.kernels"] == {"self_s": 1.0, "calls": 1}
    assert out["fluid.fire"] == {"self_s": 2.75, "calls": 10}
    assert out["sim.host"] == {"self_s": 1.0, "calls": 9}
    assert out["ext.numpy"] == {"self_s": 0.125, "calls": 1}
    assert out["ext.stdlib"] == {"self_s": 0.0625, "calls": 1}
    assert sum(v["self_s"] for v in out.values()) \
        == sum(v[2] for v in stats.values())


def _ledger(wall: float, samples: list[float]) -> dict:
    e2e = {m["name"]: {"value": 1.0, "unit": m["unit"]}
           for m in DECLARED["end_to_end"]}
    e2e["wall_s"] = {"value": wall, "unit": "s"}
    return {"workloads": {"packet_fig11": {
        "end_to_end": e2e,
        "untraced": {"samples": {"wall_s": samples}, "result_digest": "d",
                     "attempted": 10, "failed": 0},
    }}}


def test_compare_classifies_fabricated_runs(tmp_path, capsys):
    bound = next(m["bound"] for m in DECLARED["end_to_end"]
                 if m["name"] == "wall_s")
    steady = [1.0, 1.001, 1.002, 1.003]

    def verdicts(base, new):
        rows, _ = compare.compare(base, new, DECLARED)
        return {row[1]: row[6] for row in rows}

    base = _ledger(1.0, steady)
    slower = 1.0 + 2 * bound
    assert verdicts(base, _ledger(slower, [slower + s - 1 for s in steady])
                    )["wall_s"] == "regressed"
    assert verdicts(base, _ledger(1.0 + bound / 2, steady))["wall_s"] == "ok"
    assert verdicts(base, _ledger(1.0 - 2 * bound, steady))["wall_s"] == "ok"
    noisy = [1.0, 1.0 + bound, 1.0 + 2 * bound, 1.0 + 4 * bound]
    assert verdicts(base, _ledger(slower, noisy))["wall_s"] == "unresolved"
    assert verdicts(base, _ledger(slower, noisy))["setup_s"] == "ok"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_ledger(slower, [slower + s - 1 for s in steady])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
