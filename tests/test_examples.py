"""The examples must run: they are the library's front door."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    # Both flows finish and share the bottleneck evenly, with no drops.
    rows = [line.split("|") for line in out.splitlines()
            if line.strip().startswith(("1 |", "2 |"))]
    assert [int(row[0]) for row in rows] == [1, 2]
    slowdowns = [float(row[4]) for row in rows]
    assert slowdowns[0] == slowdowns[1] and 1.0 < slowdowns[0] < 3.0
    assert "drops: 0" in out
    # The fluid half runs the same spec: one line per flow.
    fluid = [line for line in out.splitlines()
             if line.startswith("fluid backend: flow ")]
    assert len(fluid) == 2 and all("RTT steps" in line for line in fluid)


def test_examples_exist_and_are_documented():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        text = script.read_text()
        assert text.lstrip().startswith(("#!", '"""', "'''")) or \
            '"""' in text.splitlines()[1], script.name


def test_custom_cc_example_registers_and_runs(capsys):
    # The example registers a scheme in the global registry; guard against
    # double registration when tests re-import it.
    from repro.core.registry import available_schemes
    if "naive-aimd" in available_schemes():
        pytest.skip("example already imported in this session")
    runpy.run_path(str(EXAMPLES / "custom_cc.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = {line.split("|")[0].strip(): line.split("|")[1:]
            for line in out.splitlines() if line.count("|") == 3}
    # Both schemes, the registered one included, finish all eight flows.
    assert rows["naive-aimd"][0].strip() == "8/8"
    assert rows["hpcc"][0].strip() == "8/8"
    # HPCC's queue stays far below the naive AIMD's.
    assert float(rows["hpcc"][2]) < float(rows["naive-aimd"][2])
