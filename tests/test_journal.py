"""The sweep journal: one fsynced JSONL line per landed cell."""

import json

from repro.runner import RunRecord, SweepJournal, execute_spec

from tests.test_runner import tiny_flows_spec


def read_lines(path):
    return path.read_text().splitlines()


def test_header_then_one_line_per_cell(tmp_path):
    path = tmp_path / "journal.jsonl"
    record = execute_spec(tiny_flows_spec())
    with SweepJournal(path) as journal:
        journal.open(1)
        journal.record(record)
    header, cell = (json.loads(line) for line in read_lines(path))
    assert header["kind"] == "sweep" and header["n_specs"] == 1
    assert cell == {
        "kind": "cell", "spec_hash": record.spec_hash,
        "label": "tiny-flows", "status": "ok", "attempts": 1,
        "wall_time_s": round(record.wall_time_s, 6), "cached": False,
    }


def test_each_cell_is_on_disk_before_close(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = SweepJournal(path)
    journal.open(2)
    journal.record(execute_spec(tiny_flows_spec()))
    # A sweep killed here still leaves the landed cell readable.
    assert json.loads(read_lines(path)[-1])["status"] == "ok"
    journal.close()


def test_failure_keeps_type_and_a_capped_message(tmp_path):
    path = tmp_path / "journal.jsonl"
    failed = RunRecord.failure(tiny_flows_spec(), "error",
                               ValueError("x" * 2_000))
    with SweepJournal(path) as journal:
        journal.open(1)
        journal.record(failed)
    cell = json.loads(read_lines(path)[-1])
    assert cell["status"] == "error"
    assert cell["error"] == {"type": "ValueError", "message": "x" * 500}


def test_rerun_appends_to_the_same_file(tmp_path):
    path = tmp_path / "journal.jsonl"
    record = execute_spec(tiny_flows_spec())
    for _ in range(2):
        with SweepJournal(path) as journal:
            journal.open(1)
            journal.record(record)
    kinds = [json.loads(line)["kind"] for line in read_lines(path)]
    assert kinds == ["sweep", "cell", "sweep", "cell"]


def test_journal_survives_truncation(tmp_path):
    """A killed sweep leaves a torn final line; the next sweep's lines
    start on a fresh line, so only the torn one is unreadable."""
    path = tmp_path / "journal.jsonl"
    record = execute_spec(tiny_flows_spec())
    with SweepJournal(path) as journal:
        journal.open(1)
        journal.record(record)
    with path.open("a") as handle:
        handle.write('{"kind": "cell", "spec_hash": "tr')
    with SweepJournal(path) as journal:
        journal.open(1)
        journal.record(record)
    lines = read_lines(path)
    assert lines[2] == '{"kind": "cell", "spec_hash": "tr'
    after = [json.loads(line) for line in lines[3:]]
    assert [e["kind"] for e in after] == ["sweep", "cell"]
    assert after[1]["spec_hash"] == record.spec_hash
