"""Tests of the benchmark itself: anchors, determinism and the config file.

    python3 -m pytest perfbench -q

About half a minute; the lift anchor alone runs a 30,000-subset Kruskal search.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.bootstrap(), "nmfrigid sources not found next to perfbench/"

import inputs as gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = [run.execute(op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    assert all(r.outcome.ok for r in records), [r.outcome.detail for r in records]
    samples = sum(r.outcome.samples for r in records)
    accepted = sum(r.outcome.accepted for r in records)
    return records, tracing.layer_metrics(tracer, samples, accepted, 1.0, 1.0)


def _batch(name: str, seed: int, work_dir: Path):
    workload = workloads.WORKLOADS[name]
    rounds = workload.rounds(seed, work_dir)
    return [op for _ in range(workload.batch) for op in next(rounds)]


def test_config_names_what_the_code_reports():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in CONFIG["end_to_end"]} == {"norm_work_per_s", "setup_s", "peak_rss_mb"}
    assert {m["name"]: (m["unit"], m["better"]) for m in CONFIG["per_layer"]} == tracing.PER_LAYER


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        ops = _batch("certify-nonrigid", seed, tmp_path / sub)
        return [text for op in ops for text in op.files.values()]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_same_seed_same_stdout_digest(tmp_path):
    (tmp_path / "w").mkdir()
    ops = _batch("certify-rigid", 5, tmp_path / "w")[:10]
    first = [run.execute(op) for op in ops]
    second = [run.execute(op) for op in ops]
    assert all(r.outcome.ok for r in first + second)
    assert run.digest(first) == run.digest(second)


def test_deterministic_counters_repeat(tmp_path):
    (tmp_path / "w").mkdir()
    ops = _batch("certify-nonrigid", 2, tmp_path / "w")[:12]
    keys = ("cone.lp.calls", "rigidity.kruskal.subsets", "realize.samples", "cli.certify_calls")
    _, one = _traced(ops)
    _, two = _traced(ops)
    assert {k: one[k] for k in keys} == {k: two[k] for k in keys}
    assert one["cone.lp.calls"] > 0 and one["cli.certify_calls"] == 4


def test_untransformed_realize_sweep_draws_686_samples(tmp_path):
    records, metrics = _traced(workloads.untransformed_realize_ops(tmp_path))
    assert sum(r.outcome.accepted for r in records) == 15
    assert metrics["realize.samples"] == 686
    assert metrics["realize.rank_calls_per_sample"] == 5.0


def test_lift_of_fixture_01_costs_30185_subset_ranks(tmp_path):
    pair = gen.plain_pair(0)
    op = workloads._lift_op(tmp_path / "lift.txt", pair)
    _, metrics = _traced([op])
    assert metrics["rigidity.kruskal.subsets"] == 30185
    assert metrics["exactlin.rank.calls"] == 30196  # every elimination of the command
    assert metrics["cli.certify_calls"] == 3


def test_fixture_09_lift_failure_is_kept(tmp_path):
    ops = _batch("lift", 1, tmp_path)
    assert ops[0].label.startswith("rigid-5x5-09")
    record = run.execute(ops[0])
    assert record.code == 1 and record.outcome.ok and record.outcome.work == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_stripped_directory_fails_without_a_result(tmp_path, trace):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*CONFIG["command"], "--workload", "certify-rigid", "--seed", "1", "--seconds", "1",
         "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
