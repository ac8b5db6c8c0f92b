"""Tests of the benchmark harness itself, on small inputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, layers, run, workloads
from perfbench.trace import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


def span(id, start, end, parent=None, name="f"):
    return Span(id, name, start, end, parent, "op-1")


class TestSelfTime:
    def test_nested_spans(self):
        # 0 [0, 100) holds 1 [10, 40) and 2 [50, 90); 1 holds 3 [20, 30)
        spans = [span(3, 20, 30, 1), span(1, 10, 40, 0), span(2, 50, 90, 0), span(0, 0, 100)]
        assert self_times(spans) == {0: 30, 1: 20, 2: 40, 3: 10}

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, 0, 100), span(1, 10, 60, 0), span(2, 40, 80, 0), span(3, 90, 120, 0)]
        # children cover [10, 80) and [90, 100) of the parent
        assert self_times(spans)[0] == 100 - 70 - 10

    def test_tracer_records_parents_and_iterations(self):
        ticks = iter(range(0, 1000, 10))
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.iteration = "op-7"
        inner = tracer.wrap("inner", lambda x: x + 1)
        with tracer.span("outer"):
            assert inner(1) == 2
        outer_span, = [s for s in tracer.spans if s.name == "outer"]
        inner_span, = [s for s in tracer.spans if s.name == "inner"]
        assert inner_span.parent == outer_span.id and outer_span.parent is None
        assert {s.iteration for s in tracer.spans} == {"op-7"}
        assert self_times(tracer.spans) == {outer_span.id: 20, inner_span.id: 10}


class TestInstall:
    def test_wrap_reaches_every_namespace_and_uninstalls(self):
        from anchorkit import cli, compressor, objective

        original_loss, original_gen = objective.total_loss, cli.cmd_gen
        tracer = Tracer()
        layers.install_all(tracer)
        try:
            assert compressor.total_loss is objective.total_loss is not original_loss
            assert cli.COMMANDS["gen"] is cli.cmd_gen is not original_gen
        finally:
            tracer.uninstall()
        assert compressor.total_loss is objective.total_loss is original_loss
        assert cli.COMMANDS["gen"] is original_gen

    def test_an_observer_that_cannot_read_the_call_does_not_fail_it(self):
        tracer = Tracer()

        def observe(t, args, kwargs, result):
            return result.assignments

        assert tracer.wrap("f", lambda: 3, observe)() == 3
        assert tracer.unobserved == {"f"}

    def test_every_listed_function_exists_at_this_commit(self):
        assert layers.absent_functions() == []


SMALL = {
    "train": workloads.TrainWorkload("t", n_anchors=16, steps=2, warmup=0, points=32, hidden=(8,)),
    "infer": workloads.InferWorkload("i", frames=2, channels=8, side=8, n_anchors=16,
                                     hidden=(8,), proj_dim=4, warmup=0),
    "full": workloads.FullAttentionWorkload("f", frames=2, channels=8, side=8, proj_dim=4),
    "cli": workloads.CliPipelineWorkload("c", points=16, steps=2, n_anchors=8, proj_dim=4,
                                         ddim_steps=4, ddim_dim=8, warmup=0),
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_outputs_are_byte_identical_to_untraced(kind, tmp_path):
    w = SMALL[kind]
    state = w.setup(3, tmp_path)
    try:
        plain = w.outputs(state, w.run(state))
        assert w.check(state, plain) == []
        tracer = Tracer()
        layers.install_all(tracer)
        try:
            traced = w.outputs(state, w.run(state))
        finally:
            tracer.uninstall()
    finally:
        w.close(state)
    assert tracer.spans
    assert workloads.same_bytes(plain, traced)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_seed_changes_the_generated_inputs(kind, tmp_path):
    w = SMALL[kind]
    digests = {}
    for seed in (1, 1, 2):
        state = w.setup(seed, tmp_path)
        w.close(state)
        blob = b"".join(np.asarray(x).tobytes() if isinstance(x, np.ndarray) else
                        x.encode() for x in state.inputs)
        digests.setdefault(seed, set()).add(blob.replace(str(state.workdir).encode(), b""))
    assert len(digests[1]) == 1
    assert digests[1] != digests[2]


def test_tail_has_ten_samples_beyond_it():
    value, pct = harness.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
