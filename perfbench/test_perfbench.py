"""Tests of the benchmark's own arithmetic, generators and counters.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from math import comb, prod

import pytest

import run

run.load_program()

from idealform import (  # noqa: E402
    EncodingKind,
    cdc,
    difference_directions,
    enumerate_vertices,
    intersection_digraph,
    make_encoding,
    spanned_hyperplane_normals,
    theorem1_formulation,
)
from idealform.encoding import code_bounds  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "i")


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        recorded = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 3.0, parent=0),
            _span("b", 2.0, 5.0, parent=0),
            _span("c", 8.0, 12.0, parent=0),  # only [8, 10] lies inside root
        ]
        assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 4.0]

    def test_grandchildren_count_only_against_their_parent(self):
        recorded = [
            _span("root", 0.0, 10.0),
            _span("child", 2.0, 8.0, parent=0),
            _span("grandchild", 3.0, 4.0, parent=1),
        ]
        assert spans.self_times(recorded) == [4.0, 5.0, 1.0]
        assert spans.self_time_by_name(recorded + [_span("child", 20.0, 21.0)]) == {
            "root": 4.0, "child": 6.0, "grandchild": 1.0}

    def test_tracer_links_nested_spans_to_their_parent(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 9.0]))
        tracer.instance = "x"
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("outer", None), ("inner", 0), ("inner", 0)]
        assert spans.self_time_by_name(tracer.spans) == {"outer": 7.0, "inner": 2.0}

    def test_self_times_of_a_pass_add_up_to_its_root_spans(self):
        tracer = spans.Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                sum(range(1000))
            with tracer.span("b"):
                with tracer.span("c"):
                    sum(range(1000))
        total = sum(spans.self_time_by_name(tracer.spans).values())
        assert total == pytest.approx(tracer.spans[0].duration, abs=1e-9)


class TestTailPercentile:
    @pytest.mark.parametrize("n, percentile, beyond", [
        (1000, 90.0, 100),
        (100, 90.0, 10),
        (99, 75.0, 24),
        (40, 75.0, 10),
        (39, 50.0, 19),
        (5, 50.0, 2),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, n, percentile, beyond):
        samples = [float(i) for i in reversed(range(n))]
        got_percentile, value, got_beyond = spans.tail_latency(samples)
        assert (got_percentile, got_beyond) == (percentile, beyond)
        assert value == float(n - 1 - beyond)
        assert sum(1 for s in samples if s > value) == beyond

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            spans.tail_latency([])

    @pytest.mark.parametrize("per_pass, passes", [(15, 7), (17, 6), (48, 3), (200, 1)])
    def test_minimum_passes_reach_the_top_percentile(self, per_pass, passes):
        assert spans.passes_for_tail(per_pass) == passes
        assert spans.tail_latency([0.0] * per_pass * passes)[0] == 90.0
        if passes > 1:
            assert spans.tail_latency([0.0] * per_pass * (passes - 1))[0] < 90.0

    def test_a_uniform_slowdown_never_lowers_the_tail(self, monkeypatch):
        base = [0.1 * (i + 1) for i in range(15)]  # 12 s per pass
        tails = []
        for slowdown in (0.1, 0.25, 0.5, 1.0, 1.3, 1.6, 2.0, 3.0):
            clock = [0.0]

            def timed_pass():
                latencies = [x * slowdown for x in base]
                clock[0] += sum(latencies)
                return latencies, 1.0

            monkeypatch.setattr(run, "time", type("T", (), {
                "perf_counter": staticmethod(lambda: clock[0])}))
            latencies, _, _ = run.timed_passes(timed_pass, 15.0, spans.passes_for_tail(15))
            percentile, tail, _ = spans.tail_latency(latencies)
            assert percentile == 90.0
            tails.append(tail / slowdown)
        assert tails == pytest.approx([tails[0]] * len(tails))


def test_median_of_instances_is_not_the_least_of_two_middle_instances():
    # Three instances a pass; the upper two cost about 10 and their noise
    # alternates, so the pooled and per-pass medians take the smaller one.
    passes = [[1.0, 9.0, 11.0], [1.0, 11.0, 9.0]] * 3
    samples = sum(passes, [])
    assert spans.median_of_instances(samples, 3) == 10.0
    assert spans.statistics.median(samples) == 9.0
    assert {spans.statistics.median(p) for p in passes} == {9.0}


def test_speed_scale_takes_the_median_reference_to_one_millisecond():
    assert spans.speed_scale([0.002, 0.004, 0.003]) == pytest.approx(
        spans.REFERENCE_S / 0.003)
    assert spans.reference_seconds() > 0


class TestCorpus:
    @pytest.mark.parametrize("workload", corpus.WORKLOADS)
    def test_same_seed_same_documents(self, workload):
        a = corpus.build_corpus(workload, 7)
        b = corpus.build_corpus(workload, 7)
        assert a.documents == b.documents
        assert a.instances == b.instances
        assert a.problems == b.problems

    @pytest.mark.parametrize("workload", corpus.WORKLOADS)
    def test_other_seed_same_shape_other_values(self, workload):
        a = corpus.build_corpus(workload, 7)
        b = corpus.build_corpus(workload, 8)
        assert [i.name for i in a.instances] == [i.name for i in b.instances]
        assert a.documents != b.documents
        fixed = [(i.sizes["d"], i.sizes["r"]) for i in a.instances
                 if not i.name.startswith("random")]
        assert fixed == [(i.sizes["d"], i.sizes["r"]) for i in b.instances
                         if not i.name.startswith("random")]

    def test_random_alternatives_are_connected_distinct_and_cover(self):
        rng = corpus.random.Random(3)
        for d in range(3, 9):
            alts = corpus.random_connected_alternatives(rng, d)
            assert len({frozenset(a) for a in alts}) == d
            assert set().union(*alts) == set(range(1, max(map(max, alts)) + 1))
            for i, alt in enumerate(alts[1:], start=1):
                assert any(alt & earlier for earlier in alts[:i])

    def test_fast_path_jump_avoids_the_shared_breakpoint(self):
        rng = corpus.random.Random(0)
        assert {corpus.fast_path_jump(rng, 16) for _ in range(500)} == (
            set(range(2, 17)) - {9})


class TestCounts:
    def test_hole_points_are_the_gates_feasibility_tests(self):
        e = make_encoding(12, EncodingKind.ZIGZAG)
        box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in code_bounds(e))))
        non_codes = [p for p in box if p not in set(e.rows)]
        assert traced.hole_points(e) == len(non_codes) == prod(
            hi - lo + 1 for lo, hi in code_bounds(e)) - 12

    def test_normal_subsets_is_the_enumeration_walk(self):
        c = cdc(9, corpus.sos_windows(8, 2))
        e = make_encoding(8, EncodingKind.GRAY)
        deduped = difference_directions(intersection_digraph(c), e).deduped
        # Eight Gray steps move three unit directions: rank 3, pairs of them.
        assert len(deduped) == 3
        assert traced.normal_subsets(deduped) == comb(3, 2)
        assert len(spanned_hyperplane_normals(deduped)) == 3

    def test_base_vertices_and_cuts_match_the_certificate(self):
        c = cdc(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
        e = make_encoding(4, EncodingKind.ZIGZAG)
        f = theorem1_formulation(c, e)
        bounds = [hi - lo for lo, hi in f.z_bounds]
        assert traced.base_vertices(f) == 5 * 2 ** sum(1 for b in bounds if b)
        assert traced.row_count(f) == len(f.equalities) + 2 * f.gamma
        assert enumerate_vertices(f).count == 8


def _small(instances):
    return [i for i in instances if i.sizes["d"] <= 64]


def _small_runner(workload, root, cli=None):
    built = corpus.build_corpus(workload, 5)
    built.instances = _small(built.instances)
    assert built.instances
    built.write(str(root))
    runner = run.Runner(cli or run.load_program()[1], built, str(root), run.Tally())
    runner.warm_up()
    assert runner.tally.failed == 0, runner.tally.messages
    return runner


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_pass_writes_the_cli_bytes(workload, tmp_path):
    runner = _small_runner(workload, tmp_path)
    tracer = spans.Tracer()
    runner.traced_pass(tracer)
    assert runner.tally.failed == 0, runner.tally.messages
    assert {s.instance for s in tracer.spans} == {i.name for i in runner.corpus.instances}
    assert {s.name for s in tracer.spans if s.parent is None} == {"invocation"}


def test_every_stage_is_spanned_and_restored(tmp_path):
    # The package exports a function named cdc, so look the modules up.
    cli, cdc_module = sys.modules["idealform.cli"], sys.modules["idealform.cdc"]
    assert traced.missing_stages() == []
    originals = (cli.build_parser, cdc_module.is_hole_free, cli.parse_problem)
    runner = _small_runner("general_pipeline", tmp_path)
    tracer = spans.Tracer()
    runner.traced_pass(tracer)
    assert (cli.build_parser, cdc_module.is_hole_free, cli.parse_problem) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.args", "documents.parse", "encoding.convex_position",
            "encoding.hole_free", "cdc.digraph", "cdc.directions",
            "cdc.dim_condition", "cdc.normals", "cdc.rows",
            "documents.emit"} <= names
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    # The gates run inside theorem1_formulation, which has no span of its
    # own, so their parent is the CLI invocation itself.
    gate = next(s for s in tracer.spans if s.name == "encoding.hole_free")
    assert by_index[gate.parent].name == "invocation"
    assert tracer.counts["encoding.hole_points"] > 0
    assert tracer.counts["cdc.normal_subsets"] >= tracer.counts["cdc.normals"] > 0


class _SilentCli:
    """A CLI that reports success but writes nothing."""

    @staticmethod
    def main(argv):
        return 0


def test_a_call_that_writes_no_output_fails(tmp_path):
    runner = _small_runner("emit_closed_forms", tmp_path)
    runner.cli = _SilentCli
    runner.timed_pass()
    writers = [i for i in runner.corpus.instances if i.output is not None]
    assert writers
    # Every file-writing call fails; a verify re-read of a missing file too.
    assert runner.tally.failed >= len(writers)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
