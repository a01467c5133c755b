"""Tests of the pipeline benchmark's own machinery.

Run from the repository root with ``PYTHONPATH=src python -m pytest pipebench``.
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path

from layers import PER_LAYER_METRICS
import signal

from spans import Tracer, attach, self_times, totals_by_name
from speed import REFERENCE_SECONDS, SpeedReference
from workloads import WORKLOADS, GroundTruth, Table2Fast, Workload

from repro.policies.registry import make_policy
from repro.polca.pipeline import learn_simulated_policy

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_times_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    ]
    selfs = self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == 10.0
    totals = totals_by_name(spans + [["c", 9.0, 9.5, 0, None]], selfs + [0.5])
    assert totals["c"] == (2, 4.5, 4.5)


def test_attached_samples_nest_under_the_innermost_covering_span():
    spans = [
        ["root", 0.0, 10.0, -1, "t"],
        ["a", 1.0, 4.0, 0, "t"],
        ["b", 2.0, 3.0, 1, "t"],
        ["c", 5.0, 9.0, 0, "t"],
    ]
    attach(spans, [(0.5, 0.6), (2.2, 2.3), (3.5, 3.7), (9.5, 9.6), (10.5, 10.6)], "sample")
    assert [(s[3], s[4]) for s in spans[4:]] == [
        (0, "t"), (2, "t"), (1, "t"), (0, "t"), (-1, None)
    ]
    selfs = self_times(spans)
    assert min(selfs) >= 0
    assert abs(sum(selfs) - 10.1) < 1e-9


def test_speed_reference_samples_during_its_block_and_rescales():
    handler = signal.getsignal(signal.SIGALRM)
    speed = SpeedReference()
    with speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert all(speed.samples) and len(speed.intervals) == sum(map(len, speed.samples))
    speed.samples[0][:] = [1e-4, 3e-4, 2e-4]
    speed.samples[1][:] = [8e-4]
    # 1.0 s minus 1.4 ms of samples, at a routine time of sqrt(2e-4 * 8e-4) = 4e-4 s.
    assert abs(speed.normalise(1.0) - 0.9986 * REFERENCE_SECONDS / 4e-4) < 1e-12


class _Layer:
    def outer(self, depth):
        return self.inner(depth)

    def inner(self, depth):
        return self.inner(depth - 1) if depth else 0


def test_tracer_nests_spans_and_folds_reentrant_calls():
    originals = dict(_Layer.__dict__)
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", lambda t, args, result: t.count("calls"))
    try:
        with tracer.span("pass"):
            _Layer().outer(3)
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["outer"] is originals["outer"]
    assert _Layer.__dict__["inner"] is originals["inner"]
    # The recursive inner calls fold into one span under "outer".
    assert [(s[0], s[3]) for s in tracer.spans] == [("pass", -1), ("outer", 0), ("inner", 1)]
    assert tracer.counters["calls"] == 4
    selfs = self_times(tracer.spans)
    assert min(selfs) >= 0
    assert abs(sum(selfs) - (tracer.spans[0][2] - tracer.spans[0][1])) < 1e-9


def test_generator_spans_cover_only_item_production():
    tracer = Tracer()

    class Source:
        @staticmethod
        def items():
            yield from range(3)

    tracer.wrap_generator(Source, "items", "produce")
    try:
        with tracer.span("consume"):
            assert list(Source.items()) == [0, 1, 2]
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["consume"] + ["produce"] * 4  # three items and the exhaustion
    assert all(span[3] == 0 for span in tracer.spans[1:])


def test_checker_flags_bip2_at_default_depth():
    report = learn_simulated_policy(make_policy("BIP", 2))
    failure = GroundTruth().check(report, "BIP", 2, identified=True)
    assert failure is not None and "has 8" in failure


def test_checker_accepts_a_right_machine():
    report = learn_simulated_policy(make_policy("PLRU", 4))
    assert GroundTruth().check(report, "PLRU", 4, identified=True) is None


def test_names_use_the_allowed_characters():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_METRICS)


def test_seed_changes_target_order_but_not_sul_queries(tmp_path):
    workload = Table2Fast(str(tmp_path))
    first = workload.run_pass(random.Random(1))
    second = workload.run_pass(random.Random(2))
    order = [o.target for o in first.outcomes]
    assert order != [o.target for o in second.outcomes]
    assert sorted(order) == sorted(o.target for o in second.outcomes)
    assert sum(o.sul_queries for o in first.outcomes) == sum(
        o.sul_queries for o in second.outcomes
    )
    failed = {o.target for o in first.outcomes if o.failure is not None}
    assert failed == Table2Fast.known_wrong


def test_a_target_that_raises_is_a_failed_target(tmp_path, capsys):
    class Broken(Workload):
        def targets(self):
            return ["broken"]

        def learn(self, target, tracer):
            raise ValueError("no machine")

    (outcome,) = Broken(str(tmp_path)).run_pass(random.Random(0)).outcomes
    assert outcome.failure == "raised ValueError: no machine"
    assert "ValueError" in capsys.readouterr().err
