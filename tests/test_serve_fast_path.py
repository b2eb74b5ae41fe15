"""Differential suite: batched serving loop vs the one-event-per-iteration oracle.

``ServingSimulator`` commits iterations inline between boundary events and
collapses silent steady-decode runs in bulk; the oracle in
``tests/reference/serve.py`` runs the same loop on an engine that forces one
heap round-trip per iteration.  The two must be **bit-identical** -- the full
``ServingResult.to_dict()`` payload, including request records, token
buckets, plan-cache stats and fault accounting -- because the batched loop
performs exactly the scheduled path's float additions and counter updates,
just without the event-queue detour.  Hypothesis drives random traffic and
batching limits through both loops, fault-free and under every fault preset,
with and without deadlines, and checks request and token conservation on the
way.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from reference.serve import one_event_per_iteration
from repro.faults import FaultInjector, ResiliencePolicy, build_fault_preset, fault_presets
from repro.serve.arrivals import PoissonArrivals, distribution_by_name, length_distributions
from repro.serve.simulator import ServeConfig, ServingSimulator, compare_serving

FAILURE_OUTCOMES = {"timed-out", "dropped", "shed"}


def payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_conserved(result, requests, fault_free: bool) -> None:
    """Every request leaves exactly once; fault-free runs batch every token once."""
    ids = [record.request_id for record in result.records]
    ids += [failure.request_id for failure in result.failures]
    assert sorted(ids) == sorted(request.request_id for request in requests)
    assert {failure.outcome for failure in result.failures} <= FAILURE_OUTCOMES
    if fault_free:
        # Each prompt token is prefilled once and each output token after the
        # first (which the prefill itself emits) is one decode step.
        assert result.total_batched_tokens == sum(
            r.prompt_tokens + r.output_tokens - 1 for r in requests
        )


def run_both(config, requests, mode="non-overlap", faults_preset=None,
             deadline=None, fault_seed=0):
    """(batched, oracle) results of one serving run; checks conservation."""

    def run():
        injector = None
        policy = ResiliencePolicy(deadline_s=deadline) if deadline is not None else None
        if faults_preset is not None:
            horizon = max(r.arrival_time for r in requests) + 1.0
            plan = build_fault_preset(faults_preset, horizon, seed=fault_seed)
            injector = FaultInjector(plan, policy=policy)
        return ServingSimulator(
            config, mode=mode, faults=injector, resilience=policy
        ).run(requests)

    batched = run()
    with one_event_per_iteration() as engines:
        reference = run()
    # Each committed iteration was its own finish event, on top of one event
    # per arrival: the oracle cannot have committed anything inline.
    (engine,) = engines
    assert engine.processed_events >= reference.iterations + len(requests)
    assert_conserved(batched, requests, faults_preset is None and deadline is None)
    return batched, reference


TRAFFIC = st.fixed_dictionaries(
    {
        "rate": st.sampled_from([4.0, 32.0, 256.0]),
        "requests": st.integers(min_value=1, max_value=16),
        "distribution": st.sampled_from(sorted(length_distributions())),
        "seed": st.integers(min_value=0, max_value=7),
    }
)
LIMITS = st.fixed_dictionaries(
    {
        "max_batch_tokens": st.sampled_from([64, 512, 4096]),
        "max_batch_size": st.sampled_from([2, 8, 16]),
    }
)


class TestFaultFreeBitIdentity:
    @hsettings(max_examples=40, deadline=None)
    @given(traffic=TRAFFIC, limits=LIMITS)
    def test_random_traffic(self, traffic, limits):
        config = ServeConfig(layers=1, **limits)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        batched, reference = run_both(config, requests)
        assert payload(batched) == payload(reference)

    @hsettings(max_examples=20, deadline=None)
    @given(traffic=TRAFFIC, deadline=st.sampled_from([0.05, 0.5, 2.0]))
    def test_random_traffic_with_deadlines(self, traffic, deadline):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        batched, reference = run_both(config, requests, deadline=deadline)
        assert payload(batched) == payload(reference)

    def test_overlap_mode_with_plan_cache(self):
        """The overlap arm (plan-cache lookups, repeat-hit bulk accounting)."""
        config = ServeConfig(layers=2, max_batch_tokens=4096, max_batch_size=16)
        requests = PoissonArrivals(
            rate_rps=32.0,
            distribution=distribution_by_name("chat"),
            seed=3,
            num_requests=24,
        ).generate()
        batched, reference = run_both(config, requests, mode="overlap")
        assert payload(batched) == payload(reference)
        assert batched.plan_cache_stats == reference.plan_cache_stats

    def test_compare_serving(self):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=64.0,
            distribution=distribution_by_name("summarize"),
            seed=1,
            num_requests=8,
        ).generate()
        batched = compare_serving(config, requests)
        with one_event_per_iteration() as engines:
            reference = compare_serving(config, requests)
        assert len(engines) == 2
        for arm in ("overlap", "non-overlap"):
            assert payload(batched[arm]) == payload(reference[arm])


class TestFaultedBitIdentity:
    @hsettings(max_examples=30, deadline=None)
    @given(
        preset=st.sampled_from(sorted(fault_presets())),
        traffic=TRAFFIC,
        fault_seed=st.integers(min_value=0, max_value=3),
    )
    def test_every_fault_preset(self, preset, traffic, fault_seed):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        batched, reference = run_both(
            config, requests, faults_preset=preset, fault_seed=fault_seed
        )
        assert payload(batched) == payload(reference)

    @pytest.mark.parametrize("preset", sorted(fault_presets()))
    def test_faults_with_deadline_policy(self, preset):
        config = ServeConfig(layers=1, max_batch_tokens=4096, max_batch_size=16)
        requests = PoissonArrivals(
            rate_rps=64.0,
            distribution=distribution_by_name("summarize"),
            seed=7,
            num_requests=16,
        ).generate()
        batched, reference = run_both(
            config, requests, faults_preset=preset, deadline=1.0
        )
        assert payload(batched) == payload(reference)
