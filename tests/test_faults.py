"""Tests for fault injection, retries, graceful degradation and the config API."""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, CostLedger, CostModel
from repro.db.cost import billed_to
from repro.faults import (
    ConnectionDroppedError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryDeadlineError,
    RetryGiveUpError,
    RetryPolicy,
    TransientDBError,
)
from repro.obs import MetricsRegistry, Tracer

FAST = CostModel(time_scale=0.0)

# Zero-backoff policy: keeps retry-heavy tests instant without changing
# the attempt accounting under test.
INSTANT = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture()
def server(tiny_corpus):
    return CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)


def make_detector(model, featurizer, *, plan_metrics=None, pipelined=False, **runtime_kwargs):
    runtime_kwargs.setdefault("retry_policy", INSTANT)
    runtime_kwargs.setdefault("tracer", Tracer(enabled=False))
    if plan_metrics is not None:
        runtime_kwargs.setdefault("metrics", plan_metrics)
    return TasteDetector(
        model,
        featurizer,
        # Wide uncertainty band: with an untrained model every column's
        # probabilities hover near 0.5, so every table goes through Phase 2.
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=pipelined),
        runtime=RuntimeConfig(**runtime_kwargs),
    )


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        calls = []
        result = RetryPolicy().run(lambda: calls.append(1) or "ok")
        assert result == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientDBError("boom")
            return "recovered"

        retried = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
        result = policy.run(flaky, on_retry=lambda e, n, d: retried.append((n, d)))
        assert result == "recovered"
        assert len(attempts) == 3
        assert [n for n, _ in retried] == [1, 2]

    def test_give_up_raises_with_cause(self):
        def always_fails():
            raise TransientDBError("down")

        gave_up = []
        with pytest.raises(RetryGiveUpError) as excinfo:
            INSTANT.run(
                always_fails,
                label="meta",
                on_giveup=lambda e, n: gave_up.append(n),
            )
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, TransientDBError)
        assert "meta" in str(excinfo.value)
        assert gave_up == [3]

    def test_non_retryable_propagates_unchanged(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("not a fault")

        with pytest.raises(KeyError):
            INSTANT.run(broken)
        assert len(calls) == 1  # no retry for non-fault errors

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.04, multiplier=2.0)
        delays = [policy.backoff_delay(i) for i in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jittered_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=1.0, jitter=0.5, seed=42
        )

        def schedule():
            delays = []

            def always_fails():
                raise TransientDBError("x")

            with pytest.raises(RetryGiveUpError):
                policy.run(
                    always_fails,
                    on_retry=lambda e, n, d: delays.append(d),
                    sleep=lambda s: None,
                )
            return delays

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 3
        assert all(d >= 0.001 for d in first)

    def test_deadline_exceeded(self):
        clock = iter([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.0, max_delay=0.0, deadline=5.0
        )

        def always_fails():
            raise TransientDBError("slow")

        with pytest.raises(RetryDeadlineError) as excinfo:
            policy.run(always_fails, clock=lambda: next(clock), sleep=lambda s: None)
        assert isinstance(excinfo.value, RetryGiveUpError)  # one except clause catches both
        assert excinfo.value.attempts == 1

    def test_with_deadline_returns_copy(self):
        policy = RetryPolicy()
        assert policy.deadline is None
        assert policy.with_deadline(2.0).deadline == 2.0
        assert policy.deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": -0.1},
            {"deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# FaultRule / FaultPlan / FaultInjector
# ---------------------------------------------------------------------------
class TestFaultRules:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"operation": "nope", "kind": "transient"},
            {"operation": "fetch_values", "kind": "nope"},
            {"operation": "fetch_values", "kind": "transient", "probability": 1.5},
            {"operation": "fetch_values", "kind": "latency"},  # zero delay
            {"operation": "fetch_metadata", "kind": "throttle", "delay": 0.1},
            {"operation": "fetch_values", "kind": "transient", "max_faults": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(**kwargs)

    def test_table_restricted_rule_never_matches_tableless_ops(self):
        rule = FaultRule("*", "transient", tables=("orders",))
        assert rule.matches("fetch_metadata", "orders")
        assert not rule.matches("fetch_metadata", "users")
        assert not rule.matches("connect", None)

    def test_exact_fault_counts_with_max_faults(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", max_faults=2),)
        )
        injector = plan.build(metrics=MetricsRegistry())
        connection = injector.connect(server)
        table = server.database.table_names()[0]
        for _ in range(2):
            with pytest.raises(TransientDBError):
                connection.fetch_metadata(table)
        # Cap reached: the third attempt goes through.
        assert connection.fetch_metadata(table).name == table
        assert injector.fired == (2,)
        assert injector.total_fired == 2

    def test_failed_attempts_charge_nothing(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", max_faults=3),)
        )
        connection = plan.build(metrics=MetricsRegistry()).connect(server)
        table = server.database.table_names()[0]
        with billed_to(CostLedger()) as ledger:
            for _ in range(3):
                with pytest.raises(TransientDBError):
                    connection.fetch_metadata(table)
            assert ledger.metadata_requests == 0  # faults fire pre-charge
            connection.fetch_metadata(table)
        assert ledger.metadata_requests == 1
        assert ledger.round_trips == 1

    def test_drop_then_transparent_reconnect(self, server):
        plan = FaultPlan(rules=(FaultRule("fetch_values", "drop", max_faults=1),))
        with billed_to(CostLedger()) as ledger:
            connection = plan.build(metrics=MetricsRegistry()).connect(server)
        table = server.database.table_names()[0]
        column = connection.fetch_metadata(table).columns[0].column_name
        assert ledger.connections_opened == 1
        with billed_to(CostLedger()) as retried:
            with pytest.raises(ConnectionDroppedError):
                connection.fetch_values(table, [column], limit=2)
            values = connection.fetch_values(table, [column], limit=2)
        assert column in values
        assert connection.reconnects == 1
        # The reconnect pays connect cost, billed to whoever's call made it.
        assert retried.connections_opened == 1
        assert retried.scan_queries == 1

    def test_injected_latency_accounted_outside_ledger(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "latency", delay=0.25, max_faults=1),)
        )
        metrics = MetricsRegistry()
        injector = plan.build(metrics=metrics)
        connection = injector.connect(server)
        with billed_to(CostLedger()) as ledger:
            connection.fetch_metadata(server.database.table_names()[0])
        assert injector.injected_latency == pytest.approx(0.25)
        assert metrics.counter("faults.injected_latency_seconds").value == pytest.approx(0.25)
        # The ledger charges the normal metadata cost only — injected delay
        # is accounted by the injector, never billed to the database.
        assert ledger.simulated_seconds < 0.25

    def test_throttle_scales_with_column_count(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_values", "throttle", delay=0.01, max_faults=1),)
        )
        injector = plan.build(metrics=MetricsRegistry())
        connection = injector.connect(server)
        table = server.database.table_names()[0]
        columns = [c.column_name for c in connection.fetch_metadata(table).columns[:3]]
        connection.fetch_values(table, columns, limit=2)
        assert injector.injected_latency == pytest.approx(0.01 * len(columns))

    def test_probabilistic_stream_reproducible(self, server):
        def fired_by_table(names):
            plan = FaultPlan(
                seed=9, rules=(FaultRule("fetch_metadata", "transient", probability=0.5),)
            )
            connection = plan.build(metrics=MetricsRegistry()).connect(server)
            outcomes = {}
            for name in names:
                try:
                    connection.fetch_metadata(name)
                    outcomes[name] = False
                except TransientDBError:
                    outcomes[name] = True
            return outcomes

        names = server.database.table_names()
        reference = fired_by_table(names)
        assert len(set(reference.values())) == 2  # some fire, some do not
        assert fired_by_table(names) == reference
        # Keyed per table: arrival order does not move a fault elsewhere.
        assert fired_by_table(names[::-1]) == reference

    def test_injected_metric_labelled_by_kind(self, server):
        metrics = MetricsRegistry()
        plan = FaultPlan(rules=(FaultRule("fetch_metadata", "transient", max_faults=2),))
        connection = plan.build(metrics=metrics).connect(server)
        for _ in range(2):
            with pytest.raises(TransientDBError):
                connection.fetch_metadata(server.database.table_names()[0])
        assert metrics.counter("faults.injected", kind="transient").value == 2
        assert metrics.counter("faults.injected", kind="drop").value == 0


# ---------------------------------------------------------------------------
# DetectorConfig validation (incl. the sample_seed satellite)
# ---------------------------------------------------------------------------
class TestDetectorConfig:
    def test_negative_sample_seed_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="sample_seed"):
            DetectorConfig(sample_seed=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scan_method": "random"},
            {"prep_workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)

    def test_replace_revalidates(self):
        config = DetectorConfig()
        assert config.replace(pipelined=False).pipelined is False
        with pytest.raises(ValueError):
            config.replace(sample_seed=-5)


# ---------------------------------------------------------------------------
# End-to-end resilience: detect() under fault plans
# ---------------------------------------------------------------------------
class TestGracefulDegradation:
    pipelined = False

    def detector(self, model, featurizer, **runtime_kwargs):
        return make_detector(model, featurizer, pipelined=self.pipelined, **runtime_kwargs)

    def test_phase2_giveup_degrades_to_phase1(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        metrics = MetricsRegistry()
        detector = self.detector(untrained_model, featurizer, metrics=metrics)
        plan = FaultPlan.transient(1.0)  # every content scan fails, always
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))

        expected = sorted(t.name for t in tiny_corpus.test)
        assert sorted(t.table_name for t in report.tables) == expected
        # Untrained model => every table had uncertain columns => every
        # table attempted Phase 2 and degraded.
        assert sorted(report.degraded_tables()) == expected
        assert report.failed_tables() == []
        assert not report.ok
        # All predictions fell back to metadata-only.
        assert all(p.phase == 1 for p in report.predictions)
        assert any(p.degraded for p in report.predictions)
        # Exact, deterministic accounting: 3 attempts => 2 retries per table.
        per_table = INSTANT.max_attempts - 1
        assert report.retries == per_table * len(expected)
        assert report.giveups == len(expected)
        assert metrics.counter("faults.retries", stage="p2.prep").value == report.retries
        assert metrics.counter("faults.giveups", stage="p2.prep").value == len(expected)
        assert metrics.counter("detector.tables_degraded").value == len(expected)
        summary = report.failure_summary()
        assert sorted(summary["degraded"]) == expected
        assert summary["degraded_columns"] == sum(1 for p in report.predictions if p.degraded)
        assert set(summary["errors"]) == set(expected)

    def test_phase1_giveup_marks_table_failed(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        metrics = MetricsRegistry()
        detector = self.detector(untrained_model, featurizer, metrics=metrics)
        target = tiny_corpus.test[0].name
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", tables=(target,)),)
        )
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert report.failed_tables() == [target]
        failed = next(t for t in report.tables if t.table_name == target)
        assert failed.predictions == []
        assert failed.error is not None
        assert metrics.counter("detector.tables_failed").value == 1
        # Every other table is untouched and fully predicted.
        others = [t for t in report.tables if t.table_name != target]
        assert all(t.predictions for t in others)

    def test_degrade_false_raises(self, untrained_model, featurizer, server):
        detector = self.detector(untrained_model, featurizer, degrade=False)
        plan = FaultPlan.transient(1.0)
        with pytest.raises(RetryGiveUpError):
            detector.detect(server, options=DetectOptions(fault_plan=plan))

    def test_connect_giveup_raises_even_when_degrading(
        self, untrained_model, featurizer, server
    ):
        metrics = MetricsRegistry()
        detector = self.detector(untrained_model, featurizer, metrics=metrics)
        plan = FaultPlan(rules=(FaultRule("connect", "transient"),))
        with pytest.raises(RetryGiveUpError):
            detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert metrics.counter("faults.giveups", stage="connect").value == 1

    def test_recovered_drop_keeps_report_ok(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        detector = self.detector(untrained_model, featurizer)
        plan = FaultPlan(rules=(FaultRule("fetch_values", "drop", max_faults=1),))
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert report.ok  # the drop was retried away, not degraded
        assert report.retries == 1
        assert report.faults_injected == 1
        assert report.cost["connections_opened"] == 2

    def test_retried_run_charges_like_fault_free_run(
        self, untrained_model, featurizer, tiny_corpus
    ):
        def run(plan):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = self.detector(untrained_model, featurizer)
            options = DetectOptions(fault_plan=plan) if plan is not None else None
            report = detector.detect(server, options=options)
            return report.cost

        clean = run(None)
        faulted = run(
            FaultPlan(rules=(FaultRule("fetch_metadata", "transient", max_faults=2),))
        )
        # Retried-away transient faults leave the charged work identical:
        # failed attempts billed nothing, the eventual success billed once.
        for key in ("metadata_requests", "scan_queries", "rows_read", "connections_opened"):
            assert faulted[key] == clean[key], key

    def test_no_faults_plan_is_inert(self, untrained_model, featurizer, server):
        detector = self.detector(untrained_model, featurizer)
        report = detector.detect(
            server, options=DetectOptions(fault_plan=FaultPlan.transient(0.0))
        )
        assert report.ok
        assert report.faults_injected == 0
        assert report.retries == 0
        assert report.failure_summary()["ok"] is True


class TestGracefulDegradationPipelined(TestGracefulDegradation):
    """The same exact retry, give-up and ledger counts with tables in flight
    on two prep workers: fault draws are keyed per table, not per arrival."""

    pipelined = True
    # One drop on the connection the workers share: which worker pays the
    # reconnect is arrival-ordered (see FaultInjector), so the sequential
    # test's exact connection count is not a pipelined invariant.
    test_recovered_drop_keeps_report_ok = None


class TestPipelineUnderFaults:
    def test_pipelined_run_completes_with_zero_wait_timeouts(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        detector = TasteDetector(
            untrained_model,
            featurizer,
            ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=True),
            runtime=RuntimeConfig(
                metrics=metrics, retry_policy=INSTANT, tracer=Tracer(enabled=False)
            ),
        )
        plan = FaultPlan.chaos(rate=0.2, seed=3, delay=1e-4)
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        expected = sorted(t.name for t in tiny_corpus.test)
        assert sorted(t.table_name for t in report.tables) == expected
        # Degraded/failed tables must not wedge the executor: a healthy
        # drain records zero stalled waits.
        assert metrics.counter("pipeline.wait_timeouts").value == 0

    @pytest.mark.parametrize("prep_workers", [1, 2, 4])
    def test_per_table_outcomes_match_sequential_run(
        self, untrained_model, featurizer, tiny_corpus, prep_workers
    ):
        """Which table eats a probabilistic fault is fixed by the plan, not
        by which worker reaches the injector first."""
        tables = tiny_corpus.tables[:8]
        plan = FaultPlan.transient(
            0.4, seed=3, operations=("fetch_metadata", "fetch_values")
        )

        def outcomes(detector):
            server = CloudDatabaseServer.from_tables(tables, FAST)
            report = detector.detect(server, options=DetectOptions(fault_plan=plan))
            return {
                t.table_name: (
                    t.retries, t.degraded, t.failed, tuple(p.phase for p in t.predictions)
                )
                for t in report.tables
            }

        reference = outcomes(make_detector(untrained_model, featurizer))
        # The plan bites in every way a table can be affected.
        assert sum(retries for retries, *_ in reference.values()) > len(tables)
        assert any(degraded for _, degraded, _, _ in reference.values())
        assert any(failed for _, _, failed, _ in reference.values())

        detector = TasteDetector(
            untrained_model,
            featurizer,
            ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=True, prep_workers=prep_workers),
            runtime=RuntimeConfig(
                metrics=MetricsRegistry(), retry_policy=INSTANT, tracer=Tracer(enabled=False)
            ),
        )
        for _ in range(50):
            assert outcomes(detector) == reference
