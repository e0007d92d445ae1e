"""Request-policy semantics in the event engine.

The load-bearing validation here: pure hedging at delay zero with
``cancel_on_winner=False`` is *exactly* the static 2-way replication
that :class:`repro.core.redundancy.RedundancyModel` analyzes — every
key is sent to two servers and both copies run to completion, so the
per-server load doubles and the request takes the min per key. The
simulated mean server stage must sit below (it is an upper bound) and
within a pinned tolerance of the analytic ``request_mean_upper``.
"""

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.core.redundancy import RedundancyModel
from repro.faults import FaultSchedule, ServerSlowdown
from repro.policies import RequestPolicy
from repro.simulation import MemcachedSystemSimulator
from repro.units import kps, usec

N_KEYS = 20
SERVICE_RATE = kps(80)


def build_system(policy=None, *, utilization=0.25, n_servers=2, **overrides):
    request_rate = n_servers * utilization * SERVICE_RATE / N_KEYS
    defaults = dict(
        n_keys_per_request=N_KEYS,
        request_rate=request_rate,
        network_delay=0.0,
        miss_ratio=0.0,
        database_rate=None,
        seed=11,
        policy=policy,
    )
    defaults.update(overrides)
    return MemcachedSystemSimulator(
        ClusterModel.balanced(n_servers, SERVICE_RATE), **defaults
    )


class TestHedgingMatchesRedundancyAnalytic:
    """No-fault steady state: hedge(0, keep losers) == d=2 replication."""

    def test_mean_within_tolerance_of_analytic_upper(self):
        system = build_system(
            RequestPolicy.hedged(0.0, cancel_on_winner=False)
        )
        results = system.run(n_requests=4000, warmup_requests=400)
        workload = system.induced_server_workload(0)
        upper = RedundancyModel(
            workload, SERVICE_RATE, 2
        ).request_mean_upper(N_KEYS)
        ratio = results.server_stage.mean / upper
        # The quantile-rule bound is an over-estimate of the empirical
        # fork-join max; the simulated/analytic ratio measures 0.78
        # (stable to two digits across utilizations 0.20-0.30).
        assert ratio <= 1.0
        assert 0.60 <= ratio <= 0.95

    def test_ratio_stable_across_utilization(self):
        ratios = []
        for utilization in (0.2, 0.3):
            system = build_system(
                RequestPolicy.hedged(0.0, cancel_on_winner=False),
                utilization=utilization,
            )
            results = system.run(n_requests=4000, warmup_requests=400)
            upper = RedundancyModel(
                system.induced_server_workload(0), SERVICE_RATE, 2
            ).request_mean_upper(N_KEYS)
            ratios.append(results.server_stage.mean / upper)
        assert abs(ratios[0] - ratios[1]) < 0.08

    def test_load_inflates_by_replication_factor(self):
        base = build_system().run(n_requests=2000, warmup_requests=200)
        hedged = build_system(
            RequestPolicy.hedged(0.0, cancel_on_winner=False)
        ).run(n_requests=2000, warmup_requests=200)
        for busy_base, busy_hedged in zip(
            base.server_utilizations, hedged.server_utilizations
        ):
            assert busy_hedged == pytest.approx(2.0 * busy_base, rel=0.1)

    def test_cancellation_sheds_most_duplicate_load(self):
        base = build_system().run(n_requests=2000, warmup_requests=200)
        hedged = build_system(
            RequestPolicy.hedged(usec(400), cancel_on_winner=True)
        ).run(n_requests=2000, warmup_requests=200)
        # A p9x-style delay fires few hedges and cancellation drops the
        # queued losers, so the extra load stays far below the 2x of
        # static replication.
        for busy_base, busy_hedged in zip(
            base.server_utilizations, hedged.server_utilizations
        ):
            assert busy_hedged < 1.5 * busy_base


class TestHedgingUnderFaults:
    """The mitigation story: an asymmetric slowdown window wrecks the
    no-policy tail; hedging to the healthy server repairs it."""

    FAULTS = FaultSchedule.single(
        ServerSlowdown(start=0.2, duration=0.5, factor=0.35, server=0)
    )

    def _run(self, policy):
        system = build_system(
            policy,
            utilization=0.3125,
            network_delay=usec(20),
            seed=5,
            faults=self.FAULTS,
        )
        return system.run(n_requests=4000, warmup_requests=200)

    def test_hedged_p99_beats_no_policy_p99(self):
        base = self._run(None)
        hedged = self._run(RequestPolicy.hedged(usec(300)))
        base_p99 = base.total.quantiles([0.99])[0]
        hedged_p99 = hedged.total.quantiles([0.99])[0]
        assert hedged_p99 <= base_p99
        assert hedged_p99 < 0.5 * base_p99  # measured: ~6x improvement

    def test_timeout_retry_also_cuts_tail(self):
        base = self._run(None)
        retried = self._run(
            RequestPolicy.timeout_retry(usec(1000), max_retries=2)
        )
        base_p99 = base.total.quantiles([0.99])[0]
        retried_p99 = retried.total.quantiles([0.99])[0]
        assert retried_p99 < base_p99


class TestPolicyMechanics:
    def test_policy_run_deterministic_in_seed(self):
        policy = RequestPolicy(
            timeout=usec(800), max_retries=1, hedge_delay=usec(300)
        )
        a = build_system(policy).run(n_requests=500)
        b = build_system(policy).run(n_requests=500)
        assert a.total.samples().tolist() == b.total.samples().tolist()

    def test_policy_does_not_disturb_default_path_rng(self):
        # Attaching (then not attaching) a policy must not perturb the
        # policy-free stream: the policy RNG is a tagged child spawn.
        a = build_system(None).run(n_requests=300)
        b = build_system(None).run(n_requests=300)
        assert a.total.samples().tolist() == b.total.samples().tolist()

    def test_all_requests_complete_under_each_policy(self):
        for policy in (
            RequestPolicy.hedged(usec(200)),
            RequestPolicy.hedged(0.0, cancel_on_winner=False),
            RequestPolicy.timeout_retry(usec(300), max_retries=3),
            RequestPolicy(timeout=usec(400), max_retries=0),
            RequestPolicy(
                timeout=usec(500), max_retries=1, hedge_delay=usec(250)
            ),
        ):
            results = build_system(policy).run(n_requests=300)
            assert results.total.count == 300

    def test_single_server_hedging_supported(self):
        # With M=1 the hedge can only target the same server; it must
        # still resolve every request.
        results = build_system(
            RequestPolicy.hedged(usec(100)), n_servers=1
        ).run(n_requests=300)
        assert results.total.count == 300

    def test_request_log_with_policy(self):
        results = build_system(RequestPolicy.hedged(usec(200))).run(
            n_requests=200
        )
        log = results.request_log
        assert len(log) == 200
        assert all(r.completed >= r.born for r in log)
        assert all(np.isfinite(r.total) for r in log)

    def test_exhausted_retries_still_resolve(self):
        # A timeout far below the typical latency burns all retries and
        # then races untimed; nothing may hang or drop.
        policy = RequestPolicy.timeout_retry(usec(20), max_retries=2)
        results = build_system(policy).run(n_requests=300)
        assert results.total.count == 300
        # Every retry re-queues the key, so latency inflates, never
        # silently truncates.
        assert results.total.mean > 0.0
