"""Tests for the hand-rolled trace builders."""

import pytest

from repro.trace.patterns import ConstantBias, StepChange
from repro.trace.synthetic import (
    round_robin_trace,
    single_branch_trace,
    trace_from_outcomes,
    uniform_model,
)


class TestTraceFromOutcomes:
    def test_round_robin_interleave(self):
        trace = trace_from_outcomes({0: [True, True], 1: [False, False]})
        assert list(trace.branch_ids) == [0, 1, 0, 1]
        assert list(trace.taken) == [True, False, True, False]

    def test_uneven_lengths(self):
        trace = trace_from_outcomes({0: [True], 1: [False, False, False]})
        assert list(trace.branch_ids) == [0, 1, 1, 1]

    def test_preserves_per_branch_order(self):
        trace = trace_from_outcomes({0: [True, False, True]})
        idx = trace.groups().indices_of(0)
        assert list(trace.taken[idx]) == [True, False, True]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            trace_from_outcomes({})

    def test_instruction_stride(self):
        trace = single_branch_trace([True, True], instr_stride=5)
        assert list(trace.instrs) == [5, 10]


class TestRoundRobinTrace:
    def test_patterns_apply_per_branch(self):
        trace = round_robin_trace(
            [ConstantBias(1.0), ConstantBias(0.0)], length=100, seed=0)
        g = trace.groups()
        assert trace.taken[g.indices_of(0)].all()
        assert not trace.taken[g.indices_of(1)].any()

    def test_exec_indexed_patterns(self):
        trace = round_robin_trace([StepChange(0.0, 1.0, 10)], length=30)
        outcomes = trace.taken[trace.groups().indices_of(0)]
        assert not outcomes[:10].any() and outcomes[10:].all()

    def test_rejects_empty_patterns(self):
        with pytest.raises(ValueError):
            round_robin_trace([], length=10)


class TestUniformModel:
    def test_builds_single_region(self):
        model = uniform_model(5, p=0.5)
        assert model.n_static == 5
        assert len(model.regions) == 1


class TestTenantAssignment:
    def test_deterministic_and_typed(self):
        import numpy as np

        from repro.trace.synthetic import assign_tenants

        a = assign_tenants(1000, 64, "zipf", seed=5)
        b = assign_tenants(1000, 64, "zipf", seed=5)
        assert a.dtype == np.uint32
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 64
        assert (assign_tenants(1000, 64, "zipf", seed=6) != a).any()

    def test_single_tenant_is_all_zero(self):
        from repro.trace.synthetic import assign_tenants

        assert not assign_tenants(100, 1).any()

    def test_uniform_mix_spreads(self):
        import numpy as np

        from repro.trace.synthetic import assign_tenants

        col = assign_tenants(50_000, 16, "uniform", seed=1)
        counts = np.bincount(col, minlength=16)
        assert (counts > 0).all()
        # No tenant dominates a uniform spray.
        assert counts.max() < 2 * counts.min() + 100

    def test_zipf_mix_is_head_heavy(self):
        import numpy as np

        from repro.trace.synthetic import assign_tenants

        col = assign_tenants(50_000, 1024, "zipf", s=1.5, seed=2)
        counts = np.bincount(col, minlength=1024)
        # Rank 0 carries far more than a uniform share...
        assert counts[0] > 10 * (50_000 / 1024)
        # ...and the head outweighs the whole tail.
        assert counts[:8].sum() > counts[8:].sum()

    def test_validation(self):
        from repro.trace.synthetic import assign_tenants

        with pytest.raises(ValueError):
            assign_tenants(0, 4)
        with pytest.raises(ValueError):
            assign_tenants(10, 0)
        with pytest.raises(ValueError):
            assign_tenants(10, 4, "bogus")

    def test_with_tenants_attaches_column_and_meta(self):
        from repro.trace.synthetic import round_robin_trace, with_tenants

        base = round_robin_trace([ConstantBias(0.5)] * 3, length=300,
                                 seed=1)
        assert base.tenants is None
        tenanted = with_tenants(base, 8, "uniform", seed=4)
        assert base.tenants is None  # the original is untouched
        assert tenanted.tenants is not None
        assert len(tenanted.tenants) == len(tenanted)
        assert tenanted.meta["n_tenants"] == 8
        assert tenanted.meta["tenant_mix"] == "uniform"
        # The branch/outcome/instr columns are the same events.
        import numpy as np

        np.testing.assert_array_equal(tenanted.branch_ids,
                                      base.branch_ids)
        np.testing.assert_array_equal(tenanted.taken, base.taken)

    def test_slice_carries_tenants(self):
        from repro.trace.synthetic import round_robin_trace, with_tenants

        base = round_robin_trace([ConstantBias(0.5)] * 2, length=100)
        tenanted = with_tenants(base, 4, seed=0)
        part = tenanted.slice(10, 30)
        import numpy as np

        np.testing.assert_array_equal(part.tenants,
                                      tenanted.tenants[10:30])


class TestTrainThenFlipTrace:
    def test_default_length_and_round_robin(self):
        from repro.trace.synthetic import train_then_flip_trace

        trace = train_then_flip_trace(n_branches=4, flip_at=16)
        assert len(trace) == 3 * 16 * 4
        assert trace.name == "train-then-flip"
        assert set(trace.branch_ids.tolist()) == {0, 1, 2, 3}

    def test_every_branch_flips_at_flip_at(self):
        import numpy as np

        from repro.trace.synthetic import train_then_flip_trace

        flip_at = 32
        trace = train_then_flip_trace(n_branches=3, flip_at=flip_at,
                                      seed=0)
        for b in range(3):
            outcomes = trace.taken[trace.branch_ids == b]
            assert np.all(outcomes[:flip_at])
            assert not np.any(outcomes[flip_at:])

    def test_deterministic_under_seed(self):
        import numpy as np

        from repro.trace.synthetic import train_then_flip_trace

        a = train_then_flip_trace(n_branches=2, flip_at=8, seed=7)
        b = train_then_flip_trace(n_branches=2, flip_at=8, seed=7)
        assert np.array_equal(a.taken, b.taken)
        assert np.array_equal(a.branch_ids, b.branch_ids)


class TestSlowPoisonTrace:
    def test_trains_then_softens_below_eviction(self):
        import numpy as np

        from repro.trace.synthetic import slow_poison_trace

        trace = slow_poison_trace(n_branches=3, train_for=512,
                                  misspec_increment=50,
                                  correct_decrement=1, margin=0.9,
                                  seed=1)
        assert len(trace) == 3 * 512 * 3
        assert trace.name == "slow-poison"
        for b in range(3):
            outcomes = trace.taken[trace.branch_ids == b]
            assert np.all(outcomes[:512])
            soft = outcomes[512:]
            miss = 1.0 - soft.mean()
            # Break-even miss rate is 1/51 ≈ 0.0196; the tuned rate is
            # 0.9 of it.  The draw should land close.
            assert 0.0 < miss < 1 / 51

    def test_controller_keeps_poisoned_branch_deployed(self):
        """The tuned rate really does sit under eviction: the branch
        stays deployed and taxes every window with misses."""
        from repro.core.config import ControllerConfig
        from repro.serve.shard import BankShard
        from repro.trace.synthetic import slow_poison_trace

        config = ControllerConfig(
            monitor_period=64, selection_threshold=0.95,
            evict_counter_max=500, misspec_increment=50,
            correct_decrement=1, revisit_period=100_000,
            oscillation_limit=5, optimization_latency=64)
        # margin 0.5: miss rate at half the break-even drift.  (At 0.9
        # the *expected* walk still drifts down but a lucky miss
        # cluster can cross max=500 over a long run — exactly the
        # stochastic edge the pattern lets experiments explore; for a
        # deterministic assertion we stand further back from it.)
        trace = slow_poison_trace(n_branches=4, train_for=256,
                                  length=4 * 6_000,
                                  misspec_increment=50,
                                  correct_decrement=1, margin=0.5,
                                  seed=3)
        shard = BankShard(0, config)
        for lo in range(0, len(trace), 4_096):
            hi = lo + 4_096
            shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                        trace.instrs[lo:hi])
        state = shard.export_state()
        assert all(s["evictions"] == 0 for s in state["bank"])
        assert all(s["deployed"] for s in state["bank"])
        assert shard.incorrect > 0   # the permanent misspeculation tax
