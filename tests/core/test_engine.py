"""Round-engine tests: batched layout + vectorized-vs-scalar differentials.

The vectorized engine must be a drop-in for the scalar reference: every
per-round output (scores, accepts, reputations, distances, b_h,
contributions, shares, rewards) agrees to 1e-8 on seeded rounds, across
the pipeline's branchy corners — uncertain workers, all-rejected rounds,
both punish modes, reference baselines, the contribution filter's second
pass, server-mean references, SLM reputation, raw detection scores, and
non-finite gradients from blown-up training.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fifl as fifl_module
from repro.core import make_mechanism
from repro.core.fifl import stack_benchmarks
from repro.core.incentive import reward_shares_array
from repro.fl.gradients import fedavg, recombine, slice_offsets, split_gradient
from repro.fl.workers import WorkerUpdate
from tests.helpers import round_context

TOL = 1e-8


def make_ctx(
    num_workers=8,
    dim=48,
    num_servers=2,
    round_idx=0,
    seed=0,
    uncertain=(),
    attacker_scale=-2.0,
    blowup=(),
):
    """Synthetic round: servers are workers 0..M-1, every 5th worker deviates."""
    rng = np.random.default_rng(seed * 7919 + round_idx)
    server_ranks = list(range(num_servers))
    honest = rng.standard_normal(dim)
    updates = {}
    for wid in range(num_workers):
        noise = rng.standard_normal(dim)
        if wid in blowup:
            grad = np.full(dim, np.inf)
        elif wid % 5 or wid == 0:
            grad = honest + 0.3 * noise
        else:
            grad = attacker_scale * honest + noise
        updates[wid] = WorkerUpdate(
            worker_id=wid, gradient=grad, num_samples=100 + 10 * (wid % 3)
        )
    # uncertain workers lost a slice: no delivery this round
    return round_context(round_idx, server_ranks, updates, uncertain)


def _assert_value_close(a, b, label):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), f"{label}: {a} vs {b}"
        elif math.isinf(a) or math.isinf(b):
            assert a == b, f"{label}: {a} vs {b}"
        else:
            assert abs(a - b) < TOL, f"{label}: {a} vs {b}"
    else:
        assert a == b, f"{label}: {a!r} vs {b!r}"


def assert_records_match(scalar_records, vector_records):
    """Every FIFLRoundRecord field agrees across the two engines."""
    assert len(scalar_records) == len(vector_records)
    dict_fields = (
        "scores", "accepted", "reputations", "distances",
        "contribs", "shares", "rewards",
    )
    for s, v in zip(scalar_records, vector_records):
        for name in dict_fields:
            sd, vd = getattr(s, name), getattr(v, name)
            assert sd.keys() == vd.keys(), f"round {s.round_idx} {name} keys"
            for w in sd:
                _assert_value_close(
                    sd[w], vd[w], f"round {s.round_idx} {name}[{w}]"
                )
        if s.b_h is None or v.b_h is None:
            assert s.b_h == v.b_h, f"round {s.round_idx} b_h"
        else:
            _assert_value_close(s.b_h, v.b_h, f"round {s.round_idx} b_h")


def run_engines(contexts, **cfg_kwargs):
    """Same rounds through both engines; returns (scalar, vectorized) records."""
    out = {}
    for engine in ("scalar", "vectorized"):
        mech = make_mechanism("fifl", engine=engine, **cfg_kwargs)
        with np.errstate(all="ignore"):
            for ctx in contexts:
                mech.process_round(ctx)
        out[engine] = mech.records
    return out["scalar"], out["vectorized"]


# -- RoundBatch layout --------------------------------------------------------


class TestRoundBatch:
    def test_rows_are_recombined_gradients_in_id_order(self):
        ctx = make_ctx(num_workers=6, num_servers=3, uncertain=(4,))
        batch = ctx.batch
        assert list(batch.worker_ids) == [0, 1, 2, 3, 5]
        for i, wid in enumerate(batch.worker_ids):
            parts = split_gradient(ctx.updates[wid].gradient, 3)
            np.testing.assert_array_equal(batch.gradients[i], recombine(parts))
        np.testing.assert_array_equal(
            batch.sample_counts, [100.0, 110.0, 120.0, 100.0, 120.0]
        )

    def test_offsets_match_slice_offsets_table(self):
        ctx = make_ctx(num_workers=5, dim=50, num_servers=3)
        batch = ctx.batch
        np.testing.assert_array_equal(batch.offsets, slice_offsets(50, 3))

    def test_server_block_is_a_view_of_the_slice_columns(self):
        ctx = make_ctx(num_workers=5, num_servers=2)
        batch = ctx.batch
        for j in range(len(ctx.server_ranks)):
            block = batch.server_block(j)
            assert block.base is batch.gradients
            for i, wid in enumerate(batch.worker_ids):
                part = split_gradient(ctx.updates[wid].gradient, 2)[j]
                np.testing.assert_array_equal(block[i], part)

    def test_empty_round_stacks_to_zero_rows(self):
        ctx = make_ctx(num_workers=4, dim=48, uncertain=(0, 1, 2, 3))
        batch = ctx.batch
        assert batch.num_workers == 0
        assert batch.gradients.shape == (0, 48)
        np.testing.assert_array_equal(batch.offsets, slice_offsets(48, 2))
        assert batch.server_block(1).shape == (0, 24)

    def test_weighted_average_matches_fedavg_recombine(self):
        ctx = make_ctx(num_workers=7, num_servers=3)
        batch = ctx.batch
        keep = np.array([True, False, True, True, False, True, True])
        kept_ids = [int(w) for w, k in zip(batch.worker_ids, keep) if k]
        weights = [ctx.updates[w].num_samples for w in kept_ids]
        expected = recombine([
            fedavg(
                [split_gradient(ctx.updates[w].gradient, 3)[j] for w in kept_ids],
                weights,
            )
            for j in range(3)
        ])
        np.testing.assert_allclose(
            batch.weighted_average(keep), expected, atol=TOL, rtol=0
        )

    def test_weighted_average_all_kept_fast_path_agrees(self):
        ctx = make_ctx(num_workers=6)
        batch = ctx.batch
        all_keep = np.ones(batch.num_workers, dtype=bool)
        drop_none = batch.weighted_average(all_keep)
        # same reduction through the copying branch
        almost = all_keep.copy()
        expected = (
            batch.sample_counts / batch.sample_counts.sum()
        ) @ batch.gradients
        np.testing.assert_allclose(drop_none, expected, atol=TOL, rtol=0)
        assert batch.weighted_average(~almost) is None

    def test_mask_accepts_dict_and_array_forms(self):
        ctx = make_ctx(num_workers=4)
        batch = ctx.batch
        verdict = {0: True, 1: False, 2: True, 3: False}
        np.testing.assert_array_equal(
            batch.mask(verdict), np.array([True, False, True, False])
        )
        np.testing.assert_array_equal(
            batch.mask(np.array([1, 0, 1, 0], dtype=bool)),
            np.array([True, False, True, False]),
        )

    def test_mask_missing_worker_defaults_to_rejected(self):
        ctx = make_ctx(num_workers=3)
        batch = ctx.batch
        assert not batch.mask({0: True})[1:].any()

    def test_to_dict_roundtrip_and_shape_guard(self):
        ctx = make_ctx(num_workers=4)
        batch = ctx.batch
        cases = [
            (np.arange(4, dtype=np.float64), [0.0, 1.0, 2.0, 3.0], float),
            (np.array([True, False, False, True]), [True, False, False, True], bool),
            (np.arange(4, dtype=np.int64) * 3, [0, 3, 6, 9], int),
        ]
        for values, expected, kind in cases:
            out = batch.to_dict(values)
            assert out == dict(zip(range(4), expected))
            assert all(type(w) is int for w in out)
            assert all(type(v) is kind for v in out.values())
        with pytest.raises(ValueError):
            batch.to_dict(np.arange(3))
        with pytest.raises(ValueError):
            batch.to_dict(np.zeros((4, 2)))

    def test_row_sqnorms_cached_and_correct(self):
        ctx = make_ctx(num_workers=5)
        batch = ctx.batch
        first = batch.row_sqnorms
        np.testing.assert_allclose(
            first, (batch.gradients**2).sum(axis=1), atol=TOL, rtol=0
        )
        assert batch.row_sqnorms is first

    def test_stack_benchmarks_skips_crashed_servers(self):
        ctx = make_ctx(num_workers=6, num_servers=3)
        del ctx.updates[1]  # server 1 crashed: no local gradient
        ranks, slots, bench = stack_benchmarks(ctx)
        assert list(ranks) == [0, 2]
        assert list(slots) == [0, 2]
        for rank, slot, sl in zip(ranks, slots, bench):
            expected = split_gradient(ctx.updates[rank].gradient, 3)[slot]
            np.testing.assert_array_equal(sl, expected)


# -- differential: vectorized == scalar ---------------------------------------


class TestEngineDifferential:
    def test_multi_round_with_attackers_and_uncertain(self):
        contexts = [
            make_ctx(num_workers=12, num_servers=3, round_idx=t, uncertain=(7,))
            for t in range(5)
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.2))

    def test_single_server_no_self_score_exclusion(self):
        # m == 1: the self-scoring exclusion is disabled; the lone server
        # scores its own slice too.
        contexts = [
            make_ctx(num_workers=6, num_servers=1, round_idx=t) for t in range(3)
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.3))

    def test_all_rejected_round(self):
        # an impossible threshold rejects everyone: G̃ is None, no
        # contributions or rewards, reputations still update
        contexts = [make_ctx(num_workers=8, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(contexts, threshold=2.0, gamma=0.2))

    def test_everything_uncertain_round(self):
        # nobody delivers: detection has nothing to score, but uncertain
        # events still hit the reputation estimator
        contexts = [
            make_ctx(num_workers=4, round_idx=0),
            make_ctx(num_workers=4, round_idx=1, uncertain=(0, 1, 2, 3)),
            make_ctx(num_workers=4, round_idx=2),
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.2))

    @pytest.mark.parametrize("punish_mode", ["contribution", "eq15"])
    def test_punish_modes(self, punish_mode):
        contexts = [make_ctx(num_workers=10, round_idx=t) for t in range(3)]
        assert_records_match(
            *run_engines(contexts, threshold=0.0, punish_mode=punish_mode)
        )

    def test_reference_baseline(self):
        contexts = [make_ctx(num_workers=9, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_baseline="reference",
            reference_worker=3,
        ))

    def test_reference_baseline_with_reference_worker_missing(self):
        # the reference worker lost its upload: both engines fall back to
        # the zero baseline for that round
        contexts = [
            make_ctx(num_workers=9, round_idx=t, uncertain=(3,)) for t in range(2)
        ]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_baseline="reference",
            reference_worker=3,
        ))

    def test_contribution_filter_second_pass(self):
        contexts = [make_ctx(num_workers=12, round_idx=t) for t in range(4)]
        assert_records_match(*run_engines(
            contexts, threshold=-1.0, contribution_filter=True
        ))

    def test_server_mean_reference(self):
        contexts = [
            make_ctx(num_workers=10, num_servers=3, round_idx=t) for t in range(3)
        ]
        assert_records_match(*run_engines(
            contexts, threshold=0.0, contribution_reference="server_mean"
        ))

    def test_server_mean_with_contribution_filter_keeps_first_pass(self):
        # filter + server_mean: the second re-aggregation pass only applies
        # to the "aggregate" reference; both engines must skip it
        contexts = [make_ctx(num_workers=10, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_filter=True,
            contribution_reference="server_mean",
        ))

    def test_slm_reputation_mode(self):
        contexts = [
            make_ctx(num_workers=8, round_idx=t, uncertain=(5,) if t % 2 else ())
            for t in range(6)
        ]
        assert_records_match(*run_engines(
            contexts, threshold=0.0, reputation_mode="slm", slm_period=3
        ))

    def test_raw_detection_mode(self):
        contexts = [make_ctx(num_workers=8, round_idx=t) for t in range(3)]
        assert_records_match(
            *run_engines(contexts, threshold=0.0, mode="raw")
        )

    def test_non_finite_gradient_from_blown_up_worker(self):
        # high-intensity attacks legitimately produce inf gradients; the
        # vectorized expansion-form distances must repair those rows to
        # the scalar answer instead of emitting NaN
        contexts = [
            make_ctx(num_workers=8, round_idx=t, blowup=(6,)) for t in range(2)
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.2))

    def test_fifl_scalar_factory_preset_matches_explicit_engine(self):
        mech = make_mechanism("fifl-scalar", threshold=0.0)
        assert mech.config.engine == "scalar"

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_workers=st.integers(3, 16),
        num_servers=st.integers(1, 3),
        n_uncertain=st.integers(0, 2),
        threshold=st.sampled_from([-1.0, 0.0, 0.5]),
        punish_mode=st.sampled_from(["contribution", "eq15"]),
        contribution_filter=st.booleans(),
    )
    def test_property_seeded_rounds_agree(
        self, seed, num_workers, num_servers, n_uncertain,
        threshold, punish_mode, contribution_filter,
    ):
        num_servers = min(num_servers, num_workers)
        uncertain = tuple(
            range(num_servers, min(num_servers + n_uncertain, num_workers))
        )
        contexts = [
            make_ctx(
                num_workers=num_workers,
                dim=24,
                num_servers=num_servers,
                round_idx=t,
                seed=seed,
                uncertain=uncertain,
            )
            for t in range(3)
        ]
        assert_records_match(*run_engines(
            contexts,
            threshold=threshold,
            punish_mode=punish_mode,
            contribution_filter=contribution_filter,
        ))


# -- incentive step: reputation lookups ---------------------------------------


class TestIncentiveReputationLookup:
    """The vectorized incentive step asks the reputation model only for
    ids without a verdict this round, and prices shares exactly as the
    ``reputations.get(w, model.reputation(w))`` lookup did."""

    def _spied_round(self, monkeypatch, drop=()):
        mech = make_mechanism("fifl", threshold=0.0, gamma=0.2)
        mech.process_round(make_ctx(num_workers=10, round_idx=0))
        model = mech.reputation
        real_reputation = model.reputation
        calls, seen = [], {}

        def spy(w):
            calls.append(w)
            return real_reputation(w)

        update = mech._update_reputations

        def drop_verdicts(ctx, scores, accepted):
            outcomes, reps = update(ctx, scores, accepted)
            seen["reps"] = {w: r for w, r in reps.items() if w not in drop}
            return outcomes, seen["reps"]

        real_shares = fifl_module.reward_shares_array

        def capture(rep_vec, contrib_vec, punish_mode):
            seen["rep_vec"], seen["contrib_vec"] = rep_vec, contrib_vec
            return real_shares(rep_vec, contrib_vec, punish_mode=punish_mode)

        monkeypatch.setattr(model, "reputation", spy)
        monkeypatch.setattr(mech, "_update_reputations", drop_verdicts)
        monkeypatch.setattr(fifl_module, "reward_shares_array", capture)
        ctx = make_ctx(num_workers=10, round_idx=1, uncertain=(6,))
        mech.process_round(ctx)
        monkeypatch.undo()
        # the eager `.get(w, model.reputation(w))` lookup, after the round
        expected_rep_vec = np.asarray([
            seen["reps"].get(int(w), model.reputation(int(w)))
            for w in ctx.batch.worker_ids
        ])
        return mech, ctx, calls, seen, expected_rep_vec

    def test_no_model_lookups_when_every_worker_has_a_verdict(self, monkeypatch):
        mech, ctx, calls, seen, expected_rep_vec = self._spied_round(monkeypatch)
        assert calls == []
        np.testing.assert_array_equal(seen["rep_vec"], expected_rep_vec)

    def test_model_consulted_only_for_absent_ids(self, monkeypatch):
        mech, ctx, calls, seen, expected_rep_vec = self._spied_round(
            monkeypatch, drop=(3, 8)
        )
        assert calls == [3, 8]
        np.testing.assert_array_equal(seen["rep_vec"], expected_rep_vec)
        record = mech.records[-1]
        shares = reward_shares_array(
            expected_rep_vec, seen["contrib_vec"],
            punish_mode=mech.config.punish_mode,
        )
        ids = ctx.batch.worker_ids.tolist()
        assert record.shares == dict(zip(ids, shares.tolist()))
        assert record.rewards == dict(
            zip(ids, (shares * mech.config.budget_per_round).tolist())
        )


# -- differential on the paper-figure configs ---------------------------------


@pytest.mark.slow
class TestFigureConfigDifferential:
    """End-to-end training agrees across engines on real figure configs."""

    @staticmethod
    def _run_both(fed_cfg, attackers):
        from repro.experiments.common import run_federated

        out = {}
        for engine in ("scalar", "vectorized"):
            history, mech = run_federated(
                fed_cfg.scaled(engine=engine), attackers, with_fifl=True
            )
            out[engine] = (history, mech)
        (h_s, m_s), (h_v, m_v) = out["scalar"], out["vectorized"]
        acc_s = [a for a in h_s.series("test_acc") if a is not None]
        acc_v = [a for a in h_v.series("test_acc") if a is not None]
        np.testing.assert_allclose(acc_s, acc_v, atol=TOL, rtol=0)
        assert_records_match(m_s.records, m_v.records)

    def test_fig09_config(self):
        from repro.experiments import fig09_detection
        from repro.experiments.common import data_poison

        fed = fig09_detection._default_fed().scaled(
            rounds=4, eval_every=4, detection_threshold=0.1
        )
        self._run_both(fed, {6: data_poison(0.5), 7: data_poison(0.5)})

    def test_fig11_config(self):
        from repro.experiments import fig11_reputation
        from repro.experiments.common import probabilistic

        fed = fig11_reputation.default_config().scaled(rounds=4, eval_every=4)
        attackers = {
            i: probabilistic(p_a, 4.0)
            for i, p_a in zip((4, 5, 6, 7), (0.2, 0.4, 0.6, 0.8))
        }
        self._run_both(fed, attackers)

    def test_fig12_config(self):
        from repro.experiments import fig12_contribution
        from repro.experiments.common import data_poison

        fed = fig12_contribution.default_config().scaled(
            rounds=3,
            eval_every=3,
            samples_per_worker=300,
            batch_size=300,
            reference_worker=7,
        )
        attackers = {
            i: data_poison(p_d)
            for i, p_d in zip((5, 6, 7, 8, 9), (0.0, 0.1, 0.2, 0.3, 0.4))
        }
        self._run_both(fed, attackers)
