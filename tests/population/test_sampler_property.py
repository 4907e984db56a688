"""Property: the pruned weighted top-k equals a sort of every key.

``ReputationWeightedSampler.sample`` drops each chunk's keys that cannot
reach the running top k before it sorts; ties survive the cut, so the
cohort must equal a full sort id for id — over chunks smaller than k,
required ids on chunk boundaries, and blocks of equal, negative and
huge reputations (1e300 sends every key in the block to exactly 1.0, so
the id tiebreak decides).

Two oracles. ``reputation_weighted_reference`` computes each key with
Python's scalar ``float ** float``, which can differ from NumPy's
vectorized power by one ulp; where reputations near 1e15 pack keys a
few ulps below 1.0 that flips near-equal pairs, so that band is checked
against ``full_sort_reference`` instead, which sorts the sampler's own
NumPy keys.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.population import ReputationWeightedSampler, WorkerPopulation
from repro.population.sampler import _required_array, _with_required
from tests.population.test_sampler import reputation_weighted_reference

SPREAD_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, -1.0, -1e300, 1e3, 1e300]),
    st.floats(-5.0, 50.0, allow_nan=False),
)
# keys a few ulps below 1.0: many exact and near ties
PACKED_VALUES = st.one_of(
    SPREAD_VALUES, st.sampled_from([1e15, 3e15, 1e16]),
)


def full_sort_reference(sampler, round_idx, population, cohort_size,
                        required=()):
    """Every key from the sampler's own chunk draws, then one lexsort."""
    n = population.size
    req = _required_array(required, n)
    k = min(cohort_size, n) - req.size
    if k <= 0:
        return req
    chunks = list(population.reputation_store.iter_chunks())
    ids = np.arange(n, dtype=np.int64)
    keys = np.concatenate(
        [sampler._chunk_keys(round_idx, start, reps) for start, reps in chunks]
    )
    keep = ~np.isin(ids, req)
    ids, keys = ids[keep], keys[keep]
    return _with_required(req, ids[np.lexsort((ids, -keys))[:k]])


@st.composite
def weighted_draws(draw, values=SPREAD_VALUES):
    n = draw(st.integers(1, 300))
    chunk = draw(st.one_of(st.integers(1, 16), st.sampled_from([64, 4096])))
    blocks = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, 200), values),
        max_size=4,
    ))
    boundaries = [
        i for c in range(0, n + chunk, chunk) for i in (c - 1, c) if 0 <= i < n
    ]
    required = draw(st.lists(
        st.one_of(st.sampled_from(boundaries), st.integers(0, n - 1)),
        max_size=min(n, 6),
    ))
    n_req = len(set(required))
    cohort_size = draw(st.one_of(
        st.sampled_from([0, 1]),
        st.integers(chunk + 1, chunk + 40),
        st.integers(max(n - n_req, 0), n + 3),
        st.integers(0, n),
    ))
    return dict(
        n=n, chunk=chunk, blocks=blocks, required=tuple(required),
        cohort_size=cohort_size,
        seed=draw(st.integers(0, 2**16)), round_idx=draw(st.integers(0, 50)),
    )


def _population(case):
    pop = WorkerPopulation(case["n"], reputation_chunk=case["chunk"])
    for start, length, value in case["blocks"]:
        stop = min(start + length, case["n"])
        pop.reputation_store.write_round(dict.fromkeys(range(start, stop), value))
    return pop


def _expected_size(case):
    return max(min(case["cohort_size"], case["n"]), len(set(case["required"])))


@settings(max_examples=300, deadline=None)
@given(weighted_draws())
def test_pruned_top_k_equals_reference(case):
    pop = _population(case)
    args = (case["round_idx"], pop, case["cohort_size"])
    fast = ReputationWeightedSampler(seed=case["seed"]).sample(
        *args, required=case["required"]
    )
    ref = reputation_weighted_reference(
        case["seed"], *args, required=case["required"]
    )
    assert np.array_equal(fast, ref)
    assert fast.size == _expected_size(case)


@settings(max_examples=300, deadline=None)
@given(weighted_draws(values=PACKED_VALUES))
def test_pruned_top_k_equals_full_sort(case):
    pop = _population(case)
    sampler = ReputationWeightedSampler(seed=case["seed"])
    args = (case["round_idx"], pop, case["cohort_size"])
    fast = sampler.sample(*args, required=case["required"])
    ref = full_sort_reference(sampler, *args, required=case["required"])
    assert np.array_equal(fast, ref)
    assert fast.size == _expected_size(case)
