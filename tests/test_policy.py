import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparselb.policy import (
    PROBE_BLOCK,
    PROBE_MAX_SUPPORT,
    AssignmentPolicy,
    empirical_lipschitz,
    invert_cdf,
    jsqd_policy,
    occupancy_from_distribution,
    distribution_from_occupancy,
    policy_from_name,
    validate_distribution,
)


from oracles import grid_distributions, min_of_d_oracle


def test_jsqd_simple_values():
    p2 = jsqd_policy(2)
    assert np.array_equal(p2.probabilities([1, 0, 0]), [1, 0, 0])
    assert np.allclose(p2.probabilities([0.5, 0.5]), [0.75, 0.25], atol=1e-15)
    assert p2.declared_lipschitz_bound == 16


def test_jsqd_declared_bounds():
    for d in range(1, 6):
        assert jsqd_policy(d).declared_lipschitz_bound == 2 * math.factorial(d) * d * d


def test_jsqd_rejects_bad_d():
    with pytest.raises(ValueError):
        jsqd_policy(0)


def test_policy_from_name():
    assert policy_from_name("jsq-d:3").name == "jsq-d:3"
    with pytest.raises(ValueError):
        policy_from_name("round-robin")


def test_brute_force_oracle_equivalence():
    # every grid distribution with 6 levels in eighths, d in {1,2,3}
    count = 0
    for x in grid_distributions(6, 8):
        for d in (1, 2, 3):
            got = jsqd_policy(d).probabilities(x)
            expect = min_of_d_oracle(x, d)
            assert np.max(np.abs(got - expect)) <= 1e-12
        count += 1
    assert count == math.comb(13, 5)


def test_probability_sum_on_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        size = int(rng.integers(1, 25))
        x = rng.dirichlet(np.ones(size))
        for d in (1, 2, 3):
            p = jsqd_policy(d).probabilities(x)
            assert abs(p.sum() - 1.0) <= 1e-10
            assert np.all(p >= -1e-15)


def test_zero_mass_levels_get_zero_probability():
    rng = np.random.default_rng(7)
    policy = jsqd_policy(3)
    for _ in range(200):
        x = rng.dirichlet(np.ones(8))
        x[rng.integers(8)] = 0.0
        x = x / x.sum()
        p = policy.probabilities(x)
        assert np.all(p[x == 0.0] == 0.0)


def test_monotone_dominance():
    # truncating x at level k moves mass down; occupancy drops pointwise,
    # so every assignment tail sum must drop too
    rng = np.random.default_rng(3)
    policy = jsqd_policy(2)
    for _ in range(200):
        x = rng.dirichlet(np.ones(10))
        k = int(rng.integers(1, 9))
        y = x.copy()
        y[k] += y[k + 1 :].sum()
        y[k + 1 :] = 0.0
        qx = occupancy_from_distribution(x)
        qy = occupancy_from_distribution(y)
        assert np.all(qx >= qy - 1e-15)
        px, py = policy.probabilities(x), policy.probabilities(y)
        tail_x = px[::-1].cumsum()[::-1]
        tail_y = py[::-1].cumsum()[::-1]
        assert np.all(tail_x >= tail_y - 1e-10)


def test_occupancy_conversions():
    x = [0.5, 0.3, 0.2]
    q = occupancy_from_distribution(x)
    assert np.allclose(q, [1.0, 0.5, 0.2, 0.0], atol=1e-15)
    back = distribution_from_occupancy(q)
    assert np.allclose(back[:3], x, atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.dirichlet(np.ones(int(rng.integers(1, 12))))
        q = occupancy_from_distribution(x)
        assert np.all(np.diff(q) <= 1e-15)
        assert np.allclose(distribution_from_occupancy(q)[: x.size], x, atol=1e-12)


def test_validate_distribution_errors():
    with pytest.raises(ValueError):
        validate_distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        validate_distribution([1.5, -0.5])
    with pytest.raises(ValueError):
        validate_distribution([])
    for x in ([np.nan, 1.0], [0.5, np.nan, 0.5]):
        with pytest.raises(ValueError):
            validate_distribution(x)


def test_invariant_enforced_on_user_policies():
    bad = AssignmentPolicy("broken", lambda x: x * 2.0)
    with pytest.raises(ValueError):
        bad.probabilities([0.5, 0.5])
    leaky = AssignmentPolicy("leaky", lambda x: np.ones_like(x) / x.size)
    with pytest.raises(ValueError):
        leaky.probabilities([0.5, 0.5, 0.0])  # mass on an empty level
    nan = AssignmentPolicy("nan", lambda x: np.full_like(x, np.nan))
    with pytest.raises(ValueError, match="invalid probability vector"):
        nan.probabilities([0.5, 0.5])
    short = AssignmentPolicy("short", lambda x: x[..., :1])
    with pytest.raises(ValueError, match="shape"):
        short.probabilities([0.5, 0.5])


def test_unvalidated_block_is_checked_row_by_row():
    policy = jsqd_policy(2)
    block = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    p = policy.probabilities(block, validate=False)
    assert np.array_equal(p[1], policy.probabilities([0.5, 0.5, 0.0]))
    leaky = AssignmentPolicy("leaky", lambda x: np.ones_like(x) / x.shape[-1])
    with pytest.raises(ValueError, match="empty queue length"):
        leaky.probabilities(block, validate=False)


def test_sample_assignment_degenerate():
    rng = random.Random(0)
    policy = jsqd_policy(2)
    assert all(invert_cdf(policy.probabilities([1.0, 0.0]), rng.random()) == 0 for _ in range(50))
    x = [0.0, 0.0, 0.0, 1.0]
    assert all(invert_cdf(policy.probabilities(x), rng.random()) == 3 for _ in range(50))


def test_sample_assignment_statistics():
    # P(join empty queue) = 1 - 0.5^2 = 0.75 for x = (1/2, 1/2), d = 2
    rng = random.Random(123)
    policy = jsqd_policy(2)
    draws = 200_000
    hits = sum(invert_cdf(policy.probabilities([0.5, 0.5]), rng.random()) == 0 for _ in range(draws))
    assert abs(hits / draws - 0.75) <= 0.004


def test_invert_cdf_skips_zero_cells():
    p = [0.0, 0.6, 0.0, 0.4]
    assert invert_cdf(p, 0.0) == 1
    assert invert_cdf(p, 0.59) == 1
    assert invert_cdf(p, 0.61) == 3
    assert invert_cdf(p, 0.999999999) == 3
    assert invert_cdf(p, 1.5) == 3  # float shortfall fallback


def test_invert_cdf_rejects_vector_without_positive_cell():
    with pytest.raises(ValueError):
        invert_cdf([0.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        invert_cdf([], 0.3)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=30).filter(
        lambda cells: any(c > 0.0 for c in cells)
    ),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_invert_cdf_never_lands_on_empty_cell(cells, u):
    # raw cells may sum above or below 1; normalized ones are a probability vector
    for p in (np.asarray(cells), np.asarray(cells) / sum(cells)):
        assert p[invert_cdf(p, u)] > 0.0


def test_empirical_lipschitz_within_declared_bounds():
    for d in (1, 2, 3, 4):
        est = empirical_lipschitz(jsqd_policy(d), 10_000, np.random.default_rng(d))
        assert est <= 2 * math.factorial(d) * d * d + 1e-9
        assert est >= 1.0 - 1e-9  # the point-mass anchor pair realizes 1


def test_empirical_lipschitz_reaches_steep_direction():
    # moving eps mass from a deep point mass to level 0 gives ratio 2 - eps
    # for d = 2; the anchors guarantee the estimate sees it
    est = empirical_lipschitz(jsqd_policy(2), 1000, np.random.default_rng(0))
    assert est >= 2.0 - 1e-2


def test_empirical_lipschitz_trivial_trials():
    est = empirical_lipschitz(jsqd_policy(1), 1, np.random.default_rng(5))
    assert 1.0 - 1e-9 <= est <= 2.0 + 1e-9


# The probe as it was before it evaluated pairs in blocks: one pair at a
# time, two checked `probabilities` calls per pair, same draws in the same
# order. The blocked probe must agree with it.


def _reference_pairs(trials, rng):
    e0 = np.zeros(2)
    e0[0] = 1.0
    e1 = np.zeros(2)
    e1[1] = 1.0
    yield e0, e1
    for k in (1, 5, PROBE_MAX_SUPPORT - 1):
        base = np.zeros(k + 1)
        base[k] = 1.0
        for eps in (1e-3, 1e-2, 1e-1):
            moved = base.copy()
            moved[k] -= eps
            moved[0] += eps
            yield base, moved
    eps_grid = (1e-3, 1e-2, 1e-1)
    n_pert = trials // 2
    for trial in range(trials):
        size = int(rng.integers(1, PROBE_MAX_SUPPORT + 1))
        x = rng.dirichlet(np.ones(size))
        if trial < n_pert and size >= 2:
            src = int(rng.integers(size))
            dst = int(rng.integers(size))
            m = min(eps_grid[trial % len(eps_grid)], float(x[src]))
            if m <= 0.0 or src == dst:
                continue
            y = x.copy()
            y[src] -= m
            y[dst] += m
        else:
            y = rng.dirichlet(np.ones(size))
        yield x, y


def _pairwise_reference_lipschitz(policy, trials, rng):
    best = 0.0
    for x, y in _reference_pairs(trials, rng):
        den = float(np.sum(np.abs(x - y)))
        if den < 1e-15:
            continue
        num = float(
            np.sum(np.abs(policy.probabilities(x, validate=False) - policy.probabilities(y, validate=False)))
        )
        best = max(best, num / den)
    return best


class _SameIndexRng:
    """A Generator whose one-argument `integers(n)` always returns 0, so every
    eps-perturbation has src == dst and is skipped."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, low, high=None):
        return 0 if high is None else self._rng.integers(low, high)

    def dirichlet(self, alpha):
        return self._rng.dirichlet(alpha)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_empirical_lipschitz_matches_pairwise_reference(d):
    # padding may reorder a row sum in the last bit, hence 1e-12 relative
    policy = jsqd_policy(d)
    for seed in (0, 1, 2):
        for trials in (1, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 3 * PROBE_BLOCK + 7):
            got = empirical_lipschitz(policy, trials, np.random.default_rng(seed))
            want = _pairwise_reference_lipschitz(policy, trials, np.random.default_rng(seed))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (seed, trials)
    for trials in (2, PROBE_BLOCK + 1):
        got = empirical_lipschitz(policy, trials, _SameIndexRng(d))
        want = _pairwise_reference_lipschitz(policy, trials, _SameIndexRng(d))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    rows=st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=12).filter(
            lambda cells: sum(cells) > 0.0
        ),
        min_size=1,
        max_size=6,
    ),
    extra=st.integers(0, 5),
)
def test_jsqd_evaluator_on_padded_block_equals_rowwise(d, rows, extra):
    evaluator = jsqd_policy(d).evaluator
    rows = [np.asarray(cells) / sum(cells) for cells in rows]
    block = np.zeros((len(rows), max(r.size for r in rows) + extra))
    for i, r in enumerate(rows):
        block[i, : r.size] = r
    p = evaluator(block)
    for i, r in enumerate(rows):
        assert np.array_equal(p[i, : r.size], evaluator(r))
        assert np.all(p[i, r.size :] == 0.0)


def _one_bad_row_policy(target, mode):
    """JSQ(2), except on rows equal to `target`: "sum" scales the row by 1.5,
    "leak" moves 1e-6 of mass onto the first empty level."""
    base = jsqd_policy(2).evaluator
    top = int(np.argmax(base(target)))
    empty_cell = int(np.flatnonzero(target == 0.0)[0]) if mode == "leak" else None

    def evaluator(x):
        p = base(x)
        hit = np.all(x == target, axis=-1)
        if mode == "sum":
            p[hit] *= 1.5
        else:
            p[hit, top] -= 1e-6
            p[hit, empty_cell] += 1e-6
        return p

    return AssignmentPolicy(f"bad-{mode}", evaluator)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    trials=st.integers(1, PROBE_BLOCK + 50),
    pick=st.integers(0, 2**31),
    side=st.integers(0, 1),
    mode=st.sampled_from(["sum", "leak"]),
)
def test_empirical_lipschitz_rejects_one_bad_row_in_a_block(seed, trials, pick, side, mode):
    pairs = list(_reference_pairs(trials, np.random.default_rng(seed)))
    row = pairs[pick % len(pairs)][side]
    target = np.zeros(PROBE_MAX_SUPPORT)
    target[: row.size] = row
    assume(mode == "sum" or np.any(target == 0.0))
    message = "invalid probability vector" if mode == "sum" else "empty queue length"
    with pytest.raises(ValueError, match=message):
        empirical_lipschitz(_one_bad_row_policy(target, mode), trials, np.random.default_rng(seed))
