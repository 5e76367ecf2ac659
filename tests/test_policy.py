import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparselb.policy import (
    PROBE_BLOCK,
    PROBE_MAX_SUPPORT,
    AssignmentPolicy,
    _probe_pairs,
    empirical_lipschitz,
    jsqd_policy,
    occupancy_from_distribution,
    distribution_from_occupancy,
    validate_distribution,
)


from oracles import grid_distributions, min_of_d_oracle, time_limit


def test_jsqd_simple_values():
    p2 = jsqd_policy(2)
    assert np.array_equal(p2.probabilities([1, 0, 0]), [1, 0, 0])
    assert np.allclose(p2.probabilities([0.5, 0.5]), [0.75, 0.25], atol=1e-15)
    assert p2.declared_lipschitz_bound == 16


def test_jsqd_declared_bounds():
    for d in range(1, 6):
        assert jsqd_policy(d).declared_lipschitz_bound == 2 * math.factorial(d) * d * d


def test_jsqd_declared_bound_is_inf_past_the_float_range():
    assert math.isfinite(jsqd_policy(168).declared_lipschitz_bound)
    for d in (169, 171, 2**31 - 1):  # no factorial is formed past 170
        with time_limit(2):
            assert jsqd_policy(d).declared_lipschitz_bound == math.inf


def test_jsqd_rejects_bad_d():
    with pytest.raises(ValueError):
        jsqd_policy(0)


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
    policy = jsqd_policy(2)
    assert policy.probabilities([1.0, 0.0]).tolist() == [1.0, 0.0]
    assert policy.probabilities([0.0, 0.0, 0.0, 1.0]).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_sample_assignment_statistics():
    # P(join empty queue) = 1 - 0.5^2 = 0.75 for x = (1/2, 1/2), d = 2, exact in binary
    assert jsqd_policy(2).probabilities([0.5, 0.5]).tolist() == [0.75, 0.25]


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
    for trials in (2.5, 3.0, 0, -1):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            empirical_lipschitz(jsqd_policy(2), trials, np.random.default_rng(0))
    assert empirical_lipschitz(jsqd_policy(2), np.int64(3), np.random.default_rng(0)) == empirical_lipschitz(
        jsqd_policy(2), 3, np.random.default_rng(0)
    )


# The probe's pairs come from one generator, `_probe_pairs`. The tests below
# read the same blocks: the reference evaluates each unpadded pair on its
# own, through two checked `probabilities` calls, as the probe did before it
# evaluated blocks; the law test checks that the block draws give each trial
# the law the probe declares.


def _pairs(trials, rng):
    """Every probe pair as unpadded (x, y, t), in the probe's order."""
    for xs, ys, sizes, ts in _probe_pairs(trials, rng):
        for x, y, size, t in zip(xs, ys, sizes, ts):
            yield x[:size], y[:size], int(t)


def _pairwise_reference_lipschitz(policy, trials, rng):
    best = 0.0
    for x, y, _ in _pairs(trials, rng):
        den = float(np.sum(np.abs(x - y)))
        if den < 1e-15:
            continue
        num = float(
            np.sum(np.abs(policy.probabilities(x, validate=False) - policy.probabilities(y, validate=False)))
        )
        best = max(best, num / den)
    return best


class _SameIndexRng:
    """A Generator whose `integers` with array bounds (the src and dst draws)
    always returns 0s, so every eps-perturbation has src == dst and is
    dropped."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, low, high=None, size=None):
        if np.ndim(high):
            return np.zeros_like(high)
        return self._rng.integers(low, high, size=size)

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size)


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
        # every perturbation was dropped: the first half keeps only its size-1 trials
        assert all(t < 0 or t >= trials // 2 or x.size == 1 for x, _, t in _pairs(trials, _SameIndexRng(d)))


def test_probe_block_draws_keep_each_trials_law():
    # One seed, tolerances fixed in advance. 60 000 trials give 30 000
    # independent pairs (t >= trials // 2), whose sizes no filter touches;
    # and about 3 000 size-3 rows (every x, and the independent y). For
    # those, x_0 ~ Beta(1, 2): mean 1/3, variance 1/18, fourth central
    # moment 1/135, so the standard errors are 0.0043 (mean) and 0.0012
    # (variance); the tolerances are 5 of them.
    trials = 60_000
    n_pert = trials // 2
    indep_sizes, size3, kept_pert = [], [], 0
    for xs, ys, sizes, ts in _probe_pairs(trials, np.random.default_rng(2024)):
        anchors = ts < 0
        xs, ys, sizes, ts = xs[~anchors], ys[~anchors], sizes[~anchors], ts[~anchors]
        cells = np.arange(PROBE_MAX_SUPPORT)
        for rows in (xs, ys):
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(rows[cells >= sizes[:, None]] == 0.0)
            assert np.all(rows[cells < sizes[:, None]] >= 0.0)
        indep = ts >= n_pert
        indep_sizes.append(sizes[indep])
        size3.append(xs[sizes == 3, 0])
        size3.append(ys[indep & (sizes == 3), 0])
        for x, y, size, t in zip(xs[~indep], ys[~indep], sizes[~indep], ts[~indep]):
            if size < 2:  # too short to perturb: an independent pair
                continue
            kept_pert += 1
            moved = np.flatnonzero(x != y)
            assert moved.size == 2, (t, moved)
            src = moved[0] if y[moved[0]] < x[moved[0]] else moved[1]
            dst = moved[1] if src == moved[0] else moved[0]
            m = min((1e-3, 1e-2, 1e-1)[t % 3], x[src])
            assert y[src] == x[src] - m and y[dst] == x[dst] + m, t
    assert kept_pert > 0.8 * n_pert  # size 1 drops 1/30 of them, src == dst about 1/10 of the rest
    sizes = np.concatenate(indep_sizes)
    assert sizes.size == trials - n_pert
    counts = np.bincount(sizes, minlength=PROBE_MAX_SUPPORT + 1)
    assert counts[0] == 0 and counts.size == PROBE_MAX_SUPPORT + 1
    expected = sizes.size / PROBE_MAX_SUPPORT
    chi2 = float(((counts[1:] - expected) ** 2 / expected).sum())
    assert chi2 <= 80.44  # the 1 - 1e-6 quantile of chi-square with 29 degrees of freedom
    x0 = np.concatenate(size3)
    assert x0.size >= 2500
    assert abs(x0.mean() - 1 / 3) <= 5 * math.sqrt(1 / 18 / x0.size)
    assert abs(x0.var() - 1 / 18) <= 5 * math.sqrt((1 / 135 - (1 / 18) ** 2) / x0.size)


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
    blocks = list(_probe_pairs(trials, np.random.default_rng(seed)))
    rows = np.concatenate([block[side] for block in blocks])
    target = rows[pick % len(rows)]
    assume(mode == "sum" or np.any(target == 0.0))
    message = "invalid probability vector" if mode == "sum" else "empty queue length"
    with pytest.raises(ValueError, match=message):
        empirical_lipschitz(_one_bad_row_policy(target, mode), trials, np.random.default_rng(seed))
