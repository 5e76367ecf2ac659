import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselb.policy import (
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


def test_invariant_enforced_on_user_policies():
    bad = AssignmentPolicy("broken", lambda x: x * 2.0)
    with pytest.raises(ValueError):
        bad.probabilities([0.5, 0.5])
    leaky = AssignmentPolicy("leaky", lambda x: np.ones_like(x) / x.size)
    with pytest.raises(ValueError):
        leaky.probabilities([0.5, 0.5, 0.0])  # mass on an empty level


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
