import numpy as np
import pytest
from scipy import stats

from fcshmc.rng import RandomStream


def test_same_seed_identical_sequence():
    a = RandomStream(123, 0)
    b = RandomStream(123, 0)
    assert np.array_equal(a.standard_normals(100), b.standard_normals(100))


def test_distinct_stream_ids_diverge():
    a = RandomStream(123, 0)
    b = RandomStream(123, 1)
    assert not np.array_equal(a.standard_normals(20), b.standard_normals(20))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_uniforms_match_scalar_uniform_draws(n):
    # the reflection sweep draws its proposal uniforms in one call and must
    # see the scalar sequence and leave the stream where it would be
    scalar = RandomStream(8, 4)
    vector = RandomStream(8, 4)
    one_by_one = np.array([scalar.uniform() for _ in range(n)])
    assert np.array_equal(vector.uniforms(n), one_by_one)
    assert vector.uniform() == scalar.uniform()


def test_standard_normal_moments():
    draws = RandomStream(0, 1).standard_normals(1_000_000)
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_poisson_rejects_nonpositive_mean():
    stream = RandomStream(0, 0)
    with pytest.raises(ValueError):
        stream.poissons(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        stream.poissons(np.array([-2.0]))


def test_poisson_mean_4p59():
    # window signal of the centre-pinned trajectory under the default params
    draws = RandomStream(3, 1).poissons(np.full(1_000_000, 4.59))
    assert abs(draws.mean() - 4.59) < 0.02


def test_poisson_tiny_mean_mostly_zero():
    draws = RandomStream(4, 1).poissons(np.full(100_000, 0.001))
    frac_zero = np.mean(draws == 0)
    assert frac_zero > 0.997  # e^-0.001 = 0.999 up to sampling noise


def test_poisson_variance_equals_mean():
    draws = RandomStream(5, 1).poissons(np.full(1_000_000, 10.0))
    assert abs(draws.var() - 10.0) < 0.15


def test_poisson_chi_square_goodness_of_fit():
    mu = 5.0
    draws = RandomStream(6, 1).poissons(np.full(100_000, mu))
    # bin counts 0..13, lump the upper tail so every expected count is large
    edges = np.arange(15)
    observed = np.bincount(np.minimum(draws, 14), minlength=15)
    expected = stats.poisson.pmf(edges, mu) * draws.size
    expected[-1] = draws.size - expected[:-1].sum()
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 14 dof at significance 0.001
    assert chi2 < stats.chi2.ppf(0.999, 14)


def test_uniform_in_unit_interval():
    stream = RandomStream(9, 0)
    draws = np.array([stream.uniform() for _ in range(10_000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.02
