import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cashstock
from cashstock.demand import (
    DiscreteEmpirical,
    Uniform,
    ZeroInflatedPoisson,
    _BucketSearch,
    integer_uniform,
)

from closed_form import cdf, loss

U20 = Uniform(0, 20)
ZIP18 = ZeroInflatedPoisson(0.18, 10)

# P(D=0) = pi + (1-pi) e^{-lam} = 0.18 + 0.82 * exp(-10)
ZIP18_P0 = 0.18 + 0.82 * np.exp(-10.0)


def test_cdf_examples():
    assert cdf(U20, 10.0) == pytest.approx(0.5, abs=1e-12)
    assert cdf(ZIP18, 0.0) == pytest.approx(ZIP18_P0, abs=1e-12)
    assert cdf(Uniform(6, 14), 6.0) == 0.0
    assert cdf(U20, -3.0) == 0.0


def test_quantile_examples():
    assert U20.quantile(0.607143) == pytest.approx(12.14286, abs=1e-5)
    assert U20.quantile(0.0) == 0.0
    # the atom at zero holds all mass up to P(D=0) > 0.18 > 0.1
    assert ZIP18.quantile(0.1) == 0.0
    with pytest.raises(ValueError):
        U20.quantile(1.5)
    with pytest.raises(ValueError):
        ZIP18.quantile(-0.01)
    # NaN is no level: it fails the range check, alone or among valid levels
    for dem in (ZIP18, integer_uniform(0, 20), U20):
        for u in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                dem.quantile(u)


def test_quantile_cdf_generalized_inverse():
    rng = np.random.default_rng(0)
    for dem in (U20, ZIP18, DiscreteEmpirical((1.0, 3.0, 7.0), (0.2, 0.5, 0.3))):
        u = rng.random(200)
        q = dem.quantile(u)
        # smallest t with F(t) >= u: F(q) >= u, and any smaller atom/point fails
        assert np.all(cdf(dem, q) >= u - 1e-12)
        assert np.all(cdf(dem, q - 1e-9) <= cdf(dem, q) + 1e-12)
    # continuous strictly increasing region: exact round trip
    t = rng.uniform(0, 20, 100)
    assert np.allclose(U20.quantile(cdf(U20, t)), t, atol=1e-12)


def test_loss_examples():
    # uniform: T(x) = x^2/40 on [0, 20]
    assert loss(U20, 10.0) == pytest.approx(2.5, abs=1e-12)
    for dem in (U20, ZIP18):
        assert loss(dem, 0.0) == pytest.approx(0.0, abs=1e-12)
    # finite pmf sum: only the k=0 atom sits below 1
    assert loss(ZIP18, 1.0) == pytest.approx(ZIP18_P0, abs=1e-12)


def test_loss_via_quadrature_matches_analytic():
    x = 10.0
    nodes, weights = U20.expectation_nodes(np.array([x]))
    assert np.sum(np.maximum(x - nodes, 0.0) * weights) == pytest.approx(2.5, abs=1e-9)


def test_loss_lipschitz_and_convex():
    rng = np.random.default_rng(1)
    for dem in (U20, ZIP18, Uniform(6, 14)):
        xs = np.sort(rng.uniform(0, 30, 50))
        losses = loss(dem, xs)
        steps = np.diff(losses) / np.diff(xs)
        assert np.all(steps >= -1e-12)
        assert np.all(steps <= 1.0 + 1e-12)
        # convexity: slopes nondecreasing
        assert np.all(np.diff(steps) >= -1e-9)


def test_moments():
    m = ZIP18.moments()
    assert m.mean == pytest.approx(8.2, abs=1e-12)
    assert m.cv == pytest.approx(np.sqrt((1 + 10 * 0.18) / 8.2), abs=1e-12)
    assert round(float(m.cv), 2) == 0.58
    m = U20.moments()
    assert m.mean == pytest.approx(10.0)
    assert m.cv == pytest.approx(20 / np.sqrt(12) / 10, abs=1e-12)  # 0.577
    poisson = ZeroInflatedPoisson(0.0, 10).moments()
    assert poisson.cv == pytest.approx(np.sqrt(0.1), abs=1e-12)  # 0.316
    with pytest.raises(ValueError):
        DiscreteEmpirical((0.0,), (1.0,)).moments()


@pytest.mark.parametrize("pi, lam", [(0.18, 10.0), (0.0, 10.0), (0.5, 3.5), (0.02, 40.0)])
def test_zip_pmf_matches_closed_form(pi, lam):
    (atoms,), (probs,) = ZeroInflatedPoisson(pi, lam).expectation_nodes(np.array([0.0]))
    exact = np.array([(1.0 - pi) * math.exp(-lam) * lam ** k / math.factorial(k)
                      for k in range(len(atoms))])
    exact[0] += pi
    assert np.all(np.abs(probs - exact) <= 1e-12 * exact)


def test_import_leaves_scipy_unloaded():
    src = str(Path(cashstock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, cashstock.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "False"


def test_quadrature_weights_are_probabilities():
    nodes, weights = U20.expectation_nodes(np.array([10.0]))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    (atoms,), (probs,) = ZIP18.expectation_nodes(np.array([0.0]))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - probs.sum() < 1e-12  # truncated tail mass
    assert np.all(atoms == np.arange(len(atoms)))


def test_expectation_nodes_per_element_kink():
    z = np.array([5.0, 10.0, 25.0])
    nodes, weights = U20.expectation_nodes(z)
    got = np.sum(np.maximum(z[:, None] - nodes, 0.0) * weights, axis=1)
    assert np.allclose(got, loss(U20, z), atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 30.0), st.floats(0.5, 30.0), st.floats(0.0, 20.0), st.floats(0.0, 1.0),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4), st.floats(1.0, 10.0))
@example(lo=0.0, width=1.0, below=5e-324, at=0.0, cubic=[0.0, 0.0, 1.0, 0.0], step=1.0)
def test_sales_nodes_match_expectation_nodes_over_sales(lo, width, below, at, cubic, step):
    # E[g(min(D, z)) + step 1{D <= z}] for z below, inside and above the
    # support: the step term reads the tail node's place, which must lie
    # above z wherever it holds weight (the threshold slope's right limit).
    # The bound is floored at the smallest normal float: with z a subnormal
    # below the support, g underflows in the reference and its scale is 0
    demand = Uniform(lo, lo + width)
    z = np.array([lo - below, lo + at * width, lo + width + below])

    def expect(nodes_weights):
        nodes, weights = nodes_weights
        g = np.polyval(cubic, np.minimum(nodes, z[:, None])) + step * (nodes <= z[:, None])
        return np.sum(g * weights, axis=1), np.sum(np.abs(g) * weights, axis=1)

    got, _ = expect(demand.sales_nodes(z))
    want, scale = expect(demand.expectation_nodes(z))
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * scale, np.finfo(float).tiny))
    assert np.all(np.abs(demand.sales_nodes(z)[1].sum(axis=1) - 1.0) <= 1e-12)


ATOM_DEMANDS = (ZIP18, DiscreteEmpirical((0.0, 3.0, 7.0, 7.5), (0.2, 0.4, 0.3, 0.1)),
                integer_uniform(0, 20))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ATOM_DEMANDS),
       st.lists(st.tuples(st.integers(0, 100), st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
                min_size=1, max_size=5),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4), st.floats(1.0, 10.0))
@example(demand=ZIP18, picks=[(0, 0.0)], cubic=[0.0, 0.0, 0.0, 5e-324], step=1.0)
def test_sales_nodes_match_expectation_nodes_over_sales_for_atoms(demand, picks, cubic, step):
    # z below the first atom, on atoms, between them and above the last: the
    # atoms above the largest z are one node, and the step term reads an atom
    # equal to z as demand at or below it (the threshold slope's right limit).
    # The bound is floored at the smallest normal float, as in the Uniform
    # case: where g is a subnormal constant, z below the first atom puts
    # weight 1 on one sales node, which keeps it, while the reference's
    # weights below 1 round every term to 0, and its scale with them
    stops = np.concatenate([[demand.atoms[0] - 5.0], demand.atoms, [demand.atoms[-1] + 5.0]])
    at = [i % (len(stops) - 1) for i, _ in picks]
    z = np.array([stops[i] + f * (stops[i + 1] - stops[i]) for i, (_, f) in zip(at, picks)])

    def expect(nodes_weights):
        nodes, weights = nodes_weights
        g = np.polyval(cubic, np.minimum(nodes, z[:, None])) + step * (nodes <= z[:, None])
        return np.sum(g * weights, axis=1), np.sum(np.abs(g) * weights, axis=1)

    nodes, weights = demand.sales_nodes(z)
    got, _ = expect((nodes, weights))
    want, scale = expect(demand.expectation_nodes(z))
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * scale, np.finfo(float).tiny))
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)
    assert nodes.shape[1] <= np.sum(demand.atoms <= z.max()) + 1


def _assert_searches_like_numpy(values, queries):
    # every query at once, and each as a 0-d array, on both sides
    search = _BucketSearch(values)
    for side in ("left", "right"):
        assert np.array_equal(search(queries, side), np.searchsorted(values, queries, side=side))
        for q in queries[::7]:
            got = search(np.float64(q), side)
            assert np.ndim(got) == 0 and got == np.searchsorted(values, q, side=side)


def _edge_queries(values):
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        beside = [np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    return np.concatenate([values, *beside, [values[0] - 1.0, values[-1] + 1.0, -np.inf,
                                             np.inf, np.nan, 0.0, -0.0, 1.0]])


FLOATS = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324]))


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40), st.integers(1, 5),
       st.lists(st.one_of(FLOATS, st.just(np.inf), st.just(-np.inf)), max_size=20))
def test_bucket_search_is_searchsorted(values, every, extra):
    # ties: every `every`-th value appears twice
    values = np.sort(np.array(values + values[::every]))
    _assert_searches_like_numpy(values, np.concatenate([_edge_queries(values), extra]))
    _assert_searches_like_numpy(values[:1], _edge_queries(values))


def test_bucket_search_on_a_crowded_cdf():
    # ZIP(0.18, 1000): 1,233 atoms, and tail CDF entries equal or 1e-16 apart
    cum = ZeroInflatedPoisson(0.18, 1000)._cum
    assert len(cum) == 1233 and np.any(np.diff(cum) == 0.0)
    u = np.random.default_rng(5).random(20_000)
    _assert_searches_like_numpy(cum, np.concatenate([_edge_queries(cum), u]))
    # the table grows with the number of values, not with their smallest gap
    assert len(_BucketSearch(cum)._table) <= 2 * _BucketSearch.BUCKETS_PER_VALUE * len(cum) + 3
    assert ZIP18.quantile(0.0) == 0.0 and ZIP18.quantile(1.0) == ZIP18.atoms[-1]


@pytest.mark.parametrize("demand", [ZIP18, integer_uniform(0, 20),
                                    DiscreteEmpirical((4.0,), (1.0,))],
                         ids=["zip18", "iu0_20", "one_atom"])
def test_atom_quantile_equals_the_clipped_search(demand):
    # the quantile's capped gather is the binary search, clipped to the
    # last atom, bit for bit: at 0, at 1, at each CDF value and beside it
    cum, atoms = demand._cum, demand.atoms
    u = np.clip(np.concatenate([[0.0, 1.0], cum, np.nextafter(cum, -np.inf),
                                np.nextafter(cum, np.inf)]), 0.0, 1.0)
    index = np.minimum(np.searchsorted(cum, u, "left"), len(atoms) - 1)
    assert demand.quantile(u).tobytes() == atoms[index].tobytes()
    # the Monte Carlo's history index is the quantile's own search
    assert demand.atom_index(u).tobytes() == index.tobytes()
    for level in (0.0, float(cum[0]), min(float(cum[-1]), 1.0), 1.0):
        assert np.ndim(demand.quantile(level)) == 0
        want = min(np.searchsorted(cum, level), len(atoms) - 1)
        assert demand.atom_index(level) == want
        assert demand.quantile(level) == atoms[want]


def sample(demand, rng, size):
    """Inverse-transform sampling, as the Monte Carlo draws demand."""
    return demand.quantile(rng.random(size))


def test_sampling_inverse_transform():
    rng = np.random.default_rng(42)
    assert U20.quantile(0.5) == 10.0
    draws = sample(U20, np.random.default_rng(3), 10)
    again = sample(U20, np.random.default_rng(3), 10)
    assert np.array_equal(draws, again)
    # almost-degenerate zero inflation
    dem = ZeroInflatedPoisson(1 - 1e-9, 5.0)
    assert np.all(sample(dem, rng, 1000) == 0.0)


def test_sampling_law_of_large_numbers():
    draws = sample(ZIP18, np.random.default_rng(7), 1_000_000)
    assert draws.mean() == pytest.approx(8.2, abs=0.02)


def test_discrete_empirical_validation():
    with pytest.raises(ValueError):
        DiscreteEmpirical((1.0, 2.0), (0.7, 0.2))  # sums to 0.9
    with pytest.raises(ValueError):
        DiscreteEmpirical((1.0, 2.0), (1.2, -0.2))
    merged = DiscreteEmpirical((2.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    assert np.array_equal(merged.atoms, [1.0, 2.0])
    assert np.allclose(merged.probs, [0.5, 0.5])


def test_integer_uniform_is_the_paper_uniform():
    demand = integer_uniform(0, 20)
    assert np.array_equal(demand.atoms, np.arange(21.0))
    assert np.array_equal(demand.probs, np.full(21, 0.047619047619047616))
    assert integer_uniform(3, 3).atoms.tolist() == [3.0]
    for lo, hi in ((5, 2), (-1, 3)):
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            integer_uniform(lo, hi)


def test_uniform_validation():
    with pytest.raises(ValueError):
        Uniform(5, 5)
    with pytest.raises(ValueError):
        Uniform(-1, 5)
    with pytest.raises(ValueError):
        ZeroInflatedPoisson(1.0, 5.0)


def test_discrete_empirical_label_is_compact():
    values = tuple(float(k) for k in range(21))
    label = DiscreteEmpirical(values, (1.0 / 21,) * 21).label
    assert label == "DiscreteEmpirical(21 atoms on [0 20] mean=10 sd=6.0553)"
    assert "," not in label
    assert U20.label == "Uniform(lo=0 hi=20)"
