"""Monte Carlo exchange tests: conservation, determinism, fits, histograms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wealthgas import (
    AgentEnsemble,
    DegenerateDensityError,
    FamilySpec,
    Grid,
    fit_exponential,
    histogram,
    histogram_cut,
    init_ensemble,
    run_transactions,
    sample_family,
    write_ensemble_csv,
    write_fit_json,
    write_histogram_csv,
)
from wealthgas.agents import _CHUNK, _exchange_waves


def sequential_exchange(money, ii, jj, eps):
    """Reference oracle: the transactions applied one at a time, in order."""
    for t in range(ii.shape[0]):
        i = ii[t]
        j = jj[t]
        s = money[i] + money[j]
        e = eps[t]
        money[i] = e * s
        money[j] = (1.0 - e) * s


def sequential_run(money, rng, count):
    """The draw protocol of run_transactions, applied by the reference loop."""
    n = money.shape[0]
    done = 0
    while done < count:
        c = min(_CHUNK, count - done)
        ii = rng.integers(0, n, size=c)
        jj = rng.integers(0, n - 1, size=c)
        jj = jj + (jj >= ii)
        eps = rng.random(size=c)
        zero = eps == 0.0
        while zero.any():
            eps[zero] = rng.random(size=int(zero.sum()))
            zero = eps == 0.0
        sequential_exchange(money, ii, jj, eps)
        done += c


def test_init_equal():
    ens = init_ensemble(4, equal=1.0, seed=0)
    assert np.array_equal(ens.money, np.ones(4))
    assert ens.total == 4.0
    assert ens.transactions_done == 0


def test_init_rejects_single_agent():
    with pytest.raises(ValueError):
        init_ensemble(1, equal=1.0, seed=0)


def test_init_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        init_ensemble(10, seed=0)


def test_init_from_density_sample_mean():
    # CLT: sample mean of Exp(1) draws lies within 3 sigma = 3/sqrt(N) of 1
    g = Grid(4097, 40.0)
    y = sample_family(FamilySpec("exponential", alpha=1.0), g)
    ens = init_ensemble(100_000, from_density=y, seed=123)
    assert abs(ens.mean_money - 1.0) < 3.0 / math.sqrt(100_000)


@pytest.mark.parametrize("equal", [math.inf, math.nan, 1e308, 1e-310, 1e-320])
def test_init_rejects_non_finite_money(equal):
    # 10 * 1e308 overflows the total; 1/1e-310 overflows the fitted rate
    with pytest.raises(ValueError):
        init_ensemble(10, equal=equal, seed=0)


def test_total_is_the_sum_of_the_money():
    with pytest.raises(TypeError):
        AgentEnsemble(money=np.ones(3), rng_seed=0, total=99.0)
    ens = AgentEnsemble(money=np.ones(3), rng_seed=0)
    assert ens.total == ens.initial_total == 3.0
    ens.money[0] = 5.0
    assert ens.total == 7.0
    assert ens.initial_total == 3.0


@pytest.mark.parametrize("money, message", [
    ([], r"need at least 2 agents in a 1-D money array, got shape \(0,\)"),
    ([1.0], r"need at least 2 agents in a 1-D money array, got shape \(1,\)"),
    ([[1.0, 2.0]], r"need at least 2 agents in a 1-D money array, got shape \(1, 2\)"),
], ids=["no_agents", "one_agent", "two_dimensional"])
def test_ensemble_rejects_fewer_than_two_agents(money, message):
    # run_transactions would die in numpy's integers(0, 0) with "high <= 0"
    with pytest.raises(ValueError, match=message):
        AgentEnsemble(money=np.array(money), rng_seed=0)


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_ensemble_rejects_a_non_finite_balance(bad, shown):
    # a NaN balance would spread to every agent it trades with
    with pytest.raises(ValueError, match=f"money must be finite and nonnegative, got {shown} at agent 2"):
        AgentEnsemble(money=np.array([1.0, 2.0, bad, 1.0]), rng_seed=0)


def test_ensemble_rejects_a_negative_balance_and_an_overflowing_total():
    # [1, -3] would keep trading negative balances
    with pytest.raises(ValueError, match="money must be finite and nonnegative, got -3.0 at agent 1"):
        AgentEnsemble(money=np.array([1.0, -3.0]), rng_seed=0)
    with pytest.raises(ValueError, match="total money overflows"):
        AgentEnsemble(money=np.array([1e308, 1e308]), rng_seed=0)
    # -0.0 is a nonnegative balance, but money that sums to zero has no mean to fit
    with pytest.raises(ValueError, match=r"mean money must be positive with a finite rate 1/mean, got 0\.0$"):
        AgentEnsemble(money=np.array([0.0, -0.0]), rng_seed=0)


@pytest.mark.parametrize("money, shown", [([0.0, 0.0], r"0\.0"), ([1e-310, 1e-310], "1e-310")],
                         ids=["zero_money", "rate_overflows"])
def test_ensemble_rejects_a_mean_without_a_finite_rate(money, shown):
    # Unchecked, [0, 0] runs its transactions and then money_drift divides by zero,
    # and [1e-310, 1e-310] is fitted to beta_hat = inf with ks_statistic 0.0.
    with pytest.raises(ValueError, match=f"mean money must be positive with a finite rate 1/mean, got {shown}$"):
        AgentEnsemble(money=np.array(money), rng_seed=0)


@pytest.mark.parametrize("equal, message", [
    (0.0, r"mean money must be positive with a finite rate 1/mean, got 0\.0$"),
    (1e-310, "mean money must be positive with a finite rate 1/mean, got 1e-310$"),
    (-1.0, r"money must be finite and nonnegative, got -1\.0 at agent 0$"),
    (math.nan, "money must be finite and nonnegative, got nan at agent 0$"),
    (math.inf, "money must be finite and nonnegative, got inf at agent 0$"),
    (1e308, "total money overflows$"),
], ids=["zero", "tiny", "negative", "nan", "inf", "total_overflows"])
def test_init_leaves_the_equal_money_to_the_ensemble(equal, message):
    with pytest.raises(ValueError, match=message):
        init_ensemble(10, equal=equal, seed=0)


_BALANCES = st.one_of(
    st.floats(min_value=0.0),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 5.6e-309, 1e-300, 1.0, 1e300, 1e307, 1e308, -1.0, math.nan]),
)


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(_BALANCES, min_size=2, max_size=12), st.sampled_from([2, 10, 200]))
def test_every_ensemble_it_accepts_can_be_fitted(balances, n_bins):
    # The suite turns every numpy warning into an error, so each call below must also be silent.
    try:
        ens = AgentEnsemble(money=np.array(balances), rng_seed=0)
    except ValueError:
        return
    fit = fit_exponential(ens)
    assert 0.0 < fit.beta_hat < math.inf and 0.0 <= fit.ks_statistic <= 1.0
    assert ens.money_drift == 0.0
    m_max = 10.0 * ens.mean_money  # the default cut of simulate, resolved on the start
    try:
        assert histogram_cut(ens, n_bins) == m_max
        refused_before = False
    except ValueError as exc:  # the cut's own rules: a cut that overflows, or too small for the bins
        assert str(m_max) in str(exc)
        refused_before = True
    run_transactions(ens, 20)
    try:
        hist = histogram(ens, n_bins, m_max)
    except ValueError as exc:
        assert refused_before and str(m_max) in str(exc)
        return
    assert not refused_before
    assert np.all(np.isfinite(hist.densities)) and np.all(hist.densities >= 0.0)


def test_histogram_rejects_a_cut_whose_full_bin_overflows():
    # 200 / (10 * m) is finite here, but n / (n * width) for a bin holding all 10 agents is not
    ens = init_ensemble(10, equal=1.1125369292536009e-307, seed=0)
    with pytest.raises(ValueError, match="m_max 1.1125369292536008e-306 is too small for 200 bins"):
        histogram(ens, 200, 10.0 * ens.mean_money)


def test_init_from_zero_density_rejected():
    from wealthgas import Density

    g = Grid(64, 10.0)
    with pytest.raises(DegenerateDensityError):
        init_ensemble(10, from_density=Density(g, np.zeros(64)), seed=0)


def test_exchange_pair_rule():
    # eps = 0.25 on (1, 1) splits the pooled 2 into 0.5 and 1.5
    money = np.array([1.0, 1.0])
    _exchange_waves(money, np.array([0]), np.array([1]), np.array([0.25]))
    assert money.tolist() == [0.5, 1.5]


def test_zero_split_fraction_is_redrawn():
    # eps lies on the open interval (0, 1): a draw of exactly 0 is replaced
    class ZeroFirst:
        def __init__(self, rng):
            self.rng = rng
            self.random_calls = 0

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def random(self, size):
            out = self.rng.random(size=size)
            if self.random_calls == 0:
                out[0] = 0.0
            self.random_calls += 1
            return out

    ens = init_ensemble(2, equal=1.0, seed=0)
    ens._rng = ZeroFirst(ens._rng)
    run_transactions(ens, 1)
    assert ens._rng.random_calls == 2
    assert float(ens.money.min()) > 0.0


def test_total_money_conserved():
    ens = init_ensemble(1000, equal=1.0, seed=5)
    before = ens.total
    run_transactions(ens, 1_000_000)
    assert abs(ens.total - before) / before <= 1e-10
    assert ens.transactions_done == 1_000_000


def test_money_drift_measured_from_the_initial_total():
    ens = init_ensemble(1000, equal=1.0, seed=5)
    assert ens.initial_total == ens.total == 1000.0
    for _ in range(2):
        run_transactions(ens, 500_000)
        assert ens.initial_total == 1000.0
        assert ens.money_drift == (ens.total - 1000.0) / 1000.0
        assert abs(ens.money_drift) <= 1e-12


def test_money_stays_nonnegative():
    ens = init_ensemble(500, equal=2.0, seed=6)
    run_transactions(ens, 200_000)
    assert float(ens.money.min()) >= 0.0


@pytest.mark.parametrize(
    "n, counts",
    [
        (2, (1001,)),
        (3, (999,)),
        (17, (4321,)),
        (1000, (777, 20_003)),  # two calls on one ensemble
        (100_000, (_CHUNK + 4097,)),  # crosses a draw chunk
        (64, (100_003,)),  # one window per 64 transactions, and deep passes
    ],
)
def test_run_transactions_matches_sequential_loop(n, counts):
    # no count is a multiple of the kernel window max(64, n // 16)
    seed = 1000 + n
    start = np.random.default_rng(n).random(n)
    ens = AgentEnsemble(money=start.copy(), rng_seed=seed)
    ref = start.copy()
    ref_rng = np.random.default_rng(np.random.PCG64(seed))
    for count in counts:
        run_transactions(ens, count)
        sequential_run(ref, ref_rng, count)
        assert np.array_equal(ens.money, ref)
    assert ens.transactions_done == sum(counts)


def test_second_moment_gap_law():
    # per transaction G = M2 - 2<m>^2 shrinks by 1 - 2/(3N) to leading order
    # in 1/N (the exact factor is 1 - 2(N+1)/(3N(N-1))), so each block of
    # N/2 transactions shrinks it by e^{-1/3} = 0.7165, not by the operator's
    # 2/3; the 0.015 band excludes 2/3 (seeds 0-39 deviate by at most 0.0149)
    n = 100_000
    ens = init_ensemble(n, equal=1.0, seed=0)
    gaps = [float(np.mean(ens.money**2) - 2.0 * ens.mean_money**2)]
    for _ in range(3):
        run_transactions(ens, n // 2)
        gaps.append(float(np.mean(ens.money**2) - 2.0 * ens.mean_money**2))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(abs(r - math.exp(-1.0 / 3.0)) <= 0.015 for r in ratios), ratios


def _s2_factor(n):
    """Exact per-transaction factor of E[S2 - S2*], S2 = sum m^2, S2* = 2 M^2/(N+1)."""
    return 1.0 - 2.0 * (n + 1) / (3.0 * n * (n - 1))


def test_one_trade_equilibrates_two_agents():
    # at N = 2 the factor is 0: S2 = M^2 (1 - 2 eps (1 - eps)) has mean 2M^2/3
    # and standard deviation M^2 / sqrt(45) = 0.149 M^2 per seed
    assert _s2_factor(2) == 0.0
    seeds = 2000
    s2 = []
    for seed in range(seeds):
        ens = run_transactions(init_ensemble(2, equal=0.5, seed=seed), 1)
        s2.append(float(ens.money @ ens.money))
    assert abs(np.mean(s2) - 2.0 / 3.0) <= 5.0 * (1.0 / math.sqrt(45.0)) / math.sqrt(seeds)


def test_second_moment_gap_exact_law_at_ten_agents():
    # E[S2 - S2*] shrinks by exactly 0.6538 over 5 transactions at N = 10,
    # where the leading-order factor (1 - 2/(3N))^5 would give 0.7082; the
    # bound is 5 standard errors of the mean ratio over the seeds, and it
    # must be narrow enough to tell the two laws apart
    n, seeds = 10, 2000
    s2_star = 2.0 * n**2 / (n + 1)
    gap0 = n - s2_star  # equal start: S2 = N for M = N
    ratios = []
    for seed in range(seeds):
        ens = run_transactions(init_ensemble(n, equal=1.0, seed=seed), 5)
        ratios.append((float(ens.money @ ens.money) - s2_star) / gap0)
    exact, leading = _s2_factor(n) ** 5, (1.0 - 2.0 / (3.0 * n)) ** 5
    assert exact == pytest.approx(0.6538, abs=1e-4) and leading == pytest.approx(0.7082, abs=1e-4)
    bound = 5.0 * np.std(ratios, ddof=1) / math.sqrt(seeds)
    assert bound < (leading - exact) / 2.0
    assert abs(np.mean(ratios) - exact) <= bound


def _ks(sorted_sample, cdf):
    n = sorted_sample.shape[0]
    f = cdf(sorted_sample)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def test_equilibrium_marginal_is_scaled_beta_at_ten_agents():
    # the pair update is a Gibbs step for the uniform measure on the simplex
    # sum m = M, so one agent's money is M Beta(1, N-1) exactly.  2000
    # snapshots 5N transactions apart, after a 200N burn-in, pool 20000
    # values; an agent goes untouched between snapshots with probability
    # (1 - 2/N)^(5N) ~ 1e-5, and values within a snapshot are negatively
    # associated, so the bound is the 99.9% Kolmogorov quantile 1.95/sqrt(n)
    # of n independent draws.  The N -> inf law, Exp of mean M/N, lies
    # outside that bound.
    n = 10
    ens = run_transactions(init_ensemble(n, equal=1.0, seed=0), 200 * n)
    snapshots = [run_transactions(ens, 5 * n).money.copy() for _ in range(2000)]
    u = np.sort(np.concatenate(snapshots)) / n
    bound = 1.95 / math.sqrt(u.shape[0])
    assert _ks(u, lambda v: 1.0 - (1.0 - v) ** (n - 1)) <= bound
    assert _ks(u, lambda v: 1.0 - np.exp(-n * v)) > bound


def test_determinism_bit_identical():
    a = run_transactions(init_ensemble(1000, equal=1.0, seed=42), 100_000)
    b = run_transactions(init_ensemble(1000, equal=1.0, seed=42), 100_000)
    assert np.array_equal(a.money, b.money)
    c = run_transactions(init_ensemble(1000, equal=1.0, seed=43), 100_000)
    assert not np.array_equal(a.money, c.money)


def test_histogram_point_mass():
    ens = init_ensemble(100, equal=1.0, seed=0)
    hist = histogram(ens, 10, 2.0)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert np.sum(hist.densities * width) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(hist.densities) == 1


@pytest.mark.parametrize("m_max", [math.inf, math.nan, 0.0, 1e-308])
def test_histogram_rejects_bad_cut(m_max):
    # 10 bins on [0, 1e-308]: a full bin's density 1e309 overflows
    with pytest.raises(ValueError):
        histogram(init_ensemble(10, equal=1.0, seed=0), 10, m_max)


def test_histogram_overflow_not_rescaled():
    ens = init_ensemble(100, equal=5.0, seed=0)
    hist = histogram(ens, 10, 2.0)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert np.sum(hist.densities * width) == 0.0


def test_equilibrated_histogram_roughly_decreasing():
    ens = run_transactions(init_ensemble(20_000, equal=1.0, seed=11), 2_000_000)
    hist = histogram(ens, 20, 6.0)
    # coarse bins of an exponential-like sample decrease from the first bin
    assert np.all(np.diff(hist.densities[:8]) < 0)


def test_fit_beta_on_exact_exponential_sample():
    g = Grid(4097, 80.0)
    y = sample_family(FamilySpec("exponential", alpha=2.0), g)
    ens = init_ensemble(100_000, from_density=y, seed=19)
    fit = fit_exponential(ens)
    # beta_hat = 1/sample-mean; 3 sigma band for the mean of Exp(2) draws
    assert abs(1.0 / fit.beta_hat - 0.5) < 3.0 * 0.5 / math.sqrt(100_000)


def test_fit_point_mass_ks_value():
    # all agents at m = 1 against the fitted Exp(1): the sup distance at the
    # sample points is exactly e^-1
    ens = init_ensemble(1000, equal=1.0, seed=0)
    fit = fit_exponential(ens)
    assert fit.beta_hat == pytest.approx(1.0, rel=1e-14)
    assert fit.ks_statistic == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_fit_beta_times_mean_is_one():
    ens = run_transactions(init_ensemble(5000, equal=3.0, seed=21), 100_000)
    fit = fit_exponential(ens)
    assert fit.beta_hat * ens.mean_money == pytest.approx(1.0, rel=1e-12)


def test_equilibration_ks_drops():
    # 100 exchanges per agent take the equal start close to exponential
    n = 20_000
    ens = run_transactions(init_ensemble(n, equal=1.0, seed=33), 100 * n)
    fit = fit_exponential(ens)
    assert fit.ks_statistic <= 0.012


def test_run_transactions_rejects_a_nonpositive_count():
    with pytest.raises(ValueError, match="count must be positive, got 0"):
        run_transactions(init_ensemble(10, equal=1.0, seed=0), 0)


def test_fit_rejects_one_agent_and_zero_money():
    # neither ensemble can be built, so the fit never sees one
    with pytest.raises(ValueError, match="need at least 2 agents"):
        fit_exponential(AgentEnsemble(money=np.ones(1), rng_seed=0))
    with pytest.raises(ValueError, match="mean money must be positive with a finite rate 1/mean, got 0.0"):
        fit_exponential(AgentEnsemble(money=np.zeros(5), rng_seed=0))


def test_io_files(tmp_path):
    ens = run_transactions(init_ensemble(100, equal=1.0, seed=2), 1000)
    fit = fit_exponential(ens)
    hist = histogram(ens, 10, 5.0)
    write_ensemble_csv(tmp_path / "e.csv", ens)
    write_histogram_csv(tmp_path / "h.csv", hist)
    write_fit_json(tmp_path / "f.json", ens, fit)
    lines = (tmp_path / "e.csv").read_text().strip().splitlines()
    assert lines[0] == "agent_id,money"
    assert len(lines) == 101
    hlines = (tmp_path / "h.csv").read_text().strip().splitlines()
    assert hlines[0] == "bin_left,bin_right,density"
    payload = json.loads((tmp_path / "f.json").read_text())
    assert set(payload) == {
        "beta_hat", "ks_statistic", "money_drift", "n_samples", "transactions_done", "seed"
    }
    assert payload["money_drift"] == ens.money_drift
    assert payload["transactions_done"] == 1000
    assert payload["seed"] == 2
