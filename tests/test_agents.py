"""Monte Carlo exchange tests: conservation, determinism, fits, histograms."""

import json
import math

import numpy as np
import pytest

from wealthgas import (
    AgentEnsemble,
    FamilySpec,
    fit_exponential,
    histogram,
    init_ensemble,
    make_grid,
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
    g = make_grid(4097, 40.0)
    y = sample_family(FamilySpec("exponential", alpha=1.0), g)
    ens = init_ensemble(100_000, from_density=y, seed=123)
    assert abs(ens.mean_money - 1.0) < 3.0 / math.sqrt(100_000)


@pytest.mark.parametrize("equal", [math.inf, math.nan, 1e308])
def test_init_rejects_non_finite_money(equal):
    # 10 * 1e308 overflows the total
    with pytest.raises(ValueError):
        init_ensemble(10, equal=equal, seed=0)


def test_init_from_zero_density_rejected():
    from wealthgas import Density

    g = make_grid(64, 10.0)
    with pytest.raises(ValueError):
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
    # per transaction G = M2 - 2<m>^2 shrinks by 1 - 2/(3N), so each block of
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


@pytest.mark.parametrize("m_max", [math.inf, math.nan, 0.0])
def test_histogram_rejects_bad_cut(m_max):
    with pytest.raises(ValueError):
        histogram(init_ensemble(10, equal=1.0, seed=0), 10, m_max)


def test_histogram_overflow_not_rescaled():
    ens = init_ensemble(100, equal=5.0, seed=0)
    hist = histogram(ens, 10, 2.0)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert np.sum(hist.densities * width) == 0.0
    assert hist.n_samples == 100


def test_equilibrated_histogram_roughly_decreasing():
    ens = run_transactions(init_ensemble(20_000, equal=1.0, seed=11), 2_000_000)
    hist = histogram(ens, 20, 6.0)
    # coarse bins of an exponential-like sample decrease from the first bin
    assert np.all(np.diff(hist.densities[:8]) < 0)


def test_fit_beta_on_exact_exponential_sample():
    g = make_grid(4097, 80.0)
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
    assert set(payload) == {"beta_hat", "ks_statistic", "n_samples", "transactions_done", "seed"}
    assert payload["transactions_done"] == 1000
    assert payload["seed"] == 2
