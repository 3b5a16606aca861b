"""Agent-based Monte Carlo of pairwise random money exchanges.

N agents hold nonnegative money.  One transaction picks an ordered pair
(i, j), i != j, uniformly, draws a split fraction eps uniform on the open
interval (0, 1), and reassigns

    m_i <- eps * (m_i + m_j),    m_j <- (1 - eps) * (m_i + m_j),

both from the pre-update pair sum.  Total money is conserved exactly up to
floating point and every balance stays nonnegative.

Randomness comes from a seeded numpy PCG64 generator; draws are consumed in
fixed-size chunks of (i, j, eps) triples so a given seed and call sequence
reproduces the ensemble bit-for-bit.  j is drawn uniformly over the N-1
values distinct from i (the shifted-draw equivalent of rejecting i = j).
The drawn transactions are applied by one numpy kernel whose result is
bit-identical to the plain sequential loop (see ``_exchange_waves``).

Exact finite-N laws: the pair update resamples (m_i, m_j) uniformly on the
segment of fixed sum, a Gibbs step for the uniform measure on the simplex
sum m = M, so at equilibrium one agent holds M * Beta(1, N-1).  With
S2 = sum m^2 and S2* = 2 M^2/(N+1), each transaction shrinks E[S2 - S2*]
by the factor 1 - 2(N+1)/(3N(N-1)); at N = 2 it is 0 and one trade
equilibrates.

Time-scale note: for large N the factor is 1 - 2/(3N) to leading order,
so N/2 transactions shrink the gap by about e^{-1/3} ~ 0.7165, not by the
2/3 of one application of the macroscopic redistribution operator.  For
this slowest mode one operator step therefore corresponds to
(3/2) ln(3/2) N ~ 0.61 N transactions.  The rule only aligns reporting
between the two pictures; nothing in either algorithm depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DegenerateDensityError, Density, quad_norm, write_csv, write_json

_CHUNK = 1 << 20


def _exchange_waves(money, ii, jj, eps):
    """Apply transactions ``(ii[t], jj[t], eps[t])`` in order, in place.

    Same result, bit for bit, as the sequential loop

        for i, j, e in zip(ii, jj, eps):
            s = money[i] + money[j]
            money[i] = e * s
            money[j] = (1.0 - e) * s

    The transactions are walked in windows of ``max(64, N // 16)``.  Each
    pass over a window takes every transaction that is the earliest one
    left for both of its agents, applies all of them at once and drops
    them.  Transactions taken together touch disjoint agents, and each
    agent's transactions still run in their original order, so every
    update sees the operands, and does the IEEE operations, of the loop.

    The earliest one is found by stamped keys: each pass raises ``stamp`` by
    ``width + 1`` and gives the transaction at window position ``pos`` the
    key ``stamp - pos``; ``np.maximum.at`` leaves each agent the key of its
    earliest transaction in the pass.  A key from an earlier pass is at most
    the earlier stamp, below every key of this pass, so no key is ever
    reset; a call's stamps stay at most ``(width + 1) * len(ii)``.  Rows are
    selected by ``nonzero`` indices, not boolean masks; on short arrays
    ``a[idx]`` costs about half of ``a.take(idx)``.

    Cost per transaction, medians measured on a 2-core Xeon VM (1e4-5e4
    transactions below 1e5 agents, 1e6 at 1e5 and 1e6).  The loops in Python
    ran in ``run_transactions`` with its draws, the first over the numpy
    arrays, the second over ``money.tolist()`` and the draws' ``tolist()``,
    written back at the end; both are bit-identical to the kernel.

        agents  kernel   loop over arrays  loop over lists
        10      4.46 us  0.50 us           135 ns
        100     1.03 us  0.76 us           130 ns
        1000    385 ns   0.86 us           170-195 ns
        1e5     39 ns    0.90 us           365-405 ns
        1e6     54 ns    0.75 us           745 ns

    Small ensembles pay for the waves: a window of 64 transactions over few
    agents needs nearly one pass per transaction.  The list loop is faster
    than the kernel up to at least 1000 agents (the kernel read 5.1-6.4 us,
    1.0 us and 430-490 ns there in the same runs as the list loop), and the
    crossover lies between 1000 and 1e5.  At these sizes a whole
    ``simulate`` of 1e5 transactions still ends in under 2 s, and one kernel
    keeps one code path; a size-selected loop waits for a benchmark workload
    on a small gas to show what it would gain.
    """
    n = money.shape[0]
    width = max(64, n // 16)
    key = np.zeros(n, np.int64)  # the key of each agent's earliest transaction in the last pass touching it
    stamp = 0
    for start in range(0, ii.shape[0], width):
        i_w = ii[start:start + width]
        j_w = jj[start:start + width]
        e_w = eps[start:start + width]
        pos = np.arange(i_w.shape[0])
        while pos.shape[0]:
            stamp += width + 1
            mine = stamp - pos
            # ufunc.at is defined for repeated indices; fancy assignment is not
            np.maximum.at(key, i_w, mine)
            np.maximum.at(key, j_w, mine)
            take = (key[i_w] == mine) & (key[j_w] == mine)
            now = take.nonzero()[0]
            i, j, e = i_w[now], j_w[now], e_w[now]
            s = money[i] + money[j]
            money[i] = e * s
            money[j] = (1.0 - e) * s
            rest = (~take).nonzero()[0]
            i_w, j_w, e_w, pos = i_w[rest], j_w[rest], e_w[rest], pos[rest]


@dataclass
class AgentEnsemble:
    """Money vector plus the generator state that evolves it.

    It owns the four rules on its money, each raising ValueError that names the value: at
    least 2 agents in a 1-D array, finite nonnegative balances, a finite total, and a
    positive mean whose rate 1/mean (the fitted beta) is finite.
    """

    money: np.ndarray
    rng_seed: int
    transactions_done: int = 0
    _rng: np.random.Generator = field(repr=False, default=None)
    initial_total: float = field(init=False)

    def __post_init__(self):
        self.money = np.ascontiguousarray(self.money, dtype=np.float64)
        if self.money.ndim != 1 or self.money.shape[0] < 2:
            raise ValueError(f"need at least 2 agents in a 1-D money array, got shape {self.money.shape}")
        bad = np.flatnonzero(~np.isfinite(self.money) | (self.money < 0.0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"money must be finite and nonnegative, got {self.money[k]} at agent {k}")
        with np.errstate(over="ignore"):
            if not math.isfinite(self.money.sum()):
                raise ValueError("total money overflows")
        mean = self.mean_money
        if not (mean > 0.0 and 1.0 / mean < math.inf):
            raise ValueError(f"mean money must be positive with a finite rate 1/mean, got {mean}")
        if self._rng is None:
            self._rng = np.random.default_rng(np.random.PCG64(self.rng_seed))
        self.initial_total = self.total

    @property
    def n_agents(self) -> int:
        return int(self.money.shape[0])

    @property
    def total(self) -> float:
        return float(self.money.sum())

    @property
    def mean_money(self) -> float:
        return self.total / self.n_agents

    @property
    def money_drift(self) -> float:
        """Relative change of the total money since construction (exact exchanges give 0)."""
        return (self.total - self.initial_total) / self.initial_total


def init_ensemble(
    n_agents: int,
    *,
    equal: float | None = None,
    from_density: Density | None = None,
    seed: int = 0,
) -> AgentEnsemble:
    """Create an ensemble, either all-equal or sampled from a density.

    Density sampling inverts the trapezoid-integrated CDF at uniform draws (piecewise-linear
    inverse CDF over the grid nodes); a density with no mass raises DegenerateDensityError.
    ``AgentEnsemble`` checks the money, so a bad ``equal`` raises its ValueError.
    """
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents, got {n_agents}")
    if (equal is None) == (from_density is None):
        raise ValueError("specify exactly one of equal= or from_density=")
    rng = np.random.default_rng(np.random.PCG64(seed))
    if equal is not None:
        money = np.full(n_agents, float(equal))
    else:
        norm = quad_norm(from_density)
        if norm <= 0.0:
            raise DegenerateDensityError("cannot sample agents from a zero-norm density")
        grid = from_density.grid
        mids = 0.5 * (from_density.values[:-1] + from_density.values[1:])
        cdf = np.concatenate([[0.0], np.cumsum(mids * grid.spacing)]) / norm
        cdf[-1] = 1.0
        u = rng.random(n_agents)
        money = np.interp(u, cdf, grid.nodes)
    return AgentEnsemble(money=money, rng_seed=seed, _rng=rng)


def run_transactions(ens: AgentEnsemble, count: int) -> AgentEnsemble:
    """Apply ``count`` sequential transactions in place and return the ensemble."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    n = ens.n_agents
    rng = ens._rng
    done = 0
    while done < count:
        c = min(_CHUNK, count - done)
        ii = rng.integers(0, n, size=c)
        jj = rng.integers(0, n - 1, size=c)
        jj += jj >= ii
        eps = rng.random(size=c)
        zero = eps == 0.0
        while zero.any():  # eps is drawn on the open interval (0, 1)
            eps[zero] = rng.random(size=int(zero.sum()))
            zero = eps == 0.0
        _exchange_waves(ens.money, ii, jj, eps)
        done += c
    ens.transactions_done += count
    return ens


@dataclass(frozen=True)
class HistogramEstimate:
    bin_edges: np.ndarray
    densities: np.ndarray


def histogram_cut(ens: AgentEnsemble, n_bins: int, m_max: float | None = None) -> float:
    """The cut of a histogram of ``ens`` on ``n_bins`` bins: ``m_max``, by default 10 * mean money.

    It owns the three rules on a cut, each raising ValueError that names the value: at least
    2 bins, 0 < cut < inf, and a finite density n / (n * cut / n_bins) for a bin that holds
    every agent.  The rule reads only the agent count, the bins and the cut, so a cut resolved
    before ``run_transactions`` gets the same verdict after it.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    cut = 10.0 * ens.mean_money if m_max is None else m_max
    named = f"m_max {cut}" if m_max is not None else f"the default cut 10 * mean money, {cut},"
    if not 0.0 < cut < math.inf:
        raise ValueError(f"{named} is not positive and finite")
    scale = ens.n_agents * (cut / n_bins)
    if not (scale > 0.0 and ens.n_agents / scale < math.inf):
        raise ValueError(f"{named} is too small for {n_bins} bins: the bin densities overflow")
    return cut


def histogram(ens: AgentEnsemble, n_bins: int, m_max: float) -> HistogramEstimate:
    """Per-bin probability density on uniform bins over [0, m_max], a cut ``histogram_cut`` accepts.

    Densities are normalized by the full sample count, so mass that
    overflows m_max shows up as a total below 1 rather than being rescaled.
    The bin width is m_max / n_bins, exactly the spacing of ``np.linspace``'s edges.
    """
    edges = np.linspace(0.0, histogram_cut(ens, n_bins, m_max), n_bins + 1)
    dens = np.histogram(ens.money, bins=edges)[0] / (ens.n_agents * (m_max / n_bins))
    return HistogramEstimate(bin_edges=edges, densities=dens)


@dataclass(frozen=True)
class ExponentialFit:
    beta_hat: float
    ks_statistic: float
    n_samples: int


def fit_exponential(ens: AgentEnsemble) -> ExponentialFit:
    """Rate estimate beta = N / sum(m) plus a KS distance to that exponential.

    beta_hat is the maximum-likelihood rate (the reciprocal sample mean), finite by
    ``AgentEnsemble``'s rules.  The KS statistic is sup over the sample points of
    |ECDF(m) - F(m)| with the right-continuous empirical CDF (ties counted fully), F the
    fitted exponential CDF; for a point mass at m = 1 against rate 1 it is exactly e^{-1}.
    """
    beta = 1.0 / ens.mean_money
    ms = np.sort(ens.money)
    ecdf = np.searchsorted(ms, ms, side="right") / ens.n_agents
    fitted = 1.0 - np.exp(-beta * ms)
    ks = float(np.max(np.abs(ecdf - fitted)))
    return ExponentialFit(beta_hat=beta, ks_statistic=ks, n_samples=ens.n_agents)


def write_ensemble_csv(path, ens: AgentEnsemble) -> None:
    write_csv(path, ("agent_id", "money"), (range(ens.n_agents), ens.money))


def write_histogram_csv(path, hist: HistogramEstimate) -> None:
    write_csv(path, ("bin_left", "bin_right", "density"), (hist.bin_edges[:-1], hist.bin_edges[1:], hist.densities))


def write_fit_json(path, ens: AgentEnsemble, fit: ExponentialFit) -> None:
    write_json(path, {
        "beta_hat": fit.beta_hat,
        "ks_statistic": fit.ks_statistic,
        "money_drift": ens.money_drift,
        "n_samples": fit.n_samples,
        "transactions_done": ens.transactions_done,
        "seed": ens.rng_seed,
    })
