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

Time-scale note: per transaction the second-moment gap
G = M2 - 2<m>^2 shrinks by the factor 1 - 2/(3N), so N/2 transactions
shrink it by e^{-1/3} ~ 0.7165, not by the 2/3 of one application of the
macroscopic redistribution operator.  For this slowest mode one operator
step therefore corresponds to (3/2) ln(3/2) N ~ 0.61 N transactions.  The
rule only aligns reporting between the two pictures; nothing in either
algorithm depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Density, quad_norm, write_csv, write_json

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

    Cost per transaction, measured on a 2-core Xeon VM: 60-100 ns at
    N = 1e5, 130 ns at N = 2e4 and 150-200 ns at N = 1e6, against about
    0.8-1.4 us for the loop in Python.  Small ensembles pay for it: a
    window of 64 transactions over few agents needs nearly one pass per
    transaction.  ``run_transactions`` with 1e5 transactions, the range of
    three seeds over two sessions (the loop run in the same process):

        agents    kernel        loop in Python
        10        11.5-17.5 us  0.9-1.2 us
        100       1.8-2.6 us    0.8-0.9 us
        200       1.7-2.9 us    0.9-1.2 us
        300       1.1-1.5 us    0.9-1.0 us
        1000      0.6-1.0 us    0.7-1.0 us

    Below about 1000 agents the kernel is the slower one.  At these sizes a
    whole ``simulate`` of 1e5 transactions still ends in under 2 s, and
    one kernel keeps one code path; a size-selected scalar loop is not
    worth a second one.
    """
    n = money.shape[0]
    width = max(64, n // 16)
    first = np.full(n, width)  # earliest remaining position per agent
    for start in range(0, ii.shape[0], width):
        i_w = ii[start:start + width]
        j_w = jj[start:start + width]
        e_w = eps[start:start + width]
        pos = np.arange(i_w.shape[0])
        while pos.shape[0]:
            # ufunc.at is defined for repeated indices; fancy assignment is not
            np.minimum.at(first, i_w, pos)
            np.minimum.at(first, j_w, pos)
            take = (first[i_w] == pos) & (first[j_w] == pos)
            first[i_w] = width
            first[j_w] = width
            i, j, e = i_w[take], j_w[take], e_w[take]
            s = money[i] + money[j]
            money[i] = e * s
            money[j] = (1.0 - e) * s
            keep = ~take
            i_w, j_w, e_w, pos = i_w[keep], j_w[keep], e_w[keep], pos[keep]


@dataclass
class AgentEnsemble:
    """Money vector plus the generator state that evolves it."""

    money: np.ndarray
    rng_seed: int
    transactions_done: int = 0
    total: float = 0.0
    _rng: np.random.Generator = field(repr=False, default=None)
    initial_total: float = field(init=False)

    def __post_init__(self):
        self.money = np.ascontiguousarray(self.money, dtype=np.float64)
        if self._rng is None:
            self._rng = np.random.default_rng(np.random.PCG64(self.rng_seed))
        self.total = self.initial_total = float(self.money.sum())

    @property
    def n_agents(self) -> int:
        return int(self.money.shape[0])

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

    Density sampling inverts the trapezoid-integrated CDF at uniform draws
    (piecewise-linear inverse CDF over the grid nodes).
    """
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents, got {n_agents}")
    if (equal is None) == (from_density is None):
        raise ValueError("specify exactly one of equal= or from_density=")
    rng = np.random.default_rng(np.random.PCG64(seed))
    if equal is not None:
        if not 0.0 < equal < math.inf:
            raise ValueError(f"equal initial money must be positive and finite, got {equal}")
        if not math.isfinite(n_agents * equal):
            raise ValueError(f"total money {n_agents} * {equal} overflows")
        money = np.full(n_agents, float(equal))
    else:
        norm = quad_norm(from_density)
        if norm <= 0.0:
            raise ValueError("cannot sample agents from a zero-norm density")
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
    money = ens.money
    done = 0
    while done < count:
        c = min(_CHUNK, count - done)
        ii = rng.integers(0, n, size=c)
        jj = rng.integers(0, n - 1, size=c)
        jj = jj + (jj >= ii)
        eps = rng.random(size=c)
        zero = eps == 0.0
        while zero.any():  # eps is drawn on the open interval (0, 1)
            eps[zero] = rng.random(size=int(zero.sum()))
            zero = eps == 0.0
        _exchange_waves(money, ii, jj, eps)
        done += c
    ens.transactions_done += count
    ens.total = float(money.sum())
    return ens


@dataclass(frozen=True)
class HistogramEstimate:
    bin_edges: np.ndarray
    densities: np.ndarray
    n_samples: int


def check_histogram_args(n_bins: int, m_max: float | None) -> None:
    """Raise ValueError unless n_bins >= 2 and m_max, when given, is positive and finite."""
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    if m_max is not None and not 0.0 < m_max < math.inf:
        raise ValueError(f"m_max must be positive and finite, got {m_max}")


def histogram(ens: AgentEnsemble, n_bins: int, m_max: float) -> HistogramEstimate:
    """Per-bin probability density on uniform bins over [0, m_max].

    Densities are normalized by the full sample count, so mass that
    overflows m_max shows up as a total below 1 rather than being rescaled.
    """
    check_histogram_args(n_bins, m_max)
    edges = np.linspace(0.0, m_max, n_bins + 1)
    counts, _ = np.histogram(ens.money, bins=edges)
    width = edges[1] - edges[0]
    dens = counts / (ens.n_agents * width)
    return HistogramEstimate(bin_edges=edges, densities=dens, n_samples=ens.n_agents)


@dataclass(frozen=True)
class ExponentialFit:
    beta_hat: float
    ks_statistic: float
    n_samples: int


def fit_exponential(ens: AgentEnsemble) -> ExponentialFit:
    """Rate estimate beta = N / sum(m) plus a KS distance to that exponential.

    beta_hat is the maximum-likelihood rate (the reciprocal sample mean).
    The KS statistic is sup over the sample points of |ECDF(m) - F(m)| with
    the right-continuous empirical CDF (ties counted fully), F the fitted
    exponential CDF; for a point mass at m = 1 against rate 1 this evaluates
    to exactly e^{-1}.
    """
    if ens.n_agents < 2:
        raise ValueError("fit needs at least 2 agents")
    mean = ens.mean_money
    if mean <= 0.0:
        raise ValueError("degenerate ensemble: zero total money")
    beta = 1.0 / mean
    ms = np.sort(ens.money)
    ecdf = np.searchsorted(ms, ms, side="right") / ens.n_agents
    fitted = 1.0 - np.exp(-beta * ms)
    ks = float(np.max(np.abs(ecdf - fitted)))
    return ExponentialFit(beta_hat=beta, ks_statistic=ks, n_samples=ens.n_agents)


def write_ensemble_csv(path, ens: AgentEnsemble) -> None:
    write_csv(path, ("agent_id", "money"), enumerate(ens.money.tolist()))


def write_histogram_csv(path, hist: HistogramEstimate) -> None:
    edges = hist.bin_edges.tolist()
    write_csv(path, ("bin_left", "bin_right", "density"),
              zip(edges[:-1], edges[1:], hist.densities.tolist()))


def write_fit_json(path, ens: AgentEnsemble, fit: ExponentialFit) -> None:
    write_json(path, {
        "beta_hat": fit.beta_hat,
        "ks_statistic": fit.ks_statistic,
        "money_drift": ens.money_drift,
        "n_samples": fit.n_samples,
        "transactions_done": ens.transactions_done,
        "seed": ens.rng_seed,
    })
