"""Seeded random partitions and the statistics built on them.

Two measures: uniform over all partitions of n, and Plancherel
(dim^2 / n!).  Both samplers are exact, not approximate.  On top of
them sit limit-shape curves, the rescaled profile distance, and a few
small experiments that report aggregate statistics.
"""

import bisect
import math
import random
from functools import lru_cache

from . import partitions as pt


class SeededRng(random.Random):
    """Deterministic substream keyed by (seed, index).

    Identical seed and index give bit-identical draws, independent of
    how many other streams exist, so samples parallelize freely.
    """

    def __init__(self, seed, index=0):
        super().__init__("%d:%d" % (int(seed), int(index)))


# ---------------------------------------------------------------------------
# exact samplers


# like partitions._pentagonal_table, one table per n in use
@lru_cache(maxsize=16)
def _sigma_table(n):
    """Divisor sums sigma(1), ..., sigma(n) by a sieve."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        for s in range(d, n + 1, d):
            sig[s] += d
    return sig


def uniform_sample(n, rng):
    """One partition of n, exactly uniform over all p(n) of them.

    Each round picks a part d with multiplicity j, weighted by
    d * p(n - j*d); the identity n*p(n) = sum of those weights makes
    the assembled multiset exactly uniform.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = pt._pentagonal_table(n)
    sigma = _sigma_table(n)
    parts = []
    while n > 0:
        # pick the total s = j*d first (weight sigma(s) p(n-s)), then a
        # divisor d of s with weight d; jointly that is d * p(n - j*d)
        target = rng.randrange(n * p[n])
        s = 0
        while target >= 0:
            s += 1
            target -= sigma[s] * p[n - s]
        t = rng.randrange(sigma[s])
        for d in range(1, s + 1):
            if s % d == 0:
                t -= d
                if t < 0:
                    parts.extend([d] * (s // d))
                    break
        n -= s
    return pt.from_rows(parts)


def plancherel_sample(n, rng):
    """Insertion shape of a uniform random permutation, so dim^2/n!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    perm = list(range(n))
    rng.shuffle(perm)
    return rsk_shape(perm)


def rsk_shape(word):
    """Shape of the row-insertion tableau of a word of distinct values."""
    rows = []
    for x in word:
        for row in rows:
            i = bisect.bisect_right(row, x)
            if i == len(row):
                row.append(x)
                x = None
                break
            row[i], x = x, row[i]
        if x is not None:
            rows.append([x])
    return tuple(len(r) for r in rows)


# ---------------------------------------------------------------------------
# limit shapes


_B = math.pi / (2 * math.sqrt(6))


def PLANCHEREL_RUSSIAN(x):
    """The Vershik-Kerov-Logan-Shepp curve, in Russian coordinates."""
    if abs(x) >= 2:
        return abs(x)
    return (2 / math.pi) * (x * math.asin(x / 2) + math.sqrt(4 - x * x))


def UNIFORM_RUSSIAN(x):
    """The uniform limit curve (1/b) log(e^{bx} + e^{-bx}), Russian
    coordinates; written with |x| so big |x| does not overflow."""
    a = abs(x)
    return a + math.log1p(math.exp(-2 * _B * a)) / _B


def russian_profile(lam, u):
    """Rotated boundary profile of lam at integer or real u, unscaled."""
    return u + 2 * descent_tail_count(lam, u)


def rescaled_sup_distance(lam, shape):
    """Sup distance between the 1/sqrt(n) profile of lam and the curve."""
    n = pt.size(lam)
    if n < 1:
        raise ValueError("need a nonempty partition")
    s = 1 / math.sqrt(n)
    lo = -len(lam) - 1
    hi = lam[0] + 1
    best = 0.0
    for u in range(lo, hi + 1):
        best = max(best, abs(s * russian_profile(lam, u) - shape(s * u)))
    return best


# ---------------------------------------------------------------------------
# small shape statistics


def beta_sum_flexible(lam, beta):
    """Columns ascending a_1 <= ... <= a_k: a_1 = 1 and each a_k at most
    the ceiling of beta times the sum of the columns up to it."""
    if pt.size(lam) < 1:
        raise ValueError("need a nonempty partition")
    cols = sorted(pt.conjugate(lam))
    if cols[0] != 1:
        return False
    total = 0
    for a in cols:
        total += a
        if a > math.ceil(beta * total):
            return False
    return True


def descent_tail_count(lam, w):
    """How many i have lam_i - i >= w."""
    return sum(1 for i, r in enumerate(lam) if r - (i + 1) >= w)


def singleton_columns(lam):
    """Number of columns of size 1."""
    if not lam:
        return 0
    return lam[0] - (lam[1] if len(lam) > 1 else 0)


def wilson_interval(hits, trials):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.96
    if trials == 0:
        return (0.0, 1.0)
    p = hits / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# experiments


class SampleReport:
    def __init__(self, measure, n, samples, seed, stats=None):
        self.measure = measure
        self.n = n
        self.samples = samples
        self.seed = seed
        self.stats = {} if stats is None else stats


def check_samples(samples):
    """Turn away a negative sample count, which would read as no samples."""
    if samples < 0:
        raise ValueError("samples must be nonnegative, not %d" % samples)


def draw(measure, n, seed, index):
    rng = SeededRng(seed, index)
    if measure == "uniform":
        return uniform_sample(n, rng)
    if measure == "plancherel":
        return plancherel_sample(n, rng)
    raise ValueError("unknown measure %r" % measure)


def sample_report(measure, n, samples, seed):
    """Draw a batch and summarize it: frequency table at small n,
    rescaled row/column lengths, and distance to the measure's limit
    curve."""
    check_samples(samples)
    shape = PLANCHEREL_RUSSIAN if measure == "plancherel" else UNIFORM_RUSSIAN
    freq = {}
    lengths = []
    heights = []
    dists = []
    singles = []
    for i in range(samples):
        lam = draw(measure, n, seed, i)
        if n <= 12:
            freq[lam] = freq.get(lam, 0) + 1
        root = math.sqrt(n) if n else 1.0
        lengths.append((lam[0] if lam else 0) / root)
        heights.append((len(lam)) / root)
        singles.append(singleton_columns(lam))
        if n >= 1:
            dists.append(rescaled_sup_distance(lam, shape))
    stats = {
        "mean_length": sum(lengths) / max(1, samples),
        "mean_height": sum(heights) / max(1, samples),
        "singleton_counts": singles,
    }
    if freq:
        stats["frequencies"] = {pt.format_partition(k): v for k, v in sorted(freq.items())}
    if dists:
        stats["sup_distances"] = dists
        stats["median_distance"] = sorted(dists)[len(dists) // 2]
    return SampleReport(measure, n, samples, seed, stats)


def experiment_flexibility(n, beta, samples, seed):
    """Empirical probability that a Plancherel partition is flexible."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite, not %r" % beta)
    check_samples(samples)
    hits = 0
    for i in range(samples):
        lam = draw("plancherel", n, seed, i)
        if beta_sum_flexible(lam, beta):
            hits += 1
    lo, hi = wilson_interval(hits, samples)
    rate = hits / samples if samples else 0.0
    return SampleReport(
        "plancherel",
        n,
        samples,
        seed,
        {"beta": beta, "pass_rate": rate, "wilson_low": lo, "wilson_high": hi},
    )


def experiment_coverage(m, measure, samples, seed):
    """How often a random partition of m(m+1)/2 is proved by the grid split
    with the measure's dealing of its columns alone (split_rate), and by
    the prover at its default budget (prover_rate)."""
    from .prover import DEALINGS, deal_grid, prove_in_staircase_square

    if m < 1:
        raise ValueError("m must be positive, not %d" % m)
    check_samples(samples)
    n = pt.triangular(m)
    split = proved = 0
    for i in range(samples):
        lam = draw(measure, n, seed, i)
        split += deal_grid(m, pt.conjugate(lam), DEALINGS[measure]) is not None
        proved += prove_in_staircase_square(m, lam) is not None
    stats = {
        "split_rate": split / samples if samples else 0.0,
        "split_successes": split,
        "prover_rate": proved / samples if samples else 0.0,
    }
    return SampleReport(measure, n, samples, seed, stats)


def singleton_column_stats(n, samples, seed, measure="uniform"):
    """Distribution of the singleton-column count, rescaled by pi/sqrt(6n)."""
    if n < 1:
        raise ValueError("n must be positive, not %d" % n)
    check_samples(samples)
    scale = math.pi / math.sqrt(6 * n)
    vals = []
    for i in range(samples):
        lam = draw(measure, n, seed, i)
        vals.append(singleton_columns(lam) * scale)
    vals.sort()
    return SampleReport(
        measure,
        n,
        samples,
        seed,
        {"scaled_values": vals, "median": vals[len(vals) // 2] if vals else 0.0},
    )
