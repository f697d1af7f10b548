"""Variable influence of distribution weighting functions.

For a distribution D on {-1,+1}^n write f_D(x) = 2^n * D(x).  The
influence of coordinate i on a function f is

    Inf_i(f) = E_x |f(x) - f(x with coordinate i rerandomized)|
             = (1/2) E_x |f(x) - f(x with coordinate i flipped)|

with x uniform, and total influence is the sum over coordinates.  This
module computes influences of restricted weighting functions (f_D)_s,
where (f)_s(x) evaluates f with the coordinates in the restriction s
overwritten, three ways:

* exactly, by enumeration over a dense table;
* for monotone D, from plain samples via the identity
  Inf_i(f_{D_s}) = E_{x ~ D_s}[x_i];
* for arbitrary D, from subcube-conditioned samples via two-point
  conditioning: draw x ~ D_s, condition on {x, x with i flipped}, and
  average |2p - 1| where p is the fraction of draws equal to x.

InfluenceOracle is the one engine over the three: estimate_conditional
reports the conditional scale Inf_i(f_{D_s}), estimate_all the
restricted scale, and the two are related by

    Inf_i((f_D)_s) = 2^|s| * Pr_D[x in s] * Inf_i(f_{D_s}).
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    _MAX_POINT_N,
    EMPTY,
    DensePmf,
    DistOracle,
    OracleMode,
    Restriction,
    _count,
    index_to_point,
    points_to_indices,
    reject_sample,
    restrict_dist,
    slice_cube,
    subcube_weight,
)
from .errors import ConfigError, DimensionMismatchError, OracleModeError

KIND_EXACT = "exact"
KIND_MONOTONE = "monotone"
KIND_SUBCUBE = "subcube"
# the oracle access each estimator kind needs
KIND_MODES = {
    KIND_EXACT: OracleMode.EXACT_PMF,
    KIND_MONOTONE: OracleMode.SAMPLE,
    KIND_SUBCUBE: OracleMode.SUBCUBE_SAMPLE,
}


def _checked(n: int, s: Restriction, coords: Sequence[int]) -> list:
    """coords as a list; raises DimensionMismatchError for a coordinate of
    s or of coords outside [0, n) and ValueError for one that s fixes."""
    s.check(n)
    coords = list(coords)
    for i in coords:
        if not 0 <= i < n:
            raise DimensionMismatchError(f"coordinate {i} out of range for n={n}")
        if s.mask >> i & 1:
            raise ValueError(f"coordinate {i} is fixed by the restriction")
    return coords


# ---------------------------------------------------------------------------
# exact enumeration


# cells of the exact kernel's difference buffer: it holds at most this many
# floats, or one subcube row when that is larger
_CHUNK_CELLS = 1 << 16


def _derived_rows(d: DensePmf, s: Restriction, level: int, rows: list):
    """(free, buffer, pos) of s, at length `level`, from its parent's kept
    rows (see exact_influence_all), pos[j] the child's free position of
    buffer row j; None when rows holds no parent of s one level up."""
    got = rows[level - 1] if 0 < level <= len(rows) else None
    if got is None:
        return None
    mask, bits, free, live, buf = got
    i = (s.mask & ~mask).bit_length() - 1
    if mask & ~s.mask or s.bits & mask != bits or i >= d.n:
        return None
    # the child's y is the parent's with bit t, the position of i among the
    # parent's free coordinates, taken out: each nonzero row but t, cut to its
    # half where bit t is b (sizes explicit: an m = 1 parent's child is empty)
    m, t = len(free), free.index(i)
    src = [j for p, j in live if p != t]
    half = buf.reshape(-1, 1 << (m - t - 1), 2, 1 << t)[src, :, s.bits >> i & 1]
    pos = [p - (p > t) for p, _ in live if p != t]
    return free[:t] + free[t + 1:], half.reshape(len(src), 1 << (m - 1)), pos


def exact_influence_all(d: DensePmf, s: Restriction = EMPTY, *, rows: Optional[list] = None):
    """(free coords, their influences) of the restricted weighting (f_D)_s.

    Over the 2^m-point subcube, (f_D)_s takes value 2^n * D(y) on the
    fraction 2^-m of the full cube mapping to y, so

        Inf_i((f_D)_s) = 2^(n-m-1) * sum_y |D(y) - D(y with i flipped)|.

    The subcube is read once as a flat vector q, its points by increasing
    index, so flipping free position p pairs q[y] with q[y ^ 2^p].  Row p
    of a difference buffer holds |q[y] - q[y ^ 2^p]| in y order, written
    from two strided views of q; the rows go in chunks of at most
    _CHUNK_CELLS floats (one row when 2^m is larger), and each chunk takes
    one in-place abs and one row sum.  Transient memory is at most
    2^m + _CHUNK_CELLS floats, one row when 2^m is larger.  Each row is
    summed pairwise as one contiguous run, the order a sum over the
    flipped copy of the cube uses, so the values are bit-identical to it.

    `rows` is an optional cache owned by one caller over one d, a list
    indexed by restriction length: rows[len(s)] = (s.mask, s.bits, free,
    live, buffer) for the last single-chunk subcube computed at that
    length (None after one whose m rows span several chunks), where live
    pairs each free position p whose row is nonzero with its buffer row,
    by increasing p.  Entries are >= 0, so a zero sum means an all-zero
    row, whose halves are zero too: the restricted pmf ignores that
    coordinate, here and at every descendant.
    When rows[len(s) - 1] belongs to a parent of s, that is s less one
    fixed coordinate i, the subcube is not read: with t the position of i
    among the parent's free coordinates and b its bit in s, the child's
    buffer is one gather of the parent's nonzero rows but row t, each cut
    to its half where bit t of y is b; every other influence is 0.0.
    Those rows hold the same floats in the same y order as the child's
    own kernel rows, each summed pairwise as one contiguous run, so the
    values are bit-identical to the kernel's.  A call keeps its buffer at
    its own length and drops every deeper one, so rows holds at most one
    buffer per length, each at most half the size of the one above.  A
    miss, or a subcube that spans several chunks, runs the kernel.
    """
    level = len(s)
    got = None if rows is None else _derived_rows(d, s, level, rows)
    if got is None:
        free, buf, vals = _kernel(d, s)
        live = [(p, p) for p, v in enumerate(vals.tolist()) if v]
        vals *= 2.0 ** (d.n - len(free) - 1)
    else:
        # one pass over the gathered rows' sums: scale each nonzero one into
        # place (a float product, as numpy's) and keep its row
        free, buf, pos = got
        scale = 2.0 ** (d.n - len(free) - 1)
        out, live = [0.0] * len(free), []
        for j, (p, v) in enumerate(zip(pos, np.add.reduce(buf, axis=1).tolist())):
            if v:
                out[p] = v * scale
                live.append((p, j))
        vals = np.array(out)
    if rows is not None:
        del rows[level:]
        rows += [None] * (level - len(rows))
        rows.append(None if buf is None else (s.mask, s.bits, free, live, buf))
    return free, vals


def _kernel(d: DensePmf, s: Restriction):
    """(free, the |difference| rows when all m fit one chunk, else None,
    row sums): the fill exact_influence_all describes.  The search reads a
    returned buffer to derive its children's rows."""
    q, free = slice_cube(d.table, s).reshape(-1), s.free_coords(d.n)
    m = len(free)
    vals = np.empty(m, dtype=np.float64)
    rows = max(1, min(m, _CHUNK_CELLS >> m))
    buf = np.empty((rows, q.size), dtype=np.float64)
    for lo in range(0, m, rows):
        block = buf[: min(rows, m - lo)]
        for row, p in zip(block, range(lo, m)):
            a = q.reshape(-1, 2, 1 << p)
            np.subtract(a, a[:, ::-1], out=row.reshape(a.shape))
        np.abs(block, out=block)
        vals[lo : lo + len(block)] = block.sum(axis=1)
    return free, buf[:m] if m * q.size <= _CHUNK_CELLS else None, vals


def exact_influence(d: DensePmf, i: int, s: Restriction = EMPTY) -> float:
    """Inf_i((f_D)_s) by enumeration.  Raises DimensionMismatchError for i
    outside [0, n) and ValueError for an i that s fixes."""
    _checked(d.n, s, [i])
    free, vals = exact_influence_all(d, s)
    return float(vals[free.index(i)])


def exact_total_influence(d: DensePmf, s: Restriction = EMPTY) -> float:
    _, vals = exact_influence_all(d, s)
    return float(vals.sum())


def exact_conditional_influence(d: DensePmf, i: int, s: Restriction = EMPTY) -> float:
    """Inf_i(f_{D_s}): influence under the conditional distribution itself.
    Raises for i as exact_influence does."""
    _checked(d.n, s, [i])
    if len(s) == 0:
        return exact_influence(d, i)
    cond, _ = restrict_dist(d, s)
    return exact_influence(cond, s.free_coords(d.n).index(i))


# ---------------------------------------------------------------------------
# estimator sizing


def bias_sample_count(eps: float, delta: float) -> int:
    """Conditioned samples for a +-eps, 1-delta bias estimate (Hoeffding)."""
    return _count(math.log(2.0 / delta), 2.0 * eps * eps, "bias samples")


def infest_sample_count(eps: float) -> int:
    """Two-point conditioned samples per run; the run's bias is <= eps."""
    return _count(1.0, eps * eps, "two-point draws per run", int64=True)


def infest_repetitions(eps: float, delta: float) -> int:
    """Runs of infest(eps/2) whose mean is +-eps accurate w.p. 1-delta."""
    return _count(2.0 * math.log(2.0 / delta), (eps / 2.0) ** 2, "two-point runs")


# ---------------------------------------------------------------------------
# estimates


@dataclass
class InfluenceEstimate:
    """One estimated influence value with its advertised quality."""

    coordinate: int
    value: float
    accuracy_target: float
    confidence: float
    samples_used: int

    def to_json_dict(self) -> dict:
        return {
            "coord": int(self.coordinate),
            "value": float(self.value),
            "accuracy": float(self.accuracy_target),
            "confidence": float(self.confidence),
            "samples": int(self.samples_used),
        }


def _two_point_means(source: DistOracle, s: Restriction, coords, run_eps: float, runs: int):
    """Means of `runs` independent infest(run_eps) outputs per coordinate.

    One batch X ~ D_s serves every coordinate, and one
    two_point_fraction_batch call gives each coordinate its own
    k = ceil(1/run_eps^2) two-point draws per run, coordinate by
    coordinate in the order given.  Returns (means, runs * (k + 1)), the
    samples behind one coordinate's mean.
    """
    k = infest_sample_count(run_eps)
    X = source.subcube_sample_batch(s, runs)
    dev = source.two_point_fraction_batch(X, coords, k)
    dev *= 2.0
    dev -= 1.0
    # |2p - 1| in place, as the batch holds len(coords) x runs floats; np.mean
    # reduces each row pairwise, keeping the result order-independent
    return np.mean(np.abs(dev, out=dev), axis=1), runs * (k + 1)


def infest(oracle: DistOracle, i: int, eps: float, s: Restriction = EMPTY) -> float:
    """One two-point-conditioning run; its expectation is within eps of
    Inf_i(f_{D_s}).

    Draw x ~ D_s, then ceil(1/eps^2) samples conditioned on the pair
    {x, x with i flipped} (intersected with s this is the same pair), and
    output |p - (1 - p)| for p the fraction equal to x.
    """
    vals, _ = _two_point_means(oracle, s, [i], eps, 1)
    return float(vals[0])


# ---------------------------------------------------------------------------
# unified oracle over the three access paths


@dataclass
class EstimatorBudget:
    """Hard resource caps for the sample-based estimator engine.

    The contract sample counts grow like accuracy^-2 (and the two-point
    path like accuracy^-4), so tight accuracies at deep restrictions can
    demand astronomically many draws.  When a cap binds, the engine uses
    everything the cap allows and reports the realized sample count;
    InfluenceOracle.caps_bound records the cut.  Both caps must be >= 1.

    max_pool caps the plain draws the shared pool takes in total (and
    those of one monotone estimate_conditional).  The pool keeps distinct
    points with counts, so its memory is O(min(2^n, draws) * n), not
    O(max_pool * n).  While it grows, a dense backing's draws arrive in
    slices of InfluenceOracle.CHUNK_ROWS; a tree or stream backing's
    arrive as one (draws, n) batch.  infest_reps_cap caps the two-point
    runs per subcube query, from either entry point, not each run's draws.
    """

    max_pool: int = 2_000_000
    infest_reps_cap: int = 20_000


class InfluenceOracle:
    """The influence-estimator engine: one estimator per access path.

    kind "exact" reads a dense table through an EXACT_PMF DistOracle;
    "monotone" averages coordinates of plain samples (valid for monotone
    D); "subcube" runs two-point conditioning through subcube samples.
    The kind alone also decides how weight reads a subcube's mass, so a
    search that holds this engine reads influences and leaf masses alike.

    Two entry points.  estimate_all (and estimate) reports the
    restricted scale Inf_i((f_D)_s) that the tree search needs:
    `accuracy` > 0 and `confidence` in (0, 1) are the per-query targets
    on that scale; weight estimation gets accuracy/2^(|s|+2) and the
    conditional estimate accuracy/(2^|s| * w_hat), each at half the
    failure budget, served from the pool below.  estimate_conditional
    reports the conditional scale Inf_i(f_{D_s}) at `accuracy` and
    `confidence` from draws of its own.  Both cut their counts at the
    EstimatorBudget caps, and a cap that binds cancels the guarantee:
    caps_bound counts, by EstimatorBudget field name, each sample count a
    cap cut and each monotone query that a full pool left short of its
    bias count.  A count that is not finite raises ConfigError, as do
    two-point draws per run past int64, which no cap cuts.

    The sample-based kinds keep one growing pool of plain samples and
    reuse it across queries (weights, monotone biases, and the search's
    leaf masses); a union bound over queries is unaffected by the
    reuse, and the pool is the dominant sample cost.  Every pool estimate
    is a count over the draws, so the pool is held as its sufficient
    statistic: the distinct points drawn so far, sorted by dense-table
    index, with how often each was drawn.  That is at most min(2^n,
    draws) rows, and the counts give the same sums as the draws would.
    The index is a 64-bit key, so the sample kinds take n <= 64.  The
    pool grows through DistOracle.sample_slices: a dense backing draws
    and tallies CHUNK_ROWS rows at a time, so growth never holds more
    than one slice of rows; a tree or stream backing draws the whole
    growth as one batch, which the tally then reads CHUNK_ROWS rows at a
    time.

    The exact kind keeps the kernel's difference rows, one buffer per
    restriction length with the positions of its nonzero rows, so a
    depth-first search reads each child's influences from its parent's
    nonzero rows (exact_influence_all, `rows`).
    """

    # rows drawn and turned into indices at a time when the pool grows (see
    # DistOracle.sample_slices), which bounds the transient batch
    CHUNK_ROWS = 1 << 16

    def __init__(
        self,
        kind: str,
        source: DistOracle,
        accuracy: float,
        confidence: float,
        budget: Optional[EstimatorBudget] = None,
    ):
        if kind not in KIND_MODES:
            raise ValueError(f"unknown influence oracle kind {kind!r}")
        needed = KIND_MODES[kind]
        if source.mode < needed:
            raise OracleModeError(
                f"influence kind {kind!r} needs oracle mode {needed.name}, "
                f"got {source.mode.name}"
            )
        self.kind = kind
        self.source = source
        self.accuracy = float(accuracy)
        self.confidence = float(confidence)
        self.budget = budget or EstimatorBudget()
        if not self.accuracy > 0.0:
            raise ConfigError(f"influence accuracy must be positive, got {accuracy}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"influence confidence must be in (0,1), got {confidence}")
        for cap in ("max_pool", "infest_reps_cap"):
            if getattr(self.budget, cap) < 1:
                raise ConfigError(f"{cap} must be positive, got {getattr(self.budget, cap)}")
        if kind != KIND_EXACT and source.n > _MAX_POINT_N:
            raise ConfigError(f"the sample pool keys points by a 64-bit index, n={source.n}")
        self.caps_bound: Counter = Counter()
        self.pool_draws = 0
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._points = np.empty((0, source.n), dtype=np.int8)
        self._dense = source.dense() if kind == KIND_EXACT else None
        # the exact kernel's kept difference rows, one buffer per restriction
        # length (see exact_influence_all)
        self._rows: Optional[list] = [] if kind == KIND_EXACT else None

    # -- pooled plain samples ------------------------------------------------

    def plain_pool(self, min_rows: int) -> np.ndarray:
        """Grow the shared pool to at least min_rows plain draws (subject to
        the pool cap); returns its distinct points, sorted by index."""
        want = self._capped(int(min_rows), "max_pool")
        if self.pool_draws < want:
            keys, counts = [self._keys], [self._counts]
            for X in self.source.sample_slices(want - self.pool_draws, self.CHUNK_ROWS):
                self.pool_draws += X.shape[0]
                k, c = np.unique(points_to_indices(X), return_counts=True)
                keys.append(k)
                counts.append(c)
            del X  # a view of a tree or stream's whole batch, which it keeps alive
            self._keys, where = np.unique(np.concatenate(keys), return_inverse=True)
            self._counts = np.zeros(self._keys.size, dtype=np.int64)
            np.add.at(self._counts, where, np.concatenate(counts))
            del keys, counts, where
            self._points = index_to_point(self._keys, self.source.n)
        return self._points

    def pool_tally(self, s: Restriction, coords: Sequence[int] = ()):
        """(draws in the pool that lie in s, per-coordinate sums of coords
        over those draws), both exact integers."""
        mask = s.consistent_mask(self._points)
        counts = self._counts[mask]
        return int(counts.sum()), counts @ self._points[mask][:, list(coords)]

    def weight(self, s: Restriction, min_rows: int) -> float:
        """Pr_D[x in s]: summed from the table for the exact kind, else the
        share of the pool's draws in s after growing it to min_rows."""
        if self.kind == KIND_EXACT:
            return subcube_weight(self._dense, s)
        s.check(self.source.n)  # before the pool grows
        self.plain_pool(min_rows)
        return self.pool_tally(s)[0] / self.pool_draws

    def _capped(self, wanted: int, field: str) -> int:
        """min(wanted, the `field` cap), counting a cut in caps_bound."""
        cap = getattr(self.budget, field)
        if wanted <= cap:
            return wanted
        self.caps_bound[field] += 1
        return cap

    # -- queries ---------------------------------------------------------------

    def estimate_all(self, s: Restriction = EMPTY, coords: Optional[Sequence[int]] = None):
        """Restricted-scale influence estimates for each free coordinate.

        Returns (coords, values, samples_used_per_query).  Raises
        DimensionMismatchError for a coordinate of s or of coords outside
        [0, n) and ValueError for one of coords that s fixes.
        """
        a, dq = self.accuracy, self.confidence
        if coords is not None:
            coords = _checked(self.source.n, s, coords)
        if self.kind == KIND_EXACT:
            free, vals = exact_influence_all(self._dense, s, rows=self._rows)
            if coords is None:
                coords = free
            elif coords != free:
                pos = {c: p for p, c in enumerate(free)}
                vals = vals[[pos[i] for i in coords]]
            return coords, vals, 0
        if coords is None:
            coords = s.free_coords(self.source.n)
        if not coords:
            return coords, np.zeros(0), 0

        # weight of the subcube from plain samples
        if len(s) == 0:
            w_hat, d_rest = 1.0, dq
        else:
            e_w = a / 2.0 ** (len(s) + 2)
            n_w = self._capped(bias_sample_count(e_w, dq / 2.0), "max_pool")
            w_hat = self.weight(s, n_w)
            d_rest = dq / 2.0
        if w_hat <= 0.0:
            # no observed mass: restricted influences are below resolution
            return coords, np.zeros(len(coords)), self.pool_draws
        e_cond = min(0.5, a / (2.0 ** len(s) * w_hat))

        if self.kind == KIND_MONOTONE:
            n_c = self._capped(bias_sample_count(e_cond, d_rest), "max_pool")
            have, sums = self.pool_tally(s, coords)
            while have < n_c and self.pool_draws < self.budget.max_pool:
                goal = math.ceil(n_c / max(w_hat, 2.0 ** -(len(s) + 2)))
                self.plain_pool(max(goal, 2 * self.pool_draws))
                have, sums = self.pool_tally(s, coords)
            if have < n_c:
                self.caps_bound["max_pool"] += 1
            if have == 0:
                return coords, np.zeros(len(coords)), 0
            if len(s) > 0:
                w_hat = have / self.pool_draws  # refresh with the grown pool
            # conditional bias of each coordinate; clamp at 0 (monotone truth)
            bias = sums / have
            vals = 2.0 ** len(s) * w_hat * np.clip(bias, 0.0, None)
            return coords, vals, have

        # two-point conditioning path
        runs = self._capped(infest_repetitions(e_cond, d_rest), "infest_reps_cap")
        vals, used = _two_point_means(self.source, s, coords, e_cond / 2.0, runs)
        vals *= 2.0 ** len(s) * w_hat
        return coords, vals, used

    def estimate(self, i: int, s: Restriction = EMPTY) -> InfluenceEstimate:
        _, vals, used = self.estimate_all(s, [i])
        return InfluenceEstimate(
            coordinate=i,
            value=float(vals[0]),
            accuracy_target=self.accuracy,
            confidence=self.confidence,
            samples_used=int(used),
        )

    def estimate_conditional(self, i: int, s: Restriction = EMPTY) -> InfluenceEstimate:
        """Inf_i(f_{D_s}) on the conditional scale, +-accuracy w.p. at
        least 1 - confidence.

        Not from the pool.  "monotone" averages x_i over
        bias_sample_count(accuracy, confidence) plain draws, capped at
        max_pool, conditioned on s by rejection and clamped at 0 (the
        monotone truth is nonnegative, sampling noise need not be);
        "subcube" averages infest_repetitions(accuracy, confidence) runs,
        capped at infest_reps_cap, of infest(accuracy / 2), each biased
        by at most accuracy/2 with the mean concentrating to accuracy/2;
        "exact" enumerates.  Raises as estimate_all does for a coordinate
        outside [0, n) or one that s fixes.
        """
        _checked(self.source.n, s, [i])
        if self.kind == KIND_EXACT:
            value, used = exact_conditional_influence(self._dense, i, s), 0
        elif self.kind == KIND_MONOTONE:
            used = self._capped(bias_sample_count(self.accuracy, self.confidence), "max_pool")
            X = reject_sample(self.source.sample_batch, s, used)
            value = max(0.0, float(X[:, i].mean()))
        else:
            runs = self._capped(infest_repetitions(self.accuracy, self.confidence),
                                "infest_reps_cap")
            vals, used = _two_point_means(self.source, s, [i], self.accuracy / 2.0, runs)
            value = float(vals[0])
        return InfluenceEstimate(
            coordinate=i,
            value=value,
            accuracy_target=self.accuracy,
            confidence=self.confidence,
            samples_used=used,
        )
