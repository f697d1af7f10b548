"""Distributions over the boolean hypercube {-1,+1}^n.

Two concrete representations:

* `DistTree` -- a decision tree whose leaves carry densities; the pmf is
  constant on each leaf subcube.
* `DensePmf` -- an explicit table of 2^n probabilities (n <= 20).

Plus `DistOracle`, the single access point experiments use to draw
samples, draw subcube-conditioned samples, or evaluate the pmf, with an
explicit access mode and per-mode query accounting.

Conventions: coordinates are 0-indexed; a point is an int8 vector of
signs; bit i of a dense-table index is 1 exactly when coordinate i is +1.
"""

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

import numpy as np

from ._seeds import stream
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidPmfError,
    InvalidTreeError,
    OracleModeError,
    RejectionCapExceededError,
    ZeroWeightSubcubeError,
)

MAX_DENSE_N = 20

# identities and checks hold to this additive tolerance
ATOL = 1e-9
# serialization round-trips hold to this tolerance
ATOL_ROUNDTRIP = 1e-12


def _count(num: float, den: float, what: str, int64: bool = False) -> int:
    """ceil(num / den), the last division of a sample-size formula; raises
    ConfigError if it is not finite (den == 0 included) or, with int64 (a
    count drawn whole, which no budget cap cuts), does not fit an int64."""
    q = num / den if den else math.inf
    if not abs(q) < (2.0 ** 63 if int64 else math.inf):
        raise ConfigError(f"{what} {q:.3g} is not a finite{' int64' if int64 else ''} count")
    return math.ceil(q)


# ---------------------------------------------------------------------------
# points


_POINTS_CACHE: dict = {}


def all_points(n: int) -> np.ndarray:
    """(2^n, n) matrix whose row k is the point with index k.

    Cached per n; callers must treat the result as read-only.
    """
    got = _POINTS_CACHE.get(n)
    if got is None:
        got = index_to_point(np.arange(1 << n, dtype=np.int64), n)
        got.setflags(write=False)
        if n <= MAX_DENSE_N:
            _POINTS_CACHE[n] = got
    return got


# rows per block in points_to_indices: its bit matrix stays one block
# instead of 4n or 8n bytes per point (172 MB for 2M points at n=10 in
# int64, which the blocks also index in about half the time)
_INDEX_BLOCK = 1 << 13

# widest cube whose indices fit an int64, bit 63 in two's complement
_MAX_POINT_N = 64


def points_to_indices(X: np.ndarray) -> np.ndarray:
    """Dense-table indices (int64) for a (k, n) batch of points: bit i of
    a row's index is set when its x_i > 0.

    Each block is (X > 0) times the weights 2^i, as a float32 BLAS
    product for n <= 24: every partial sum is an integer below 2^n, so
    below 2^24 and exact in float32, whatever order or blocking the BLAS
    sums in.  Wider points use an int64 product.  n is at most 64: at
    n = 64 bit 63 is the int64 sign bit (two's complement), and wider
    points would need more bits than an index has, so they raise
    DimensionMismatchError.
    """
    n = X.shape[1]
    if n > _MAX_POINT_N:
        raise DimensionMismatchError(
            f"a point index has 64 bits, so n <= {_MAX_POINT_N}; got n={n}")
    dtype = np.float32 if n <= 24 else np.int64
    weights = (np.int64(1) << np.arange(n, dtype=np.int64)).astype(dtype)
    out = np.empty(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], _INDEX_BLOCK):
        bits = (X[lo:lo + _INDEX_BLOCK] > 0).astype(dtype)
        # the float32 BLAS product can raise a stray "invalid value" flag
        # on these 0/1 operands though its sums are exact
        with np.errstate(invalid="ignore"):
            out[lo:lo + _INDEX_BLOCK] = bits @ weights
    return out


def index_to_point(idx, n: int) -> np.ndarray:
    """Point with dense-table index idx; an array of k indices gives a
    (k, n) batch.  Inverts points_to_indices."""
    idx = np.asarray(idx, dtype=np.int64)
    bits = np.empty(idx.shape + (n,), dtype=np.int8)
    # one coordinate at a time: a (k, n) int64 temporary would be 8x the result
    for i in range(n):
        bits[..., i] = (idx >> i) & 1
    bits *= 2
    bits -= 1
    return bits


# ---------------------------------------------------------------------------
# restrictions

# coordinates a Restriction accepts lie below this, far past every n the
# package can use (dense tables stop at 20, the sample pool at 64), so that
# building its mask never costs memory in proportion to a huge coordinate
_MAX_COORD = 1 << 16


@dataclass(frozen=True, eq=False)
class Restriction:
    """A partial assignment of coordinates to signs; names a subcube.

    `pairs` holds (coordinate, sign) with distinct coordinates, in the
    order given, which repr and path-ordered callers read.  Two ints,
    computed once here, name the subcube in the dense-table index
    convention: `mask` has bit i set when coordinate i is fixed and
    `bits` when it is fixed to +1, so index k lies in the subcube exactly
    when k & mask == bits.  Equality and hashing use them alone.
    """

    pairs: tuple = ()

    def __post_init__(self):
        mask = bits = 0
        for i, b in self.pairs:
            if i < 0:
                raise ValueError(f"negative coordinate {i}")
            if i >= _MAX_COORD:
                raise ValueError(f"coordinate {i} out of range: must be below 2^16")
            if b not in (-1, 1):
                raise ValueError(f"sign must be -1 or +1, got {b}")
            if mask >> i & 1:
                raise ValueError(f"repeated coordinate in restriction {self.pairs}")
            mask |= 1 << i
            bits |= (b > 0) << i
        self.__dict__.update(mask=mask, bits=bits)  # frozen: bypass __setattr__

    def __eq__(self, other):
        return (isinstance(other, Restriction)
                and self.mask == other.mask and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.mask, self.bits))

    @classmethod
    def _of(cls, pairs: tuple, mask: int, bits: int) -> "Restriction":
        """Unchecked: the caller vouches that mask and bits are those of
        pairs, a valid tuple, as when it extends a checked restriction by
        one of its free coordinates."""
        s = object.__new__(cls)
        s.__dict__.update(pairs=pairs, mask=mask, bits=bits)
        return s

    @classmethod
    def empty(cls) -> "Restriction":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "Restriction":
        """Build from (coord, sign) pairs or a single {coord: sign} mapping."""
        if len(pairs) == 1 and isinstance(pairs[0], dict):
            pairs = tuple(pairs[0].items())
        return cls(tuple((int(i), int(b)) for i, b in pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def check(self, n: int):
        """Raise DimensionMismatchError unless every coordinate is below n."""
        if self.mask >> n:
            i = self.mask.bit_length() - 1
            raise DimensionMismatchError(f"restriction coordinate {i} out of range for n={n}")

    def coords(self) -> tuple:
        return tuple(i for i, _ in self.pairs)

    def free_coords(self, n: int) -> list:
        self.check(n)
        return [i for i in range(n) if not self.mask >> i & 1]

    def consistent_mask(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask over the rows of X that lie in the subcube."""
        self.check(X.shape[1])
        mask = np.ones(X.shape[0], dtype=bool)
        for i, b in self.pairs:
            mask &= X[:, i] == b
        return mask

    def __str__(self) -> str:
        if not self.pairs:
            return "(empty)"
        return ",".join(f"{i}={'+1' if b > 0 else '-1'}" for i, b in sorted(self.pairs))

    @classmethod
    def parse(cls, text: str) -> "Restriction":
        """Parse "0=+1,3=-1" (empty string means the full cube)."""
        text = text.strip()
        if not text or text == "(empty)":
            return cls.empty()
        pairs = []
        for part in text.split(","):
            i, _, b = part.partition("=")
            pairs.append((int(i), int(b)))
        return cls.of(*pairs)


EMPTY = Restriction.empty()


# ---------------------------------------------------------------------------
# decision-tree distributions


@dataclass(frozen=True)
class Leaf:
    density: float


@dataclass(frozen=True)
class Internal:
    var: int
    lo: Union["Internal", Leaf]  # branch taken when x[var] == -1
    hi: Union["Internal", Leaf]


Node = Union[Internal, Leaf]


def _node_to_json(node: Node, key: str, leaf) -> dict:
    """JSON form of the tree below node: {key: leaf(l)} for each Leaf l,
    called in preorder, and {"var", "lo", "hi"} for each Internal."""
    if isinstance(node, Leaf):
        return {key: leaf(node)}
    return {"var": int(node.var), "lo": _node_to_json(node.lo, key, leaf),
            "hi": _node_to_json(node.hi, key, leaf)}


def _node_from_json(d: dict, key: str, leaf) -> Node:
    """Inverts _node_to_json: leaf(d[key]) builds the node of each dict
    that holds key, called in preorder."""
    if key in d:
        return leaf(d[key])
    return Internal(d["var"], _node_from_json(d["lo"], key, leaf),
                    _node_from_json(d["hi"], key, leaf))


def _density_leaf(v) -> Leaf:
    if type(v) not in (int, float):
        raise InvalidTreeError(f"leaf density {v!r} is not a number")
    return Leaf(float(v))


def _nonneg_int(value, what: str, error) -> int:
    """value as an int; raises error for a bool, a non-integer or a negative."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise error(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def _random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """rng.integers(0, 2, size=shape, dtype=np.int8), bit for bit, drawn
    four to a 32-bit word.

    numpy draws a bounded int8 by Lemire's multiply-shift on one byte of a
    buffered next_uint32 word, low byte first: for the range 2 the value
    is (byte * 2) >> 8 and the rejection threshold (255 - 1) % 2 is 0, so
    each bit is the top bit of its byte.  Reading those bytes from
    ceil(N / 4) full-range uint32 draws (N the product of shape) gives the
    same bits from the same ceil(N / 4) next_uint32 calls, so the
    generator, a half-word that PCG64 holds over included, is left in the
    same state as the int8 draw leaves it.
    """
    size = math.prod(shape)
    words = rng.integers(0, 1 << 32, size=-(-size // 4), dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)
    bits >>= 7
    return bits[:size].view(np.int8).reshape(shape)


def _children(flat, j, rows, hi_sel) -> list:
    """(child, rows) for the children of internal node j of a flattened
    tree that receive rows, lo first so that a stack pops hi first; rows
    None stands for every row, hi_sel is the mask over rows taking hi."""
    out = []
    for child, sel in ((flat["lo"][j], ~hi_sel), (flat["hi"][j], hi_sel)):
        pos = np.flatnonzero(sel)
        if pos.size:
            out.append((child, pos if rows is None else rows[pos]))
    return out


class DistTree:
    """Depth-d decision tree computing a pmf on {-1,+1}^n.

    A point's probability is the density at the leaf its path reaches;
    conditioned on a leaf, the distribution is uniform on the leaf's
    subcube.  Valid trees never repeat a split variable along a path and
    satisfy sum over leaves of 2^(n-|path|) * density = 1 within 1e-9,
    with every density finite.  Treat instances as immutable.
    """

    def __init__(self, n: int, root: Node):
        self.n = _nonneg_int(n, "tree n", InvalidTreeError)
        self.root = root
        self._flat = None  # lazy: parallel arrays for vectorized descent
        self._depth = 0  # deepest leaf, recorded by the validation walk
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        """One preorder walk, lo before hi, so the leaf masses sum in tree
        order; a path's variables are kept as a bit mask."""
        n, total = self.n, 0.0
        todo = [(self.root, 0, 0)]  # node, path variables' mask, path length
        while todo:
            node, path, length = todo.pop()
            if isinstance(node, Leaf):
                if not -1e-12 <= node.density < math.inf:
                    raise InvalidTreeError(f"leaf density {node.density} is negative or not finite")
                total += node.density * 2.0 ** (n - length)
                self._depth = max(self._depth, length)
                continue
            var = _nonneg_int(node.var, "split variable", InvalidTreeError)
            if var >= n:
                raise InvalidTreeError(f"split variable {var} out of range")
            if path >> var & 1:
                raise InvalidTreeError(f"variable {var} repeated on a path")
            path |= 1 << var
            todo += ((node.hi, path, length + 1), (node.lo, path, length + 1))
        if not abs(total - 1.0) <= ATOL:
            raise InvalidTreeError(f"leaf masses sum to {total!r}, not 1")

    def depth(self) -> int:
        return self._depth

    def leaves(self) -> list:
        """Preorder list of (Restriction, density) over the leaves."""
        return list(self._flatten()["leaves"])

    def _flatten(self):
        """One preorder walk, on first use: arrays var (-1 at leaves), child
        indices (a leaf is its own child) and density per node, and
        "leaves", each leaf's (Restriction, density) in preorder, unchecked
        as the validation walk proved each path's variables distinct in [0, n).

        Children always carry a larger index than their parent, so a single
        reversed pass computes bottom-up aggregates.
        """
        if self._flat is not None:
            return self._flat
        var, lo, hi, density, leaves = [], [], [], [], []
        # node, its path as (pairs, mask, bits), and for a hi child its
        # parent's index; a lo child is the node right after its parent
        todo = [(self.root, (), 0, 0, None)]
        while todo:
            node, pairs, mask, bits, parent = todo.pop()
            j = len(var)
            if parent is not None:
                hi[parent] = j
            leaf = isinstance(node, Leaf)
            var.append(-1 if leaf else node.var)
            lo.append(j if leaf else j + 1)
            hi.append(j)
            density.append(node.density if leaf else 0.0)
            if leaf:
                leaves.append((Restriction._of(pairs, mask, bits), node.density))
                continue
            i = int(node.var)
            todo += ((node.hi, pairs + ((i, 1),), mask | 1 << i, bits | 1 << i, j),
                     (node.lo, pairs + ((i, -1),), mask | 1 << i, bits, None))
        self._flat = {
            "var": np.array(var, dtype=np.int64),
            "lo": np.array(lo, dtype=np.int64),
            "hi": np.array(hi, dtype=np.int64),
            "density": np.array(density, dtype=np.float64),
            "leaves": leaves,
        }
        return self._flat

    def conditional_masses(self, s: Restriction) -> np.ndarray:
        """Per-node mass of (subtree cell) intersect (subcube s).

        Entry j is Pr[x in subtree j and x consistent with s] when leaf
        densities are interpreted as probabilities; with s empty this is
        the plain subtree-mass table used by sampling.  A fresh array on
        every call.  Raises DimensionMismatchError for a coordinate of s
        outside [0, n).
        """
        s.check(self.n)
        f = self._flatten()
        out = np.zeros(len(f["var"]), dtype=np.float64)
        # a leaf's cell meets s in 2^(n - |path and s together|) points, or none
        for j, (r, density) in zip(np.flatnonzero(f["var"] < 0), f["leaves"]):
            if not (r.bits ^ s.bits) & r.mask & s.mask:
                out[j] = density * 2.0 ** (self.n - (r.mask | s.mask).bit_count())
        for j in range(len(out) - 1, -1, -1):  # children follow their parent
            if f["var"][j] >= 0:
                out[j] = out[f["lo"][j]] + out[f["hi"][j]]
        return out

    # -- evaluation ---------------------------------------------------------

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Preorder node id of the leaf each row of X reaches.

        The rows are partitioned down the tree depth first, as the tree
        sampler draws them: one read of the split's column per internal
        node that some row reaches, a plain column at the root and a
        gather of the node's rows below it.
        """
        if X.shape[1] != self.n:
            raise DimensionMismatchError(f"points have {X.shape[1]} coords, tree has {self.n}")
        f = self._flatten()
        node = np.empty(X.shape[0], dtype=np.int64)
        todo = [(0, None)]  # None stands for every row
        while todo:
            j, rows = todo.pop()
            at = slice(None) if rows is None else rows
            v = f["var"][j]
            if v < 0:
                node[at] = j
                continue
            todo += _children(f, j, rows, X[at, v] > 0)
        return node

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """pmf at each row of X."""
        return self._flatten()["density"][self._route(X)]

    def leaf_index_batch(self, X: np.ndarray) -> np.ndarray:
        """Preorder leaf ordinal each row of X routes to."""
        leaf_ord = np.cumsum(self._flatten()["var"] < 0) - 1  # ordinal among leaves
        return leaf_ord[self._route(X)]

    def _leaf_rows(self, X: np.ndarray):
        """Yields the rows of X that route to each leaf, in preorder."""
        ords = self.leaf_index_batch(X)
        for j in range(len(self._flatten()["leaves"])):
            yield np.flatnonzero(ords == j)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "root": _node_to_json(self.root, "leaf", lambda x: float(x.density))}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DistTree":
        return cls(obj["n"], _node_from_json(obj["root"], "leaf", _density_leaf))

    def __eq__(self, other):
        return (
            isinstance(other, DistTree)
            and self.n == other.n
            and self.to_json_dict() == other.to_json_dict()
        )


def uniform_tree(n: int) -> DistTree:
    return DistTree(n, Leaf(2.0 ** -n))


# ---------------------------------------------------------------------------
# dense pmfs


class DensePmf:
    """Explicit pmf table over 2^n points (n <= 20).

    table[k] is the probability of the point whose index is k.
    """

    def __init__(self, n: int, table, validate: bool = True):
        n = self.n = _nonneg_int(n, "dense n", InvalidPmfError)
        if n > MAX_DENSE_N:
            raise InvalidPmfError(f"dense representation capped at n={MAX_DENSE_N}, got {n}")
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.shape != (1 << n,):
            raise DimensionMismatchError(
                f"table has shape {self.table.shape}, expected ({1 << n},)"
            )
        if validate:
            if not self.table.min() >= -1e-12:
                raise InvalidPmfError(f"probability {self.table.min()} is negative or NaN")
            total = float(self.table.sum())
            if not abs(total - 1.0) <= ATOL:
                raise InvalidPmfError(f"probabilities sum to {total!r}, not 1")

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.n:
            raise DimensionMismatchError(f"points have {X.shape[1]} coords, pmf has {self.n}")
        return self.table[points_to_indices(X)]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "table": [float(v) for v in self.table]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DensePmf":
        """Refuses a table entry that is not an int or a float (a bool or a
        numeric string included), which np.array would convert."""
        table = obj["table"]
        if not set(map(type, table)) <= {int, float}:
            raise InvalidPmfError("table entries must be numbers")
        return cls(obj["n"], np.array(table, dtype=np.float64))


def uniform_dense(n: int) -> DensePmf:
    return DensePmf(n, np.full(1 << n, 2.0 ** -n))


Dist = Union[DistTree, DensePmf]


# ---------------------------------------------------------------------------
# shared operations


def weighting_table(dist: Dist) -> np.ndarray:
    """Full table of the weighting 2^n * pmf over all points, indexed like
    DensePmf; it averages to exactly 1 over a uniform point."""
    d = _dense(dist)
    return d.table * (2.0 ** d.n)


def tv_distance(a: DensePmf, b: DensePmf) -> float:
    """Total variation distance, (1/2) * l1 between the tables."""
    if a.n != b.n:
        raise DimensionMismatchError(f"n mismatch: {a.n} vs {b.n}")
    return 0.5 * float(np.abs(a.table - b.table).sum())


def slice_cube(table: np.ndarray, s: Restriction) -> np.ndarray:
    """View of table on the subcube s, shaped [2] * (n - |s|) + table.shape[1:].

    table is any array whose first axis has 2^n entries in the dense-table
    index order: a DensePmf's table, or all_points(n), whose points then
    keep their trailing axis.  Axis a indexes the free coordinate
    free[m-1-a], where free lists the unrestricted coordinates in
    increasing order, so the C-order flatten of the subcube axes lists its
    cells by increasing index, the indices k with k & s.mask == s.bits.
    The index ends in an Ellipsis, so a full restriction still gives a
    view, not a scalar.
    Raises DimensionMismatchError for a coordinate outside [0, n).
    """
    n = table.shape[0].bit_length() - 1
    s.check(n)
    idx = [slice(None)] * n
    for i, b in s.pairs:
        idx[n - 1 - i] = (b + 1) // 2
    idx.append(Ellipsis)
    return table.reshape((2,) * n + table.shape[1:])[tuple(idx)]


def restrict_dist(d: DensePmf, s: Restriction):
    """Conditional distribution on the subcube s.

    Returns (DensePmf over the free coordinates in increasing original
    order, subcube weight).  Raises ZeroWeightSubcubeError on mass 0.
    """
    sub = slice_cube(d.table, s).reshape(-1)
    w = float(sub.sum())
    if w <= 0.0:
        raise ZeroWeightSubcubeError(f"subcube {s} has zero mass")
    m = d.n - len(s)
    return DensePmf(m, sub / w, validate=False), w


def subcube_weight(d: DensePmf, s: Restriction) -> float:
    """Pr_D[x in s]."""
    return float(slice_cube(d.table, s).sum())


def tree_to_dense(t: DistTree) -> DensePmf:
    """Materialize the tree's pmf table (n <= 20)."""
    if t.n > MAX_DENSE_N:
        raise InvalidPmfError(f"dense representation capped at n={MAX_DENSE_N}")
    table = np.empty(1 << t.n, dtype=np.float64)
    for r, density in t.leaves():
        slice_cube(table, r)[...] = density
    return DensePmf(t.n, table)


def _dense(dist: Dist) -> DensePmf:
    return dist if isinstance(dist, DensePmf) else tree_to_dense(dist)


def dense_to_tree(d: DensePmf) -> DistTree:
    """Minimal exact tree by greedy recursive splitting.

    Recurses on restrictions, reading each subcube through slice_cube: it
    splits on the smallest free coordinate whose two halves differ and
    emits a leaf, valued at the subcube's first cell, once the subcube is
    constant.  Reproduces the pmf exactly; the resulting depth is an exact
    cover, not necessarily the minimum decision-tree depth.
    """
    return DistTree(d.n, _dense_node(d, EMPTY))


def _dense_node(d: DensePmf, s: Restriction) -> Node:
    sub = slice_cube(d.table, s)
    if not sub.max() - sub.min() <= 0.0:
        for i in s.free_coords(d.n):
            lo, hi = (Restriction(s.pairs + ((i, b),)) for b in (-1, 1))
            if not np.array_equal(slice_cube(d.table, lo), slice_cube(d.table, hi)):
                return Internal(i, _dense_node(d, lo), _dense_node(d, hi))
    return Leaf(float(sub.flat[0]))


# ---------------------------------------------------------------------------
# oracle access


class OracleMode(IntEnum):
    """Access levels; a stronger mode grants every weaker mode's queries."""

    SAMPLE = 1
    SUBCUBE_SAMPLE = 2
    EXACT_PMF = 3


# a fresh oracle's query_count, copied: iterating the enum costs more
_NO_QUERIES = dict.fromkeys(OracleMode, 0)

# uniforms per pass of _inverse_cdf: one _INDEX_BLOCK, so that each chunk's
# temporaries stay below the 128 KB at which glibc maps (and unmaps) a block
_DRAW_CHUNK = _INDEX_BLOCK


def _cdf_guide(p: np.ndarray) -> tuple:
    """(cdf, G, lo, amb): the cdf rng.choice(p.size, k, p=p) inverts, and a
    guide table over G = 2^g equal buckets of [0, 1) (Chen-Asau indexed
    search).  cdf = p.cumsum() / cdf[-1], as rng.choice builds it;
    lo[b] counts the cdf entries <= b/G, hi[b] those < (b+1)/G, and
    amb[b] = lo[b] != hi[b].  With g = bit_length(p.size) + 3, capped at
    16, at most 1/8 of [0, 1) is ambiguous for p.size < 2^13; the guide
    is 9 bytes a bucket, 576 KB at the cap."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    G = 1 << min(p.size.bit_length() + 3, 16)
    edges = np.arange(G + 1) / G
    lo = cdf.searchsorted(edges[:-1], "right")
    amb = lo != cdf.searchsorted(edges[1:], "left")
    return cdf, G, lo, amb


def _inverse_cdf(rng: np.random.Generator, guide: tuple, k: int, rows: np.ndarray) -> np.ndarray:
    """rows[j] for k indices j drawn from the pmf p that guide =
    _cdf_guide(p) was built from, stacked into one (k, ...) array.  The
    indices equal rng.choice(p.size, k, p=p) index for index, and rng is
    left in the same state.

    rng.choice inverts the cdf at rng.random(k), one binary search per
    draw: searchsorted(cdf, u, "right").  Here the bucket of u is
    b = floor(u * G), exact since G is a power of two, and
    lo[b] <= j <= hi[b], so where the two agree the index is lo[b]; only
    draws in ambiguous buckets, which number at most p.size, are
    searched.  The uniforms come in chunks of _DRAW_CHUNK, which read the
    same doubles as one rng.random(k), and each chunk's rows are gathered
    straight into the result: the transient memory beside it is
    O(_DRAW_CHUNK + G + p.size), and no k-long index array exists.
    """
    cdf, G, lo, amb = guide
    out = np.empty((k,) + rows.shape[1:], dtype=rows.dtype)
    for start in range(0, k, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, k - start))
        b = (u * G).astype(np.intp)
        pick = lo[b]
        hard = amb[b]
        pick[hard] = cdf.searchsorted(u[hard], "right")
        np.take(rows, pick, axis=0, out=out[start:start + u.size])
    return out


class DistOracle:
    """Query interface to an unknown distribution.

    backing: a DistTree, a DensePmf, or a callable `(k, rng) -> (k, n)
    int8 array` standing in for an external sample stream.  The mode caps
    what callers may ask for regardless of what the backing could answer;
    `query_count[mode]` tallies points drawn (or pmf evaluations) per mode.
    A stream backing grants SAMPLE only: conditioning its draws by
    rejection costs about 1/Pr[subcube] draws per point, about 2^(n-1)
    for a two-point pair, which subcube-conditioning access exists to
    avoid.  Sample-only callers filter sample_batch with reject_sample.
    """

    def __init__(self, backing, mode: OracleMode, seed: int = 0, n: Optional[int] = None):
        self.backing = backing
        self.mode = OracleMode(mode)
        self.seed = int(seed)
        if isinstance(backing, (DistTree, DensePmf)):
            self.n = backing.n
        else:
            if n is None:
                raise DimensionMismatchError("stream backing requires explicit n")
            if self.mode > OracleMode.SAMPLE:
                raise OracleModeError(f"a stream backing grants SAMPLE only, not {self.mode.name}")
            self.n = int(n)
        self._rng = None
        self.query_count = _NO_QUERIES.copy()
        self._clamped_table = None
        self._plain_guide = None

    @property
    def rng(self) -> np.random.Generator:
        """stream(seed, "oracle"), built on first use: an exact oracle
        never draws, and seeding PCG64 costs more than the rest of the
        constructor."""
        if self._rng is None:
            self._rng = stream(self.seed, "oracle")
        return self._rng

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, dist: Dist, seed: int = 0) -> "DistOracle":
        return cls(dist, OracleMode.EXACT_PMF, seed)

    @classmethod
    def subcube(cls, dist: Dist, seed: int = 0) -> "DistOracle":
        return cls(dist, OracleMode.SUBCUBE_SAMPLE, seed)

    @classmethod
    def sampler(cls, dist, seed: int = 0, n: Optional[int] = None) -> "DistOracle":
        return cls(dist, OracleMode.SAMPLE, seed, n)

    def _require(self, needed: OracleMode):
        if self.mode < needed:
            raise OracleModeError(f"mode {self.mode.name} does not grant {needed.name}")

    # -- plain samples --------------------------------------------------------

    def sample_batch(self, k: int) -> np.ndarray:
        self._require(OracleMode.SAMPLE)
        self.query_count[OracleMode.SAMPLE] += k
        return self._draw(EMPTY, k)

    def sample_slices(self, k: int, rows: int):
        """k plain draws, yielded as consecutive batches of at most `rows`:
        the same rows, query_count and generator state as one
        sample_batch(k).  A dense backing reads one double per draw and
        nothing else from the stream, so each slice is its own
        sample_batch and only one is alive at a time.  Any other backing
        draws all k at once and yields views: the tree sampler reads every
        bit of a batch before any node's uniforms, and a stream may read
        its generator in any pattern."""
        if isinstance(self.backing, DensePmf):
            for lo in range(0, k, rows):
                yield self.sample_batch(min(rows, k - lo))
            return
        X = self.sample_batch(k)
        for lo in range(0, k, rows):
            yield X[lo:lo + rows]

    # -- subcube-conditioned samples -------------------------------------------

    def subcube_sample_batch(self, s: Restriction, k: int) -> np.ndarray:
        self._require(OracleMode.SUBCUBE_SAMPLE)
        self.query_count[OracleMode.SUBCUBE_SAMPLE] += k
        return self._draw(s, k)

    def two_point_fraction_batch(self, X: np.ndarray, coords, k: int) -> np.ndarray:
        """(len(coords), rows) array: entry [pos, r] is the fraction equal
        to x = X[r] of k draws conditioned on the pair {x, x with
        coordinate coords[pos] flipped}.  Counts rows*k subcube queries
        per coordinate.

        On the pair the draws are Bernoulli(D(x) / (D(x) + D(x^i))), so a
        tree or dense backing draws each count binomially: D(x) from one
        eval_batch, the partner as _clamped()[idx ^ (1 << i)] from one
        index pass (a tree above MAX_DENSE_N evaluates a flipped copy of
        X instead).
        """
        self._require(OracleMode.SUBCUBE_SAMPLE)
        rows = X.shape[0]
        out = np.empty((len(coords), rows), dtype=np.float64)
        px = np.maximum(self.backing.eval_batch(X), 0.0)
        indexed = self.n <= MAX_DENSE_N
        if indexed:
            table, idx = self._clamped(), points_to_indices(X)
        for pos, i in enumerate(coords):
            self.query_count[OracleMode.SUBCUBE_SAMPLE] += rows * k
            if indexed:
                pf = table[idx ^ (1 << i)]
            else:
                Xf = np.array(X, copy=True)
                Xf[:, i] *= -1
                pf = np.maximum(self.backing.eval_batch(Xf), 0.0)
            tot = px + pf
            if np.any(tot <= 0.0):
                raise ZeroWeightSubcubeError("two-point subcube has zero mass")
            out[pos] = self.rng.binomial(k, px / tot) / float(k)
        return out

    # -- exact pmf ---------------------------------------------------------------

    def pmf_batch(self, X: np.ndarray) -> np.ndarray:
        self._require(OracleMode.EXACT_PMF)
        self.query_count[OracleMode.EXACT_PMF] += X.shape[0]
        return self.backing.eval_batch(X)

    def dense(self) -> DensePmf:
        """Full table (EXACT_PMF mode only) by _dense, a tree's built afresh on every call."""
        self._require(OracleMode.EXACT_PMF)
        return _dense(self.backing)

    def _clamped(self) -> np.ndarray:
        """The table clamped at 0, built once.  Validation lets entries down
        to -1e-12 through, which rng.binomial rejects and which would make
        the cdf that _inverse_cdf searches non-monotone; valid tables are
        unchanged, as nothing is renormalized."""
        if self._clamped_table is None:
            self._clamped_table = np.maximum(_dense(self.backing).table, 0.0)
        return self._clamped_table

    # -- internals -----------------------------------------------------------------

    def _draw(self, s: Restriction, k: int) -> np.ndarray:
        s.check(self.n)
        if isinstance(self.backing, DistTree):
            return self._draw_tree(s, k)
        if isinstance(self.backing, DensePmf):
            return self._draw_dense(s, k)
        got = np.asarray(self.backing(k, self.rng))
        if got.shape != (k, self.n):
            raise DimensionMismatchError(f"stream returned shape {got.shape}")
        if not ((got == 1) | (got == -1)).all():
            raise ValueError("stream point entries must be -1 or +1")
        return got.astype(np.int8, copy=False)

    def _draw_tree(self, s: Restriction, k: int) -> np.ndarray:
        """k points of the tree conditioned on s.  Every coordinate starts
        as a uniform sign from _random_bits (the same bits as one (k, n)
        rng.integers(0, 2) int8 draw, four to a 32-bit word); s's pairs
        are written over them, then each free split, top down, sends its
        rows to a child by one uniform per row and writes its column."""
        t: DistTree = self.backing
        cm = t.conditional_masses(s)
        if cm[0] <= 0.0:
            raise ZeroWeightSubcubeError(f"subcube {s} has zero mass")
        f = t._flatten()
        X = _random_bits(self.rng, (k, self.n))
        X *= 2
        X -= 1
        for i, b in s.pairs:
            X[:, i] = b
        todo = [(0, None)]  # None stands for every row
        while todo:
            j, rows = todo.pop()
            v = int(f["var"][j])
            if v < 0:
                continue
            if s.mask >> v & 1:
                child = f["hi"][j] if s.bits >> v & 1 else f["lo"][j]
                todo.append((child, rows))
                continue
            mlo, mhi = cm[f["lo"][j]], cm[f["hi"][j]]
            p_hi = mhi / (mlo + mhi)
            hi_sel = self.rng.random(k if rows is None else rows.size) < p_hi
            kids = _children(f, j, rows, hi_sel)
            # the split's column, written through the child row lists as
            # two constant scatters into a view of the column (node ids
            # are distinct, so the child names the side)
            col = X[:, v]
            for child, sub in kids:
                col[sub] = 1 if child == f["hi"][j] else -1
            todo += kids
        return X

    def _draw_dense(self, s: Restriction, k: int) -> np.ndarray:
        """k points of the table conditioned on s, inverted from its cdf
        (over the subcube's cells, in index order, weights sub / w) by
        _inverse_cdf: the same indices and stream position as
        rng.choice(size, k, p=...), from one guide-table lookup per draw
        and a chunked read of the uniforms.  slice_cube reads the
        subcube's cells from the table and its point rows from
        all_points(n), both by increasing index, and each chunk's picks
        are gathered from those rows straight into the (k, n) int8
        result, so no index array of length k is built.  The plain draws'
        guide is built once per oracle, a subcube's per call."""
        table, pts = self._clamped(), all_points(self.n)
        if len(s) == 0:
            if self._plain_guide is None:
                self._plain_guide = _cdf_guide(table)
            return _inverse_cdf(self.rng, self._plain_guide, k, pts)
        sub = slice_cube(table, s).reshape(-1)
        w = float(sub.sum())
        if w <= 0.0:
            raise ZeroWeightSubcubeError(f"subcube {s} has zero mass")
        guide = _cdf_guide(sub / w)
        del sub  # freed before the subcube's point rows are copied
        return _inverse_cdf(self.rng, guide, k, slice_cube(pts, s).reshape(-1, self.n))


# attempts per accepted point: ceil(REJECTION_CAP_FACTOR / w_hat)
REJECTION_CAP_FACTOR = 64


def reject_sample(draw, s: Restriction, k: int) -> np.ndarray:
    """k points of D conditioned on s, by filtering plain draws.

    draw(b) returns b plain samples as a (b, n) array; the caller decides
    how those draws are counted.  An empty s takes k draws as they come.
    Otherwise batches of at least 4096 are drawn until k points land in
    s.  Total attempts are capped at ceil(REJECTION_CAP_FACTOR / w_hat)
    per accepted point, where w_hat is the Laplace-smoothed running
    acceptance rate floored at a quarter of the subcube's uniform weight;
    the floor keeps the cap finite, so conditioning on a (near-)zero-mass
    subcube raises RejectionCapExceededError instead of looping.
    """
    if len(s) == 0:
        return draw(k)
    w_floor = 2.0 ** -(min(len(s), 58) + 2)
    kept = []
    accepted = 0
    attempted = 0
    while accepted < k:
        w_hat = max((accepted + 1.0) / (attempted + 2.0), w_floor)
        budget = math.ceil(REJECTION_CAP_FACTOR / w_hat) * k
        if attempted >= budget:
            raise RejectionCapExceededError(
                f"rejection cap hit after {attempted} attempts for {accepted}/{k} "
                f"points in subcube {s}"
            )
        batch = int(min(max(4096, k), budget - attempted))
        got = draw(batch)
        attempted += batch
        sub = got[s.consistent_mask(got)]
        if sub.size:
            kept.append(sub)
            accepted += sub.shape[0]
    return np.concatenate(kept, axis=0)[:k]


# ---------------------------------------------------------------------------
# JSON with fixed float formatting


def json_dumps(obj) -> str:
    """Serialize with floats at 17 significant digits (lossless for float64)."""

    def emit(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if bool(v) else "false"
        if isinstance(v, float):
            return format(v, ".17g")
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, np.floating):
            return format(float(v), ".17g")
        if isinstance(v, str):
            return json.dumps(v)
        if v is None:
            return "null"
        if isinstance(v, (list, tuple, np.ndarray)):
            # a flat list of exact floats (a dense table) in one format
            # call; anything else, numpy scalars included, element by element
            if type(v) is list and set(map(type, v)) == {float}:
                return "[" + ("%.17g, " * len(v))[:-2] % tuple(v) + "]"
            return "[" + ", ".join(emit(x) for x in v) + "]"
        if isinstance(v, dict):
            items = ", ".join(f"{json.dumps(str(k))}: {emit(x)}" for k, x in v.items())
            return "{" + items + "}"
        raise TypeError(f"cannot serialize {type(v)}")

    return emit(obj)


def save_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json_dumps(obj))
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
