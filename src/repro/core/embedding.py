"""The locality-preserving data-space embedding (Section 3.4).

The k-dimensional normalized data space is recursively cut by axis-aligned
hyperplanes, cycling through the dimensions; every cut contributes one bit,
so depth-L descent assigns an L-bit code to each point and a hyper-rectangle
to each code.  Records whose codes share a node's code prefix are stored at
that node — data-space locality becomes code-prefix locality, which the
hypercube overlay preserves.

The novelty the paper claims — decoupling the data-space mapping from the
overlay — lives here: the embedding is a property of the *index* (and of
the day's histogram), not of the overlay, so the number of dimensions k is
independent of the hypercube's dimensionality and each index maps onto the
same overlay differently.

Cut positions are produced by a :class:`~repro.core.cuts.EvenCuts` or
:class:`~repro.core.cuts.BalancedCuts` strategy.  Balanced cuts are
memoized per tree node, which makes repeated descents cheap and
guarantees every node derives the identical tree from the identical
histogram.  Even cuts need no tree: every cut on a dimension's k-th level
is a dyadic m/2^k, so a point's code is the bit-interleave of its
quantised coordinates ``floor(x * 2^k)`` (the Z-order curve), and a
code's rectangle, complement cells and a query's prefix follow from the
code bits and the query's quantised corners, all in closed form.
"""

import json
import math
from types import MappingProxyType
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cuts import EvenCuts, strategy_from_wire
from repro.core.histogram import LiveRows
from repro.core.query import NormRect, full_rect
from repro.core.schema import IndexSchema
from repro.overlay.code import Code, intern_code

#: point_codes_batch packs each point's even-cut code into an int64;
#: deeper codes fall back to the scalar per-point path.
_MAX_BATCH_DEPTH = 62

#: Even cuts halve a dimension exactly only while its cut positions are
#: dyadics a float64 holds: past 53 cuts ``(lo + hi) / 2`` rounds, and a
#: descent would hand out regions of zero width.
_MAX_EVEN_CUTS_PER_DIM = 53

#: A cut remembers the live histogram rows it found only if it weighed at
#: least this many itself.  Sets that large shrink down the tree, so they
#: are few, and they are what makes their children's cuts cheap; the first
#: set below the threshold serves its whole subtree.  No cut then weighs
#: more rows than its parent found live, or than this, and the deep
#: majority of tree nodes holds no set at all.
_KEEP_MIN_ROWS = 48

#: Embeddings interned by canonical wire form.  Every node of a cluster
#: installs the *same* index wire form, and cuts are deterministic
#: functions of (schema, strategy) — so all nodes can share one instance
#: and one memoized cut tree.  That matters for balanced cuts: without
#: sharing, each of 1000 nodes re-derives and re-warms its own
#: ~2^depth-leaf tree, and every node's descents stay permanently cold.
#: (Even cuts keep no tree; sharing only saves their plan's tables.)
#: Bounded FIFO: eviction only stops *sharing*, never breaks correctness.
_WIRE_INTERN: Dict[str, "Embedding"] = {}
_WIRE_INTERN_MAX = 256


def _frozen_mapping(value):
    """``json.dumps`` fallback: a wire dict delivered frozen (the ``freeze``
    isolation level's read-only view) keys like the plain dict."""
    if isinstance(value, MappingProxyType):
        return dict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


#: One dimension's share of an even-cut code: the quantiser's scale
#: (2^cuts), its top value (2^cuts - 1), and per byte of the quantised
#: coordinate a table from the byte's values to its bits placed at their
#: code positions.
_DimPlan = Tuple[float, int, List[List[int]]]


def _check_even_depth(dims: int, depth: int) -> None:
    per_dim = -(-depth // dims)
    if per_dim > _MAX_EVEN_CUTS_PER_DIM:
        raise ValueError(
            f"even cuts halve a dimension exactly at most {_MAX_EVEN_CUTS_PER_DIM} "
            f"times; code depth {depth} over {dims} dimensions needs {per_dim}"
        )


def _even_rect(bits: str, dims: int) -> List[Tuple[float, float]]:
    """The even-cut rectangle of code ``bits``, one dyadic interval per dimension.

    A dimension owns every ``dims``-th bit; its ``c`` bits, read as the
    integer ``m``, place it in ``[m / 2^c, (m + 1) / 2^c)``.  Both ends are
    exact below the cut cap (callers check it), so they equal the
    midpoints a walk would draw.
    """
    rect = []
    for dim in range(dims):
        own = bits[dim::dims]
        m, scale = int("0" + own, 2), 1 << len(own)
        rect.append((m / scale, (m + 1) / scale))
    return rect


def _even_plan(dims: int, depth: int) -> Tuple[int, List[_DimPlan]]:
    """How to interleave ``depth`` bits of even-cut code over ``dims`` dimensions.

    Level ``l`` cuts dimension ``l % dims`` for its ``l // dims``-th time,
    so a dimension cut ``b`` times owns every ``dims``-th code bit and
    contributes the ``b`` bits of ``floor(x * 2^b)``, most significant
    first.  Returns the leading 1 bit of the heap-numbered node (as in
    the balanced cut tree) and one :data:`_DimPlan` per dimension.
    """
    _check_even_depth(dims, depth)
    # spread[v]: the bits of byte v, dims positions apart.
    spread = [sum(((v >> i) & 1) << (i * dims) for i in range(8)) for v in range(256)]
    plan = []
    for dim in range(dims):
        cuts = len(range(dim, depth, dims))
        # The coordinate's lowest bit lands on the dimension's last level.
        shift = depth - 1 - dim - (cuts - 1) * dims
        tables = [
            [s << (shift + 8 * byte * dims) for s in spread[: 1 << min(8, cuts - 8 * byte)]]
            for byte in range(-(-cuts // 8))
        ]
        plan.append((float(1 << cuts), (1 << cuts) - 1, tables))
    return 1 << depth, plan


class Embedding:
    """Maps points and rectangles of one index to codes, and back."""

    def __init__(self, schema: IndexSchema, strategy, code_depth: int = 16) -> None:
        if code_depth < 1:
            raise ValueError("code_depth must be >= 1")
        self.schema = schema
        self.strategy = strategy
        self.code_depth = code_depth
        self._dims = schema.dimensions
        #: Even cuts: the closed-form code plan for ``code_depth``
        #: (:func:`_even_plan`).  ``None`` for balanced cuts.
        self._plan = (
            _even_plan(self._dims, code_depth) if isinstance(strategy, EvenCuts) else None
        )
        #: Balanced cuts: the cut tree, cut position by tree node.  Nodes
        #: are numbered as in a binary heap — the root is 1, node ``n`` has
        #: children ``2n`` and ``2n + 1`` — so a node's number is its code
        #: prefix behind a leading 1 bit, and the per-record descent is one
        #: int-keyed lookup, one comparison and one shift per level.
        self._cuts: Dict[int, float] = {}
        #: The live histogram rows of the nodes that kept them
        #: (``_KEEP_MIN_ROWS``), for cuts below to resume from.
        self._live: Dict[int, LiveRows] = {}

    # ------------------------------------------------------------------
    # Cut access
    # ------------------------------------------------------------------
    def _split(self, node: int, rect: NormRect, dim: int) -> float:
        """The balanced cut along ``dim`` of tree node ``node``, whose
        rectangle is ``rect``, drawn once and memoised.  (Even cuts never
        walk: their codes and rectangles are closed forms.)"""
        split = self._cuts.get(node)
        if split is None:
            live = self._live
            # The nearest ancestor that kept its live rows covers this
            # rectangle's; with none (the root, a preloaded tree) the
            # strategy looks at everything.
            up = node >> 1 if live else 0
            while up and up not in live:
                up >>= 1
            rows = live.get(up)
            split, found = self.strategy.cut(rect, dim, rows)
            # Memo keyed by tree node, bounded by the reachable cuts of a
            # depth-capped trie; entries must never be evicted — every node
            # has to derive identical splits forever.
            self._cuts[node] = split
            if found is not None and (rows is None or len(rows) >= _KEEP_MIN_ROWS):
                # At most one row set per memoised cut.
                live[node] = found
        return split

    @staticmethod
    def _narrow(rect: NormRect, dim: int, split: float, upper: bool) -> NormRect:
        lo, hi = rect[dim]
        new = (split, hi) if upper else (lo, split)
        return rect[:dim] + (new,) + rect[dim + 1 :]

    def _rect(self, bits: str) -> NormRect:
        """Walk ``bits`` down from the root, narrowing the full rectangle."""
        dims = self._dims
        rect = full_rect(dims)
        node = 1
        for level, bit in enumerate(bits):
            dim = level % dims
            upper = bit == "1"
            rect = self._narrow(rect, dim, self._split(node, rect, dim), upper)
            node = (node << 1) | upper
        return rect

    def cut_table(self) -> Dict[str, float]:
        """Every cut drawn so far, keyed by code prefix (``derive_cut_tree``'s form)."""
        return {bin(node)[3:]: split for node, split in self._cuts.items()}

    def preload_splits(self, cuts: Dict[str, float]) -> None:
        """Seed the memoized cut tree (e.g. from ``derive_cut_tree``)."""
        if self._plan is not None:
            raise ValueError("even cuts keep no cut tree to seed")
        for prefix_bits, split in cuts.items():
            self._cuts[int("1" + prefix_bits, 2)] = split

    # ------------------------------------------------------------------
    # Points
    # ------------------------------------------------------------------
    def point_code(self, values: Sequence[float], depth: Optional[int] = None) -> Code:
        """The code of a raw-valued point, descended to ``depth`` bits.

        Even cuts: each coordinate is quantised to its dimension's number
        of cuts and the bits interleaved, a table lookup per byte.  The
        clamp to the top cell covers x = 1.0, which every cut sends upper.

        Balanced cuts: the steady-state descent (every cut already
        memoized — true for all but the first record reaching each tree
        node) is a memo lookup and a comparison per level; rectangles
        exist only on a miss, from where the descent draws the remaining
        cuts.
        """
        point = self.schema.normalize(values)
        plan = self._plan
        if plan is not None:
            if depth is not None and depth != self.code_depth:
                plan = _even_plan(self._dims, depth)
            node, dim_plans = plan
            for x, (scale, top, tables) in zip(point, dim_plans):
                q = int(x * scale)
                if q > top:
                    q = top
                for table in tables:
                    node |= table[q & 255]
                    q >>= 8
            return intern_code(bin(node)[3:])
        depth = self.code_depth if depth is None else depth
        dims = self._dims
        cuts = self._cuts
        node = 1
        level = 0
        while level < depth:
            split = cuts.get(node)
            if split is None:
                break
            node = (node << 1) | (point[level % dims] >= split)
            level += 1
        if level < depth:
            # Misses are suffix-closed (an unseen node's descendants are
            # unseen too): rebuild the rectangle once, then narrow it the
            # rest of the way.
            rect = self._rect(bin(node)[3:])
            while level < depth:
                dim = level % dims
                split = self._split(node, rect, dim)
                upper = point[dim] >= split
                rect = self._narrow(rect, dim, split, upper)
                node = (node << 1) | upper
                level += 1
        # Depth-limited prefixes recur constantly (every record of a
        # region maps to its owner's code); interning skips re-parsing.
        return intern_code(bin(node)[3:])

    def point_codes_batch(self, values, depth: Optional[int] = None) -> List[Code]:
        """Codes for many raw-valued points at once.

        Even cuts: :meth:`point_code`'s quantise-and-interleave, as one
        shift-or per table over the batch's int64 columns.  Balanced cuts,
        and descents deeper than an int64 holds, take :meth:`point_code`
        per point.
        """
        depth = self.code_depth if depth is None else depth
        plan = self._plan
        if plan is None or depth > _MAX_BATCH_DEPTH:
            return [self.point_code(v, depth) for v in values]
        points = self.schema.normalize_batch(values)
        n = points.shape[0]
        if n == 0:
            return []
        if depth == 0:
            return [Code("") for _ in range(n)]
        if depth != self.code_depth:
            plan = _even_plan(self._dims, depth)
        lead, dim_plans = plan
        nodes = np.full(n, lead, dtype=np.int64)
        for column, (scale, top, tables) in zip(points.T, dim_plans):
            q = np.minimum((column * scale).astype(np.int64), top)
            for table in tables:
                nodes |= np.array(table, dtype=np.int64)[q & 255]
                q >>= 8
        return [Code(bin(node)[3:]) for node in nodes.tolist()]

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def region_rect(self, code: Code) -> NormRect:
        """The normalized hyper-rectangle owned by ``code``.

        Even cuts read it off the code's bits (:func:`_even_rect`);
        balanced cuts walk the cut tree.
        """
        if self._plan is not None:
            _check_even_depth(self._dims, len(code))
            return tuple(_even_rect(code.bits, self._dims))
        return self._rect(code.bits)

    def complement_cells(self, own: Code, start: int) -> Iterator[Tuple[Code, NormRect]]:
        """The sibling cell and its rectangle at each level ``start..len(own)-1``.

        Level ``i``'s cell is ``own.prefix(i + 1).flip(i)``: together the
        cells tile what the region ``own.prefix(start)`` holds beyond
        ``own`` (the sub-queries a query splits into at the first abutting
        node).  Each rectangle is the running one, ``own.prefix(i)``'s,
        with the level's dimension narrowed to the other side of its cut.
        Even cuts start from the closed-form rectangle of
        ``own.prefix(start)`` and halve inline, exact below the cut cap;
        balanced cuts walk down ``own``, touching the cuts, and in the
        order, that ``region_rect(cell)`` per cell would.
        """
        bits = own.bits
        dims = self._dims
        if self._plan is not None:
            _check_even_depth(dims, len(bits))
            rect = _even_rect(bits[:start], dims)
            for level in range(start, len(bits)):
                dim = level % dims
                lo, hi = rect[dim]
                mid = (lo + hi) / 2.0
                halves = ((lo, mid), (mid, hi))
                upper = bits[level] == "1"
                rect[dim] = halves[not upper]
                yield intern_code(bits[:level] + ("0" if upper else "1")), tuple(rect)
                rect[dim] = halves[upper]
            return
        rect = self._rect(bits[:start])
        node = int("1" + bits[:start], 2)
        for level in range(start, len(bits)):
            dim = level % dims
            upper = bits[level] == "1"
            split = self._split(node, rect, dim)
            yield (
                intern_code(bits[:level] + ("0" if upper else "1")),
                self._narrow(rect, dim, split, not upper),
            )
            rect = self._narrow(rect, dim, split, upper)
            node = (node << 1) | upper

    def query_prefix(self, query_rect: NormRect, max_depth: Optional[int] = None) -> Code:
        """The longest code whose region fully contains the query rectangle.

        This is the routing target for a query: small queries descend deep
        (often to a single node's region), large queries stop early and get
        split into sub-queries at the first abutting node (Section 3.6).
        A level goes lower when the query ends at or below its cut
        (``q_hi <= split``), else upper when it starts at or above it
        (``q_lo >= split``), and the descent stops where the query
        straddles the cut.

        Even cuts, per dimension of ``N`` cuts: the descent follows
        ``h``, the cell whose scaled interval ``(h, h + 1]`` holds
        ``q_hi * 2^N`` (where ``q_hi <= split`` leads), and stops where
        ``h`` goes upper but ``l = floor(q_lo * 2^N)`` lower: at the first
        bit in which ``l < h`` differ.  The code is ``h``'s bits
        interleaved (the :func:`_even_plan` tables), cut at the earliest
        stop over the dimensions.  Balanced cuts walk the cut tree.
        """
        max_depth = self.code_depth if max_depth is None else max_depth
        dims = self._dims
        plan = self._plan
        if plan is not None:
            if max_depth != self.code_depth:
                plan = _even_plan(dims, max_depth)
            node, dim_plans = plan
            depth = max_depth
            for dim, ((q_lo, q_hi), (scale, top, tables)) in enumerate(zip(query_rect, dim_plans)):
                y = q_hi * scale
                h = top if y >= scale else math.ceil(y) - 1 if y > 0.0 else 0
                x = q_lo * scale
                low = top if x >= scale else int(x) if x > 0.0 else 0
                if low < h:
                    cuts = top.bit_length()
                    stop = (cuts - (low ^ h).bit_length()) * dims + dim
                    if stop < depth:
                        depth = stop
                for table in tables:
                    node |= table[h & 255]
                    h >>= 8
            return intern_code(bin(node)[3 : 3 + depth])
        rect = full_rect(dims)
        node = 1
        for level in range(max_depth):
            dim = level % dims
            split = self._split(node, rect, dim)
            q_lo, q_hi = query_rect[dim]
            if q_hi <= split:
                upper = False
            elif q_lo >= split:
                upper = True
            else:
                break
            rect = self._narrow(rect, dim, split, upper)
            node = (node << 1) | upper
        return intern_code(bin(node)[3:])

    def region_raw_ranges(self, code: Code) -> List[Tuple[float, float]]:
        """The region rectangle in raw attribute units (for local stores)."""
        rect = self.region_rect(code)
        out = []
        for attr, (lo, hi) in zip(self.schema.attributes, rect):
            out.append((attr.denormalize(lo), attr.denormalize(hi)))
        return out

    # ------------------------------------------------------------------
    # Wire form (installed at index creation and daily rebalancing)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict:
        return {
            "schema": self.schema.to_wire(),
            "strategy": self.strategy.to_wire(),
            "code_depth": self.code_depth,
        }

    @classmethod
    def from_wire(cls, data: Dict) -> "Embedding":
        """Reconstruct an embedding, shared across identical wire forms.

        Two installs with the same canonical wire form get the *same*
        instance (and thus one shared, warm cut-tree memo): the cut
        positions are deterministic in the wire content, so sharing is
        observationally identical to rebuilding — minus the per-node
        re-derivation cost.  A wire form delivered frozen keys the same
        instance; one that is not JSON gets a private instance.
        """
        try:
            key = json.dumps(data, sort_keys=True, default=_frozen_mapping)
        except TypeError:
            key = None
        if key is not None:
            shared = _WIRE_INTERN.get(key)
            if shared is not None and type(shared) is cls:
                return shared
        embedding = cls(
            schema=IndexSchema.from_wire(data["schema"]),
            strategy=strategy_from_wire(data["strategy"]),
            code_depth=data["code_depth"],
        )
        if key is not None and type(embedding) is cls:
            if len(_WIRE_INTERN) >= _WIRE_INTERN_MAX:
                _WIRE_INTERN.pop(next(iter(_WIRE_INTERN)))
            _WIRE_INTERN[key] = embedding
        return embedding
