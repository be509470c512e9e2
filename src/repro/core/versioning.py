"""Daily index versions (Section 3.7).

MIND never migrates historical data to rebalance.  Instead each index keeps
*versions*: the histogram collected on day *i* defines the balanced cuts
used to store day *i+1*'s data.  A record's timestamp selects the version
it is stored under, and a query's time interval selects the version(s) it
must consult — "the relevant index versions ... will be evident from the
query itself".
"""

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.embedding import Embedding


class VersionedEmbedding:
    """An ordered set of embeddings, each valid from a point in time."""

    def __init__(self, initial: Embedding) -> None:
        #: (valid_from, embedding), sorted ascending; the first entry covers
        #: all earlier times.
        self._versions: List[Tuple[float, Embedding]] = [(float("-inf"), initial)]

    @property
    def versions(self) -> List[Tuple[float, Embedding]]:
        return list(self._versions)

    def install(self, valid_from: float, embedding: Embedding) -> None:
        """Add a version taking effect at ``valid_from`` (e.g. midnight)."""
        for existing_from, _ in self._versions:
            if existing_from == valid_from:
                raise ValueError(f"version already installed at t={valid_from}")
        self._versions.append((valid_from, embedding))
        self._versions.sort(key=lambda pair: pair[0])

    def for_time(self, t: float) -> Embedding:
        """The embedding in force at time ``t``."""
        chosen = self._versions[0][1]
        for valid_from, embedding in self._versions:
            if valid_from <= t:
                chosen = embedding
            else:
                break
        return chosen

    def version_index_for_time(self, t: float) -> int:
        """Position of the version in force at ``t`` (local bookkeeping).

        Positions are *not* stable across nodes once :meth:`retire_before`
        has run anywhere, so they must never go on the wire — wire
        references are keyed by ``valid_from`` (see
        :meth:`embedding_for_version`).
        """
        chosen = 0
        for i, (valid_from, _) in enumerate(self._versions):
            if valid_from <= t:
                chosen = i
            else:
                break
        return chosen

    def valid_from_for_time(self, t: float) -> float:
        """The ``valid_from`` key of the version in force at ``t``."""
        return self._versions[self.version_index_for_time(t)][0]

    def embedding_for_version(self, valid_from: float) -> Embedding:
        """Resolve a wire version reference (keyed by ``valid_from``).

        An exact key match wins; otherwise — the sender knows a version
        this node already retired, or vice versa — fall back to the
        version in force at that time, which is the closest surviving
        approximation of the referenced cut tree.
        """
        for vf, embedding in self._versions:
            if vf == valid_from:
                return embedding
        return self.for_time(valid_from)

    def segments(
        self, t_lo: Optional[float], t_hi: Optional[float]
    ) -> Iterator[Tuple[float, Embedding, Optional[float], Optional[float]]]:
        """``(valid_from, embedding, lo, hi)`` for each version a query's
        time interval meets, ``None`` for an open end.

        An index without a time dimension is queried under its latest
        version, and an empty interval under the version in force at
        ``t_lo``.  Queries name a version by ``valid_from``: list positions
        diverge across nodes once :meth:`retire_before` has run anywhere.
        """
        versions = self._versions
        if versions[-1][1].schema.time_dimension() is None:
            yield (*versions[-1], t_lo, t_hi)
            return
        lo = float("-inf") if t_lo is None else t_lo
        hi = float("inf") if t_hi is None else t_hi
        met = False
        for i, (valid_from, embedding) in enumerate(versions):
            valid_to = versions[i + 1][0] if i + 1 < len(versions) else float("inf")
            seg_lo = max(lo, valid_from)
            seg_hi = min(hi, valid_to)
            if seg_lo < seg_hi:
                met = True
                yield (
                    valid_from,
                    embedding,
                    None if seg_lo == float("-inf") else seg_lo,
                    None if seg_hi == float("inf") else seg_hi,
                )
        if not met:
            yield (*versions[self.version_index_for_time(lo)], t_lo, t_hi)

    def latest(self) -> Embedding:
        return self._versions[-1][1]

    def retire_before(self, cutoff: float) -> int:
        """Drop versions wholly superseded before ``cutoff``.

        A version is droppable when the *next* version took effect at or
        before the cutoff (so no record or query with time >= cutoff can
        select it).  The newest version is always kept.  Returns how many
        versions were removed — the "version storage management" the paper
        defers to future work.
        """
        removed = 0
        while len(self._versions) > 1 and self._versions[1][0] <= cutoff:
            self._versions.pop(0)
            removed += 1
        return removed

    def to_wire(self) -> List[Dict]:
        return [
            {"valid_from": valid_from, "embedding": emb.to_wire()}
            for valid_from, emb in self._versions
        ]

    @classmethod
    def from_wire(cls, data: List[Dict]) -> "VersionedEmbedding":
        if not data:
            raise ValueError("empty version list")
        seen = set()
        for entry in data:
            valid_from = entry["valid_from"]
            if valid_from in seen:
                # install() rejects duplicate valid_from keys; a wire list
                # must obey the same invariant or replicas of the version
                # map diverge on which embedding a key resolves to.
                raise ValueError(f"duplicate version valid_from={valid_from} on the wire")
            seen.add(valid_from)
        first = Embedding.from_wire(data[0]["embedding"])
        versioned = cls(first)
        versioned._versions = [(d["valid_from"], Embedding.from_wire(d["embedding"])) for d in data]
        versioned._versions.sort(key=lambda pair: pair[0])
        return versioned
