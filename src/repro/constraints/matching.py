"""Incremental maximum bipartite matching (paper section 4.2).

The Central Client models the relation between template rows T and
probable rows P as a bipartite graph G with an edge (t, p) whenever
p ⊇* t.  The Probable Rows Invariant holds exactly when a maximum
matching of G has |T| edges.  After each change to P, the matching is
repaired incrementally: a template row that becomes free starts a BFS
for an augmenting path (alternating unmatched/matched edges ending at a
free probable row); by Berge's theorem, finding one restores maximality
one edge at a time.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, Sequence


class IncrementalMatching:
    """A maintained matching between left (template) and right (probable) nodes.

    Left nodes are template-row labels; right nodes are probable-row
    identifiers.  The structure is generic over hashable node names.
    """

    def __init__(self, left_nodes: Iterable[Hashable] = ()) -> None:
        self._left: set[Hashable] = set(left_nodes)
        self._right: set[Hashable] = set()
        self._edges: dict[Hashable, set[Hashable]] = {l: set() for l in self._left}
        self._match_of_left: dict[Hashable, Hashable] = {}
        self._match_of_right: dict[Hashable, Hashable] = {}
        self._free_lefts: set[Hashable] = set(self._left)
        #: Successful augmenting-path flips over this matching's lifetime.
        self.augment_count = 0

    # -- structure ------------------------------------------------------------

    @property
    def left_nodes(self) -> frozenset:
        return frozenset(self._left)

    @property
    def right_nodes(self) -> frozenset:
        return frozenset(self._right)

    def add_left(self, left: Hashable, neighbors: Iterable[Hashable] = ()) -> None:
        """Add a template row with edges to existing right nodes."""
        if left in self._left:
            raise ValueError(f"left node already present: {left!r}")
        self._left.add(left)
        self._free_lefts.add(left)
        self._edges[left] = set()
        for right in neighbors:
            self.add_edge(left, right)

    def remove_left(self, left: Hashable) -> None:
        """Remove a template row (e.g. the drop-template-row fallback)."""
        if left not in self._left:
            return
        matched = self._match_of_left.pop(left, None)
        if matched is not None:
            del self._match_of_right[matched]
        self._left.discard(left)
        self._free_lefts.discard(left)
        self._edges.pop(left, None)

    def add_right(self, right: Hashable, neighbor_lefts: Iterable[Hashable]) -> None:
        """A row became probable: add it with its template-row edges."""
        if right in self._right:
            raise ValueError(f"right node already present: {right!r}")
        self._right.add(right)
        for left in neighbor_lefts:
            if left in self._left:
                self._edges[left].add(right)

    def remove_right(self, right: Hashable) -> list[Hashable]:
        """A row stopped being probable: remove it.

        Returns:
            The left nodes freed by the removal (0 or 1 of them) — the
            caller must try to re-augment from those.
        """
        if right not in self._right:
            return []
        self._right.discard(right)
        for neighbors in self._edges.values():
            neighbors.discard(right)
        matched_left = self._match_of_right.pop(right, None)
        if matched_left is None:
            return []
        del self._match_of_left[matched_left]
        self._free_lefts.add(matched_left)
        return [matched_left]

    def add_edge(self, left: Hashable, right: Hashable) -> None:
        """Record that the probable row *right* now subsumes template *left*."""
        if left not in self._left:
            raise ValueError(f"unknown left node: {left!r}")
        if right not in self._right:
            raise ValueError(f"unknown right node: {right!r}")
        self._edges[left].add(right)

    # -- matching state ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of matched pairs."""
        return len(self._match_of_left)

    def matched_right(self, left: Hashable) -> Hashable | None:
        """The probable row matched to template row *left*, or None."""
        return self._match_of_left.get(left)

    def matched_left(self, right: Hashable) -> Hashable | None:
        """The template row matched to probable row *right*, or None."""
        return self._match_of_right.get(right)

    @property
    def saturated(self) -> bool:
        """Is every left node matched?  Only then can adding or removing
        an unmatched right node leave the matching as it is."""
        return not self._free_lefts

    def free_lefts(self) -> list[Hashable]:
        """Template rows currently unmatched (maintained set, not a scan)."""
        if not self._free_lefts:
            return []
        return sorted(self._free_lefts, key=repr)

    def pairs(self) -> dict[Hashable, Hashable]:
        """The current matching as {left: right}."""
        return dict(self._match_of_left)

    # -- augmentation -------------------------------------------------------------

    def augment(self, left: Hashable) -> bool:
        """BFS for an augmenting path from free *left* to a free right node.

        Returns True (and flips the path into the matching) when found.
        Worst case O(|P| · |T|); O(|P|) when no probable row serves two
        template rows — exactly the paper's complexity remark.
        """
        if left in self._match_of_left:
            return True  # already matched; nothing to do
        if not self._edges.get(left):
            return False  # no edges: no path, skip the BFS machinery
        # parents[right] = left used to reach it; BFS layers alternate.
        parent: dict[Hashable, Hashable] = {}
        visited_left: set[Hashable] = {left}
        queue: deque[Hashable] = deque([left])
        end: Hashable | None = None
        while queue and end is None:
            current_left = queue.popleft()
            # Sorted neighbor order keeps augmenting paths — and with
            # them entire experiment runs — independent of the process's
            # hash seed (sets iterate in hash order otherwise).
            for right in sorted(self._edges.get(current_left, ()), key=repr):
                if right in parent:
                    continue
                parent[right] = current_left
                owner = self._match_of_right.get(right)
                if owner is None:
                    end = right
                    break
                if owner not in visited_left:
                    visited_left.add(owner)
                    queue.append(owner)
        if end is None:
            return False
        # Flip the alternating path.
        right: Hashable = end
        while True:
            left_on_path = parent[right]
            previous_right = self._match_of_left.get(left_on_path)
            self._match_of_left[left_on_path] = right
            self._match_of_right[right] = left_on_path
            if previous_right is None:
                break
            right = previous_right
        self._free_lefts.discard(left)
        self.augment_count += 1
        return True

    def maximize(self) -> int:
        """Augment from every free left node; returns the final size."""
        if self._free_lefts:
            for left in self.free_lefts():
                self.augment(left)
        return self.size

    def try_free_instead(self, left: Hashable, other: Hashable) -> bool:
        """Attempt to shuffle the matching so *other* is free and *left* matched.

        Used by the Central Client when inserting a row for free
        template row *left* would not be probable: perhaps a different
        template row *other* can give up its probable row (section 4.2,
        "CC first attempts to shuffle the matching so that another
        template row t' becomes free").

        Returns True on success; on failure the matching is unchanged.
        """
        if left in self._match_of_left or other not in self._match_of_left:
            return False
        surrendered = self._match_of_left.pop(other)
        del self._match_of_right[surrendered]
        self._free_lefts.add(other)
        if self.augment(left):
            return True
        # Restore: `augment` failed without touching the matching.
        self._match_of_left[other] = surrendered
        self._match_of_right[surrendered] = other
        self._free_lefts.discard(other)
        return False

    def verify(self) -> None:
        """Internal consistency check (used by tests and property tests).

        Raises:
            AssertionError: when the two match maps disagree or a
                matched pair is not an edge.
        """
        for left, right in self._match_of_left.items():
            if self._match_of_right.get(right) != left:
                raise AssertionError(f"match maps disagree on {left!r}/{right!r}")
            if right not in self._edges.get(left, ()):
                raise AssertionError(f"matched pair {left!r}-{right!r} is not an edge")
        if len(self._match_of_right) != len(self._match_of_left):
            raise AssertionError("match maps have different sizes")
        actual_free = {l for l in self._left if l not in self._match_of_left}
        if actual_free != self._free_lefts:
            raise AssertionError(
                f"maintained free-left set {self._free_lefts!r} disagrees "
                f"with matching state {actual_free!r}"
            )


def maximum_matching_size(
    left_nodes: Sequence[Hashable],
    right_nodes: Sequence[Hashable],
    edges: Mapping[Hashable, Iterable[Hashable]],
) -> int:
    """One-shot maximum-matching size (used for constraint checking).

    Args:
        left_nodes: template-side node names.
        right_nodes: probable-side node names.
        edges: adjacency, left node -> iterable of right nodes.
    """
    matching = IncrementalMatching(left_nodes)
    right_set = set(right_nodes)
    for right in right_nodes:
        matching.add_right(right, ())
    for left in left_nodes:
        for right in edges.get(left, ()):
            if right in right_set:
                matching.add_edge(left, right)
    return matching.maximize()
