"""Set-trie over predicate bitmasks for fast subset/superset queries.

DynEI's two hot operations (Algorithm 2, Section VI-C) are:

- line 4 — find the DCs *contained in* an evidence (a subset query), and
- line 8 — check whether a candidate *contains* any current DC (a subset
  existence query).

Both are answered by this trie, the structure of [2]: a path of ascending
bit indices per stored set, so a subset query only descends through
branches whose bit is present in the query mask.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.bitmaps.bitutils import iter_bits


#: The children of every childless node: most nodes of an antichain trie
#: are leaves, and an empty dict apiece would be a fifth of its memory.
#: It is never mutated — :meth:`SetTrie.insert` gives a node its own dict
#: when the first child arrives (so copies that no longer share this very
#: object, e.g. unpickled ones, stay correct).
_NO_CHILDREN: dict = {}


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children = _NO_CHILDREN
        self.terminal = False


class SetTrie:
    """A dynamic collection of int bitmasks supporting subset retrieval."""

    def __init__(self, masks=None):
        self._root = _Node()
        self._size = 0
        # Mirror of the stored masks as a plain set: linear int-op passes
        # over it beat trie traversals for whole-collection scans in
        # CPython (see refine_sigma's blocker collection).
        self._mask_set = set()
        if masks is not None:
            for mask in masks:
                self.insert(mask)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, mask: int) -> bool:
        node = self._root
        for bit in iter_bits(mask):
            node = node.children.get(bit)
            if node is None:
                return False
        return node.terminal

    def insert(self, mask: int) -> bool:
        """Insert ``mask``; return ``False`` when it was already present."""
        node = self._root
        for bit in iter_bits(mask):
            children = node.children
            child = children.get(bit)
            if child is None:
                child = _Node()
                if children:
                    children[bit] = child
                else:
                    node.children = {bit: child}
            node = child
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        self._mask_set.add(mask)
        return True

    def remove(self, mask: int) -> None:
        """Remove ``mask``; raises ``KeyError`` when absent."""
        path = []
        node = self._root
        for bit in iter_bits(mask):
            child = node.children.get(bit)
            if child is None:
                raise KeyError(f"mask {mask:#x} not in set-trie")
            path.append((node, bit))
            node = child
        if not node.terminal:
            raise KeyError(f"mask {mask:#x} not in set-trie")
        node.terminal = False
        self._size -= 1
        self._mask_set.discard(mask)
        # Prune now-dead branches bottom-up.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.terminal or child.children:
                break
            del parent.children[bit]

    # -- queries ------------------------------------------------------------

    def has_subset_of(self, mask: int) -> bool:
        """Whether any stored set is a subset of ``mask`` (including equal)."""
        stack = [self._root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node.terminal:
                return True
            for bit, child in node.children.items():
                if (mask >> bit) & 1:
                    push(child)
        return False

    def subsets_of(self, mask: int) -> List[int]:
        """All stored sets that are subsets of ``mask``."""
        found = []
        stack = [(self._root, 0)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, acc = pop()
            if node.terminal:
                found.append(acc)
            for bit, child in node.children.items():
                if (mask >> bit) & 1:
                    push((child, acc | (1 << bit)))
        return found

    def blocked_extension_bits(self, base: int, extension_bits: int) -> int:
        """Bits ``p ∈ extension_bits`` for which some stored set is a
        subset of ``base | (1 << p)``.

        This answers all of DynEI's per-candidate minimality checks for
        one violated DC in a single traversal: a stored set blocks the
        extension ``p`` exactly when it is contained in the extended
        candidate, i.e. all its bits lie in ``base`` except at most one,
        which must be ``p``.  A stored subset of ``base`` itself would
        block *every* extension — it cannot occur while the trie holds an
        antichain that excluded ``base``, but is handled for safety.
        """
        blocked = 0
        base_bits = list(iter_bits(base))
        # Phase 0 walks only the nodes whose path uses `base` bits — a
        # subtrie bounded by the (small) DC size, not by |Σ|.  Because the
        # base is tiny, children are probed by dict lookup on the base
        # bits rather than by iterating every child.  Each extension-bit
        # child found there starts a phase-1 descent that again may only
        # use `base` bits; reaching any terminal proves the extension
        # dominated.  Already-proven bits are skipped, which collapses the
        # many subtrees that would re-derive the same bit.
        stack = [self._root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node.terminal:
                return extension_bits  # stored subset of base: blocks all
            children = node.children
            for bit in base_bits:
                child = children.get(bit)
                if child is not None:
                    push(child)
            # Extension candidates: probe whichever side is smaller.
            if len(children) <= extension_bits.bit_count():
                candidates = [
                    (bit, child)
                    for bit, child in children.items()
                    if (extension_bits >> bit) & 1
                ]
            else:
                candidates = [
                    (bit, children[bit])
                    for bit in iter_bits(extension_bits)
                    if bit in children
                ]
            for bit, child in candidates:
                bit_mask = 1 << bit
                if blocked & bit_mask:
                    continue
                inner = [child]
                inner_pop = inner.pop
                inner_push = inner.append
                while inner:
                    inner_node = inner_pop()
                    if inner_node.terminal:
                        blocked |= bit_mask
                        break
                    inner_children = inner_node.children
                    for inner_bit in base_bits:
                        inner_child = inner_children.get(inner_bit)
                        if inner_child is not None:
                            inner_push(inner_child)
        return blocked

    def almost_subsets_of(self, mask: int) -> List[tuple]:
        """All stored sets with exactly one bit outside ``mask``.

        Returns ``(outside_bit, inside_mask)`` pairs with
        ``σ = inside_mask | (1 << outside_bit)``.  This is DynEI's batched
        minimality oracle: a stored set blocks the candidate ``v | {p}``
        (``v ⊆ mask``) exactly when its outside bit is ``p`` and its
        inside mask is contained in ``v`` — sets fully inside ``mask`` are
        the *violated* ones and are handled separately.
        """
        found = []
        stack = [(self._root, -1, 0)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, missed, acc = pop()
            if node.terminal and missed >= 0:
                found.append((missed, acc))
            for bit, child in node.children.items():
                if (mask >> bit) & 1:
                    push((child, missed, acc | (1 << bit)))
                elif missed < 0:
                    push((child, bit, acc))
        return found

    def supersets_of(self, mask: int) -> List[int]:
        """All stored sets that are supersets of ``mask``."""
        found = []
        self._collect_supersets(self._root, mask, 0, found)
        return found

    def _collect_supersets(self, node: _Node, pending: int, acc: int, found: list) -> None:
        if not pending:
            # All required bits matched; everything below qualifies.
            self._collect_all(node, acc, found)
            return
        lowest_required = (pending & -pending).bit_length() - 1
        for bit, child in node.children.items():
            if bit > lowest_required:
                continue
            if bit == lowest_required:
                self._collect_supersets(
                    child, pending & (pending - 1), acc | (1 << bit), found
                )
            else:
                self._collect_supersets(child, pending, acc | (1 << bit), found)

    def _collect_all(self, node: _Node, acc: int, found: list) -> None:
        if node.terminal:
            found.append(acc)
        for bit, child in node.children.items():
            self._collect_all(child, acc | (1 << bit), found)

    def __iter__(self) -> Iterator[int]:
        stack = [(self._root, 0)]
        while stack:
            node, acc = stack.pop()
            if node.terminal:
                yield acc
            for bit, child in node.children.items():
                stack.append((child, acc | (1 << bit)))

    def masks(self) -> List[int]:
        """All stored masks (unordered)."""
        return list(self._mask_set)

    @property
    def mask_set(self):
        """The stored masks as a set (do not mutate)."""
        return self._mask_set
