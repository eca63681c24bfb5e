"""Set-trie over predicate bitmasks for fast subset/superset queries.

The structure of [2]: a path of ascending bit indices per stored set, so
a subset query only descends through branches whose bit is present in
the query mask.  It holds the minimal forms of the canonical cover
(:class:`~repro.dcs.canonical.CanonicalCover`), whose subset and
superset queries are one mask at a time, and serves
:func:`~repro.enumeration.inversion.minimize_masks`.  DynEI's Σ, queried
for whole evidences at once, lives in per-predicate incidence bitsets
instead (:mod:`repro.enumeration.incidence`).
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
        return list(self)
