"""The paper's set structures, kept as fixtures of the design ablations.

The engine keeps every rid set in a raw ``int`` and every DC-mask
antichain in an :class:`~repro.enumeration.incidence.IncidenceSet`.  The
paper instead keeps rid sets in compressed bitmaps [13] (Section V-D) and
answers DynEI's set queries with the set-trie of [2] (Section VI-C).
These structures stay here, outside the package, so the two ablations
that justify the engine's choices stay reproducible:

- ``bench_ablation_bitmaps.py`` times :class:`IntBitset` (a wrapper of
  one ``int``) against :class:`RoaringBitmap` (array / bitmap / run
  containers over 16-bit chunks) on the evidence engine's op mix;
- ``bench_ablation_settrie.py`` times :class:`SetTrie` against the
  incidence bitsets and a linear scan.

``tests/test_bitmaps.py`` checks both bitmaps against Python sets.

The roaring layout: values are split into a 16-bit *high* part selecting
a container and a 16-bit *low* part stored inside it.  Containers adapt
to density:

- ``'a'`` array container — sorted ``array('H')`` of low parts, used while
  the chunk holds at most :data:`ARRAY_MAX` values;
- ``'b'`` bitmap container — a 65536-bit Python ``int``, used for dense
  chunks;
- ``'r'`` run container — list of ``(start, length)`` runs, produced by
  :meth:`RoaringBitmap.run_optimize` for highly sequential data.

Set algebra is performed container-by-container; run containers are
materialized to bitmap ints on demand, which keeps the operation matrix
small at the cost of some speed for run-heavy operands.

The set-trie: a path of ascending bit indices per stored set, so a
subset query only descends through branches whose bit is present in the
query mask.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List

from repro.bitmaps.bitutils import iter_bits


# -- IntBitset -----------------------------------------------------------------


class IntBitset:
    """A set of non-negative integers stored as bits of one ``int``."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("IntBitset cannot hold negative bit patterns")
        self.bits = bits

    # -- construction -----------------------------------------------------

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "IntBitset":
        """Build a bitset from any iterable of non-negative ints."""
        bits = 0
        for item in items:
            bits |= 1 << item
        return cls(bits)

    @classmethod
    def full(cls, n: int) -> "IntBitset":
        """Return the bitset {0, 1, ..., n-1}."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return cls((1 << n) - 1)

    def copy(self) -> "IntBitset":
        return IntBitset(self.bits)

    # -- element operations ------------------------------------------------

    def add(self, item: int) -> None:
        self.bits |= 1 << item

    def discard(self, item: int) -> None:
        self.bits &= ~(1 << item)

    def __contains__(self, item: int) -> bool:
        return item >= 0 and (self.bits >> item) & 1 == 1

    # -- set algebra ---------------------------------------------------------

    def __and__(self, other: "IntBitset") -> "IntBitset":
        return IntBitset(self.bits & other.bits)

    def __or__(self, other: "IntBitset") -> "IntBitset":
        return IntBitset(self.bits | other.bits)

    def __xor__(self, other: "IntBitset") -> "IntBitset":
        return IntBitset(self.bits ^ other.bits)

    def __sub__(self, other: "IntBitset") -> "IntBitset":
        return IntBitset(self.bits & ~other.bits)

    def __iand__(self, other: "IntBitset") -> "IntBitset":
        self.bits &= other.bits
        return self

    def __ior__(self, other: "IntBitset") -> "IntBitset":
        self.bits |= other.bits
        return self

    def __ixor__(self, other: "IntBitset") -> "IntBitset":
        self.bits ^= other.bits
        return self

    def __isub__(self, other: "IntBitset") -> "IntBitset":
        self.bits &= ~other.bits
        return self

    def intersects(self, other: "IntBitset") -> bool:
        return (self.bits & other.bits) != 0

    def issubset(self, other: "IntBitset") -> bool:
        return (self.bits & ~other.bits) == 0

    def issuperset(self, other: "IntBitset") -> bool:
        return (other.bits & ~self.bits) == 0

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __iter__(self) -> Iterator[int]:
        """Yield members in ascending order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def min(self) -> int:
        """Smallest member; raises ``ValueError`` when empty."""
        if not self.bits:
            raise ValueError("min() of empty bitset")
        return (self.bits & -self.bits).bit_length() - 1

    def max(self) -> int:
        """Largest member; raises ``ValueError`` when empty."""
        if not self.bits:
            raise ValueError("max() of empty bitset")
        return self.bits.bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntBitset):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        members = list(self)
        if len(members) > 12:
            head = ", ".join(map(str, members[:12]))
            return f"IntBitset({{{head}, ...}} len={len(members)})"
        return f"IntBitset({{{', '.join(map(str, members))}}})"


# -- RoaringBitmap -------------------------------------------------------------

_KIND_NAMES = {"a": "array", "b": "bitmap", "r": "run"}

ARRAY_MAX = 4096
_CHUNK_BITS = 1 << 16
_CHUNK_MASK = _CHUNK_BITS - 1
_FULL_CHUNK = (1 << _CHUNK_BITS) - 1


def _array_to_bits(values: array) -> int:
    bits = 0
    for value in values:
        bits |= 1 << value
    return bits


def _bits_to_array(bits: int) -> array:
    out = array("H")
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _runs_to_bits(runs: list) -> int:
    bits = 0
    for start, length in runs:
        bits |= ((1 << length) - 1) << start
    return bits


def _container_bits(container) -> int:
    """Materialize any container to a 65536-bit int."""
    kind, payload = container
    if kind == "b":
        return payload
    if kind == "a":
        return _array_to_bits(payload)
    return _runs_to_bits(payload)


def _container_from_bits(bits: int):
    """Pick the best array/bitmap representation for ``bits``."""
    cardinality = bits.bit_count()
    if cardinality == 0:
        return None
    if cardinality <= ARRAY_MAX:
        return ("a", _bits_to_array(bits))
    return ("b", bits)


def _container_len(container) -> int:
    kind, payload = container
    if kind == "a":
        return len(payload)
    if kind == "b":
        return payload.bit_count()
    return sum(length for _, length in payload)


def _container_iter(container) -> Iterator[int]:
    kind, payload = container
    if kind == "a":
        yield from payload
    elif kind == "b":
        bits = payload
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low
    else:
        for start, length in payload:
            yield from range(start, start + length)


def _container_contains(container, low: int) -> bool:
    kind, payload = container
    if kind == "a":
        pos = bisect_left(payload, low)
        return pos < len(payload) and payload[pos] == low
    if kind == "b":
        return (payload >> low) & 1 == 1
    return any(start <= low < start + length for start, length in payload)


class RoaringBitmap:
    """A compressed set of non-negative integers with adaptive containers."""

    __slots__ = ("_containers",)

    def __init__(self, _containers=None):
        # Mapping: high 16 bits -> container tuple.  Never exposes empties.
        self._containers = _containers if _containers is not None else {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "RoaringBitmap":
        bitmap = cls()
        for item in items:
            bitmap.add(item)
        return bitmap

    @classmethod
    def full(cls, n: int) -> "RoaringBitmap":
        """Return the bitmap {0, 1, ..., n-1}."""
        if n < 0:
            raise ValueError("n must be non-negative")
        containers = {}
        high = 0
        remaining = n
        while remaining > 0:
            span = min(remaining, _CHUNK_BITS)
            bits = (1 << span) - 1
            container = _container_from_bits(bits)
            if container is not None:
                containers[high] = container
            remaining -= span
            high += 1
        return cls(containers)

    def copy(self) -> "RoaringBitmap":
        copied = {}
        for high, (kind, payload) in self._containers.items():
            if kind == "a":
                copied[high] = ("a", array("H", payload))
            elif kind == "r":
                copied[high] = ("r", list(payload))
            else:
                copied[high] = ("b", payload)
        return RoaringBitmap(copied)

    # -- element operations ------------------------------------------------

    def add(self, item: int) -> None:
        if item < 0:
            raise ValueError("RoaringBitmap holds non-negative ints only")
        high, low = item >> 16, item & _CHUNK_MASK
        container = self._containers.get(high)
        if container is None:
            self._containers[high] = ("a", array("H", [low]))
            return
        kind, payload = container
        if kind == "a":
            pos = bisect_left(payload, low)
            if pos < len(payload) and payload[pos] == low:
                return
            if len(payload) >= ARRAY_MAX:
                self._containers[high] = ("b", _array_to_bits(payload) | (1 << low))
            else:
                insort(payload, low)
        elif kind == "b":
            self._containers[high] = ("b", payload | (1 << low))
        else:
            bits = _runs_to_bits(payload) | (1 << low)
            self._containers[high] = _container_from_bits(bits)

    def discard(self, item: int) -> None:
        if item < 0:
            return
        high, low = item >> 16, item & _CHUNK_MASK
        container = self._containers.get(high)
        if container is None:
            return
        kind, payload = container
        if kind == "a":
            pos = bisect_left(payload, low)
            if pos < len(payload) and payload[pos] == low:
                del payload[pos]
                if not payload:
                    del self._containers[high]
        else:
            bits = _container_bits(container) & ~(1 << low)
            replacement = _container_from_bits(bits)
            if replacement is None:
                del self._containers[high]
            else:
                self._containers[high] = replacement

    def __contains__(self, item: int) -> bool:
        if item < 0:
            return False
        container = self._containers.get(item >> 16)
        if container is None:
            return False
        return _container_contains(container, item & _CHUNK_MASK)

    # -- set algebra ---------------------------------------------------------

    def _binary(self, other: "RoaringBitmap", op: str) -> "RoaringBitmap":
        result = {}
        if op == "and":
            highs = self._containers.keys() & other._containers.keys()
        elif op == "andnot":
            highs = self._containers.keys()
        else:
            highs = self._containers.keys() | other._containers.keys()
        for high in highs:
            left = self._containers.get(high)
            right = other._containers.get(high)
            left_bits = _container_bits(left) if left is not None else 0
            right_bits = _container_bits(right) if right is not None else 0
            if op == "and":
                bits = left_bits & right_bits
            elif op == "or":
                bits = left_bits | right_bits
            elif op == "xor":
                bits = left_bits ^ right_bits
            else:
                bits = left_bits & ~right_bits
            container = _container_from_bits(bits)
            if container is not None:
                result[high] = container
        return RoaringBitmap(result)

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "and")

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "or")

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "xor")

    def __sub__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "andnot")

    def __iand__(self, other):
        self._containers = (self & other)._containers
        return self

    def __ior__(self, other):
        self._containers = (self | other)._containers
        return self

    def __ixor__(self, other):
        self._containers = (self ^ other)._containers
        return self

    def __isub__(self, other):
        self._containers = (self - other)._containers
        return self

    def intersects(self, other: "RoaringBitmap") -> bool:
        for high in self._containers.keys() & other._containers.keys():
            if _container_bits(self._containers[high]) & _container_bits(
                other._containers[high]
            ):
                return True
        return False

    def issubset(self, other: "RoaringBitmap") -> bool:
        for high, container in self._containers.items():
            other_container = other._containers.get(high)
            if other_container is None:
                return False
            bits = _container_bits(container)
            if bits & ~_container_bits(other_container):
                return False
        return True

    def issuperset(self, other: "RoaringBitmap") -> bool:
        return other.issubset(self)

    # -- inspection ----------------------------------------------------------

    def container_stats(self) -> Dict[str, int]:
        """Container-type mix: ``{"array": n, "bitmap": n, "run": n}``.

        The mix is the roaring format's central adaptive decision; the
        container-transition tests read it.
        """
        stats = {"array": 0, "bitmap": 0, "run": 0}
        for kind, _ in self._containers.values():
            stats[_KIND_NAMES[kind]] += 1
        return stats

    def __len__(self) -> int:
        return sum(_container_len(c) for c in self._containers.values())

    def __bool__(self) -> bool:
        return bool(self._containers)

    def __iter__(self) -> Iterator[int]:
        for high in sorted(self._containers):
            base = high << 16
            for low in _container_iter(self._containers[high]):
                yield base + low

    def min(self) -> int:
        if not self._containers:
            raise ValueError("min() of empty bitmap")
        high = min(self._containers)
        return (high << 16) + next(_container_iter(self._containers[high]))

    def max(self) -> int:
        if not self._containers:
            raise ValueError("max() of empty bitmap")
        high = max(self._containers)
        container = self._containers[high]
        kind, payload = container
        if kind == "a":
            return (high << 16) + payload[-1]
        if kind == "b":
            return (high << 16) + payload.bit_length() - 1
        start, length = payload[-1]
        return (high << 16) + start + length - 1

    def run_optimize(self) -> None:
        """Convert containers dominated by long runs to run containers."""
        for high, container in list(self._containers.items()):
            bits = _container_bits(container)
            runs = []
            position = 0
            while bits:
                trailing_zeros = (bits & -bits).bit_length() - 1
                bits >>= trailing_zeros
                position += trailing_zeros
                run_length = ((bits + 1) & -(bits + 1)).bit_length() - 1
                runs.append((position, run_length))
                bits >>= run_length
                position += run_length
            # A run costs ~2 words; prefer runs when clearly cheaper than
            # both the array and the bitmap representation.
            cardinality = _container_len(container)
            if runs and 2 * len(runs) < min(cardinality, ARRAY_MAX):
                self._containers[high] = ("r", runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if self._containers.keys() != other._containers.keys():
            return False
        return all(
            _container_bits(self._containers[high])
            == _container_bits(other._containers[high])
            for high in self._containers
        )

    def __hash__(self) -> int:
        return hash(
            tuple(
                (high, _container_bits(self._containers[high]))
                for high in sorted(self._containers)
            )
        )

    def __repr__(self) -> str:
        size = len(self)
        if size > 12:
            head = ", ".join(str(v) for _, v in zip(range(12), iter(self)))
            return f"RoaringBitmap({{{head}, ...}} len={size})"
        return f"RoaringBitmap({{{', '.join(map(str, self))}}})"


# -- SetTrie -------------------------------------------------------------------


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
