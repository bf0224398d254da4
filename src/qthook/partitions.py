"""Integer partitions and the diagram statistics used throughout the package."""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """A weakly decreasing sequence of positive integers.

    Zeros are accepted only as trailing parts, and stored without them.
    Indexed access ``lam[i]`` is 1-based and returns 0 beyond the last part,
    which is the convention every product formula here relies on.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(int, parts))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = tuple(filter(None, parts))

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the comma-separated format, e.g. ``"4,3,1"``; "" is empty."""
        text = text.strip()
        if not text:
            return Partition()
        return Partition(int(tok) for tok in text.split(","))

    def __getitem__(self, i: int) -> int:
        if i < 1:
            raise IndexError("partitions are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def length(self) -> int:
        return len(self.parts)

    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def odd_rows(self) -> int:
        """Number of odd parts; this is r(lambda)."""
        return sum(1 for p in self.parts if p % 2 == 1)

    def odd_columns(self) -> int:
        """Number of odd columns; this is r(lambda')."""
        return self.conjugate().odd_rows()

    def is_strict(self) -> bool:
        return all(a > b for a, b in zip(self.parts, self.parts[1:]))

    def contains(self, mu: "Partition") -> bool:
        return all(self[i] >= mu[i] for i in range(1, mu.length() + 1))

    def cells(self):
        """Cells (i, j) of the Young diagram, 1-based matrix coordinates."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm(self, i: int, j: int) -> int:
        return self[i] - j

    def leg(self, i: int, j: int) -> int:
        return self.conjugate()[j] - i

    def sub_rectangle(self, l: int, k: int) -> "Partition":
        """lambda - l*1^k: subtract l from each of the first k parts."""
        if l == 0:
            return self
        if self.length() > k or self[k] < l:
            raise ValueError(f"cannot remove {l}x{k} rectangle from {self}")
        return Partition([self[i] - l for i in range(1, k + 1)])


EMPTY = Partition()


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """True when mu <= lam and lam/mu has at most one cell per column.

    Equivalently the interlacing lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...
    """
    n = max(lam.length(), mu.length())
    for i in range(1, n + 1):
        if lam[i] < mu[i]:
            return False
        if mu[i] < lam[i + 1]:
            return False
    return True


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None, max_length: int | None = None):
    """All partitions of n, optionally bounding the largest part and length."""
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n
    if n == 0:
        return (Partition(),)
    if max_length == 0 or max_part == 0:
        return ()
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first, max_length - 1):
            out.append(Partition((first,) + rest.parts))
    return tuple(out)


def partitions_up_to(n: int, max_length: int | None = None):
    """All partitions of weight <= n."""
    out = []
    for d in range(n + 1):
        out.extend(partitions_of(d, None, max_length))
    return out


def monotone_chains(lo: int, hi: int, n: int, increasing: bool = False):
    """All weakly monotone n-tuples with entries in [lo, hi], lexicographic.

    Decreasing (v_1 >= ... >= v_n) by default, increasing when asked; the
    summation order of every chain sum in the package follows this order.
    """
    out = [()]
    for _ in range(n):
        if increasing:
            out = [c + (v,) for c in out for v in range(c[-1] if c else lo, hi + 1)]
        else:
            out = [c + (v,) for c in out for v in range(lo, (c[-1] if c else hi) + 1)]
    return out


def bounded_tuples(weights, budget: int, exact: bool = False):
    """All (k_i >= 0) with sum weights[i] * k_i <= budget, lexicographic.

    The weights must be positive.  With ``exact`` only the tuples whose
    weighted sum equals the budget are kept.
    """
    out = [((), 0)]
    for w in weights:
        out = [(ks + (v,), used + w * v) for ks, used in out
               for v in range((budget - used) // w + 1)]
    return [ks for ks, used in out if not exact or used == budget]
