"""The three d-complete poset families: shifted shapes, birds and banners.

Coordinates follow the matrix convention (a northwest vertex is larger).
Colors are variable names: z0, z1, ... for integer colors, zm1, zm2, ... for
negative ones and z1p, z2p, ... (z0p) for primed ones.
"""

from __future__ import annotations

from .partitions import Partition
from .series import VarSet


def color_name(k: int, primed: bool = False) -> str:
    if primed:
        return f"z{k}p"
    return f"z{k}" if k >= 0 else f"zm{-k}"


def _color_sort_key(name: str):
    if name.startswith("zm"):
        return (0, -int(name[2:]))
    if name.endswith("p"):
        return (2, int(name[1:-1]))
    return (1, int(name[1:]))


class ColoredPoset:
    """Finite poset with coordinates, a d-complete coloring and rank data."""

    def __init__(self, family: str, params: dict, elements, block_of, color_of):
        """elements: coordinate list; block_of(e) labels the order block;
        color_of(e) gives the color name.  Order: (i1,j1) >= (i2,j2) iff
        i1 <= i2 and j1 <= j2, applied only inside a block, then closed
        transitively.  The poset must have a unique maximum and a
        well-defined rank (true for every connected d-complete poset)."""
        self.family = family
        self.params = params
        self.elements = sorted(set(elements))
        self.index = {e: k for k, e in enumerate(self.elements)}
        n = len(self.elements)

        # down[a]: bit b set iff a >= b; up[b]: bit a set iff a >= b
        blocks = [block_of(e) for e in self.elements]
        down = [sum(1 << b for b, eb in enumerate(self.elements)
                    if ea[0] <= eb[0] and ea[1] <= eb[1]
                    and blocks[a] & blocks[b])
                for a, ea in enumerate(self.elements)]
        for k in range(n):  # transitive closure
            for a in range(n):
                if down[a] >> k & 1:
                    down[a] |= down[k]
        up = [sum(1 << a for a in range(n) if down[a] >> b & 1)
              for b in range(n)]
        self._down, self._up = down, up
        self.color = {e: color_of(e) for e in self.elements}

        self.covers = []  # (lower, upper) pairs
        for a, ea in enumerate(self.elements):
            lower = down[a] & ~(1 << a)
            deeper = 0  # what lies strictly below something strictly below a
            for c in self._bits(lower):
                deeper |= down[c] & ~(1 << c)
            self.covers.extend((self.elements[b], ea)
                               for b in self._bits(lower & ~deeper))

        self._upper = {e: [] for e in self.elements}
        self._lower = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            self._upper[lo].append(hi)
            self._lower[hi].append(lo)

        maxima = [e for e in self.elements if not self._upper[e]]
        if len(maxima) != 1:
            raise ValueError(f"poset has {len(maxima)} maximal elements")
        self.top = maxima[0]

        # rank: depth from the top; every saturated chain to the top must
        # agree (Proctor's rank property)
        self.rank = {}
        pending = sorted(self.elements,
                         key=lambda e: up[self.index[e]].bit_count())
        for e in pending:
            uppers = self._upper[e]
            if not uppers:
                self.rank[e] = 0
                continue
            ranks = {self.rank[u] + 1 for u in uppers}
            if len(ranks) != 1:
                raise ValueError(f"rank is not well defined at {e}")
            self.rank[e] = ranks.pop()

        self.top_tree = self._compute_top_tree()
        self.varset = VarSet(sorted({self.color[e] for e in self.elements},
                                    key=_color_sort_key))

    # -- order primitives --------------------------------------------------

    @staticmethod
    def _bits(mask: int):
        """The positions of the set bits of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def members(self, mask: int) -> list:
        """The elements whose bits ``mask`` sets, in element order."""
        return [self.elements[i] for i in self._bits(mask)]

    def down_mask(self, e) -> int:
        """The downset of e as a mask over element positions."""
        return self._down[self.index[e]]

    def up_mask(self, e) -> int:
        """The upset of e as a mask over element positions."""
        return self._up[self.index[e]]

    def le(self, x, y) -> bool:
        """x <= y in the poset order."""
        return bool(self._down[self.index[y]] >> self.index[x] & 1)

    def downset(self, e):
        return self.members(self.down_mask(e))

    def lower_covers(self, e):
        return self._lower[e]

    def upper_covers(self, e):
        return self._upper[e]

    def _compute_top_tree(self):
        multi = sum(1 << self.index[e] for e in self.elements
                    if len(self._upper[e]) > 1)
        return {e for e in self.elements if not self.up_mask(e) & multi}

    def top_tree_adjacency(self) -> set[frozenset]:
        """Color pairs adjacent in the top tree (Hasse edges inside T)."""
        edges = set()
        for lo, hi in self.covers:
            if lo in self.top_tree and hi in self.top_tree:
                edges.add(frozenset((self.color[lo], self.color[hi])))
        return edges

    def interval(self, w, v):
        return self.members(self.up_mask(w) & self.down_mask(v))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"ColoredPoset({self.family}, {self.params}, {len(self)} elements)"


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

def build_shifted(alpha: Partition) -> ColoredPoset:
    """Shifted shape S(alpha) with its d-complete coloring."""
    if not alpha.is_strict() or alpha.length() == 0:
        raise ValueError("shifted shapes need a nonempty strict partition")
    cells = [(i, j) for i in range(1, alpha.length() + 1)
             for j in range(i, alpha[i] + i)]

    def color_of(e):
        i, j = e
        if i < j:
            return color_name(j - i)
        return color_name(0, primed=(i % 2 == 0))

    return ColoredPoset("shifted", {"alpha": alpha}, cells,
                        lambda e: {1}, color_of)


def build_bird(alpha: Partition, beta: Partition, f: int) -> ColoredPoset:
    """Bird: head + two shifted wings + tail hanging under the branch cell."""
    if alpha.length() != 2 or not alpha.is_strict():
        raise ValueError("bird needs a strict alpha of length 2")
    if beta.length() != 2 or not beta.is_strict():
        raise ValueError("bird needs a strict beta of length 2")
    if f < 1:
        raise ValueError("bird needs f >= 1")
    head = [(1, j) for j in range(-f + 1, 2)]
    right = [(i, j) for i in (1, 2) for j in range(i, alpha[i] + i)]
    left = [(i, j) for j in (1, 2) for i in range(j, beta[j] + j)]
    tail = [(i, i) for i in range(2, f + 3)]
    elements = set(head) | set(right) | set(left) | set(tail)
    tail_only = set(tail) - set(right) - set(left)

    def block_of(e):
        blocks = set()
        if e not in tail_only:
            blocks.add(1)  # head + both wings
        if e[0] == e[1] and e[0] >= 2:
            blocks.add(2)  # tail diagonal, shares (2,2) with the wings
        return blocks

    def color_of(e):
        i, j = e
        if i < j:
            return color_name(j - i)
        if 1 <= j < i:
            return color_name(i - j, primed=True)
        if i == 1 and j <= 1:
            return color_name(j - 1)
        return color_name(-i + 2)  # tail diagonal, includes (2,2) -> 0

    return ColoredPoset("bird", {"alpha": alpha, "beta": beta, "f": f},
                        elements, block_of, color_of)


def build_banner(alpha: Partition, f: int) -> ColoredPoset:
    """Banner: head + four-row shifted wing + tail under (3,3) in column 3."""
    if alpha.length() != 4 or not alpha.is_strict():
        raise ValueError("banner needs a strict alpha of length 4")
    if f < 2:
        raise ValueError("banner needs f >= 2")
    head = [(1, j) for j in range(-f + 2, 2)]
    wing = [(i, j) for i in range(1, 5) for j in range(i, alpha[i] + i)]
    tail = [(i, 3) for i in range(3, f + 3)]
    elements = set(head) | set(wing) | set(tail)
    tail_set = set(tail)
    wing_set = set(wing) | set(head)

    def block_of(e):
        blocks = set()
        if e in wing_set:
            blocks.add(1)
        if e in tail_set:
            blocks.add(2)
        return blocks

    def color_of(e):
        i, j = e
        if i != j:
            return color_name(j - i)
        return color_name(0, primed=(i % 2 == 0))

    return ColoredPoset("banner", {"alpha": alpha, "f": f},
                        elements, block_of, color_of)


def build_family(family: str, alpha: Partition, beta: Partition | None = None,
                 f: int | None = None) -> ColoredPoset:
    """The poset of ``family``; a parameter the family does not take is a
    ValueError, not silently dropped."""
    if family == "shifted":
        if beta is not None or f is not None:
            raise ValueError("shifted takes alpha only, not beta or f")
        return build_shifted(alpha)
    if family == "bird":
        if beta is None or f is None:
            raise ValueError("bird needs alpha, beta and f")
        return build_bird(alpha, beta, f)
    if family == "banner":
        if beta is not None:
            raise ValueError("banner takes alpha and f, not beta")
        if f is None:
            raise ValueError("banner needs alpha and f")
        return build_banner(alpha, f)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Double-tailed diamond intervals and the d-completeness test.
# ---------------------------------------------------------------------------

class DkInterval:
    """[w, v] isomorphic to d_k(1): one incomparable pair plus two chains."""

    __slots__ = ("bottom", "top", "k", "sides")

    def __init__(self, bottom, top, k, sides):
        self.bottom = bottom
        self.top = top
        self.k = k
        self.sides = frozenset(sides)

    def __repr__(self):
        return f"DkInterval(k={self.k}, [{self.bottom}, {self.top}])"

    def __eq__(self, other):
        return (self.bottom, self.top, self.k, self.sides) == \
            (other.bottom, other.top, other.k, other.sides)

    def __hash__(self):
        return hash((self.bottom, self.top, self.k, self.sides))


def _diamond_shape(poset: ColoredPoset, mask: int):
    """Classify a convex set, given as a mask: ((x, y), |below|, |above|)
    if it is one incomparable pair x, y (x first in element order) with
    every other member below both or above both, else None."""
    down, up = poset._down, poset._up
    incomparable = [(i, m) for i in poset._bits(mask)
                    if (m := mask & ~(down[i] | up[i]))]
    if len(incomparable) != 2 or any(m.bit_count() != 1
                                     for _, m in incomparable):
        return None  # not exactly one incomparable pair
    (i, _), (j, _) = incomparable
    chain = mask & ~(1 << i | 1 << j)
    # no c is below i but not j (j < c < i would make i, j comparable)
    below, above = chain & down[i], chain & up[i]
    pair = (poset.elements[i], poset.elements[j])
    return pair, below.bit_count(), above.bit_count()


def _intervals(poset: ColoredPoset, sizes):
    """(w, v, mask) of each interval [w, v] with w < v whose size is in
    ``sizes``, in element order of w, then of v."""
    for w in poset.elements:
        up = poset.up_mask(w)
        for v in poset.members(up & ~(1 << poset.index[w])):
            mask = up & poset.down_mask(v)
            if mask.bit_count() in sizes:
                yield w, v, mask


def find_dk_intervals(poset: ColoredPoset) -> list[DkInterval]:
    """All intervals isomorphic to some d_k(1), k >= 3."""
    out = []
    for w, v, mask in _intervals(poset, range(4, len(poset) + 1, 2)):
        k = (mask.bit_count() + 2) // 2
        shape = _diamond_shape(poset, mask)
        if shape is None:
            continue
        sides, below, above = shape
        if below == k - 2 and above == k - 2:
            out.append(DkInterval(w, v, k, sides))
    return out


def _find_dk_minus(poset: ColoredPoset):
    """All d_k^- configurations: (k, elements, maximal elements)."""
    out = []
    # k = 3: any w covered by two distinct elements
    for w in poset.elements:
        ups = poset.upper_covers(w)
        for i in range(len(ups)):
            for j in range(i + 1, len(ups)):
                members = frozenset((w, ups[i], ups[j]))
                out.append((3, members, frozenset((ups[i], ups[j])), w))
    # k >= 4: intervals shaped like d_k(1) minus its top
    for w, u, mask in _intervals(poset, range(5, len(poset) + 1, 2)):
        k = (mask.bit_count() + 3) // 2
        shape = _diamond_shape(poset, mask)
        if shape is None:
            continue
        _, below, above = shape
        if below == k - 2 and above == k - 3:
            out.append((k, frozenset(poset.members(mask)), frozenset((u,)), w))
    return out


def d_complete_check(poset: ColoredPoset):
    """Exhaustive (D1)-(D3) verification; returns (ok, failure_reason)."""
    intervals = find_dk_intervals(poset)
    by_top = {}
    for iv in intervals:
        by_top.setdefault(iv.top, []).append(iv)

    minus = _find_dk_minus(poset)
    for k, members, maxima, w in minus:
        completed = False
        for v in poset.elements:
            if v in members:
                continue
            if not all(any(lo == m for lo in poset.lower_covers(v))
                       for m in maxima):
                continue
            candidate = poset.interval(w, v)
            if set(candidate) != set(members) | {v}:
                continue
            if any(iv.bottom == w and iv.top == v and iv.k == k
                   for iv in by_top.get(v, [])):
                completed = True
                break
        if not completed:
            return False, f"(D1) fails for d_{k}^- at bottom {w}"

    for iv in intervals:
        members = set(poset.interval(iv.bottom, iv.top))
        for u in poset.lower_covers(iv.top):
            if u not in members:
                return False, f"(D2) fails for {iv}: top covers {u} outside"

    seen = {}
    for k, members, maxima, w in minus:
        key = (k, frozenset(members - {w}))
        if key in seen and seen[key] != members:
            return False, f"(D3) fails: d_{k}^- duplicated above {w}"
        seen[key] = members
    return True, None


# ---------------------------------------------------------------------------
# Hook monomials: the diamond recursion and the closed-form tables.
# ---------------------------------------------------------------------------

def _mono_mul(a: dict, b: dict, mult: int = 1) -> dict:
    """a * b^mult for monomials as name -> exponent dicts (zeros dropped)."""
    out = dict(a)
    for k, e in b.items():
        s = out.get(k, 0) + mult * e
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def hook_monomials(poset: ColoredPoset) -> dict:
    """Hook monomial of every element by the bottom-up diamond recursion.

    Elements topping a d_k-interval get hook(x) hook(y) / hook(w); for
    d-complete posets the result is independent of the chosen interval,
    which is asserted at every element that tops more than one.
    """
    intervals = find_dk_intervals(poset)
    by_top = {}
    for iv in intervals:
        by_top.setdefault(iv.top, []).append(iv)
    hooks = {}
    for v in sorted(poset.elements, key=lambda e: -poset.rank[e]):
        tops = by_top.get(v)
        if not tops:
            mono = {}
            for w in poset.downset(v):
                mono = _mono_mul(mono, {poset.color[w]: 1})
            hooks[v] = mono
            continue
        results = [_mono_mul(_mono_mul(*(hooks[s] for s in sorted(iv.sides))),
                             hooks[iv.bottom], -1) for iv in tops]
        if any(r != results[0] for r in results[1:]):
            raise AssertionError(f"diamond rule disagrees at {v}")
        if any(e < 0 for e in results[0].values()):
            raise ValueError(f"negative hook exponent at {v}")
        hooks[v] = results[0]
    return hooks


def _alias_tables(poset: ColoredPoset):
    """The w / x-tilde / y-tilde / z-tilde alias monomials of each family."""
    fam = poset.family
    if fam == "shifted":
        alpha = poset.params["alpha"]
        r = alpha.length()
        n = alpha[1]
        if r % 2 == 1:
            w = {"z0p": 1, "z0": -1}
            zt = {i: _range_mono(["z0"] + [color_name(k) for k in range(1, i)])
                  for i in range(1, n + 1)}
        else:
            w = {"z0": 1, "z0p": -1}
            zt = {i: _range_mono(["z0p"] + [color_name(k) for k in range(1, i)])
                  for i in range(1, n + 1)}
        return {"w": w, "zt": zt, "n": n}
    if fam == "bird":
        alpha, beta, f = (poset.params[k] for k in ("alpha", "beta", "f"))
        m, n = alpha[1], beta[1]
        xt = {i: _range_mono(["z0" if k == 0 else color_name(-k)
                              for k in range(i, f + 1)]) for i in range(0, f + 1)}
        yt = {i: _range_mono([color_name(k, True) for k in range(1, i)])
              for i in range(1, n + 1)}
        zt = {i: _range_mono([color_name(k) for k in range(1, i)])
              for i in range(1, m + 1)}
        return {"xt": xt, "yt": yt, "zt": zt, "m": m, "n": n, "f": f}
    if fam == "banner":
        alpha, f = poset.params["alpha"], poset.params["f"]
        n = alpha[1]
        w = {"z0": 1, "z0p": -1}
        xt = {i: _range_mono(["z0" if k == 1 else color_name(-k + 1)
                              for k in range(i, f + 1)]) for i in range(1, f + 1)}
        zt = {i: _range_mono(["z0p"] + [color_name(k) for k in range(1, i)])
              for i in range(1, n + 1)}
        return {"w": w, "xt": xt, "zt": zt, "n": n, "f": f}
    raise ValueError(f"no closed form for family {fam!r}")


def _range_mono(names) -> dict:
    out = {}
    for nm in names:
        out[nm] = out.get(nm, 0) + 1
    return out


def _complement(alpha: Partition, n: int) -> Partition:
    present = set(alpha.parts)
    return Partition(sorted((k for k in range(1, n + 1) if k not in present),
                            reverse=True))


def _wing_hook(tilde: dict, alpha: Partition, comp: Partition, i: int, j: int,
               inner: dict) -> dict:
    """Hook monomial of cell (i, j) of the shifted wing alpha, whose
    complement in 1..alpha_1 is comp: with r = l(alpha), inner z~_(alpha_i)
    z~_(alpha_(j+1)) for j < r, z~_(alpha_i) at j = r and z~_(alpha_i) /
    z~_(comp[alpha_1 - j + 1]) for j > r."""
    r = alpha.length()
    if j < r:
        return _mono_mul(_mono_mul(inner, tilde[alpha[i]]), tilde[alpha[j + 1]])
    if j == r:
        return dict(tilde[alpha[i]])
    return _mono_mul(tilde[alpha[i]], tilde[comp[alpha[1] - j + 1]], -1)


def hook_monomials_closed_form(poset: ColoredPoset) -> dict:
    """Hook monomials from the per-family product tables."""
    fam = poset.family
    al = _alias_tables(poset)
    alpha = poset.params["alpha"]
    if fam == "shifted":
        comp = _complement(alpha, al["n"])
        return {(i, j): _wing_hook(al["zt"], alpha, comp, i, j, al["w"])
                for (i, j) in poset.elements}
    hooks = {}
    if fam == "bird":
        beta = poset.params["beta"]
        compa, compb = _complement(alpha, al["m"]), _complement(beta, al["n"])
        for (i, j) in poset.elements:
            if i == 1 and j <= 0:
                mono = _mono_mul(_mono_mul(al["xt"][0], al["xt"][0]),
                                 al["xt"][-j + 1], -1)
                for part in (beta[1], beta[2]):
                    mono = _mono_mul(mono, al["yt"][part])
                for part in (alpha[1], alpha[2]):
                    mono = _mono_mul(mono, al["zt"][part])
            elif 1 <= i <= 2 and 1 <= j <= 2:
                mono = _mono_mul(al["xt"][0], al["yt"][beta[j]])
                mono = _mono_mul(mono, al["zt"][alpha[i]])
            elif 1 <= i <= 2 < j:
                mono = _wing_hook(al["zt"], alpha, compa, i, j, {})
            elif 1 <= j <= 2 < i:  # the beta wing, transposed
                mono = _wing_hook(al["yt"], beta, compb, j, i, {})
            else:  # tail
                mono = dict(al["xt"][i - 2])
            hooks[(i, j)] = mono
        return hooks
    comp = _complement(alpha, al["n"])  # a banner: _alias_tables raised
    inner = _mono_mul(al["w"], al["xt"][2])
    for (i, j) in poset.elements:
        if i == 1 and j <= 0:
            mono = _mono_mul(_mono_mul(al["xt"][2], al["xt"][2]),
                             al["xt"][-j + 2], -1)
            mono = _mono_mul(mono, al["w"])
            mono = _mono_mul(mono, al["w"])
            for part in alpha.parts:
                mono = _mono_mul(mono, al["zt"][part])
        elif i <= j:
            mono = _wing_hook(al["zt"], alpha, comp, i, j, inner)
        else:  # tail (i, 3) with i > 3
            mono = dict(al["xt"][i - 2])
        hooks[(i, j)] = mono
    return hooks


# ---------------------------------------------------------------------------
# P-partition enumeration.
# ---------------------------------------------------------------------------

def fill_order(poset: ColoredPoset) -> list:
    """The linear extension enumerate_p_partitions fills, top-down by rank."""
    return sorted(poset.elements, key=lambda e: (poset.rank[e], e))


def enumerate_p_partitions(poset: ColoredPoset, bound: int):
    """All order-reversing maps P -> N of weight <= bound, deterministically.

    Elements are filled top-down along ``fill_order``; each value is at
    least the maximum over the upper covers, and at most (bound - used) //
    |downset(e)|, since every element below e is still empty and will take
    a value at least e's (Stanley's order-reversing maps, Mem. AMS 119).
    The maps come in lexicographic order along ``fill_order`` from one
    odometer: it fills every position from the first one it moved, and
    moves the deepest one below its cap.  Each is yielded as (moved,
    values): the values in fill order, and the least position moved since
    the map before (0 for the first), where the two maps first differ.
    """
    order = fill_order(poset)
    pos = {e: i for i, e in enumerate(order)}
    uppers = [[pos[u] for u in poset.upper_covers(e)] for e in order]
    below = [len(poset.downset(e)) for e in order]
    size = len(order)
    values, caps = [0] * size, [0] * size
    used = [0] * (size + 1)  # used[i]: the weight of positions before i
    i = moved = 0
    while True:
        while i < size:  # fill each position from i on with its least value
            v = 0
            for u in uppers[i]:
                if values[u] > v:
                    v = values[u]
            cap = (bound - used[i]) // below[i]
            if v > cap:
                break
            values[i], caps[i], used[i + 1] = v, cap, used[i] + v
            i += 1
        else:
            yield moved, tuple(values)
            moved = size
        i -= 1  # move the deepest position below its cap, refill after it
        while i >= 0 and values[i] == caps[i]:
            i -= 1
        if i < 0:
            return
        values[i] += 1
        used[i + 1] += 1
        moved = min(moved, i)
        i += 1
