"""The three d-complete poset families: shifted shapes, birds and banners.

Coordinates follow the matrix convention (a northwest vertex is larger).
Colors are variable names: z0, z1, ... for integer colors, zm1, zm2, ... for
negative ones and z1p, z2p, ... (z0p) for primed ones.
"""

from __future__ import annotations

from typing import NamedTuple

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
        self.elements = elements = sorted(set(elements))
        self.index = {e: k for k, e in enumerate(elements)}
        n = len(elements)

        # down[a]: bit b set iff a >= b; up[b]: bit a set iff a >= b.  The
        # elements are sorted, so a >= b puts b at or after a (and a row
        # after a is never above it): each row is closed from the closed
        # rows after it, and its lowest bit outside the downsets taken so
        # far is a maximal element below a, a cover.
        blocks = [block_of(e) for e in elements]
        down, up = [0] * n, [0] * n
        lowers, uppers = [[] for _ in elements], [[] for _ in elements]
        for a in range(n - 1, -1, -1):
            ja, m = elements[a][1], 1 << a
            for b in range(a + 1, n):
                if ja <= elements[b][1] and blocks[a] & blocks[b]:
                    m |= 1 << b
            rest = m ^ 1 << a
            while rest:
                b = (rest & -rest).bit_length() - 1
                lowers[a].append(b)
                m |= down[b]
                rest &= ~down[b]
            down[a] = rest = m
            while rest:
                low = rest & -rest
                up[low.bit_length() - 1] |= 1 << a
                rest ^= low
        for a, los in enumerate(lowers):
            for b in los:
                uppers[b].append(a)
        # each element's lower and upper covers by index (an upper one is smaller)
        self._down, self._up = down, up
        self._lowers, self._uppers = lowers, uppers
        self.color = {e: color_of(e) for e in elements}
        self.covers = [(elements[b], hi) for hi, los in zip(elements, lowers)
                       for b in los]  # (lower, upper) pairs

        maxima = [e for e, ups in zip(elements, uppers) if not ups]
        if len(maxima) != 1:
            raise ValueError(f"poset has {len(maxima)} maximal elements")
        self.top = maxima[0]

        # rank: depth from the top; every saturated chain to the top must
        # agree (Proctor's rank property).
        self._ranks = rank = [0] * n
        for a, ups in enumerate(uppers):
            ranks = {rank[u] + 1 for u in ups} or {0}
            if len(ranks) != 1:
                raise ValueError(f"rank is not well defined at {elements[a]}")
            rank[a] = ranks.pop()
        self.rank = dict(zip(elements, rank))

        # the top tree: the elements with no multiply covered element above
        multi = 0
        for a, ups in enumerate(uppers):
            if len(ups) > 1:
                multi |= 1 << a
        self.top_tree = {e for e, u in zip(elements, up) if not u & multi}
        self.varset = VarSet(sorted(set(self.color.values()),
                                    key=_color_sort_key))

    # -- order primitives --------------------------------------------------

    def members(self, mask: int) -> list:
        """The elements whose bits ``mask`` sets, in element order."""
        out, elements = [], self.elements
        while mask:
            low = mask & -mask
            out.append(elements[low.bit_length() - 1])
            mask ^= low
        return out

    def le(self, x, y) -> bool:
        """x <= y in the poset order."""
        return bool(self._down[self.index[y]] >> self.index[x] & 1)

    def downset(self, e):
        return self.members(self._down[self.index[e]])

    def lower_covers(self, e):
        return [self.elements[b] for b in self._lowers[self.index[e]]]

    def upper_covers(self, e):
        return [self.elements[a] for a in self._uppers[self.index[e]]]

    def top_tree_adjacency(self) -> set[frozenset]:
        """Color pairs adjacent in the top tree (Hasse edges inside T)."""
        edges = set()
        for lo, hi in self.covers:
            if lo in self.top_tree and hi in self.top_tree:
                edges.add(frozenset((self.color[lo], self.color[hi])))
        return edges

    def interval(self, w, v):
        return self.members(self._up[self.index[w]] & self._down[self.index[v]])

    def __len__(self):
        return len(self.elements)


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

class DkInterval(NamedTuple):
    """[w, v] isomorphic to d_k(1): one incomparable pair plus two chains."""

    bottom: tuple
    top: tuple
    k: int
    sides: frozenset


def _intervals(poset: ColoredPoset, sizes):
    """(w, v, mask, sides) of each interval [w, v] with w < v shaped like a
    d_k(1), with or without its top, whose size is in ``sizes``, in element
    order of w, then of v: one walk over the bits of each up mask.

    The poset is graded, so the size is one more than the number of ranks
    exactly when one rank holds two members, the sides, and every other one
    member; the sides are then the one incomparable pair.  The shape is a
    d_k(1) (even size) or one minus its top (odd) when the sides lie k - 2
    ranks above w, half the rank difference rounded up.
    """
    down, elements, rank = poset._down, poset.elements, poset._ranks
    level = {}  # each rank's elements, as bits
    for a, r in enumerate(rank):
        level[r] = level.get(r, 0) | 1 << a
    for w, up in enumerate(poset._up):
        rest = up ^ 1 << w
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            diff = rank[w] - rank[v]
            if diff + 2 in sizes:
                mask = up & down[v]
                sides = mask & level[rank[w] - (diff + 1) // 2]
                if mask.bit_count() == diff + 2 and sides.bit_count() == 2:
                    yield elements[w], elements[v], mask, sides


def find_dk_intervals(poset: ColoredPoset) -> list[DkInterval]:
    """All intervals isomorphic to some d_k(1), k >= 3: walked once per
    poset and kept on it, each caller getting a fresh list."""
    kept = getattr(poset, "_dk_intervals", None)
    if kept is None:
        walk = _intervals(poset, range(4, len(poset) + 1, 2))
        kept = poset._dk_intervals = tuple(
            DkInterval(w, v, (mask.bit_count() + 2) // 2,
                       frozenset(poset.members(sides)))
            for w, v, mask, sides in walk)
    return list(kept)


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
    for w, u, mask, _ in _intervals(poset, range(5, len(poset) + 1, 2)):
        out.append(((mask.bit_count() + 3) // 2, frozenset(poset.members(mask)),
                    frozenset((u,)), w))
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
# Tables on fill positions (the weight plan and the diamond recursion of the
# hooks among them), and the closed-form hook tables.
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


class PosetTables(NamedTuple):
    """A poset's tables on fill positions, position i holding the element
    ``order[i]`` (``poset_tables``)."""

    order: tuple   # the linear extension of the P-partition walk
    uppers: tuple  # each position's upper covers, as positions
    below: tuple   # the size of each position's downset
    colors: tuple  # the varset index of each position's color
    plan: tuple    # the weight pairs (adjacent, equal, hat), on positions
    ms: tuple      # the m of each f(n; m) the plan reaches, ascending
    hooks: tuple   # each position's hook monomial, an exponent vector


def poset_tables(poset: ColoredPoset) -> PosetTables:
    """The tables of every hook check, from one pass over the masks, kept.

    ``order`` is top-down by rank, ties in element order: every larger
    element comes first (asserted).  The weight plan: comparable pairs (i,
    j, m), i the lower position, of colors adjacent in the top tree, each
    contributing f(pi_i - pi_j; m); equal-color pairs (i, j, e), each
    dividing by f(pi_i - pi_j; e) f(pi_i - pi_j; e - 1); and hat pairs (i,
    d) of the top's color, each contributing f(pi_i; d); m, e and d from the
    ranks, whose parities are checked.  The hooks, bottom-up: an element
    topping a d_k-interval gets hook(x) hook(y) / hook(w) (for d-complete P
    the same for every such interval, asserted), any other the colors of
    its downset, counted."""
    kept = getattr(poset, "_tables", None)
    if kept is not None:
        return kept
    elements, down, up, rank = poset.elements, poset._down, poset._up, poset._ranks
    n, names = len(elements), poset.varset.index
    order = sorted(range(n), key=rank.__getitem__)
    pos = [0] * n
    for i, a in enumerate(order):
        pos[a] = i
    color = [names[poset.color[e]] for e in elements]
    same = [0] * len(names)  # the elements of each color, as bits
    for a, c in enumerate(color):
        same[c] |= 1 << a
    near = [0] * len(names)  # the elements of a color adjacent to each
    for edge in poset.top_tree_adjacency():  # {c} joins c to itself
        c, d = (names[x] for x in (*edge, *edge)[:2])
        near[c] |= same[d]
        near[d] |= same[c]
    adjacent, equal, hat, index = [], [], [], poset.index
    for a, x in enumerate(elements):
        i, above = pos[a], up[a] ^ 1 << a
        near_a = above & near[color[a]]
        for pairs, rest, parity, kind in (
                (adjacent, near_a, 1, "odd"),
                (equal, above & same[color[a]] & ~near_a, 0, "even")):
            while rest:  # a < b
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                j, diff, y = pos[b], rank[a] - rank[b], elements[b]
                if j >= i:
                    raise AssertionError(f"{y} is filled after {x}")
                if diff % 2 != parity:
                    raise AssertionError(f"{kind}-rank parity fails at {x} < {y}")
                pairs.append((i, j, diff // 2))
        if color[a] == color[index[poset.top]]:  # (x, 1-hat): rank -1
            if rank[a] % 2 != 0:
                raise AssertionError(f"hat parity fails at {x}")
            hat.append((i, rank[a] // 2))
    by_top = {}
    for iv in find_dk_intervals(poset):
        by_top.setdefault(index[iv.top], []).append(
            [index[e] for e in (*iv.sides, iv.bottom)])
    hooks = [()] * n
    for a in reversed(order):
        tops = by_top.get(a)
        if not tops:  # the colors of the downset, counted
            vec, rest = [0] * len(names), down[a]
            while rest:
                low = rest & -rest
                rest ^= low
                vec[color[low.bit_length() - 1]] += 1
            hooks[a] = tuple(vec)
            continue
        results = [tuple(p + q - r for p, q, r in zip(hooks[x], hooks[y],
                                                       hooks[w]))
                   for x, y, w in tops]
        # unrun: internal invariant; the recursion is proved for d-complete P
        if any(r != results[0] for r in results[1:]):
            raise AssertionError(f"diamond rule disagrees at {elements[a]}")
        # unrun: internal invariant; a hook of a d-complete P is a monomial
        if min(results[0]) < 0:
            raise ValueError(f"negative hook exponent at {elements[a]}")
        hooks[a] = results[0]
    rows = zip(*[(elements[a], tuple([pos[b] for b in poset._uppers[a]]),
                  down[a].bit_count(), color[a], hooks[a]) for a in order])
    order, uppers, below, colors, hooks = rows
    poset._tables = PosetTables(
        order, uppers, below, colors,
        (tuple(adjacent), tuple(equal), tuple(hat)),
        tuple(sorted({p[-1] for p in adjacent + hat}
                     | {e - k for *_, e in equal for k in (0, 1)})),
        hooks)
    return poset._tables


def hook_monomials(poset: ColoredPoset) -> dict:
    """Hook monomial of every element, bottom-up by rank, as a color-name
    exponent dict: the diamond recursion of ``poset_tables``."""
    tables, rank, names = poset_tables(poset), poset.rank, poset.varset.names
    return {e: {c: k for c, k in zip(names, vec) if k}
            for e, vec in sorted(zip(tables.order, tables.hooks),
                                 key=lambda p: -rank[p[0]])}


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
    """The linear extension enumerate_p_partitions fills, top-down by rank
    (ties in element order)."""
    return list(poset_tables(poset).order)


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
    tables = poset_tables(poset)
    uppers, below, size = tables.uppers, tables.below, len(tables.order)
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
        if i < moved:
            moved = i
        i += 1
