import pytest

from qthook import dposet, hookformula
from qthook.partitions import Partition
from qthook.dposet import (
    ColoredPoset,
    build_banner,
    build_bird,
    build_shifted,
    d_complete_check,
    enumerate_p_partitions,
    fill_order,
    find_dk_intervals,
    hook_monomials,
    hook_monomials_closed_form,
)

from p_maps import p_partitions

P = Partition


def test_shifted_single_box():
    poset = build_shifted(P([1]))
    assert poset.elements == [(1, 1)]
    assert poset.color[(1, 1)] == "z0"
    assert hook_monomials(poset)[(1, 1)] == {"z0": 1}


def test_shifted_21_chain():
    poset = build_shifted(P([2, 1]))
    assert sorted(poset.elements) == [(1, 1), (1, 2), (2, 2)]
    assert poset.le((2, 2), (1, 2)) and poset.le((1, 2), (1, 1))
    assert poset.color[(1, 1)] == "z0"
    assert poset.color[(1, 2)] == "z1"
    assert poset.color[(2, 2)] == "z0p"
    assert poset.rank == {(1, 1): 0, (1, 2): 1, (2, 2): 2}
    hooks = hook_monomials(poset)
    assert hooks[(2, 2)] == {"z0p": 1}
    assert hooks[(1, 2)] == {"z0p": 1, "z1": 1}
    assert hooks[(1, 1)] == {"z0": 1, "z0p": 1, "z1": 1}
    assert find_dk_intervals(poset) == []


def test_shifted_8521_matches_figure():
    poset = build_shifted(P([8, 5, 2, 1]))
    assert len(poset) == 16
    rows = {}
    for (i, j) in poset.elements:
        rows.setdefault(i, []).append(j)
    assert sorted(rows[1]) == list(range(1, 9))
    assert sorted(rows[2]) == list(range(2, 7))
    assert sorted(rows[3]) == [3, 4]
    assert sorted(rows[4]) == [4]


def test_shifted_32_dk_interval():
    poset = build_shifted(P([3, 2]))
    ivs = find_dk_intervals(poset)
    assert len(ivs) == 1
    iv = ivs[0]
    assert iv.k == 3 and iv.top == (1, 2) and iv.bottom == (2, 3)
    assert iv.sides == frozenset({(1, 3), (2, 2)})


def test_kept_dk_intervals_are_not_the_callers_list():
    poset = build_bird(P([4, 3]), P([4, 2]), 2)
    first = find_dk_intervals(poset)
    want = list(first)
    first.clear()
    again = find_dk_intervals(poset)
    assert again == want and again is not find_dk_intervals(poset)
    again.append(again.pop(0)._replace(k=9))
    assert d_complete_check(poset) == (True, None)
    assert find_dk_intervals(poset) == want


def test_bird_figure_instance():
    poset = build_bird(P([4, 3]), P([4, 2]), 2)
    # 2f + |alpha| + |beta| - 2 = 15 vertices for these parameters
    assert len(poset) == 15
    assert poset.top == (1, -1)
    assert poset.rank[(1, -1)] == 0 and poset.rank[(1, 1)] == 2
    # d3-interval with top (1,1), bottom (2,2)
    tops = {(iv.k, iv.top, iv.bottom) for iv in find_dk_intervals(poset)}
    assert (3, (1, 1), (2, 2)) in tops
    assert (4, (1, 0), (3, 3)) in tops
    assert (5, (1, -1), (4, 4)) in tops
    ok, reason = d_complete_check(poset)
    assert ok, reason


def test_bird_element_count_formula():
    for (a, b, f) in [((2, 1), (2, 1), 1), ((4, 3), (3, 2), 2)]:
        poset = build_bird(P(a), P(b), f)
        assert len(poset) == 2 * f + sum(a) + sum(b) - 2
        ok, reason = d_complete_check(poset)
        assert ok, reason


def test_bird_top_tree():
    poset = build_bird(P([4, 3]), P([3, 2]), 2)
    f, a1, b1 = 2, 4, 3
    expected = {(1, j) for j in range(-f + 1, a1 + 1)} | \
        {(i, 1) for i in range(1, b1 + 1)}
    assert poset.top_tree == expected


def test_banner_figure_instance():
    poset = build_banner(P([9, 6, 3, 2]), 2)
    assert len(poset) == 22
    assert poset.top == (1, 0)
    assert poset.color[(2, 2)] == "z0p"
    assert poset.color[(4, 3)] == "zm1"
    ok, reason = d_complete_check(poset)
    assert ok, reason
    # tail hangs under (3,3)
    assert poset.le((4, 3), (3, 3))
    assert not poset.le((4, 3), (4, 4)) and not poset.le((4, 4), (4, 3))


def test_banner_top_tree_shape():
    poset = build_banner(P([4, 3, 2, 1]), 2)
    f, a1 = 2, 4
    expected = {(1, j) for j in range(-f + 2, a1 + 1)} | {(2, 2)}
    assert poset.top_tree == expected
    ok, reason = d_complete_check(poset)
    assert ok, reason


def test_d_complete_rejects_incomplete_diamond():
    # two elements covering a common bottom with no top: (D1) must fail
    elems = [(2, 1), (1, 1), (2, 2)]  # (2,2) covered by (2,1) and (1,1)... build manually

    def block_of(e):
        return {1}

    def color_of(e):
        return f"c{e[0]}{e[1]}"

    poset = ColoredPoset("custom", {}, [(1, 1), (1, 2), (2, 1), (2, 2)],
                         block_of, color_of)
    # top > x > a > w and top > y > b > w: w is covered by a and b (a d_3^-),
    # and nothing covers both a and b
    top, x, y, a, b, w = (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)
    blocks = {top: {1, 2}, x: {1}, a: {1, 3}, y: {2}, b: {2, 4}, w: {3, 4}}
    hexagon = ColoredPoset("custom", {}, list(blocks), blocks.get, color_of)
    assert hexagon.rank == {top: 0, x: 1, y: 1, a: 2, b: 2, w: 3}
    ok, reason = d_complete_check(hexagon)
    assert not ok and reason == "(D1) fails for d_3^- at bottom (3, 3)"
    ok, reason = d_complete_check(poset)
    assert ok


def _blocked(blocks):
    """A poset on the cells of ``blocks`` (cell -> order blocks)."""
    return ColoredPoset("custom", {}, list(blocks), blocks.get,
                        lambda e: f"c{e[0]}{e[1]}")


def test_d_complete_rejects_a_cover_outside_a_diamond():
    # the diamond [w, v] = {w, x, y, v}, and v also covers u, in a block of
    # its own: (D2) fails
    top, x, y, w, u = (0, 0), (0, 1), (1, 0), (1, 1), (5, 5)
    poset = _blocked({top: {1, 2}, x: {1}, y: {1}, w: {1}, u: {2}})
    ok, reason = d_complete_check(poset)
    assert not ok
    assert reason.startswith("(D2) fails for DkInterval(bottom=(1, 1)")
    assert reason.endswith("top covers (5, 5) outside")


def test_d_complete_rejects_two_bottoms_under_one_pair():
    # x and y cover both w1 and w2 (in different blocks): two d_3^- share
    # their maximal elements, and (D3) fails
    top, x, y, w1, w2 = (0, 0), (0, 1), (1, 0), (1, 1), (5, 5)
    poset = _blocked({top: {1, 2}, x: {1, 2}, y: {1, 2}, w1: {1}, w2: {2}})
    assert d_complete_check(poset) == (
        False, "(D3) fails: d_3^- duplicated above (5, 5)")


@pytest.mark.parametrize("family,args", [
    ("shifted", (P([1]),)),
    ("shifted", (P([2, 1]),)),
    ("shifted", (P([3, 1]),)),
    ("shifted", (P([3, 2]),)),
    ("shifted", (P([4, 2, 1]),)),
    ("bird", (P([4, 3]), P([3, 2]), 2)),
    ("bird", (P([2, 1]), P([2, 1]), 1)),
    ("banner", (P([4, 3, 2, 1]), 2)),
    ("banner", (P([9, 6, 3, 2]), 2)),
])
def test_hook_recursion_matches_closed_form(family, args):
    if family == "shifted":
        poset = build_shifted(*args)
    elif family == "bird":
        poset = build_bird(*args)
    else:
        poset = build_banner(*args)
    ok, reason = d_complete_check(poset)
    assert ok, reason
    rec = hook_monomials(poset)
    assert rec == hook_monomials_closed_form(poset)  # cell by cell
    assert len(rec) == len(poset)
    for mono in rec.values():
        assert all(e >= 0 for e in mono.values())
        assert sum(mono.values()) >= 1


def test_bird_hook_examples():
    poset = build_bird(P([4, 3]), P([3, 2]), 2)
    hooks = hook_monomials(poset)
    # tail top (3,3): x~_1 = x1 x2 = zm1 zm2
    assert hooks[(3, 3)] == {"zm1": 1, "zm2": 1}
    # branch element (2,2): x~_0 y~_{beta_2} z~_{alpha_2} = z0 zm1 zm2 z1p z1 z2
    assert hooks[(2, 2)] == {"z0": 1, "zm1": 1, "zm2": 1, "z1p": 1,
                             "z1": 1, "z2": 1}


def test_shifted_21_closed_form_monomials():
    poset = build_shifted(P([2, 1]))
    closed = hook_monomials_closed_form(poset)
    assert closed[(2, 2)] == {"z0p": 1}
    assert closed[(1, 2)] == {"z0p": 1, "z1": 1}
    assert closed[(1, 1)] == {"z0": 1, "z0p": 1, "z1": 1}


def test_coloring_c1_to_c4():
    for poset in (build_shifted(P([3, 2])),
                  build_bird(P([4, 3]), P([3, 2]), 2),
                  build_banner(P([4, 3, 2, 1]), 2)):
        for x in poset.elements:
            for y in poset.elements:
                if x >= y:
                    continue
                cx, cy = poset.color[x], poset.color[y]
                incomparable = not poset.le(x, y) and not poset.le(y, x)
                if incomparable:
                    assert cx != cy, (x, y)  # (C1)
        for lo, hi in poset.covers:
            assert poset.color[lo] != poset.color[hi]  # (C2)
        # (C3): chain intervals carry distinct colors
        for x in poset.elements:
            for y in poset.elements:
                if not poset.le(x, y):
                    continue
                members = poset.interval(x, y)
                if all(poset.le(a, b) or poset.le(b, a)
                       for a in members for b in members):
                    colors = [poset.color[e] for e in members]
                    assert len(set(colors)) == len(colors), (x, y)
        # (C4): d_k-interval endpoints share a color
        for iv in find_dk_intervals(poset):
            assert poset.color[iv.bottom] == poset.color[iv.top]


def test_enumerate_p_partitions_counts():
    single = build_shifted(P([1]))
    assert len(p_partitions(single, 2)) == 3
    chain = build_shifted(P([2, 1]))
    # weakly increasing triples down the chain with sum <= 2
    assert len(p_partitions(chain, 2)) == 4
    for pi in p_partitions(chain, 3):
        assert pi[(1, 1)] <= pi[(1, 2)] <= pi[(2, 2)]


def brute_force_p_partitions(poset, bound):
    """Every map of weight <= bound, in lexicographic order along
    fill_order, kept where it reverses the order: no pruning at all."""
    order = fill_order(poset)

    def maps(pos, left):
        if pos == len(order):
            yield {}
            return
        for v in range(left + 1):
            for rest in maps(pos + 1, left - v):
                yield {order[pos]: v, **rest}

    return [pi for pi in maps(0, bound)
            if all(pi[x] >= pi[y] for x in order for y in order
                   if poset.le(x, y))]


@pytest.mark.parametrize("poset, D", [
    (build_shifted(P([3, 2])), 6),
    (build_bird(P([2, 1]), P([2, 1]), 1), 6),
    (build_banner(P([4, 3, 2, 1]), 2), 5),
], ids=["shifted", "bird", "banner"])
def test_pruned_enumeration_matches_brute_force(poset, D):
    pis = p_partitions(poset, D)
    assert len(pis) > 20
    assert pis == brute_force_p_partitions(poset, D)


def recursive_p_partitions(poset, bound):
    """The same pruned walk with one generator frame per position: the
    reference the odometer must reproduce, map for map and key for key."""
    order = fill_order(poset)
    values = {}

    def rec(pos, used):
        if pos == len(order):
            yield dict(values)
            return
        e = order[pos]
        lo = max((values[u] for u in poset.upper_covers(e)), default=0)
        for v in range(lo, (bound - used) // len(poset.downset(e)) + 1):
            values[e] = v
            yield from rec(pos + 1, used + v)
        values.pop(e, None)

    return list(rec(0, 0))


@pytest.mark.parametrize("poset, D", [
    (build_shifted(P([4, 2, 1])), 7),
    (build_bird(P([3, 2]), P([2, 1]), 2), 5),
    (build_banner(P([9, 6, 3, 2]), 2), 5),
    (build_banner(P([4, 3, 2, 1]), 2), 0),
], ids=["shifted", "bird", "banner", "bound-0"])
def test_odometer_matches_the_recursive_walk(poset, D):
    order = fill_order(poset)
    walk = list(enumerate_p_partitions(poset, D))
    got = [values for _, values in walk]
    assert got == [tuple(pi[e] for e in order)
                   for pi in recursive_p_partitions(poset, D)]
    assert all(isinstance(values, tuple) and len(values) == len(order)
               for values in got)
    # moved: the first position where a map differs from the one before
    assert [moved for moved, _ in walk] == [0] + [
        next(i for i, (u, v) in enumerate(zip(before, after)) if u != v)
        for before, after in zip(got, got[1:])]
    if D == 0:
        assert got == [(0,) * len(order)]
    else:
        assert len(got) > 50
    assert list(enumerate_p_partitions(poset, -1)) == []


class MatrixPoset:
    """The order as a boolean matrix, closed and scanned pairwise: the
    reference the bitmask construction of ColoredPoset must reproduce."""

    def __init__(self, elements, block_of):
        self.elements = sorted(set(elements))
        self.index = {e: k for k, e in enumerate(self.elements)}
        n = len(self.elements)
        geq = [[bool(block_of(a) & block_of(b)) and a[0] <= b[0] and a[1] <= b[1]
                for b in self.elements] for a in self.elements]
        for k in range(n):  # transitive closure
            for a in range(n):
                if geq[a][k]:
                    for b in range(n):
                        if geq[k][b]:
                            geq[a][b] = True
        self.geq = geq
        self.covers = [(eb, ea) for a, ea in enumerate(self.elements)
                       for b, eb in enumerate(self.elements)
                       if a != b and geq[a][b]
                       and not any(geq[a][c] and geq[c][b] and c not in (a, b)
                                   for c in range(n))]
        upper = {e: [hi for lo, hi in self.covers if lo == e]
                 for e in self.elements}
        self.rank = {}
        for e in sorted(self.elements, key=lambda e: len(self.upset(e))):
            self.rank[e] = max((self.rank[u] + 1 for u in upper[e]), default=0)
        multi = {e for e in self.elements if len(upper[e]) > 1}
        self.top_tree = {e for e in self.elements
                         if not multi & set(self.upset(e))}

    def le(self, x, y):
        return self.geq[self.index[y]][self.index[x]]

    def upset(self, e):
        return [f for f in self.elements if self.le(e, f)]

    def interval(self, w, v):
        return [e for e in self.elements if self.le(w, e) and self.le(e, v)]

    def diamond_shape(self, members):
        incomp = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]
                  if not self.le(a, b) and not self.le(b, a)]
        if len(incomp) != 1:
            return None
        x, y = incomp[0]
        chain = [e for e in members if e not in (x, y)]
        below = [e for e in chain if self.le(e, x)]
        above = [e for e in chain if self.le(x, e)]
        if (len(below) + len(above) != len(chain)
                or any(not self.le(e, y) for e in below)
                or any(not self.le(y, e) for e in above)):
            return None
        return (x, y), len(below), len(above)

    def dk_intervals(self, minus=False):
        """(w, v, k, sides) of every d_k(1) interval, or of every d_k(1)
        minus its top with k >= 4 when ``minus`` is set."""
        out = []
        for w in self.elements:
            for v in self.elements:
                if w == v or not self.le(w, v):
                    continue
                members = self.interval(w, v)
                size = len(members)
                if size < 4 + minus or size % 2 != minus:
                    continue
                k = (size + 2 + minus) // 2
                shape = self.diamond_shape(members)
                if shape and shape[1:] == (k - 2, k - 2 - minus):
                    out.append((w, v, k, frozenset(shape[0])))
        return out


def reference_weight_plan(ref, color):
    """hookformula._weight_plan rebuilt pairwise from the matrix order,
    without its parity checks."""
    tree = ref.top_tree
    edges = {frozenset((color[lo], color[hi])) for lo, hi in ref.covers
             if lo in tree and hi in tree}
    adjacent, equal = [], []
    for x in ref.elements:
        for y in ref.elements:
            if x == y or not ref.le(x, y):
                continue
            diff = ref.rank[x] - ref.rank[y]
            if frozenset((color[x], color[y])) in edges:
                adjacent.append((x, y, (diff - 1) // 2))
            elif color[x] == color[y]:
                equal.append((x, y, diff // 2))
    top = next(e for e in ref.elements if ref.rank[e] == 0)
    hat = [(x, ref.rank[x] // 2) for x in ref.elements
           if color[x] == color[top]]
    return tuple(adjacent), tuple(equal), tuple(hat)


@pytest.mark.parametrize("build, args", [
    (build_shifted, (P([4, 2, 1]),)),
    (build_bird, (P([3, 2]), P([2, 1]), 2)),
    (build_banner, (P([4, 3, 2, 1]), 2)),
    (build_banner, (P([9, 6, 3, 2]), 2)),
    (build_bird, (P([4, 3]), P([3, 2]), 2)),
    (build_bird, (P([5, 3]), P([4, 2]), 1)),
    (build_shifted, (P([9, 7, 5, 3, 1]),)),
    (build_shifted, (P([6, 4, 3, 1]),)),
    (build_banner, (P([6, 4, 3, 2]), 2)),
    (build_banner, (P([5, 4, 2, 1]), 3)),
], ids=["shifted", "bird", "banner", "banner-9632", "bird-43-32-2",
        "bird-53-42-1", "shifted-97531", "shifted-6431", "banner-6432-2",
        "banner-5421-3"])
def test_bitmask_poset_matches_the_matrix_construction(build, args,
                                                       monkeypatch):
    refs, real = [], dposet.ColoredPoset

    def recorded(family, params, elements, block_of, color_of):
        refs.append(MatrixPoset(elements, block_of))
        return real(family, params, elements, block_of, color_of)

    monkeypatch.setattr(dposet, "ColoredPoset", recorded)
    poset = build(*args)
    monkeypatch.undo()
    (ref,) = refs
    assert poset.elements == ref.elements
    assert [[poset.le(x, y) for y in ref.elements] for x in ref.elements] == \
        [[ref.le(x, y) for y in ref.elements] for x in ref.elements]
    assert poset.covers == ref.covers
    assert poset.rank == ref.rank
    assert poset.top_tree == ref.top_tree
    assert [(iv.bottom, iv.top, iv.k, iv.sides)
            for iv in find_dk_intervals(poset)] == ref.dk_intervals()
    assert [(w, k, members, maxima) for k, members, maxima, w
            in dposet._find_dk_minus(poset) if k >= 4] == \
        [(w, k, frozenset(ref.interval(w, v)), frozenset((v,)))
         for w, v, k, _ in ref.dk_intervals(minus=True)]
    assert hookformula._weight_plan(poset) == \
        reference_weight_plan(ref, poset.color)
    hooks = hook_monomials(poset)
    ref.color = poset.color
    ref.downset = lambda e: [f for f in ref.elements if ref.le(f, e)]
    monkeypatch.setattr(dposet, "find_dk_intervals", lambda p: [
        dposet.DkInterval(*iv) for iv in p.dk_intervals()])
    assert hook_monomials(ref) == hooks


def test_antichain_p_partition_count():
    # a top over the antichain (1, 2), (2, 1): of weight <= 2 the top takes
    # 0, so by stars and bars the maps are all pairs with sum <= 2
    poset = ColoredPoset("custom", {}, [(1, 1), (1, 2), (2, 1)],
                         lambda e: {1}, lambda e: f"c{e[0]}{e[1]}")
    assert poset.top == (1, 1)
    assert len(p_partitions(poset, 2)) == 6


def test_p_partition_count_matches_hook_product_at_t_equals_q():
    # at t = q every weight is 1, so the number of P-partitions of weight
    # <= D equals the coefficient sum of the truncated hook product
    from fractions import Fraction
    from qthook.qtcore import EvalPoint
    from qthook.hookformula import rhs_series

    pt = EvalPoint(Fraction(2, 3), Fraction(2, 3))
    for poset in (build_shifted(P([3, 1])),
                  build_bird(P([2, 1]), P([2, 1]), 1)):
        rhs = rhs_series(poset, 3)
        total = sum(c.evaluate(pt) for c in rhs.terms.values())
        count = len(p_partitions(poset, 3))
        assert total == count

def test_longer_tails_f3():
    # f = 3 exercises deeper head/tail chains and d5/d6 intervals
    for poset in (build_bird(P([3, 2]), P([3, 1]), 3),
                  build_banner(P([5, 3, 2, 1]), 3),
                  build_shifted(P([5, 4, 3, 2, 1]))):
        ok, reason = d_complete_check(poset)
        assert ok, reason
        assert hook_monomials(poset) == hook_monomials_closed_form(poset), \
            poset
