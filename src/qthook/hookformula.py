"""(q, t)-weights of P-partitions and the hook product identity itself.

The generic weight (one f-factor per color-adjacent pair, divided by the
equal-color pairs) is the ground truth; the per-family closed forms, the
trace decompositions and the Macdonald-form rewrites of both sides are all
validated against it.  It runs from a per-poset plan: the pairs, their kinds
and their f-arguments are found once per poset (where the rank parities are
also checked).  A weight counts each distinct f-argument (n, m) with its
sign (``qtcore.f_product`` turns the counts into the weight).

The hook check sets both sides up once as weight groups in one format,
(f-argument counts, packed monomial keys): the left side packs the counts
into one int, a prefix sum along one walk over all P-partitions
(``lhs_terms``); the right side, prod_v F(z^(h_v)), is a sum over hook
multiplicity vectors of prod f(k_v; 0), one walk over the multiplicities
(``series.f_product_terms``).  ``verify_okada`` then decides each distinct
monomial signature once.  The bird and banner forms take Phi and Phi-hat
from ``qtcore``.
"""

from __future__ import annotations

from .dposet import (ColoredPoset, _alias_tables, _complement, _mono_mul,
                     enumerate_p_partitions, fill_order, hook_monomials)
from .partitions import (Partition, bounded_tuples, is_horizontal_strip,
                         monotone_chains, partitions_up_to)
from .macdonald import macdonald_p, macdonald_q
from .qtcore import (EvalPoint, QTFactored, b_el, b_lambda, f_fun, f_product,
                     phi_chain, phi_hat, phi_skew, psi_skew, resampled)
from .report import VerificationReport, timed
from .series import (NO_TRUNC, MultiSeries, QTCoeff, f_product_coeff,
                     f_product_terms, key_layout, product_of_f, series_equals)

# ---------------------------------------------------------------------------
# Generic weight.
# ---------------------------------------------------------------------------

def _weight_plan(poset: ColoredPoset) -> tuple[tuple, tuple, tuple]:
    """The pairs weight_generic multiplies over, built once per poset.

    (adjacent, equal, hat): comparable pairs (x, y, m) with color-adjacent
    x < y, each contributing f(pi_x - pi_y; m); equal-color pairs (x, y, e),
    each dividing by f(pi_x - pi_y; e) f(pi_x - pi_y; e - 1); and hat pairs
    (x, d) for x of the top's color, each contributing f(pi_x; d).
    """
    plan = getattr(poset, "_weight_plan", None)
    if plan is not None:
        return plan
    edges = poset.top_tree_adjacency()
    rank, color, elements = poset.rank, poset.color, poset.elements
    adjacent, equal = [], []
    for x in elements:
        for y in elements:
            if x == y or not poset.le(x, y):
                continue
            diff = rank[x] - rank[y]
            if frozenset((color[x], color[y])) in edges:
                if diff % 2 != 1:
                    raise AssertionError(f"odd-rank parity fails at {x} < {y}")
                adjacent.append((x, y, (diff - 1) // 2))
            elif color[x] == color[y]:
                if diff % 2 != 0:
                    raise AssertionError(f"even-rank parity fails at {x} < {y}")
                equal.append((x, y, diff // 2))
    hat = []
    top_color = color[poset.top]
    for x in elements:  # pairs (x, 1-hat); the hat carries value 0, rank -1
        if color[x] == top_color:
            d = rank[x]  # (rank[x] - (-1) - 1) / 2 doubled: rank is even here
            if d % 2 != 0:
                raise AssertionError(f"hat parity fails at {x}")
            hat.append((x, d // 2))
    plan = poset._weight_plan = (tuple(adjacent), tuple(equal), tuple(hat))
    return plan


def weight_generic(poset: ColoredPoset, pi: dict) -> QTFactored:
    """W_P(pi; q, t) straight from the pair-product definition.

    The plan's pairs are counted first, the equal-color pairs before the
    adjacent and hat pairs; then each distinct f(n; m) is looked up once and
    its factor exponents are added, scaled by its signed count.

    ``pi`` maps P into the nonnegative integers, so a hat pair, which reads
    pi_x alone, never sees a negative argument.  Off P-partitions a
    negative difference on an equal-color pair raises ZeroDivisionError (it
    divides by f = 0); otherwise one on an adjacent-color pair makes the
    weight zero.
    """
    adjacent, equal, hat = _weight_plan(poset)
    counts = {}  # (n, m) -> signed multiplicity of f(n; m) in the weight
    get = counts.get
    for x, y, e in equal:
        n = pi[x] - pi[y]
        if n < 0:
            raise ZeroDivisionError(f"f({n}; {e}) = 0 divides at {x} < {y}")
        counts[n, e] = get((n, e), 0) - 1
        counts[n, e - 1] = get((n, e - 1), 0) - 1
    for x, y, m in adjacent:
        n = pi[x] - pi[y]
        if n < 0:
            return QTFactored.zero()
        counts[n, m] = get((n, m), 0) + 1
    for x, m in hat:
        n = pi[x]
        counts[n, m] = get((n, m), 0) + 1
    return f_product(counts.items())


# ---------------------------------------------------------------------------
# Closed forms on shifted arrays.
# ---------------------------------------------------------------------------

def _entry(pi: dict, i: int, j: int) -> int:
    """Array access with the boundary convention pi[i,j] = 0 off the edge."""
    if i <= 0 or j <= 0:
        return 0
    return pi[(i, j)]


def f_nd(alpha: Partition, pi: dict) -> QTFactored:
    """Off-diagonal factor of the shifted-shape weight."""
    out = QTFactored.one()
    for (i, j) in _shifted_cells(alpha):
        if i >= j:
            continue
        v = pi[(i, j)]
        for m in range(0, i + 1):
            out = out * f_fun(v - _entry(pi, i - m, j - m - 1), m)
            out = out * f_fun(v - _entry(pi, i - m - 1, j - m), m)
            out = out / f_fun(v - _entry(pi, i - m, j - m), m)
            out = out / f_fun(v - _entry(pi, i - m - 1, j - m - 1), m)
    return out


def f_d(alpha: Partition, pi: dict) -> QTFactored:
    """Diagonal factor of the shifted-shape weight (even depths only)."""
    out = QTFactored.one()
    for i in range(1, alpha.length() + 1):
        v = pi[(i, i)]
        for m in range(0, i + 1, 2):
            out = out * f_fun(v - _entry(pi, i - m - 1, i - m), m)
            out = out * f_fun(v - _entry(pi, i - m - 2, i - m - 1), m + 1)
            out = out / f_fun(v - _entry(pi, i - m, i - m), m)
            out = out / f_fun(v - _entry(pi, i - m - 2, i - m - 2), m + 1)
    return out


def _shifted_cells(alpha: Partition):
    for i in range(1, alpha.length() + 1):
        for j in range(i, alpha[i] + i):
            yield (i, j)


def weight_shifted(alpha: Partition, pi: dict) -> QTFactored:
    return f_d(alpha, pi) * f_nd(alpha, pi)


# ---------------------------------------------------------------------------
# The x-tilde monomial of Phi-hat (Phi itself lives in qtcore).
# ---------------------------------------------------------------------------

def phi_tilde(rho: dict, theta: dict, m: int, n: int, xt: dict):
    """Phi-tilde: (Phi-hat value, monomial), the monomial being the product
    of xt[i]^(rho_i + theta_i - rho_(i-1) - theta_(i-1)) for m < i <= n."""
    mono = {}
    for i in range(m + 1, n + 1):
        mono = _mono_mul(mono, xt[i],
                         rho[i] + theta[i] - rho[i - 1] - theta[i - 1])
    return phi_hat(rho, theta, m, n), mono


# ---------------------------------------------------------------------------
# Bird and banner closed forms.
# ---------------------------------------------------------------------------

def bird_views(poset: ColoredPoset, pi: dict):
    """(sigma, tau, rho, theta) views of a bird P-partition."""
    alpha, beta, f = (poset.params[k] for k in ("alpha", "beta", "f"))
    sigma = {(i, j): pi[(i, j)] for (i, j) in _shifted_cells(alpha)}
    tau = {(i, j): pi[(j, i)] for (i, j) in _shifted_cells(beta)}
    rho = {i: pi[(1, -i + 1)] for i in range(0, f + 1)}
    theta = {i: pi[(i + 2, i + 2)] for i in range(0, f + 1)}
    return sigma, tau, rho, theta


def weight_bird(poset: ColoredPoset, pi: dict) -> QTFactored:
    alpha, beta, f = (poset.params[k] for k in ("alpha", "beta", "f"))
    sigma, tau, rho, theta = bird_views(poset, pi)
    num = (f_fun(sigma[(2, 2)] - sigma[(1, 2)], 0)
           * f_fun(tau[(2, 2)] - tau[(1, 2)], 0)
           * f_fun(rho[f], 0) * f_fun(theta[f], f + 1))
    den = (f_fun(theta[0] - rho[0], 0) * f_fun(theta[0] - rho[0], 1))
    return (num / den * phi_chain(rho, theta, 0, f)
            * f_nd(alpha, sigma) * f_nd(beta, tau))


def banner_views(poset: ColoredPoset, pi: dict):
    """(sigma, rho, theta) views of a banner P-partition."""
    alpha, f = poset.params["alpha"], poset.params["f"]
    sigma = {(i, j): pi[(i, j)] for (i, j) in _shifted_cells(alpha)}
    rho = {i: pi[(1, -i + 2)] for i in range(1, f + 1)}
    theta = {i: pi[(i + 2, 3)] for i in range(1, f + 1)}
    return sigma, rho, theta


def weight_banner(poset: ColoredPoset, pi: dict) -> QTFactored:
    # Phi-hat carries the boundary ratio f(rho_f;0) f(theta_f;f+1) /
    # (f(rho_1;0) f(theta_1;2)); its denominator cancels the two virtual-top
    # factors that f_d manufactures on the odd wing diagonals.
    alpha, f = poset.params["alpha"], poset.params["f"]
    sigma, rho, theta = banner_views(poset, pi)
    return (phi_hat(rho, theta, 1, f)
            * f_d(alpha, sigma) * f_nd(alpha, sigma))


def weight_closed_form(poset: ColoredPoset, pi: dict) -> QTFactored:
    if poset.family == "shifted":
        return weight_shifted(poset.params["alpha"], pi)
    if poset.family == "bird":
        return weight_bird(poset, pi)
    if poset.family == "banner":
        return weight_banner(poset, pi)
    raise ValueError(f"no closed form for family {poset.family!r}")


# ---------------------------------------------------------------------------
# Traces and the bracketed Pieri products.
# ---------------------------------------------------------------------------

def epsilon_seq(alpha: Partition, n: int) -> tuple[int, ...]:
    """+1 at positions that are parts of alpha, else -1."""
    if n < alpha[1]:
        raise ValueError("need n >= alpha_1")
    parts = set(alpha.parts)
    return tuple(+1 if k in parts else -1 for k in range(1, n + 1))


def traces(alpha: Partition, array: dict, n: int) -> list[Partition]:
    """Diagonal traces pi[0..n] of a shifted array, read SE to NW."""
    out = []
    for k in range(n + 1):
        vals = []
        i = 1
        while (i, k + i) in array:
            vals.append(array[(i, k + i)])
            i += 1
        out.append(Partition(sorted(vals, reverse=True)))
    return out


def bracket_psi(chain: list[Partition], eps: tuple[int, ...]) -> QTFactored:
    """psi^eps over a trace chain (psi on +1 steps, phi on -1 steps)."""
    return _bracket(chain, eps, psi_first=True)


def bracket_phi(chain: list[Partition], eps: tuple[int, ...]) -> QTFactored:
    """phi^eps over a trace chain (phi on +1 steps, psi on -1 steps)."""
    return _bracket(chain, eps, psi_first=False)


def _bracket(chain, eps, psi_first: bool) -> QTFactored:
    if len(chain) != len(eps) + 1:
        raise ValueError("chain length must be len(eps) + 1")
    out = QTFactored.one()
    for i, e in enumerate(eps, start=1):
        prev, cur = chain[i - 1], chain[i]
        if e == +1:
            if not is_horizontal_strip(prev, cur):
                raise ValueError(f"chain not compatible with eps at step {i}")
            out = out * (psi_skew(prev, cur) if psi_first else phi_skew(prev, cur))
        else:
            if not is_horizontal_strip(cur, prev):
                raise ValueError(f"chain not compatible with eps at step {i}")
            out = out * (phi_skew(cur, prev) if psi_first else psi_skew(cur, prev))
    return out


def weight_via_traces(poset: ColoredPoset, pi: dict, horizon: int | None = None):
    """(weight, monomial-exponent-dict) in trace form, per family."""
    fam = poset.family
    al = _alias_tables(poset)
    alpha = poset.params["alpha"]
    m = horizon if horizon is not None else alpha[1]
    if fam == "shifted":
        tr = traces(alpha, pi, m)
        weight = b_el(tr[0]) * bracket_psi(tr, epsilon_seq(alpha, m))
        wexp = (tr[0].weight() - tr[0].odd_columns()) // 2
        return weight, _trace_monomial(_mono_mul({}, al["w"], wexp),
                                       al["zt"], tr)
    if fam == "bird":
        beta, f = poset.params["beta"], poset.params["f"]
        sigma, tau, rho, theta = bird_views(poset, pi)
        n = horizon if horizon is not None else beta[1]
        tr_s = traces(alpha, sigma, m)
        tr_t = traces(beta, tau, n)
        hat, mono = phi_tilde(rho, theta, 0, f, al["xt"])
        weight = (hat * bracket_psi(tr_s, epsilon_seq(alpha, m))
                  * bracket_phi(tr_t, epsilon_seq(beta, n)))
        mono = _mono_mul(mono, al["xt"][0], rho[0] + theta[0])
        mono = _trace_monomial(mono, al["zt"], tr_s)
        return weight, _trace_monomial(mono, al["yt"], tr_t)
    f = poset.params["f"]  # a banner: _alias_tables raised for the rest
    sigma, rho, theta = banner_views(poset, pi)
    tr = traces(alpha, sigma, m)
    hat, mono = phi_tilde(rho, theta, 1, f, al["xt"])
    weight = hat * b_el(tr[0]) * bracket_psi(tr, epsilon_seq(alpha, m))
    mono = _mono_mul(mono, _mono_mul(al["xt"][2], al["w"]),
                     sigma[(1, 1)] + sigma[(3, 3)])
    return weight, _trace_monomial(mono, al["zt"], tr)


def _trace_monomial(mono: dict, tilde: dict, tr: list[Partition]) -> dict:
    """mono times tilde[i]^(|tr[i-1]| - |tr[i]|) for each step i of a trace
    chain; horizons beyond the wing pad with empty traces, exponent 0."""
    for i in range(1, len(tr)):
        exp = tr[i - 1].weight() - tr[i].weight()
        if exp:
            mono = _mono_mul(mono, tilde[i], exp)
    return mono


# ---------------------------------------------------------------------------
# Both sides of the hook formula as truncated series.
# ---------------------------------------------------------------------------

def lhs_terms(poset: ColoredPoset, trunc: int) -> list[tuple[tuple, list[int]]]:
    """(counts, monomial keys) groups of the P-partition sum of W(pi) z^pi.

    One walk over ``enumerate_p_partitions``.  The weight key is one int
    with a field of ``width`` bits for each f(n; m), n >= 1, that the plan
    reaches (f(0; m) = 1), holding its signed count as a balanced digit; no
    count reaches the pair count, < 2^(width - 1), so equal keys are equal
    counts.  A pair adds its field at the position of its lower element in
    ``fill_order``, through a row over n per partner, and every partner
    comes first (the hat's is the 0 appended to each map).  ``wk``/``zk``
    are prefix sums of that key and of z^pi's ``key_layout`` key, so a
    P-partition recomputes only from the position the walk moved, where it
    first differs from the one before.  A group's key is decoded once into
    its counts, the ((n, m), c) pairs with c != 0 of the weight
    prod f(n; m)^c (``qtcore.f_product``); groups come in the order of
    their first P-partition and list their z^pi in enumeration order.
    """
    order = fill_order(poset)
    size = len(order)
    pos = {e: i for i, e in enumerate(order)}
    adjacent, equal, hat = _weight_plan(poset)
    pairs = [(pos[x], pos[y], e - k, -1) for x, y, e in equal for k in (0, 1)]
    pairs += [(pos[x], pos[y], m, 1) for x, y, m in adjacent]
    pairs += [(pos[x], size, m, 1) for x, m in hat]
    ms = sorted({m for *_, m, _ in pairs})
    fields = [(n, m) for n in range(1, trunc + 1) for m in ms]
    width = len(pairs).bit_length() + 1
    shift = {field: k * width for k, field in enumerate(fields)}
    rows = [{} for _ in order]  # position -> partner -> row over n
    for i, j, m, sign in pairs:
        if i <= j < size:
            raise AssertionError(f"{order[j]} is filled after {order[i]}")
        row = rows[i].setdefault(j, [0] * (trunc + 1))
        for n in range(1, trunc + 1):
            row[n] += sign << shift[n, m]
    closes = [tuple(r.items()) for r in rows]
    units = key_layout(len(poset.varset), trunc).units
    unit = [units[poset.varset.index[poset.color[e]]] for e in order]
    wk, zk = [0] * (size + 1), [0] * (size + 1)
    groups = {}
    for moved, values in enumerate_p_partitions(poset, trunc):
        vals = values + (0,)
        w, z = wk[moved], zk[moved]
        for i in range(moved, size):
            v = vals[i]
            for j, row in closes[i]:
                w += row[v - vals[j]]
            z += v * unit[i]
            wk[i + 1], zk[i + 1] = w, z
        groups.setdefault(w, []).append(z)

    def counts(key):
        """The ((n, m), count) pairs of a weight key, lowest field first."""
        half = 1 << width - 1
        out = []
        for field in fields:
            if not key:
                break
            c = (key + half) % (2 * half) - half  # the balanced digit
            if c:
                out.append((field, c))
            key = (key - c) >> width
        return tuple(out)

    return [(counts(key), zs) for key, zs in groups.items()]


def lhs_series(poset: ColoredPoset, trunc: int,
               point: EvalPoint | None = None, terms=None) -> MultiSeries:
    """Sum over P-partitions of weight <= trunc of W(pi) z^pi.

    ``terms`` are ``lhs_terms`` groups: each weight becomes a coefficient
    once (``f_product_coeff``: a QTFactored in exact mode, its value at
    ``point``) and is added at each of its monomials.
    """
    out = MultiSeries(poset.varset, trunc, point)
    out.add_groups((f_product_coeff(counts, point), zs) for counts, zs in
                   (terms if terms is not None else lhs_terms(poset, trunc)))
    return out


def _hook_monos(poset: ColoredPoset, hooks) -> list[tuple[int, ...]]:
    return [poset.varset.monomial(m) for m in hooks.values()]


def rhs_series(poset: ColoredPoset, trunc: int,
               point: EvalPoint | None = None, hooks=None) -> MultiSeries:
    """Product of F(hook monomial) over the vertices, truncated."""
    if hooks is None:
        hooks = hook_monomials(poset)
    return product_of_f(_hook_monos(poset, hooks), poset.varset, trunc, point)


def _signatures(left, right) -> dict:
    """Each monomial's signature, mapped to the keys of the monomials that
    share it.

    A signature is the pair (left group indices, right group indices) of
    the groups that contain the monomial, each index as often as its group
    lists the monomial, in group order.  A monomial's coefficient on
    either side is the sum of its groups' coefficients, so monomials with
    one signature have one coefficient pair, and the signature decides
    them all.
    """
    left_of, right_of = {}, {}  # monomial -> its group indices
    for groups, of in ((left, left_of), (right, right_of)):
        for i, (_, keys) in enumerate(groups):
            one = (i,)
            for z in keys:
                of[z] = of[z] + one if z in of else one
    sigs = {}
    for z, ls in left_of.items():
        sigs.setdefault((ls, right_of.pop(z, ())), []).append(z)
    for z, rs in right_of.items():
        sigs.setdefault(((), rs), []).append(z)
    # every listed monomial of either side sits in exactly one signature
    listed = sum(len(keys) for groups in (left, right) for _, keys in groups)
    assert listed == sum((len(ls) + len(rs)) * len(zs)
                         for (ls, rs), zs in sigs.items())
    return sigs


def _pair_sum(values, idxs) -> tuple[int, int]:
    """The sum of the integer pairs (num, den) at ``idxs``, as a pair."""
    num, den = 0, 1
    for i in idxs:
        n, d = values[i]
        num, den = num * d + n * den, den * d
    return num, den


def _differing(left, right, sigs, point: EvalPoint | None) -> list:
    """The signatures whose two sides differ, exactly or at ``point``.

    Each group is valued once, and each signature compares the sum of its
    left groups with the sum of its right ones: exact ``QTCoeff`` sums
    compared by ``equals`` (one group against one group is mostly the
    identical-form test), or at a point integer pairs compared by one
    cross product.  Raises VanishingFactor where a group's value does.
    """
    if point is None:
        lv, rv = ([QTCoeff.from_qtf(f_product(c)) for c, _ in groups]
                  for groups in (left, right))
        zero = QTCoeff.zero()
        return [sig for sig in sigs
                if not sum((lv[i] for i in sig[0]), zero).equals(
                    sum((rv[i] for i in sig[1]), zero))]
    lv, rv = ([point.f_product(c) for c, _ in groups]
              for groups in (left, right))
    out = []
    for sig in sigs:
        ln, ld = _pair_sum(lv, sig[0])
        rn, rd = _pair_sum(rv, sig[1])
        if ln * rd != rn * ld:
            out.append(sig)
    return out


def _mismatch(poset: ColoredPoset, trunc: int, point: EvalPoint | None,
              left, right, keys: set) -> dict:
    """``series_equals``' report on the two sides restricted to ``keys``,
    the monomials of the differing signatures: the lex-first of them with
    both coefficient texts.  The left coefficients are added in group
    order, as ``lhs_series`` adds them; the right ones in walk order, which
    leaves the text alone, since it depends only on the value and on the
    display denominator, the maximum over the summands'."""
    sides = []
    for groups in (left, right):
        side = MultiSeries(poset.varset, trunc, point)
        side.add_groups((f_product_coeff(counts, point), kept)
                        for counts, zs in groups
                        if (kept := [z for z in zs if z in keys]))
        sides.append(side)
    equal, mismatch = series_equals(*sides)
    assert not equal  # the signatures differ there
    return mismatch


def verify_okada(poset: ColoredPoset, trunc: int, mode: str = "exact",
                 points=None, seed: int = 0) -> VerificationReport:
    """The theorem instance: both sides as weight groups, compared one
    monomial signature at a time, with full diagnostics.

    Both sides are (counts, monomial keys) groups in one format: the left
    is ``lhs_terms``, the right the walk over hook multiplicities
    (``f_product_terms`` of the hook monomials).  The monomials are indexed
    once by signature (``_signatures``).  Then per point (exact mode: once)
    each distinct group is valued once and each distinct signature decided
    once; in exact mode that decides every monomial of either side.  A
    failure reports the lex-first differing monomial with both coefficient
    texts, as ``series_equals`` of the two series would.  ``report.points``
    lists the eval points compared, replacements included: a point is
    redrawn where a group's value has a vanishing binomial.
    """
    report = VerificationReport(
        check="hook", family=poset.family,
        params={k: str(v) for k, v in poset.params.items()},
        degree=trunc, mode=mode, points=[])
    with timed(report):
        if mode == "exact":
            point_list = [None]
        elif points:
            point_list = list(points)
        else:
            raise ValueError("eval mode requires points")
        left = lhs_terms(poset, trunc)
        right = f_product_terms(_hook_monos(poset, hook_monomials(poset)),
                                poset.varset, trunc)
        sigs = _signatures(left, right)
        for pt, differing in resampled(
                point_list, seed, lambda pt: _differing(left, right, sigs, pt)):
            if pt is not None:
                report.points.append([str(pt.q0), str(pt.t0)])
            if differing:
                report.result = "fail"
                report.mismatch = _mismatch(
                    poset, trunc, pt, left, right,
                    {z for sig in differing for z in sigs[sig]})
                break
    return report


# ---------------------------------------------------------------------------
# Macdonald-form rewrites of both sides (the two structure theorems).
# ---------------------------------------------------------------------------

def _kernel_f_args(tilde: dict, parts: Partition, n: int) -> list[dict]:
    """F-arguments z~_{a_c}^(-1) z~_{a_j} over complement pairs below parts."""
    comp = _complement(parts, n)
    args = []
    for c in comp:
        for a in parts:
            if c < a:
                args.append(_mono_mul(tilde[a], tilde[c], -1))
    return args


def _kernel(poset: ColoredPoset, al: dict, trunc: int) -> MultiSeries:
    """The kernel prefactor: F at every wing's complement-pair argument."""
    if poset.family == "bird":
        args = (_kernel_f_args(al["zt"], poset.params["alpha"], al["m"])
                + _kernel_f_args(al["yt"], poset.params["beta"], al["n"]))
    else:
        args = _kernel_f_args(al["zt"], poset.params["alpha"], al["n"])
    return product_of_f([poset.varset.monomial(a) for a in args],
                        poset.varset, trunc)


def _wing_series(poset: ColoredPoset, al: dict, lam: Partition) -> MultiSeries:
    """P_lam at the z~ aliases of the alpha wing (x~_0 times each on a bird:
    the hook table, checked against the diamond recursion, puts x~_0 inside
    the Cauchy arguments, not x~_1), and on birds times Q_lam at the y~
    aliases of the beta wing; untruncated."""
    fam, alpha = poset.family, poset.params["alpha"]
    width = {"shifted": alpha.length(), "bird": 2, "banner": 4}[fam]
    images = [al["zt"][alpha[i]] for i in range(1, width + 1)]
    if fam == "bird":
        images = [_mono_mul(al["xt"][0], m) for m in images]
    varset = poset.varset
    out = macdonald_p(lam, width).substitute(
        [varset.monomial(m) for m in images], varset, NO_TRUNC)
    if fam == "bird":
        beta = poset.params["beta"]
        out = out * macdonald_q(lam, 2).substitute(
            [varset.monomial(al["yt"][beta[i]]) for i in (1, 2)],
            varset, NO_TRUNC)
    return out


def _add_shifted(total: MultiSeries, term: MultiSeries, shift: dict,
                 floor: int, trunc: int) -> MultiSeries:
    """total + (term times the alias monomial ``shift``) truncated at
    ``trunc``, after asserting that no shifted term has total degree below
    ``floor`` (so that the terms the sum leaves out all vanish)."""
    term = term.shift_monomial(total.varset.monomial(shift))
    md = term.min_total_degree()
    assert md is None or md >= floor
    return total + term.truncated(trunc)


def lhs_macdonald_form(poset: ColoredPoset, trunc: int) -> MultiSeries:
    """The trace-resummed left-hand side (kernel times Macdonald sums)."""
    al = _alias_tables(poset)  # raises for any family but the three
    fam = poset.family
    the_sum = MultiSeries(poset.varset, trunc)
    if fam == "shifted":
        for lam in partitions_up_to(trunc, poset.params["alpha"].length()):
            wexp = (lam.weight() - lam.odd_columns()) // 2  # w has degree 0
            the_sum = _add_shifted(
                the_sum, _wing_series(poset, al, lam).scale(b_el(lam)),
                _mono_mul({}, al["w"], wexp), lam.weight(), trunc)
    elif fam == "bird":
        f = poset.params["f"]
        # (rho, theta) chains with sum(rho_i + theta_i) <= trunc
        chains = ((dict(enumerate((rho0,) + rs)), dict(enumerate((theta0,) + ts)))
                  for theta0 in range(trunc + 1) for rho0 in range(theta0 + 1)
                  for rs in monotone_chains(0, rho0, f)
                  for ts in monotone_chains(theta0, trunc, f, increasing=True)
                  if rho0 + theta0 + sum(rs) + sum(ts) <= trunc)
        for rho, theta in chains:
            lam = Partition((theta[0], rho[0]))
            scal, shift = phi_tilde(rho, theta, 0, f, al["xt"])
            the_sum = _add_shifted(
                the_sum, _wing_series(poset, al, lam).scale(scal), shift,
                sum(rho.values()) + sum(theta.values()), trunc)
    else:
        f = poset.params["f"]
        # (lam, rho, theta) with l(lam) <= 4, rho_1 = lam_4, theta_1 = lam_2
        # and |lam| + sum_{i >= 2} (rho_i + theta_i) <= trunc
        triples = ((lam, dict(enumerate((lam[4],) + rs, start=1)),
                    dict(enumerate((lam[2],) + ts, start=1)))
                   for lam in partitions_up_to(trunc, 4)
                   for rs in monotone_chains(0, lam[4], f - 1)
                   for ts in monotone_chains(lam[2], trunc, f - 1, increasing=True)
                   if lam.weight() + sum(rs) + sum(ts) <= trunc)
        for lam, rho, theta in triples:
            hat, shift = phi_tilde(rho, theta, 1, f, al["xt"])
            shift = _mono_mul(shift, _mono_mul(al["xt"][2], al["w"]),
                              lam[2] + lam[4])
            floor = lam.weight() + sum(rho[i] + theta[i] for i in range(2, f + 1))
            the_sum = _add_shifted(
                the_sum,
                _wing_series(poset, al, lam).scale(hat * b_el(lam)),
                shift, floor, trunc)
    return _kernel(poset, al, trunc) * the_sum


def rhs_macdonald_form(poset: ColoredPoset, trunc: int) -> MultiSeries:
    """The hook-product right-hand side rewritten through Macdonald sums.

    Birds and banners run one sum; they differ in the wing width, the first
    x~ index of the tail, the b-ratio and the base shift.  Every term of
    shape lam has total degree >= |lam| (asserted), so |lam| <= trunc.
    """
    al = _alias_tables(poset)
    fam = poset.family
    if fam not in ("bird", "banner"):
        raise ValueError(f"no Macdonald RHS for family {fam!r}")
    bird = fam == "bird"
    width, first = (2, 1) if bird else (4, 2)
    tail = range(first, poset.params["f"] + 1)
    xdeg = [sum(al["xt"][i].values()) for i in tail]
    the_sum = MultiSeries(poset.varset, trunc)
    for lam in partitions_up_to(trunc, width):
        wing = _wing_series(poset, al, lam)
        base = {} if bird else _mono_mul({}, _mono_mul(al["xt"][2], al["w"]),
                                         lam[2] + lam[4])
        for l in range(lam[width] + 1):
            inner = lam.sub_rectangle(l, width)
            ratio = b_lambda(inner) / b_lambda(lam) if bird else b_el(inner)
            for ls in bounded_tuples([1] * len(xdeg), l, exact=True):
                neg = sum(d * e for d, e in zip(xdeg, ls))
                for ks in bounded_tuples(xdeg, trunc + neg):
                    coeff, shift = ratio, base
                    for i, k, e in zip(tail, ks, ls):
                        coeff = coeff * f_fun(k, 0) * f_fun(e, 0)
                        shift = _mono_mul(shift, al["xt"][i], k - e)
                    the_sum = _add_shifted(the_sum, wing.scale(coeff), shift,
                                           lam.weight(), trunc)
    return _kernel(poset, al, trunc) * the_sum
