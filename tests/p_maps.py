"""The P-partitions of a poset as dicts, for tests that look values up by
element, and the monomial z^pi of one."""

from qthook.dposet import enumerate_p_partitions, fill_order


def p_partitions(poset, bound) -> list[dict]:
    """Each map ``enumerate_p_partitions`` yields, keyed in fill order."""
    order = fill_order(poset)
    return [dict(zip(order, values))
            for _, values in enumerate_p_partitions(poset, bound)]


def z_monomial(poset, pi: dict) -> dict:
    """z^pi as a color-name exponent dictionary."""
    out = {}
    for e, v in pi.items():
        if v:
            out[poset.color[e]] = out.get(poset.color[e], 0) + v
    return out
