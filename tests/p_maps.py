"""The P-partitions of a poset as dicts, for tests that look values up by
element."""

from qthook.dposet import enumerate_p_partitions, fill_order


def p_partitions(poset, bound) -> list[dict]:
    """Each map ``enumerate_p_partitions`` yields, keyed in fill order."""
    order = fill_order(poset)
    return [dict(zip(order, values))
            for _, values in enumerate_p_partitions(poset, bound)]
