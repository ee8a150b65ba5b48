"""The one search and the one column-height loop of the frozen enumerator references.

It imports nothing from ``tableaux``, so a fault in the library's own
search or its ``partitions._columns`` cannot move a reference with it.
"""


def frozen_heights(parts):
    """The column heights of the diagram with row lengths ``parts``, left to right."""
    heights = []
    for r in range(len(parts) - 1, -1, -1):
        heights += [r + 1] * (parts[r] - len(heights))
    return heights


def frozen_search(skew, candidates, reverse=False):
    """A frozen copy of the library's earlier callback search: each filling of ``skew`` as row tuples.

    Boxes are filled row by row from the top, each row left to right
    (reading order), or right to left with ``reverse`` (reverse reading
    order). Box ``k`` of that order asks ``candidates(k, side, up)`` for
    an iterator of values to try, where ``side`` is the value of the box
    before it in its row (its left neighbour, or its right one with
    ``reverse``) and ``up`` that of the box above it, each 0 when that
    box is absent. The search keeps the iterator of each filled box in a
    list indexed by box, so its depth is not bounded by Python recursion.
    A callback that keeps state updates it just before each value it
    yields and restores it when resumed.
    """
    outer, inner = skew.outer.parts, skew.inner.parts
    # slot of the last box filled in each column: the box above, since skew columns are contiguous
    last = [0] * (outer[0] if outer else 0)
    side, up, rows = [], [], []
    for r, hi in enumerate(outer):
        lo = inner[r] if r < len(inner) else 0
        start, prev = len(side), 0
        for c in range(hi - 1, lo - 1, -1) if reverse else range(lo, hi):
            side.append(prev)
            up.append(last[c])
            last[c] = prev = len(side)
        # boxes start..end-1 of the search order are slots start+1..end
        end = len(side)
        rows.append(slice(end, start, -1) if reverse else slice(start + 1, end + 1))
    n = len(side)
    values = [0] * (n + 1)  # box k is values[k + 1]; values[0] stays 0 for absent neighbours
    its = [iter(())] * n  # its[k] offers the values for box k
    k = 0  # boxes holding a value, which is also the next box to fill
    while True:
        if k < n:
            its[k] = candidates(k, values[side[k]], values[up[k]])
            k += 1
        else:
            yield tuple([tuple(values[s]) for s in rows])
        while k:
            v = next(its[k - 1], 0)
            if v:
                values[k] = v
                break
            k -= 1
        else:
            return
