"""The exponential-mechanism calls of a recexp release, read off its output.

recexp's tree depends on m alone, so its output fixes every node's call. This
walk recurses over the tree node by node, apart from recexp's level walk, so
the tests use it as an independent oracle of what a release spent.
"""

import numpy as np


def recexp_calls(values, out):
    """The ``(order index, level, slice size)`` of each live node of the
    recexp release ``out`` of ``len(out)`` orders on the sorted sample
    ``values``, in preorder, the root at level 1.

    The node of order ``j`` between orders ``below`` and ``above`` (0 and m
    + 1 at the root) draws on ``[q[below], q[above]]``, the outputs with
    ``q[0] = 0`` and ``q[m + 1] = 1``, from ``values[s[below]:s[above]]``,
    ``s`` the count of values below each output (0 and n at the ends). It
    makes a call where its domain has positive length; a collapsed domain
    pins its subtree and calls nothing.
    """
    m = len(out)
    q = [0.0, *np.asarray(out, dtype=float).tolist(), 1.0]
    s = [0, *np.searchsorted(values, out, "left").tolist(), len(values)]
    calls = []

    def walk(below, above, level):
        if above - below < 2:
            return
        j = (below + above) // 2
        if q[below] < q[above]:
            calls.append((j - 1, level, s[above] - s[below]))
        walk(below, j, level + 1)
        walk(j, above, level + 1)

    walk(0, m + 1, 1)
    return calls
