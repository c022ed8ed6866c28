"""Exact integer kernels: dominant saturation, Freudenthal recursion, Weyl orbits.

Saturation and the Freudenthal recursion run over Python ints on weight
tuples, so they are exact at every rank; the only bound is the ``maxdom`` cap
on the size of a dominant table.  The per-root data they read is the table
each ``RootSystem`` builds once (``root_weights``, ``root_forms``,
``root_norms``).  Every dominant step, in these kernels, in
the orbit kernel and in ``weylgroup.dominant_representative``, goes through
the one helper ``_domrep_py``.

The orbit kernel is one whole-array numpy function.  Each length level is
deduplicated by whole rows, so neither the rank nor a packing width limits
it, only the int64 range of the coordinates; the orbit comes back in
lexicographic row order.

Weights are in fundamental-weight coordinates throughout.
"""

from __future__ import annotations

import numpy as np

# numba is not used: there is one kernel path, and code that records which
# path ran reads this constant
HAVE_NUMBA = False

_STEP_GUARD = 10_000_000  # dominant steps; unreachable for valid Cartan data


class KernelCapacityError(Exception):
    """A kernel reached an enumeration cap or a guard."""


def _domrep_py(w, cartan):
    """Reflect the int list w into the dominant chamber, in place.

    ``cartan`` holds the Cartan rows as ``rootsys.cartan_support`` pairs.
    Returns the number of simple reflections used, which is the number of
    positive roots pairing negatively with w, whichever negative coordinate
    is reflected first.  Raises when the step guard trips.
    """
    steps = 0
    while (c := min(w)) < 0:
        if steps == _STEP_GUARD:
            raise KernelCapacityError(f"dominant representative did not terminate in {_STEP_GUARD} steps")
        for i, a in cartan[w.index(c)]:
            w[i] -= c * a
        steps += 1
    return steps


# the benchmark's tracer counts dominant steps through this entry
PURE_KERNELS = {"domrep": _domrep_py}

# an orbit coordinate is the pairing of w with a coroot, at most 2 * sum|w|
# for the classical types; this bound keeps the kernel's int64 products exact
_ORBIT_COORD_LIMIT = 1 << 56


def weyl_orbit_array(rs, w, cap=1_000_000):
    """The full Weyl orbit of a weight as int64 rows in lexicographic order.

    The walk descends from the dominant representative one length level at a
    time: s_j lowers w exactly when w_j > 0, so each level is the image of the
    previous one under those reflections and meets no earlier level.  More
    than ``cap`` elements raise.
    """
    where = f"orbit({rs.lie_type}, {w})"
    if sum(abs(int(c)) for c in w) >= _ORBIT_COORD_LIMIT:
        raise KernelCapacityError(f"{where}: coordinates exceed the int64 range")
    rep = [int(c) for c in w]
    _domrep_py(rep, rs.cartan_support)
    cartan = rs.cartan_np
    row = np.dtype((np.void, 8 * len(rep)))  # one int64 row as one opaque item
    level = np.array([rep], dtype=np.int64)
    rows = []
    total = 0
    while level.shape[0]:
        _, first = np.unique(level.view(row), return_index=True)
        level = level[first]
        total += level.shape[0]
        if total > cap:
            raise KernelCapacityError(f"{where}: enumeration cap exceeded")
        rows.append(level)
        level = (level[:, None, :] - level[:, :, None] * cartan[None])[level > 0]
    out = np.concatenate(rows)
    return out[np.lexsort(out.T[::-1])]


def dominant_table(rs, lam, maxdom=2_000_000):
    """(weights, heights): the dominant weights under lam, highest first.

    heights[i] is the coefficient sum of lam - weights[i] over the simple
    roots.  The set is the closure of {lam} under subtracting positive roots
    while staying dominant.  More than ``maxdom`` weights raise.
    """
    lam = tuple(int(c) for c in lam)
    roots = tuple(zip(rs.root_weights, map(sum, rs.positive_roots)))
    heights = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            hw = heights[w]
            for root, ht in roots:
                v = tuple(a - b for a, b in zip(w, root))
                if min(v) < 0 or v in heights:
                    continue
                heights[v] = hw + ht
                nxt.append(v)
        if len(heights) > maxdom:
            raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): enumeration cap exceeded")
        frontier = nxt
    weights = sorted(heights, key=lambda w: (heights[w], w))
    return weights, [heights[w] for w in weights]


def freudenthal_table(rs, lam, maxdom=2_000_000):
    """Dominant weights of the Weyl module W(lam) -> multiplicities.

    Freudenthal's recursion over the dominant table, highest weight first:
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum over beta > 0 and k >= 1 of
    m(mu + k beta) (mu + k beta, beta), with m read at the dominant
    representative; a beta-string through a weight is unbroken, so each walk
    over k stops at the first weight outside the table.
    """
    weights, _ = dominant_table(rs, lam, maxdom)
    cartan, gram = rs.cartan_support, rs.gram_scaled
    where = f"freudenthal({rs.lie_type}, {lam})"
    roots = tuple(zip(rs.root_weights, rs.root_forms, rs.root_norms))

    def norm(w):  # form_scale * |w + rho|^2
        sh = [c + 1 for c in w]
        return sum(a * sum(g * b for g, b in zip(row, sh)) for a, row in zip(sh, gram))

    top = norm(weights[0])
    mults = {weights[0]: 1}
    for mu in weights[1:]:
        acc = 0
        for root, form, root_norm in roots:
            pair = sum(f * c for f, c in zip(form, mu))  # form_scale * (mu, beta)
            nu = mu
            while True:
                nu = [a + b for a, b in zip(nu, root)]
                pair += root_norm
                rep = nu[:]
                _domrep_py(rep, cartan)
                m = mults.get(tuple(rep))
                if m is None:
                    break
                acc += m * pair
        denom = top - norm(mu)
        num = 2 * acc
        if denom <= 0 or num <= 0 or num % denom:
            raise KernelCapacityError(f"{where}: recursion is not exact at {mu}")
        mults[mu] = num // denom
    return mults
