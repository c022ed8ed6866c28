"""Exact integer kernels: dominant saturation, Freudenthal recursion, Weyl orbits.

Saturation and the Freudenthal recursion run over Python ints on weight
tuples, so they are exact at every rank; the only bound is the ``maxdom`` cap
on the size of a dominant table.  The per-root data they read is the table
each ``RootSystem`` builds once (``root_weights``, ``root_forms``,
``root_norms``).  Every dominant step, in these kernels, in
the orbit kernel and in ``dominant_representative``, goes through
the one helper ``_domrep_py``.

The orbit kernel walks one chain of standard parabolic subgroups per root
system, W = W_0 > W_1 > ... > W_{n-1} with W_k on the nodes k..n-1: the
minimal coset representatives of each step are one cached int64 block, and
an orbit costs one matrix product per node at which it moves.  Rows repeat
only at the zero nodes of the dominant representative, so only those stages
are deduplicated, by whole rows.  The orbit size comes from the stabilizer's
type before any row is made (``orbit_size``), so the enumeration cap
(``orbit_cap``) is checked up front.
Rows are sorted and deduplicated through int64 keys that each pack as many
coordinates as fit, so neither the rank nor a packing width limits the
kernel, only the int64 range of the coordinates; the orbit comes back in
lexicographic row order.

Weights are in fundamental-weight coordinates throughout.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .rootsys import parabolic_index

# numba is not used: there is one kernel path, and code that records which
# path ran reads this constant
HAVE_NUMBA = False

_STEP_GUARD = 10_000_000  # dominant steps; unreachable for valid Cartan data

DEFAULT_CAP = 1_000_000  # orbit elements
DEFAULT_MAXDOM = 2_000_000  # weights in one dominant table


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


def orbit_cap() -> int:
    """Enumeration cap; overridable through WEYLBRANCH_CAP (a positive integer)."""
    v = os.environ.get("WEYLBRANCH_CAP", "")
    if not v:
        return DEFAULT_CAP
    try:
        cap = int(v)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"WEYLBRANCH_CAP must be a positive integer, got {v!r}")
    return cap


@dataclass(frozen=True)
class OrbitSummary:
    dominant_rep: tuple
    orbit_size: int
    stabilizer_type: tuple  # sorted tuple of LieType


def dominant_representative(rs, w):
    """The unique dominant weight in the orbit of w, plus a word length."""
    rep = list(rs.check_weight(w))
    steps = _domrep_py(rep, rs.cartan_support)
    return tuple(rep), steps


def orbit_size(rs, w) -> OrbitSummary:
    """|W| / |W_stab| via the parabolic stabilizer of the dominant representative."""
    dom, _ = dominant_representative(rs, w)
    size, types = parabolic_index(rs, [i for i in range(rs.rank) if dom[i] == 0])
    return OrbitSummary(dominant_rep=dom, orbit_size=size, stabilizer_type=types)


# an orbit coordinate is the pairing of w with a coroot, at most 2 * sum|w|
# for the classical types; this bound keeps the kernel's int64 products exact
_ORBIT_COORD_LIMIT = 1 << 56


@functools.lru_cache(maxsize=None)
def _coset_stages(rs):
    """Per node k, the minimal coset representatives of W_{k+1} in W_k.

    W_k is the standard parabolic subgroup on the nodes k..n-1, so
    W = U_0 U_1 ... U_{n-1} with U_k the representatives of stage k.  Each
    stage is one int64 block of shape (n, |U_k| * n): row weights times the
    block, reshaped to n columns, give every representative's image of every
    row.  The stabilizer of omega_k in W_k is W_{k+1}, so the representatives
    are read off the orbit of omega_k under W_k, walked down one length level
    at a time: s_j lowers a weight v exactly when v_j > 0, and the product of
    the reflections along such a walk is the representative of minimal length.
    """
    n = rs.rank
    cartan = rs.cartan
    eye = np.eye(n, dtype=np.int64)
    refl = [eye - np.outer(eye[j], rs.cartan_np[j]) for j in range(n)]
    stages = []
    for k in range(n):
        mats = []
        level = {tuple(eye[k].tolist()): eye}
        while level:
            mats += level.values()
            nxt = {}
            for v, m in level.items():
                for j in range(k, n):
                    if v[j] > 0:
                        u = tuple(a - v[j] * b for a, b in zip(v, cartan[j]))
                        if u not in nxt:
                            nxt[u] = m @ refl[j]
            level = nxt
        block = np.concatenate(mats, axis=1)
        block.flags.writeable = False  # shared by every caller through the cache
        stages.append(block)
    return tuple(stages)


@functools.lru_cache(maxsize=256)
def _key_weights(n, radix):
    """(n, m) int64 powers of an odd radix that pack a row of n digits in
    -(radix // 2)..radix // 2 into m int64 keys, as many digits per key as
    keep it within 2**61.  A balanced radix puts the first digit most
    significant, so the key columns order the rows lexicographically."""
    per = 1
    while per < n and radix ** (per + 1) <= 1 << 62:
        per += 1
    out = np.zeros((n, -(-n // per)), dtype=np.int64)
    for i in range(n):
        key, pos = divmod(i, per)
        out[i, key] = radix ** (min(per, n - key * per) - 1 - pos)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _key_order(keys):
    """The order that sorts int64 key rows lexicographically; equal rows in any order."""
    return np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])


def _run_starts(keys):
    """Per row of sorted int64 key rows, one at least: whether it differs from the row before."""
    return np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))


def _lex_sorted(rows, bound, unique=False):
    """The rows in lexicographic order, repeats dropped if ``unique``; every
    coordinate lies in -bound..bound."""
    keys = rows @ _key_weights(rows.shape[1], 2 * bound + 1)
    order = _key_order(keys)
    if unique:
        order = order[_run_starts(keys[order])]
    return rows[order]


def weyl_orbit_array(rs, w, cap=None):
    """The full Weyl orbit of a weight as int64 rows in lexicographic order.

    The orbit of the dominant representative mu is U_0 U_1 ... U_{n-1} mu
    (see ``_coset_stages``), so the walk applies the stages from the last
    node to the first, one matrix product each, and skips the stages whose
    nodes are all 0 on mu, which fix every row so far.  The rows of one
    stage repeat only where mu_k = 0, the one place the stabilizer grows, so
    only those stages are deduplicated by whole rows.  The orbit size
    |W : W_mu| is known from the zero nodes of mu up front: more than ``cap``
    elements (``orbit_cap()`` if None) raise before any is enumerated, and so
    does a walk that does not end with exactly that many rows.
    """
    w = rs.check_weight(w)
    where = f"orbit({rs.lie_type}, {w})"
    span = sum(map(abs, w))
    if span >= _ORBIT_COORD_LIMIT:
        raise KernelCapacityError(f"{where}: coordinates exceed the int64 range")
    summary = orbit_size(rs, w)
    rep, size = summary.dominant_rep, summary.orbit_size
    cap = orbit_cap() if cap is None else cap
    if size > cap:
        raise KernelCapacityError(f"{where}: the orbit has {size} elements, cap {cap}")
    n = len(rep)
    bound = 2 * span  # every orbit coordinate pairs w with a coroot
    stages = _coset_stages(rs)
    rows = np.array([rep], dtype=np.int64)
    ordered = True
    for k in reversed(range(n)):
        if not any(rep[k:]):
            continue
        rows = (rows @ stages[k]).reshape(-1, n)
        ordered = rep[k] == 0
        if ordered:
            rows = _lex_sorted(rows, bound, unique=True)
    if rows.shape[0] != size:
        raise KernelCapacityError(f"{where}: the walk gave {rows.shape[0]} rows, not the orbit size {size}")
    return rows if ordered else _lex_sorted(rows, bound)


def dominant_floor(rs, lam):
    """A lower bound on the number of dominant weights under a dominant lam:
    they include a chain from lam down to 0 or a minimal weight whose steps
    are single positive roots (Stembridge, "The partial order of dominant
    weights", Adv. Math. 136, 1998), each of height at most ht(theta)."""
    low, top = rs.floor_heights
    return (sum(a * h for a, h in zip(lam, rs.weight_heights)) - low) // top + 1


def dominant_table(rs, lam, maxdom=DEFAULT_MAXDOM):
    """(weights, heights): the dominant weights under lam, highest first.

    heights[i] is the coefficient sum of lam - weights[i] over the simple
    roots.  The set is the closure of {lam} under subtracting positive roots
    while staying dominant.  More than ``maxdom`` weights raise, before any
    is made when ``dominant_floor`` already passes ``maxdom``.
    """
    lam = tuple(int(c) for c in lam)
    if dominant_floor(rs, lam) > maxdom:
        raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): enumeration cap exceeded")
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


def freudenthal_table(rs, lam, maxdom=DEFAULT_MAXDOM):
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
