"""Exact integer kernels: dominant saturation, Freudenthal recursion, Weyl orbits.

Saturation takes one array step per level: it subtracts every positive root
from the whole frontier at once, keeps the dominant rows, and finds the new
ones by int64 keys, whose radix the largest coroot pairing of lam bounds.
The Freudenthal recursion reads every pairing and norm of a table from two
products with the root system's blocks, exact past int64 in object dtype,
and walks the root strings over Python ints on weight tuples; the bounds are
the ``maxdom`` cap on the size of a dominant table and the int64 range of its
coordinates.  The per-root data they read is the table each ``RootSystem``
builds once (``root_weight_block``, ``form_block``, ``gram_block``,
``root_norms``).  Every dominant step, in the recursion, in the orbit kernel
and in ``dominant_representative``, goes through the one helper
``_domrep_py``.

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
    """Enumeration cap; overridable through WEYLBRANCH_CAP, a positive
    integer written in plain ASCII digits: no sign, blank, underscore or
    other script's digit, all of which ``int`` would read."""
    v = os.environ.get("WEYLBRANCH_CAP", "")
    if not v:
        return DEFAULT_CAP
    cap = int(v) if v.isascii() and v.isdigit() else 0
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


def _key_order(keys, stable=False):
    """The order that sorts int64 key rows lexicographically; equal rows in
    their input order if ``stable``, else in any order."""
    if keys.shape[1] > 1:
        return np.lexsort(keys.T[::-1])
    return np.argsort(keys[:, 0], kind="stable" if stable else None)


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


# a sum of non-negative int64 terms is exact while it stays below this
_INT64_SUMS = 1 << 62


def _widened(rows, top):
    """The int64 rows, in object dtype when a product's sums of non-negative
    terms, each at most ``top``, could leave the int64 range."""
    return rows.astype(object) if top >= _INT64_SUMS else rows


# candidate rows one saturation step makes at most: a level's frontier is
# split so that each block of (frontier row, positive root) differences stays
# below this many rows
_SATURATE_BLOCK_ROWS = 1 << 16


def dominant_table(rs, lam, maxdom=DEFAULT_MAXDOM):
    """(weights, heights): the dominant weights under lam, highest first.

    heights[i] is the coefficient sum of lam - weights[i] over the simple
    roots.  The set is the closure of {lam} under subtracting positive roots
    while staying dominant (Stembridge, "The partial order of dominant
    weights", 1998), walked one level at a time: a level subtracts every
    positive root from the whole frontier in one array step, drops the rows
    with a negative coordinate, and keeps the rows whose int64 keys
    (``_key_weights``) are new.  Every coordinate of a dominant weight under
    lam is at most <lam, theta_s-coroot> (``rs.highest_coroot``), which
    bounds the key radix.  More than ``maxdom`` weights raise, before any is
    made when ``dominant_floor`` already passes ``maxdom``.
    """
    lam = tuple(int(c) for c in lam)
    if dominant_floor(rs, lam) > maxdom:
        raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): enumeration cap exceeded")
    bound = sum(a * c for a, c in zip(lam, rs.highest_coroot))
    if bound >= _ORBIT_COORD_LIMIT:
        raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): coordinates exceed the int64 range")
    n = rs.rank
    key_weights = _key_weights(n, 2 * bound + 1)
    steps = rs.root_weight_block
    block = max(1, _SATURATE_BLOCK_ROWS // len(steps))
    frontier = np.array([lam], dtype=np.int64)
    rows, keys = [frontier], frontier @ key_weights
    while True:
        found = []
        for at in range(0, len(frontier), block):
            cand = (frontier[at:at + block, None, :] - steps).reshape(-1, n)
            found.append(cand[cand.min(axis=1) >= 0])
        cand = found[0] if len(found) == 1 else np.concatenate(found)
        if not len(cand):
            break
        # the known keys first, then the candidates': a stable sort leads
        # each run of equal keys with its known row if it has one, so the
        # runs led by a candidate are the new weights
        both = np.concatenate((keys, cand @ key_weights))
        order = _key_order(both, stable=True)
        first = order[_run_starts(both[order])]
        new = first[first >= len(keys)] - len(keys)
        if not len(new):
            break
        frontier = cand[new]
        rows.append(frontier)
        keys = both[first]
        if len(keys) > maxdom:
            raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): enumeration cap exceeded")
    rows = np.concatenate(rows) if len(rows) > 1 else rows[0]
    # inv_den times the heights of lam and of each row: every term is
    # non-negative and a row's sum is at most lam's
    top = sum(a * h for a, h in zip(lam, rs.weight_heights))
    heights = (top - _widened(rows, top) @ rs.weight_heights) // rs.inv_den
    order = np.lexsort((*(rows @ key_weights).T[::-1], heights))  # the keys order the rows lexicographically
    return list(map(tuple, rows[order].tolist())), heights[order].tolist()


def freudenthal_table(rs, lam, maxdom=DEFAULT_MAXDOM):
    """Dominant weights of the Weyl module W(lam) -> multiplicities.

    Freudenthal's recursion over the dominant table, highest weight first:
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum over beta > 0 and k >= 1 of
    m(mu + k beta) (mu + k beta, beta), with m read at the dominant
    representative; a beta-string through a weight is unbroken, so each walk
    over k stops at the first weight outside the table.  Every pairing
    (mu, beta) and norm |mu+rho|^2 of the table comes from two products with
    ``rs.form_block`` and ``rs.gram_block``.  Both sum non-negative terms,
    and no sum passes |lam+rho|^2 or a root's norm (|mu+rho| <= |lam+rho|
    for a dominant mu under lam, and (mu, beta) <= |mu| |beta|), so they run
    in object dtype where that norm could leave int64.
    """
    weights, _ = dominant_table(rs, lam, maxdom)
    cartan = rs.cartan_support
    where = f"freudenthal({rs.lie_type}, {lam})"
    top_row = np.array(weights[0], dtype=object) + 1
    top = int(top_row @ rs.gram_block @ top_row)  # form_scale * |lam + rho|^2
    rows = _widened(np.array(weights, dtype=np.int64), top)
    pairs = (rows @ rs.form_block).tolist()  # form_scale * (mu, beta)
    shifted = rows + 1
    norms = ((shifted @ rs.gram_block) * shifted).sum(axis=1).tolist()  # form_scale * |mu + rho|^2
    roots = tuple(zip(rs.root_weights, rs.root_norms))
    mults = {weights[0]: 1}
    for mu, mu_pairs, norm in zip(weights[1:], pairs[1:], norms[1:]):
        acc = 0
        for (root, root_norm), pair in zip(roots, mu_pairs):
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
        denom = top - norm
        num = 2 * acc
        if denom <= 0 or num <= 0 or num % denom:
            raise KernelCapacityError(f"{where}: recursion is not exact at {mu}")
        mults[mu] = num // denom
    return mults
