"""Hot integer kernels: dominant saturation, Freudenthal recursion, Weyl orbits.

The orbit kernel is one whole-array numpy function on every path.  The
saturation and Freudenthal kernels are written once in a numba-compatible
subset of numpy Python; a factory instantiates them twice, once over
plain-Python helpers and once over ``@njit``-compiled helpers.  Dispatch
between the two is controlled by the ``WEYLBRANCH_NO_NUMBA`` environment
variable (set to ``1`` to force the pure path).

Both paths are exact over int64.  The wrappers bound the inputs so that no
intermediate value can overflow, and the kernels flag arithmetic anomalies
instead of silently continuing.

Weights are int64 rows in fundamental-weight coordinates.  Dominant-weight
tables and orbits are deduplicated through packed int64 keys (``bits`` bits
per coordinate, first coordinate most significant; orbit coordinates are
shifted by ``2**(bits-1)``).  A table only ever contains weights all of whose
shifted coordinates are < 2**bits, so any candidate with a larger coordinate
is provably absent from the table.
"""

from __future__ import annotations

import os

import numpy as np

from .rootsys import scaled_root_coords

try:
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

ENV_FLAG = "WEYLBRANCH_NO_NUMBA"

# status codes shared by the kernels
OK = 0
CAP_EXCEEDED = 1
PACK_OVERFLOW = 2
ARITH_ERROR = 3
ACC_OVERFLOW = 4

_ACC_LIMIT = 1 << 61


def use_jit() -> bool:
    return HAVE_NUMBA and os.environ.get(ENV_FLAG, "") not in ("1", "true", "yes")


class KernelCapacityError(Exception):
    """Inputs exceed the exact-int64 capacity of the kernels."""


# ---------------------------------------------------------------------------
# leaf helpers


def _domrep_py(w, cartan):
    n = w.shape[0]
    count = 0
    while True:
        j = -1
        for i in range(n):
            if w[i] < 0:
                j = i
                break
        if j < 0:
            return count
        c = w[j]
        for i in range(n):
            w[i] -= c * cartan[j, i]
        count += 1
        if count > 10_000_000:  # unreachable for valid Cartan data
            return -1


def _pack_py(w, bits, off):
    key = np.int64(0)
    for i in range(w.shape[0]):
        v = w[i] + off
        if v < 0 or v >= (np.int64(1) << bits):
            return np.int64(-1)
        key = (key << bits) | v
    return key


def _unpack_py(key, n, bits, off, out):
    mask = (np.int64(1) << bits) - 1
    for i in range(n - 1, -1, -1):
        out[i] = (key & mask) - off
        key >>= bits


def _orbit(w0, cartan, bits, cap):
    """Full Weyl orbit of w0 as rows sorted by packed key, and a status.

    The walk descends from the dominant representative one length level at a
    time: s_j lowers w exactly when w_j > 0, so each level is the image of the
    previous one under those reflections and meets no earlier level.
    """
    n = w0.shape[0]
    off = np.int64(1) << (bits - 1)
    place = np.int64(1) << (bits * np.arange(n - 1, -1, -1, dtype=np.int64))
    level = w0.copy()[None]
    if _domrep_py(level[0], cartan) < 0:
        return np.empty((0, n), np.int64), ARITH_ERROR
    rows, keys = [], []
    total = 0
    while level.shape[0]:
        shifted = level + off
        if (shifted >> bits).any():  # a coordinate outside [-off, off)
            return np.empty((0, n), np.int64), PACK_OVERFLOW
        lkeys, first = np.unique(shifted @ place, return_index=True)
        level = level[first]
        total += level.shape[0]
        if total > cap:
            return np.empty((0, n), np.int64), CAP_EXCEEDED
        rows.append(level)
        keys.append(lkeys)
        level = (level[:, None, :] - level[:, :, None] * cartan[None])[level > 0]
    out = np.concatenate(rows)
    return out[np.argsort(np.concatenate(keys))], OK


# ---------------------------------------------------------------------------
# kernel factory (single source for both paths)


def _make_kernels(pack, unpack, domrep):
    def saturate(lam, cartan, pos_wc, pos_ht, bits, maxdom):
        # All dominant weights <= lam, by closure under subtracting positive
        # roots from dominant weights.  Returns (keys_sorted, heights, status)
        # where height = coefficient sum of lam - mu over the simple roots.
        n = lam.shape[0]
        m = pos_wc.shape[0]
        key0 = pack(lam, bits, np.int64(0))
        if key0 < 0:
            return np.empty(0, np.int64), np.empty(0, np.int64), PACK_OVERFLOW
        seen_keys = np.empty(1, np.int64)
        seen_keys[0] = key0
        seen_hts = np.zeros(1, np.int64)
        frontier_keys = seen_keys.copy()
        frontier_hts = seen_hts.copy()
        w = np.empty(n, np.int64)
        while frontier_keys.shape[0] > 0:
            cand_keys = np.empty(frontier_keys.shape[0] * m, np.int64)
            cand_hts = np.empty(frontier_keys.shape[0] * m, np.int64)
            cnt = 0
            for f in range(frontier_keys.shape[0]):
                unpack(frontier_keys[f], n, bits, np.int64(0), w)
                for r in range(m):
                    dominant = True
                    for i in range(n):
                        if w[i] - pos_wc[r, i] < 0:
                            dominant = False
                            break
                    if not dominant:
                        continue
                    key = np.int64(0)
                    bad = False
                    for i in range(n):
                        v = w[i] - pos_wc[r, i]
                        if v >= (np.int64(1) << bits):
                            bad = True
                            break
                        key = (key << bits) | v
                    if bad:
                        return seen_keys, seen_hts, PACK_OVERFLOW
                    cand_keys[cnt] = key
                    cand_hts[cnt] = frontier_hts[f] + pos_ht[r]
                    cnt += 1
            if cnt == 0:
                break
            order = np.argsort(cand_keys[:cnt])
            new_keys = np.empty(cnt, np.int64)
            new_hts = np.empty(cnt, np.int64)
            nnew = 0
            prev = np.int64(-1)
            for oi in range(cnt):
                k = cand_keys[order[oi]]
                if k == prev:
                    continue
                prev = k
                pos = np.searchsorted(seen_keys, k)
                if pos < seen_keys.shape[0] and seen_keys[pos] == k:
                    continue
                new_keys[nnew] = k
                new_hts[nnew] = cand_hts[order[oi]]
                nnew += 1
            if nnew == 0:
                break
            merged_keys = np.concatenate((seen_keys, new_keys[:nnew]))
            merged_hts = np.concatenate((seen_hts, new_hts[:nnew]))
            order2 = np.argsort(merged_keys)
            seen_keys = merged_keys[order2]
            seen_hts = merged_hts[order2]
            if seen_keys.shape[0] > maxdom:
                return seen_keys, seen_hts, CAP_EXCEEDED
            frontier_keys = new_keys[:nnew]
            frontier_hts = new_hts[:nnew]
        return seen_keys, seen_hts, OK

    def freudenthal(keys_sorted, heights, cartan, pos_wc, pos_rc, slen2, gram, bits):
        # Exact multiplicities over the dominant-weight table, computed in
        # decreasing weight order (increasing height of lam - mu).
        d = keys_sorted.shape[0]
        n = cartan.shape[0]
        m = pos_wc.shape[0]
        mults = np.zeros(d, np.int64)
        order = np.argsort(heights)
        mu = np.empty(n, np.int64)
        nu = np.empty(n, np.int64)
        rep = np.empty(n, np.int64)
        shifted = np.empty(n, np.int64)

        unpack(keys_sorted[order[0]], n, bits, np.int64(0), mu)
        for i in range(n):
            shifted[i] = mu[i] + 1
        nlam = np.int64(0)
        for i in range(n):
            for j in range(n):
                nlam += shifted[i] * gram[i, j] * shifted[j]

        for oi in range(d):
            idx = order[oi]
            if heights[idx] == 0:
                mults[idx] = 1
                continue
            unpack(keys_sorted[idx], n, bits, np.int64(0), mu)
            acc = np.int64(0)
            for r in range(m):
                k = np.int64(1)
                while True:
                    for i in range(n):
                        nu[i] = mu[i] + k * pos_wc[r, i]
                        rep[i] = nu[i]
                    steps = domrep(rep, cartan)
                    if steps < 0:
                        return mults, ARITH_ERROR
                    key = pack(rep, bits, np.int64(0))
                    if key < 0:
                        break  # coordinate beyond table range: not a table weight
                    pos = np.searchsorted(keys_sorted, key)
                    if pos >= d or keys_sorted[pos] != key:
                        break
                    mv = mults[pos]
                    sprod = np.int64(0)
                    for i in range(n):
                        if pos_rc[r, i] != 0:
                            sprod += pos_rc[r, i] * nu[i] * slen2[i]
                    acc += mv * sprod
                    if acc > _ACC_LIMIT or acc < -_ACC_LIMIT:
                        return mults, ACC_OVERFLOW
                    k += 1
            for i in range(n):
                shifted[i] = mu[i] + 1
            nmu = np.int64(0)
            for i in range(n):
                for j in range(n):
                    nmu += shifted[i] * gram[i, j] * shifted[j]
            denom = nlam - nmu
            num = 2 * acc
            if denom <= 0 or num <= 0 or num % denom != 0:
                return mults, ARITH_ERROR
            mults[idx] = num // denom
        return mults, OK

    return saturate, freudenthal


_sat_py, _fr_py = _make_kernels(_pack_py, _unpack_py, _domrep_py)

PURE_KERNELS = {"saturate": _sat_py, "freudenthal": _fr_py, "orbit": _orbit, "domrep": _domrep_py}

if HAVE_NUMBA:
    _domrep_nb = _njit(cache=True)(_domrep_py)
    _pack_nb = _njit(cache=True)(_pack_py)
    _unpack_nb = _njit(cache=True)(_unpack_py)
    _sat_nb, _fr_nb = (_njit(cache=True)(f) for f in _make_kernels(_pack_nb, _unpack_nb, _domrep_nb))
    JIT_KERNELS = {"saturate": _sat_nb, "freudenthal": _fr_nb, "domrep": _domrep_nb}
else:  # pragma: no cover
    JIT_KERNELS = {}


def _dispatch(name):
    pure = PURE_KERNELS[name]
    if not HAVE_NUMBA:
        return pure
    compiled = JIT_KERNELS[name]

    def run(*args):
        if use_jit():
            return compiled(*args)
        return pure(*args)

    return run


saturate_kernel = _dispatch("saturate")
freudenthal_kernel = _dispatch("freudenthal")
orbit_kernel = _orbit
domrep_kernel = _dispatch("domrep")


# ---------------------------------------------------------------------------
# wrappers with capacity guards


def _check_status(status, what):
    if status == OK:
        return
    if status == CAP_EXCEEDED:
        raise KernelCapacityError(f"{what}: enumeration cap exceeded")
    if status == PACK_OVERFLOW:
        raise KernelCapacityError(f"{what}: coordinates exceed packed-key range")
    raise KernelCapacityError(f"{what}: exact int64 arithmetic guard tripped ({status})")


def saturate_bits_fit(rs, lam) -> bool:
    """Whether the dominant table of lam fits the packed-key kernels."""
    try:
        saturate_bits(rs, lam)
        return True
    except KernelCapacityError:
        return False


def saturate_bits(rs, lam) -> int:
    """Bits per packed coordinate for the dominant table of lam.

    Any dominant mu <= lam satisfies mu_i <= max(lam) + 2 * height(lam), since
    the root coordinates of lam - mu are bounded by those of lam.
    """
    h = sum(scaled_root_coords(rs, lam)) // rs.inv_den  # lam dominant: h >= 0
    bound = (max(lam) if lam else 0) + 2 * h + 3
    bits = max(2, int(bound).bit_length() + 1)
    if rs.rank * bits > 62:
        raise KernelCapacityError(f"weight {lam} on {rs.lie_type} exceeds exact-kernel capacity")
    return bits


def orbit_bits(rs, w) -> int:
    """Orbit coordinates are bounded via the pairing with the highest coroot."""
    bound = 2 * sum(abs(int(c)) for c in w) + 3
    bits = max(3, int(bound).bit_length() + 2)
    if rs.rank * bits > 62:
        raise KernelCapacityError(f"orbit of {w} on {rs.lie_type} exceeds kernel capacity")
    return bits


def dominant_table(rs, lam, maxdom=2_000_000):
    """(keys, doms array, heights, bits) for all dominant weights under lam."""
    lam_np = np.array(lam, dtype=np.int64)
    bits = saturate_bits(rs, lam)
    keys, hts, status = saturate_kernel(
        lam_np, rs.cartan_np, rs.pos_wc_np, rs.pos_height_np, np.int64(bits), np.int64(maxdom)
    )
    _check_status(status, f"saturate({rs.lie_type}, {lam})")
    n = rs.rank
    doms = np.empty((keys.shape[0], n), dtype=np.int64)
    row = np.empty(n, dtype=np.int64)
    for i in range(keys.shape[0]):
        _unpack_py(int(keys[i]), n, np.int64(bits), np.int64(0), row)
        doms[i] = row
    return keys, doms, hts, bits


def freudenthal_table(rs, lam, maxdom=2_000_000):
    """Dominant weights of the Weyl module W(lam) and their multiplicities."""
    keys, doms, hts, bits = dominant_table(rs, lam, maxdom)
    mults, status = freudenthal_kernel(
        keys, hts, rs.cartan_np, rs.pos_wc_np, rs.pos_rc_np, rs.slen2_np, rs.gram_np, np.int64(bits)
    )
    _check_status(status, f"freudenthal({rs.lie_type}, {lam})")
    return doms, hts, mults


def weyl_orbit_array(rs, w, cap=1_000_000):
    """The full Weyl orbit of a weight as an int64 array."""
    w_np = np.array(w, dtype=np.int64)
    bits = orbit_bits(rs, w)
    out, status = orbit_kernel(w_np, rs.cartan_np, np.int64(bits), np.int64(cap))
    _check_status(status, f"orbit({rs.lie_type}, {w})")
    return out


def dominant_rep_array(rs, w):
    ww = np.array(w, dtype=np.int64)
    steps = domrep_kernel(ww, rs.cartan_np)
    if steps < 0:
        raise KernelCapacityError("dominant representative did not terminate")
    return ww, int(steps)


# ---------------------------------------------------------------------------
# plain-dict fallback for ranks beyond the packed-key capacity


def _dominant_table_bigrank(rs, lam, maxdom):
    n = rs.rank
    cartan = [tuple(int(x) for x in row) for row in rs.cartan_np]
    pos_wc = [tuple(int(x) for x in row) for row in rs.pos_wc_np]
    pos_ht = [int(x) for x in rs.pos_height_np]
    lam = tuple(int(c) for c in lam)
    heights = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            hw = heights[w]
            for r, root in enumerate(pos_wc):
                v = tuple(a - b for a, b in zip(w, root))
                if any(c < 0 for c in v) or v in heights:
                    continue
                heights[v] = hw + pos_ht[r]
                nxt.append(v)
        if len(heights) > maxdom:
            raise KernelCapacityError(f"saturate({rs.lie_type}, {lam}): cap exceeded")
        frontier = nxt
    return heights


def _domrep_tuple(w, cartan, n):
    w = list(w)
    while True:
        for j in range(n):
            if w[j] < 0:
                c = w[j]
                row = cartan[j]
                for i in range(n):
                    w[i] -= c * row[i]
                break
        else:
            return tuple(w)


def freudenthal_table_bigrank(rs, lam, maxdom=2_000_000):
    """Exact dominant multiplicities with Python-int arithmetic (any rank)."""
    n = rs.rank
    heights = _dominant_table_bigrank(rs, lam, maxdom)
    cartan = [tuple(int(x) for x in row) for row in rs.cartan_np]
    pos_wc = [tuple(int(x) for x in row) for row in rs.pos_wc_np]
    pos_rc = [tuple(int(x) for x in row) for row in rs.pos_rc_np]
    slen2 = [int(x) for x in rs.slen2_np]
    gram = [tuple(int(x) for x in row) for row in rs.gram_np]

    def norm(w):
        sh = [c + 1 for c in w]
        return sum(sh[i] * gram[i][j] * sh[j] for i in range(n) for j in range(n))

    nlam = norm(lam)
    mults = {}
    for mu in sorted(heights, key=lambda w: (heights[w], w)):
        if heights[mu] == 0:
            mults[mu] = 1
            continue
        acc = 0
        for r in range(len(pos_wc)):
            root = pos_wc[r]
            rc = pos_rc[r]
            k = 1
            while True:
                nu = tuple(m + k * c for m, c in zip(mu, root))
                rep = _domrep_tuple(nu, cartan, n)
                mv = mults.get(rep)
                if mv is None:
                    break
                acc += mv * sum(rc[i] * nu[i] * slen2[i] for i in range(n) if rc[i])
                k += 1
        denom = nlam - norm(mu)
        num = 2 * acc
        if denom <= 0 or num % denom != 0:
            raise KernelCapacityError("bigrank recursion arithmetic failure")
        mults[mu] = num // denom
    return mults
