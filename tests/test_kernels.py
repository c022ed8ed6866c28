"""The orbit kernel against a scalar oracle, and capacity guards."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylbranch import charcalc, kernels
from weylbranch.charcalc import freudenthal, weyl_dim
from weylbranch.checker import dominant_weights_bounded
from weylbranch.kernels import dominant_representative, orbit_size
from weylbranch.rootsys import LieType, build_root_system, parabolic_index

from test_rootsys import ALL_TYPES


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


def oracle_bits(w):
    """Bits per coordinate that hold every orbit coordinate of w: the pairing
    with the highest coroot bounds them."""
    return max(3, (2 * sum(abs(int(c)) for c in w) + 3).bit_length() + 2)


def scalar_orbit(w0, cartan, bits, cap):
    """The closure-based pure orbit kernel the package used before, kept as an oracle.

    Breadth-first closure under the simple reflections over packed keys
    (``bits`` bits per coordinate, first coordinate most significant, so key
    order is lexicographic row order), with a membership search against every
    key seen so far.
    """
    n = w0.shape[0]
    if n * bits > 63:
        raise ValueError("packed keys do not fit int64")
    off = np.int64(1) << (bits - 1)
    key0 = _pack_py(w0, bits, off)
    if key0 < 0:
        raise ValueError("coordinate outside the packed range")
    seen = np.empty(1, np.int64)
    seen[0] = key0
    frontier = seen.copy()
    w = np.empty(n, np.int64)
    s = np.empty(n, np.int64)
    while frontier.shape[0] > 0:
        cand = np.empty(frontier.shape[0] * n, np.int64)
        cnt = 0
        for f in range(frontier.shape[0]):
            _unpack_py(frontier[f], n, bits, off, w)
            for j in range(n):
                c = w[j]
                if c == 0:
                    continue
                for i in range(n):
                    s[i] = w[i] - c * cartan[j, i]
                key = _pack_py(s, bits, off)
                if key < 0:
                    raise ValueError("coordinate outside the packed range")
                cand[cnt] = key
                cnt += 1
        if cnt == 0:
            break
        cs = np.unique(cand[:cnt])
        new = np.empty(cs.shape[0], np.int64)
        nnew = 0
        for ci in range(cs.shape[0]):
            pos = np.searchsorted(seen, cs[ci])
            if pos < seen.shape[0] and seen[pos] == cs[ci]:
                continue
            new[nnew] = cs[ci]
            nnew += 1
        if nnew == 0:
            break
        seen = np.unique(np.concatenate((seen, new[:nnew])))
        if seen.shape[0] > cap:
            raise kernels.KernelCapacityError("enumeration cap exceeded")
        frontier = new[:nnew]
    out = np.empty((seen.shape[0], n), np.int64)
    for i in range(seen.shape[0]):
        _unpack_py(seen[i], n, bits, off, out[i])
    return out


ORBIT_TYPES = [(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 8)]


@st.composite
def orbit_cases(draw):
    """A classical type of rank <= 7 and a weight with at most three non-zero
    coordinates in -3..3, so that non-dominant weights occur; orbits are kept
    to at most 3000 elements for the scalar oracle."""
    fam, n = draw(st.sampled_from(ORBIT_TYPES))
    rs = build_root_system(LieType(fam, n))
    support = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    w = [0] * n
    for i in support:
        w[i] = draw(st.integers(-3, 3))
    w = tuple(w)
    size = orbit_size(rs, w).orbit_size
    assume(size <= 3000)
    return rs, w, size


@settings(max_examples=150, deadline=None)
@given(orbit_cases())
def test_orbit_matches_scalar_oracle(case):
    rs, w, size = case
    w_np = np.array(w, dtype=np.int64)
    bits = np.int64(oracle_bits(w))
    out = kernels.weyl_orbit_array(rs, w, cap=10**6)
    ref = scalar_orbit(w_np, rs.cartan_np, bits, np.int64(10**6))
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    assert len(out) == size
    assert np.array_equal(kernels.weyl_orbit_array(rs, w, cap=size), out)
    with pytest.raises(kernels.KernelCapacityError):
        kernels.weyl_orbit_array(rs, w, cap=size - 1)
    if size > 1:
        # the oracle checks the cap only after a level is added, so a
        # one-element orbit passes cap 0 there
        with pytest.raises(kernels.KernelCapacityError):
            scalar_orbit(w_np, rs.cartan_np, bits, np.int64(size - 1))


def test_orbit_beyond_packed_key_range():
    # inputs the kernel refused while it deduplicated by packed int64 keys:
    # B3 (3,0,1) overflowed 3-bit keys, and the 13 coordinates of B13 omega_1
    # did not fit 62 bits; the oracle packs them into the bits given here
    for lie, w, bits in ((("B", 3), (3, 0, 1), 6), (("B", 13), (1,) + (0,) * 12, 4)):
        rs = build_root_system(LieType(*lie))
        out = kernels.weyl_orbit_array(rs, w)
        ref = scalar_orbit(np.array(w, dtype=np.int64), rs.cartan_np, np.int64(bits), np.int64(10**6))
        assert np.array_equal(out, ref) and len(out) == orbit_size(rs, w).orbit_size


def test_coset_stages_factor_the_weyl_group():
    # stage k holds the minimal coset representatives of W_{k+1} in W_k, W_k
    # the parabolic subgroup on the nodes k..n-1, so its size is the index of
    # the parabolic on k+1..n-1 inside the one on k..n-1, and the sizes
    # multiply to |W|
    for t in ALL_TYPES:
        rs = build_root_system(t)
        n = rs.rank
        orders = [rs.weyl_order() // parabolic_index(rs, range(k, n))[0] for k in range(n + 1)]
        sizes = [block.shape[1] // n for block in kernels._coset_stages(rs)]
        assert sizes == [orders[k] // orders[k + 1] for k in range(n)], t
        assert np.prod(sizes, dtype=object) == rs.weyl_order(), t


def test_orbit_cap_edges():
    rs = build_root_system(LieType("D", 8))
    with pytest.raises(kernels.KernelCapacityError, match="1 elements, cap 0"):
        kernels.weyl_orbit_array(rs, (0,) * 8, cap=0)
    # only the first stage acts on omega_1: its 16 images are the orbit
    omega1 = (1,) + (0,) * 7
    with pytest.raises(kernels.KernelCapacityError, match="16 elements, cap 15"):
        kernels.weyl_orbit_array(rs, omega1, cap=15)
    out = kernels.weyl_orbit_array(rs, omega1, cap=16)
    assert len(out) == 16 and len({tuple(r) for r in out.tolist()}) == 16


@pytest.mark.parametrize("bad", ["1_000", " 7 ", "+5", "\u0665"])
def test_orbit_cap_refuses_all_but_ascii_digits(monkeypatch, bad):
    # int() reads each of these (1000, 7, 5 and the Arabic-Indic 5), but a
    # cap is written in plain ASCII digits, as table literals are
    monkeypatch.setenv("WEYLBRANCH_CAP", bad)
    with pytest.raises(ValueError, match="WEYLBRANCH_CAP must be a positive integer"):
        kernels.orbit_cap()
    monkeypatch.setenv("WEYLBRANCH_CAP", "12")
    assert kernels.orbit_cap() == 12


def test_orbit_walk_checks_its_count(monkeypatch):
    # a walk that ends with other than |W : W_mu| rows raises, also under -O
    rs = build_root_system(LieType("B", 3))
    monkeypatch.setattr(kernels, "parabolic_index", lambda rs, nodes: (7, ()))
    with pytest.raises(kernels.KernelCapacityError, match="not the orbit size 7"):
        kernels.weyl_orbit_array(rs, (0, 0, 1))


def test_orbit_beyond_oracle_size():
    # 80 640 elements, beyond the scalar oracle's reach: distinct rows in
    # lexicographic order, each with the dominant representative mu
    rs = build_root_system(LieType("B", 7))
    mu = (1, 0, 1, 0, 1, 0, 1)
    out = kernels.weyl_orbit_array(rs, mu)
    rows = [tuple(r) for r in out.tolist()]
    assert len(rows) == orbit_size(rs, mu).orbit_size == 80640
    assert rows == sorted(set(rows))
    assert {dominant_representative(rs, r)[0] for r in rows} == {mu}


def test_orbit_scales_with_the_weight():
    # w -> c w commutes with W and keeps lexicographic order, so the orbit of
    # c w is c times the orbit of w; large c packs fewer coordinates per sort
    # key, down to one, and 2**54 brings sum|c w| near the int64 guard
    for lie, w in ((("B", 3), (1, 0, 1)), (("D", 5), (0, 1, 0, 0, 1)), (("B", 13), (1,) + (0,) * 12)):
        rs = build_root_system(LieType(*lie))
        out = kernels.weyl_orbit_array(rs, w)
        for c in (3, 10**6, 10**12, 2**54):
            assert np.array_equal(kernels.weyl_orbit_array(rs, tuple(c * x for x in w)), c * out), (lie, c)


def test_capacity_guard():
    # a rank-9 table: the Python-int recursion has no width limit
    rs = build_root_system(LieType("D", 9))
    lam = (0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert freudenthal(rs, lam).total_dim == weyl_dim(rs, lam)
    with pytest.raises(kernels.KernelCapacityError):
        kernels.dominant_table(rs, (2, 0, 0, 0, 0, 0, 0, 0, 0), maxdom=2)
    rs = build_root_system(LieType("B", 8))
    with pytest.raises(kernels.KernelCapacityError):
        kernels.weyl_orbit_array(rs, (1, 1, 1, 1, 1, 1, 1, 1), cap=10)
    # coordinates that int64 arithmetic could not hold exactly
    rs = build_root_system(LieType("B", 3))
    for big in (5 * 10**18, 3 * 10**19):
        with pytest.raises(kernels.KernelCapacityError):
            kernels.weyl_orbit_array(rs, (big, 0, 0))


def test_dominant_floor_bounds_the_table():
    # the floor from lam's height never passes the table it bounds, and it
    # refuses a huge table before saturating (B3 (2**50, 0, 0): 6.8e14)
    checked = 0
    for family, lo, hi in (("A", 1, 5), ("B", 2, 5), ("C", 2, 5), ("D", 3, 5)):
        for n in range(lo, hi + 1):
            rs = build_root_system(LieType(family, n))
            for lam in dominant_weights_bounded(n, 4):
                assert kernels.dominant_floor(rs, lam) <= len(kernels.dominant_table(rs, lam)[0]), (family, n, lam)
                checked += 1
    assert checked == 958
    rs = build_root_system(LieType("B", 3))
    assert kernels.dominant_floor(rs, (2**50, 0, 0)) == 675539944105574
    with pytest.raises(kernels.KernelCapacityError, match=r"saturate\(B3, .*\): enumeration cap exceeded"):
        kernels.dominant_table(rs, (2**50, 0, 0))


def test_dominant_rep_array():
    rs = build_root_system(LieType("A", 2))
    rep = [-1, -1]
    steps = kernels._domrep_py(rep, rs.cartan_support)
    assert tuple(rep) == (1, 1) and steps == 3
    rep = [2, 1]
    assert kernels._domrep_py(rep, rs.cartan_support) == 0 and tuple(rep) == (2, 1)


def test_domrep_step_guard_raises(monkeypatch):
    # A2 (-1,-1) needs three steps; with a one-step guard the dominant step
    # raises, and so do the orbit kernel and dominant_representative
    rs = build_root_system(LieType("A", 2))
    monkeypatch.setattr(kernels, "_STEP_GUARD", 1)
    with pytest.raises(kernels.KernelCapacityError):
        kernels._domrep_py([-1, -1], rs.cartan_support)
    with pytest.raises(kernels.KernelCapacityError):
        kernels.weyl_orbit_array(rs, (-1, -1))
    with pytest.raises(kernels.KernelCapacityError):
        dominant_representative(rs, (-1, -1))


def bfs_dominant_table(rs, lam):
    """The former saturation, kept as an oracle: a breadth-first search over
    (weight, positive root) pairs on tuples of Python ints."""
    roots = tuple(zip(rs.root_weights, map(sum, rs.positive_roots)))
    heights = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for root, ht in roots:
                v = tuple(a - b for a, b in zip(w, root))
                if min(v) >= 0 and v not in heights:
                    heights[v] = heights[w] + ht
                    nxt.append(v)
        frontier = nxt
    weights = sorted(heights, key=lambda w: (heights[w], w))
    return weights, [heights[w] for w in weights]


def criterion_2_weights():
    """(root system, weight) for the 794 weights of coefficient sum <= 3 on
    A1-A6, B2-B6, C2-C6 and D3-D6."""
    return [
        (build_root_system(LieType(fam, n)), w)
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
        for n in range(lo, 7)
        for w in dominant_weights_bounded(n, 3)
    ]


def test_saturation_matches_the_breadth_first_oracle():
    # same weights, heights and order on every criterion-2 weight
    cases = criterion_2_weights()
    assert len(cases) == 794
    for rs, lam in cases:
        assert kernels.dominant_table(rs, lam) == bfs_dominant_table(rs, lam), (rs, lam)
    # A15 10*omega_1: its dominant weights are the 42 partitions of 10, and
    # the radix 2 * 10 + 1 packs 14 coordinates per key, so two key columns
    rs = build_root_system(LieType("A", 15))
    lam = (10,) + (0,) * 14
    assert kernels._key_weights(15, 2 * max(sum(a * c for a, c in zip(lam, co)) for co in rs.coroots) + 1).shape[1] > 1
    table = kernels.dominant_table(rs, lam)
    assert len(table[0]) == 42 and table == bfs_dominant_table(rs, lam)


def test_saturation_splits_a_wide_frontier(monkeypatch):
    # frontier blocks of one row give the same table as one block
    monkeypatch.setattr(kernels, "_SATURATE_BLOCK_ROWS", 1)
    for f, n, lam in (("B", 4, (1, 1, 0, 1)), ("D", 6, (0, 1, 0, 1, 0, 1)), ("C", 3, (3, 0, 0))):
        rs = build_root_system(LieType(f, n))
        assert kernels.dominant_table(rs, lam) == bfs_dominant_table(rs, lam)


def test_table_orbit_sizes_match_the_orbit_kernel():
    # the orbit sizes read from the zero-node cache equal orbit_size on every
    # entry of every criterion-2 table, and so do the totals built from them
    for rs, lam in criterion_2_weights():
        table = freudenthal(rs, lam)
        sizes = [orbit_size(rs, w).orbit_size for w in table.entries]
        assert sizes == [charcalc._orbit_size_cached(rs.lie_type, tuple(c == 0 for c in w)) for w in table.entries]
        assert table.total_dim == sum(m * s for m, s in zip(table.entries.values(), sizes)), (rs, lam)
        assert table.largest_orbit == max(sizes)


def test_table_sums_run_over_python_ints_past_int64(monkeypatch):
    # a table whose norms pass int64 is far too large to build, so the
    # object path is forced by lowering its threshold; the tables do not change
    cases = [(rs, lam) for rs, lam in criterion_2_weights() if rs.rank in (3, 5)]
    expected = [(kernels.dominant_table(rs, lam), kernels.freudenthal_table(rs, lam)) for rs, lam in cases]
    monkeypatch.setattr(kernels, "_INT64_SUMS", 0)
    assert [(kernels.dominant_table(rs, lam), kernels.freudenthal_table(rs, lam)) for rs, lam in cases] == expected
