"""Weyl-group actions: dominant representatives and orbits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rootsys import root_coords_to_weight
from weylbranch.kernels import KernelCapacityError, dominant_representative, orbit_size, weyl_orbit_array
from weylbranch.rootsys import LieType, build_root_system, pairing

TYPES = [
    LieType(f, n)
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 7)
]


def reflect(rs, w, alpha_rc):
    """s_alpha(w) = w - <w, alpha-coroot> alpha, from the rootsys primitives."""
    k = pairing(rs, w, alpha_rc)
    return tuple(a - k * b for a, b in zip(w, root_coords_to_weight(rs, alpha_rc)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_reflect_involution_and_domrep_invariance(t, data):
    rs = build_root_system(t)
    w = tuple(data.draw(st.integers(-3, 3)) for _ in range(t.rank))
    alpha = data.draw(st.sampled_from(rs.positive_roots))
    r = reflect(rs, w, alpha)
    assert reflect(rs, r, alpha) == w
    assert dominant_representative(rs, r)[0] == dominant_representative(rs, w)[0]


def test_dominant_representative():
    rs = build_root_system(LieType("A", 2))
    assert dominant_representative(rs, (2, 1)) == ((2, 1), 0)
    # one step per positive root pairing negatively: alpha_1, alpha_2, alpha_1 + alpha_2
    assert dominant_representative(rs, (-1, -1)) == ((1, 1), 3)
    rs = build_root_system(LieType("B", 3))
    w = (0, 0, 1)
    minus = tuple(a - b for a, b in zip(w, (2, 0, 0)))  # lambda_3 - e_1
    # lambda_3 - alpha_1 - alpha_2 - alpha_3 is Weyl-conjugate to lambda_3
    v = [0, 0, 1]
    for j in range(3):
        for i in range(3):
            v[i] -= rs.cartan[j][i]
    rep, steps = dominant_representative(rs, tuple(v))
    assert rep == (0, 0, 1) and steps > 0


def test_orbit_sizes():
    for n in (2, 3, 5, 6):
        rs = build_root_system(LieType("B", n))
        lam_n = tuple(0 if i < n - 1 else 1 for i in range(n))
        s = orbit_size(rs, lam_n)
        assert s.orbit_size == 2**n
        assert s.stabilizer_type == (LieType("A", n - 1),)
    for n in (4, 5, 6):
        rs = build_root_system(LieType("D", n))
        w = tuple(1 if i == n - 2 else 0 for i in range(n))
        assert orbit_size(rs, w).orbit_size == 2 ** (n - 1)
    rs = build_root_system(LieType("C", 3))
    assert orbit_size(rs, (0, 0, 0)).orbit_size == 1


def test_orbit_enumerate_examples():
    rs = build_root_system(LieType("A", 2))
    assert weyl_orbit_array(rs, (1, 0)).tolist() == [[-1, 1], [0, -1], [1, 0]]
    rs = build_root_system(LieType("C", 2))
    assert len(weyl_orbit_array(rs, (1, 0))) == 4
    rs = build_root_system(LieType("D", 4))
    assert weyl_orbit_array(rs, (0, 0, 0, 0)).tolist() == [[0, 0, 0, 0]]
    with pytest.raises(KernelCapacityError):
        weyl_orbit_array(rs, (1, 1, 1, 1), cap=10)
    # a non-integral coordinate is refused, not truncated
    with pytest.raises(ValueError, match="non-integral"):
        weyl_orbit_array(rs, (1, 0, 0, 0.5))


def test_orbit_enumerate_counts_match_sizes():
    # full stated range: every dominant weight with coefficient sum <= 3, rank <= 6
    from weylbranch.checker import dominant_weights_bounded

    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            rs = build_root_system(LieType(f, n))
            for lam in dominant_weights_bounded(n, 3):
                summary = orbit_size(rs, lam)
                assert len(weyl_orbit_array(rs, lam)) == summary.orbit_size


def test_orbit_stabilizer_types_with_fork():
    rs = build_root_system(LieType("D", 5))
    s = orbit_size(rs, (1, 0, 0, 0, 0))
    assert s.orbit_size == 10  # 2n vectors of the natural quadric
    assert s.stabilizer_type == (LieType("D", 4),)
    s = orbit_size(rs, (0, 0, 1, 0, 0))
    assert s.stabilizer_type == (LieType("A", 1), LieType("A", 1), LieType("A", 2))
    rs = build_root_system(LieType("C", 4))
    s = orbit_size(rs, (0, 1, 0, 0))
    assert s.stabilizer_type == (LieType("A", 1), LieType("C", 2))
    assert s.orbit_size == (2**4 * 24) // (2 * 8)
