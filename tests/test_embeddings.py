"""Restriction maps, component actions, and the h/ell invariants."""

import numpy as np
import pytest

from weylbranch.embeddings import (
    _gen_block_transposition,
    _MatrixBuilder,
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    ell_value,
    existence_ok,
    format_h0_weight,
    geom_family,
    h_value,
    kappa_of,
    restrict_weight,
)
from weylbranch.rootsys import LieType, build_root_system


def lam(n, *pairs):
    w = [0] * n
    for i, c in pairs:
        w[i - 1] = c
    return tuple(w)


def test_c1_bn_dn():
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    assert restrict_weight(e, (0, 0, 1)) == (0, 0, 1)
    assert restrict_weight(e, (0, 1, 0)) == (0, 1, 1)
    assert restrict_weight(e, (0, 0, 0)) == (0, 0, 0)
    assert component_orbit_set(e, (0, 0, 1)) == [(0, 0, 1), (0, 1, 0)]
    assert kappa_of(e, (0, 0, 1)) == 2


def test_c1_dlb_and_dld():
    e = build_embedding(LieType("B", 5), geom_family("c1", sub="DlB", l=2))
    assert [str(t) for t in e.factors] == ["A1", "A1", "B3"]
    assert restrict_weight(e, lam(5, (5, 1))) == (0, 1, 0, 0, 1)
    e = build_embedding(LieType("B", 5), geom_family("c1", sub="DlB", l=3))
    assert restrict_weight(e, lam(5, (5, 1))) == (0, 0, 1, 0, 1)
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="DlB", l=1))
    assert restrict_weight(e, lam(3, (3, 1))) == (0, 1, 1)
    assert restrict_weight(e, lam(3, (1, 1))) == (0, 0, 2)
    e = build_embedding(LieType("D", 5), geom_family("c1", sub="DlD", l=2))
    assert restrict_weight(e, lam(5, (5, 1))) == (0, 1, 0, 0, 1)
    assert restrict_weight(e, lam(5, (4, 1))) == (0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        build_embedding(LieType("D", 5), geom_family("c1", sub="DlD", l=3))


def test_c3():
    e = build_embedding(LieType("C", 3), geom_family("c3"))
    assert restrict_weight(e, (1, 0, 0)) == (1, 0, 2)
    assert component_orbit_set(e, (1, 0, 2)) == [(0, 1, -2), (1, 0, 2)]
    assert existence_ok(e, 0) and not existence_ok(e, 2)
    e = build_embedding(LieType("D", 4), geom_family("c3"))
    assert restrict_weight(e, (0, 0, 1, 0)) == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        build_embedding(LieType("D", 5), geom_family("c3"))


def test_c6_a_and_c():
    e = build_embedding(LieType("A", 5), geom_family("c6"))
    assert restrict_weight(e, lam(5, (3, 1))) == (0, 0, 2)
    assert restrict_weight(e, lam(5, (2, 1))) == (0, 1, 1)
    assert restrict_weight(e, lam(5, (4, 1))) == (0, 1, 1)
    assert restrict_weight(e, lam(5, (5, 1))) == (1, 0, 0)
    # m = 2 would need the non-simple rank-two orthogonal group
    with pytest.raises(ValueError):
        build_embedding(LieType("A", 3), geom_family("c6"))
    e = build_embedding(LieType("C", 4), geom_family("c6"))
    assert restrict_weight(e, lam(4, (4, 1))) == (0, 0, 0, 2)
    assert restrict_weight(e, lam(4, (3, 1))) == (0, 0, 1, 1)
    assert existence_ok(e, 2) and not existence_ok(e, 3)


def test_c2_families():
    e = build_embedding(LieType("C", 4), geom_family("c2", l=2, t=2))
    assert restrict_weight(e, lam(4, (3, 1))) == (0, 1, 1, 0)
    assert restrict_weight(e, lam(4, (1, 1))) == (1, 0, 0, 0)
    e = build_embedding(LieType("A", 3), geom_family("c2", l=1, t=2))
    assert restrict_weight(e, lam(3, (1, 1))) == (1, 0, 2, -2)
    e = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    assert restrict_weight(e, lam(4, (4, 1))) == (1, 1, 1)
    assert restrict_weight(e, lam(4, (1, 1))) == (2, 0, 0)
    e = build_embedding(LieType("B", 7), geom_family("c2", l=2, t=3))
    assert restrict_weight(e, lam(7, (7, 1))) == (0, 1, 0, 1, 0, 1)
    assert restrict_weight(e, lam(7, (1, 1))) == (1, 0, 0, 0, 0, 0)
    e = build_embedding(LieType("D", 6), geom_family("c2", kind="Bl", l=1, t=4))
    assert restrict_weight(e, lam(6, (5, 1))) == (1, 1, 1, 1)
    assert restrict_weight(e, lam(6, (6, 1))) == (1, 1, 1, 1)
    e = build_embedding(LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2))
    assert restrict_weight(e, lam(6, (6, 1))) == (0, 0, 1, 0, 0, 1)
    assert restrict_weight(e, lam(6, (5, 1))) == (0, 0, 1, 0, 1, 0)


def test_c4_families():
    e = build_embedding(LieType("C", 4), geom_family("c4i", a=1, b=2))
    assert restrict_weight(e, lam(4, (1, 1))) == (1, 1, 1)
    e = build_embedding(LieType("C", 6), geom_family("c4i", a=1, b=3))
    assert restrict_weight(e, lam(6, (1, 1))) == (1, 1, 0, 0)
    e = build_embedding(LieType("C", 4), geom_family("c4ii", l=1, t=3))
    assert restrict_weight(e, lam(4, (2, 1))) == (0, 2, 2)
    assert restrict_weight(e, lam(4, (3, 1))) == (1, 1, 3)
    e = build_embedding(LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2))
    assert restrict_weight(e, lam(8, (7, 1))) == (1, 0, 1, 1)
    e = build_embedding(LieType("D", 8), geom_family("c4ii", kind="Cl", l=1, t=4))
    assert restrict_weight(e, lam(8, (7, 1))) == (1, 1, 1, 3)
    e = build_embedding(LieType("B", 4), geom_family("c4ii", l=1, t=2))
    assert restrict_weight(e, lam(4, (4, 1))) == (1, 3)
    assert restrict_weight(e, lam(4, (2, 1))) == (2, 4)


# ---------------------------------------------------------------------------
# simple-root images: matrix consistency, and the digit-formula oracle for c4ii


ALL_INSTANCES = [
    (LieType("B", 4), geom_family("c1", sub="Dn")),
    (LieType("B", 6), geom_family("c1", sub="DlB", l=3)),
    (LieType("B", 8), geom_family("c1", sub="DlB", l=1)),
    (LieType("D", 8), geom_family("c1", sub="DlD", l=3)),
    (LieType("D", 10), geom_family("c1", sub="DlD", l=4)),
    (LieType("C", 8), geom_family("c3")),
    (LieType("D", 8), geom_family("c3")),
    (LieType("A", 9), geom_family("c6")),
    (LieType("C", 7), geom_family("c6")),
    (LieType("A", 7), geom_family("c2", l=1, t=4)),
    (LieType("A", 8), geom_family("c2", l=2, t=3)),
    (LieType("B", 7), geom_family("c2", l=2, t=3)),
    (LieType("B", 10), geom_family("c2", l=3, t=3)),
    (LieType("C", 9), geom_family("c2", l=3, t=3)),
    (LieType("D", 10), geom_family("c2", kind="Bl", l=2, t=4)),
    (LieType("D", 9), geom_family("c2", kind="Dl", l=3, t=3)),
    (LieType("C", 8), geom_family("c4i", a=2, b=2)),
    (LieType("A", 8), geom_family("c4ii", l=2, t=2)),
    (LieType("B", 4), geom_family("c4ii", l=1, t=2)),
    (LieType("C", 4), geom_family("c4ii", l=1, t=3)),
    (LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2)),
    (LieType("D", 8), geom_family("c4ii", kind="Cl", l=1, t=4)),
]


@pytest.mark.parametrize("ambient,fam", ALL_INSTANCES, ids=lambda x: str(x))
def test_simple_root_image_consistency(ambient, fam):
    e = build_embedding(ambient, fam)
    rs = build_root_system(ambient)
    for k in range(ambient.rank):
        row = np.asarray(rs.cartan[k], dtype=np.int64) @ e.restriction
        assert tuple(int(x) for x in row) == tuple(e.simple_root_images[k])


def _digit_oracle_images(ambient, fam):
    """The displayed case formulas for the simple-root images of the balanced
    tensor families, written directly from the digit expansion of k."""
    l = fam.get("l")
    t = fam.get("t")
    n = ambient.rank
    family = ambient.family
    kind = fam.get("kind", "Cl")
    if family == "A":
        d = l + 1
    elif family == "B":
        d = 2 * l + 1
    else:
        d = 2 * l
    ftype = {"A": "A", "B": "B", "C": "C", "D": {"Cl": "C", "Dl": "D"}[kind]}[family]
    frs = build_root_system(LieType(ftype, l)) if l > 1 else build_root_system(LieType("A", 1))
    width = l * t

    def beta(i, j, coeff=1):
        # j with the folding convention beta_{l+m} = beta_{l-m}
        if ftype == "A":
            assert 1 <= j <= l
        elif j > l:
            j = 2 * l - j  # folding convention beta_{l+m} = beta_{l-m}
        if j == 0:
            return np.zeros(width, dtype=np.int64)
        out = np.zeros(width, dtype=np.int64)
        out[(i - 1) * l:(i - 1) * l + l] = coeff * np.asarray(frs.cartan[j - 1], dtype=np.int64)
        return out

    def highest(i):
        out = np.zeros(width, dtype=np.int64)
        if ftype == "B":  # highest short root
            for j in range(1, l + 1):
                out += beta(i, j)
        elif ftype == "C":  # highest long root
            for j in range(1, l):
                out += 2 * beta(i, j)
            out += beta(i, l)
        elif ftype == "D":
            for j in range(1, l - 1):
                out += 2 * beta(i, j)
            out += beta(i, l - 1) + beta(i, l)
        else:  # A: full chain sum
            for j in range(1, l + 1):
                out += beta(i, j)
        return out

    images = []
    for k in range(1, n + 1):
        digits = []
        m = k
        for _ in range(t):
            digits.append(m % d)
            m //= d
        ik = next(i for i, r in enumerate(digits) if r)
        r = digits[ik]
        if family == "A":
            img = beta(ik + 1, r).copy()
            for i in range(1, ik + 1):
                img -= highest(i)
        elif family == "B":
            rr = r if r <= l else r - 1
            img = beta(ik + 1, rr).copy()
            for i in range(1, ik + 1):
                img -= 2 * highest(i)
        elif family == "C" or (family == "D" and kind == "Cl" and k != n):
            if ik == 0:
                img = beta(1, r).copy()
            elif l == 1:
                img = beta(ik + 1, 1).copy()
                for i in range(1, ik + 1):
                    img -= beta(i, 1)
            else:
                img = beta(ik + 1, r).copy()
                for i in range(1, ik + 1):
                    img -= highest(i)
        elif family == "D" and kind == "Cl":  # k == n
            if l == 1:
                img = beta(t, 1).copy()
                for i in range(2, t):
                    img -= beta(i, 1)
            else:
                img = beta(1, 1) + beta(t, l)
                for i in range(1, t):
                    img -= highest(i)
        else:  # D, kind == Dl
            if k == n:
                img = beta(1, 1) - beta(t, l - 1) + beta(t, l)
                for i in range(1, t):
                    img -= highest(i)
            elif ik == 0:
                img = (-beta(1, l - 1) + beta(1, l)) if r == l else beta(1, r).copy()
            else:
                if r == l:
                    img = -beta(ik + 1, l - 1) + beta(ik + 1, l)
                else:
                    img = beta(ik + 1, r).copy()
                for i in range(1, ik + 1):
                    img -= highest(i)
        images.append(tuple(int(x) for x in img))
    return images


C4II_INSTANCES = [
    (LieType("A", 8), geom_family("c4ii", l=2, t=2)),
    (LieType("B", 4), geom_family("c4ii", l=1, t=2)),
    (LieType("B", 13), geom_family("c4ii", l=1, t=3)),
    (LieType("B", 12), geom_family("c4ii", l=2, t=2)),
    (LieType("C", 4), geom_family("c4ii", l=1, t=3)),
    (LieType("C", 32), geom_family("c4ii", l=2, t=3)),
    (LieType("D", 4), geom_family("c4ii", kind="Cl", l=1, t=3)),
    (LieType("D", 8), geom_family("c4ii", kind="Cl", l=1, t=4)),
    (LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2)),
    (LieType("D", 18), geom_family("c4ii", kind="Dl", l=3, t=2)),
    (LieType("D", 32), geom_family("c4ii", kind="Dl", l=4, t=2)),
]


@pytest.mark.parametrize("ambient,fam", C4II_INSTANCES, ids=lambda x: str(x))
def test_c4ii_alpha_images_match_digit_formulas(ambient, fam):
    e = build_embedding(ambient, fam)
    oracle = _digit_oracle_images(ambient, fam)
    assert list(e.simple_root_images) == oracle


def test_maximal_rank_injectivity():
    cases = [
        (LieType("C", 6), geom_family("c2", l=2, t=3)),
        (LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2)),
        (LieType("C", 4), geom_family("c4i", a=1, b=2)),
        (LieType("C", 4), geom_family("c4ii", l=1, t=3)),
        (LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2)),
    ]
    for ambient, fam in cases:
        e = build_embedding(ambient, fam)
        rs = build_root_system(ambient)
        for rc in rs.positive_roots:
            img = np.asarray(rc, dtype=np.int64) @ np.asarray(
                [e.simple_root_images[k] for k in range(ambient.rank)], dtype=np.int64
            )
            assert any(img), (ambient, fam, rc)


def test_positive_root_sum_restricts_nonnegatively():
    # sum of all positive roots restricted: non-negative factor root coords
    from fractions import Fraction

    for ambient, fam in [
        (LieType("C", 6), geom_family("c2", l=2, t=3)),
        (LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2)),
        (LieType("C", 4), geom_family("c4ii", l=1, t=3)),
        (LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2)),
    ]:
        rs = build_root_system(ambient)
        e = build_embedding(ambient, fam)
        two_rho = tuple(2 for _ in range(ambient.rank))  # sum of positive roots
        img = restrict_weight(e, two_rho)
        parts, _ = e.split(img)
        for part, frs in zip(parts, e.factor_systems):
            for j in range(frs.rank):
                v = sum(Fraction(part[i]) * frs.inverse_cartan[i][j] for i in range(frs.rank))
                assert v >= 0


def test_component_orbit_and_kappa():
    e = build_embedding(LieType("C", 4), geom_family("c2", l=1, t=4))
    orb = component_orbit_set(e, restrict_weight(e, lam(4, (1, 1))))
    assert len(orb) == 4  # natural module: kappa = t
    e = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    hw = restrict_weight(e, lam(4, (4, 1)))
    assert central_multiplicity(e, hw) == 2
    assert kappa_of(e, hw) == 2
    e = build_embedding(LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2))
    hw = restrict_weight(e, lam(6, (6, 1)))
    assert kappa_of(e, hw) == 2  # 2^{t-1}


def test_block_transposition_rejects_different_shapes():
    # a D2 factor materializes as two A1 factors, an A3 factor as one
    b = _MatrixBuilder(LieType("D", 5), [("D", 2), ("A", 3)])
    with pytest.raises(ValueError, match="materialized shape"):
        _gen_block_transposition(b, 1, 2)
    assert _gen_block_transposition(b, 1, 1).factor_perm == (0, 1, 2)


def test_h_value():
    e = build_embedding(LieType("B", 5), geom_family("c1", sub="DlB", l=2))
    assert h_value(e, (1, 0, 3, 0, 0)) == 4
    assert h_value(e, (0, 0, 0, 0, 0)) == 0
    rs = build_root_system(LieType("B", 5))
    lam5 = (0, 1, 1, 0, 1)  # a_l >= 1 with l = 2
    mu = tuple(a - b for a, b in zip(lam5, rs.cartan[1]))
    assert h_value(e, restrict_weight(e, mu)) == h_value(e, restrict_weight(e, lam5)) + 1


def test_ell_value():
    # identity permutation, mu = lambda: zero correction
    e = build_embedding(LieType("C", 4), geom_family("c4ii", l=1, t=3))
    lh = restrict_weight(e, lam(4, (2, 1)))
    ell, comps = ell_value(e, lh, lh, (0, 1, 2))
    assert ell == 0 and all(c == 0 for c in comps)
    # A-type: mu = lambda - alpha_k with r_k(0) = 0 gives ell = l * i_k - 1 > 0
    amb = LieType("A", 8)
    e = build_embedding(amb, geom_family("c4ii", l=2, t=2))
    rs = build_root_system(amb)
    lam_w = lam(8, (3, 1))
    mu = tuple(a - b for a, b in zip(lam_w, rs.cartan[2]))  # k = 3 = (l+1)^1
    ell, _ = ell_value(e, restrict_weight(e, mu), restrict_weight(e, lam_w), (0, 1))
    assert ell == 2 * 1 - 1 == 1
    # C-type: subtracting alpha_1 hits the first factor coordinate
    e = build_embedding(LieType("C", 4), geom_family("c4ii", l=1, t=3))
    rs = build_root_system(LieType("C", 4))
    lam_w = lam(4, (1, 1))
    mu = tuple(a - b for a, b in zip(lam_w, rs.cartan[0]))
    ell, comps = ell_value(e, restrict_weight(e, mu), restrict_weight(e, lam_w), (0, 1, 2))
    assert ell == -1 and comps[0] == -1
    # correction outside the root lattice errors
    with pytest.raises(ValueError):
        ell_value(e, (1, 0, 0), (0, 0, 1), (0, 1, 2))


def test_format_h0_weight():
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="DlB", l=1))
    assert format_h0_weight(e, (0, 1, 1)) == "w(1,2) | q=(1)"
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    assert format_h0_weight(e, (0, 0, 0)) == "0"


def test_c4i_component_group_order_four():
    # two independent flips on a D x D tensor pair
    e = build_embedding(LieType("D", 12), geom_family("c4i", a=3, b=2))
    assert [str(t) for t in e.factors] == ["D3", "A1", "A1"]
    hw = (0, 0, 1, 1, 0)  # half-spin on the first factor, one A1 spin on the pair
    orb = component_orbit_set(e, hw)
    assert len(orb) == 4
    fixed = restrict_weight(e, tuple(1 if i == 0 else 0 for i in range(12)))
    assert len(component_orbit_set(e, fixed)) == 1
