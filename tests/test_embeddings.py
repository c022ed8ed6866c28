"""Restriction maps, component actions, and the ell invariant."""

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import chain_oracle
from test_acceptance import kappa_of
from test_checker import full_restricted_multiset
from test_rootsys import fundamental_weight
from weylbranch import embeddings, kernels
from weylbranch.charcalc import freudenthal
from weylbranch.checker import clifford_prediction, dominant_weights_bounded
from weylbranch.embeddings import (
    FAMILY_TAGS,
    _swap,
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    component_orbits,
    ell_value,
    existence_ok,
    family_of,
    format_h0_weight,
    geom_family,
    instance_params,
    restrict_weight,
)
from weylbranch.rootsys import _MIN_RANK, FAMILIES, LieType, build_root_system, epsilon_model, scaled_root_coords


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


def test_restrict_weight_is_exact():
    # Python-int arithmetic: no wrapped charge, no OverflowError past int64
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    got = restrict_weight(e, (0, 1 << 62, 1 << 62))
    assert got == (0, 1 << 62, 1 << 63)
    assert restrict_weight(e, (1 << 63, 0, 0)) == (1 << 63, 0, 0)
    assert restrict_weight(e, np.array((0, 1, 0))) == (0, 1, 1)
    assert all(type(x) is int for x in got)


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
                v = sum(Fraction(part[i] * frs.inv_cartan_scaled[i][j], frs.inv_den) for i in range(frs.rank))
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


def test_block_swap_rejects_different_factors():
    # a D2 factor materializes as two A1 coordinates, an A2 factor as one A2:
    # the same width, but not the same group
    with pytest.raises(ValueError, match="different types"):
        _swap([("D", 2), ("A", 2)], 0, 1)
    assert _swap([("C", 2), ("C", 2)], 0, 1) == [(0, 2, 1), (1, 3, 1)]


def test_build_embedding_is_shared_and_read_only():
    amb, fam = LieType("B", 5), geom_family("c1", sub="DlB", l=2)
    e = build_embedding(amb, fam)
    assert build_embedding(amb, fam) is e
    with pytest.raises(ValueError):
        e.restriction[0, 0] = 7


def test_embedding_is_hashed_by_identity():
    # the checker's caches key on the embedding; the dataclass equality once
    # compared the restriction array and raised on e == e
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    assert e == e and {e: 1}[e] == 1
    assert e.root_system is build_root_system(e.ambient)


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


def test_ell_value_checks_the_d_fork_in_pairs():
    # c4ii with all-D factors: D3 x D3 in D18.  omega_1 of a factor is
    # alpha_1 + (alpha_2 + alpha_3)/2, outside the root lattice one fork
    # coordinate at a time but not as a pair, so it passes
    e = build_embedding(LieType("D", 18), geom_family("c4ii", kind="Dl", l=3, t=2))
    assert [str(f) for f in e.factors] == ["D3", "D3"]
    zero = (0,) * e.width
    ell, comps = ell_value(e, (1, 0, 0, 0, 0, 0), zero, (0, 1))
    assert ell == 2 and comps == (1, Fraction(1, 2), Fraction(1, 2))
    assert ell_value(e, (0, 0, 0, 1, 0, 0), zero, (1, 0))[0] == 2
    # a spin weight fails the first coordinate, before the fork pair
    with pytest.raises(ValueError, match=r"factor 1 \(coordinate 1\)"):
        ell_value(e, (0, 0, 1, 0, 0, 0), zero, (0, 1))
    # on an integral weight the coordinates before the fork being integral
    # already makes the fork pair's sum integral, which is why ell_value
    # tests the coordinates before the fork and not the pair
    for l in (3, 4, 5, 6):
        rs = build_root_system(LieType("D", l))
        for w in itertools.product(range(-2, 3), repeat=l):
            scaled = scaled_root_coords(rs, w)
            if all(c % rs.inv_den == 0 for c in scaled[:-2]):
                assert (scaled[-2] + scaled[-1]) % rs.inv_den == 0, w


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


# ---------------------------------------------------------------------------
# every instance up to rank 12: a pin on the frozen data, and oracles that do
# not read the restriction matrix


def _instances(max_rank):
    out = []
    for tag in FAMILY_TAGS:
        for letter in "ABCD":
            for n in range(_MIN_RANK[letter], max_rank + 1):
                for params in instance_params(tag, letter, n):
                    out.append(build_embedding(LieType(letter, n), family_of(tag, params)))
    return out


INSTANCES_12 = _instances(12)


def _act(g, w):
    idx, sgn = g
    return tuple(s * w[i] for i, s in zip(idx, sgn))


def _generator_maps(e):
    """Each component-group generator as a map on restricted weights."""
    return [functools.partial(_act, g) for g in e.generators]


def _generator_matrices(e):
    """Each generator as the images of the unit vectors, sorted."""
    units = [tuple(int(i == j) for i in range(e.width)) for j in range(e.width)]
    return sorted([list(g(u)) for u in units] for g in _generator_maps(e))


def component_orbit_oracle(e, hw):
    """The former body of ``component_orbit_set``, kept as an oracle: a
    breadth-first search applying each generator as a list comprehension."""
    start = tuple(hw)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for idx, sgn in e.generators:
                y = tuple([s * w[i] for i, s in zip(idx, sgn)])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _oracle_weights():
    """(embedding, restricted weights) up to rank 8: the weights with
    coefficient sum <= 2, and with a torus, the last one with every charge
    made negative."""
    out = []
    for e in INSTANCES_12:
        if e.ambient.rank > 8:
            continue
        weights = [restrict_weight(e, lam) for lam in dominant_weights_bounded(e.ambient.rank, 2)]
        if e.torus_rank:
            w = weights[-1]
            weights.append(w[: e.semisimple_rank] + tuple(-abs(c) - 1 for c in w[e.semisimple_rank:]))
        out.append((e, weights))
    return out


ORACLE_WEIGHTS = _oracle_weights()


def test_component_orbit_matches_oracle():
    checks = 0
    for e, weights in ORACLE_WEIGHTS:
        for w in weights:
            assert component_orbit_set(e, w) == component_orbit_oracle(e, w), (e.ambient, e.family, w)
            checks += 1
    assert checks == 3164


def _orbit_blocks(e, weights):
    """``component_orbits`` of one block as (each weight's orbit rows, chunk sizes)."""
    orbits, chunks = [], []
    for orbit, sizes in component_orbits(e, np.array(weights, dtype=np.int64)):
        assert orbit.dtype == np.int64 and orbit.shape == (sizes.sum(), e.width)
        rows = orbit.tolist()
        for end, size in zip(np.cumsum(sizes).tolist(), sizes.tolist()):
            orbits.append([tuple(c) for c in rows[end - size:end]])
        chunks.append(sizes.tolist())
    return orbits, chunks


def _whole_group(e):
    """Whether e's component group is applied whole, by the oracle's order."""
    return chain_oracle.chain_order(e) <= embeddings.WHOLE_GROUP_ORDER


def test_component_orbits_match_oracle():
    # each whole-group embedding's weights walked as one block: every
    # orbit's rows, in the oracle's sorted order, and one size per weight;
    # a larger group is refused before any row is made
    checks = refused = 0
    for e, weights in ORACLE_WEIGHTS:
        if not _whole_group(e):
            with pytest.raises(kernels.KernelCapacityError, match="more than 512 elements"):
                _orbit_blocks(e, weights)
            refused += 1
            continue
        orbits, chunks = _orbit_blocks(e, weights)
        assert orbits == [component_orbit_oracle(e, w) for w in weights], (e.ambient, e.family)
        assert [len(c) for c in orbits] == [n for sizes in chunks for n in sizes]
        checks += len(weights)
    assert checks == 2798 and refused == 11


def test_component_orbit_chunks_hold_whole_group_images():
    # a chunk holds at most ORBIT_CHUNK_ROWS // |A| weights, one at least,
    # and where the chunks end changes no orbit
    e = build_embedding(LieType("C", 5), geom_family("c2", l=1, t=5))
    weights = [restrict_weight(e, lam) for lam in dominant_weights_bounded(5, 3)]
    expected = [component_orbit_oracle(e, w) for w in weights]
    assert len(embeddings.component_group(e)[0]) == 120 and len(weights) == 55
    for rows, most in ((1 << 13, 55), (1000, 8), (1, 1)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(embeddings, "ORBIT_CHUNK_ROWS", rows)
            orbits, chunks = _orbit_blocks(e, weights)
        assert orbits == expected and max(map(len, chunks)) == most


def test_generators_are_involutions():
    # ``_embed`` builds each generator from signed transpositions on disjoint
    # coordinates; the walks do not rely on it, but a generator that is not
    # an involution would mean a model with overlapping moves
    for e in INSTANCES_12:
        for idx, sgn in e.generators:
            assert all(idx[idx[i]] == i and sgn[idx[i]] * sgn[i] == 1 for i in range(e.width)), (e.ambient, e.family)


def _chain_sizes(e):
    return [len(idx) for idx, _ in chain_oracle.chain_of(e)]


def _chain_order(e):
    return math.prod(_chain_sizes(e))


def test_chain_order_of_the_torus_normalizers_and_block_swaps():
    # on t equal summands (c2) the block swaps generate S_t; with D_l
    # summands an even number of them is flipped as well, and at l = 1 that
    # group is W(D_n), the torus normalizer (instances from D4 on)
    torus = 0
    for e in INSTANCES_12:
        if e.family.tag != "c2":
            continue
        t = e.family.get("t")
        flips = e.family.get("kind") == "Dl"
        order = math.factorial(t) << (t - 1 if flips else 0)
        assert _chain_order(e) == order, (e.ambient, e.family)
        torus += flips and e.family.get("l") == 1
    assert torus == len(range(4, 13))


def test_chain_order_matches_the_group_closure():
    # a weight with distinct non-zero absolute coordinates has a trivial
    # stabilizer in the signed permutations, so its orbit under the
    # generators, walked by the oracle search, has |A| elements: the
    # oracle's chain order, and the number of elements of the group that
    # ``component_orbits`` applies whole, which lists each one once
    checked = 0
    for e in INSTANCES_12:
        if not _whole_group(e):
            continue
        idx, sgn = embeddings.component_group(e)
        elements = {(tuple(i), tuple(s)) for i, s in zip(idx.tolist(), sgn.tolist())}
        assert len(elements) == len(idx) == _chain_order(e), (e.ambient, e.family)
        if e.ambient.rank <= 8:
            assert len(idx) == len(component_orbit_oracle(e, range(1, e.width + 1))), (e.ambient, e.family)
            checked += 1
    assert checked == 103


# The former natural-module arithmetic, kept as the oracle of the epsilon
# model and of the factor conversion: the doubled epsilon-rows of the
# fundamental weights and each factor's fundamental coordinates, written out
# per family.


def former_e_rows(fam, n):
    """Doubled epsilon-coordinates of the fundamental weights of fam_n (Z^{n+1} for A)."""
    rows = [[2] * k + [0] * (n - k) for k in range(1, n + 1)]
    if fam == "A":
        rows = [row + [0] for row in rows]
    elif fam == "B":
        rows[n - 1] = [1] * n
    elif fam == "D":
        rows[n - 2] = [1] * (n - 1) + [-1]
        rows[n - 1] = [1] * n
    return rows


def former_factor_from_e(fam, l, f):
    """Factor fundamental coordinates from doubled epsilon-coordinates f."""
    out = [f[j] - f[j + 1] for j in range(l if fam == "A" else l - 1)]
    if fam == "B":
        out.append(2 * f[l - 1])
    elif fam == "C":
        out.append(f[l - 1])
    elif fam == "D":
        out.append(f[l - 2] + f[l - 1])
    assert all(v % 2 == 0 for v in out)
    return [v // 2 for v in out]


def former_factor_coords(kinds, doubled):
    out = []
    for row in doubled:
        coords, start = [], 0
        for fam, r in kinds:
            width = r + 1 if fam == "A" else r
            coords += former_factor_from_e(fam, r, row[start:start + width])
            start += width
        assert all(v % 2 == 0 for v in row[start:])
        out.append(coords + [v // 2 for v in row[start:]])
    return out


DEGENERATE_KINDS = (("A", 1), ("B", 1), ("C", 1), ("D", 2))


def test_epsilon_model_matches_the_former_rows():
    kinds = DEGENERATE_KINDS + tuple((fam, n) for fam in FAMILIES for n in range(_MIN_RANK[fam], 13))
    for fam, n in kinds:
        model = epsilon_model(fam, n)
        assert model.weights.tolist() == former_e_rows(fam, n), (fam, n)
        # each simple coroot pairs with the doubled fundamental weights as 2 delta
        assert (model.weights @ model.coroots.T).tolist() == (2 * np.eye(n, dtype=int)).tolist()
        assert not any(block.flags.writeable for block in model)
    for fam, n in (("D", 1), ("A", 0), ("E", 6)):
        with pytest.raises(ValueError, match="no epsilon model"):
            epsilon_model(fam, n)


def test_factor_conversion_matches_the_former_arithmetic(monkeypatch):
    # the degenerate kinds directly, on every weight with coefficients in -2..2
    for fam, r in DEGENERATE_KINDS + (("A", 3), ("B", 3), ("C", 3), ("D", 3)):
        weights = np.array(list(itertools.product(range(-2, 3), repeat=r)), dtype=np.int64)
        doubled = weights @ epsilon_model(fam, r).weights
        got = embeddings._factor_coords([(fam, r)], doubled)
        assert got.tolist() == former_factor_coords([(fam, r)], doubled.tolist()) == weights.tolist()
    with pytest.raises(AssertionError, match="non-integral"):
        embeddings._factor_coords([("A", 1)], np.array([[1, 0]]))
    # every factor kind of every instance up to rank 12, through _embed
    convert, seen = embeddings._factor_coords, set()

    def record(kinds, doubled):
        got = convert(kinds, doubled)
        assert got.tolist() == former_factor_coords(kinds, doubled.tolist()), kinds
        seen.update(kinds)
        return got

    monkeypatch.setattr(embeddings, "_factor_coords", record)
    for e in INSTANCES_12:
        built = embeddings._BUILDERS[e.family.tag](e.ambient, e.family)
        assert np.array_equal(built.restriction, e.restriction)
    assert set(DEGENERATE_KINDS) <= seen
    assert len(seen) == 39  # the factor kinds of the instances up to rank 12


def test_embed_refuses_generators_that_share_a_coordinate():
    # (0 1)(1 2) on the torus normalizer's charges is a 3-cycle, not an
    # involution; each move alone, or both on disjoint charges, is accepted
    ambient = LieType("D", 4)
    family = geom_family("c2", kind="Dl", l=1, t=4)
    charges = [tuple(2 * (i == j) for i in range(4)) for j in range(4)]

    def embed(gen):
        return embeddings._embed(ambient, family, [], [[]] * 4, [gen], charges=charges, charge_scale=2)

    assert embed([(0, 1, 1), (2, 3, -1)]).generators == (((1, 0, 3, 2), (1, 1, -1, -1)),)
    assert embed([(1, 1, -1)]).generators == (((0, 1, 2, 3), (1, -1, 1, 1)),)
    with pytest.raises(ValueError, match="moves a coordinate twice"):
        embed([(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="moves a coordinate twice"):
        embed([(0, 1, 1), (1, 1, -1)])


def test_component_orbits_refuse_coordinates_past_their_keys():
    e = build_embedding(LieType("D", 4), geom_family("c2", kind="Dl", l=1, t=4))
    last = (1 << 60) - 1
    orbits, _ = _orbit_blocks(e, [(last, 0, 0, 0)])
    assert orbits == [component_orbit_oracle(e, (last, 0, 0, 0))]
    with pytest.raises(kernels.KernelCapacityError, match="2\\*\\*60"):
        _orbit_blocks(e, [(0, 0, 0, 0), (1 << 60, 0, 0, 0)])


def test_instance_counts():
    counts = Counter(e.family.tag for e in INSTANCES_12)
    assert counts == {"c1": 104, "c2": 82, "c3": 16, "c4i": 9, "c4ii": 7, "c6": 14}


# the search box: each tag's own selector values and integer parameters, every
# integer absent or in 0..2n+1; every enumerated instance with one foreign
# parameter added
BOX_SELECTORS = {"c1": ("sub", ("Dn", "DlB", "DlD")), "c2": ("kind", ("Bl", "Dl")), "c4ii": ("kind", ("Cl", "Dl"))}
BOX_INTEGERS = {"c1": ("l",), "c2": ("l", "t"), "c3": (), "c4i": ("a", "b"), "c4ii": ("l", "t"), "c6": ()}
BOX_STRAYS = (("l", 1), ("t", 2), ("a", 1), ("b", 2), ("m", 3), ("sub", "Dn"), ("kind", "Bl"), ("kind", "Cl"))


def _builds(ambient, family):
    try:
        build_embedding(ambient, family)
    except ValueError:
        return False
    return True


def test_build_embedding_accepts_exactly_the_enumerated_instances():
    for tag in FAMILY_TAGS:
        key, values = BOX_SELECTORS.get(tag, (None, ()))
        selectors = [{}] + [{key: v} for v in values]
        names = BOX_INTEGERS[tag]
        for letter in "ABCD":
            for n in range(_MIN_RANK[letter], 9):
                ambient = LieType(letter, n)
                valid = {family_of(tag, p) for p in instance_params(tag, letter, n)}
                box = set()
                for sel in selectors:
                    for combo in itertools.product([None, *range(2 * n + 2)], repeat=len(names)):
                        box.add(geom_family(tag, **sel, **{k: v for k, v in zip(names, combo) if v is not None}))
                assert valid <= box, (ambient, tag)
                for fam in valid:
                    box.update(geom_family(tag, **dict(fam.params), **{k: v}) for k, v in BOX_STRAYS if fam.get(k) is None)
                assert {fam for fam in box if _builds(ambient, fam)} == valid, (ambient, tag)


def test_invalid_family_error_lists_the_instances():
    with pytest.raises(ValueError, match=r"no instance c1:l=7,sub=Dn on B3; .* are: c1:sub=Dn, c1:l=1,sub=DlB, c1:l=2,sub=DlB$"):
        build_embedding(LieType("B", 3), geom_family("c1", sub="Dn", l=7))
    # c2 on D needs n >= 4, also for the B_l^t kind
    with pytest.raises(ValueError, match="c2 instances on D3 are: none"):
        build_embedding(LieType("D", 3), geom_family("c2", kind="Bl", l=1, t=2))
    # m scopes the tables only; it is not a parameter of the family
    assert [family_of("c6", p) for p in instance_params("c6", "A", 5)] == [geom_family("c6")]
    with pytest.raises(ValueError, match="c6 instances on A5 are: c6$"):
        build_embedding(LieType("A", 5), geom_family("c6", m=3))


def test_embedding_digest():
    # factors, charges, R and the generators of every instance up to rank 12;
    # the charges reach CLI records through format_h0_weight
    records = [
        [
            str(e.ambient),
            str(e.family),
            [str(t) for t in e.factors],
            [list(g) for g in e.factor_groups],
            e.torus_rank,
            e.charge_scale,
            e.existence,
            e.central2,
            e.restriction.tolist(),
            _generator_matrices(e),
        ]
        for e in INSTANCES_12
    ]
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EMBEDDING_DIGEST


EMBEDDING_DIGEST = "23c1a85171d92bfa0355c49302235eeca992f629379a3859f6947870aa97b2f1"


def test_central_multiplicity_is_constant_on_component_orbits():
    # checker.clifford_prediction gives every c in the component orbit of
    # lam_h the central multiplicity of lam_h, and verify_entry reads kappa as
    # their sum; both are right only when the multiplicity is the same at
    # every c
    checks = 0
    for e in INSTANCES_12:
        if e.ambient.rank > 8:
            continue
        for lam in dominant_weights_bounded(e.ambient.rank, 2):
            lam_h = restrict_weight(e, lam)
            predicted = {c: central_multiplicity(e, c) for c in component_orbit_set(e, lam_h)}
            assert len(set(predicted.values())) == 1, (e.ambient, e.family, lam)
            assert clifford_prediction(e, lam_h) == predicted
            # the keys of predicted are the component orbit: this is kappa_of
            assert sum(predicted.values()) == len(predicted) * central_multiplicity(e, lam_h)
            checks += 1
    assert checks == 3124


def test_generators_preserve_restricted_modules():
    # the component group normalizes H, so it permutes the weights of every
    # restricted G-module: checked on omega_1, and omega_2 up to rank 8
    checks = 0
    for e in INSTANCES_12:
        rs = build_root_system(e.ambient)
        ks = [1] + ([2] if 2 <= e.ambient.rank <= 8 else [])
        for k in ks:
            ms = full_restricted_multiset(rs, fundamental_weight(rs, k), e)
            for g in _generator_maps(e):
                assert {g(w): m for w, m in ms.items()} == ms, (e.ambient, e.family, k)
                checks += 1
    assert checks == 716


def _structure(ambient, fam):
    """Original factor types of H and how their natural modules make up W.

    Read off the geometric structure alone: W = W1 + W2 (c1), W1 + ... + Wt
    (c2), U + U* (c3), a tensor product (c4), a classical form (c6).  Rank-0
    and D1 entries are summands that carry no semisimple weight.
    """
    n, X, get = ambient.rank, ambient.family, fam.get
    if fam.tag == "c1":
        l = get("l")
        if get("sub") == "Dn":
            return [("D", n), ("B", 0)], "sum"
        return [("D", l), (X, n - l)], "sum"
    if fam.tag == "c2":
        kind = X if X != "D" else get("kind", "Dl")[0]
        return [(kind, get("l"))] * get("t"), "sum"
    if fam.tag == "c3":
        return [("A", n - 1)], "dual"
    if fam.tag == "c4i":
        return [(X, get("a")), ("D", get("b"))], "tensor"
    if fam.tag == "c4ii":
        kind = X if X != "D" else get("kind", "Cl")[0]
        return [(kind, get("l"))] * get("t"), "tensor"
    return [("D", (n + 1) // 2 if X == "A" else n)], "sum"


def _natural_weights(fam, r):
    """Weights of a factor's natural module in its materialized coordinates."""
    if r == 0:
        return [()]
    if fam == "D" and r == 1:
        return [(), ()]
    if fam == "D" and r == 2:  # A1 x A1, natural module the tensor square
        return [(a, b) for a in (1, -1) for b in (1, -1)]
    if r == 1:  # B1 and C1 as A1: the adjoint and the natural module
        return [(2,), (0,), (-2,)] if fam == "B" else [(1,), (-1,)]
    rs = build_root_system(LieType(fam, r))
    table = freudenthal(rs, fundamental_weight(rs, 1))
    return [
        tuple(row)
        for dom, m in table.entries.items()
        for row in kernels.weyl_orbit_array(rs, dom).tolist()
        for _ in range(m)
    ]


def test_natural_module_restricts_as_the_structure_predicts():
    for e in INSTANCES_12:
        kinds, how = _structure(e.ambient, e.family)
        naturals = [_natural_weights(fam, r) for fam, r in kinds]
        if how == "tensor":
            predicted = Counter([()])
            for nat in naturals:
                predicted = Counter(w + v for w, m in predicted.items() for v in nat for _ in range(m))
        else:
            predicted = Counter()
            for f, nat in enumerate(naturals):
                before = sum(len(x[0]) for x in naturals[:f])
                after = sum(len(x[0]) for x in naturals[f + 1:])
                predicted.update((0,) * before + w + (0,) * after for w in nat)
            if how == "dual":
                predicted.update({tuple(-c for c in w): m for w, m in predicted.items()})
        rs = build_root_system(e.ambient)
        found = Counter()
        for w, m in full_restricted_multiset(rs, fundamental_weight(rs, 1), e).items():
            found[w[: e.semisimple_rank]] += m
        assert found == predicted, (e.ambient, e.family)
