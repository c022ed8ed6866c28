"""Characters, dimensions, multiplicity rules, subtraction."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_checker import full_character
from test_rootsys import weight_to_root_coords
from weylbranch import kernels
from weylbranch.charcalc import (
    Characteristic,
    freudenthal,
    irr_dim,
    mult_rule_118,
    mult_rule_bwt,
    mult_rule_s816,
    premet_applies,
    product_weyl_dims,
    weyl_character_subtract,
    weyl_dim,
)
from weylbranch.rootsys import LieType, build_root_system

P0 = Characteristic(0)


def rsys(f, n):
    return build_root_system(LieType(f, n))


def box_saturate(rs, lam):
    """Independent oracle: enumerate the root-coordinate box directly."""
    n = rs.rank
    top = weight_to_root_coords(rs, lam)
    bounds = [int(x) for x in top]
    out = set()
    for c in itertools.product(*[range(b + 1) for b in bounds]):
        w = list(lam)
        ok = True
        for i in range(n):
            if c[i] == 0:
                continue
            for j in range(n):
                w[j] -= c[i] * rs.cartan[i][j]
        if all(x >= 0 for x in w):
            out.add(tuple(w))
    return out


def test_freudenthal_examples():
    ct = freudenthal(rsys("A", 1), (2,))
    assert ct.entries == {(2,): 1, (0,): 1} and ct.total_dim == 3
    ct = freudenthal(rsys("B", 3), (1, 0, 1))
    assert ct.entries[(0, 0, 1)] == 3
    ct = freudenthal(rsys("A", 2), (1, 1))
    assert ct.entries[(0, 0)] == 2 and ct.total_dim == 8


def test_freudenthal_rejects_non_dominant():
    with pytest.raises(ValueError):
        freudenthal(rsys("A", 2), (1, -1))


def test_weyl_dim_examples():
    assert weyl_dim(rsys("A", 3), (2, 0, 0)) == 10
    assert weyl_dim(rsys("D", 4), (0, 0, 0, 2)) == 35
    assert weyl_dim(rsys("C", 2), (0, 0)) == 1
    assert weyl_dim(rsys("B", 4), (0, 0, 0, 1)) == 16


def test_saturate_examples_and_oracle():
    rs = rsys("A", 1)
    assert set(kernels.dominant_table(rs, (2,))[0]) == {(2,), (0,)}
    rs = rsys("B", 3)
    assert set(kernels.dominant_table(rs, (1, 0, 1))[0]) == {(1, 0, 1), (0, 0, 1)}
    for n in (4, 5):
        rs = rsys("D", n)
        lam = tuple(1 if i in (0, n - 1) else 0 for i in range(n))
        sub = tuple(1 if i == n - 2 else 0 for i in range(n))
        assert set(kernels.dominant_table(rs, lam)[0]) == {lam, sub}
    # oracle equality on a sample
    for f, n, lam in [
        ("A", 3, (1, 1, 0)),
        ("B", 3, (2, 0, 1)),
        ("C", 3, (1, 0, 2)),
        ("D", 4, (1, 1, 0, 0)),
    ]:
        rs = rsys(f, n)
        assert set(kernels.dominant_table(rs, lam)[0]) == box_saturate(rs, lam)


def test_freudenthal_support_equals_saturation():
    for f, n, lam in [("A", 3, (1, 1, 1)), ("B", 3, (0, 1, 1)), ("C", 4, (1, 0, 0, 1))]:
        rs = rsys(f, n)
        ct = freudenthal(rs, lam)
        assert set(ct.entries) == set(kernels.dominant_table(rs, lam)[0])
        assert all(m >= 1 for m in ct.entries.values())
        assert ct.entries[lam] == 1


def test_characteristic_accepts_only_integers():
    # 5.0 used to compare and hash equal to 5, so irr_dim at Characteristic(5.0)
    # cached the float 62.0 for every later p = 5 call
    rs = rsys("C", 3)
    for bad in (5.0, 2.5, True, "5", None):
        with pytest.raises(ValueError, match="integer"):
            Characteristic(bad)
    with pytest.raises(ValueError):
        irr_dim(rs, (0, 1, 1), Characteristic(5.0))
    dim = irr_dim(rs, (0, 1, 1), Characteristic(5))
    assert dim == 62 and type(dim) is int
    chi = Characteristic(np.int64(7))
    assert type(chi.p) is int and chi == Characteristic(7)
    with pytest.raises(ValueError, match="prime"):
        Characteristic(np.int64(4))


def test_premet():
    assert premet_applies(rsys("B", 3), Characteristic(2)) is False
    assert premet_applies(rsys("A", 4), Characteristic(2)) is True
    assert premet_applies(rsys("C", 3), P0) is True
    assert premet_applies(rsys("C", 3), Characteristic(3)) is True


def test_mult_rule_118():
    assert mult_rule_118(1, 1, "equal", P0) == 2
    assert mult_rule_118(2, 2, "equal", Characteristic(5)) == 1
    assert mult_rule_118(1, 1, "double", Characteristic(5)) == 1
    assert mult_rule_118(1, 2, "triple", Characteristic(2)) == 1
    with pytest.raises(ValueError):
        mult_rule_118(0, 1, "equal", P0)
    # oracle check at p = 0 against the recursion (adjacent equal-length pair)
    rs = rsys("A", 2)
    ct = freudenthal(rs, (1, 1))
    assert ct.entries[(0, 0)] == mult_rule_118(1, 1, "equal", P0)
    # double-bond pair on B_2: lambda = c lam_1 + d lam_2
    rs = rsys("B", 2)
    ct = freudenthal(rs, (1, 1))
    mu = (1 + 1 - 2 + 1, 1 + 2 - 2)  # lam - alpha_1 - alpha_2 = (1,1)-(2,-2)-(-1,2)
    assert ct.entries[(0, 1)] == mult_rule_118(1, 1, "double", P0)


def test_mult_rule_s816():
    assert mult_rule_s816(1, 1, 1, 2, Characteristic(3)) == 1
    assert mult_rule_s816(1, 1, 1, 2, P0) == 2
    assert mult_rule_s816(1, 2, 2, 5, Characteristic(2)) == 3
    with pytest.raises(ValueError):
        mult_rule_s816(1, 1, 2, 2, P0)


def test_mult_rule_bwt():
    assert mult_rule_bwt(2, Characteristic(5)) == 1
    assert mult_rule_bwt(3, P0) == 3
    assert mult_rule_bwt(4, Characteristic(3)) == 3
    with pytest.raises(ValueError):
        mult_rule_bwt(3, Characteristic(2))


def test_irr_dim_examples():
    assert irr_dim(rsys("B", 2), (2, 0), Characteristic(5)) == 13
    assert irr_dim(rsys("C", 3), (0, 1, 0), Characteristic(3)) == 13
    assert irr_dim(rsys("D", 4), (1, 0, 0, 1), Characteristic(2)) == 48
    assert irr_dim(rsys("B", 5), (0, 0, 0, 0, 1), Characteristic(7)) == 32
    assert irr_dim(rsys("C", 2), (1, 1), Characteristic(5)) == 12  # (5^2 - 1)/2
    assert irr_dim(rsys("C", 3), (1, 1, 0), Characteristic(5)) is None
    with pytest.raises(ValueError):
        irr_dim(rsys("A", 2), (3, 0), Characteristic(3))


def test_irr_dim_p0_equals_weyl():
    from weylbranch.checker import dominant_weights_bounded

    for f, n in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        rs = rsys(f, n)
        for lam in dominant_weights_bounded(n, 2):
            assert irr_dim(rs, lam, P0) == weyl_dim(rs, lam)


def test_sz_dimension_identity():
    # ((p^l - 1)/2) ((p^l + 1)/2) * 2 == (p^{2l} - 1)/2, through the
    # closed-form dimensions of the two symplectic factor modules
    for p in (3, 5, 7):
        chi = Characteristic(p)
        a = (p - 3) // 2
        for l in (2, 3, 4):
            rs_small = rsys("C", l)
            lam1 = tuple(0 if i < l - 2 else (1 if i == l - 2 else a) for i in range(l))
            lam2 = tuple(0 if i < l - 1 else (p - 1) // 2 for i in range(l))
            d1 = irr_dim(rs_small, lam1, chi)
            d2 = irr_dim(rs_small, lam2, chi)
            assert d1 == (p**l - 1) // 2
            assert d2 == (p**l + 1) // 2
            rs_big = rsys("C", 2 * l)
            lam = tuple(0 if i < 2 * l - 2 else (1 if i == 2 * l - 2 else a) for i in range(2 * l))
            assert irr_dim(rs_big, lam, chi) == 2 * d1 * d2


def test_weyl_character_subtract_basic():
    rs = rsys("A", 2)
    ch = dict(full_character(rs, (1, 1)))
    assert weyl_character_subtract((rs,), ch) == {(1, 1): 1}
    doubled = {w: 2 * m for w, m in ch.items()}
    assert weyl_character_subtract((rs,), doubled) == {(1, 1): 2}
    bad = dict(ch)
    bad[(1, 1)] = 1
    bad[(0, 0)] = 1  # too small: drives the remainder negative
    with pytest.raises(ValueError):
        weyl_character_subtract((rs,), bad)


def test_weyl_character_subtract_round_trip():
    rng = random.Random(7)
    rs1 = rsys("A", 2)
    rs2 = rsys("C", 2)
    for _ in range(5):
        pieces = {}
        for _ in range(rng.randint(1, 3)):
            hw = (
                rng.randint(0, 2),
                rng.randint(0, 1),
                rng.randint(0, 1),
                rng.randint(0, 1),
            )
            pieces[hw] = pieces.get(hw, 0) + rng.randint(1, 2)
        total = {}
        for hw, m in pieces.items():
            c1 = full_character(rs1, hw[:2])
            c2 = full_character(rs2, hw[2:])
            for w1, m1 in c1.items():
                for w2, m2 in c2.items():
                    key = w1 + w2
                    total[key] = total.get(key, 0) + m * m1 * m2
        assert weyl_character_subtract((rs1, rs2), total) == pieces


def test_weyl_character_subtract_charges():
    rs = rsys("A", 1)
    ch = {}
    for w, m in full_character(rs, (2,)).items():
        ch[w + (5,)] = m
    for w, m in full_character(rs, (1,)).items():
        ch[w + (-5,)] = m
    out = weyl_character_subtract((rs,), ch)
    assert out == {(2, 5): 1, (1, -5): 1}


def test_freudenthal_matches_weyl_dim_sample():
    for f, n in (("A", 4), ("B", 4), ("C", 4), ("D", 4)):
        rs = rsys(f, n)
        lam = tuple(1 if i in (0, n - 1) else 0 for i in range(n))
        assert freudenthal(rs, lam).total_dim == weyl_dim(rs, lam)


def test_product_weyl_dim():
    rs1, rs2 = rsys("A", 1), rsys("B", 2)
    assert product_weyl_dims((rs1, rs2), [(1, 1, 0), (1, 0, 1)]) == [2 * 5, 2 * 4]
    assert product_weyl_dims((), [(3,), (4,)]) == [1, 1]  # a torus alone: charges only


def test_freudenthal_sweep_digest():
    """The tables of the 794 criterion-2 weights, pinned to the int64 kernels'
    output: sha256 over the canonical records sorted by id ("A6|0,0,1,0,0,0")."""
    records = {}
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            rs = rsys(fam, n)
            for w in itertools.product(range(4), repeat=n):
                if 0 < sum(w) <= 3:
                    t = freudenthal(rs, w)
                    records[f"{fam}{n}|{','.join(map(str, w))}"] = {
                        "total_dim": t.total_dim,
                        "entries": sorted([list(k), m] for k, m in t.entries.items()),
                    }
    text = json.dumps(sorted(records.items()), sort_keys=True, separators=(",", ":"))
    assert len(records) == 794
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ab062e5f36ce73680c2c89b83f9df9663c5a55fee20757445070056c43580d91"
    )


BK_TYPES = [("A", n) for n in range(1, 5)] + [(f, n) for f in "BC" for n in range(2, 5)]
BK_TYPES += [("D", 3), ("D", 4)]


def _dot_dominant(rs, v):
    """(dominant conjugate of v, parity of the reflections used), by simple
    reflections read off the Cartan matrix."""
    v = list(v)
    parity = 0
    while min(v) < 0:
        j = v.index(min(v))
        c = v[j]
        v = [a - c * b for a, b in zip(v, rs.cartan[j])]
        parity ^= 1
    return tuple(v), parity


@st.composite
def bk_cases(draw):
    """A classical type of rank <= 4 and two dominant weights with
    coefficient sum <= 2."""
    fam, n = draw(st.sampled_from(BK_TYPES))
    weights = [w for w in itertools.product(range(3), repeat=n) if sum(w) <= 2]
    return rsys(fam, n), draw(st.sampled_from(weights)), draw(st.sampled_from(weights))


@settings(max_examples=60, deadline=None)
@given(bk_cases())
def test_brauer_klimyk_tensor_identity(case):
    """char(lam) * char(mu) = sum of n_kappa char(kappa), where n_kappa sums
    sign(w) * m_mu(nu) over the weights nu of V(mu) with w(lam + nu + rho) =
    kappa + rho off the walls.  Checks every multiplicity of both sides."""
    rs, lam, mu = case
    rho = rs.rho
    coeffs = {}
    for nu, m in full_character(rs, mu).items():
        rep, parity = _dot_dominant(rs, [a + b + r for a, b, r in zip(lam, nu, rho)])
        if min(rep) == 0:
            continue  # on a wall: cancels
        kappa = tuple(c - r for c, r in zip(rep, rho))
        coeffs[kappa] = coeffs.get(kappa, 0) + (-m if parity else m)
    lhs = {}
    for kappa, n_kappa in coeffs.items():
        for w, m in full_character(rs, kappa).items():
            lhs[w] = lhs.get(w, 0) + n_kappa * m
    rhs = {}
    for a, ma in full_character(rs, lam).items():
        for b, mb in full_character(rs, mu).items():
            w = tuple(x + y for x, y in zip(a, b))
            rhs[w] = rhs.get(w, 0) + ma * mb
    assert {w: m for w, m in lhs.items() if m} == rhs
