"""Cross-checks against independently-known module data.

These fixtures do not reuse any production code path as their oracle: the
expected values are classical facts (adjoint zero-weight spaces, minuscule
modules, tensor convolution) computed by hand or by direct counting.
"""

import time

import pytest

from test_checker import full_character
from weylbranch.charcalc import Characteristic, freudenthal, weyl_dim
from weylbranch.checker import ClassificationEntry, scan_candidates, verify_entry
from weylbranch.embeddings import build_embedding, geom_family
from weylbranch.rootsys import LieType, build_root_system

P0 = Characteristic(0)


def rsys(f, n):
    return build_root_system(LieType(f, n))


def test_adjoint_zero_weight_multiplicity_is_rank():
    cases = [
        ("A", 3, (1, 0, 1)),
        ("B", 3, (0, 1, 0)),
        ("C", 3, (2, 0, 0)),
        ("D", 4, (0, 1, 0, 0)),
        ("B", 4, (0, 1, 0, 0)),
        ("C", 4, (2, 0, 0, 0)),
    ]
    for f, n, lam in cases:
        rs = rsys(f, n)
        ct = freudenthal(rs, lam)
        assert ct.entries[(0,) * n] == n, (f, n)
        # adjoint dimension: number of roots plus the rank
        assert ct.total_dim == 2 * len(rs.positive_roots) + n


def test_minuscule_and_symmetric_powers_are_multiplicity_free():
    rs = rsys("A", 4)
    for k in (1, 2, 3):
        lam = tuple(1 if i == k - 1 else 0 for i in range(4))
        assert freudenthal(rs, lam).entries == {lam: 1}
    rs = rsys("A", 2)
    ct = freudenthal(rs, (3, 0))  # cubic polynomials on 3 variables
    assert all(m == 1 for m in ct.entries.values())
    assert ct.total_dim == 10


def test_tensor_convolution_identity():
    # character of W(lam_1) x W(lam_n) of D_n versus its two summands:
    # convolution multiplicity at lam_{n-1} equals m_{W(lam_1+lam_n)} + 1
    for n in (4, 5):
        rs = rsys("D", n)
        lam1 = tuple(1 if i == 0 else 0 for i in range(n))
        lamn = tuple(1 if i == n - 1 else 0 for i in range(n))
        target = tuple(1 if i == n - 2 else 0 for i in range(n))
        c1 = full_character(rs, lam1)
        cn = full_character(rs, lamn)
        conv = 0
        for w, m in c1.items():
            other = tuple(t - a for t, a in zip(target, w))
            conv += m * cn.get(other, 0)
        assert conv == n
        big = tuple(a + b for a, b in zip(lam1, lamn))
        m_big = freudenthal(rs, big).entries[target]
        assert conv == m_big + 1  # the second summand is W(lam_{n-1}) itself
        # dimension bookkeeping for the same decomposition
        assert weyl_dim(rs, lam1) * weyl_dim(rs, lamn) == weyl_dim(rs, big) + weyl_dim(rs, target)


def test_quadruple_factor_rows_at_p2():
    ent = ClassificationEntry(
        LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2),
        (1, 0, 0, 0, 1, 0), "p=2", None, 4, "fix", "d6a",
    )
    rep = verify_entry(ent, Characteristic(2))
    assert rep.verdict == "PASS" and rep.dim_lhs == 320 == rep.dim_rhs and rep.kappa_found == 4
    # the same weight is not an example away from p = 2
    open_ent = ClassificationEntry(
        LieType("D", 6), geom_family("c2", kind="Dl", l=3, t=2),
        (1, 0, 0, 0, 1, 0), "any", None, None, "fix", "d6b",
    )
    assert verify_entry(open_ent, Characteristic(3)).verdict == "FAIL"
    assert verify_entry(open_ent, P0).verdict == "FAIL"


RANK8_SCANS = [
    (LieType("B", 4), geom_family("c4ii", l=1, t=2), [(0, 0, 0, 1), (1, 0, 0, 0)]),
    (
        LieType("D", 8),
        geom_family("c4ii", kind="Cl", l=2, t=2),
        [(0, 0, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 0, 0)],
    ),
    (
        LieType("D", 8),
        geom_family("c4ii", kind="Cl", l=1, t=4),
        [(0, 0, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 0, 0)],
    ),
    (LieType("B", 7), geom_family("c2", l=2, t=3), [(0,) * 6 + (1,), (1,) + (0,) * 6]),
    (
        LieType("D", 8),
        geom_family("c2", kind="Dl", l=4, t=2),
        [(0,) * 6 + (0, 1), (0,) * 6 + (1, 0), (1,) + (0,) * 7],
    ),
]


@pytest.mark.parametrize("ambient,fam,expected", RANK8_SCANS, ids=lambda x: str(x))
def test_rank8_scans_match_tables(ambient, fam, expected):
    # the half-spin convention: for these frozen conjugates lambda_7 (not
    # lambda_8) is the example on D_8, the other half-spin belongs to the
    # graph-image subgroup
    e = build_embedding(ambient, fam)
    res = scan_candidates(ambient, e, P0, 1)
    assert [l for l, v in res if v == "IRREDUCIBLE"] == sorted(expected)
