"""Acceptance suite: one test per criterion, one printed line per criterion.

Run as  pytest -s tests/test_acceptance.py  to see the pass lines.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb

from weylbranch.charcalc import (
    Characteristic,
    freudenthal,
    irr_dim,
    weyl_dim,
)
from weylbranch.checker import (
    ClassificationEntry,
    _chain_blocks,
    branch_p0,
    dominant_weights_bounded,
    necessary_filters,
    scan_candidates,
    verify_entry,
)
from weylbranch.embeddings import (
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    ell_value,
    existence_ok,
    family_of,
    geom_family,
    instance_params,
    restrict_weight,
)
from weylbranch.rootsys import LieType, build_root_system
from weylbranch.tables import instantiate_rows
from weylbranch.checker import p_condition_ok

P0 = Characteristic(0)
PRIMES = (0, 2, 3, 5, 7)


def kappa_of(e, hw):
    """kappa from the component orbit of hw, kept as an oracle: the package
    reads it off the predicted-factor map of ``clifford_prediction``."""
    return len(component_orbit_set(e, hw)) * central_multiplicity(e, hw)


def _report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _shipped_rows():
    from importlib import resources

    from weylbranch.tables import parse_table

    rows = []
    for name in ("c136", "c2", "c4i", "c4ii"):
        text = resources.files("weylbranch").joinpath(f"data/table_{name}.tsv").read_text()
        rows += parse_table(text, source=f"table_{name}.tsv")
    return rows


def test_criterion_1_dimension_table():
    """Closed-form dimension table reproduced exactly for ranks 2..8."""
    for fam, lo in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 9):
            build_root_system(LieType(fam, n))
    t0 = time.perf_counter()
    checked = 0

    def lam(n, *pairs):
        w = [0] * n
        for i, c in pairs:
            w[i - 1] = c
        return tuple(w)

    counter = [0]

    def check(rs, chi, w, expect):
        counter[0] += 1
        assert irr_dim(rs, w, chi) == expect, (rs.lie_type, w, chi.p)

    for p in PRIMES:
        chi = Characteristic(p)

        def restricted(w):
            return p == 0 or all(c < p for c in w)

        for n in range(2, 9):
            # A_n rows: a lam_1 and a lam_n with a < p (every a at p = 0)
            rs = build_root_system(LieType("A", n))
            for a in (1, 2, 3, 4):
                if not restricted((a,)):
                    continue
                check(rs, chi, lam(n, (1, a)), comb(n + a, a))
                check(rs, chi, lam(n, (n, a)), comb(n + a, a))
            if p != 2:
                rs = build_root_system(LieType("B", n))
                if restricted((2,)):
                    check(rs, chi, lam(n, (1, 2)),
                          n * (2 * n + 3) - (1 if p and (2 * n + 1) % p == 0 else 0))
                check(rs, chi, lam(n, (2, 1)), 4 if n == 2 else n * (2 * n + 1))
                check(rs, chi, lam(n, (n, 1)), 2**n)
                check(rs, chi, lam(n, (1, 1), (n, 1)),
                      2**n * (2 * n - 1) if p and (2 * n + 1) % p == 0 else 2 ** (n + 1) * n)
            rs = build_root_system(LieType("C", n))
            if restricted((2,)):
                check(rs, chi, lam(n, (1, 2)), 2 * n if p == 2 else n * (2 * n + 1))
            check(rs, chi, lam(n, (2, 1)),
                  (n - 1) * (2 * n + 1) - (1 if p and n % p == 0 else 0))
            if p >= 3:
                a = (p - 3) // 2
                w = lam(n, (n - 1, 1), (n, a)) if a else lam(n, (n - 1, 1))
                check(rs, chi, w, (p**n - 1) // 2)
            if n >= 3:
                rs = build_root_system(LieType("D", n))
                if restricted((2,)):
                    if p == 2:
                        expect = 2 * n
                    elif p and n % p == 0:
                        expect = (n + 1) * (2 * n - 1) - 1
                    else:
                        expect = (n + 1) * (2 * n - 1)
                    check(rs, chi, lam(n, (1, 2)), expect)
                if n >= 4:
                    if p == 2:
                        expect = n * (2 * n - 1) - (2 if n % 2 == 0 else 1)
                    else:
                        expect = n * (2 * n - 1)
                    check(rs, chi, lam(n, (2, 1)), expect)
                check(rs, chi, lam(n, (n - 1, 1)), 2 ** (n - 1))
                check(rs, chi, lam(n, (n, 1)), 2 ** (n - 1))
                for k in (n - 1, n):
                    if restricted((2,)):
                        check(rs, chi, lam(n, (k, 2)),
                              2 ** (n - 1) if p == 2 else comb(2 * n, n) // 2)
                    check(rs, chi, lam(n, (1, 1), (k, 1)),
                          2**n * (n - 1) if p and n % p == 0 else 2 ** (n - 1) * (2 * n - 1))
    checked = counter[0]
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"dimension table, {checked} values, {elapsed:.3f}s (< 1s)")


def test_criterion_2_freudenthal_vs_weyl():
    """Recursion total dimension equals the product formula, rank <= 6, sum <= 3."""
    t0 = time.perf_counter()
    count = 0
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            rs = build_root_system(LieType(fam, n))
            for w in dominant_weights_bounded(n, 3):
                assert freudenthal(rs, w).total_dim == weyl_dim(rs, w), (fam, n, w)
                count += 1
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 60.0, f"freudenthal == weyl_dim on {count} weights, {elapsed:.1f}s (< 60s)")


def test_criterion_3_multiplicity_rules():
    """Generic branches of the three multiplicity rules vs the recursion."""
    from weylbranch.charcalc import mult_rule_118, mult_rule_bwt, mult_rule_s816

    # adjacent-pair rule: m always 2 at p = 0
    count_118 = 0
    for fam, n, i in [("A", 2, 1), ("A", 3, 2), ("A", 4, 3), ("B", 2, 1), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2)]:
        rs = build_root_system(LieType(fam, n))
        case = "equal"
        if fam == "B" and i == n - 1:
            case = "double"
        if fam == "C" and i == n - 1:
            case = "double"
        for c, d in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lam = [0] * n
            lam[i - 1] = c
            lam[i] = d
            mu = list(lam)
            for j in (i - 1, i):
                for k in range(n):
                    mu[k] -= rs.cartan[j][k]
            got = freudenthal(rs, tuple(lam)).multiplicity(rs, tuple(mu))
            assert got == mult_rule_118(c, d, case, P0) == 2
            count_118 += 1

    # two-block rule on A_n
    count_s816 = 0
    for n in range(2, 6):
        rs = build_root_system(LieType("A", n))
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for a, b in ((1, 1), (2, 1)):
                    lam = [0] * n
                    lam[i - 1] = a
                    lam[j - 1] = b
                    for r, s in {(i, j), (max(1, i - 1), min(n, j + 1))}:
                        if r > i or s < j:
                            continue
                        mu = list(lam)
                        for q in range(r - 1, s):
                            for k in range(n):
                                mu[k] -= rs.cartan[q][k]
                        got = freudenthal(rs, tuple(lam)).multiplicity(rs, tuple(mu))
                        assert got == mult_rule_s816(a, b, i, j, P0) == j - i + 1
                        count_s816 += 1

    # the orthogonal weight rule, through rank 21 (plain-int path beyond rank 8)
    count_bwt = 0
    for n in range(2, 22):
        rs = build_root_system(LieType("B", n))
        lam = tuple(1 if i in (0, n - 1) else 0 for i in range(n))
        mu = tuple(1 if i == n - 1 else 0 for i in range(n))
        assert freudenthal(rs, lam).entries[mu] == mult_rule_bwt(n, P0) == n
        count_bwt += 1

    ok = count_118 >= 20 and count_s816 >= 20 and count_bwt >= 20
    _report(3, ok, f"multiplicity rules vs recursion ({count_118}/{count_s816}/{count_bwt} instances)")


def test_criterion_4_spin_identities():
    """Orthogonal-pair spin rows verify at every p != 2 tested, n <= 8."""
    count = 0
    for p in (0, 3, 7):
        chi = Characteristic(p)
        for n in range(3, 9):
            for l in range(1, n):
                ent = ClassificationEntry(
                    LieType("B", n), geom_family("c1", sub="DlB", l=l),
                    tuple(1 if i == n - 1 else 0 for i in range(n)),
                    "p!=2", None, 2, "acc", f"b{n}l{l}",
                )
                rep = verify_entry(ent, chi)
                assert rep.verdict == "PASS", (n, l, p, rep.reasons)
                count += 1
        for n in range(4, 9):
            for l in range(1, (n + 1) // 2):
                if 2 * l >= n:
                    continue
                for k in (n - 1, n):
                    ent = ClassificationEntry(
                        LieType("D", n), geom_family("c1", sub="DlD", l=l),
                        tuple(1 if i == k - 1 else 0 for i in range(n)),
                        "any", None, 2, "acc", f"d{n}l{l}k{k}",
                    )
                    rep = verify_entry(ent, chi)
                    assert rep.verdict == "PASS", (n, l, k, p, rep.reasons)
                    count += 1
    _report(4, True, f"spin branching identities PASS ({count} verifications)")


def test_criterion_5_middle_exterior_power():
    for m in (3, 4):
        n = 2 * m - 1
        rs = build_root_system(LieType("A", n))
        lam = tuple(1 if i == m - 1 else 0 for i in range(n))
        e = build_embedding(LieType("A", n), geom_family("c6"))
        rep = branch_p0(rs, lam, e)
        half = comb(2 * m, m) // 2
        assert rep.dim_lhs == comb(2 * m, m)
        assert sorted(rep.dims.values()) == [half, half]
        assert rep.verdict == "PASS"
        ent = ClassificationEntry(LieType("A", n), geom_family("c6"), lam, "p!=2", None, 2, "acc", f"m{m}")
        assert verify_entry(ent, P0).verdict == "PASS"
    _report(5, True, "middle exterior power: binom(2m,m) = 2 * binom(2m,m)/2 at m = 3, 4")


def test_criterion_6_kappa_counts():
    rows = _shipped_rows()
    seen = {}
    for p in PRIMES:
        chi = Characteristic(p)
        for ent in instantiate_rows(rows, 8, chi):
            key = (ent.ambient, ent.family, ent.lam)
            if key in seen or ent.expected_kappa is None:
                continue
            e = build_embedding(ent.ambient, ent.family)
            got = kappa_of(e, restrict_weight(e, ent.lam))
            assert got == ent.expected_kappa, (ent.entry_id, got, ent.expected_kappa)
            seen[key] = got
    _report(6, len(seen) > 150, f"kappa column matches component orbits on {len(seen)} rows")


def _p0_instances(rank_cap):
    for fam_letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, rank_cap + 1):
            for tag in ("c1", "c2", "c3", "c4i", "c4ii", "c6"):
                for params in instance_params(tag, fam_letter, n):
                    ambient = LieType(fam_letter, n)
                    gf = family_of(tag, params)
                    e = build_embedding(ambient, gf)
                    if existence_ok(e, 0):
                        yield ambient, gf, e


def test_criterion_7_scan_completeness():
    """Oracle equivalence: p = 0 scans return exactly the applicable rows."""
    t0 = time.perf_counter()
    rows = _shipped_rows()
    entries = instantiate_rows(rows, 8, P0, pattern_bound=3)
    applicable = {}
    for ent in entries:
        if not p_condition_ok(ent.p_condition, 0):
            continue
        if not existence_ok(build_embedding(ent.ambient, ent.family), 0):
            continue
        applicable.setdefault((ent.ambient, ent.family), set()).add(ent.lam)
    instances = 0
    for ambient, gf, e in _p0_instances(8):
        res = scan_candidates(ambient, e, P0, 3)
        found = sorted(l for l, v in res if v == "IRREDUCIBLE")
        expected = sorted(w for w in applicable.get((ambient, gf), set()) if sum(w) <= 3)
        assert found == expected, (str(ambient), str(gf), found, expected)
        # filter soundness: no certified row is rejected by the filters
        rs = build_root_system(ambient)
        for w in expected:
            assert not necessary_filters(e, w, P0)
        instances += 1
    elapsed = time.perf_counter() - t0
    _report(7, elapsed < 600, f"scan completeness on {instances} embeddings, {elapsed:.0f}s (< 600s)")


def test_criterion_8_ell_invariant():
    cases = [
        (LieType("C", 4), geom_family("c4ii", l=1, t=3)),
        (LieType("D", 8), geom_family("c4ii", kind="Cl", l=2, t=2)),
    ]
    rows = _shipped_rows()
    checked = 0
    for ambient, gf in cases:
        rs = build_root_system(ambient)
        e = build_embedding(ambient, gf)
        row_lams = set()
        for p in PRIMES:
            for ent in instantiate_rows(rows, ambient.rank, Characteristic(p)):
                if ent.ambient == ambient and ent.family == gf:
                    row_lams.add(ent.lam)
        assert row_lams
        ident = tuple(range(len(e.factors)))
        lam_one = tuple(1 if i == 0 else 0 for i in range(ambient.rank))
        assert lam_one in row_lams
        for lam in sorted(row_lams):
            lam_h = restrict_weight(e, lam)
            # at p = 0 every chain with a positive pairing is certified
            labels, coroots, betas = _chain_blocks(rs)
            for chain, coroot, beta in zip(labels, coroots.tolist(), betas.tolist()):
                if sum(a * b for a, b in zip(coroot, lam)) <= 0:
                    continue
                mu = tuple(a - b for a, b in zip(lam, beta))
                ell, _ = ell_value(e, restrict_weight(e, mu), lam_h, ident)
                assert ell <= 0, (str(ambient), lam, chain, ell)
                checked += 1
    _report(8, checked > 30, f"ell invariant <= 0 on {checked} chain weights of table rows")


def test_criterion_9_conservation():
    runs = 0
    for ambient, gf, e in _p0_instances(5):
        rs = build_root_system(ambient)
        for lam in dominant_weights_bounded(ambient.rank, 2)[:6]:
            rep = branch_p0(rs, lam, e)  # conservation asserted internally
            total = sum(m * rep.dims[hw] for hw, m in rep.factors.items())
            assert total == weyl_dim(rs, lam) == rep.dim_lhs
            runs += 1
    _report(9, runs >= 100, f"conservation held on {runs}/{runs} branch runs")


def test_criterion_10_determinism():
    from weylbranch.cli import main

    def capture(argv):
        out = io.StringIO()
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    a = capture(["verify", "shipped:c136", "--p", "0,5", "--rank-cap", "5"])
    b = capture(["verify", "shipped:c136", "--p", "0,5", "--rank-cap", "5"])
    c = capture(["scan", "B", "3", "c1:Dn", "--bound", "2", "--assert"])
    d = capture(["scan", "B", "3", "c1:Dn", "--bound", "2", "--assert"])
    ok = a == b and c == d and a[1]
    _report(10, ok, "byte-identical reports across repeated runs")
