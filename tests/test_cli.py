"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylbranch import charcalc, checker, embeddings
from weylbranch.cli import main, parse_family_spec
from weylbranch.embeddings import FAMILY_TAGS, build_embedding, geom_family, instances
from weylbranch.rootsys import _MIN_RANK, FAMILIES, LieType, build_root_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "B", "2", "2,0", "--p", "5")
    assert code == 0 and out.startswith("13\t")
    code, out, _ = run(capsys, "dim", "D", "4", "0,0,0,2", "--p", "0")
    assert code == 0 and out.startswith("35\t")
    code, out, _ = run(capsys, "dim", "A", "3", "1,0,0")
    assert code == 0 and out.startswith("4\t")
    code, out, _ = run(capsys, "dim", "C", "3", "1,1,0", "--p", "5")
    assert code == 0 and out.startswith("unknown\t")


def test_dim_bad_args(capsys):
    code, _, err = run(capsys, "dim", "B", "2", "2,0,0", "--p", "5")
    assert code == 2 and "error" in err


def test_branch(capsys):
    code, out, _ = run(capsys, "branch", "B", "3", "0,0,1", "c1:Dn")
    assert code == 0
    assert "conservation\t8 = 1 x 4 + 1 x 4" in out
    assert "kappa\t2" in out
    code, out, _ = run(capsys, "branch", "A", "5", "0,0,1,0,0", "c6:Dm")
    assert "conservation\t20 = 1 x 10 + 1 x 10" in out


def test_verify_shipped_and_exit_codes(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "shipped:c4i", "--p", "0", "--rank-cap", "6")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["verdict"] in ("PASS", "INCONCLUSIVE") for r in records)
    assert set(records[0]) == {
        "entry_id", "p", "verdict", "kappa_expected", "kappa_found", "dim_lhs", "dim_rhs", "reasons",
    }
    # empty table: empty report, exit 0
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    code, out, err = run(capsys, "verify", str(empty))
    assert code == 0 and out == "" and "no entries" in err
    # a wrong row: exit 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("c1\tB:3\tsub=Dn\tL(3)\tp!=2\t5\tw(1,3)\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert any(json.loads(l)["verdict"] == "FAIL" for l in out.splitlines())
    # malformed file: exit 2 with a line diagnostic
    broken = tmp_path / "broken.tsv"
    broken.write_text("c1\tB\tsub=Dn\n")
    code, _, err = run(capsys, "verify", str(broken))
    assert code == 2 and "broken.tsv:1" in err


@pytest.mark.parametrize("row", [
    "c9\tB:3\tsub=Dn\tL(3)\tany\t2\tw(1,3)\n",
    "c1\tE:6\t-\tL(1)\tany\t1\t-\n",
], ids=["unknown-tag", "unknown-ambient"])
def test_verify_rejects_unknown_tag_or_ambient(capsys, tmp_path, row):
    table = tmp_path / "odd.tsv"
    table.write_text("# header\n" + row)
    code, out, err = run(capsys, "verify", str(table))
    assert code == 2 and out == "" and err.startswith("error: ") and "odd.tsv:2" in err


@pytest.mark.parametrize("cond", ["p>2", "p!=2&p<5", "p=two", "p!=2&"])
def test_verify_rejects_bad_p_condition_before_any_record(capsys, tmp_path, cond):
    # every clause is parsed with the table, also one after a clause that
    # already fails at some p
    table = tmp_path / "bad.tsv"
    table.write_text(f"c1\tB:3\tsub=Dn\tL(3)\tany\t2\tw(1,3)\nc1\tB:3\tsub=Dn\tL(3)\t{cond}\t2\tw(1,3)\n")
    code, out, err = run(capsys, "verify", str(table), "--p", "0,3", "--rank-cap", "3")
    assert code == 2 and out == "" and err.startswith("error: ") and "bad.tsv:2" in err
    assert "unparseable p-condition" in err


# a spec names an existing instance: stray parameters and flags, and
# instances that do not exist at that rank, exit 2
@pytest.mark.parametrize("argv", [
    ("B", "3", "1,0,0", "c1:Dn,l=7"),
    ("A", "3", "1,0,0", "c2:Zz,l=1,t=2"),
    ("C", "3", "1,0,0", "c6:foo=3"),
    ("D", "3", "1,0,0", "c2:Bl,l=1,t=2"),
])
def test_branch_rejects_specs_naming_no_instance(capsys, argv):
    code, out, err = run(capsys, "branch", *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_family_specs_are_unchanged():
    cases = [
        ("B", 3, "c1:Dn", geom_family("c1", sub="Dn")),
        ("B", 5, "c1:l=2", geom_family("c1", sub="DlB", l=2)),
        ("D", 5, "c1:l=2", geom_family("c1", sub="DlD", l=2)),
        ("A", 3, "c2:l=1,t=2", geom_family("c2", l=1, t=2)),
        ("B", 4, "c2:l=1,t=3", geom_family("c2", l=1, t=3)),
        ("D", 6, "c2:l=3,t=2", geom_family("c2", kind="Dl", l=3, t=2)),
        ("D", 6, "c2:Dl,l=3,t=2", geom_family("c2", kind="Dl", l=3, t=2)),
        ("D", 6, "c2:Bl,l=1,t=4", geom_family("c2", kind="Bl", l=1, t=4)),
        ("C", 4, "c3", geom_family("c3")),
        ("C", 4, "c4i:a=1,b=2", geom_family("c4i", a=1, b=2)),
        ("B", 4, "c4ii:l=1,t=2", geom_family("c4ii", l=1, t=2)),
        ("D", 8, "c4ii:l=2,t=2", geom_family("c4ii", kind="Cl", l=2, t=2)),
        ("D", 8, "c4ii:Cl,l=1,t=4", geom_family("c4ii", kind="Cl", l=1, t=4)),
        ("D", 18, "c4ii:Dl,l=3,t=2", geom_family("c4ii", kind="Dl", l=3, t=2)),
        ("A", 5, "c6:Dm", geom_family("c6")),
        ("C", 3, "c6", geom_family("c6")),
    ]
    for letter, n, spec, fam in cases:
        ambient = LieType(letter, n)
        assert parse_family_spec(spec, ambient) == fam, spec
        build_embedding(ambient, fam)


def test_every_instance_name_parses_back():
    # the names the package prints (in errors, entry ids and reports) are
    # specs the CLI accepts, each naming the instance it was printed for
    names = 0
    for tag in FAMILY_TAGS:
        for letter in FAMILIES:
            for n in range(_MIN_RANK[letter], 13):
                ambient = LieType(letter, n)
                for fam in instances(tag, ambient):
                    assert parse_family_spec(str(fam), ambient) == fam, (ambient, str(fam))
                    names += 1
    assert names == 232


def test_specs_naming_one_instance_by_its_parameters():
    cases = [
        # two instances share l=3,t=2; the first in enumeration order is taken
        ("D", 18, "c4ii:l=3,t=2", geom_family("c4ii", kind="Cl", l=3, t=2)),
        # only the orthogonal kind has l=1,t=4 on D6
        ("D", 6, "c2:l=1,t=4", geom_family("c2", kind="Bl", l=1, t=4)),
        ("B", 5, "c1:DlB,l=2", geom_family("c1", sub="DlB", l=2)),
        ("B", 5, "c1:sub=DlB,l=2", geom_family("c1", sub="DlB", l=2)),
        ("D", 8, "c1:DlD,l=3", geom_family("c1", sub="DlD", l=3)),
        # the one c1 instance on B_n without parameters
        ("B", 4, "c1", geom_family("c1", sub="Dn")),
    ]
    for letter, n, spec, fam in cases:
        assert parse_family_spec(spec, LieType(letter, n)) == fam, spec


def test_spec_errors_name_the_spec_as_typed(capsys):
    code, out, err = run(capsys, "branch", "B", "3", "1,0,0", "c1:l=7")
    assert code == 2 and out == ""
    assert err.startswith("error: no instance c1:l=7 on B3; the c1 instances on B3 are: c1:sub=Dn, ")
    code, _, err = run(capsys, "branch", "B", "3", "1,0,0", "c1:Dn,Dn")
    assert code == 2 and "repeated" in err


def test_verify_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "shipped:c136", "--p", "0,5", "--rank-cap", "5")
    _, out2, _ = run(capsys, "verify", "shipped:c136", "--p", "0,5", "--rank-cap", "5")
    assert out1 == out2


def test_scan_assert(capsys):
    code, out, err = run(capsys, "scan", "B", "3", "c1:Dn", "--bound", "2", "--assert")
    assert code == 0 and "assertion passed" in err
    last = json.loads(out.splitlines()[-1])
    assert last["assert"] is True and last["expected"] == [[0, 0, 1]]
    code, out, _ = run(capsys, "scan", "D", "4", "c2:Dl,l=2,t=2", "--bound", "1", "--assert")
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["expected"] == [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0]]


def test_rootsys_info_and_orbit(capsys):
    code, out, _ = run(capsys, "rootsys-info", "B", "3")
    assert code == 0 and "positive_roots\t9" in out and "eG\t2" in out
    code, out, _ = run(capsys, "orbit", "B", "3", "0,0,1", "--list")
    assert code == 0 and "orbit_size\t8" in out
    assert len([l for l in out.splitlines() if "," in l and "\t" not in l]) == 8


def test_weight_with_a_negative_first_coefficient_is_positional(capsys):
    # argparse reads -1,0,0 as an unknown option unless told otherwise;
    # every command that takes a weight reads it as the weight
    code, out, _ = run(capsys, "orbit", "A", "3", "-1,0,0")
    assert code == 0 and out.splitlines()[:2] == ["dominant_rep\t0,0,1", "orbit_size\t4"]
    assert run(capsys, "orbit", "A", "3", "--", "-1,0,0")[1] == out
    code, out, err = run(capsys, "branch", "B", "3", "-1,0,0", "c1:Dn")
    assert code == 2 and out == "" and "must be dominant" in err
    code, out, err = run(capsys, "dim", "A", "3", "-1,0,0")
    assert code == 2 and out == "" and "not dominant" in err


def test_orbit_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLBRANCH_CAP", "4")
    code, out, err = run(capsys, "orbit", "B", "3", "0,0,1", "--list")
    assert code == 2 and "cap" in err and out == ""
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("WEYLBRANCH_CAP", bad)
        code, _, err = run(capsys, "orbit", "B", "3", "0,0,1", "--list")
        assert code == 2 and err.startswith("error: ")
        assert "WEYLBRANCH_CAP" in err and repr(bad) in err
    # rejected on commands that never enumerate an orbit, too
    monkeypatch.setenv("WEYLBRANCH_CAP", "abc")
    code, out, err = run(capsys, "verify", "shipped:c2", "--p", "5", "--rank-cap", "4")
    assert code == 2 and out == "" and "WEYLBRANCH_CAP" in err
    monkeypatch.delenv("WEYLBRANCH_CAP")


def test_scan_keeps_records_decided_before_the_cap(capsys, monkeypatch):
    # the 4th candidate (0,0,0,1,0) is IRREDUCIBLE, so it is branched, and its
    # Weyl orbit has 15 elements; with cap 14 the scan still writes the three
    # verdicts decided before it, then exits 2
    argv = ("scan", "A", "5", "c6:Dm", "--bound", "3")
    monkeypatch.delenv("WEYLBRANCH_CAP", raising=False)
    code, full, _ = run(capsys, *argv)
    assert code == 0 and len(full.splitlines()) == 55
    monkeypatch.setenv("WEYLBRANCH_CAP", "14")
    code, out, err = run(capsys, *argv)
    assert code == 2 and "(0, 0, 0, 1, 0)" in err and "cap 14" in err
    assert out == "".join(full.splitlines(keepends=True)[:3])
    assert json.loads(full.splitlines()[3]) == {"verdict": "IRREDUCIBLE", "weight": [0, 0, 0, 1, 0]}


def test_scan_cap_spares_candidates_decided_by_dimension(capsys, monkeypatch):
    # B4 c1:Dn's REDUCIBLE candidates have Weyl orbits of up to 192 elements,
    # but each fails its prediction's dimension sum and is never branched, so
    # cap 20 leaves the scan as it is
    argv = ("scan", "B", "4", "c1:Dn", "--bound", "3")
    monkeypatch.delenv("WEYLBRANCH_CAP", raising=False)
    code, full, _ = run(capsys, *argv)
    assert code == 0 and len(full.splitlines()) == 34
    rs = build_root_system(LieType("B", 4))
    reducible = [r["weight"] for r in map(json.loads, full.splitlines()) if r["verdict"] == "REDUCIBLE"]
    assert max(charcalc.freudenthal(rs, w).largest_orbit for w in reducible) == 192
    monkeypatch.setenv("WEYLBRANCH_CAP", "20")
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == full and err == ""


def _inflate_cached_dims(monkeypatch):
    """One too many on every cached dimension read: the rule's sum then
    misses dim V, and the full route's factors do not add up to it."""
    real = charcalc._irr_dim_cached
    monkeypatch.setattr(charcalc, "_irr_dim_cached", lambda t, lam, p: (real(t, lam, p)[0] + 1, "inflated"))


def test_internal_invariant_exit_code(capsys, monkeypatch):
    _inflate_cached_dims(monkeypatch)
    code, _, err = run(capsys, "branch", "B", "3", "0,0,1", "c1:Dn")
    assert code == 3
    assert err.startswith("error: internal invariant failed: branch conservation failed")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_internal_invariant_exit_code_on_verify(capsys, monkeypatch, tmp_path):
    table = tmp_path / "one.tsv"
    table.write_text("c1\tB:3\tsub=Dn\tL(3)\tany\t2\t-\n")
    _inflate_cached_dims(monkeypatch)
    code, out, err = run(capsys, "verify", str(table), "--p", "0", "--rank-cap", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: internal invariant failed: branch conservation failed")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scan_assert_requires_p0(capsys):
    code, _, err = run(capsys, "scan", "B", "3", "c1:Dn", "--bound", "1", "--p", "7", "--assert")
    assert code == 2 and "requires --p 0" in err


def test_verify_rejects_bad_p_before_any_record(capsys):
    # 4 is not a prime; the records for p = 0 must not be written first
    code, out, err = run(capsys, "verify", "shipped:c2", "--p", "0,4", "--rank-cap", "4")
    assert code == 2 and out == "" and "prime" in err


def test_verify_rejects_empty_p(capsys):
    # an empty --p is not a request for the default p = 0
    code, out, err = run(capsys, "verify", "shipped:c2", "--p", "", "--rank-cap", "3")
    assert code == 2 and out == "" and err.startswith("error:")


def test_verify_rejects_a_row_bad_only_at_a_later_p_before_any_record(capsys, tmp_path):
    # the row's weight is 2*L(3) at p = 5 and zero at p = 3
    table = tmp_path / "late.tsv"
    table.write_text("c1\tB:3\tsub=Dn\t(p-3)*L(3)\tp>=3\t-\t-\n")
    code, out, err = run(capsys, "verify", str(table), "--p", "5,3", "--rank-cap", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "late.tsv:1: highest weight (0, 0, 0)" in err


def test_verify_rejects_repeated_p(capsys):
    # a repeated characteristic would write each of its records twice
    for primes in ("0,0", "3,0,3"):
        code, out, err = run(capsys, "verify", "shipped:c2", "--p", primes, "--rank-cap", "3")
        assert code == 2 and out == ""
        assert err == f"error: characteristic {primes[-1]} is repeated in --p {primes!r}\n"


def test_scan_assert_rejected_before_any_record(capsys):
    code, out, err = run(capsys, "scan", "B", "3", "c1:Dn", "--bound", "2", "--p", "5", "--assert")
    assert code == 2 and out == "" and "requires --p 0" in err


def test_branch_torus_normalizer(capsys):
    code, out, _ = run(capsys, "branch", "A", "3", "0,1,0", "c2:l=0,t=4")
    assert code == 0
    assert "kappa\t6" in out and "clifford\tPASS" in out


def test_branch_rank_13(capsys):
    # a 27-dimensional module whose orbits once exceeded the orbit kernel's
    # packed-key range (exit 2)
    code, out, _ = run(capsys, "branch", "B", "13", ",".join(["1"] + ["0"] * 12), "c1:Dn")
    assert code == 0
    assert "conservation\t27 = 1 x 1 + 1 x 26" in out


def test_report_digests(capsys, monkeypatch):
    # the byte-identical reports every kernel or branching change must keep
    monkeypatch.delenv("WEYLBRANCH_CAP", raising=False)
    cases = [
        (("verify", "shipped:all", "--p", "0,2,3,5,7", "--rank-cap", "8"),
         "4785fe5822437d9c7c83ab0fb20c5f6b77d51cb97a4b420fc7d9f74c3f0fea10"),
        (("scan", "B", "5", "c1:Dn", "--bound", "3"),
         "8393c158c806096a2c0b862d1f5d1f803ece7f3f279c5c54bece9ff876626087"),
        # the maximal-torus normalizers, decided from the coroot pairings
        (("scan", "D", "8", "c2:kind=Dl,l=1,t=8", "--bound", "3"),
         "4154748df1854e1a574fbcd1b6cd4520d3ea742bce48b2c074cb651c98c0ac7f"),
        (("scan", "A", "8", "c2:l=0,t=9", "--bound", "3"),
         "ec9bc4fab27a2c03edce94b25f5a726cac609c6ed6e9010e39677555e1aada9b"),
        # the wreath products decided from the h invariant, once the slowest
        # scans (12 s for C12 on the former stabilizer-chain walk)
        (("scan", "C", "11", "c2:l=1,t=11", "--bound", "3"),
         "8b29fbad38d82f8b77e9167752bd4528bda114ae54a94e6fac26785d3540fc60"),
        (("scan", "C", "12", "c2:l=1,t=12", "--bound", "3"),
         "6046f84fd1c5a3e0df65af7beba55dafec331b0efb8589191f3cfb2405b37863"),
        (("scan", "D", "12", "c2:kind=Bl,l=1,t=8", "--bound", "3"),
         "33cb24f090a91f98c4321319abf649d9a4975b34bb7da57aafaad935c90c3eaa"),
        (("scan", "D", "12", "c2:kind=Dl,l=2,t=6", "--bound", "3"),
         "5a912860dcd41b994b7418c1ee1a67ca28fb68c6437aeb17d80218d03a3e736c"),
        # decided by the dimension rule: the branching's table and conservation line
        (("branch", "B", "5", "0,0,0,0,1", "c1:Dn"),
         "79c5d5da60920a673d95c89796f56ff40fc89e1a4da4dcd83ea22277a0d3b58f"),
        (("branch", "A", "5", "0,0,0,1,0", "c6:Dm"),
         "3fa11ca39c25478a8b406717dc6c10ff27786514ecff9e96976c84aa8049a29e"),
        (("orbit", "B", "3", "0,0,1", "--list"),
         "e06689293a05327ed90f810b2d2686091a472629b49346e83c4315acde319bb6"),
        (("orbit", "D", "4", "1,0,0,1", "--list"),
         "5aa5d37f508597f6f9bb12b5f3178efb589b5b0335621c1ce7dfffe918e74e18"),
    ]
    for argv, digest in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_scan_refuses_a_large_group_with_no_h_route_shape(capsys, monkeypatch):
    # a component group past the whole-group step that is no wreath product
    # ends the scan with exit 2 and one error record, before any verdict:
    # shown with the step lowered to one element on B3 c1:Dn, whose group
    # is one diagram flip
    embeddings.component_group.cache_clear()
    try:
        monkeypatch.setattr(embeddings, "WHOLE_GROUP_ORDER", 1)
        code, out, err = run(capsys, "scan", "B", "3", "c1:Dn", "--bound", "3")
    finally:
        embeddings.component_group.cache_clear()
    assert code == 2 and out == ""
    assert err == "error: component group of c1:sub=Dn on B3: more than 1 elements\n"


def test_branch_refuses_a_component_orbit_past_the_cap(capsys, monkeypatch):
    # R(1, ..., 1) on C12 c2:l=1,t=12 puts a distinct weight on each of the
    # twelve A1 blocks, so its component orbit has 12! elements: the orbit
    # search stops once it passes the cap, with exit 2 and one error record
    monkeypatch.setenv("WEYLBRANCH_CAP", "1000")
    code, out, err = run(capsys, "branch", "C", "12", ",".join(["1"] * 12), "c2:l=1,t=12")
    assert code == 2 and out == ""
    assert err == "error: component orbit of c2:l=1,t=12 on C12: more than 1000 elements\n"


def test_branch_refuses_a_wreath_orbit_before_walking_it(capsys, monkeypatch):
    # at the default cap the stated wreath's orbit size, 12!, refuses the
    # C12 orbit before the breadth-first walk makes any element
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.delenv("WEYLBRANCH_CAP", raising=False)
    monkeypatch.setattr(embeddings, "_closure", refuse)
    code, out, err = run(capsys, "branch", "C", "12", ",".join(["1"] * 12), "c2:l=1,t=12")
    assert code == 2 and out == ""
    assert err == "error: component orbit of c2:l=1,t=12 on C12: more than 1000000 elements\n"


@pytest.mark.parametrize("argv", [
    ("scan", "B", "3", "c1:Dn", "--bound", "-1"),
    ("verify", "shipped:all", "--rank-cap", "4", "--pattern-bound", "-1"),
    ("verify", "shipped:all", "--rank-cap", "-1"),
])
def test_negative_bounds_rejected_before_any_record(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "expected a non-negative integer, got '-1'" in captured.err


def test_verify_weight_past_int64_guard(capsys, tmp_path):
    # the filters work in int64 arrays; a weight too large for them is a
    # usage error, reported before any record, never a wrapped result
    limit = checker._chain_table(build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))).limit
    table = tmp_path / "huge.tsv"
    for coef in (limit, 1 << 64):
        table.write_text(f"c1\tB:3\tsub=Dn\t{coef}*L(1)\tany\t-\t-\n")
        code, out, err = run(capsys, "verify", str(table))
        assert code == 2 and out == ""
        assert err.startswith("error: filters(") and "int64" in err and "Traceback" not in err


def test_branch_refuses_a_huge_dominant_table_at_once(capsys):
    # the dominant-table floor refuses B3 (2**50, 0, 0) before any weight is
    # saturated; saturating up to the cap took tens of seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", "B", "3", f"{2**50},0,0", "c1:Dn")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: saturate(B3, ({2**50}, 0, 0)): enumeration cap exceeded\n"


def test_closed_reader_exits_quietly():
    # a reader that stops after one line, as `head -1` does, closes the pipe
    # while some 700 kB of the orbit listing (well past a pipe's buffer) are
    # still unwritten: the exit is 141 with nothing on stderr, never a
    # BrokenPipeError traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("WEYLBRANCH_CAP", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylbranch.cli", "orbit", "B", "6", "1,1,1,1,1,1", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"dominant_rep\t1,1,1,1,1,1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err and err == b""
