"""Table-file parsing, expressions, instantiation."""

from importlib import resources

import pytest

from weylbranch.charcalc import Characteristic
from weylbranch.cli import main
from weylbranch.tables import (
    TableError,
    eval_int,
    instantiate_rows,
    params_match,
    parse_lambda,
    parse_table,
)

P0 = Characteristic(0)


def serialize(row):
    """A parsed row as its table line: the seven tab-separated fields."""
    return "\t".join([row.family, row.ambient, row.params, row.lam, row.p_cond, row.kappa, row.restriction])


def shipped(name):
    text = resources.files("weylbranch").joinpath(f"data/table_{name}.tsv").read_text()
    return parse_table(text, source=f"table_{name}.tsv")


def test_round_trip_all_shipped():
    for name in ("c136", "c2", "c4i", "c4ii", "all"):
        rows = shipped(name)
        assert rows
        for r in rows:
            again = parse_table(serialize(r), source="x")[0]
            assert serialize(again) == serialize(r)


def test_eval_int():
    env = {"n": 6, "t": 3, "l": 2, "k": 2}
    assert eval_int("2^(t-1)", env) == 4
    assert eval_int("binom(n+1,k)", env) == 21
    assert eval_int("2*n", env) == 12
    assert eval_int("(t-1)//2", env) == 1
    with pytest.raises(TableError):
        eval_int("q+1", env)
    with pytest.raises(TableError):
        eval_int("5//2", env)  # non-exact division is refused


def test_params_match():
    env = {"n": 6, "l": 2, "t": 3, "p": 0, "kind": "Dl"}
    assert params_match("-", env)
    assert params_match("l>=2;t=3", env)
    assert params_match("kind=Dl", env)
    assert not params_match("kind=Bl", env)
    assert params_match("l%2=0", env)
    assert not params_match("l%2=1", env)


def test_parse_lambda():
    assert parse_lambda("L(1)+L(n)", {"n": 4}, 4) == (1, 0, 0, 1)
    assert parse_lambda("2*L(2)", {}, 3) == (0, 2, 0)
    with pytest.raises(TableError):
        parse_lambda("L(5)", {}, 4)


def test_malformed_line_reports_position():
    with pytest.raises(TableError) as exc:
        parse_table("c1\tB\tonly-three", source="bad.tsv")
    assert "bad.tsv:1" in str(exc.value)


def test_unknown_tag_and_ambient_report_position():
    with pytest.raises(TableError, match=r"bad\.tsv:2: unknown family tag 'c9'"):
        parse_table("c1\tB\t-\tL(1)\tany\t-\t-\nc9\tB\t-\tL(1)\tany\t-\t-", source="bad.tsv")
    for ambient in ("E:6", "B:x", "B:1", "B:"):
        with pytest.raises(TableError, match=rf"bad\.tsv:1: unknown ambient type '{ambient}'"):
            parse_table(f"c1\t{ambient}\t-\tL(1)\tany\t-\t-", source="bad.tsv")


def test_instantiation_counts():
    chi = P0
    counts = {}
    for name in ("c136", "c2", "c4i", "c4ii"):
        counts[name] = len(instantiate_rows(shipped(name), 6, chi))
    assert counts["c136"] > 20
    assert counts["c2"] > 30
    assert counts["c4i"] >= 2
    assert counts["c4ii"] >= 3
    total = len(instantiate_rows(shipped("all"), 6, chi))
    assert total == sum(counts.values())


def test_table_all_is_the_union_of_the_collection_tables():
    # table_all.tsv stays a copy, since the entry ids of verify shipped:all
    # carry its file name and line numbers; it must hold the same rows
    parts = sorted(serialize(r) for name in ("c136", "c2", "c4i", "c4ii") for r in shipped(name))
    assert sorted(serialize(r) for r in shipped("all")) == parts


@pytest.mark.parametrize("op", [">=", "<=", "<", ">"])
def test_selector_clause_takes_only_equality(op):
    # a selector is a string; ordering it has no meaning, so the row is refused
    # rather than read as some other comparison
    rows = parse_table(f"c1\tB\tsub{op}DlB\tL(n)\tp!=2\t2\t-", source="sel.tsv")
    with pytest.raises(TableError, match=r"sel\.tsv:1: selector clause"):
        instantiate_rows(rows, 4, P0)
    with pytest.raises(TableError):
        params_match(f"sub{op}DlB", {"n": 3, "sub": "Dn"})


def test_selector_clause_on_a_family_without_that_selector():
    # c2 on B has no orthogonal/symplectic kind; the clause names nothing
    rows = parse_table("c2\tB\tkind=Bl\tL(1)\tany\t1\t-", source="sel.tsv")
    with pytest.raises(TableError, match=r"sel\.tsv:1: unknown symbol 'kind'"):
        instantiate_rows(rows, 4, P0)


@pytest.mark.parametrize("params, kappa", [("sub+0=1", "1"), ("-", "sub")])
def test_selector_in_integer_expression(params, kappa):
    # a selector is a string, not a number; the row names it, not Python's int()
    rows = parse_table(f"c1\tB:3\t{params}\tL(1)\tany\t{kappa}\t-", source="sel.tsv")
    with pytest.raises(TableError, match=r"^sel\.tsv:1: selector 'sub' cannot appear in an integer expression$"):
        instantiate_rows(rows, 3, P0)


def test_instantiation_errors_report_position():
    rows = parse_table("# header\nc1\tB:3\tsub=Dn\tL(n+5)\tany\t2\t-", source="bad.tsv")
    with pytest.raises(TableError, match=r"^bad\.tsv:2: lambda index 8 out of range 1\.\.3$"):
        instantiate_rows(rows, 3, P0)


@pytest.mark.parametrize("weight", ["0*L(1)", "-1*L(1)+L(3)"])
def test_zero_or_non_dominant_weight_is_refused(capsys, tmp_path, weight):
    # at p > 0 the trivial dimension rule would pass a zero weight (1 = 1);
    # the row is refused by name at every p instead
    table = tmp_path / "hw.tsv"
    table.write_text(f"# header\nc1\tB\tsub=Dn\t{weight}\tany\t1\t-\n")
    rows = parse_table(table.read_text(), source="hw.tsv")
    for p in (0, 3):
        with pytest.raises(TableError, match=r"^hw\.tsv:2: highest weight \(.*\) must be dominant and non-zero$"):
            instantiate_rows(rows, 3, Characteristic(p))
        code = main(["verify", str(table), "--p", str(p), "--rank-cap", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "hw.tsv:2: highest weight" in captured.err


def test_instantiation_is_deterministic():
    rows = shipped("all")
    a = [e.entry_id for e in instantiate_rows(rows, 6, P0)]
    b = [e.entry_id for e in instantiate_rows(rows, 6, P0)]
    assert a == b == sorted(a)


def test_ford_pattern_instantiation():
    rows = [r for r in shipped("c136") if r.lam == "ford"]
    ents0 = instantiate_rows(rows, 3, P0)
    assert [e.lam for e in ents0] == [(0, 0, 1)]
    ents7 = instantiate_rows(rows, 3, Characteristic(7))
    lams = {e.lam for e in ents7}
    assert (0, 0, 1) in lams and (1, 0, 1) in lams
    for e in ents7:
        assert e.expected_restriction is not None


def test_sz_pattern_instantiation():
    rows = [r for r in shipped("c2") if r.lam == "sz"]
    ents = instantiate_rows(rows, 4, Characteristic(5))
    assert any(e.lam == (0, 0, 1, 1) and e.ambient.rank == 4 for e in ents)
    assert not instantiate_rows(rows, 4, P0)  # family empty at p = 0
