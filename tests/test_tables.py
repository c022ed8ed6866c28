"""Table-file parsing, expressions, instantiation."""

import re
import time
from importlib import resources
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylbranch import tables
from weylbranch.charcalc import Characteristic
from weylbranch.checker import INCONCLUSIVE, ClassificationEntry, verify_entry
from weylbranch.cli import main
from weylbranch.embeddings import build_embedding, geom_family
from weylbranch.rootsys import LieType
from weylbranch.tables import (
    TableError,
    eval_int,
    instantiate_rows,
    params_match,
    parse_lambda,
    parse_restriction,
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


def _refused_fast(call, match):
    """call raises a TableError matching ``match``, in well under a second."""
    start = time.perf_counter()
    with pytest.raises(TableError, match=match):
        call()
    assert time.perf_counter() - start < 0.5


def test_power_past_the_bit_limit_is_refused_before_it_is_computed():
    # 7^7^8 has about 16 million bits; 2^(MAX_INT_BITS - 1) is the largest
    # power of two allowed
    limit = tables.MAX_INT_BITS
    assert eval_int(f"2^{limit - 1}", {}).bit_length() == limit
    _refused_fast(lambda: eval_int(f"2^{limit}", {}), rf"could have more than {limit} bits")
    _refused_fast(lambda: eval_int("7^7^8", {}), r"'7 \*\* 7 \*\* 8' could have more than")
    # an exponent too large for a float is refused too, as is a binomial
    _refused_fast(lambda: eval_int(f"2^(2^{limit - 1} * 2^{limit - 1})", {}), "could have more than")
    _refused_fast(lambda: eval_int("binom(10^6, 5*10^5)", {}), r"'binom\(.*\)' could have more than")
    assert eval_int("binom(100, 50)", {}) == comb(100, 50)
    # in a table, the refusal names the line
    rows = parse_table("c1\tB:3\tsub=Dn\tL(1)\tany\t7^7^8\t-\n", source="pow.tsv")
    _refused_fast(lambda: instantiate_rows(rows, 3, P0), r"^pow\.tsv:1: '7 \*\* 7 \*\* 8' could have more than")


def test_sum_range_past_the_length_limit_is_refused():
    e = build_embedding(LieType("B", 4), geom_family("c1", sub="Dn"))
    limit = tables.MAX_RANGE_LENGTH
    assert parse_restriction(f"S(i=1..{limit},w(1,1))", {}, e) == (limit, 0, 0, 0)
    _refused_fast(lambda: parse_restriction("S(i=1..10^6,w(1,1))", {}, e), rf"runs over more than {limit} values")
    # nested sums multiply their lengths, though the inner one is empty
    _refused_fast(lambda: parse_restriction("S(i=1..300,S(j=1..300,S(k=1..0,w(1,1))))", {}, e),
                  "runs over more than")
    rows = parse_table("c1\tB:4\tsub=Dn\tL(1)\tany\t-\tS(i=1..10^6,w(1,1))\n", source="sum.tsv")
    _refused_fast(lambda: instantiate_rows(rows, 4, P0), r"^sum\.tsv:1: sum 'S\(i, 1, 10 \*\* 6, w\(1, 1\)\)' runs")


def test_pattern_row_range_past_the_length_limit_is_refused():
    rows = parse_table("c1\tB:3\tsub=Dn\tL(1)@k=1..10^6\tany\t-\t-\n", source="at.tsv")
    _refused_fast(lambda: instantiate_rows(rows, 3, P0),
                  rf"^at\.tsv:1: range 'k=1\.\.10\^6' runs over more than {tables.MAX_RANGE_LENGTH} values$")


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


# ---------------------------------------------------------------------------
# the former reader: a hand tokenizer, a recursive-descent parser and a
# paren-aware splitter, kept as the oracle of the reader built on Python's
# parser


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|//|[-+*/()^,])")


def _tokenize(s):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise TableError(f"bad expression {s!r} at position {pos}")
        out.append(m.group(1))
        pos = m.end()
    out.append("<end>")
    return out


class _Parser:
    def __init__(self, tokens, env):
        self.toks = tokens
        self.i = 0
        self.env = env

    def peek(self):
        return self.toks[self.i]

    def take(self, expect=None):
        t = self.toks[self.i]
        if expect is not None and t != expect:
            raise TableError(f"expected {expect!r}, got {t!r}")
        self.i += 1
        return t

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "//", "/"):
            op = self.take()
            w = self.factor()
            if op == "*":
                v = v * w
            else:
                if w == 0 or v % w != 0:
                    raise TableError("non-exact division in table expression")
                v = v // w
        return v

    def factor(self):
        v = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            w = self.factor()
            v = v**w
        return v

    def atom(self):
        t = self.take()
        if t == "-":
            return -self.atom()
        if t == "(":
            v = self.expr()
            self.take(")")
            return v
        if t.isdigit():
            return int(t)
        if t == "binom":
            self.take("(")
            a = self.expr()
            self.take(",")
            b = self.expr()
            self.take(")")
            return comb(a, b)
        if isinstance(self.env.get(t), str):
            raise TableError(f"selector {t!r} cannot appear in an integer expression")
        if t in self.env:
            return self.env[t]
        raise TableError(f"unknown symbol {t!r}")


def former_eval_int(expr, env):
    p = _Parser(_tokenize(expr), env)
    v = p.expr()
    if p.peek() != "<end>":
        raise TableError(f"trailing input in expression {expr!r}")
    return v


def _split_top(expr, sep=","):
    parts = []
    depth = 0
    cur = []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def former_parse_lambda(expr, env, n):
    coeffs = [0] * n
    for term in _split_top(expr, "+"):
        term = term.strip()
        if not term:
            continue
        coef = 1
        if "*" in term and not term.startswith("L("):
            c, term = term.split("*", 1)
            coef = former_eval_int(c, env)
        m = re.fullmatch(r"L\((.*)\)", term.strip())
        if not m:
            raise TableError(f"bad lambda term {term!r}")
        idx = former_eval_int(m.group(1), env)
        if not 1 <= idx <= n:
            raise TableError(f"lambda index {idx} out of range 1..{n}")
        coeffs[idx - 1] += coef
    return tuple(coeffs)


def former_parse_restriction(expr, env, emb):
    expr = expr.strip()
    if expr == "-":
        return None
    out = [0] * emb.semisimple_rank

    def w_index(f, j):
        grp = emb.factor_groups[f - 1]
        if len(grp) > 1:
            return emb.factor_offsets[grp[j - 1]]
        return emb.factor_offsets[grp[0]] + (j - 1)

    def add_terms(e, scope):
        for term in _split_top(e, "+"):
            term = term.strip()
            if not term:
                continue
            coef = 1
            if "*" in term and not term.startswith(("w(", "S(")):
                c, term = term.split("*", 1)
                coef = former_eval_int(c, scope)
                term = term.strip()
            if term.startswith("S("):
                inner = _split_top(term[2:-1], ",")
                var, rng = inner[0].split("=")
                lo, hi = rng.split("..")
                for v in range(former_eval_int(lo, scope), former_eval_int(hi, scope) + 1):
                    for _ in range(coef):
                        add_terms(",".join(inner[1:]), {**scope, var.strip(): v})
                continue
            m = re.fullmatch(r"w\((.*)\)", term)
            if not m:
                raise TableError(f"bad restriction term {term!r}")
            args = _split_top(m.group(1), ",")
            if len(args) != 2:
                raise TableError(f"bad w() term {term!r}")
            out[w_index(former_eval_int(args[0], scope), former_eval_int(args[1], scope))] += coef

    add_terms(expr, env)
    return tuple(out)


def outcome(fn, *args):
    """fn's value, or the type of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def use_former_reader(monkeypatch):
    monkeypatch.setattr(tables, "eval_int", former_eval_int)
    monkeypatch.setattr(tables, "parse_lambda", former_parse_lambda)
    monkeypatch.setattr(tables, "parse_restriction", former_parse_restriction)


# the tables the tests write, as (source, text)
TEST_TABLES = [
    ("fail.tsv", "c1\tB:3\tsub=Dn\tL(3)\tp!=2\t5\tw(1,3)\n"),
    ("pass.tsv", "c1\tB:3\tsub=Dn\tL(3)\tany\t2\tw(1,3)\n"),
    ("one.tsv", "c1\tB:3\tsub=Dn\tL(3)\tany\t2\t-\n"),
    ("late.tsv", "c1\tB:3\tsub=Dn\t(p-3)*L(3)\tp>=3\t-\t-\n"),
    ("huge.tsv", f"c1\tB:3\tsub=Dn\t{1 << 64}*L(1)\tany\t-\t-\n"),
    ("hw.tsv", "# header\nc1\tB\tsub=Dn\t0*L(1)\tany\t1\t-\n"),
    ("hw.tsv", "# header\nc1\tB\tsub=Dn\t-1*L(1)+L(3)\tany\t1\t-\n"),
    ("sel.tsv", "c1\tB\tsub>=DlB\tL(n)\tp!=2\t2\t-\n"),
    ("sel.tsv", "c2\tB\tkind=Bl\tL(1)\tany\t1\t-\n"),
    ("sel.tsv", "c1\tB:3\tsub+0=1\tL(1)\tany\t1\t-\n"),
    ("sel.tsv", "c1\tB:3\t-\tL(1)\tany\tsub\t-\n"),
    ("bad.tsv", "# header\nc1\tB:3\tsub=Dn\tL(n+5)\tany\t2\t-\n"),
    ("p2.tsv", "c1\tD:4\tsub=DlD;l=1\t2*L(1)\tany\t-\t-\nc1\tD:4\tsub=DlD;l=1\tL(n)\tany\t-\t-\n"),
]


@pytest.mark.parametrize("cap", [8, 12])
def test_reader_matches_the_former_on_every_table(monkeypatch, cap):
    # the same entries, or an error from both, on the shipped tables and the
    # tables the tests write, at every p and rank cap
    named = [(name, shipped(name)) for name in ("c136", "c2", "c4i", "c4ii", "all")]
    named += [(source, parse_table(text, source=source)) for source, text in TEST_TABLES]
    for p in (0, 2, 3, 5, 7, 11, 13):
        chi = Characteristic(p)
        new = [outcome(instantiate_rows, rows, cap, chi) for _, rows in named]
        with monkeypatch.context() as m:
            use_former_reader(m)
            former = [outcome(instantiate_rows, rows, cap, chi) for _, rows in named]
        for (name, _), a, b in zip(named, new, former):
            assert a == b, (name, p)
        # the shipped tables give entries at every p, and refused rows are compared too
        assert all(isinstance(a, list) and a for a in new[:5]) and TableError in new, p


# expressions of the former grammar, without its documented differences:
# a unary minus never stands before a power base, an exponent is a literal
# 0..3, a binom takes atoms, and a coefficient holds no '*'
ENV = {"n": 6, "t": 3, "l": 2, "k": 4, "p": 5}
ATOMS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(sorted(ENV)))


def _expressions(star=True):
    def extend(inner):
        primary = st.one_of(
            ATOMS,
            inner.map(lambda e: f"({e})"),
            st.tuples(ATOMS, ATOMS).map(lambda ab: f"binom({ab[0]}, {ab[1]})"),
        )
        ops = ["+", "-", "/", "//"] + (["*"] if star else [])
        return st.one_of(
            primary,
            primary.map(lambda e: f"-{e}"),
            st.tuples(primary, st.integers(0, 3)).map(lambda be: f"{be[0]}^{be[1]}"),
            st.tuples(inner, st.sampled_from(ops), st.sampled_from(["", " "]), inner).map(
                lambda t: f"{t[0]}{t[2]}{t[1]}{t[2]}{t[3]}"),
        )
    return st.recursive(ATOMS, extend, max_leaves=12)


INT_TEXTS = _expressions()
# a coefficient: no '*' (the former reader split a term at its first '*'), and
# a top-level '-' only as a sign (it read n-1*L(2) as (n-1)*L(2))
COEFFICIENTS = st.one_of(ATOMS, _expressions(star=False).map(lambda e: f"({e})"),
                         ATOMS.map(lambda a: f"-{a}"))


def _terms(head, args):
    term = args.map(lambda a: f"{head}({a})")
    return st.one_of(term, st.tuples(COEFFICIENTS, term).map(lambda ct: f"{ct[0]}*{ct[1]}"))


@settings(max_examples=300, deadline=None)
@given(INT_TEXTS)
def test_expressions_match_the_former_reader(text):
    assert outcome(eval_int, text, ENV) == outcome(former_eval_int, text, ENV)


# indices mostly in 1..8, and any expression now and then
INDICES = st.one_of(st.sampled_from(["1", "n", "n-k", "l", "t+1", "2*l", "binom(k,3)+1", "(t-1)//2+1", "2^l"]), INT_TEXTS)


@settings(max_examples=200, deadline=None)
@given(st.lists(_terms("L", INDICES), min_size=1, max_size=4))
def test_lambda_sums_match_the_former_reader(terms):
    text = "+".join(terms)
    assert outcome(parse_lambda, text, ENV, 8) == outcome(former_parse_lambda, text, ENV, 8)


# B4 c1:sub=DlB,l=2 has the factors D2 (two A1 coordinates) and B2
DLB = build_embedding(LieType("B", 4), geom_family("c1", sub="DlB", l=2))
W_ARGS = st.tuples(st.sampled_from(["1", "2", "l-1", "(t-1)//2"]), st.sampled_from(["1", "2", "l", "i"]))


def _restriction_sums():
    leaf = _terms("w", W_ARGS.map(lambda fj: f"{fj[0]},{fj[1]}"))

    def extend(inner):
        sums = st.tuples(st.sampled_from(["", "0*", "3*"]), st.sampled_from(["1..2", "2..2", "2..1", "1..l"]), inner)
        return st.one_of(inner, sums.map(lambda s: f"{s[0]}S(i={s[1]},{s[2]})"),
                         st.tuples(inner, inner).map("+".join))
    return st.recursive(leaf, extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_restriction_sums())
@example("0*S(i=1..2,(((0/0)))*w(1,1))")  # a sum times 0: its body is not read
def test_restriction_sums_match_the_former_reader(text):
    env = {**ENV, "i": 1}
    assert outcome(parse_restriction, text, env, DLB) == outcome(former_parse_restriction, text, env, DLB)


# ---------------------------------------------------------------------------
# where the language differs from the former reader's


def test_unary_minus_binds_looser_than_a_power():
    # as in Python and in mathematics: -2^2 is -(2^2); the former reader gave 4
    assert eval_int("-2^2", ENV) == -4 and former_eval_int("-2^2", ENV) == 4
    assert eval_int("3*-n^2", ENV) == -108 and eval_int("(-2)^2", ENV) == 4
    assert eval_int("2^3^2", ENV) == 512  # right-associative


def test_negative_exponent_is_refused(capsys, tmp_path):
    # 2^(n-4) on B3 was the float 0.5, written as kappa_expected 0.5 in a FAIL record
    assert former_eval_int("2^(n-4)", {"n": 3}) == 0.5
    with pytest.raises(TableError, match=r"^negative exponent -1 in table expression$"):
        eval_int("2^(n-4)", {"n": 3})
    table = tmp_path / "neg.tsv"
    table.write_text("c1\tB:3\tsub=Dn\tL(3)\tany\t2^(n-4)\t-\n")
    with pytest.raises(TableError, match=r"^neg\.tsv:1: negative exponent -1"):
        instantiate_rows(parse_table(table.read_text(), source="neg.tsv"), 3, P0)
    code = main(["verify", str(table), "--rank-cap", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "neg.tsv:1: negative exponent" in captured.err


@pytest.mark.parametrize("text", ["01", "00", "L(01)", "1_000", "0x10", "1e3", "1.5", "2j", "'1'", "True", "n.real",
                                  "+n", "n%2", "abs(n)", "L(1)+", "+L(1)", "L(1)+-L(2)", "L(1)-L(2)", "n-1*L(2)",
                                  "L(1)*2", "2*(L(1)+L(2))", "L(1,2)", "binom(n)", "S(1=1..2,L(1))", "L(ｎ)"])
def test_text_outside_the_language_is_refused(text):
    # each refused with a TableError, never a Python error
    for parse in (lambda: eval_int(text, ENV), lambda: parse_lambda(text, ENV, 8)):
        with pytest.raises(TableError):
            parse()


def test_former_reader_accepted_leading_zeros_and_empty_terms():
    # and it split a term at its first '*', so n-1*L(2) was (n-1)*L(2)
    assert former_eval_int("01", ENV) == 1 and former_parse_lambda("L(1)+", ENV, 3) == (1, 0, 0)
    assert former_parse_lambda("+L(1)", ENV, 3) == (1, 0, 0)
    assert former_parse_lambda("n-1*L(2)", ENV, 3) == (0, 5, 0)


def test_a_coefficient_is_any_integer_expression():
    assert parse_lambda("2*3*L(1)+n^2*L(2)", ENV, 3) == (6, 36, 0)
    assert parse_restriction("2*l*w(2,1)", ENV, DLB) == (0, 0, 4, 0)
    with pytest.raises(TableError, match="bad lambda term"):
        former_parse_lambda("2*3*L(1)", ENV, 3)


def test_a_negative_coefficient_scales_a_sum():
    # the former reader repeated the sum c times, so it dropped it for c < 0
    text = "-1*S(i=1..2,w(1,i))+3*w(1,1)"
    assert parse_restriction(text, ENV, DLB) == (2, -1, 0, 0)
    assert former_parse_restriction(text, ENV, DLB) == (3, 0, 0, 0)
    assert parse_lambda("S(i=1..3,i*L(i))", ENV, 3) == (1, 2, 3)  # a sum in a weight


# ---------------------------------------------------------------------------
# malformed rows end in a TableError naming their line


@pytest.mark.parametrize("term, message", [
    ("w(3,1)", "restriction factor 3 out of range 1..2"),
    ("w(0,1)", "restriction factor 0 out of range 1..2"),
    ("w(1,5)", "restriction index 5 of factor 1 out of range 1..2"),
    ("w(1,0)", "restriction index 0 of factor 1 out of range 1..2"),
    ("w(2,3)", "restriction index 3 of factor 2 out of range 1..2"),
])
def test_w_term_out_of_range_is_refused(term, message):
    # the former reader raised IndexError on w(3,1) and w(1,5), and read
    # w(0,1) as the last factor and w(1,0) as the coordinate before
    rows = parse_table(f"c1\tB:4\tsub=DlB;l=2\tL(n)\tp!=2\t2\t{term}\n", source="w.tsv")
    with pytest.raises(TableError, match=rf"^w\.tsv:1: {re.escape(message)}$"):
        instantiate_rows(rows, 4, P0)


def test_w_terms_of_a_d2_factor_and_of_a_b2_factor():
    # the materialized D2 factor takes j = 1, 2, its two A1 coordinates
    assert [parse_restriction(f"w({f},{j})", ENV, DLB) for f in (1, 2) for j in (1, 2)] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("field, text, message", [
    ("kappa", "(" * 400 + "2" + ")" * 400, "too many nested parentheses"),
    ("kappa", "-" * 10000 + "2", "nested deeper than 200 levels"),
    ("restriction", "+".join(["w(1,1)"] * 300), "nested deeper than 200 levels"),
    ("restriction", "+".join(["w(1,1)"] * 2000), "nested deeper than 200 levels"),
    ("restriction", "+".join(["w(1,1)"] * 5000), "nested deeper than 200 levels"),
], ids=["400-parens", "10000-signs", "300-terms", "2000-terms", "5000-terms"])
def test_too_deep_or_too_long_expression_is_refused(field, text, message):
    # the former reader ended in a RecursionError on the first
    kappa, restriction = (text, "w(1,1)") if field == "kappa" else ("2", text)
    rows = parse_table(f"c1\tB:4\tsub=DlB;l=2\tL(n)\tp!=2\t{kappa}\t{restriction}\n", source="deep.tsv")
    with pytest.raises(TableError, match=rf"^deep\.tsv:1: .*{message}"):
        instantiate_rows(rows, 4, P0)
    # a sum of n terms is about n levels deep
    assert parse_restriction("+".join(["w(1,1)"] * 150), ENV, DLB) == (150, 0, 0, 0)


def test_weight_that_is_not_p_restricted():
    # instantiation skips 2*L(1) at p = 2, which verify_entry would report
    # INCONCLUSIVE as not p-restricted
    rows = parse_table(TEST_TABLES[-1][1], source="p2.tsv")
    assert [e.lam for e in instantiate_rows(rows, 4, Characteristic(3))] == [(2, 0, 0, 0), (0, 0, 0, 1)]
    (entry,) = instantiate_rows(rows, 4, Characteristic(2))
    assert entry.lam == (0, 0, 0, 1)
    skipped = ClassificationEntry(
        ambient=LieType("D", 4), family=geom_family("c1", sub="DlD", l=1), lam=(2, 0, 0, 0), p_condition="any",
        expected_restriction=None, expected_kappa=None, source="p2.tsv:1", entry_id="p2",
    )
    report = verify_entry(skipped, Characteristic(2))
    assert report.verdict == INCONCLUSIVE and report.reasons == [{"kind": "not-p-restricted", "p": 2}]
