"""Classification-table files: parsing, serialization and instantiation.

One record per line, seven tab-separated fields:

    family  ambient  params  lambda  p_cond  kappa  restriction

``ambient`` is a family letter, optionally ``:rank`` to pin the rank.
``params`` is ``-`` or ``;``-separated clauses over the parameters that
``embeddings.instance_params`` yields for each instance.  A selector, a
parameter with a string value, takes ``=`` or ``!=`` (``sub=Dn``); any other
clause is an integer constraint (``l>=2``, ``t%2=0``, ``l=1``), and a name
the instance lacks is an error.  ``lambda`` is a sum of ``L(i)`` terms with
integer-expression indices, optionally ``@k=lo..hi`` iterated, or one of the
generic patterns ``ford``/``sz``/``noan``.  ``kappa`` is an integer
expression; ``restriction`` a sum of ``w(f,j)`` terms and
``S(i=lo..hi, expr)`` sums, ``-`` when there is no semisimple part, or the
pattern name for pattern rows.  Lines starting with ``#`` are comments.

Rank-generic rows are instantiated up to a rank cap; pattern rows are
expanded at a concrete characteristic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .checker import ClassificationEntry, dominant_weights_bounded, ford_condition_check
from .charcalc import Characteristic
from .embeddings import (
    FAMILY_TAGS,
    build_embedding,
    family_of,
    instance_params,
    p_condition_clauses,
    p_condition_ok,
)
from .rootsys import _MIN_RANK, FAMILIES, LieType

# the benchmark's tests import the enumerator from here under its older names
from .embeddings import family_of as _family_from_params, instance_params as _int_solutions  # noqa: F401


@dataclass
class TableRow:
    family: str
    ambient: str
    params: str
    lam: str
    p_cond: str
    kappa: str
    restriction: str
    source: str = ""
    lineno: int = 0


class TableError(ValueError):
    pass


def parse_table(text: str, source: str = "<table>"):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 7:
            raise TableError(f"{source}:{lineno}: expected 7 tab-separated fields, got {len(parts)}")
        row = TableRow(*[p.strip() for p in parts], source=source, lineno=lineno)
        if row.family not in FAMILY_TAGS:
            raise TableError(f"{source}:{lineno}: unknown family tag {row.family!r}; choose from {FAMILY_TAGS}")
        letter, colon, rank = row.ambient.partition(":")
        if letter not in FAMILIES or (colon and not (rank.isdigit() and int(rank) >= _MIN_RANK[letter])):
            raise TableError(f"{source}:{lineno}: unknown ambient type {row.ambient!r}; "
                             f"expected one of {FAMILIES}, optionally with :rank at or above its least rank")
        try:
            p_condition_clauses(row.p_cond)
        except ValueError as exc:
            raise TableError(f"{source}:{lineno}: {exc}") from None
        rows.append(row)
    return rows


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read(), source=str(path))


# ---------------------------------------------------------------------------
# integer expression mini-language


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


def eval_int(expr: str, env) -> int:
    p = _Parser(_tokenize(expr), env)
    v = p.expr()
    if p.peek() != "<end>":
        raise TableError(f"trailing input in expression {expr!r}")
    return v


def check_clause(clause: str, env) -> bool:
    """Constraint clauses: 'l>=2', 't%2=0', 'l=1', 'a>b', and selector clauses.

    A clause whose left side names a string parameter of the instance, such
    as 'sub=Dn', compares strings and takes only = and !=; any other left
    side is an integer expression.
    """
    m = re.match(r"^(\w+)%(\d+)=(\d+)$", clause)
    if m:
        return eval_int(m.group(1), env) % int(m.group(2)) == int(m.group(3))
    for op in (">=", "<=", "!=", "=", "<", ">"):
        if op in clause:
            lhs, rhs = (side.strip() for side in clause.split(op, 1))
            if isinstance(env.get(lhs), str):
                if op not in ("=", "!="):
                    raise TableError(f"selector clause {clause!r} takes = or !=, not {op}")
                return (env[lhs] == rhs) == (op == "=")
            a = eval_int(lhs, env)
            b = eval_int(rhs, env)
            return {"=": a == b, "!=": a != b, ">=": a >= b, "<=": a <= b, "<": a < b, ">": a > b}[op]
    raise TableError(f"bad params clause {clause!r}")


def params_match(params: str, env) -> bool:
    if params.strip() in ("-", ""):
        return True
    return all(check_clause(c.strip(), env) for c in params.split(";"))


# ---------------------------------------------------------------------------
# lambda and restriction expressions


def parse_lambda(expr: str, env, n: int):
    """A concrete weight from a lambda expression (no patterns, no iterator)."""
    coeffs = [0] * n
    for term in _split_top(expr, "+"):
        term = term.strip()
        if not term:
            continue
        coef = 1
        if "*" in term and not term.startswith("L("):
            c, term = term.split("*", 1)
            coef = eval_int(c, env)
        m = re.fullmatch(r"L\((.*)\)", term.strip())
        if not m:
            raise TableError(f"bad lambda term {term!r}")
        idx = eval_int(m.group(1), env)
        if not 1 <= idx <= n:
            raise TableError(f"lambda index {idx} out of range 1..{n}")
        coeffs[idx - 1] += coef
    return tuple(coeffs)


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


def parse_restriction(expr: str, env, emb):
    """Semisimple expected restriction as a coefficient tuple, or None for '-'."""
    expr = expr.strip()
    if expr == "-":
        return None
    width = emb.semisimple_rank
    out = [0] * width

    def w_index(f, j):
        grp = emb.factor_groups[f - 1]
        # materialized D2 factors expose their two A1 coordinates as j = 1, 2
        if len(grp) > 1:
            mi = grp[j - 1]
            return emb.factor_offsets[mi]
        return emb.factor_offsets[grp[0]] + (j - 1)

    def add_terms(e, scope):
        for term in _split_top(e, "+"):
            term = term.strip()
            if not term:
                continue
            coef = 1
            if "*" in term and not term.startswith(("w(", "S(")):
                c, term2 = term.split("*", 1)
                coef = eval_int(c, scope)
                term = term2.strip()
            if term.startswith("S("):
                inner = term[2:-1]
                head, body = _split_top(inner, ",")[0], ",".join(_split_top(inner, ",")[1:])
                var, rng = head.split("=")
                lo, hi = rng.split("..")
                for v in range(eval_int(lo, scope), eval_int(hi, scope) + 1):
                    sub = dict(scope)
                    sub[var.strip()] = v
                    for _ in range(coef):
                        add_terms(body, sub)
                continue
            m = re.fullmatch(r"w\((.*)\)", term)
            if not m:
                raise TableError(f"bad restriction term {term!r}")
            args = _split_top(m.group(1), ",")
            if len(args) != 2:
                raise TableError(f"bad w() term {term!r}")
            f = eval_int(args[0], scope)
            j = eval_int(args[1], scope)
            out[w_index(f, j)] += coef

    add_terms(expr, env)
    return tuple(out)


def instantiate_rows(rows, rank_cap: int, chi: Characteristic, pattern_bound: int = 3):
    """Expand table rows into concrete classification entries at one characteristic.

    An error in a row is raised as a ``TableError`` that names its ``source:lineno``.
    """
    entries = []
    for row in rows:
        try:
            entries += _row_entries(row, rank_cap, chi, pattern_bound)
        except ValueError as exc:
            raise TableError(f"{row.source}:{row.lineno}: {exc}") from None
    entries.sort(key=lambda e: e.entry_id)
    return entries


def _row_entries(row, rank_cap, chi, pattern_bound):
    """Yield the entries of one row, at every instance up to the rank cap."""
    letter, _, fixed = row.ambient.partition(":")
    ranks = [int(fixed)] if fixed else range(_MIN_RANK[letter], rank_cap + 1)
    for n in ranks:
        if n > rank_cap:
            continue
        for params in instance_params(row.family, letter, n):
            env = {"n": n, "p": chi.p, **params}
            if not params_match(row.params, env):
                continue
            ambient = LieType(letter, n)
            fam = family_of(row.family, params)
            emb = build_embedding(ambient, fam)
            for lam, scope in _expand_lambda(row, env, n, chi, pattern_bound):
                if any(c < 0 for c in lam) or not any(lam):
                    raise TableError(f"highest weight {lam} must be dominant and non-zero")
                if chi.p and any(c >= chi.p for c in lam):
                    continue
                pid = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
                weight = ",".join(map(str, lam))
                yield ClassificationEntry(
                    ambient=ambient,
                    family=fam,
                    lam=lam,
                    p_condition=row.p_cond,
                    expected_kappa=eval_int(row.kappa, scope) if row.kappa != "-" else None,
                    expected_restriction=_expected_restriction(row, scope, emb, lam),
                    source=f"{row.source}:{row.lineno}",
                    entry_id=f"{row.source.rsplit('/', 1)[-1]}:{row.lineno}:{letter}{n}:{pid}:{weight}",
                )


def _expand_lambda(row, env, n, chi, pattern_bound):
    """Yield (weight, scope) pairs for one row at one parameter assignment."""
    expr = row.lam
    p = chi.p
    if expr == "ford":
        if not p_condition_ok(row.p_cond, p):
            return
        for lam in dominant_weights_bounded(n, pattern_bound, p):
            if lam[n - 1] != 1:
                continue
            if ford_condition_check(lam, n, chi):
                yield lam, dict(env)
        return
    if expr == "noan":
        if not p_condition_ok(row.p_cond, p):
            return
        for lam in dominant_weights_bounded(n, pattern_bound, p):
            if lam[n - 1] == 0:
                yield lam, dict(env)
        return
    if expr == "sz":
        if p < 3:
            return
        a = (p - 3) // 2
        lam = [0] * n
        lam[n - 2] += 1
        lam[n - 1] += a
        scope = dict(env)
        scope["a"] = a
        yield tuple(lam), scope
        return
    if "@" in expr:
        body, it = expr.split("@")
        var, rng = it.split("=")
        lo, hi = rng.split("..")
        for v in range(eval_int(lo, env), eval_int(hi, env) + 1):
            scope = dict(env)
            scope[var.strip()] = v
            yield parse_lambda(body.strip(), scope, n), scope
        return
    yield parse_lambda(expr, env, n), dict(env)


def _expected_restriction(row, scope, emb, lam):
    expr = row.restriction.strip()
    if expr in ("ford", "noan", "sz"):
        # pattern rows: the printed closed formula, evaluated on the coefficients
        n = emb.ambient.rank
        a = list(lam)
        out = [0] * emb.semisimple_rank
        if expr == "ford":
            # sum_{i<n} a_i w_i + (a_{n-1} + 1) w_n, using a_n = 1
            for i in range(1, n):
                out[i - 1] = a[i - 1]
            out[n - 1] = a[n - 2] + 1
            return tuple(out)
        if expr == "noan":
            # sum_{i<n} a_i w_i + a_{n-1} w_n (a_n = 0)
            for i in range(1, n):
                out[i - 1] = a[i - 1]
            out[n - 1] = a[n - 2]
            return tuple(out)
        # sz on C_n with t = 2: (a+1) w_{1,l} + w_{2,l-1} + a w_{2,l}
        l = scope["l"]
        av = scope["a"]
        if l == 1:
            return (av + 1, av)
        out[l - 1] = av + 1
        out[2 * l - 2] = 1
        out[2 * l - 1] = av
        return tuple(out)
    return parse_restriction(expr, scope, emb)
