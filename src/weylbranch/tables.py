"""Classification-table files: parsing and instantiation.

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

Expressions are read by Python's own parser, after ``^`` is rewritten as
``**`` and ``S(i=lo..hi,`` as ``S(i,lo,hi,``, and evaluated by a walker that
accepts only the table language (see the README); nothing is executed.
Rank-generic rows are instantiated up to a rank cap; pattern rows are
expanded at a concrete characteristic.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
from dataclasses import dataclass

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
# expressions: Python's parser, one whitelist walker


EXPRESSION_CACHE_SIZE = 1024
MAX_EXPRESSION_DEPTH = 200
# the work an expression may ask for: a power or a binomial whose result
# could pass MAX_INT_BITS bits is refused before it is computed, and an S
# sum (nested sums multiplied) or a pattern row's @k=lo..hi range runs over
# at most MAX_RANGE_LENGTH values
MAX_INT_BITS = 1 << 16
MAX_RANGE_LENGTH = 1 << 16
# S(i=lo..hi, body) is read as the call S(i, lo, hi, body)
_SUM_HEAD = re.compile(r"\bS\(\s*([A-Za-z_]\w*)\s*=([^=]*?)\.\.")
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.floordiv, ast.FloorDiv: operator.floordiv, ast.Pow: operator.pow}


@functools.lru_cache(maxsize=EXPRESSION_CACHE_SIZE)
def _parse(text: str):
    """The syntax tree of a table expression, parsed once per distinct text.

    Text that is not ASCII, a literal other than a plain decimal (``01``,
    ``1_000``, ``0x10``, ``1e3``) and a tree deeper than
    ``MAX_EXPRESSION_DEPTH`` are refused, so the walkers below never exhaust
    the interpreter's stack.
    """
    if not text.isascii():  # Python would read a full-width n as n
        raise TableError(f"bad expression {text!r}: not ASCII")
    source = _SUM_HEAD.sub(r"S(\1,\2,", text.strip().replace("^", "**"))
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise TableError(f"bad expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own depth limits
        raise TableError(f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels") from None
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_EXPRESSION_DEPTH:
            raise TableError(f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels")
        if isinstance(node, ast.Constant) and ast.get_source_segment(source, node) != str(node.value):
            raise TableError(f"bad literal {ast.get_source_segment(source, node)!r} in {text!r}")
        stack += [(child, depth + 1) for child in ast.iter_child_nodes(node)]
    return tree


def _call(node, name, arity):
    """Whether node is the call name(...) with arity positional arguments."""
    return (type(node) is ast.Call and type(node.func) is ast.Name and node.func.id == name
            and len(node.args) == arity and not node.keywords)


def _refuse_bits(node, count, base):
    """Refuse node, whose result has at most count * log2(base) + 1 bits
    (base >= 2), where that bound passes ``MAX_INT_BITS``."""
    if count >= MAX_INT_BITS or count * math.log2(base) >= MAX_INT_BITS:
        raise TableError(f"{ast.unparse(node)!r} could have more than {MAX_INT_BITS} bits")


def _int(node, env) -> int:
    """The value of an integer-expression tree: int literals, names bound in
    env, ``+ - * / // **``, unary ``-`` and ``binom(a, b)``; a power or a
    binomial past ``MAX_INT_BITS`` is refused."""
    kind = type(node)
    if kind is ast.Constant and type(node.value) is int:
        return node.value
    if kind is ast.Name:
        if isinstance(env.get(node.id), str):
            raise TableError(f"selector {node.id!r} cannot appear in an integer expression")
        if node.id not in env:
            raise TableError(f"unknown symbol {node.id!r}")
        return env[node.id]
    if kind is ast.BinOp and type(node.op) in _ARITHMETIC:
        op, a, b = type(node.op), _int(node.left, env), _int(node.right, env)
        if op in (ast.Div, ast.FloorDiv) and (b == 0 or a % b):
            raise TableError("non-exact division in table expression")
        if op is ast.Pow and b < 0:
            raise TableError(f"negative exponent {b} in table expression")
        if op is ast.Pow and abs(a) > 1:
            _refuse_bits(node, b, abs(a))
        return _ARITHMETIC[op](a, b)
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return -_int(node.operand, env)
    if _call(node, "binom", 2):
        a, b = _int(node.args[0], env), _int(node.args[1], env)
        if 0 < b < a:  # binom(a, b) < a^min(b, a - b)
            _refuse_bits(node, min(b, a - b), a)
        return math.comb(a, b)
    raise TableError(f"bad integer expression {ast.unparse(node)!r}")


def _too_long(lo, hi, span=1):
    """Whether lo..hi, inside ranges whose lengths multiply to ``span``,
    passes ``MAX_RANGE_LENGTH`` values."""
    return span * max(hi - lo + 1, 1) > MAX_RANGE_LENGTH


def _terms(node, env, head, arity, coef=1, span=1):
    """Yield (integer arguments, coefficient) for each ``head(...)`` term of a
    sum tree; a term or an ``S(var, lo, hi, body)`` sum may be multiplied on
    the left by an integer expression, and each sum is expanded.  ``span``
    is the product of the lengths of the sums around node."""
    if type(node) is ast.BinOp and type(node.op) is ast.Add:
        yield from _terms(node.left, env, head, arity, coef, span)
        yield from _terms(node.right, env, head, arity, coef, span)
        return
    if type(node) is ast.BinOp and type(node.op) is ast.Mult and type(node.right) is ast.Call:
        coef *= _int(node.left, env)
        node = node.right
    if _call(node, head, arity):
        yield tuple(_int(arg, env) for arg in node.args), coef
    elif _call(node, "S", 4) and type(node.args[0]) is ast.Name:
        var, lo, hi, body = node.args
        lo, hi = _int(lo, env), _int(hi, env)
        if _too_long(lo, hi, span):
            raise TableError(f"sum {ast.unparse(node)!r} runs over more than {MAX_RANGE_LENGTH} values")
        for v in range(lo, hi + 1):
            yield from _terms(body, {**env, var.id: v}, head, arity, coef, span * (hi - lo + 1))
    else:
        raise TableError(f"bad {head} term {ast.unparse(node)!r}")


def eval_int(expr: str, env) -> int:
    return _int(_parse(expr), env)


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
    for (idx,), coef in _terms(_parse(expr), env, "L", 1):
        if not 1 <= idx <= n:
            raise TableError(f"lambda index {idx} out of range 1..{n}")
        coeffs[idx - 1] += coef
    return tuple(coeffs)


def parse_restriction(expr: str, env, emb):
    """Semisimple expected restriction as a coefficient tuple, or None for '-'."""
    expr = expr.strip()
    if expr == "-":
        return None
    out = [0] * emb.semisimple_rank
    groups = emb.factor_groups
    for (f, j), coef in _terms(_parse(expr), env, "w", 2):
        if not 1 <= f <= len(groups):
            raise TableError(f"restriction factor {f} out of range 1..{len(groups)}")
        # a factor's coordinates are consecutive; a materialized D2 factor
        # exposes its two A1 coordinates as j = 1, 2
        width = sum(emb.factor_ranks[m] for m in groups[f - 1])
        if not 1 <= j <= width:
            raise TableError(f"restriction index {j} of factor {f} out of range 1..{width}")
        out[emb.factor_offsets[groups[f - 1][0]] + j - 1] += coef
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
        lo, hi = eval_int(lo, env), eval_int(hi, env)
        if _too_long(lo, hi):
            raise TableError(f"range {it.strip()!r} runs over more than {MAX_RANGE_LENGTH} values")
        for v in range(lo, hi + 1):
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
