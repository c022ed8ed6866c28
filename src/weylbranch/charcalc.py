"""Characters and dimensions for Weyl modules of the classical groups.

Freudenthal multiplicity tables, Weyl's dimension formula, the closed-form
irreducible dimensions with their congruence cases, special multiplicity
rules, and the Weyl-character subtraction routine that serves as the
branching oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import dominant_representative
from .rootsys import LieType, RootSystem, build_root_system, parabolic_index


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Characteristic:
    """Field characteristic; 0 means characteristic zero."""

    p: int

    def __post_init__(self):
        # an integer only (a numpy integer is stored as an int): 5.0 would
        # compare and hash equal to 5 and poison every cache keyed on p
        if type(self.p) is not int:
            if isinstance(self.p, bool) or not isinstance(self.p, numbers.Integral):
                raise ValueError(f"characteristic must be an integer, got {self.p!r}")
            object.__setattr__(self, "p", int(self.p))
        if self.p != 0 and not _is_prime(self.p):
            raise ValueError(f"characteristic must be 0 or prime, got {self.p}")


@dataclass(frozen=True)
class CharacterTable:
    highest_weight: tuple
    entries: dict  # dominant Weight -> multiplicity
    total_dim: int
    largest_orbit: int  # the most elements in the Weyl orbit of one dominant weight

    def multiplicity(self, rs: RootSystem, w) -> int:
        rep, _ = dominant_representative(rs, w)
        return self.entries.get(rep, 0)


def _require_dominant(lam):
    if any(c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant")
    return lam


FREUDENTHAL_CACHE_SIZE = 4096


# (type, zero-node set) pairs: at most 2**rank per type
ORBIT_SIZE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=ORBIT_SIZE_CACHE_SIZE)
def _orbit_size_cached(t: LieType, zero):
    """The orbit size |W : W_J| of a dominant weight whose zero nodes J are
    the True entries of ``zero``, one per node."""
    return parabolic_index(build_root_system(t), [i for i, z in enumerate(zero) if z])[0]


@functools.lru_cache(maxsize=FREUDENTHAL_CACHE_SIZE)
def _freudenthal_cached(t: LieType, lam):
    rs = build_root_system(t)
    entries = dict(sorted(kernels.freudenthal_table(rs, lam).items()))
    sizes = [_orbit_size_cached(t, tuple(map(operator.not_, w))) for w in entries]
    total = sum(m * size for m, size in zip(entries.values(), sizes))
    return CharacterTable(highest_weight=tuple(lam), entries=entries, total_dim=total, largest_orbit=max(sizes))


def freudenthal(rs: RootSystem, lam) -> CharacterTable:
    """Full dominant multiplicity table of the Weyl module W(lam)."""
    lam = _require_dominant(rs.check_weight(lam))
    return _freudenthal_cached(rs.lie_type, lam)


def weyl_dim(rs: RootSystem, lam) -> int:
    """Weyl's dimension formula prod <lam + rho, beta-coroot> / <rho, beta-coroot>, of one checked lam."""
    return weyl_dims(rs, [_require_dominant(rs.check_weight(lam))])[0]


def weyl_dims(rs: RootSystem, rows) -> list:
    """``weyl_dim`` of each row of a block of dominant weights, unchecked, as Python ints.

    One product of the rows lam + rho with ``rs.coroot_block`` gives every
    pairing <lam + rho, beta-coroot>, at most (max lam_i + 1) <rho, beta-coroot>
    (``rs.coroot_heights``); past int64 it runs in object dtype.  Each row's
    pairings are multiplied over Python ints and divided by the product of
    the heights, ``rs.weyl_denominator``.
    """
    top = int(rows.max(initial=0)) if isinstance(rows, np.ndarray) else max(map(max, rows), default=0)
    wide = top >= ((1 << 63) - 1) // max(rs.coroot_heights) - 1
    shifted = np.array(rows, dtype=object if wide else np.int64).reshape(-1, rs.rank) + 1
    den = rs.weyl_denominator
    out = []
    for i, pairs in enumerate((shifted @ rs.coroot_block).tolist()):
        dim, rem = divmod(math.prod(pairs), den)
        if rem:
            raise ArithmeticError(f"Weyl dimension of {tuple(map(int, rows[i]))} on {rs.lie_type} is not integral")
        out.append(dim)
    return out


def premet_applies(rs: RootSystem, chi: Characteristic) -> bool:
    """True iff p = 0 or p > e(G); then L(lam) and W(lam) share their weight set."""
    return chi.p == 0 or chi.p > rs.eG


def mult_rule_118(c: int, d: int, length_case: str, chi: Characteristic) -> int:
    """m(lam - alpha - beta) for adjacent simple roots with coefficients c, d > 0."""
    if c <= 0 or d <= 0:
        raise ValueError("both coefficients must be positive")
    p = chi.p
    if p == 0:
        return 2
    if length_case == "equal":
        return 1 if c + d == p - 1 else 2
    if length_case == "double":
        return 1 if (2 * c + d + 2) % p == 0 else 2
    if length_case == "triple":
        return 1 if (3 * c + d + 3) % p == 0 else 2
    raise ValueError(f"unknown length case {length_case!r}")


def mult_rule_s816(a: int, b: int, i: int, j: int, chi: Characteristic) -> int:
    """m(lam - (alpha_r + ... + alpha_s)) for lam = a lam_i + b lam_j on A_n."""
    if not (i < j and a > 0 and b > 0):
        raise ValueError("need i < j and a, b > 0")
    if chi.p and (a + b + j - i) % chi.p == 0:
        return j - i
    return j - i + 1


def mult_rule_bwt(n: int, chi: Characteristic) -> int:
    """m(lam_n) in L(lam_1 + lam_n) on B_n, p != 2."""
    if chi.p == 2:
        raise ValueError("rule not available at p = 2")
    if chi.p and (2 * n + 1) % chi.p == 0:
        return n - 1
    return n


def _is_p_restricted(lam, chi: Characteristic) -> bool:
    return chi.p == 0 or all(c < chi.p for c in lam)


IRR_DIM_CACHE_SIZE = 4096


def irr_dim_with_rule(rs: RootSystem, lam, chi: Characteristic):
    """(dim L(lam) or None, rule name).  lam must be p-restricted."""
    lam = _require_dominant(rs.check_weight(lam))
    if not _is_p_restricted(lam, chi):
        raise ValueError(f"{lam} is not {chi.p}-restricted")
    return _irr_dim_cached(rs.lie_type, lam, chi.p)


@functools.lru_cache(maxsize=IRR_DIM_CACHE_SIZE)
def _irr_dim_cached(t: LieType, lam, p):
    n = t.rank
    fam = t.family
    if all(c == 0 for c in lam):
        return 1, "trivial"
    if p == 0:
        return weyl_dim(build_root_system(t), lam), "weyl-char-0"

    support = [(i + 1, c) for i, c in enumerate(lam) if c]

    def is_fund(k):
        return support == [(k, 1)]

    # single-orbit (minimal weight) modules: dimension is characteristic-free
    if fam == "A" and len(support) == 1 and support[0][1] == 1:
        k = support[0][0]
        return math.comb(n + 1, k), "minimal"
    if fam == "B" and is_fund(n):
        if p == 2:
            return None, "unknown"
        return 1 << n, "spin"
    if fam == "C" and is_fund(1):
        return 2 * n, "minimal"
    if fam == "D" and is_fund(1):
        return 2 * n, "minimal"
    if fam == "D" and (is_fund(n - 1) or is_fund(n)):
        return 1 << (n - 1), "spin"

    if fam == "A":
        if len(support) == 1 and support[0][0] in (1, n):
            a = support[0][1]
            return math.comb(n + a, a), "table"
        return None, "unknown"

    if fam == "B":
        if p == 2:
            return None, "unknown"
        if support == [(1, 2)]:
            return n * (2 * n + 3) - (1 if (2 * n + 1) % p == 0 else 0), "table"
        if is_fund(2):
            return 4 if n == 2 else n * (2 * n + 1), "table"
        if support == [(1, 1), (n, 1)]:
            if (2 * n + 1) % p == 0:
                return (1 << n) * (2 * n - 1), "table"
            return (1 << (n + 1)) * n, "table"
        return None, "unknown"

    if fam == "C":
        if support == [(1, 2)]:
            return 2 * n if p == 2 else n * (2 * n + 1), "table"
        if is_fund(2):
            return (n - 1) * (2 * n + 1) - (1 if n % p == 0 else 0), "table"
        if p > 2:
            a = (p - 3) // 2
            sz_support = [(n - 1, 1)] + ([(n, a)] if a else [])
            if support == sz_support:
                return (p**n - 1) // 2, "sz"
            if n >= 2 and support == [(n, (p - 1) // 2)]:
                return (p**n + 1) // 2, "sz"
        return None, "unknown"

    # D
    if support == [(1, 2)]:
        if p == 2:
            return 2 * n, "table"
        return (n + 1) * (2 * n - 1) - (1 if n % p == 0 else 0), "table"
    if is_fund(2) and n >= 4:
        if p == 2:
            return n * (2 * n - 1) - (2 if n % 2 == 0 else 1), "table"
        return n * (2 * n - 1), "table"
    if support in ([(n - 1, 2)], [(n, 2)]):
        if p == 2:
            return 1 << (n - 1), "table"
        return math.comb(2 * n, n) // 2, "table"
    if support in ([(1, 1), (n - 1, 1)], [(1, 1), (n, 1)]):
        if n % p == 0:
            return (1 << n) * (n - 1), "table"
        return (1 << (n - 1)) * (2 * n - 1), "table"
    return None, "unknown"


def irr_dim(rs: RootSystem, lam, chi: Characteristic):
    """Exact dim L(lam) when a closed form applies, else None ("unknown")."""
    return irr_dim_with_rule(rs, lam, chi)[0]


# ---------------------------------------------------------------------------
# the branching oracle


@functools.lru_cache(maxsize=4096)
def _product_character_cached(types, hw_parts):
    """Dominant part of a product Weyl character (dominant iff every factor part is)."""
    prod = {(): 1}
    for t, hw in zip(types, hw_parts):
        entries = freudenthal(build_root_system(t), hw).entries
        prod = {base + w: bm * m for base, bm in prod.items() for w, m in entries.items()}
    return prod


def weyl_character_subtract(rs_list, weight_multiset):
    """Express a W-invariant multiset as a sum of product Weyl characters.

    ``rs_list`` gives the factors of the product root system; keys of
    ``weight_multiset`` are flat tuples holding the concatenated factor
    coordinates, optionally followed by extra coordinates (central charges)
    that are carried through unchanged.  Only the dominant keys (every factor
    coordinate >= 0) are read: a W-invariant multiset is fixed by its
    dominant part, which is decomposed against the dominant parts of the
    product characters.  Returns {highest weight: multiplicity}.
    Raises ValueError when the input is not a genuine character.
    """
    rs_list = tuple(rs_list)
    offs = [sum(rs.rank for rs in rs_list[:i]) for i in range(len(rs_list) + 1)]
    rank = offs[-1]
    types = tuple(rs.lie_type for rs in rs_list)
    # <lambda_i, 2 rho-coroot> per coordinate: positive on every positive root
    hvec = [sum(col) for rs in rs_list for col in zip(*rs.coroots)]

    remaining = {}
    for w, m in weight_multiset.items():
        if m < 0:
            raise ValueError(f"negative input multiplicity at {w}")
        w = tuple(w)
        if m and all(c >= 0 for c in w[:rank]):
            remaining[w] = int(m)

    # a product character with highest weight k meets no other key of equal
    # or greater height, so one pass from the highest key down suffices
    out = {}
    for key in sorted(remaining, key=lambda k: (sum(h * c for h, c in zip(hvec, k)), k), reverse=True):
        mult = remaining[key]
        if not mult:
            continue
        parts = tuple(key[a:b] for a, b in zip(offs, offs[1:]))
        for w, c in _product_character_cached(types, parts).items():
            full = w + key[rank:]
            have = remaining.get(full, 0) - mult * c
            if have < 0:
                raise ValueError(f"subtraction drives multiplicity negative at {full}")
            remaining[full] = have
        out[key] = mult
    return out


def product_weyl_dims(rs_list, rows):
    """Per row of a block of flat concatenated weights, the product of its
    factor Weyl dimensions: one ``weyl_dims`` call per factor."""
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    dims = [1] * len(rows)
    off = 0
    for rs in rs_list:
        dims = [a * b for a, b in zip(dims, weyl_dims(rs, rows[:, off:off + rs.rank]))]
        off += rs.rank
    return dims
