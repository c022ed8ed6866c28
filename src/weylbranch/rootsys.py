"""Exact root-system data and weight-lattice arithmetic for types A/B/C/D.

All data is in Bourbaki labelling.  Weights are plain tuples of ints giving
coefficients in the fundamental-weight basis; root coordinates give
coefficients in the simple roots.  Conversions and coroot pairings run in
integers: the inverse Cartan matrix is stored scaled by its common
denominator, and the bilinear form scaled to integers.  Every operation is
exact: no floats anywhere.

Root lengths are normalized so that short roots have squared length 1
(A/D: all roots length 1; B_n: alpha_n short; C_n: alpha_n long).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True, order=True)
class LieType:
    """A classical type label: family in {A,B,C,D} and positive rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"rank {self.rank} too small for {self.family} "
                f"(need >= {_MIN_RANK[self.family]})"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


def _cartan_matrix(t: LieType):
    """cartan[i][j] = <alpha_i, alpha_j> = 2(alpha_i,alpha_j)/(alpha_j,alpha_j)."""
    n = t.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    if t.family == "A":
        nbonds = n - 1
    elif t.family == "D":
        nbonds = n - 3
    else:
        nbonds = n - 2
    for i in range(nbonds):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if t.family == "A":
        pass
    elif t.family == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n> = -2, <alpha_n, alpha_{n-1}> = -1
        if n >= 2:
            a[n - 2][n - 1] = -2
            a[n - 1][n - 2] = -1
    elif t.family == "C":
        # alpha_n long: <alpha_{n-1}, alpha_n> = -1, <alpha_n, alpha_{n-1}> = -2
        if n >= 2:
            a[n - 2][n - 1] = -1
            a[n - 1][n - 2] = -2
    elif t.family == "D":
        a[n - 3][n - 2] = -1
        a[n - 2][n - 3] = -1
        a[n - 3][n - 1] = -1
        a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


def cartan_support(cartan):
    """Per row j, the (i, cartan[j][i]) pairs with a non-zero entry."""
    return tuple(tuple((i, a) for i, a in enumerate(row) if a) for row in cartan)


def _root_lengths(t: LieType):
    """Squared lengths of the simple roots, short root = 1."""
    n = t.rank
    if t.family in ("A", "D"):
        return (1,) * n
    if t.family == "B":
        return (2,) * (n - 1) + (1,)
    return (1,) * (n - 1) + (2,)  # C


def _positive_roots(cartan):
    """All positive roots in root coordinates, via reflection closure."""
    n = len(cartan)
    seen = set()
    frontier = []
    for i in range(n):
        r = tuple(1 if j == i else 0 for j in range(n))
        seen.add(r)
        frontier.append(r)
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(n):
                # <r, alpha_j> = sum_i r_i * cartan[i][j]
                pr = sum(r[i] * cartan[i][j] for i in range(n))
                s = tuple(r[i] - (pr if i == j else 0) for i in range(n))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    pos = [r for r in seen if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return tuple(pos)


def _invert_fraction_matrix(mat):
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _frozen(block):
    """A read-only contiguous copy of an int64 block shared through the root system."""
    out = np.ascontiguousarray(block)
    out.flags.writeable = False
    return out


class RootSystem:
    """Root-system data for one classical type.

    Attributes follow the obvious meanings: ``cartan`` with
    cartan[i][j] = <alpha_i, alpha_j>, ``root_lengths`` the squared simple-root
    lengths (short = 1), ``positive_roots`` in integer root coordinates,
    ``rho`` the half-sum of positive roots in weight coordinates (all ones),
    and ``eG`` the maximal squared length ratio (1 for A/D, 2 for B/C).
    The per-root table ``root_weights``, ``root_norms``, ``coroots`` (rows in
    ``positive_roots`` order), its blocks ``form_block`` and ``coroot_block``
    (one column per root) and ``root_index`` (root -> row) is the one source
    of per-positive-root data.

    Instances are immutable; obtain them through :func:`build_root_system`,
    which caches per type.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        self.rank = n
        self.cartan = _cartan_matrix(lie_type)
        self.root_lengths = _root_lengths(lie_type)
        self.positive_roots = _positive_roots(self.cartan)
        self.rho = (1,) * n
        self.eG = 1 if lie_type.family in ("A", "D") else 2
        self.inverse_cartan = _invert_fraction_matrix(self.cartan)
        # inv_den * inverse_cartan is integral: inv_den is n+1 for A_n, 2 for
        # B/C, and 2 or 4 for D
        self.inv_den = math.lcm(*(x.denominator for row in self.inverse_cartan for x in row))
        self.inv_cartan_scaled = tuple(
            tuple(int(x * self.inv_den) for x in row) for row in self.inverse_cartan
        )
        # inv_den times the heights of the fundamental weights, of the highest
        # of 0 and the minimal weights and of the highest root: exact integers
        # for ``kernels.dominant_floor``
        self.weight_heights = tuple(map(sum, self.inv_cartan_scaled))
        low = max([0] + [self.weight_heights[m.index(1)] for m in minimal_weights(lie_type)])
        self.floor_heights = (low, self.inv_den * max(map(sum, self.positive_roots)))

        # Scaled integer bilinear form on the weight lattice:
        # gram_block[i][j] = scale * (lambda_i, lambda_j), slen2[i] = scale * len_i / 2,
        # where (lambda_i, lambda_j) = invcartan[i][j] * len_j / 2.
        gram_frac = [
            [self.inverse_cartan[i][j] * Fraction(self.root_lengths[j], 2) for j in range(n)]
            for i in range(n)
        ]
        denoms = {x.denominator for row in gram_frac for x in row}
        denoms |= {Fraction(l, 2).denominator for l in self.root_lengths}
        scale = math.lcm(*denoms)
        self.form_scale = scale
        self.gram_block = _frozen(np.array([[int(x * scale) for x in row] for row in gram_frac], dtype=np.int64))
        self.slen2 = tuple(int(Fraction(l, 2) * scale) for l in self.root_lengths)

        self.cartan_support = cartan_support(self.cartan)
        # numpy mirror for the orbit kernel
        self.cartan_np = np.array(self.cartan, dtype=np.int64)

        # One row per positive root beta, in ``positive_roots`` order:
        # root_weights beta in weight coordinates, forms the row
        # form_scale * (lambda_i, beta) = beta_i * slen2[i], root_norms
        # form_scale * (beta, beta), and coroots the row <lambda_i, beta-coroot>.
        betas = np.array(self.positive_roots, dtype=np.int64)
        weights = betas @ self.cartan_np
        forms = betas * np.array(self.slen2, dtype=np.int64)
        norms = (weights * forms).sum(axis=1)
        coroots, rem = np.divmod(2 * forms, norms[:, None])
        if rem.any():
            raise ArithmeticError(f"a coroot of {lie_type} pairs non-integrally with a fundamental weight")
        self.root_weights = tuple(map(tuple, weights.tolist()))
        self.root_norms = tuple(norms.tolist())
        self.coroots = tuple(map(tuple, coroots.tolist()))
        # the root weights as rows, for the array steps of
        # ``kernels.dominant_table``; the coroot of the highest short root
        # has the largest coefficients of all, so it gives a dominant
        # weight's largest coroot pairing
        self.root_weight_block = _frozen(weights)
        self.highest_coroot = max(self.coroots, key=sum)
        # the same pairings as a rank x roots block, with each root's
        # <rho, beta-coroot> and their product, for ``charcalc.weyl_dims``
        self.coroot_block = _frozen(coroots.T)
        self.coroot_heights = tuple(coroots.sum(axis=1).tolist())
        self.weyl_denominator = math.prod(self.coroot_heights)
        # the forms as a rank x roots block, for the pairings of a whole
        # table in ``kernels.freudenthal_table``
        self.form_block = _frozen(forms.T)
        self.root_index = {beta: k for k, beta in enumerate(self.positive_roots)}

    def __repr__(self):
        return f"RootSystem({self.lie_type})"

    def check_weight(self, w):
        """w as a tuple of ints; a wrong length or a non-integral coordinate raises."""
        if len(w) != self.rank:
            raise ValueError(f"weight {w} has wrong length for {self.lie_type}")
        out = tuple(int(c) for c in w)
        if out != tuple(w):
            raise ValueError(f"weight {w} has a non-integral coordinate")
        return out

    def weyl_order(self) -> int:
        return weyl_group_order(self.lie_type)


def weyl_group_order(t: LieType) -> int:
    n = t.rank
    if t.family == "A":
        return math.factorial(n + 1)
    if t.family in ("B", "C"):
        return (1 << n) * math.factorial(n)
    return (1 << (n - 1)) * math.factorial(n)


@functools.lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """Build (and cache) the full root-system data for a valid type."""
    return RootSystem(t)


def _root_position(rs: RootSystem, alpha_rc):
    """(sign, k) with alpha = sign * positive_roots[k], or None for a non-root."""
    if all(x == int(x) for x in alpha_rc):
        for sign in (1, -1):
            k = rs.root_index.get(tuple(sign * int(x) for x in alpha_rc))
            if k is not None:
                return sign, k
    return None


def pairing(rs: RootSystem, w, alpha_rc) -> int:
    """<w, alpha-coroot>, exactly; alpha must be a root."""
    found = _root_position(rs, alpha_rc)
    if found is None:
        raise ValueError(f"{alpha_rc} is not a root of {rs.lie_type}")
    sign, k = found
    w = rs.check_weight(w)
    return sign * sum(c * x for c, x in zip(rs.coroots[k], w))


def scaled_root_coords(rs: RootSystem, w):
    """``rs.inv_den`` times the root coordinates of the weight w, as ints."""
    inv = rs.inv_cartan_scaled
    n = rs.rank
    return tuple(sum(w[i] * inv[i][j] for i in range(n) if w[i]) for j in range(n))


def connected_components(rs: RootSystem, nodes):
    """Connected components of a set of 0-based Dynkin nodes, each sorted."""
    left = set(nodes)
    comps = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in left:
                if y not in comp and rs.cartan[x][y] != 0:
                    comp.add(y)
                    stack.append(y)
        left -= comp
        comps.append(sorted(comp))
    return comps


def subdiagram_type(rs: RootSystem, nodes) -> LieType:
    """Lie type of one connected subset of 0-based Dynkin nodes."""
    fam = rs.lie_type.family
    n = rs.rank
    k = len(nodes)
    nodeset = set(nodes)
    if fam in ("B", "C") and (n - 1) in nodeset:
        return LieType(fam, k) if k >= 2 else LieType("A", 1)
    if fam == "D" and (n - 2) in nodeset and (n - 1) in nodeset:
        # connected with both fork nodes forces the branch node too
        if k < 3:
            raise ValueError("disconnected fork nodes")
        return LieType("D", k)
    return LieType("A", k)


def parabolic_index(rs: RootSystem, nodes):
    """(|W : W_J|, the sorted component types of W_J) for the standard
    parabolic subgroup W_J on a set J of 0-based Dynkin nodes.

    With J the zero nodes of a dominant weight, W_J is its stabilizer and the
    index is the size of its Weyl orbit.
    """
    types = tuple(sorted(subdiagram_type(rs, c) for c in connected_components(rs, nodes)))
    order = math.prod(weyl_group_order(t) for t in types)
    total = rs.weyl_order()
    if total % order:
        raise ArithmeticError(f"parabolic order {order} does not divide |W| = {total}")
    return total // order, types


def minimal_weights(t: LieType):
    """The non-zero minimal dominant weights of the given type."""
    n = t.rank

    def lam(i):
        return tuple(1 if j == i - 1 else 0 for j in range(n))

    if t.family == "A":
        return {lam(i) for i in range(1, n + 1)}
    if t.family == "B":
        return {lam(n)}
    if t.family == "C":
        return {lam(1)}
    return {lam(1), lam(n - 1), lam(n)}
