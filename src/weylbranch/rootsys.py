"""Exact root-system data and weight-lattice arithmetic for types A/B/C/D.

All data is in Bourbaki labelling.  Weights are plain tuples of ints giving
coefficients in the fundamental-weight basis; root coordinates give
coefficients in the simple roots.  Conversions and coroot pairings run in
integers: the inverse Cartan matrix is stored scaled by its common
denominator, and the bilinear form scaled to integers.  Every operation is
exact: no floats anywhere.

Everything is built from one epsilon model per (family, rank)
(``epsilon_model``; Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IV):
integer rows over Z^d of the simple roots, their coroots 2 alpha/(alpha,
alpha), and the doubled fundamental weights 2 omega_i.  d is the rank, or
rank + 1 for A_n, whose rows keep their trace.  In these coordinates the
simple roots are e_i - e_{i+1}, closed by e_n (B), 2 e_n (C) or
e_{n-1} + e_n (D); the positive roots are e_i - e_j (A), e_i +- e_j with
e_i (B), 2 e_i (C) or nothing more (D).  The Cartan, inverse Cartan and
Gram matrices and the per-root table follow in integers from the pairings
of these rows, which are prefix sums (with the doubled fundamental
weights) and neighbour differences (with the simple coroots), so no int64
matrix product is taken: numpy runs those without BLAS, and at A150 they
would take most of the constructor's time.  The model also covers A1, B1,
C1 and D2, which embedding factors use.

Root lengths are normalized so that short roots have squared length 1
(A/D: all roots length 1; B_n: alpha_n short; C_n: alpha_n long), that is
the squared epsilon length divided by the shortest simple root's.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

# positive roots x rank entries of the largest root system built; the same
# bound as a dominant table's (``kernels.DEFAULT_MAXDOM``)
MAX_ROOT_ENTRIES = 2_000_000


@dataclass(frozen=True, order=True)
class LieType:
    """A classical type label: family in {A,B,C,D} and positive rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        # an integer only (a numpy integer is stored as an int): A2.0 would
        # hash equal to A2 and be handed its cached root system
        if type(self.rank) is not int:
            if isinstance(self.rank, bool) or not isinstance(self.rank, numbers.Integral):
                raise ValueError(f"rank must be an integer, got {self.rank!r}")
            object.__setattr__(self, "rank", int(self.rank))
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"rank {self.rank} too small for {self.family} "
                f"(need >= {_MIN_RANK[self.family]})"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


class EpsilonModel(NamedTuple):
    """One type in epsilon-coordinates: rank x d integer rows, read-only."""

    roots: np.ndarray  # the simple roots alpha_i
    coroots: np.ndarray  # 2 alpha_i / (alpha_i, alpha_i)
    weights: np.ndarray  # the doubled fundamental weights 2 omega_i


def epsilon_width(family: str, rank: int) -> int:
    """The number d of epsilon-coordinates of family_rank: rank + 1 for A, else rank."""
    return rank + 1 if family == "A" else rank


def epsilon_model(family: str, rank: int) -> EpsilonModel:
    """The epsilon model of family_rank, for rank >= 1 (rank >= 2 for D)."""
    if family not in FAMILIES or rank < (2 if family == "D" else 1):
        raise ValueError(f"no epsilon model for {family}{rank}")
    d = epsilon_width(family, rank)
    eye = np.eye(d, dtype=np.int64)
    roots = eye[:-1] - eye[1:]
    weights = 2 * np.tri(rank, d, dtype=np.int64)
    if family == "B":
        roots = np.vstack([roots, eye[-1]])
        weights[-1] = 1
    elif family == "C":
        roots = np.vstack([roots, 2 * eye[-1]])
    elif family == "D":
        roots = np.vstack([roots, eye[-2] + eye[-1]])
        weights[-2:] = 1
        weights[-2, -1] = -1
    coroots = 2 * roots // (roots * roots).sum(axis=1)[:, None]
    return EpsilonModel(*map(_frozen, (roots, coroots, weights)))


def _positive_epsilon_roots(family: str, d: int):
    """The positive roots over Z^d in closed form, as the rows of one array."""
    eye = np.eye(d, dtype=np.int64)
    i, j = np.triu_indices(d, 1)
    rows = [eye[i] - eye[j]]
    if family != "A":
        rows.append(eye[i] + eye[j])
    if family in ("B", "C"):
        rows.append(eye if family == "B" else 2 * eye)
    return np.vstack(rows)


def _coroot_pairings(family: str, rows):
    """``rows @ epsilon_model(family, n).coroots.T`` for rows over Z^d, with
    no matrix product: e_i - e_{i+1} pairs as a difference of neighbours, and
    the last coroot of B, C and D as 2 x_n, x_n or x_{n-1} + x_n."""
    diffs = rows[:, :-1] - rows[:, 1:]
    if family == "A":
        return diffs
    last = rows[:, -2] + rows[:, -1] if family == "D" else rows[:, -1] * (2 if family == "B" else 1)
    return np.column_stack((diffs, last))


def _weight_pairings(family: str, rank: int, rows):
    """``rows @ epsilon_model(family, rank).weights.T`` for rows over Z^d,
    with no matrix product: 2 omega_i is twice the first i units, so it
    pairs as a doubled prefix sum, except the spin rows, all units (B, and
    the last row of D) or all units with the last negated (row n - 1 of D)."""
    sums = np.cumsum(rows, axis=1)[:, :rank]
    out = 2 * sums
    if family == "B":
        out[:, -1] = sums[:, -1]
    elif family == "D":
        out[:, -2] = sums[:, -1] - 2 * rows[:, -1]
        out[:, -1] = sums[:, -1]
    return out


def _denominator(num, den):
    """The least m with m * num / den integral in every entry."""
    return int(np.lcm.reduce((den // np.gcd(num, den)).ravel()))


def cartan_support(cartan):
    """Per row j, the (i, cartan[j][i]) pairs with a non-zero entry."""
    return tuple(tuple((i, a) for i, a in enumerate(row) if a) for row in cartan)


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
    ``epsilon`` is the type's epsilon model, from which all of it is built.
    The per-root table ``root_weights``, ``root_norms``, ``coroots`` (rows in
    ``positive_roots`` order), its blocks ``form_block`` and ``coroot_block``
    (one column per root) and ``root_index`` (root -> row) is the one source
    of per-positive-root data.

    Instances are immutable; obtain them through :func:`build_root_system`,
    which caches per type.
    """

    def __init__(self, lie_type: LieType):
        fam, n = lie_type.family, lie_type.rank
        entries = n * {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[fam]
        if entries > MAX_ROOT_ENTRIES:
            raise ValueError(
                f"{lie_type} has {entries} positive-root coordinates, more than {MAX_ROOT_ENTRIES}"
            )
        self.lie_type = lie_type
        self.rank = n
        self.epsilon = model = epsilon_model(fam, n)
        simple, doubled = model.roots, model.weights
        # squared epsilon lengths of the simple roots; the shortest is 1 in
        # the normalized form
        lengths = (simple * simple).sum(axis=1)
        unit = int(lengths.min())
        # cartan[i][j] = <alpha_i, alpha_j-coroot>, and a numpy mirror for the
        # orbit kernel
        self.cartan_np = _frozen(_coroot_pairings(fam, simple))
        self.cartan = tuple(map(tuple, self.cartan_np.tolist()))
        self.root_lengths = tuple((lengths // unit).tolist())
        self.rho = (1,) * n
        self.eG = max(self.root_lengths)
        # root coordinates c_j = 2 (beta, omega_j) / (alpha_j, alpha_j), in
        # order of height, then of coordinates; ``roots`` keeps the epsilon
        # rows in the same order
        roots = _positive_epsilon_roots(fam, simple.shape[1])
        coords, rem = np.divmod(_weight_pairings(fam, n, roots), lengths)
        if rem.any():
            raise ArithmeticError(f"a positive root of {lie_type} has a non-integral root coordinate")
        order = np.lexsort((*coords.T[::-1], coords.sum(axis=1)))
        coords, roots = coords[order], roots[order]
        self.positive_roots = tuple(map(tuple, coords.tolist()))

        # the epsilon Gram matrix of the doubled fundamental weights, for A_n
        # times m = n + 1 with the trace term removed (m = 1 otherwise):
        # (omega_i, omega_k) is gram[i][k] / (4 m) in epsilon units
        gram = _weight_pairings(fam, n, doubled)
        m = 1
        if fam == "A":
            m = n + 1
            traces = doubled.sum(axis=1)
            gram = m * gram - np.outer(traces, traces)
        # the inverse Cartan matrix is 2 (omega_i, omega_k) / (alpha_k, alpha_k),
        # integral times inv_den: n+1 for A_n, 2 for B/C, and 2 or 4 for D
        den = 2 * m * lengths
        self.inv_den = _denominator(gram, den)
        self.inv_cartan_scaled = tuple(map(tuple, (gram * self.inv_den // den).tolist()))
        # inv_den times the heights of the fundamental weights, of the highest
        # of 0 and the minimal weights and of the highest root: exact integers
        # for ``kernels.dominant_floor``
        self.weight_heights = tuple(map(sum, self.inv_cartan_scaled))
        low = max([0] + [self.weight_heights[mu.index(1)] for mu in minimal_weights(lie_type)])
        self.floor_heights = (low, self.inv_den * sum(self.positive_roots[-1]))

        # Scaled integer bilinear form on the weight lattice, in the
        # normalized lengths: gram_block[i][j] = scale * (lambda_i, lambda_j)
        # and slen2[i] = scale * len_i / 2
        form_den = 4 * m * unit
        scale = math.lcm(_denominator(gram, form_den), _denominator(lengths, 2 * unit))
        self.form_scale = scale
        self.gram_block = _frozen(gram * scale // form_den)
        self.slen2 = tuple((lengths * scale // (2 * unit)).tolist())

        self.cartan_support = cartan_support(self.cartan)

        # One row per positive root beta, in ``positive_roots`` order:
        # root_weights beta in weight coordinates, forms the row
        # form_scale * (lambda_i, beta) = beta_i * slen2[i], root_norms
        # form_scale * (beta, beta), and coroots the row <lambda_i, beta-coroot>.
        weights = _coroot_pairings(fam, roots)
        slen2 = np.array(self.slen2, dtype=np.int64)
        forms = coords * slen2
        norms = (weights * forms).sum(axis=1)
        coroots, rem = np.divmod(2 * forms, norms[:, None])
        if rem.any():
            raise ArithmeticError(f"a coroot of {lie_type} pairs non-integrally with a fundamental weight")
        self.root_weights = tuple(map(tuple, weights.tolist()))
        self.root_norms = tuple(norms.tolist())
        # where every root has one length (A, D), beta-coroot has beta's
        # coordinates, and the rows are shared
        same = np.array_equal(coroots, coords)
        self.coroots = self.positive_roots if same else tuple(map(tuple, coroots.tolist()))
        columns = _frozen(coords.T)
        # the root weights as rows, for the array steps of
        # ``kernels.dominant_table``; the coroot of the highest short root
        # has the largest coefficients of all, so it gives a dominant
        # weight's largest coroot pairing
        self.root_weight_block = _frozen(weights)
        heights = coroots.sum(axis=1)
        self.highest_coroot = self.coroots[int(heights.argmax())]
        # the same pairings as a rank x roots block, with each root's
        # <rho, beta-coroot> and their product, for ``charcalc.weyl_dims``
        self.coroot_block = columns if same else _frozen(coroots.T)
        self.coroot_heights = tuple(heights.tolist())
        self.weyl_denominator = math.prod(self.coroot_heights)
        # the forms as a rank x roots block, for the pairings of a whole
        # table in ``kernels.freudenthal_table``
        self.form_block = _frozen(columns * slen2[:, None])
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
