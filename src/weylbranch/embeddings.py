"""Restriction maps onto the disconnected geometric subgroup families.

Every family is built from one model of the natural module W of the ambient
group G.  The subgroup H is the stabilizer of a structure on W: W = W1 + W2
orthogonal (c1), W1 + ... + Wt (c2), U + U* (c3), W1 x W2 (x ...) as a tensor
product (c4), or a classical form (c6).  A family states two things:

* the epsilon-assignment: where each ambient epsilon-weight of W goes.  That
  is a signed epsilon-index of one factor of H, one such index per tensor
  factor (c4), nothing (the paired zero weights of c2 B_l^t), and/or a charge
  on the central torus;
* the component-group generators, each a signed permutation of the restricted
  coordinates: block swaps of equal factors, diagram flips of A and D
  factors, and permutations and sign changes of the charges.  A generator is
  an (index tuple, sign tuple) pair (idx, sgn) acting by
  w -> (sgn[i] * w[idx[i]])_i.

``_embed`` alone turns an assignment into the integer restriction matrix R.
The epsilon model of ``rootsys`` gives the doubled epsilon-rows of the ambient
fundamental weights; pushed through the assignment they give doubled factor
epsilon-coordinates, whose pairings with each factor's simple coroots, and
the charges, halved, are the rows of R.

Conventions:

* factor lists are *materialized*: a D2 factor appears as two A1 factors
  (its natural module is the tensor square), B1/C1 factors appear as A1,
  and rank-one "D1" parts are carried as central-torus charges;
* torus charges are scaled integers (scale recorded per embedding) so that
  the whole matrix stays over the integers;
* simple-root images are stored per ambient simple root and are required to
  agree with the matrix image of the Cartan row.

``instance_params`` is the one statement of which instances exist;
``build_embedding`` builds exactly those and caches its result per (ambient,
family), so instances are shared; their restriction matrix is read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
from .rootsys import LieType, _frozen, build_root_system, epsilon_model, epsilon_width, scaled_root_coords

A1 = LieType("A", 1)

FAMILY_TAGS = ("c1", "c2", "c3", "c4i", "c4ii", "c6")

# distinct (ambient, family) pairs kept by build_embedding; the instances up
# to rank 12 number 232
EMBEDDING_CACHE_SIZE = 1024


@dataclass(frozen=True)
class GeomFamily:
    """A geometric-subgroup descriptor: collection tag plus integer parameters."""

    tag: str
    params: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")

    def get(self, name, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default

    def __str__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.tag}:{inner}" if inner else self.tag


def geom_family(tag, **params):
    canon = tuple(sorted(params.items()))
    return GeomFamily(tag, canon)


# compared and hashed by identity: build_embedding makes and caches every
# instance, and the dataclass equality would compare the restriction array
@dataclass(eq=False)
class Embedding:
    ambient: LieType
    family: GeomFamily
    factors: tuple  # materialized LieTypes
    factor_groups: tuple  # original factor -> tuple of materialized indices
    torus_rank: int
    restriction: np.ndarray  # n x (sum of factor ranks + torus_rank), read-only
    simple_root_images: tuple
    charge_scale: int
    generators: tuple  # component group: (index tuple, sign tuple) pairs
    existence: str = "any"  # p-condition for H to exist and be maximal
    central2: bool = False  # central 2^{t-1} elementary abelian part present

    def __post_init__(self):
        self.factor_ranks = tuple(t.rank for t in self.factors)
        offs = []
        off = 0
        for r in self.factor_ranks:
            offs.append(off)
            off += r
        self.factor_offsets = tuple(offs)
        self.semisimple_rank = off
        self.width = off + self.torus_rank
        self.root_system = build_root_system(self.ambient)
        self.factor_systems = tuple(build_root_system(t) for t in self.factors)
        # each generator as one lookup (w, -w) -> (g w, -g w), returning a
        # tuple at every width; see ``component_orbit_set``
        getters = []
        for idx, sgn in self.generators:
            n = len(idx)
            pos = [i if s > 0 else i + n for i, s in zip(idx, sgn)]
            getters.append(operator.itemgetter(*pos, *[(i + n) % (2 * n) for i in pos]))
        self.doubled_getters = tuple(getters)

    def split(self, hw):
        parts = []
        for off, r in zip(self.factor_offsets, self.factor_ranks):
            parts.append(tuple(hw[off:off + r]))
        return tuple(parts), tuple(hw[self.semisimple_rank:])


def restrict_weight(e: Embedding, w):
    """Linear image of an ambient weight; factor coords then torus charges.

    Computed over Python ints, so it is exact for weights of any size.
    """
    w = e.root_system.check_weight(w)
    return tuple(np.array(w, dtype=object) @ e.restriction)


def component_orbit_set(e: Embedding, hw):
    """The orbit of hw under the component group, as a sorted list.

    A breadth-first search over doubled weights (w, -w), in which a sign
    change is an index shift: each generator is one ``itemgetter`` lookup
    per element, from ``e.doubled_getters``.  This is the walk for one
    weight (``checker.clifford_prediction``: an entry, ``branch_p0``, and a
    scan's torus or h-route survivor that needs a branching): on the small
    orbits of ``scan_p0``'s weights it takes 2-7 us, where
    ``component_orbits``, the whole group applied to a block of weights,
    takes 25-35 us, since each of its array steps has a fixed cost.
    """
    getters = e.doubled_getters
    n = len(hw)
    seen = frontier = {tuple(hw) + tuple(-c for c in hw)}
    while frontier:
        frontier = {g(w) for w in frontier for g in getters} - seen
        seen |= frontier
    return sorted(w[:n] for w in seen)


# rows that one block of a scan may make (a chunk of ``component_orbits``,
# of the h route's tested weights or of the torus pairings), unless it holds
# one candidate alone: so also a bound on the rows one step of its screen reads
ORBIT_CHUNK_ROWS = 1 << 13

# the largest component group applied whole.  Up to rank 12 the groups
# applied whole have order 2 to 192; the maximal-torus normalizers and the
# wreath products of order 720 or more are decided by ``checker`` with no
# orbit walked
WHOLE_GROUP_ORDER = 512
COMPONENT_GROUP_CACHE_SIZE = 256


@functools.lru_cache(maxsize=COMPONENT_GROUP_CACHE_SIZE)
def component_group(e: Embedding):
    """Every element of the component group as (index rows, sign rows),
    |A| x width each, acting as a generator does: w -> (sgn[i] * w[idx[i]])_i.

    The closure of the generators, found at the first walk of the embedding
    by the search of ``component_orbit_set`` run on the signed points: an
    element is the doubled tuple of the images of e_1 .. e_width and their
    negatives (point width + i is -e_i), and a doubled getter applied to it
    composes the generator after it.  A group past WHOLE_GROUP_ORDER
    elements raises ``KernelCapacityError``.
    """
    n = e.width
    seen = frontier = {tuple(range(2 * n))}
    while frontier:
        frontier = {g(a) for a in frontier for g in e.doubled_getters} - seen
        seen |= frontier
        if len(seen) > WHOLE_GROUP_ORDER:
            raise kernels.KernelCapacityError(
                f"component group of {e.family} on {e.ambient}: more than {WHOLE_GROUP_ORDER} elements"
            )
    points = np.array(sorted(a[:n] for a in seen), dtype=np.intp).reshape(-1, n)
    return _frozen(points % n), _frozen(np.where(points < n, 1, -1))


def component_orbits(e: Embedding, rows):
    """The component orbits of a block of restricted weights, chunk by chunk.

    ``rows`` holds the weights as int64 rows, every coordinate below 2**60
    in size, which keeps the keys exact.  Yields (orbit, sizes) per chunk of
    at most ORBIT_CHUNK_ROWS // |A| consecutive weights (one at least): one
    orbit size per weight, and the orbits one after another as int64 rows,
    each in the sorted order of ``component_orbit_set``.  Every element of
    ``component_group`` is applied to the chunk at once, and repeats are
    dropped by int64 keys of (weight, image).  The key of an image g w is
    linear in w, so one product of the chunk with every element's packing
    gives every key, and only the images that stay are made, in one
    index-and-sign step.  On one weight the search of
    ``component_orbit_set`` is faster.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, e.width)
    bound = int(np.abs(rows).max(initial=0))
    if bound >= 1 << 60:
        raise kernels.KernelCapacityError(f"component orbits({e.ambient}, {e.family}): coordinates exceed 2**60")
    idx, sgn = component_group(e)
    size = len(idx)
    step = max(ORBIT_CHUNK_ROWS // size, 1)
    keys = kernels._key_weights(e.width + 1, 2 * max(bound, step) + 1)
    # w @ packing[:, g] packs g w: coordinate idx[g, i] of w lands in place i
    packing = np.empty((e.width, size, keys.shape[1]), dtype=np.int64)
    packing[idx, np.arange(size)[:, None]] = sgn[:, :, None] * keys[1:]
    packing = packing.reshape(e.width, -1)
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        packed = (chunk @ packing).reshape(len(chunk) * size, -1)
        packed += np.repeat(np.arange(len(chunk)), size)[:, None] * keys[0]
        order = kernels._key_order(packed)
        weight, g = np.divmod(order[kernels._run_starts(packed[order])], size)
        yield chunk[weight[:, None], idx[g]] * sgn[g], np.bincount(weight, minlength=len(chunk))


class Wreath(NamedTuple):
    """A component group that permutes t equal blocks of coordinates in
    every way, and flips them by one diagram flip: any of them, an even
    number of them, or none."""

    blocks: np.ndarray  # t x b: the coordinates of each block, in order
    flip: tuple  # (index row, sign row) within a block: its flip; None where none
    even: bool  # only an even number of blocks is flipped at once
    order: int  # t! times the number of flip patterns

    def canonical(self, rows):
        """Per weight row, a key row that two weights share exactly when
        one group element takes one to the other: each block's packed key,
        under its flip the smaller of the two, sorted; where only even flips
        are allowed and no block is fixed by its flip, the parity of the
        blocks that the smaller key flips as well.  Raises
        ``KernelCapacityError`` where a block does not pack into one int64."""
        keys, flipped, fixed = self._block_keys(rows)
        keys = np.sort(keys, axis=1)
        if not self.even:
            return keys
        return np.column_stack((keys, np.where(fixed.any(axis=1), 2, flipped.sum(axis=1) % 2)))

    def orbit_sizes(self, rows):
        """Per weight row, its orbit size: the distinct arrangements of its
        blocks, up to flips, times the flip patterns of the blocks that a
        flip moves (half of them where only even flips are allowed and no
        block is fixed)."""
        keys, _, fixed = self._block_keys(rows)
        t = len(self.blocks)
        sizes = []
        for row, fix in zip(np.sort(keys, axis=1).tolist(), fixed.tolist()):
            size = math.factorial(t)
            for _, run in itertools.groupby(row):
                size //= math.factorial(len(list(run)))
            moved = t - sum(fix)  # every block is fixed where there is no flip
            sizes.append(size << (moved - (self.even and moved == t)))
        return np.array(sizes, dtype=np.int64)

    def _block_keys(self, rows):
        """(block keys, flipped, fixed), each weights x blocks: a block's
        key is the smaller of its own and its flip's, ``flipped`` where the
        flip's is smaller and ``fixed`` where they are equal."""
        blocks = rows[:, self.blocks]
        kw = kernels._key_weights(blocks.shape[2], 2 * int(np.abs(rows).max(initial=0)) + 1)
        if kw.shape[1] > 1:
            raise kernels.KernelCapacityError("wreath block keys: coordinates exceed one int64 key per block")
        keys = blocks @ kw[:, 0]
        if self.flip is None:
            return keys, np.zeros(keys.shape, dtype=bool), np.ones(keys.shape, dtype=bool)
        idx, sgn = self.flip
        flipped = (blocks[:, :, idx] * sgn) @ kw[:, 0]
        return np.minimum(keys, flipped), flipped < keys, flipped == keys


@functools.lru_cache(maxsize=COMPONENT_GROUP_CACHE_SIZE)
def wreath_shape(e: Embedding):
    """e's component group as a ``Wreath``, read off its generators, or None.

    The blocks are the original factors' coordinates, each followed by its
    own charge where there is one charge per factor.  Every generator must
    either exchange two blocks, coordinate by coordinate, or keep every
    block and apply one common flip to some of them; the exchanges must
    connect all t >= 2 blocks, so they generate S_t, and the flip patterns
    must each flip one block (all patterns) or each two (the even ones,
    S_t moving a pair of flips onto any other pair).
    """
    t = len(e.factor_groups)
    if t < 2 or e.torus_rank not in (0, t) or len({tuple(e.factors[m] for m in g) for g in e.factor_groups}) > 1:
        return None
    blocks = np.array([
        [c for m in grp for c in range(e.factor_offsets[m], e.factor_offsets[m] + e.factor_ranks[m])]
        + ([e.semisimple_rank + f] if e.torus_rank else [])
        for f, grp in enumerate(e.factor_groups)
    ], dtype=np.intp)
    block_of, place = np.empty(e.width, dtype=np.intp), np.empty(e.width, dtype=np.intp)
    block_of[blocks] = np.arange(t)[:, None]
    place[blocks] = np.arange(blocks.shape[1])
    same = (tuple(range(blocks.shape[1])), (1,) * blocks.shape[1])
    label, flips, weights = list(range(t)), set(), set()
    for idx, sgn in e.generators:
        src = np.array(idx)[blocks]  # per block position: the coordinate it reads
        sources = block_of[src]
        if (sources != sources[:, :1]).any():
            return None
        # per block: the positions it reads within its source, and their signs
        moves = [(tuple(p), tuple(s)) for p, s in zip(place[src].tolist(), np.array(sgn)[blocks].tolist())]
        moved = np.flatnonzero(sources[:, 0] != np.arange(t)).tolist()
        if moved:  # an exchange of two blocks, coordinate by coordinate
            if len(moved) != 2 or set(moves) != {same}:
                return None
            a, b = label[moved[0]], label[moved[1]]
            label = [a if x == b else x for x in label]
        else:
            flips |= set(moves) - {same}
            weights.add(sum(m != same for m in moves))
    weights.discard(0)
    if len(set(label)) > 1 or len(flips) > 1 or len(weights) > 1 or not weights <= {1, 2}:
        return None
    flip = tuple(np.array(a, dtype=np.intp) for a in flips.pop()) if flips else None
    even = weights == {2}
    return Wreath(_frozen(blocks), flip, even, math.factorial(t) << (t - even if weights else 0))


def central_multiplicity(e: Embedding, hw) -> int:
    """Composition-factor multiplicity forced by a central 2^{t-1} subgroup.

    For the direct-sum families with odd-dimensional summands the restriction
    of a spin-type weight appears 2^{floor((t-1)/2)} times; detected here by
    every factor carrying an odd spin coordinate.
    """
    if not e.central2:
        return 1
    parts, _ = e.split(hw)
    spin = all(p[-1] % 2 == 1 for p in parts)
    if not spin:
        return 1
    t = len(e.factors)
    return 1 << ((t - 1) // 2)


def ell_value(e: Embedding, mu_h, lambda_h, sigma):
    """The ell invariant: total root-coefficient sum of mu_h - sigma(lambda_h).

    sigma permutes the factors (tuple: i -> sigma[i]).  Returns
    (ell, per-coordinate components); errors when the correction fails the
    root-lattice test appropriate to the family.
    """
    parts_mu, _ = e.split(mu_h)
    parts_lam, _ = e.split(lambda_h)
    t = len(e.factors)
    if sorted(sigma) != list(range(t)):
        raise ValueError("sigma is not a permutation of the factors")
    permuted = [None] * t
    for i in range(t):
        permuted[sigma[i]] = parts_lam[i]
    l = max(e.factor_ranks) if e.factors else 0
    comps = [Fraction(0)] * l
    # with graph flips in play the D fork coordinates are only constrained in
    # pairs (the flip moves lambda by a half-integral multiple of b_{l-1}-b_l),
    # and the pair needs no test of its own: on an integral weight, integral
    # coordinates before the fork make the fork pair's sum integral
    pairable = e.family.tag == "c4ii" and all(f.family == "D" for f in e.factors)
    for f, rs in enumerate(e.factor_systems):
        d = rs.inv_den
        scaled = scaled_root_coords(rs, tuple(a - b for a, b in zip(parts_mu[f], permuted[f])))
        for j, c in enumerate(scaled):
            if pairable and j >= rs.rank - 2:
                continue
            if c % d:
                raise ValueError(
                    f"correction not in the root lattice of factor {f + 1} (coordinate {j + 1})"
                )
        for j, c in enumerate(scaled):
            comps[j] += Fraction(c, d)
    total = sum(comps, Fraction(0))
    if total.denominator == 1:
        total = int(total)
    return total, tuple(comps)


_P_RELATIONS = {"p!=": operator.ne, "p>=": operator.ge, "p=": operator.eq}
P_CONDITION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=P_CONDITION_CACHE_SIZE)
def p_condition_clauses(cond: str):
    """The (relation, k) clauses of a condition: 'any', or '&'-joined 'p!=k', 'p>=k', 'p=k'.

    Every clause is parsed, so a malformed one raises ValueError whatever p
    is; an error is not cached, so it is raised on every call.
    """
    cond = cond.strip()
    if cond in ("", "any"):
        return ()
    clauses = []
    for clause in cond.split("&"):
        clause = clause.strip()
        op = next((op for op in _P_RELATIONS if clause.startswith(op)), None)
        k = clause[len(op):].strip() if op else ""
        if not k.isdecimal():
            raise ValueError(f"unparseable p-condition {cond!r}")
        clauses.append((_P_RELATIONS[op], int(k)))
    return tuple(clauses)


def p_condition_ok(cond: str, p: int) -> bool:
    """Whether p satisfies every clause of a condition (see ``p_condition_clauses``)."""
    return all(rel(p, k) for rel, k in p_condition_clauses(cond))


def existence_ok(e: Embedding, p: int) -> bool:
    return p_condition_ok(e.existence, p)


# ---------------------------------------------------------------------------
# the natural-module model


def _factor_coords(kinds, doubled):
    """Factor fundamental coordinates, then charges, of rows of doubled
    epsilon-coordinates (each factor's block in turn, then the charges).

    Each factor's block pairs with its simple coroots, the charges pass
    through, and every value is halved.  D2 comes out as its two A1
    coordinates, B1 and C1 as one A1 coordinate.
    """
    pairs, start = [], 0
    for fam, r in kinds:
        coroots = epsilon_model(fam, r).coroots
        pairs.append(doubled[:, start:start + coroots.shape[1]] @ coroots.T)
        start += coroots.shape[1]
    out, odd = np.divmod(np.hstack(pairs + [doubled[:, start:]]), 2)
    if odd.any():
        raise AssertionError("natural-module model produced a non-integral weight")
    return out


def _materialize(kinds):
    """(materialized factors, original factor -> materialized indices)."""
    factors, groups = [], []
    for fam, r in kinds:
        k = len(factors)
        if fam == "D" and r == 2:
            factors += [A1, A1]
            groups.append((k, k + 1))
        else:
            factors.append(A1 if r == 1 else LieType(fam, r))
            groups.append((k,))
    return tuple(factors), tuple(groups)


def _offset(kinds, f):
    """First restricted coordinate of original factor f (the charges follow the last)."""
    return sum(r for _, r in kinds[:f])


def _flip(kinds, f):
    """The diagram flip of original factor f, as signed transpositions."""
    fam, r = kinds[f]
    o = _offset(kinds, f)
    if fam == "A":
        return [(o + i, o + r - 1 - i, 1) for i in range(r // 2)]
    if fam == "D":  # for D2 this swaps the two A1 factors
        return [(o + r - 2, o + r - 1, 1)]
    raise ValueError(f"factor {fam}{r} has no diagram flip")


def _swap(kinds, f, g):
    """Exchange of the equal original factors f and g, as signed transpositions."""
    if kinds[f] != kinds[g]:
        raise ValueError(f"factors {f + 1} and {g + 1} have different types")
    of, og = _offset(kinds, f), _offset(kinds, g)
    return [(of + i, og + i, 1) for i in range(kinds[f][1])]


def _charge_swap(kinds, c, d, sign=1):
    """Charges c and d exchanged and multiplied by sign; c == d changes one sign."""
    base = _offset(kinds, len(kinds))
    return [(base + c, base + d, sign)]


def _block_swaps(kinds, t, charged=False):
    """The adjacent transpositions generating S_t on t equal factors."""
    return [_swap(kinds, i, i + 1) + (_charge_swap(kinds, i, i + 1) if charged else []) for i in range(t - 1)]


def _embed(ambient, family, kinds, eps, gens, charges=None, charge_scale=1,
           existence="any", central2=False, simple_root_images=None):
    """The embedding of one family instance from its natural-module model.

    ``kinds`` lists the original factors as (family, rank).  ``eps[j]`` lists
    the (factor, epsilon-index, sign) terms of the j-th ambient epsilon-weight
    of W; ``charges[j]`` is charge_scale times its charge on each torus
    coordinate.  Each generator is a list of signed transpositions (i, j, s)
    of the restricted coordinates, meaning w'_i = s w_j and w'_j = s w_i
    (i == j changes one sign).  The moves of one generator must touch
    disjoint coordinates, which makes it an involution; otherwise the model
    is wrong, and ValueError is raised.
    """
    factors, groups = _materialize(kinds)
    edims = [epsilon_width(fam, r) for fam, r in kinds]
    eoffs = [sum(edims[:f]) for f in range(len(kinds) + 1)]  # the charges follow the last
    torus_rank = len(charges[0]) if charges else 0
    assignment = [[0] * (eoffs[-1] + torus_rank) for _ in eps]
    for j, terms in enumerate(eps):
        for f, i, s in terms:
            assignment[j][eoffs[f] + i] += s
        if torus_rank:
            assignment[j][eoffs[-1]:] = charges[j]
    rs = build_root_system(ambient)
    restriction = _factor_coords(kinds, rs.epsilon.weights @ np.array(assignment, dtype=np.int64))
    restriction.setflags(write=False)
    width = restriction.shape[1]
    generators = []
    for moves in gens:
        idx, sgn = list(range(width)), [1] * width
        moved = set()
        for i, j, s in moves:
            if moved & {i, j}:
                raise ValueError(f"generator {moves} of {family} on {ambient} moves a coordinate twice")
            moved |= {i, j}
            idx[i], idx[j] = j, i
            sgn[i] = sgn[j] = s
        generators.append((tuple(idx), tuple(sgn)))
    derived = tuple(map(tuple, (rs.cartan_np @ restriction).tolist()))
    images = derived if simple_root_images is None else tuple(map(tuple, simple_root_images))
    if images != derived:
        raise AssertionError(f"simple-root images of {family} on {ambient} disagree with R: {images} vs {derived}")
    return Embedding(
        ambient=ambient,
        family=family,
        factors=factors,
        factor_groups=groups,
        torus_rank=torus_rank,
        restriction=restriction,
        simple_root_images=images,
        charge_scale=charge_scale,
        generators=tuple(generators),
        existence=existence,
        central2=central2,
    )


def _units(kinds):
    """The eps-assignment of a direct sum: ambient epsilons run through the factors' in turn."""
    return [[(f, i, 1)] for f, (fam, r) in enumerate(kinds) for i in range(epsilon_width(fam, r))]


# ---------------------------------------------------------------------------
# C1: stabilizers of non-degenerate subspaces, W = W1 + W2


def _build_c1(ambient, family):
    n = ambient.rank
    fam = ambient.family
    l = family.get("l")
    existence = "p!=2" if fam == "B" else "any"
    if family.get("sub") == "Dn":
        kinds = [("D", n)]
        return _embed(ambient, family, kinds, _units(kinds), [_flip(kinds, 0)], existence=existence)
    if l == 1:  # D_1 is the torus rotating the plane of epsilon_1
        kinds = [(fam, n - 1)]
        gen = _charge_swap(kinds, 0, 0, -1) + (_flip(kinds, 0) if fam == "D" else [])
        return _embed(ambient, family, kinds, [[]] + _units(kinds), [gen],
                      charges=[(2,)] + [(0,)] * (n - 1), charge_scale=2, existence=existence)
    kinds = [("D", l), (fam, n - l)]
    gen = _flip(kinds, 0) + (_flip(kinds, 1) if fam == "D" else [])
    return _embed(ambient, family, kinds, _units(kinds), [gen], existence=existence)


# ---------------------------------------------------------------------------
# C3: stabilizers of totally singular decompositions, W = U + U*


def _build_c3(ambient, family):
    n = ambient.rank
    existence = "p!=2" if ambient.family == "C" else "any"
    kinds = [("A", n - 1)]
    gen = _flip(kinds, 0) + _charge_swap(kinds, 0, 0, -1)
    return _embed(ambient, family, kinds, _units(kinds), [gen],
                  charges=[(2,)] * n, charge_scale=2, existence=existence)


# ---------------------------------------------------------------------------
# C6: classical subgroups, the stabilizers of a form on W


def _build_c6(ambient, family):
    n = ambient.rank
    if ambient.family == "C":
        kinds = [("D", n)]
        return _embed(ambient, family, kinds, _units(kinds), [_flip(kinds, 0)], existence="p=2")
    m = (n + 1) // 2
    kinds = [("D", m)]
    eps = [[(0, j, 1)] for j in range(m)] + [[(0, m - 1 - j, -1)] for j in range(m)]
    # independently recorded simple-root images: alpha_i -> beta_i,
    # alpha_{m+i} -> beta_{m-i} (1 <= i <= m-1), alpha_m -> beta_m - beta_{m-1}
    beta = build_root_system(LieType("D", m)).cartan
    images = [
        beta[k - 1] if k < m else beta[2 * m - k - 1] if k > m
        else tuple(a - b for a, b in zip(beta[m - 1], beta[m - 2]))
        for k in range(1, n + 1)
    ]
    return _embed(ambient, family, kinds, eps, [_flip(kinds, 0)], existence="p!=2",
                  simple_root_images=images)


# ---------------------------------------------------------------------------
# C2: imprimitive subgroups, W = W1 + ... + Wt


def _build_c2(ambient, family):
    n = ambient.rank
    fam = ambient.family
    l = family.get("l")
    t = family.get("t")
    if fam == "A":
        # GL_{l+1}^t: the torus coordinate i carries the determinant of block
        # i, less its share of the trace
        kinds = [("A", l)] * t if l else []
        charges = [tuple((n + 1) * (j // (l + 1) == i) - (l + 1) for i in range(t)) for j in range(n + 1)]
        gens = [(_swap(kinds, i, i + 1) if l else []) + _charge_swap(kinds, i, i + 1) for i in range(t - 1)]
        eps = _units(kinds) if l else [[]] * (n + 1)
        return _embed(ambient, family, kinds, eps, gens, charges=charges, charge_scale=n + 1)
    if fam == "B" or family.get("kind") == "Bl":
        # (2^{t-1} x B_l^t).S_t: each pair of summands spends 2l epsilons, and
        # its two zero weights make up one more epsilon that restricts to zero
        kinds = [("B", l)] * t
        eps = []
        for j in range(n):
            q, r = divmod(j, 2 * l + 1)
            eps.append([(2 * q + r // l, r % l, 1)] if r < 2 * l else [])
        return _embed(ambient, family, kinds, eps, _block_swaps(kinds, t), existence="p!=2", central2=True)
    if fam == "D" and l == 1:
        # normalizer of a maximal torus: the charges are doubled epsilon-coordinates
        charges = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]
        gens = [_charge_swap([], i, i + 1) for i in range(n - 1)] + [_charge_swap([], n - 2, n - 1, -1)]
        return _embed(ambient, family, [], [[]] * n, gens, charges=charges, charge_scale=2)
    kinds = [(fam, l)] * t
    gens = _block_swaps(kinds, t)
    if fam == "D":  # even numbers of D-flips: generated by the pairwise flip on factors 1, 2
        gens.append(_flip(kinds, 0) + _flip(kinds, 1))
    return _embed(ambient, family, kinds, _units(kinds), gens)


# ---------------------------------------------------------------------------
# C4: tensor product subgroups, W = W1 x W2 (x ...).  Each ambient epsilon is
# the weight of one tensor basis vector: a signed epsilon of every factor,
# read off from the position of that vector in the tensor product.


def _build_c4i(ambient, family):
    a = family.get("a")
    bb = family.get("b")
    kinds = [(ambient.family, a), ("D", bb)]
    eps = []
    for j in range(bb):
        eps += [[(0, i, 1), (1, j, 1)] for i in range(a)]
        eps += [[(0, a - 1 - i, -1), (1, j, 1)] for i in range(a)]
    gens = ([_flip(kinds, 0)] if ambient.family == "D" else []) + [_flip(kinds, 1)]
    return _embed(ambient, family, kinds, eps, gens, existence="p!=2")


def _build_c4ii(ambient, family):
    l = family.get("l")
    t = family.get("t")
    n = ambient.rank
    fam = ambient.family
    factor = family.get("kind", fam)[0]  # on D the kind names the factor type
    d = _natural_dim(factor, l)
    kinds = [(factor, l)] * t
    if fam == "A":
        existence = "any"
    elif fam == "D" and factor == "C":
        existence = "any" if t % 2 == 0 else "p=2"
    else:
        existence = "p!=2"

    # digit model: ambient epsilon j is the tensor basis vector whose factor-i
    # digit is r_i, factors little-endian; digit r of a factor of dimension d
    # carries epsilon_r for r < l (all r for A), zero for the middle digit of
    # B, and -epsilon_{d-1-r} above
    def digit(i, r):
        if fam == "A" or r < l:
            return [(i, r, 1)]
        return [(i, d - 1 - r, -1)] if r != d - 1 - r else []

    eps = [
        [term for i in range(t) for term in digit(i, j // d ** i % d)]
        for j in range(n + 1 if fam == "A" else n)
    ]
    gens = _block_swaps(kinds, t)
    if factor == "D":
        gens += [_flip(kinds, f) for f in range(t)]
    return _embed(ambient, family, kinds, eps, gens, existence=existence)


# ---------------------------------------------------------------------------
# which instances exist: the one statement, read by build_embedding and the
# classification tables


def _natural_dim(letter, n):
    """Dimension of the natural module W of a classical group of type letter_n."""
    return {"A": n + 1, "B": 2 * n + 1}.get(letter, 2 * n)


def _tensor_powers(dim):
    """The pairs (d, t) with d ** t == dim and t >= 2, by increasing d."""
    for d in range(2, dim):
        t, v = 0, dim
        while v % d == 0:
            v //= d
            t += 1
        if v == 1 and t >= 2:
            yield d, t


def instance_params(tag, letter, n):
    """Yield the parameter dicts of every instance of family ``tag`` in letter_n.

    c6 on A also carries m, the rank of its D_m factor, which the tables read;
    ``family_of`` drops it.
    """
    dim = _natural_dim(letter, n)
    if tag == "c1":
        if letter == "B" and n >= 3:
            yield {"sub": "Dn"}
            for l in range(1, n):
                yield {"sub": "DlB", "l": l}
        if letter == "D" and n >= 4:
            for l in range(1, (n + 1) // 2):
                yield {"sub": "DlD", "l": l}
    elif tag == "c2":
        # W is t orthogonal summands of dimension d
        splits = [(dim // t, t) for t in range(2, dim + 1) if dim % t == 0]
        if letter == "A":
            yield from ({"l": d - 1, "t": t} for d, t in splits)
        elif letter == "B":
            yield from ({"l": d // 2, "t": t} for d, t in splits if d >= 3)
        elif letter == "C":
            yield from ({"l": d // 2, "t": t} for d, t in splits if d % 2 == 0)
        elif letter == "D" and n >= 4:
            yield from ({"kind": "Bl", "l": d // 2, "t": t} for d, t in splits if d % 2 and d >= 3)
            yield from ({"kind": "Dl", "l": d // 2, "t": t} for d, t in splits if d % 2 == 0)
    elif tag == "c3":
        if letter == "C" or (letter == "D" and n % 2 == 0):
            yield {}
    elif tag == "c4i":
        for b in range(2, n):
            a, r = divmod(n, 2 * b)
            if r == 0 and (letter == "C" or (letter == "D" and a > b)):
                yield {"a": a, "b": b}
    elif tag == "c4ii":
        # W is the t-th tensor power of a factor's natural module of dimension d
        for d, t in _tensor_powers(dim):
            if letter == "A" and d >= 3:
                yield {"l": d - 1, "t": t}
            elif letter == "B" or (letter == "C" and t % 2 == 1):
                yield {"l": d // 2, "t": t}
            elif letter == "D":
                yield {"kind": "Cl", "l": d // 2, "t": t}
                if d >= 6:
                    yield {"kind": "Dl", "l": d // 2, "t": t}
    elif tag == "c6":
        if letter == "A" and n % 2 == 1 and n >= 5:
            yield {"m": (n + 1) // 2}
        if letter == "C" and n >= 3:
            yield {}


def family_of(tag, params):
    """The family of one enumerated parameter dict."""
    return geom_family(tag, **{k: v for k, v in params.items() if k != "m"})


def instances(tag, ambient: LieType):
    """The families of every instance of ``tag`` at ``ambient``, in enumeration order."""
    return [family_of(tag, p) for p in instance_params(tag, ambient.family, ambient.rank)]


_BUILDERS = {
    "c1": _build_c1,
    "c2": _build_c2,
    "c3": _build_c3,
    "c4i": _build_c4i,
    "c4ii": _build_c4ii,
    "c6": _build_c6,
}


@functools.lru_cache(maxsize=EMBEDDING_CACHE_SIZE)
def build_embedding(ambient: LieType, family: GeomFamily) -> Embedding:
    """Construct the frozen restriction data for one family instance (cached).

    Accepts exactly the instances that ``instance_params`` enumerates.
    """
    valid = instances(family.tag, ambient)
    if family not in valid:
        listed = ", ".join(map(str, valid)) or "none"
        raise ValueError(f"no instance {family} on {ambient}; the {family.tag} instances on {ambient} are: {listed}")
    return _BUILDERS[family.tag](ambient, family)


def format_h0_weight(e: Embedding, hw) -> str:
    """Human-readable form: 'w(1,2)+3*w(2,1) | q=(1,-1)'."""
    parts, charges = e.split(hw)
    terms = []
    for gi, grp in enumerate(e.factor_groups, start=1):
        coeffs = []
        for mi in grp:
            coeffs.extend(parts[mi])
        for j, c in enumerate(coeffs, start=1):
            if c:
                terms.append(f"w({gi},{j})" if c == 1 else f"{c}*w({gi},{j})")
    body = "+".join(terms) if terms else "0"
    if charges:
        body += " | q=" + "(" + ",".join(str(c) for c in charges) + ")"
    return body
