"""Branching verification engine.

At characteristic zero the composition factors of a restriction are computed
exactly from the H-dominant part of the restricted character: the Weyl orbit
of each dominant weight is pushed through the embedding, only its
H-dominant images are kept, and their sum over the dominant weights
of W(lam) is decomposed into product Weyl characters, and the restriction is
irreducible exactly when those factors are the ones ``clifford_prediction``
predicts from the component orbit.  At positive characteristic only
necessary conditions (restriction-orbit membership, the h and ell invariants,
multiplicity bookkeeping) and closed-form dimension identities are evaluated;
anything beyond them is reported INCONCLUSIVE rather than guessed.

The necessary filters read a table built once per embedding: the diagram
chains beta of G, their coroot pairings, their images R beta (also in
scaled factor root coordinates), the groups of chains that share one image,
and each chain's residues and charges packed into an int64 key.  One
rows x chains match of packed keys finds the (candidate, component-orbit
element, chain) triples to test, only those are tested and folded per
candidate, and a weight too large for exact int64 arithmetic raises
KernelCapacityError.  That geometry does not depend on p: only the
certification <lam, beta-coroot> != 0 (mod p) does, and where Premet's
theorem applies (p = 0 or p > e(G)) it is <lam, beta-coroot> > 0, so
there the filters' decision does not depend on p either.  So an entry's
characteristic-free part (its restriction, its ``clifford_prediction``, the
filters' geometry and their decision at p = 0) is decided once per
(embedding, lam) and cached; only p <= e(G) (B and C at p = 2) or a
filtered entry screens again.  ``verify_entry`` validates lam once,
screens from the record it holds, reads every dimension from ``charcalc``'s
cache, and at p > 0 compares dim L(lam) with one product, kappa times the
dimensions of the lead orbit element's factors.  A scan restricts its
bounded candidates in one int64 product and takes one of three routes,
chosen from the embedding; each screens its blocks whole, and
``ORBIT_CHUNK_ROWS`` bounds every block, so it is the one bound on the
scan's memory.  Most component groups (order 2 to 192 up to rank 12, at
most ``embeddings.WHOLE_GROUP_ORDER``) are applied whole:
``embeddings.component_orbits`` makes every candidate's orbit in one array
step per chunk, and the key match reads it.  Where H = N_G(T)
(``_ChainTable.torus``: A_n as n + 1 lines, D_n as n planes) the scan walks
no component orbit and matches no key: there R is one to one and the
component group acts on it as W, so the component orbit of R lam is
R(W lam); H^0 has no roots, so R(lam - beta) lies under an orbit element
exactly when lam - beta is in W lam, that is, exactly when
<lam, beta-coroot> = 1, since a W-orbit lies on one sphere and
|lam - beta|^2 = |lam|^2 - (<lam, beta-coroot> - 1) |beta|^2.  The
pairings, in blocks of at most ``ORBIT_CHUNK_ROWS`` (candidate, chain)
entries, decide the filters, and |W : W_lam| is the orbit size.  Where the
component group is a wreath product past the whole-group order
(``_h_table``: S_t on t equal blocks, with their flips), the h invariant
decides the filters with no orbit walked: an orbit element over
R(lam - beta) is R(lam - beta) + kappa, kappa in Q+(H^0) of height
h(R beta), and at most C(h(R beta) + ss - 1, ss - 1) of those are tested
against the canonical block form of R lam (``embeddings.Wreath``), which
also counts the orbit.  A single weight (an entry, ``branch_p0``,
``necessary_filters``, and a scan survivor that needs a branching) keeps
the search of ``component_orbit_set``, four times faster on one weight.
At p = 0 a survivor whose prediction's dimension sum differs from dim V is
REDUCIBLE at once: an IRREDUCIBLE one has the prediction as its factors,
and branch conservation makes their sum dim V.  The component group acts
on H^0 by automorphisms, which keep dimensions, and m is constant on the
orbit, so that sum is one product, |orbit| * m * dim of lam_h: one
``charcalc.weyl_dims`` call per factor of H^0 and one for G decide it for
a chunk; m is one value per candidate.  A sum that agrees is IRREDUCIBLE
with no branching by Seitz's rule when ``_ChainTable.borel`` holds and
m = 1 (see ``_branch_p0``); the rest are branched, on any route after one
``component_orbit_set`` search.

The embedding is the one handle on (G, H) and, hashed by identity, the key of
every cache here; a public call that also takes G refuses any other G.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import charcalc, embeddings, kernels
from .charcalc import Characteristic, freudenthal
from .embeddings import (
    Embedding,
    GeomFamily,
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    component_orbits,
    ell_value,
    existence_ok,
    p_condition_ok,
)
from .kernels import orbit_cap
from .rootsys import LieType, _frozen, build_root_system

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class ClassificationEntry:
    ambient: LieType
    family: GeomFamily
    lam: tuple
    p_condition: str
    expected_restriction: tuple | None  # semisimple coordinates only
    expected_kappa: int | None
    source: str
    entry_id: str


@dataclass
class BranchReport:
    factors: dict
    dims: dict
    verdict: str
    reasons: list = field(default_factory=list)
    kappa_found: int | None = None
    dim_lhs: int | None = None
    dim_rhs: int | None = None


# ---------------------------------------------------------------------------
# characteristic-zero branching


def _checked_cap(e: Embedding, lam, cap):
    """``cap``, or ``orbit_cap()`` when it is None, once no Weyl orbit of
    W(lam) is past it.  |W| bounds every orbit, so the Freudenthal table
    is read only when |W| is past the cap."""
    cap = orbit_cap() if cap is None else cap
    if e.root_system.weyl_order() > cap:
        largest = freudenthal(e.root_system, lam).largest_orbit
        if largest > cap:
            raise kernels.KernelCapacityError(
                f"restrict({e.ambient}, {tuple(lam)}): W(lam) has a Weyl orbit of {largest} elements, cap {cap}"
            )
    return cap


def restricted_multiset(e: Embedding, lam, cap=None):
    """H-dominant part of the character of W(lam) restricted to H.

    Keys are restricted weights whose factor coordinates are all
    non-negative (the torus charges are free), values their multiplicities.
    The restricted character is W_H-invariant, so this part fixes it.  Each
    dominant weight's Weyl orbit is pushed through R, and only its
    H-dominant images are kept.  ``cap`` bounds each full Weyl orbit
    enumerated on the way; a table with an orbit past it is refused before
    the first one is enumerated.
    """
    cap = _checked_cap(e, lam, cap)
    out = {}
    for mu, m in freudenthal(e.root_system, lam).entries.items():
        res = kernels.weyl_orbit_array(e.root_system, mu, cap=cap) @ e.restriction
        res = res[(res[:, : e.semisimple_rank] >= 0).all(axis=1)]
        for w, c in Counter(map(tuple, res.tolist())).items():
            out[w] = out.get(w, 0) + m * c
    return out


def clifford_prediction(e: Embedding, lam_h):
    """The composition factors of V|H^0 that make V|H irreducible.

    Clifford theory: V|H is irreducible exactly when V|H^0 is the component
    orbit of lam_h, each factor with the multiplicity its central cover
    forces.  That multiplicity is constant on the orbit, since the component
    group only permutes equal factors where there is a central cover.  Keys
    are in the sorted order of ``component_orbit_set``.
    """
    return dict.fromkeys(component_orbit_set(e, lam_h), central_multiplicity(e, lam_h))


def _require_ambient(ambient: LieType, e: Embedding):
    """Refuse a G that is not the ambient group of e."""
    if ambient != e.ambient:
        raise ValueError(f"{ambient} is not the ambient group {e.ambient} of the embedding {e.family}")


def branch_p0(rs, lam, e: Embedding, cap=None) -> BranchReport:
    """Exact composition factors of the restriction at p = 0.

    PASS exactly when they are ``clifford_prediction`` of the restricted lam;
    a FAIL carries one branch-structure-mismatch record with both maps.
    A PASS decided by the rule of ``_branch_p0`` reads as the branching's.
    ``rs`` must be the root system of ``e.ambient``.
    """
    _require_ambient(rs.lie_type, e)
    lam = _highest_weight(rs, lam)
    return _branch_p0(e, lam, _entry_record(e, lam).predicted, cap)


def _highest_weight(rs, lam):
    """``rs.check_weight(lam)``, once lam is also dominant and non-zero."""
    lam = rs.check_weight(lam)
    if any(c < 0 for c in lam) or not any(lam):
        raise ValueError("highest weight must be dominant and non-zero")
    return lam


def _branch_p0(e: Embedding, lam, predicted, cap) -> BranchReport:
    """``branch_p0`` of a checked lam, given its ``clifford_prediction``.

    The rule: with ``_chain_table(e).borel`` the highest weight vector of V
    and its component-group images are B_H-highest, each generating one
    L(c), c in the orbit; with m = 1, |orbit| * dim of lam_h = dim V makes
    V|H^0 their sum: PASS, with no restriction.  Every other case (m > 1,
    no ``borel``, a sum that differs) restricts W(lam) and subtracts.
    Under the rule c is B_H-dominant, so both dimensions are cached reads.
    """
    expected = charcalc._irr_dim_cached(e.ambient, lam, 0)[0]
    c, m = next(iter(predicted.items()))
    if m == 1 and _chain_table(e).borel and len(predicted) * math.prod(
        charcalc._irr_dim_cached(frs.lie_type, part, 0)[0] for frs, part in zip(e.factor_systems, e.split(c)[0])
    ) == expected:
        _checked_cap(e, lam, cap)
        factors, dims = dict(predicted), dict.fromkeys(predicted, expected // len(predicted))
    else:
        factors = charcalc.weyl_character_subtract(e.factor_systems, restricted_multiset(e, lam, cap=cap))
        dims = dict(zip(factors, charcalc.product_weyl_dims(e.factor_systems, list(factors))))
    total = sum(m * dims[hw] for hw, m in factors.items())
    if total != expected:
        # conservation is structural; a failure means a genuine bug
        raise AssertionError(
            f"branch conservation failed: {total} != {expected} for {e.ambient} {lam}"
        )
    reasons = []
    if factors != predicted:
        reasons.append({
            "kind": "branch-structure-mismatch",
            "expected": sorted((list(k), v) for k, v in predicted.items()),
            "found": sorted((list(k), v) for k, v in factors.items()),
        })
    return BranchReport(
        factors=factors,
        dims=dims,
        verdict=FAIL if reasons else PASS,
        reasons=reasons,
        kappa_found=sum(factors.values()),
        dim_lhs=expected,
        dim_rhs=total,
    )


# ---------------------------------------------------------------------------
# necessary-condition filters (valid in every characteristic)


@functools.lru_cache(maxsize=None)
def _diagram_chains(rs):
    """Connected chains in the Dynkin diagram, each summing to a positive root beta.

    One record per chain: its 1-based (first, last) node labels, the integer
    coefficients c with <lam, beta-coroot> = sum c_i lam_i, and beta in weight
    coordinates.  Index windows are connected for every classical diagram
    except the two-element window across the D fork; D additionally has the
    chains running to the far fork tip.
    """
    n = rs.rank
    fam = rs.lie_type.family
    paths = [
        list(range(i, j + 1))
        for i in range(n)
        for j in range(i, n)
        if not (fam == "D" and i == n - 2 and j == n - 1)  # the fork tips are not adjacent
    ]
    if fam == "D":
        paths += [list(range(i, n - 2)) + [n - 1] for i in range(n - 2)]
    chains = []
    for nodes in paths:
        k = rs.root_index[tuple(1 if j in nodes else 0 for j in range(n))]
        chains.append(((nodes[0] + 1, nodes[-1] + 1), rs.coroots[k], rs.root_weights[k]))
    return tuple(chains)


@functools.lru_cache(maxsize=None)
def _chain_blocks(rs):
    """``_diagram_chains`` as (labels, coroots, betas), the two blocks
    read-only int64 rows, one per chain."""
    chains = _diagram_chains(rs)
    coroots, betas = (_frozen(np.array([chain[i] for chain in chains], dtype=np.int64)) for i in (1, 2))
    return tuple(label for label, _, _ in chains), coroots, betas


class _FactorBlocks(NamedTuple):
    """The blocks of H^0 that its chain tables read, shared by every
    embedding with the same factors and width."""

    scale: np.ndarray  # width x ss: a restricted weight -> its scaled factor root coordinates
    inv_den: np.ndarray  # per semisimple coordinate: its factor's inv_den
    positive: np.ndarray  # the positive roots of H^0 as rows over the width, charges zero
    positive_set: frozenset  # the same rows as tuples


CHAIN_TABLE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def _factor_blocks(factors, width):
    """``_FactorBlocks`` of the factors (consecutive blocks of coordinates,
    in order) over ``width`` coordinates.  ``scale`` is each factor's
    ``inv_cartan_scaled`` on its block, and zero on the torus charges."""
    systems = [build_root_system(t) for t in factors]
    ss = sum(t.rank for t in factors)
    scale = np.zeros((width, ss), dtype=np.int64)
    positive = [np.zeros((0, width), dtype=np.int64)]
    off = 0
    for frs in systems:
        scale[off:off + frs.rank, off:off + frs.rank] = frs.inv_cartan_scaled
        rows = np.zeros((len(frs.root_weights), width), dtype=np.int64)
        rows[:, off:off + frs.rank] = frs.root_weight_block
        positive.append(rows)
        off += frs.rank
    inv_den = np.array([frs.inv_den for frs in systems for _ in range(frs.rank)], dtype=np.int64)
    positive = np.concatenate(positive)
    return _FactorBlocks(_frozen(scale), _frozen(inv_den), _frozen(positive), frozenset(map(tuple, positive.tolist())))


class _ChainTable(NamedTuple):
    labels: tuple  # per chain: 1-based (first, last) node labels
    coroots: np.ndarray  # chains x rank: <lam, beta-coroot> = coroots @ lam
    betas: np.ndarray  # chains x rank: beta in weight coordinates
    images: np.ndarray  # chains x width: R beta
    shared: np.ndarray  # chains x groups: 1 where the chain is in the group; a group is an image R beta of two chains or more
    lead: np.ndarray  # per group: its first chain
    scale: np.ndarray  # width x ss: a restricted weight -> its scaled factor root coordinates
    scaled_images: np.ndarray  # chains x ss: R beta through ``scale``
    inv_den: np.ndarray  # per semisimple coordinate: its factor's inv_den
    limit: int  # sum |lam_i| below this keeps every int64 value of a call exact
    borel: bool  # the highest weight vector of V is B_H-highest, and the component group keeps B_H
    torus: bool  # H = N_G(T): the component group is R W R^-1 on a maximal torus H^0, and m = 1


@functools.lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def _chain_table(e: Embedding):
    """The diagram chains of G and their images under the restriction map R of e.

    Chains that share one image R beta form a group: their weights
    lam - beta restrict to one weight for every lam.  ``borel``: no positive
    root of G restricts to a negative root of H^0 (zero charges), and every
    generator keeps H^0's positive roots positive.
    ``torus``: H^0 has no roots, no central 2-part makes m exceed 1, and
    each generator acts on R's rows as one simple reflection s_i of G, every
    s_i among them, which makes R of rank n (``_acts_as_weyl_group``).  A
    word in the generators then takes R lam to R(w lam), w the same word in
    the s_i, so the component orbit of R lam is R(W lam), one to one.
    The packed keys of the filters' match are ``_key_table``'s, built only
    where ``_geometry`` runs: a torus scan reads none.
    """
    labels, coroots, betas = _chain_blocks(e.root_system)
    h = _factor_blocks(e.factors, e.width)
    ss = e.semisimple_rank
    images = betas @ e.restriction
    by_image = {}
    for k, row in enumerate(map(tuple, images.tolist())):
        by_image.setdefault(row, []).append(k)
    groups = [ks for ks in by_image.values() if len(ks) > 1]
    shared = np.zeros((len(labels), len(groups)), dtype=np.int64)
    for g, ks in enumerate(groups):
        shared[ks, g] = 1
    scaled_images = images @ h.scale
    # a call's int64 values are at most growth * sum|lam| + offset in size:
    # the pairings, lam_h = R lam, c - lam_h for c in its component orbit,
    # that difference through ``scale`` plus a chain image, and the sum of
    # the quotients over the semisimple coordinates
    terms = max(ss, 1)
    growth = max(
        int(np.abs(coroots).max()),
        terms * 2 * e.width * int(np.abs(e.restriction).max()) * max(int(np.abs(h.scale).max(initial=0)), 1),
    )
    offset = terms * int(np.abs(scaled_images).max(initial=0))
    # each generator is one index-and-sign step on the rows of H^0's positive roots
    borel = not len(h.positive) or (
        h.positive_set.isdisjoint(map(tuple, (-(e.root_system.root_weight_block @ e.restriction)).tolist()))
        and all(set(map(tuple, (h.positive[:, idx] * sgn).tolist())) <= h.positive_set for idx, sgn in e.generators)
    )
    return _ChainTable(
        labels=labels,
        coroots=coroots,
        betas=betas,
        images=images,
        shared=shared,
        lead=np.array([ks[0] for ks in groups], dtype=np.intp),
        scale=h.scale,
        scaled_images=scaled_images,
        inv_den=h.inv_den,
        limit=((1 << 63) - 1 - offset) // growth,
        borel=borel,
        torus=ss == 0 and not e.central2 and _acts_as_weyl_group(e),
    )


class _KeyTable(NamedTuple):
    key_weights: np.ndarray  # width x key columns: ``kernels._key_weights`` for the key digits
    charge_bound: int  # above every |charge| of a chain image: a charge clipped to it matches no chain
    keys: np.ndarray  # chains x key columns: -(R beta) through ``scale`` mod inv_den, then its negated charges, packed


@functools.lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def _key_table(e: Embedding):
    """The packed residues and charges of e's chain images, for the key
    match of ``_geometry``."""
    t = _chain_table(e)
    ss = e.semisimple_rank
    # a key's digits are residues in 0..inv_den - 1 and charges clipped to
    # +-charge_bound: balanced digits of this radix pack them exactly
    charge_bound = int(np.abs(t.images[:, ss:]).max(initial=0)) + 1
    key_weights = kernels._key_weights(e.width, 2 * max(int(t.inv_den.max(initial=1)) - 1, charge_bound) + 1)
    keys = np.concatenate((-t.scaled_images % t.inv_den, -t.images[:, ss:]), axis=1) @ key_weights
    return _KeyTable(key_weights, charge_bound, keys)


def _acts_as_weyl_group(e: Embedding):
    """Whether each generator g acts on R's rows as one simple reflection
    s_i of G (g R = s_i R, s_i on weight rows), every s_i among them.

    s_i takes lam to lam - lam_i alpha_i, so s_i R differs from R only in
    row i, the image of omega_i, by the image of alpha_i.  R then has rank
    n: its kernel is stable under every s_i, so under W, which acts
    irreducibly on the weights of a simple G, and it is not everything,
    since each alpha_i has a non-zero image.
    """
    n = e.root_system.rank
    if len(e.generators) < n:
        return False
    idx, sgn = (np.array(a, dtype=np.int64) for a in zip(*e.generators))
    diff = e.restriction[:, None, :] - e.restriction[:, idx] * sgn  # rows x generators x width
    moved = diff.any(axis=2)
    row = moved.argmax(axis=0)  # per generator: the first row it moves
    images = np.array(e.simple_root_images, dtype=np.int64)
    return bool(
        (moved.sum(axis=0) == 1).all()
        and (diff[row, np.arange(len(row))] == images[row]).all()
        and len(set(row.tolist())) == n
    )


def _exact_chain_table(e: Embedding, lam):
    """The chain table of e, once lam is known to keep its int64 products
    exact; so is every weight whose sum |lam_i| is no larger."""
    t = _chain_table(e)
    if sum(abs(c) for c in lam) >= t.limit:
        raise kernels.KernelCapacityError(
            f"filters({e.ambient}, {e.family}, {lam}): coordinates exceed the int64 range"
        )
    return t


class _Geometry(NamedTuple):
    bare: np.ndarray  # candidates x chains: R(lam - beta) lies under no orbit element
    single: np.ndarray  # candidates x groups: the group's image lies one factor simple root under exactly one orbit element


def _geometry(e: Embedding, t: _ChainTable, lam_h_a, orbit, sizes):
    """The characteristic-free part of the filters for a block of candidates.

    ``lam_h_a`` holds the restricted candidates as rows; their component
    orbits are the rows of ``orbit``, one after another, with one orbit
    size per candidate in ``sizes``.  A (candidate, orbit element) row lies
    over a chain image only where its packed residues and charges match the
    chain's key, in one rows x chains step; only the matched pairs are
    tested for non-negative coordinates.
    """
    ss = e.semisimple_rank
    n, k = len(sizes), len(t.labels)
    kt = _key_table(e)
    owner = np.repeat(np.arange(n), sizes)  # per orbit row: its candidate
    diff = orbit - lam_h_a[owner]
    scaled = diff @ t.scale
    charges = np.maximum(np.minimum(diff[:, ss:], kt.charge_bound), -kt.charge_bound)
    key = np.concatenate((scaled % t.inv_den, charges), axis=1) @ kt.key_weights
    match = key[:, 0, None] == kt.keys[:, 0]
    for col in range(1, key.shape[1]):
        match &= key[:, col, None] == kt.keys[:, col]
    row, chain = np.divmod(np.flatnonzero(match), k)  # faster than a 2-D nonzero past a few rows
    under = (scaled[row] + t.scaled_images[chain] >= 0).all(axis=1)  # the matched pairs where mu_h lies under c
    row, chain = row[under], chain[under]
    cand = owner[row]
    above = np.bincount(cand * k + chain, minlength=n * k).reshape(n, k)  # candidates x chains: orbit elements over mu_h
    single = np.zeros((n, len(t.lead)), dtype=bool)
    # a group's weights restrict to one weight; where it lies one factor
    # simple root below a single orbit element, the certified ones are at
    # most that element's multiplicity m, which ``_screen`` checks at p
    hit, grp = np.nonzero(above[:, t.lead] == 1)
    if hit.size:
        lead = t.lead[grp]
        at = np.zeros(above.shape, dtype=np.intp)
        at[cand, chain] = row  # the one row over mu_h, where there is one
        steps = ((scaled[at[hit, lead]] + t.scaled_images[lead]) // t.inv_den).sum(axis=1)
        single[hit, grp] = steps == 1
    return _Geometry(above == 0, single)


class _Screen(NamedTuple):
    certified: np.ndarray  # candidates x chains: the pairing certifies lam - beta as a weight of L(lam)
    escaped: np.ndarray  # candidates x chains: certified, and R(lam - beta) lies under no orbit element
    exceeded: np.ndarray  # candidates x groups: the group's certified chains exceed the candidate's m

    def filtered(self):
        """Per candidate: whether any finding disqualifies it."""
        return self.escaped.any(axis=1) | self.exceeded.any(axis=1)


def _screen(e: Embedding, chi: Characteristic, t: _ChainTable, pair, g: _Geometry, m):
    """The necessary filters' decision at p, from the candidates' pairings
    <lam, beta-coroot>, their geometry and their m (a column, or one int):
    a group under a single orbit element carries at most m certified chains."""
    certified = pair > 0
    if not charcalc.premet_applies(e.root_system, chi):
        certified &= pair % chi.p != 0
    count = certified @ t.shared
    exceeded = g.single & (count > m)  # m >= 1, so two chains at least
    return _Screen(certified, certified & g.bare, exceeded)


class _EntryRecord(NamedTuple):
    """The facts of one (embedding, lam) that no p changes: ``filtered``
    is the filters' decision wherever Premet applies (only p <= e(G)
    screens again), and kappa = m |orbit| with the ``lead`` parts give the
    dimension identity at p > 0, which validates lam once and reads every
    dimension from the cache."""

    table: _ChainTable  # the embedding's chain table, shared with every other weight
    lam_h: np.ndarray  # 1 x width: R lam
    predicted: MappingProxyType  # ``clifford_prediction`` of R lam, read-only
    pair: np.ndarray  # 1 x chains: <lam, beta-coroot>
    m: int  # the multiplicity of every predicted factor
    geometry: _Geometry  # one row: the filters' characteristic-free part
    filtered: bool  # the filters disqualify lam at p = 0
    restrictions: frozenset  # the semisimple parts of the predicted factors
    lead: tuple  # the ``e.split`` parts of the first predicted factor


ENTRY_RECORD_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=ENTRY_RECORD_CACHE_SIZE)
def _entry_record(e: Embedding, lam):
    """Everything the checks of one (embedding, lam) share across p, the
    filters' decision where Premet applies and the lead factor's parts included.

    The int64 guard is checked first, so a weight past it is never cached;
    the arrays and the prediction are read-only, since every caller shares
    them.
    """
    t = _exact_chain_table(e, lam)
    lam_a = np.array([lam], dtype=np.int64)
    lam_h_a = lam_a @ e.restriction
    predicted = clifford_prediction(e, tuple(lam_h_a[0].tolist()))
    m = next(iter(predicted.values()))
    pair = lam_a @ t.coroots.T
    geometry = _geometry(e, t, lam_h_a, np.array(list(predicted), dtype=np.int64), np.array([len(predicted)]))
    for a in (lam_h_a, pair, *geometry):
        a.flags.writeable = False
    filtered = bool(_screen(e, Characteristic(0), t, pair, geometry, m).filtered()[0])
    restrictions = frozenset(c[: e.semisimple_rank] for c in predicted)
    lead = e.split(next(iter(predicted)))[0]
    return _EntryRecord(t, lam_h_a, MappingProxyType(predicted), pair, m, geometry, filtered, restrictions, lead)


def necessary_filters(e: Embedding, lam, chi: Characteristic):
    """Disqualifying findings for the candidate highest weight lam.

    The filters read ``clifford_prediction`` of the restriction of lam: its
    keys are the component orbit, its values the multiplicities the factors
    can carry.  Every finding is a certificate that the restriction cannot be
    irreducible: a known weight of L(lam) whose restriction escapes the
    component orbit of lam, or more weights landing on one restricted weight
    than the factors can carry.  Sound in every characteristic.

    The known weights are lam - beta for the diagram chains beta whose
    pairing <lam, beta-coroot> certifies them: it does not vanish mod p (the
    commutator [e, f] acts by it on the highest vector), or merely is
    positive when p = 0 or p > e(G), where all of the Weyl support is in
    L(lam).  mu_h = R(lam - beta) lies under c exactly when the charges agree
    and every scaled factor root coordinate of c - mu_h is non-negative and
    divisible by its factor's ``inv_den``; the quotients then sum to the
    number of factor simple roots in c - mu_h.  The scaled coordinates are
    linear and c - mu_h = (c - lam_h) + R beta, so divisibility is a match of
    residues, those of c - lam_h against those of -R beta: ``_geometry``
    matches the packed residues and charges of every (chain, orbit element)
    pair in one array step and tests the coordinates of the matched ones.

    Only the certification depends on p, and only where Premet does not
    apply.  The restriction, the prediction, that geometry and the decision
    at p = 0 are decided once per (embedding, lam), in ``_entry_record``.
    Where Premet applies an unfiltered record is the answer; otherwise
    (p <= e(G), or findings to render) ``_screen`` certifies the chains at p.
    This call renders the decision for one candidate; ``scan_candidates``
    reads it for blocks of them.
    """
    lam = e.root_system.check_weight(lam)
    return _entry_findings(e, lam, _entry_record(e, lam), chi)


def _entry_findings(e: Embedding, lam, record: _EntryRecord, chi: Characteristic):
    """``necessary_filters`` of a checked lam, given its entry record."""
    if not record.filtered and charcalc.premet_applies(e.root_system, chi):
        return []
    t, lam_h_a = record.table, record.lam_h
    s = _screen(e, chi, t, record.pair, record.geometry, record.m)
    if not s.filtered()[0]:
        return []
    ss = e.semisimple_rank
    lam_a = np.array(lam, dtype=np.int64)
    lam_h = tuple(lam_h_a[0].tolist())
    escaped = np.flatnonzero(s.escaped[0])
    findings = []
    for k, mu, mu_h in zip(
        escaped.tolist(), (lam_a - t.betas[escaped]).tolist(), (lam_h_a[0] - t.images[escaped]).tolist()
    ):
        finding = {
            "kind": "restriction-not-under-orbit",
            "chain": list(t.labels[k]),
            "mu": mu,
            "h_mu": sum(mu_h[:ss]),
            "h_lam": sum(lam_h[:ss]),
        }
        if e.family.tag == "c4ii":
            ident = tuple(range(len(e.factors)))
            try:
                ell, _ = ell_value(e, mu_h, lam_h, ident)
                finding["ell"] = str(ell)
            except ValueError:
                pass
        findings.append(finding)
    over = np.flatnonzero(s.exceeded[0])
    for mu_h, g in sorted(zip((lam_h_a[0] - t.images[t.lead[over]]).tolist(), over.tolist())):
        findings.append({
            "kind": "multiplicity-bound-exceeded",
            "target": mu_h,
            "witnesses": (lam_a - t.betas[s.certified[0] & (t.shared[:, g] == 1)]).tolist(),
            "capacity": record.m,
        })
    return findings


def ford_condition_check(lam, n: int, chi: Characteristic) -> bool:
    """The three congruence conditions for the orthogonal-pair family on B_n."""
    if chi.p == 2:
        raise ValueError("condition undefined at p = 2")
    p = chi.p
    lam = build_root_system(LieType("B", n)).check_weight(lam)
    if lam[n - 1] != 1:
        return False

    def cong(a, b):
        return a == b if p == 0 else (a - b) % p == 0

    support = [i + 1 for i in range(n - 1) if lam[i]]
    for x, y in zip(support, support[1:]):
        if not cong(lam[x - 1] + lam[y - 1], x - y):
            return False
    if support:
        i = support[-1]
        if not cong(2 * lam[i - 1], -2 * (n - i) - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# entry verification and candidate scans


def entry_gate(entry: ClassificationEntry, p: int):
    """(embedding, first reason the entry does not apply at p, or None).

    The embedding is None when the p-condition already fails.  Otherwise it
    is the cached instance of the entry's (ambient, family): for a table
    entry, the one ``tables`` built when it instantiated the row.
    """
    if not p_condition_ok(entry.p_condition, p):
        return None, {"kind": "p-condition-unsatisfied", "condition": entry.p_condition, "p": p}
    e = build_embedding(entry.ambient, entry.family)
    if not existence_ok(e, p):
        return e, {"kind": "subgroup-existence", "condition": e.existence, "p": p}
    return e, None


def verify_entry(entry: ClassificationEntry, chi: Characteristic, cap=None) -> BranchReport:
    p = chi.p
    rep = BranchReport(factors={}, dims={}, verdict=INCONCLUSIVE)
    e, reason = entry_gate(entry, p)
    if reason is not None:
        rep.reasons.append(reason)
        return rep
    rs = e.root_system
    lam = _highest_weight(rs, entry.lam)
    if p > 0 and any(c >= p for c in lam):
        rep.reasons.append({"kind": "not-p-restricted", "p": p})
        return rep
    record = _entry_record(e, lam)
    if entry.expected_restriction is not None:
        expected = tuple(entry.expected_restriction)
        if expected not in record.restrictions:
            rep.verdict = FAIL
            rep.reasons.append({
                "kind": "restriction-mismatch",
                "expected": list(expected),
                "found": sorted(list(x) for x in record.restrictions),
            })
            return rep
    kappa = rep.kappa_found = record.m * len(record.predicted)
    if entry.expected_kappa is not None and kappa != entry.expected_kappa:
        rep.verdict = FAIL
        rep.reasons.append({
            "kind": "kappa-mismatch",
            "expected": entry.expected_kappa,
            "found": kappa,
        })
        return rep
    findings = _entry_findings(e, lam, record, chi)
    if findings:
        rep.verdict = FAIL
        rep.reasons.extend(findings)
        return rep
    if p == 0:
        return _branch_p0(e, lam, record.predicted, cap)
    # positive characteristic: dim L(lam) = kappa * prod_f dim L(lead part f),
    # or inconclusive.  The component group acts on H^0 by swapping equal
    # factors and by A/D diagram flips, and a flip tau gives L(nu)^tau = L(tau nu),
    # so every orbit element has the lead's dimension, p-restrictedness and
    # closed form (or none), and the lead's first failing factor is the
    # first of the whole orbit.  lam is checked, and each part where it is read
    dim_g = charcalc._irr_dim_cached(rs.lie_type, lam, p)[0]
    if dim_g is None:
        rep.reasons.append({"kind": "dimension-unknown", "side": "ambient"})
        return rep
    d = 1
    for f, (frs, part) in enumerate(zip(e.factor_systems, record.lead)):
        if any(x >= p for x in part):
            rep.reasons.append({"kind": "factor-not-p-restricted", "factor": f + 1})
            return rep
        df = charcalc._irr_dim_cached(frs.lie_type, charcalc._require_dominant(part), p)[0]
        if df is None:
            rep.reasons.append({
                "kind": "dimension-unknown",
                "side": f"factor-{f + 1}",
                "weight": list(part),
            })
            return rep
        d *= df
    total = kappa * d
    rep.dim_lhs = dim_g
    rep.dim_rhs = total
    if dim_g == total:
        rep.verdict = PASS
        rep.reasons.append({"kind": "dimension-identity", "lhs": str(dim_g), "rhs": str(total)})
    else:
        rep.verdict = FAIL
        rep.reasons.append({"kind": "dimension-identity-failed", "lhs": str(dim_g), "rhs": str(total)})
    return rep


BOUNDED_WEIGHTS_CACHE_SIZE = 256


def dominant_weights_bounded(n, bound, p=0):
    """Non-zero dominant weights with coefficient sum <= bound (p-restricted if
    p > 0), sorted; a fresh list from a bounded cache keyed by (n, bound, p).
    A non-integral argument raises ``TypeError`` whatever the cache holds,
    though 3.0 hashes like 3."""
    return list(_dominant_weights_bounded(operator.index(n), operator.index(bound), operator.index(p)))


@functools.lru_cache(maxsize=BOUNDED_WEIGHTS_CACHE_SIZE)
def _dominant_weights_bounded(n, bound, p):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            if any(prefix):
                out.append(tuple(prefix))
            return
        top = remaining if p == 0 else min(remaining, p - 1)
        for c in range(top + 1):
            rec(prefix + [c], remaining - c)

    rec([], bound)
    return tuple(sorted(out))


IRREDUCIBLE = "IRREDUCIBLE"
REDUCIBLE = "REDUCIBLE"
FILTERED = "FILTERED"
UNRESOLVED = "UNRESOLVED"


def _multiplicities(e: Embedding, lam_h_a):
    """m per restricted candidate: ``central_multiplicity`` where e has a
    central 2-part, and 1 throughout where it has none."""
    if not e.central2:
        return np.ones(len(lam_h_a), dtype=np.int64)
    return np.array([central_multiplicity(e, lam_h) for lam_h in lam_h_a.tolist()], dtype=np.int64)


def _walked_blocks(e: Embedding, t: _ChainTable, lam_h_a):
    """(rows, orbit sizes, geometry) per chunk of ``component_orbits``: at
    most ``ORBIT_CHUNK_ROWS`` orbit rows, or one candidate, which also
    bounds the screen's memory, since the geometry reads each block whole."""
    start = 0
    for orbit, sizes in component_orbits(e, lam_h_a):
        rows = slice(start, start + len(sizes))
        start = rows.stop
        yield rows, sizes, _geometry(e, t, lam_h_a[rows], orbit, sizes)


class _HTable(NamedTuple):
    """What the h route reads of an embedding whose component group is a
    ``Wreath`` past ``embeddings.WHOLE_GROUP_ORDER``."""

    wreath: embeddings.Wreath
    shifts: np.ndarray  # rows x width: kappa - R beta per chain, one row per kappa in Q+(H^0) of height k_beta
    chains: np.ndarray  # per shift row: its chain
    heights: np.ndarray  # per chain: k_beta = h(R beta), or -1 where that is no non-negative integer
    step: int  # candidates per block, so that their shifted rows stay within ORBIT_CHUNK_ROWS; one at least


@functools.lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def _h_table(e: Embedding):
    """The h route's table of e, or None where the route does not apply.

    h(nu), the sum of the H^0 root coordinates of nu's semisimple part, is
    constant on a component orbit: the generators exchange equal factors,
    flip A and D diagrams and move charges.  So an orbit element c lies over
    mu_h = R(lam - beta) exactly when c = mu_h + kappa, kappa in Q+(H^0) of
    height k_beta = h(R beta), with no charge: at most
    C(k_beta + ss - 1, ss - 1) weights per chain, whatever the orbit size,
    and none where k_beta is no non-negative integer.
    """
    wreath = embeddings.wreath_shape(e)
    if wreath is None or wreath.order <= embeddings.WHOLE_GROUP_ORDER:
        return None
    t = _chain_table(e)
    ss = e.semisimple_rank
    den = int(np.lcm.reduce(t.inv_den))
    num = t.scaled_images @ (den // t.inv_den)  # den * k_beta
    heights = np.where((num >= 0) & (num % den == 0), num // den, -1)
    simple = np.zeros((ss, e.width), dtype=np.int64)  # H^0's simple roots as weight rows
    for off, frs in zip(e.factor_offsets, e.factor_systems):
        simple[off:off + frs.rank, off:off + frs.rank] = frs.cartan_np
    shifts, chains = [np.zeros((0, e.width), dtype=np.int64)], [np.zeros(0, dtype=np.intp)]
    for k in sorted(set(heights.tolist()) - {-1}):
        kappa = np.array([np.bincount(np.array(c, dtype=np.intp), minlength=ss)
                          for c in itertools.combinations_with_replacement(range(ss), k)]) @ simple
        for chain in np.flatnonzero(heights == k).tolist():
            shifts.append(kappa - t.images[chain])
            chains.append(np.full(len(kappa), chain, dtype=np.intp))
    shifts = np.concatenate(shifts)
    return _HTable(wreath, _frozen(shifts), _frozen(np.concatenate(chains)), _frozen(heights),
                   max(embeddings.ORBIT_CHUNK_ROWS // max(len(shifts), 1), 1))


def _h_blocks(e: Embedding, t: _ChainTable, h: _HTable, lam_h_a):
    """(rows, orbit sizes, geometry) per ``h.step`` candidates on the h
    route, with no orbit walked.

    A candidate's orbit elements over its mu_h are the c = mu_h + kappa of
    ``_h_table`` whose canonical block form is lam_h's: ``above`` counts
    them; ``single`` is one of them at k_beta = 1, one factor simple root
    above.  Each orbit size is read off the canonical block form.
    """
    k = len(t.labels)
    for start in range(0, len(lam_h_a), h.step):
        rows = slice(start, start + h.step)
        block = lam_h_a[rows]
        n = len(block)
        c = (block[:, None, :] + h.shifts).reshape(-1, e.width)
        canon = h.wreath.canonical(np.concatenate((block, c)))
        cand, row = np.nonzero((canon[n:].reshape(n, len(h.shifts), canon.shape[1]) == canon[:n, None]).all(axis=2))
        above = np.bincount(cand * k + h.chains[row], minlength=n * k).reshape(n, k)
        single = (above[:, t.lead] == 1) & (h.heights[t.lead] == 1)
        yield rows, h.wreath.orbit_sizes(block), _Geometry(above == 0, single)


def _torus_blocks(e: Embedding, t: _ChainTable, lam_a):
    """(rows, orbit sizes, geometry) per ``ORBIT_CHUNK_ROWS`` (candidate,
    chain) pairings where ``t.torus`` holds, with no orbit walked.

    H^0 has no roots, so R(lam - beta) lies under an orbit element exactly
    when it is one, that is (R being one to one) when lam - beta is in
    W lam.  Since |lam - beta|^2 = |lam|^2 - (<lam, beta-coroot> - 1) |beta|^2
    and <lam, beta-coroot> = 1 makes lam - beta = s_beta lam, that is when
    the pairing is 1.  No group lies one factor simple root below anything.
    The orbit size |W : W_lam| is read only for a candidate whose pairings
    are all below 2, the only ones that can survive at p = 0; elsewhere it
    is 0, which no verdict reads.
    """
    step = max(embeddings.ORBIT_CHUNK_ROWS // len(t.labels), 1)
    for start in range(0, len(lam_a), step):
        rows = slice(start, start + step)
        pair = lam_a[rows] @ t.coroots.T
        sizes = [
            charcalc._orbit_size_cached(e.ambient, tuple(c == 0 for c in lam)) if low else 0
            for lam, low in zip(lam_a[rows].tolist(), (pair < 2).all(axis=1).tolist())
        ]
        yield rows, np.array(sizes, dtype=np.int64), _Geometry(pair != 1, np.zeros((len(pair), len(t.lead)), bool))


def _scan_blocks(e: Embedding, t: _ChainTable, lam_a, lam_h_a):
    """The blocks of the route a scan of e takes: the maximal-torus
    normalizers', the large wreath products' or the whole group's."""
    if t.torus:
        return _torus_blocks(e, t, lam_a)
    h = _h_table(e)
    if h is not None:
        return _h_blocks(e, t, h, lam_h_a)
    return _walked_blocks(e, t, lam_h_a)


def scan_candidates(ambient: LieType, e: Embedding, chi: Characteristic, coeff_sum_bound: int, cap=None):
    """Classify all bounded dominant candidates for one embedding.

    p = 0: IRREDUCIBLE / REDUCIBLE / FILTERED (exact, via the branching
    oracle).  p > 0: FILTERED / UNRESOLVED (necessary conditions only).
    The candidates are restricted in one int64 product and screened by the
    necessary filters in blocks.  At p = 0 a survivor whose prediction's
    dimension sum differs from dim V is REDUCIBLE without a branching, since
    conservation gives an IRREDUCIBLE one exactly that sum; one whose sum
    agrees is IRREDUCIBLE without one where ``_branch_p0``'s rule holds.
    Only the rest (m > 1, no ``borel``) are branched, each after one
    ``clifford_prediction`` search; an IRREDUCIBLE candidate can meet
    ``cap``.  ``ambient`` must be ``e.ambient``, ``coeff_sum_bound`` a
    non-negative integer.
    """
    _require_ambient(ambient, e)
    if not isinstance(coeff_sum_bound, numbers.Integral) or coeff_sum_bound < 0:
        raise ValueError(f"coeff_sum_bound must be a non-negative integer, got {coeff_sum_bound!r}")
    return list(_scan_verdicts(e, chi, coeff_sum_bound, cap))


def _scan_verdicts(e: Embedding, chi: Characteristic, coeff_sum_bound: int, cap):
    """``scan_candidates`` one (lam, verdict) at a time, each yielded as it
    is decided, so that an error leaves the verdicts before it with the caller."""
    rs = e.root_system
    lams = dominant_weights_bounded(rs.rank, coeff_sum_bound, chi.p)
    # the candidates are non-negative: the one with the largest coefficient
    # sum passes the int64 guard only if every other one does
    t = _exact_chain_table(e, max(lams, key=sum, default=()))
    lam_a = np.array(lams, dtype=np.int64).reshape(len(lams), rs.rank)
    lam_h_a = lam_a @ e.restriction
    mults = _multiplicities(e, lam_h_a)
    for rows, sizes, geometry in _scan_blocks(e, t, lam_a, lam_h_a):
        m = mults[rows]
        filtered = _screen(e, chi, t, lam_a[rows] @ t.coroots.T, geometry, m[:, None]).filtered()
        # IRREDUCIBLE makes the dimension sum dim V (conservation), and it is
        # |orbit| * m * dim of lam_h: automorphisms of H^0 keep dimensions and
        # m is constant on the orbit; one ``weyl_dims`` call per factor and G
        live = np.flatnonzero(~filtered & (chi.p == 0))
        kappas = (sizes * m)[live].tolist()
        dims_h = charcalc.product_weyl_dims(e.factor_systems, lam_h_a[rows][live])
        dims_v = charcalc.weyl_dims(rs, lam_a[rows][live])
        agree = {i for i, k, d, v in zip(live.tolist(), kappas, dims_h, dims_v) if k * d == v}
        for i, (lam, out) in enumerate(zip(lams[rows], filtered.tolist())):
            if out:
                yield lam, FILTERED
            elif chi.p != 0:
                yield lam, UNRESOLVED
            elif i not in agree:
                yield lam, REDUCIBLE
            elif t.borel and m[i] == 1:  # the rule of ``_branch_p0``
                _checked_cap(e, lam, cap)
                yield lam, IRREDUCIBLE
            else:
                rep = _branch_p0(e, lam, clifford_prediction(e, tuple(lam_h_a[rows][i].tolist())), cap)
                yield lam, IRREDUCIBLE if rep.verdict == PASS else REDUCIBLE
