"""Branching verification engine.

At characteristic zero the composition factors of a restriction are computed
exactly from the H-dominant part of the restricted character: the Weyl orbit
of each dominant weight is pushed through the embedding once per embedding,
only its H-dominant images are kept, and their sum over the dominant weights
of W(lam) is decomposed into product Weyl characters, and the restriction is
irreducible exactly when those factors are the ones ``clifford_prediction``
predicts from the component orbit.  At positive characteristic only
necessary conditions (restriction-orbit membership, the h and ell invariants,
multiplicity bookkeeping) and closed-form dimension identities are evaluated;
anything beyond them is reported INCONCLUSIVE rather than guessed.

The necessary filters read a table built once per embedding: the diagram
chains beta of G, their coroot pairings, their images R beta and those images
in scaled factor root coordinates.  One int64 array step then tests every
certified chain weight against every element of the component orbit; a
weight too large for exact int64 arithmetic raises KernelCapacityError.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import charcalc, kernels
from .charcalc import Characteristic, freudenthal, weyl_dim
from .embeddings import (
    Embedding,
    GeomFamily,
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    ell_value,
    existence_ok,
    p_condition_ok,
    restrict_weight,
)
from .rootsys import (
    LieType,
    build_root_system,
    fundamental_weight,
    pairing,
    root_coords_to_weight,
)
from .weylgroup import orbit_cap

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


RESTRICTED_ORBIT_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=RESTRICTED_ORBIT_CACHE_SIZE)
def _h_dominant_orbit(ambient, family, mu, cap):
    """(weight, count) pairs: the H-dominant images of the Weyl orbit of mu.

    ``build_embedding`` is a pure function of (ambient, family), so those two
    name the restriction map.  H-dominant means every factor coordinate is
    non-negative; torus charges are free.
    """
    e = build_embedding(ambient, family)
    res = kernels.weyl_orbit_array(build_root_system(ambient), mu, cap=cap) @ e.restriction
    res = res[(res[:, : e.semisimple_rank] >= 0).all(axis=1)]
    return tuple(Counter(map(tuple, res.tolist())).items())


def restricted_multiset(rs, lam, e: Embedding, cap=None):
    """H-dominant part of the character of W(lam) restricted to H.

    Keys are restricted weights whose factor coordinates are all
    non-negative, values their multiplicities.  The restricted character is
    W_H-invariant, so this part fixes it.  ``cap`` bounds each full Weyl orbit
    enumerated on the way.
    """
    cap = orbit_cap() if cap is None else cap
    out = {}
    for mu, m in freudenthal(rs, lam).entries.items():
        for w, c in _h_dominant_orbit(e.ambient, e.family, mu, cap):
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


def branch_p0(rs, lam, e: Embedding, cap=None) -> BranchReport:
    """Exact composition factors of the restriction at p = 0.

    PASS exactly when they are ``clifford_prediction`` of the restricted lam;
    a FAIL carries one branch-structure-mismatch record with both maps.
    """
    lam = tuple(int(c) for c in lam)
    if any(c < 0 for c in lam) or not any(lam):
        raise ValueError("highest weight must be dominant and non-zero")
    multiset = restricted_multiset(rs, lam, e, cap=cap)
    factors = charcalc.weyl_character_subtract(e.factor_systems, multiset)
    dims = {}
    total = 0
    for hw, m in factors.items():
        d = charcalc.product_weyl_dim(e.factor_systems, hw)
        dims[hw] = d
        total += m * d
    expected = weyl_dim(rs, lam)
    if total != expected:
        # conservation is structural; a failure means a genuine bug
        raise AssertionError(
            f"branch conservation failed: {total} != {expected} for {rs.lie_type} {lam}"
        )
    predicted = clifford_prediction(e, restrict_weight(e, lam))
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
        beta = tuple(1 if k in nodes else 0 for k in range(n))
        coroot = tuple(pairing(rs, fundamental_weight(rs, i + 1), beta) for i in range(n))
        chains.append(((nodes[0] + 1, nodes[-1] + 1), coroot, root_coords_to_weight(rs, beta)))
    return tuple(chains)


class _ChainTable(NamedTuple):
    labels: tuple  # per chain: 1-based (first, last) node labels
    coroots: np.ndarray  # chains x rank: <lam, beta-coroot> = coroots @ lam
    betas: np.ndarray  # chains x rank: beta in weight coordinates
    images: np.ndarray  # chains x width: R beta
    scale: np.ndarray  # width x ss: a restricted weight -> its scaled factor root coordinates
    scaled_images: np.ndarray  # chains x ss: R beta through ``scale``
    inv_den: np.ndarray  # per semisimple coordinate: its factor's inv_den
    keys: np.ndarray  # chains x width: -(R beta) through ``scale`` mod inv_den, then its negated charges
    limit: int  # sum |lam_i| below this keeps every int64 value of a call exact


CHAIN_TABLE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def _chain_table(ambient, family):
    """The diagram chains of G and their images under the restriction of one embedding.

    ``build_embedding`` is a pure function of (ambient, family), so those two
    name the restriction map R.  ``scale`` is each factor's
    ``inv_cartan_scaled`` on its block, and zero on the torus charges.
    """
    e = build_embedding(ambient, family)
    chains = _diagram_chains(build_root_system(ambient))
    ss = e.semisimple_rank
    scale = np.zeros((e.width, ss), dtype=np.int64)
    for off, frs in zip(e.factor_offsets, e.factor_systems):
        scale[off:off + frs.rank, off:off + frs.rank] = frs.inv_cartan_scaled
    inv_den = np.array([frs.inv_den for frs in e.factor_systems for _ in range(frs.rank)], dtype=np.int64)
    coroots = np.array([c for _, c, _ in chains], dtype=np.int64)
    betas = np.array([beta for _, _, beta in chains], dtype=np.int64)
    images = betas @ e.restriction
    scaled_images = images @ scale
    # a call's int64 values are at most growth * sum|lam| + offset in size:
    # the pairings, lam_h = R lam, c - lam_h for c in its component orbit,
    # that difference through ``scale`` plus a chain image, and the sum of
    # the quotients over the semisimple coordinates
    terms = max(ss, 1)
    growth = max(
        int(np.abs(coroots).max()),
        terms * 2 * e.width * int(np.abs(e.restriction).max()) * max(int(np.abs(scale).max(initial=0)), 1),
    )
    offset = terms * int(np.abs(scaled_images).max(initial=0))
    return _ChainTable(
        labels=tuple(label for label, _, _ in chains),
        coroots=coroots,
        betas=betas,
        images=images,
        scale=scale,
        scaled_images=scaled_images,
        inv_den=inv_den,
        keys=np.concatenate((-scaled_images % inv_den, -images[:, ss:]), axis=1),
        limit=((1 << 63) - 1 - offset) // growth,
    )


def _exact_chain_table(e: Embedding, lam):
    """The chain table of e, once lam is known to keep its int64 products exact."""
    t = _chain_table(e.ambient, e.family)
    if sum(abs(c) for c in lam) >= t.limit:
        raise kernels.KernelCapacityError(
            f"filters({e.ambient}, {e.family}, {lam}): coordinates exceed the int64 range"
        )
    return t


def necessary_filters(rs, lam, e: Embedding, chi: Characteristic, predicted):
    """Disqualifying findings for the candidate highest weight lam.

    ``predicted`` is ``clifford_prediction`` of the restriction of lam: its
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
    residues, those of c - lam_h against those of -R beta, and every (chain,
    orbit element) pair is decided in one array step.
    """
    lam = rs.check_weight(lam)
    t = _exact_chain_table(e, lam)
    lam_a = np.array(lam, dtype=np.int64)
    lam_h_a = lam_a @ e.restriction
    lam_h = tuple(lam_h_a.tolist())
    orbit = list(predicted)
    pair = t.coroots @ lam_a
    keep = pair > 0
    if not charcalc.premet_applies(rs, chi):
        keep &= pair % chi.p != 0
    chains = np.flatnonzero(keep)
    ss = e.semisimple_rank
    diff = np.array(orbit, dtype=np.int64) - lam_h_a
    scaled = diff @ t.scale
    key = np.concatenate((scaled % t.inv_den, diff[:, ss:]), axis=1)  # residues, then charges
    # chains x orbit x coordinates
    under = (scaled[None] + t.scaled_images[chains, None] >= 0).all(axis=2) & (
        key[None] == t.keys[chains, None]
    ).all(axis=2)
    findings = []
    groups = {}
    for row, (k, mu, mu_h, hit) in enumerate(zip(
        chains.tolist(),
        (lam_a - t.betas[chains]).tolist(),
        (lam_h_a - t.images[chains]).tolist(),
        under.any(axis=1).tolist(),
    )):
        if hit:
            groups.setdefault(tuple(mu_h), []).append((row, mu))
            continue
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
    for mu_h, items in sorted(groups.items()):
        if len(items) < 2:
            continue
        rows = [row for row, _ in items]
        above = np.flatnonzero(under[rows].any(axis=0)).tolist()  # orbit elements above mu_h
        if len(above) != 1:
            continue
        (j,) = above
        # the number of factor simple roots in c0 - mu_h
        steps = (scaled[j] + t.scaled_images[chains[rows[0]]]) // t.inv_den
        if int(steps.sum()) != 1:
            continue
        capacity = predicted[orbit[j]]
        if len(items) > capacity:
            findings.append({
                "kind": "multiplicity-bound-exceeded",
                "target": list(mu_h),
                "witnesses": [mu for _, mu in items],
                "capacity": capacity,
            })
    return findings


def ford_condition_check(lam, n: int, chi: Characteristic) -> bool:
    """The three congruence conditions for the orthogonal-pair family on B_n."""
    if chi.p == 2:
        raise ValueError("condition undefined at p = 2")
    p = chi.p
    lam = tuple(int(c) for c in lam)
    if len(lam) != n:
        raise ValueError("weight length does not match the rank")
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

    The embedding is None when the p-condition already fails, so that it is
    only built for entries that get as far as the existence check.
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
    rs = build_root_system(entry.ambient)
    lam = tuple(int(c) for c in entry.lam)
    if p > 0 and any(c >= p for c in lam):
        rep.reasons.append({"kind": "not-p-restricted", "p": p})
        return rep
    _exact_chain_table(e, lam)  # the filters below are int64 array work
    predicted = clifford_prediction(e, restrict_weight(e, lam))
    if entry.expected_restriction is not None:
        expected = tuple(entry.expected_restriction)
        found = {c[: e.semisimple_rank] for c in predicted}
        if expected not in found:
            rep.verdict = FAIL
            rep.reasons.append({
                "kind": "restriction-mismatch",
                "expected": list(expected),
                "found": sorted(list(x) for x in found),
            })
            return rep
    kappa = sum(predicted.values())
    rep.kappa_found = kappa
    if entry.expected_kappa is not None and kappa != entry.expected_kappa:
        rep.verdict = FAIL
        rep.reasons.append({
            "kind": "kappa-mismatch",
            "expected": entry.expected_kappa,
            "found": kappa,
        })
        return rep
    findings = necessary_filters(rs, lam, e, chi, predicted)
    if findings:
        rep.verdict = FAIL
        rep.reasons.extend(findings)
        return rep
    if p == 0:
        return branch_p0(rs, lam, e, cap=cap)
    # positive characteristic: closed-form dimension identity or inconclusive
    dim_g = charcalc.irr_dim(rs, lam, chi)
    if dim_g is None:
        rep.reasons.append({"kind": "dimension-unknown", "side": "ambient"})
        return rep
    total = 0
    for c, mult in predicted.items():
        d = 1
        parts, _ = e.split(c)
        for f, (frs, part) in enumerate(zip(e.factor_systems, parts)):
            if any(x >= p for x in part):
                rep.reasons.append({"kind": "factor-not-p-restricted", "factor": f + 1})
                return rep
            df = charcalc.irr_dim(frs, part, chi)
            if df is None:
                rep.reasons.append({
                    "kind": "dimension-unknown",
                    "side": f"factor-{f + 1}",
                    "weight": list(part),
                })
                return rep
            d *= df
        total += mult * d
    rep.dim_lhs = dim_g
    rep.dim_rhs = total
    if dim_g == total:
        rep.verdict = PASS
        rep.reasons.append({"kind": "dimension-identity", "lhs": str(dim_g), "rhs": str(total)})
    else:
        rep.verdict = FAIL
        rep.reasons.append({"kind": "dimension-identity-failed", "lhs": str(dim_g), "rhs": str(total)})
    return rep


def dominant_weights_bounded(n, bound, p=0):
    """Non-zero dominant weights with coefficient sum <= bound (p-restricted if p > 0)."""
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
    return sorted(out)


IRREDUCIBLE = "IRREDUCIBLE"
REDUCIBLE = "REDUCIBLE"
FILTERED = "FILTERED"
UNRESOLVED = "UNRESOLVED"


def scan_candidates(ambient: LieType, e: Embedding, chi: Characteristic, coeff_sum_bound: int, cap=None):
    """Classify all bounded dominant candidates for one embedding.

    p = 0: IRREDUCIBLE / REDUCIBLE / FILTERED (exact, via the branching
    oracle).  p > 0: FILTERED / UNRESOLVED (necessary conditions only).
    """
    rs = build_root_system(ambient)
    results = []
    for lam in dominant_weights_bounded(ambient.rank, coeff_sum_bound, chi.p):
        findings = necessary_filters(rs, lam, e, chi, clifford_prediction(e, restrict_weight(e, lam)))
        if findings:
            results.append((lam, FILTERED))
            continue
        if chi.p != 0:
            results.append((lam, UNRESOLVED))
            continue
        rep = branch_p0(rs, lam, e, cap=cap)
        results.append((lam, IRREDUCIBLE if rep.verdict == PASS else REDUCIBLE))
    return results
