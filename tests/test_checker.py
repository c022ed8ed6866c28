"""Branching oracle, necessary filters, entry verification, scans."""

import dataclasses
import functools
import heapq
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chain_oracle
from test_acceptance import _p0_instances, _shipped_rows
from weylbranch import charcalc, checker, embeddings, kernels
from weylbranch.charcalc import Characteristic, freudenthal, premet_applies, weyl_dim
from weylbranch.checker import (
    ClassificationEntry,
    branch_p0,
    dominant_weights_bounded,
    ford_condition_check,
    necessary_filters,
    p_condition_ok,
    restricted_multiset,
    scan_candidates,
    verify_entry,
)
from weylbranch.embeddings import (
    build_embedding,
    central_multiplicity,
    component_orbit_set,
    ell_value,
    geom_family,
    restrict_weight,
)
from weylbranch.kernels import orbit_size
from weylbranch.rootsys import (
    LieType,
    RootSystem,
    build_root_system,
    minimal_weights,
    scaled_root_coords,
)
from weylbranch.tables import instantiate_rows

P0 = Characteristic(0)
P0_INSTANCES = [(ambient, e) for ambient, _, e in _p0_instances(4)]


@st.composite
def p0_cases(draw):
    """(ambient root system, embedding, non-zero lam with coefficient sum <= 2)."""
    ambient, e = draw(st.sampled_from(P0_INSTANCES))
    lam = draw(st.sampled_from(dominant_weights_bounded(ambient.rank, 2)))
    return build_root_system(ambient), e, lam


@functools.lru_cache(maxsize=2048)
def _full_character_cached(t, lam):
    rs = build_root_system(t)
    out = {}
    for dom, m in freudenthal(rs, lam).entries.items():
        for row in kernels.weyl_orbit_array(rs, dom).tolist():
            out[tuple(row)] = m
    return out


def full_character(rs, lam):
    """The complete W-invariant weight multiset of W(lam), kept as an oracle:
    every weight of every Weyl orbit, where the package reads only the
    dominant ones."""
    return _full_character_cached(rs.lie_type, tuple(int(c) for c in lam))


def full_restricted_multiset(rs, lam, e):
    """The whole character of W(lam) pushed through the restriction map.

    The former body of ``restricted_multiset``, kept as an oracle: every
    weight of every Weyl orbit, H-dominant or not.
    """
    out = {}
    for dom, m in sorted(freudenthal(rs, lam).entries.items()):
        res = kernels.weyl_orbit_array(rs, dom) @ e.restriction
        uniq, counts = np.unique(res, axis=0, return_counts=True)
        for row, c in zip(uniq.tolist(), counts.tolist()):
            key = tuple(row)
            out[key] = out.get(key, 0) + m * c
    return out


def full_route(rs, lam, e):
    """The former p = 0 decomposition, kept as an oracle: (highest weight,
    multiplicity) per factor, the highest first.

    Full product characters (every weight of every factor's Weyl orbits) are
    subtracted from the full restricted multiset, taking the highest
    remaining weight off a heap ordered by height in the factor root lattices.
    """
    remaining = full_restricted_multiset(rs, lam, e)
    # den times the height, as ints: a heap of Fractions compares slowly
    den = math.lcm(*(f.inv_den for f in e.factor_systems))
    scale = [den // f.inv_den * h for f in e.factor_systems for h in f.weight_heights] + [0] * e.torus_rank
    keys = list(remaining)
    heights = (np.array(keys, dtype=np.int64).reshape(len(keys), e.width) @ np.array(scale, dtype=np.int64)).tolist()
    heap = [(-h, tuple(-c for c in k), k) for h, k in zip(heights, keys)]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)[2]
        mult = remaining[key]
        if not mult:
            continue
        parts, charge = e.split(key)
        assert all(c >= 0 for part in parts for c in part), key
        chars = [full_character(f, part).items() for f, part in zip(e.factor_systems, parts)]
        for combo in itertools.product(*chars):
            w = tuple(x for wt, _ in combo for x in wt) + charge
            remaining[w] = remaining.get(w, 0) - mult * math.prod(m for _, m in combo)
            assert remaining[w] >= 0, w
        yield key, mult


def full_route_factors(rs, lam, e):
    """``full_route`` as a factor map."""
    return dict(full_route(rs, lam, e))


@settings(max_examples=100, deadline=None)
@given(p0_cases())
def test_branch_matches_full_route(case):
    rs, e, lam = case
    assert branch_p0(rs, lam, e).factors == full_route_factors(rs, lam, e)


@settings(max_examples=60, deadline=None)
@given(p0_cases())
def test_restricted_multiset_is_weyl_invariant(case):
    rs, e, lam = case
    multiset = full_restricted_multiset(rs, lam, e)
    for f, (frs, off) in enumerate(zip(e.factor_systems, e.factor_offsets)):
        for i in range(frs.rank):
            reflected = {}
            for key, m in multiset.items():
                w = list(key)
                k = key[off + i]
                for j in range(frs.rank):
                    w[off + j] -= k * frs.cartan[i][j]
                reflected[tuple(w)] = m
            assert reflected == multiset, (e.family, lam, f, i)


@pytest.mark.parametrize("tag", sorted({e.family.tag for _, e in P0_INSTANCES}))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_restricted_multiset_is_h_dominant_part(tag, data):
    ambient, e = data.draw(st.sampled_from([(a, e) for a, e in P0_INSTANCES if e.family.tag == tag]))
    rs = build_root_system(ambient)
    lam = data.draw(st.sampled_from(dominant_weights_bounded(ambient.rank, 2)))
    full = full_restricted_multiset(rs, lam, e)
    dominant = {w: m for w, m in full.items() if all(c >= 0 for c in w[: e.semisimple_rank])}
    assert restricted_multiset(e, lam) == dominant


def test_over_cap_table_enumerates_no_orbit(monkeypatch):
    # the Freudenthal table knows every orbit size of W(lam), so a table with
    # an orbit past the cap is refused before the first orbit is walked
    rs = build_root_system(LieType("B", 3))
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    lam = (1, 0, 1)
    table = freudenthal(rs, lam)
    largest = table.largest_orbit
    assert largest == max(orbit_size(rs, mu).orbit_size for mu in table.entries) == 24
    walk = kernels.weyl_orbit_array
    calls = []
    monkeypatch.setattr(kernels, "weyl_orbit_array", lambda *args, **kw: calls.append(args[1]) or walk(*args, **kw))
    with pytest.raises(kernels.KernelCapacityError, match=f"{largest} elements, cap {largest - 1}"):
        branch_p0(rs, lam, e, cap=largest - 1)
    assert calls == []
    rep = branch_p0(rs, lam, e, cap=largest)
    assert rep.dim_rhs == rep.dim_lhs == 48
    assert sorted(calls) == sorted(table.entries)


def test_rule_keeps_the_cap_refusal(monkeypatch):
    # the rule of _branch_p0 decides B3 c1:Dn's spin module without a
    # restriction, and still refuses it past the cap with the branching's
    # message, in branch_p0 and in a scan, whose first candidate it is
    ambient = LieType("B", 3)
    rs, e = build_root_system(ambient), build_embedding(ambient, geom_family("c1", sub="Dn"))
    assert freudenthal(rs, (0, 0, 1)).largest_orbit == 8
    monkeypatch.setattr(checker, "restricted_multiset", lambda *args, **kw: pytest.fail("restricted"))
    refusal = r"^restrict\(B3, \(0, 0, 1\)\): W\(lam\) has a Weyl orbit of 8 elements, cap 7$"
    with pytest.raises(kernels.KernelCapacityError, match=refusal):
        branch_p0(rs, (0, 0, 1), e, cap=7)
    with pytest.raises(kernels.KernelCapacityError, match=refusal):
        scan_candidates(ambient, e, P0, 1, cap=7)
    assert branch_p0(rs, (0, 0, 1), e, cap=8).verdict == "PASS"
    assert dict(scan_candidates(ambient, e, P0, 1, cap=8))[(0, 0, 1)] == "IRREDUCIBLE"


def _scaled_coords(e, w):
    """(charges, scaled root coordinates of every factor part, concatenated)."""
    parts, charges = e.split(w)
    return charges, tuple(x for rs, a in zip(e.factor_systems, parts) for x in scaled_root_coords(rs, a))


def _chain_weights(rs, lam, chi):
    """lam minus each diagram chain whose pairing certifies it, as (label, weight)."""
    out = []
    saturated = premet_applies(rs, chi)
    labels, coroots, betas = checker._chain_blocks(rs)
    for label, coroot, beta_w in zip(labels, coroots.tolist(), betas.tolist()):
        c = sum(a * b for a, b in zip(coroot, lam))
        if c <= 0 or (not saturated and c % chi.p == 0):
            continue
        out.append((label, tuple(a - b for a, b in zip(lam, beta_w))))
    return out


def scalar_necessary_filters(rs, lam, e, chi):
    """The former body of ``necessary_filters``, kept as an oracle.

    One chain at a time: each chain weight is restricted with
    ``restrict_weight`` and compared with every component-orbit element in
    scaled factor root coordinates over Python ints.
    """
    lam = tuple(int(c) for c in lam)
    lam_h = restrict_weight(e, lam)
    orbit = component_orbit_set(e, lam_h)
    dens = [frs.inv_den for frs in e.factor_systems for _ in range(frs.rank)]
    scaled_orbit = [(c, *_scaled_coords(e, c)) for c in orbit]
    findings = []
    groups = {}
    for chain, mu in _chain_weights(rs, lam, chi):
        mu_h = restrict_weight(e, mu)
        ch, sw = _scaled_coords(e, mu_h)
        above = {
            c: sum((a - b) // q for a, b, q in zip(sc, sw, dens))
            for c, chc, sc in scaled_orbit
            if chc == ch and all(a >= b and (a - b) % q == 0 for a, b, q in zip(sc, sw, dens))
        }
        if not above:
            finding = {
                "kind": "restriction-not-under-orbit",
                "chain": list(chain),
                "mu": list(mu),
                "h_mu": int(sum(mu_h[: e.semisimple_rank])),
                "h_lam": int(sum(lam_h[: e.semisimple_rank])),
            }
            if e.family.tag == "c4ii":
                try:
                    ell, _ = ell_value(e, mu_h, lam_h, tuple(range(len(e.factors))))
                    finding["ell"] = str(ell)
                except ValueError:
                    pass
            findings.append(finding)
        else:
            groups.setdefault(mu_h, []).append((chain, mu, above))
    for mu_h, items in sorted(groups.items()):
        if len(items) < 2:
            continue
        conjs = set()
        for _, _, above in items:
            conjs.update(above)
        if len(conjs) != 1:
            continue
        (c0,) = conjs
        if items[0][2][c0] != 1:
            continue
        capacity = central_multiplicity(e, c0)
        if len(items) > capacity:
            findings.append({
                "kind": "multiplicity-bound-exceeded",
                "target": list(mu_h),
                "witnesses": [list(mu) for _, mu, _ in items],
                "capacity": capacity,
            })
    return findings


FILTER_INSTANCES = [(ambient, e) for ambient, _, e in _p0_instances(5)]
FILTER_PRIMES = (0, 2, 3, 5, 7)


def _assert_plain(value):
    # records are written by json.dumps: no numpy scalar may reach them
    if isinstance(value, dict):
        for k, v in value.items():
            assert type(k) is str, k
            _assert_plain(v)
    elif isinstance(value, list):
        for v in value:
            _assert_plain(v)
    else:
        assert type(value) in (int, str), (value, type(value))


def test_filters_match_scalar_oracle():
    # each weight's cached record is first filled at p = 0 and then at p = 7,
    # so every other characteristic reads a record filled at another p.  Up
    # to rank 8 only D6 c2:kind=Bl,l=1,t=4 has multiplicity-bound findings
    # of capacity 2 (m = 2, from its central 2-part), so it is compared too
    d6 = LieType("D", 6)
    cases, capacities = 0, Counter()
    for ambient, e in FILTER_INSTANCES + [(d6, build_embedding(d6, geom_family("c2", kind="Bl", l=1, t=4)))]:
        rs = build_root_system(ambient)
        for w in dominant_weights_bounded(ambient.rank, 3):
            expected = {p: scalar_necessary_filters(rs, w, e, Characteristic(p)) for p in FILTER_PRIMES}
            for primes in (FILTER_PRIMES, FILTER_PRIMES[::-1]):
                checker._entry_record.cache_clear()
                for p in primes:
                    got = necessary_filters(e, w, Characteristic(p))
                    assert got == expected[p], (ambient, e.family, w, p, primes[0])
                    for finding in got:
                        _assert_plain(finding)
                        capacities[finding.get("capacity")] += 1
                    cases += 1
    assert len(FILTER_INSTANCES) == 42 and cases == (1532 + 83) * len(FILTER_PRIMES) * 2
    # twelve findings of capacity 2 at each p, all on D6
    assert capacities[2] == 12 * len(FILTER_PRIMES) * 2 > 0, capacities


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_filters_match_scalar_oracle_on_large_weights(data):
    ambient, e = data.draw(st.sampled_from(FILTER_INSTANCES))
    coeff = st.one_of(st.integers(0, 12), st.integers(0, 1 << 40))
    w = tuple(data.draw(st.lists(coeff, min_size=ambient.rank, max_size=ambient.rank)))
    chi = Characteristic(data.draw(st.sampled_from(FILTER_PRIMES)))
    rs = build_root_system(ambient)
    got = necessary_filters(e, w, chi)
    assert got == scalar_necessary_filters(rs, w, e, chi)
    for finding in got:
        _assert_plain(finding)


def dense_geometry(e, t, lam_h_a, orbit, sizes):
    """The former ``_geometry``, kept as an oracle: every (candidate, orbit
    element) row is tested against every chain across the whole width, in
    one dense rows x chains x width product, and ``reduceat`` folds the rows
    into (above, geometry).  A group is single where the one element over
    its image lies one factor simple root above it, counted on that row."""
    ss = e.semisimple_rank
    starts = np.cumsum(sizes) - sizes
    diff = orbit - np.repeat(lam_h_a, sizes, axis=0)
    scaled = diff @ t.scale
    key = np.concatenate((scaled % t.inv_den, diff[:, ss:]), axis=1)  # residues, then charges
    keys = np.concatenate((-t.scaled_images % t.inv_den, -t.images[:, ss:]), axis=1)
    under = (scaled[:, None] >= -t.scaled_images).all(axis=2) & (key[:, None] == keys).all(axis=2)
    above = np.add.reduceat(under, starts, axis=0, dtype=np.int64)
    single = np.zeros((len(sizes), len(t.lead)), dtype=bool)
    cand, grp = np.nonzero(above[:, t.lead] == 1)
    if cand.size:
        lead = t.lead[grp]
        row = np.add.reduceat(under * np.arange(len(orbit))[:, None], starts, axis=0)[cand, lead]
        steps = ((scaled[row] + t.scaled_images[lead]) // t.inv_den).sum(axis=1)
        single[cand, grp] = steps == 1
    return above, checker._Geometry(above == 0, single)


def _assert_same_geometry(above, args):
    """``above``, counted for ``args``, and the geometry ``_geometry`` reads
    off it equal the dense oracle's, field by field."""
    oracle_above, oracle = dense_geometry(*args)
    assert above.shape == oracle_above.shape and (above == oracle_above).all(), (args[0].family, "above")
    for name, a, b in zip(checker._Geometry._fields, checker._geometry(args[1], above), oracle):
        assert a.shape == b.shape and a.dtype == b.dtype and (a == b).all(), (args[0].family, name)


def _check_geometry(monkeypatch):
    """Check every ``_key_match`` call against the dense oracle; the list it
    returns gets (candidates, orbit rows) of each call."""
    key_match, calls = checker._key_match, []

    def checked(*args):
        got = key_match(*args)
        _assert_same_geometry(got, args)
        # a block's candidates are the rows of its lam_h_a, the third
        # argument, and its orbit rows those of ``orbit``, the fourth
        calls.append((len(args[2]), len(args[3])))
        return got

    monkeypatch.setattr(checker, "_key_match", checked)
    return calls


def _check_routes(monkeypatch, dense=True):
    """Hook the three scan routes: every block makes at most
    ORBIT_CHUNK_ROWS rows (per candidate its whole-group images, its tested
    weights or its pairings) unless it holds one candidate, and with
    ``dense`` its ``above`` counts equal the dense oracle's on the orbits of
    the oracle's chain walk.  The list it returns gets (route, candidates,
    rows, single groups) of each block."""
    blocks = []

    def hook(name, made):
        route = getattr(checker, name)

        def checked(e, t, *args):
            above, sizes = route(e, t, *args)
            n, rows = len(above), made(e, t, *args)
            assert rows <= embeddings.ORBIT_CHUNK_ROWS or n == 1, (e.family, name, n, rows)
            blocks.append((name, n, rows, int(checker._geometry(t, above).single.sum())))
            if dense:
                lam_h_a = args[0] @ e.restriction if name == "_torus_above" else args[-1]
                orbit, oracle_sizes = chain_oracle.component_orbit_block(e, lam_h_a)
                _assert_same_geometry(above, (e, t, lam_h_a, orbit, oracle_sizes))
                # a torus size of 0 is read by no verdict
                assert ((sizes == oracle_sizes) | (sizes == 0)).all(), (e.family, name)
            return above, sizes

        monkeypatch.setattr(checker, name, checked)

    hook("_whole_group_above", lambda e, t, lam_h_a: len(lam_h_a) * len(embeddings.component_group(e)[0]))
    hook("_h_above", lambda e, t, h, lam_h_a: len(lam_h_a) * len(h.shifts))
    hook("_torus_above", lambda e, t, lam_a, pair: pair.size)
    return blocks


def test_geometry_matches_dense_oracle_on_entries(monkeypatch):
    # every entry record of shipped:all up to rank 8 at p = 0, 2, 3, 5 and
    # 7: the single weights that verify_entry reads
    calls = _check_geometry(monkeypatch)
    checker._entry_record.cache_clear()
    records = _entry_records()
    for e, lam in records:
        checker._entry_record(e, lam)
    assert len(calls) == len(records) == 433
    assert {count for count, _ in calls} == {1}


def test_geometry_matches_dense_oracle_on_a_torus_normalizer():
    # three blocks of the D8 torus normalizer: no semisimple coordinate, so
    # the key is eight charges; a block of nine candidates, then single
    # candidates of 1 792 and 3 584 rows.  Its 2^7 * 8! elements are past
    # the whole-group step, so the oracle's chain walks them
    ambient = LieType("D", 8)
    e = build_embedding(ambient, geom_family("c2", kind="Dl", l=1, t=8))
    assert e.semisimple_rank == 0
    t = checker._chain_table(e)
    lam_a = np.array(dominant_weights_bounded(8, 3), dtype=np.int64)
    lam_h_a = lam_a @ e.restriction
    rows = []
    for block in (slice(0, 9), slice(9, 10), slice(10, 11)):
        orbit, sizes = chain_oracle.component_orbit_block(e, lam_h_a[block])
        args = (e, t, lam_h_a[block], orbit, sizes)
        _assert_same_geometry(checker._key_match(*args), args)
        rows.append(len(orbit))
    assert rows[1:] == [1792, 3584]


def test_geometry_key_spans_several_columns(monkeypatch):
    # a radix too large to pack two digits into one int64 gives each key
    # digit its own column, so the match runs over every column
    instances = FILTER_INSTANCES[::4]
    checker._key_table.cache_clear()
    checker._entry_record.cache_clear()
    try:
        key_weights = kernels._key_weights
        with monkeypatch.context() as m:
            m.setattr(kernels, "_key_weights", lambda n, radix: key_weights(n, (1 << 31) + 1))
            keys = [checker._key_table(e) for _, e in instances]
        assert [k.keys.shape[1] for k in keys] == [e.width for _, e in instances]
        tables = [checker._chain_table(e) for _, e in instances]
        assert max(e.width for _, e in instances) >= 4
        calls = _check_geometry(monkeypatch)
        for ambient, e in instances:
            for p in (0, 3):
                scan_candidates(ambient, e, Characteristic(p), 3)
        # the three maximal-torus normalizers among them match no key
        torus = [(ambient, e) for (ambient, e), t in zip(instances, tables) if t.torus]
        assert len(torus) == 3 and len(calls) == 16
        # forced onto the general path, their charge keys are matched too
        with monkeypatch.context() as m:
            _force_general_path(m)
            for ambient, e in torus:
                for p in (0, 3):
                    scan_candidates(ambient, e, Characteristic(p), 3)
        assert len(calls) == 16 + 6
    finally:
        checker._key_table.cache_clear()
        checker._entry_record.cache_clear()


def screened_filters(e, lam, chi):
    """The former ``necessary_filters``, kept as an oracle: it screens the
    record's geometry at p on every call, also where Premet applies."""
    lam = e.root_system.check_weight(lam)
    record = checker._entry_record(e, lam)
    t, lam_h_a = record.table, record.lam_h
    s = checker._screen(e, chi, t, record.pair, record.geometry, record.m)
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


def _entry_records():
    """The (embedding, lam) of every entry record that ``verify_entry``
    builds for shipped:all up to rank 8 at the ``FILTER_PRIMES``."""
    records = set()
    for p in FILTER_PRIMES:
        for entry in instantiate_rows(_shipped_rows(), 8, Characteristic(p), pattern_bound=3):
            e, reason = checker.entry_gate(entry, p)
            lam = tuple(entry.lam)
            if reason is None and (p == 0 or max(lam) < p):
                records.add((e, lam))
    return records


@functools.lru_cache(maxsize=None)
def _scalar_filtered(ambient, family, w, p):
    e = build_embedding(ambient, family)
    return bool(scalar_necessary_filters(build_root_system(ambient), w, e, Characteristic(p)))


# (ambient, embedding, coefficient sum bound); B7 c1:Dn adds a rank where
# nearly every unfiltered candidate is decided by its dimension sum
SCAN_ORACLE_INSTANCES = [(ambient, e, 3) for ambient, e in FILTER_INSTANCES] + [
    (LieType("B", 7), build_embedding(LieType("B", 7), geom_family("c1", sub="Dn")), 2)
]


@functools.lru_cache(maxsize=None)
def _full_route_irreducible(ambient, family, w):
    """Whether the full route's factors are the prediction; it stops at the
    first factor that is not."""
    e = build_embedding(ambient, family)
    predicted = checker.clifford_prediction(e, restrict_weight(e, w))
    found = 0
    for key, mult in full_route(build_root_system(ambient), w, e):
        if predicted.get(key) != mult:
            return False
        found += 1
    return found == len(predicted)


@pytest.mark.parametrize("chunk_rows", [1, embeddings.ORBIT_CHUNK_ROWS])
def test_scan_matches_scalar_oracle(monkeypatch, chunk_rows):
    # the block screen against the one-chain-at-a-time oracle, which shares
    # no code with it, and every p = 0 verdict against the full route, which
    # shares no code with the dimension tests or the rule of _branch_p0; on
    # orbit chunks of one candidate and at the default size
    monkeypatch.setattr(embeddings, "ORBIT_CHUNK_ROWS", chunk_rows)
    # every block's key-match geometry equals the dense oracle's, and every
    # block of every route makes at most chunk_rows rows or holds one candidate
    blocks = _check_geometry(monkeypatch)
    routes = _check_routes(monkeypatch, dense=False)
    walked = 0
    for ambient, e, bound in SCAN_ORACLE_INSTANCES:
        for p in FILTER_PRIMES:
            res = scan_candidates(ambient, e, Characteristic(p), bound)
            assert [w for w, _ in res] == dominant_weights_bounded(ambient.rank, bound, p)
            filtered = {w for w, v in res if v == "FILTERED"}
            assert filtered == {w for w, _ in res if _scalar_filtered(ambient, e.family, w, p)}, (ambient, e.family, p)
            for w, v in res:
                if v == "FILTERED":
                    continue
                if p:
                    assert v == "UNRESOLVED"
                else:
                    assert v == ("IRREDUCIBLE" if _full_route_irreducible(ambient, e.family, w) else "REDUCIBLE")
            walked += not checker._chain_table(e).torus  # the scans that walk their orbits
    # the screen reads each orbit chunk whole: at most ORBIT_CHUNK_ROWS
    # orbit rows, or one candidate; only the scans make blocks here, and the
    # maximal-torus normalizers make none (their screen reads the pairings)
    assert all(rows <= chunk_rows or count == 1 for count, rows in blocks)
    assert len(blocks) == (5886 if chunk_rows == 1 else 180)
    counts = [count for count, _ in blocks]
    if chunk_rows == 1:
        assert set(counts) == {1}
    else:
        # each scan that walks its orbits is one block, and some block holds
        # several candidates; only the maximal-torus normalizers, which walk
        # none now, spanned several (the forced general path still does, in
        # test_torus_scan_matches_the_general_path)
        assert len(blocks) == walked == 180 and max(counts) > 1
    # the 35 torus scans read their pairings a candidate at a time, or whole
    torus = 901 if chunk_rows == 1 else 35
    assert Counter(name for name, *_ in routes) == {"_whole_group_above": len(blocks), "_torus_above": torus}


def test_record_decision_matches_the_screen_at_p():
    # where Premet applies the record's p = 0 decision stands for p; the
    # oracle screens at p every time.  On the entry records of shipped:all
    # and every scan candidate; at p = 2 on B and C the decision can differ
    # from p = 0, so a record read there in place of the screen fails here
    records = _entry_records()
    assert len(records) == 433
    cases = sorted(records, key=repr) + [
        (e, w) for ambient, e, bound in SCAN_ORACLE_INSTANCES for w in dominant_weights_bounded(ambient.rank, bound)
    ]
    differ = set()
    for e, w in cases:
        got = {p: necessary_filters(e, w, Characteristic(p)) for p in FILTER_PRIMES}
        for p in FILTER_PRIMES:
            assert got[p] == screened_filters(e, w, Characteristic(p)), (e.ambient, e.family, w, p)
        if bool(got[2]) != bool(got[0]):
            differ.add((e.ambient, e.family, w))
    assert {ambient.family for ambient, _, _ in differ} == {"B", "C"}
    assert (LieType("B", 3), geom_family("c1", sub="Dn"), (0, 1, 0)) in differ


def _record_branchings(monkeypatch):
    """The weights ``_branch_p0`` is called on, in call order."""
    branch = checker._branch_p0
    calls = []
    monkeypatch.setattr(checker, "_branch_p0", lambda e, lam, *args: calls.append(lam) or branch(e, lam, *args))
    return calls


def test_scan_branches_only_where_the_dimensions_agree(monkeypatch):
    # a survivor whose prediction's dimension sum differs from dim V is
    # REDUCIBLE without a branching; one whose sum agrees is IRREDUCIBLE
    # without one where the rule of _branch_p0 holds.  B5 c1:Dn has 15
    # unfiltered candidates at bound 3 and branches none of them
    calls = _record_branchings(monkeypatch)
    ambient = LieType("B", 5)
    res = scan_candidates(ambient, build_embedding(ambient, geom_family("c1", sub="Dn")), P0, 3)
    assert sum(v != "FILTERED" for _, v in res) == 15
    assert calls == [] and dict(res)[(0, 0, 0, 0, 1)] == "IRREDUCIBLE"
    # two models without borel, each with a candidate of multiplicity 2,
    # branch exactly their unfiltered candidates whose dimensions agree
    b4 = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    d6 = build_embedding(LieType("D", 6), geom_family("c2", kind="Bl", l=1, t=4))
    scans = {}
    for e in (b4, d6):
        assert not checker._chain_table(e).borel
        calls.clear()
        res = scans[e] = scan_candidates(e.ambient, e, P0, 3)
        agree, mults = [], set()
        for w, v in res:
            predicted = checker.clifford_prediction(e, restrict_weight(e, w))
            dims = charcalc.product_weyl_dims(e.factor_systems, list(predicted))
            if v != "FILTERED" and sum(m * d for m, d in zip(predicted.values(), dims)) == weyl_dim(e.root_system, w):
                agree.append(w)
                mults.add(next(iter(predicted.values())))
        assert calls == agree and mults == {1, 2}, e.family
    # with borel forced on B4 c2:l=1,t=3, its m = 1 candidate (1,0,0,0) is
    # decided by the rule, and its m = 2 one is still branched
    monkeypatch.setattr(checker, "_chain_table", lambda e, table=checker._chain_table: table(e)._replace(borel=True))
    calls.clear()
    assert scan_candidates(b4.ambient, b4, P0, 3) == scans[b4]
    assert calls == [(0, 0, 0, 1)]


def test_rule_decided_candidates_match_the_full_route(monkeypatch):
    # every candidate that a scan decides IRREDUCIBLE by the rule of
    # _branch_p0, with no branching, on every instance up to rank 6 at
    # bound 3: its factors by the full route, which shares no code with the
    # rule, are its prediction, and branch_p0 reports it as the branching
    # does when the rule is switched off
    calls = _record_branchings(monkeypatch)
    decided = []
    for ambient, _, e in _p0_instances(6):
        calls.clear()
        decided += [(e, w) for w, v in scan_candidates(ambient, e, P0, 3) if v == "IRREDUCIBLE" and w not in calls]
    monkeypatch.undo()
    reports = [branch_p0(e.root_system, w, e) for e, w in decided]
    monkeypatch.setattr(checker, "_chain_table", lambda e, table=checker._chain_table: table(e)._replace(borel=False))
    for (e, w), rep in zip(decided, reports):
        predicted = checker.clifford_prediction(e, restrict_weight(e, w))
        assert full_route_factors(e.root_system, w, e) == predicted, (e.ambient, e.family, w)
        assert rep == branch_p0(e.root_system, w, e) and rep.verdict == "PASS", (e.ambient, e.family, w)
    assert len(decided) == 104


def test_borel_flag():
    # over every instance up to rank 12, the highest weight vector of V is
    # B_H-highest except on ten c2 B_l^t models with paired zero weights;
    # read from the positive roots in root coordinates, not from the table
    from test_embeddings import INSTANCES_12

    def weights(rs, roots):
        return np.array(roots, dtype=np.int64).reshape(-1, rs.rank) @ np.array(rs.cartan, dtype=np.int64)

    failing = set()
    for e in INSTANCES_12:
        h_roots = np.zeros((0, e.width), dtype=np.int64)
        for off, frs in zip(e.factor_offsets, e.factor_systems):
            block = np.zeros((len(frs.positive_roots), e.width), dtype=np.int64)
            block[:, off:off + frs.rank] = weights(frs, frs.positive_roots)
            h_roots = np.concatenate((h_roots, block))
        positive = set(map(tuple, h_roots.tolist()))
        images = weights(e.root_system, e.root_system.positive_roots) @ e.restriction
        if positive & {tuple(-x for x in row) for row in images.tolist()}:
            failing.add((str(e.ambient), str(e.family)))
        # every generator keeps the positive roots of H^0 positive
        for idx, sgn in e.generators:
            assert {tuple(s * w[i] for i, s in zip(idx, sgn)) for w in positive} == positive, e.family
        assert checker._chain_table(e).borel == ((str(e.ambient), str(e.family)) not in failing)
    assert len(INSTANCES_12) == 232
    assert failing == {
        ("B4", "c2:l=1,t=3"), ("B7", "c2:l=2,t=3"), ("B7", "c2:l=1,t=5"), ("B10", "c2:l=3,t=3"),
        ("B10", "c2:l=1,t=7"), ("B12", "c2:l=2,t=5"), ("D6", "c2:kind=Bl,l=1,t=4"),
        ("D9", "c2:kind=Bl,l=1,t=6"), ("D10", "c2:kind=Bl,l=2,t=4"), ("D12", "c2:kind=Bl,l=1,t=8"),
    }
    # R composed with a simple reflection of one factor of H^0 takes a
    # positive root of G to the negative of that factor's simple root
    e = build_embedding(LieType("B", 5), geom_family("c1", sub="Dn"))
    assert checker._chain_table(e).borel
    frs, off = e.factor_systems[0], e.factor_offsets[0]
    reflect = np.eye(e.width, dtype=np.int64)
    reflect[off, off:off + frs.rank] -= frs.cartan[0]
    mutated = dataclasses.replace(e, restriction=e.restriction @ reflect)
    assert not checker._chain_table(mutated).borel


def _torus_instances():
    """The instances up to rank 12 whose H^0 is a maximal torus, read from
    the embedding and not from the chain table."""
    from test_embeddings import INSTANCES_12

    return [e for e in INSTANCES_12 if e.semisimple_rank == 0]


def _walk_with_the_oracle(monkeypatch):
    """Walk the whole group's route with the oracle's stabilizer chain, for
    a group of any order.  The scan reads only |A| of ``component_group``,
    to size its blocks, so the oracle's order stands in for the group."""
    monkeypatch.setattr(checker, "component_orbits", chain_oracle.component_orbit_block)
    monkeypatch.setattr(embeddings, "component_group", lambda e: (range(chain_oracle.chain_order(e)), None))


def _force_general_path(monkeypatch):
    """Scan the maximal-torus normalizers as every other embedding: walk
    their component orbits and match keys in ``_key_match``.  Most of their
    groups are past the whole-group step, so the oracle's stabilizer chain
    walks them."""
    monkeypatch.setattr(checker, "_chain_table", lambda e, table=checker._chain_table: table(e)._replace(torus=False))
    _walk_with_the_oracle(monkeypatch)


# the largest orbit compared element by element with its Weyl orbit
TORUS_ORBIT_LIMIT = 2000


def _assert_torus_orbit(e, lam):
    rs = e.root_system
    if orbit_size(rs, lam).orbit_size <= TORUS_ORBIT_LIMIT:
        rows = kernels.weyl_orbit_array(rs, lam) @ e.restriction
        assert component_orbit_set(e, restrict_weight(e, lam)) == sorted(map(tuple, rows.tolist())), (e.family, lam)
        return True
    return False


def _simple_reflection_rows(e):
    """Per generator g, the row i of R that g moves where g R = s_i R (s_i
    on weight rows: only the image of omega_i changes, by the image of
    alpha_i), or -1 where g acts as no simple reflection."""
    images = np.array(e.simple_root_images, dtype=np.int64)
    rows = []
    for idx, sgn in e.generators:
        diff = e.restriction - e.restriction[:, list(idx)] * np.array(sgn)
        moved = np.flatnonzero(diff.any(axis=1))
        rows.append(int(moved[0]) if len(moved) == 1 and (diff[moved[0]] == images[moved[0]]).all() else -1)
    return rows


def test_torus_flag_marks_the_maximal_torus_normalizers():
    # up to rank 12 the flag holds on exactly the 21 instances whose H^0 is
    # a torus, N_G(T) of A_n as n + 1 lines and of D_n as n planes, none
    # with a central 2-part.  There each generator acts on R's rows as one
    # simple reflection of G, every one among them, the component group has
    # |W(G)| elements, R has rank n and takes W lam onto the component orbit
    # of R lam: checked on every dominant lam with coefficient sum <= 2
    # whose orbit has at most TORUS_ORBIT_LIMIT elements
    from test_embeddings import INSTANCES_12

    torus = _torus_instances()
    assert [e for e in INSTANCES_12 if checker._chain_table(e).torus] == torus
    assert {(str(e.ambient), str(e.family)) for e in torus} == (
        {(f"A{n}", f"c2:l=0,t={n + 1}") for n in range(1, 13)}
        | {(f"D{n}", f"c2:kind=Dl,l=1,t={n}") for n in range(4, 13)}
    )
    compared = 0
    for e in torus:
        assert not e.central2
        assert sorted(_simple_reflection_rows(e)) == list(range(e.ambient.rank)), (e.ambient, e.family)
        assert chain_oracle.chain_order(e) == e.root_system.weyl_order()
        assert np.linalg.matrix_rank(e.restriction) == e.ambient.rank
        compared += sum(_assert_torus_orbit(e, lam) for lam in dominant_weights_bounded(e.ambient.rank, 2))
    assert compared == 453


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_torus_component_orbits_are_weyl_orbits(data):
    # integral weights, dominant or not, mostly zero so that about half the
    # orbits are small enough to compare, on any of the 21 instances
    e = data.draw(st.sampled_from(_torus_instances()))
    n = e.ambient.rank
    lam = tuple(data.draw(st.lists(st.sampled_from((0,) * 6 + (1, -1, 2, -2)), min_size=n, max_size=n)))
    assume(_assert_torus_orbit(e, lam))


def test_torus_scan_matches_the_general_path(monkeypatch):
    # the pairing rule against the component-orbit walk and the key match,
    # which share no code with it: at bound 3 at every p up to rank 7, at
    # p = 0 and 3 on A8 and D8, and at bound 1 at p = 0 and 3 on ranks 9-12
    cases = []
    for e in _torus_instances():
        n = e.ambient.rank
        primes = FILTER_PRIMES if n <= 7 else (0, 3)
        cases += [(e, p, 3 if n <= 8 else 1) for p in primes]
    got = [scan_candidates(e.ambient, e, Characteristic(p), bound) for e, p, bound in cases]
    _force_general_path(monkeypatch)
    key_match, blocks = checker._key_match, []
    monkeypatch.setattr(checker, "_key_match", lambda *args: blocks.append(len(args[2])) or key_match(*args))
    for (e, p, bound), res in zip(cases, got):
        assert res == scan_candidates(e.ambient, e, Characteristic(p), bound), (e.ambient, e.family, p)
    # every candidate of the general path passed through the key match, and
    # some scan spans several blocks
    assert sum(blocks) == sum(map(len, got)) and len(blocks) > len(cases)
    # p = 0 finds an IRREDUCIBLE candidate exactly at the minuscule weights:
    # A_n has n of them, D_n three
    for (e, p, bound), res in zip(cases, got):
        if p == 0:
            found = {w for w, v in res if v == "IRREDUCIBLE"}
            assert found == minimal_weights(e.ambient), (e.ambient, e.family)


def test_torus_scan_walks_no_component_orbit(monkeypatch):
    # the 21 scans read only the pairings: no component group, no orbit
    # walk, no h route and no key match is reached
    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    for module, name in ((embeddings, "component_orbits"), (checker, "component_orbits"),
                         (embeddings, "component_group"), (checker, "_h_table"), (checker, "_key_match")):
        monkeypatch.setattr(module, name, refuse)
    verdicts = Counter()
    for e in _torus_instances():
        for p in (0, 3):
            verdicts.update(v for _, v in scan_candidates(e.ambient, e, Characteristic(p), 2))
    # IRREDUCIBLE at the n minuscule weights of each A_n and the three of
    # each D_n; REDUCIBLE at the other fundamental weights of D_n, whose
    # chain pairings are at most 1
    assert verdicts == {"FILTERED": 1436, "UNRESOLVED": 150, "IRREDUCIBLE": 105, "REDUCIBLE": 45}


def _route(e):
    """The route a scan of e takes, read as ``_scan_verdicts`` reads it."""
    if checker._chain_table(e).torus:
        return "torus"
    return "whole" if checker._h_table(e) is None else "h"


def _route_above(e, t, lam_a, lam_h_a):
    """(above, orbit sizes) of the candidates as one block, on the route a
    scan of e takes."""
    route = _route(e)
    if route == "torus":
        return checker._torus_above(e, t, lam_a, lam_a @ t.coroots.T)
    if route == "h":
        return checker._h_above(e, t, checker._h_table(e), lam_h_a)
    return checker._whole_group_above(e, t, lam_h_a)


def _inverse(cartan):
    """The inverse of an integer matrix over Fractions, by Gauss-Jordan elimination."""
    n = len(cartan)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(cartan)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def test_generators_keep_h_and_the_chain_heights_are_h():
    # h(nu), the sum of the H^0 root coordinates of nu's semisimple part,
    # is the row vector of each factor's inverse Cartan row sums (zero on
    # the charges), exact over Fractions.  Every generator of the 232
    # instances up to rank 12, w -> (sgn[i] w[idx[i]])_i, keeps it, that is
    # h[idx[i]] = sgn[i] h[i] for every i; so h is constant on a component
    # orbit, and ``heights`` is h(R beta) per chain, -1 where that is no
    # non-negative integer
    from test_embeddings import INSTANCES_12

    generators = integral = 0
    for e in INSTANCES_12:
        h = [sum(row) for frs in e.factor_systems for row in _inverse(frs.cartan)] + [Fraction(0)] * e.torus_rank
        for idx, sgn in e.generators:
            assert all(h[j] == s * h[i] for i, (j, s) in enumerate(zip(idx, sgn))), (e.ambient, e.family)
            generators += 1
        heights = [sum(a * b for a, b in zip(h, image)) for image in checker._chain_table(e).images.tolist()]
        expected = [int(x) if x >= 0 and x.denominator == 1 else -1 for x in heights]
        assert checker._chain_table(e).heights.tolist() == expected, (e.ambient, e.family)
        integral += sum(x >= 0 for x in expected)
    assert len(INSTANCES_12) == 232 and (generators, integral) == (503, 8708)


def test_every_route_counts_the_orbit_elements_of_the_dense_oracle(monkeypatch):
    # ``above`` on each route against the dense oracle on the orbits of the
    # oracle's chain walk, which shares no code with the key match, the h
    # route or the pairing rule, and ``single`` against the oracle's own
    # count of factor simple roots on the one row over a group's image: the
    # rank <= 5 instances and the h-route ones up to rank 10 (less C9 and
    # C10 c2:l=1, C6-C8's shape with larger orbits), bound 3, p = 0
    blocks = _check_routes(monkeypatch)
    h_route = [e for e in _h_instances(10) if e.ambient.rank <= 8 or str(e.family) != f"c2:l=1,t={e.ambient.rank}"]
    for e in [e for _, e in FILTER_INSTANCES] + h_route:
        scan_candidates(e.ambient, e, P0, 3)
    routes, single = Counter(), Counter()
    for name, _, _, groups in blocks:
        routes[name] += 1
        single[name] += groups
    assert routes == {"_whole_group_above": 35, "_torus_above": 7, "_h_above": 36}
    # the torus route has no group one factor simple root below anything;
    # on the h route they occur only on the B_1^t models, B10 and D9
    assert single == {"_whole_group_above": 482, "_h_above": 1503, "_torus_above": 0}


def _h_instances(max_rank):
    from test_embeddings import INSTANCES_12

    return [e for e in INSTANCES_12 if e.ambient.rank <= max_rank and _route(e) == "h"]


def test_every_instance_takes_one_route():
    # the 232 instances up to rank 12: the 21 maximal-torus normalizers
    # take the pairings, the 14 wreath products past the whole-group step
    # the h invariant, and every other one its whole group, whose order is
    # the oracle's chain order; the h route's groups are refused whole
    from test_embeddings import INSTANCES_12

    routes, wreaths = Counter(), 0
    for e in INSTANCES_12:
        route = _route(e)
        routes[route] += 1
        order = chain_oracle.chain_order(e)
        # a stated wreath shape has the oracle's order
        if e.wreath is not None:
            assert e.wreath.order == order, (e.ambient, e.family)
            wreaths += 1
        if route == "whole":
            assert len(embeddings.component_group(e)[0]) == order <= embeddings.WHOLE_GROUP_ORDER, (e.ambient, e.family)
        elif route == "h":
            assert e.wreath.order == order > embeddings.WHOLE_GROUP_ORDER
            with pytest.raises(kernels.KernelCapacityError, match="more than 512 elements"):
                embeddings.component_group(e)
    assert routes == {"whole": 197, "torus": 21, "h": 14}
    # every c2 and c4ii instance with two factors or more: 56 with no flip,
    # 12 with even flips
    assert wreaths == 68
    assert {f"{e.ambient} {e.family}" for e in _h_instances(12)} == (
        {f"C{n} c2:l=1,t={n}" for n in range(6, 13)}
        | {"A11 c2:l=1,t=6", "B10 c2:l=1,t=7", "D9 c2:kind=Bl,l=1,t=6", "D12 c2:kind=Bl,l=1,t=8",
           "C12 c2:l=2,t=6", "D10 c2:kind=Dl,l=2,t=5", "D12 c2:kind=Dl,l=2,t=6"}
    )


def test_canonical_block_form_decides_orbit_membership():
    # every weight c = mu_h + kappa that the h route tests, against the
    # orbit search: canonical forms agree exactly on the orbit of lam_h,
    # and the orbit size read off the form is the search's.  Every
    # candidate at bound 3 up to rank 8 (C6-C8: A1 blocks, no flip or
    # charge), and at bound 2 every other shape past it: the charged blocks
    # of A11, the C2 blocks of C12, the central 2-parts of B10, D9 and D12,
    # and the even flips of D10 and D12 (C9-C12 c2:l=1 repeat C6-C8's
    # shape, with orbits the search takes seconds over)
    checks = members = 0
    for e in _h_instances(12):
        if e.ambient.rank > 8 and str(e.family) == f"c2:l=1,t={e.ambient.rank}":
            continue
        h = checker._h_table(e)
        lam_h_a = np.array(dominant_weights_bounded(e.ambient.rank, 3 if e.ambient.rank <= 8 else 2)) @ e.restriction
        sizes = e.wreath.orbit_sizes(lam_h_a)
        for lam_h, size in zip(lam_h_a, sizes.tolist()):
            orbit = set(component_orbit_set(e, tuple(lam_h.tolist())))
            assert size == len(orbit), (e.ambient, e.family, lam_h)
            c = lam_h + h.shifts
            canon = e.wreath.canonical(np.concatenate(([lam_h], c, np.array(sorted(orbit)))))
            inside = (canon[1:] == canon[0]).all(axis=1).tolist()
            assert inside[:len(c)] == [tuple(w) in orbit for w in c.tolist()], (e.ambient, e.family, lam_h)
            assert all(inside[len(c):])
            checks += len(c)
            members += sum(inside[:len(c)])
    assert (checks, members) == (289873, 24643)
    # the parity on D10's five D2 blocks (A1 x A1, the flip exchanging
    # them): with none fixed by its flip, one flip leaves the orbit and two
    # stay in it; a fixed block absorbs the odd one
    e = build_embedding(LieType("D", 10), geom_family("c2", kind="Dl", l=2, t=5))
    wreath = e.wreath
    for x, flipped, inside in (
        ((1, 0, 2, 0, 3, 0, 4, 0, 5, 0), (0, 1, 2, 0, 3, 0, 4, 0, 5, 0), False),
        ((1, 0, 2, 0, 3, 0, 4, 0, 5, 0), (0, 1, 0, 2, 3, 0, 4, 0, 5, 0), True),
        ((1, 1, 2, 0, 3, 0, 4, 0, 5, 0), (1, 1, 0, 2, 3, 0, 4, 0, 5, 0), True),
    ):
        assert (flipped in component_orbit_set(e, x)) == inside
        canon = wreath.canonical(np.array([x, flipped]))
        assert (canon[0] == canon[1]).all() == inside
    assert wreath.orbit_sizes(np.array([(1, 0, 2, 0, 3, 0, 4, 0, 5, 0)])).tolist() == [5 * 4 * 3 * 2 << 4]


def test_stated_wreaths_of_the_whole_group_route():
    # the other 54 stated wreaths up to rank 12, whose groups are applied
    # whole, against ``component_orbits`` at every candidate with
    # coefficient sum <= 2: the orbit sizes agree, the canonical form is
    # constant on each orbit, and it tells a candidate from another
    # candidate, from its image under one block's flip and from itself with
    # one coordinate raised by 1 exactly where they lie outside its orbit
    from test_embeddings import INSTANCES_12

    shapes = compared = outside = 0
    for e in INSTANCES_12:
        if e.wreath is None or _route(e) != "whole":
            continue
        shapes += 1
        lam_h_a = np.array(dominant_weights_bounded(e.ambient.rank, 2), dtype=np.int64) @ e.restriction
        n = len(lam_h_a)
        orbit, sizes = embeddings.component_orbits(e, lam_h_a)
        assert e.wreath.orbit_sizes(lam_h_a).tolist() == sizes.tolist(), (e.ambient, e.family)
        raised = lam_h_a.copy()
        raised[:, 0] += 1
        others = [raised]
        if e.wreath.flip is not None:
            first = e.wreath.blocks[0]
            flipped = lam_h_a.copy()
            flipped[:, first] = lam_h_a[:, first[e.wreath.flip[0]]] * e.wreath.flip[1]
            others.append(flipped)
        canon = e.wreath.canonical(np.concatenate((lam_h_a, orbit, *others)))
        assert (canon[n:n + len(orbit)] == np.repeat(canon[:n], sizes, axis=0)).all(), (e.ambient, e.family)
        tested = canon[n + len(orbit):].reshape(len(others), n, -1)
        ends = np.cumsum(sizes).tolist()
        rows = orbit.tolist()
        for i, (end, size) in enumerate(zip(ends, sizes.tolist())):
            members = set(map(tuple, rows[end - size:end]))
            weights = [tuple(w) for w in lam_h_a.tolist()] + [tuple(o[i].tolist()) for o in others]
            found = (canon[:n] == canon[i]).all(axis=1).tolist() + [bool((t[i] == canon[i]).all()) for t in tested]
            expected = [w in members for w in weights]
            assert found == expected, (e.ambient, e.family, i)
            compared += len(weights)
            outside += expected.count(False)
    assert (shapes, compared, outside) == (54, 155669, 152462)


def test_wreath_with_every_flip():
    # no instance up to rank 12 flips its blocks one at a time: D10's five
    # D2 blocks, stated with each block's own flip in place of the pairwise
    # one, make S_5 x 2^5
    e = build_embedding(LieType("D", 10), geom_family("c2", kind="Dl", l=2, t=5))
    kinds = [("D", 2)] * 5
    gens, wreath = embeddings._wreath(kinds, "each")
    f = embeddings._embed(e.ambient, e.family, kinds, embeddings._units(kinds), gens, wreath=wreath)
    assert np.array_equal(f.restriction, e.restriction) and f.generators[:4] == e.generators[:4]
    assert wreath.order == chain_oracle.chain_order(f) == 120 << 5 and not wreath.even
    for x in ((1, 0, 2, 0, 3, 0, 4, 0, 5, 0), (1, 1, 2, 0, 2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 1, 0)):
        orbit = component_orbit_set(f, x)
        assert wreath.orbit_sizes(np.array([x])).tolist() == [len(orbit)]
        outside = [x[:-1] + (x[-1] + 1,), x[:-2] + (x[-2] + 2, x[-1])]
        canon = wreath.canonical(np.array([x, *orbit, *outside]))
        assert (canon[1:] == canon[0]).all(axis=1).tolist() == [True] * len(orbit) + [False, False]
    # the c4ii D_l wreaths, which start at D18, state the same shape
    g = build_embedding(LieType("D", 18), geom_family("c4ii", kind="Dl", l=3, t=2))
    assert g.wreath.order == chain_oracle.chain_order(g) == 2 << 2 and not g.wreath.even


def test_h_route_matches_the_chain_walk(monkeypatch):
    # every h-route instance up to rank 10 at bound 3, p = 0 and 3: the
    # verdicts and each candidate's pairings, geometry and m against the
    # oracle's chain walk and the key match, which share no code with the route
    screened = []
    screen = checker._screen

    def record(e, chi, t, pair, g, m):
        screened.append((pair, *g, m))
        return screen(e, chi, t, pair, g, m)

    monkeypatch.setattr(checker, "_screen", record)

    def scan(e, p):
        screened.clear()
        verdicts = scan_candidates(e.ambient, e, Characteristic(p), 3)
        return verdicts, [np.concatenate(field) for field in zip(*screened)]

    cases = [(e, p) for e in _h_instances(10) for p in (0, 3)]
    got = [scan(e, p) for e, p in cases]
    with monkeypatch.context() as m:
        m.setattr(checker, "_h_table", lambda e: None)
        _walk_with_the_oracle(m)
        for (e, p), (verdicts, geometry) in zip(cases, got):
            oracle, oracle_geometry = scan(e, p)
            assert verdicts == oracle, (e.ambient, e.family, p)
            for name, a, b in zip(("pair", *checker._Geometry._fields, "m"), geometry, oracle_geometry):
                assert a.dtype == b.dtype and np.array_equal(a, b), (e.ambient, e.family, p, name)
    assert len(cases) == 16
    assert Counter(v for verdicts, _ in got for _, v in verdicts) == {
        "FILTERED": 3108, "UNRESOLVED": 69, "REDUCIBLE": 59, "IRREDUCIBLE": 13}


def test_scan_rejects_a_negative_or_non_integer_bound():
    # dominant_weights_bounded yields nothing for a negative bound, so
    # without the check a scan with one would return [] in silence
    ambient = LieType("B", 3)
    e = build_embedding(ambient, geom_family("c1", sub="Dn"))
    for bound in (-1, 1.5, "2", None):
        with pytest.raises(ValueError, match="non-negative integer"):
            scan_candidates(ambient, e, P0, bound)
    assert scan_candidates(ambient, e, P0, 0) == []
    assert scan_candidates(ambient, e, P0, np.int64(1)) == scan_candidates(ambient, e, P0, 1)


def test_scan_dimension_test_is_one_product():
    # the scan reads the prediction's dimension sum as |orbit| * m * dim of
    # lam_h: the component group acts on H^0 by automorphisms, which keep
    # dimensions, and m is constant on the orbit; against the sum over the
    # orbit, on the orbit sizes of the route each scan takes and the m it
    # reads.  A torus-route size is 0 only where a pairing of 2 or more
    # filters the candidate at p = 0
    checks = 0
    for ambient, e, bound in SCAN_ORACLE_INSTANCES:
        lams = dominant_weights_bounded(ambient.rank, bound)
        lam_a = np.array(lams, dtype=np.int64)
        lam_h_a = lam_a @ e.restriction
        t = checker._chain_table(e)
        mults = checker._multiplicities(e, lam_h_a).tolist()
        _, sizes = _route_above(e, t, lam_a, lam_h_a)
        assert len(sizes) == len(lams)
        for i, size in enumerate(sizes.tolist()):
            lam_h = tuple(lam_h_a[i].tolist())
            predicted = checker.clifford_prediction(e, lam_h)
            assert set(predicted.values()) == {mults[i]}, (ambient, e.family, lams[i])
            if size == 0:
                assert t.torus and (lam_a[i] @ t.coroots.T >= 2).any(), (ambient, e.family, lams[i])
            else:
                assert size == len(predicted), (ambient, e.family, lams[i])
                dims = charcalc.product_weyl_dims(e.factor_systems, [*predicted, lam_h])
                total = sum(m * d for m, d in zip(predicted.values(), dims))
                assert total == size * mults[i] * dims[-1], (ambient, e.family, lams[i])
        checks += len(sizes)
    assert checks == 1567


def test_filters_int64_guard():
    # the last weight below the guard still agrees with the Python-int oracle;
    # the first one past it raises instead of wrapping
    for ambient, e in FILTER_INSTANCES:
        rs = build_root_system(ambient)
        limit = checker._chain_table(e).limit
        assert limit > 1 << 48
        for i in (0, ambient.rank - 1):
            w = [0] * ambient.rank
            w[i] = limit - 1
            assert necessary_filters(e, w, P0) == scalar_necessary_filters(rs, w, e, P0)
            w[i] = limit
            with pytest.raises(kernels.KernelCapacityError):
                necessary_filters(e, w, P0)


def test_filters_guard_follows_exact_prediction():
    # the exact prediction of a weight past int64 is plain ints, and the
    # filters check their guard before the int64 restriction, so such a
    # weight ends in the guard, not in an OverflowError or a wrapped charge
    ambient, fam = LieType("B", 3), geom_family("c1", sub="Dn")
    rs, e = build_root_system(ambient), build_embedding(ambient, fam)
    limit = checker._chain_table(e).limit
    for w in ((limit, 0, 0), (0, 1 << 62, 1 << 62), (1 << 63, 0, 0), (0, 0, 1 << 64)):
        predicted = checker.clifford_prediction(e, restrict_weight(e, w))
        assert all(type(x) is int for c in predicted for x in c)
        with pytest.raises(kernels.KernelCapacityError):
            necessary_filters(e, w, P0)


def test_branch_guard_raises_before_any_table(monkeypatch):
    # branch_p0 reads its prediction from the per-entry record, whose int64
    # guard is checked first: a weight past it raises the capacity error at
    # once, before any Freudenthal table or orbit is made for it
    ambient, fam = LieType("B", 3), geom_family("c1", sub="Dn")
    rs, e = build_root_system(ambient), build_embedding(ambient, fam)
    limit = checker._chain_table(e).limit
    monkeypatch.setattr(checker, "restricted_multiset", lambda *args, **kw: pytest.fail("branched past the guard"))
    for lam in ((limit, 0, 0), (0, 1 << 62, 1 << 62), (1 << 63, 0, 0)):
        with pytest.raises(kernels.KernelCapacityError, match="int64"):
            branch_p0(rs, lam, e)


def test_entry_record_is_read_only():
    # every caller shares the record; none may change it for the next
    ambient, fam = LieType("B", 4), geom_family("c2", l=1, t=3)
    e = build_embedding(ambient, fam)
    record = checker._entry_record(e, (1, 0, 0, 1))
    assert record.table is checker._chain_table(e)
    assert record.predicted == checker.clifford_prediction(e, restrict_weight(e, (1, 0, 0, 1)))
    for a in (record.lam_h, record.pair, *record.geometry):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    with pytest.raises(TypeError):
        record.predicted[next(iter(record.predicted))] = 0
    # the other facts are immutable by type
    assert type(record.filtered) is bool and type(record.restrictions) is frozenset
    assert type(record.m) is int and type(record.lead) is tuple
    assert all(type(part) is tuple for part in record.lead)


def test_verify_reports_do_not_depend_on_the_order_of_p():
    # the per-entry record is filled at whichever p comes first; it carries
    # nothing that depends on p, so the order of the primes changes no report
    rows = _shipped_rows()

    def reports(primes):
        checker._entry_record.cache_clear()
        out = {}
        for p in primes:
            chi = Characteristic(p)
            out[p] = [(ent.entry_id, verify_entry(ent, chi)) for ent in instantiate_rows(rows, 5, chi)]
        return out

    forward = reports(FILTER_PRIMES)
    assert sum(map(len, forward.values())) == 483
    assert reports(FILTER_PRIMES[::-1]) == forward


def test_verify_guard_holds_after_a_smaller_weight_is_cached():
    # a wrong kappa stops verify_entry after the record is made and before
    # the branching, so a weight just below the guard is cached; the weight
    # at the guard, and one past int64, still raise the capacity error
    ambient, fam = LieType("B", 3), geom_family("c1", sub="Dn")
    limit = checker._chain_table(build_embedding(ambient, fam)).limit

    def entry(lam):
        return ClassificationEntry(ambient, fam, lam, "any", None, -1, "test", "guard")

    checker._entry_record.cache_clear()
    rep = verify_entry(entry((limit - 1, 0, 0)), P0)
    assert rep.verdict == "FAIL" and rep.reasons[0]["kind"] == "kappa-mismatch"
    assert checker._entry_record.cache_info().currsize == 1
    for lam in ((limit, 0, 0), (limit - 1, 1, 0), (1 << 63, 0, 0)):
        with pytest.raises(kernels.KernelCapacityError):
            verify_entry(entry(lam), P0)
    assert checker._entry_record.cache_info().currsize == 1


def element_verify_entry(entry, chi, cap=None):
    """The former ``verify_entry``, kept as an oracle: it screens through the
    public ``necessary_filters`` and, at p > 0, sums the dimension identity
    over every element of the component orbit, factor by factor."""
    p = chi.p
    rep = checker.BranchReport(factors={}, dims={}, verdict="INCONCLUSIVE")
    e, reason = checker.entry_gate(entry, p)
    if reason is not None:
        rep.reasons.append(reason)
        return rep
    rs = e.root_system
    lam = checker._highest_weight(rs, entry.lam)
    if p > 0 and any(c >= p for c in lam):
        rep.reasons.append({"kind": "not-p-restricted", "p": p})
        return rep
    record = checker._entry_record(e, lam)
    predicted = record.predicted
    if entry.expected_restriction is not None:
        expected = tuple(entry.expected_restriction)
        if expected not in record.restrictions:
            rep.verdict = "FAIL"
            rep.reasons.append({
                "kind": "restriction-mismatch",
                "expected": list(expected),
                "found": sorted(list(x) for x in record.restrictions),
            })
            return rep
    kappa = sum(predicted.values())
    rep.kappa_found = kappa
    if entry.expected_kappa is not None and kappa != entry.expected_kappa:
        rep.verdict = "FAIL"
        rep.reasons.append({"kind": "kappa-mismatch", "expected": entry.expected_kappa, "found": kappa})
        return rep
    findings = necessary_filters(e, lam, chi)
    if findings:
        rep.verdict = "FAIL"
        rep.reasons.extend(findings)
        return rep
    if p == 0:
        return checker._branch_p0(e, lam, predicted, cap)
    dim_g = charcalc._irr_dim_cached(rs.lie_type, lam, p)[0]
    if dim_g is None:
        rep.reasons.append({"kind": "dimension-unknown", "side": "ambient"})
        return rep
    total = 0
    for c, mult in predicted.items():
        d = 1
        for f, (frs, part) in enumerate(zip(e.factor_systems, e.split(c)[0])):
            if any(x >= p for x in part):
                rep.reasons.append({"kind": "factor-not-p-restricted", "factor": f + 1})
                return rep
            df = charcalc._irr_dim_cached(frs.lie_type, charcalc._require_dominant(part), p)[0]
            if df is None:
                rep.reasons.append({"kind": "dimension-unknown", "side": f"factor-{f + 1}", "weight": list(part)})
                return rep
            d *= df
        total += mult * d
    rep.dim_lhs = dim_g
    rep.dim_rhs = total
    if dim_g == total:
        rep.verdict = "PASS"
        rep.reasons.append({"kind": "dimension-identity", "lhs": str(dim_g), "rhs": str(total)})
    else:
        rep.verdict = "FAIL"
        rep.reasons.append({"kind": "dimension-identity-failed", "lhs": str(dim_g), "rhs": str(total)})
    return rep


def _oracle_table_rows():
    """The rows of shipped:all and of every test table that instantiates."""
    from test_tables import TEST_TABLES

    from weylbranch.tables import TableError, parse_table

    rows = _shipped_rows()
    for source, text in TEST_TABLES:
        for row in parse_table(text, source=source):
            try:
                for p in FILTER_PRIMES:
                    instantiate_rows([row], 12, Characteristic(p))
            except TableError:
                continue
            rows.append(row)
    return rows


def _report_or_error(verify, entry, chi):
    """The report of verify, or (error type name, message) where it raises."""
    try:
        return verify(entry, chi)
    except (ValueError, kernels.KernelCapacityError) as exc:
        return type(exc).__name__, str(exc)


def test_verify_entry_matches_the_element_oracle():
    # one dimension product from the lead against the sum over every orbit
    # element, and one screen from the record against the public filters:
    # equal reports for every entry at rank cap 12
    rows = _oracle_table_rows()
    kinds, orbits = Counter(), Counter()
    for p in FILTER_PRIMES:
        chi = Characteristic(p)
        for entry in instantiate_rows(rows, 12, chi):
            got = _report_or_error(verify_entry, entry, chi)
            assert got == _report_or_error(element_verify_entry, entry, chi), (entry.entry_id, p)
            if isinstance(got, tuple):
                kinds[got[0]] += 1
                continue
            kinds.update(reason["kind"] for reason in got.reasons)
            if p and got.kappa_found:
                orbits[got.kappa_found > 1] += 1
    # the p > 0 identity is decided on orbits of more than one element, and
    # each way it can end on a correct table is among the reports
    assert orbits[True] > 100
    assert {"dimension-identity", "dimension-unknown", "factor-not-p-restricted",
            "KernelCapacityError"} <= set(kinds), kinds


def _flip(t, lam):
    """lam under the diagram automorphism of an A or D type: A reverses its
    nodes, D swaps its two fork tips."""
    return lam[::-1] if t.family == "A" else lam[:-2] + (lam[-1], lam[-2])


def test_irr_dim_is_invariant_under_diagram_flips():
    # L(nu)^tau = L(tau nu) for a graph automorphism tau, so every closed
    # form, and the lack of one, must agree at nu and tau nu: the fact that
    # lets verify_entry read one orbit element's dimensions for the whole
    # component orbit.  Read through the uncached body, so that the cache
    # is left as it was
    irr_dim = charcalc._irr_dim_cached.__wrapped__
    weights, moved = 0, 0
    for fam, ranks in (("A", range(1, 13)), ("D", range(3, 13))):
        for n in ranks:
            t = LieType(fam, n)
            for lam in dominant_weights_bounded(n, 4):
                weights += 1
                if lam != _flip(t, lam):
                    moved += 1
                    for p in (2, 3, 5, 7):
                        assert irr_dim(t, lam, p) == irr_dim(t, _flip(t, lam), p), (str(t), lam, p)
    assert (weights, moved) == (12332, 8864)


def clifford_classify(e, factors):
    """(irreducible?, kappa, reasons) for a factor multiset at p = 0.

    The former verdict of ``branch_p0``, kept as an oracle: it searches the
    component orbit of the highest factor, not of the restricted lam, and
    checks single orbit, equal multiplicities and the central cover in turn.
    """
    reasons = []
    hws = sorted(factors)
    orbit = component_orbit_set(e, hws[-1])
    kappa = sum(factors.values())
    if set(hws) != set(orbit):
        reasons.append({
            "kind": "factors-not-single-orbit",
            "orbit_size": len(orbit),
            "factor_count": len(hws),
        })
        return False, kappa, reasons
    mults = {factors[h] for h in hws}
    if len(mults) != 1:
        reasons.append({"kind": "unequal-orbit-multiplicities", "mults": sorted(mults)})
        return False, kappa, reasons
    mult = mults.pop()
    allowed = central_multiplicity(e, hws[-1])
    if mult != allowed:
        reasons.append({
            "kind": "multiplicity-without-central-cover",
            "mult": mult,
            "allowed": allowed,
        })
        return False, kappa, reasons
    return True, kappa, reasons


def test_branch_verdict_matches_clifford_oracle():
    verdicts = {"PASS": 0, "FAIL": 0}
    for ambient, e in FILTER_INSTANCES:
        rs = build_root_system(ambient)
        for w in dominant_weights_bounded(ambient.rank, 3):
            rep = branch_p0(rs, w, e)
            ok, kappa, _ = clifford_classify(e, rep.factors)
            assert rep.verdict == ("PASS" if ok else "FAIL"), (ambient, e.family, w)
            assert rep.kappa_found == kappa
            if ok:
                assert rep.reasons == []
            else:
                assert [r["kind"] for r in rep.reasons] == ["branch-structure-mismatch"]
                assert rep.reasons[0]["found"] == sorted((list(k), v) for k, v in rep.factors.items())
            verdicts[rep.verdict] += 1
    assert verdicts == {"PASS": 75, "FAIL": 1457}


def lam(n, *pairs):
    w = [0] * n
    for i, c in pairs:
        w[i - 1] = c
    return tuple(w)


def entry(ambient, fam, weight, cond="any", restr=None, kappa=None):
    return ClassificationEntry(
        ambient=ambient,
        family=fam,
        lam=weight,
        p_condition=cond,
        expected_restriction=restr,
        expected_kappa=kappa,
        source="test",
        entry_id="test",
    )


def test_branch_spin_through_pair():
    rs = build_root_system(LieType("B", 3))
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    rep = branch_p0(rs, (0, 0, 1), e)
    assert rep.factors == {(0, 0, 1): 1, (0, 1, 0): 1}
    assert rep.kappa_found == 2 and rep.verdict == "PASS"
    assert rep.dim_lhs == 8 == rep.dim_rhs


def test_branch_natural_imprimitive():
    rs = build_root_system(LieType("C", 2))
    e = build_embedding(LieType("C", 2), geom_family("c2", l=1, t=2))
    rep = branch_p0(rs, (1, 0), e)
    assert rep.factors == {(1, 0): 1, (0, 1): 1}
    assert rep.dim_lhs == 4


def test_branch_middle_exterior_power():
    rs = build_root_system(LieType("A", 5))
    e = build_embedding(LieType("A", 5), geom_family("c6"))
    rep = branch_p0(rs, (0, 0, 1, 0, 0), e)
    assert rep.factors == {(0, 0, 2): 1, (0, 2, 0): 1}
    assert rep.dims[(0, 0, 2)] == 10 and rep.dim_lhs == 20


def test_branch_spin_multiplicity_two():
    rs = build_root_system(LieType("B", 4))
    e = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    rep = branch_p0(rs, (0, 0, 0, 1), e)
    assert rep.factors == {(1, 1, 1): 2}
    assert rep.verdict == "PASS" and rep.kappa_found == 2


def test_branch_verdict_compares_multiplicities(monkeypatch):
    # the factors hit the predicted orbit exactly, at unequal multiplicities;
    # each factor has dimension 32, so conservation (768) still holds
    rs = build_root_system(LieType("B", 4))
    e = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    lam_b4 = (0, 0, 1, 1)
    predicted = {(1, 3, 3): 2, (3, 1, 3): 2, (3, 3, 1): 2}
    assert checker.clifford_prediction(e, restrict_weight(e, lam_b4)) == predicted
    skewed = {(1, 3, 3): 12, (3, 1, 3): 8, (3, 3, 1): 4}
    monkeypatch.setattr(charcalc, "weyl_character_subtract", lambda systems, multiset: dict(skewed))
    rep = branch_p0(rs, lam_b4, e)
    assert rep.dim_lhs == rep.dim_rhs == 768
    assert rep.verdict == "FAIL" and rep.kappa_found == 24
    assert rep.reasons == [{
        "kind": "branch-structure-mismatch",
        "expected": sorted((list(k), v) for k, v in predicted.items()),
        "found": sorted((list(k), v) for k, v in skewed.items()),
    }]


def test_branch_rejects_zero_weight():
    rs = build_root_system(LieType("B", 3))
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    with pytest.raises(ValueError):
        branch_p0(rs, (0, 0, 0), e)


def test_verify_refuses_a_zero_or_non_dominant_weight():
    # past the gate, at every p, not only at p = 0 where the branching
    # needs it: at p > 0 the trivial dimension rule would pass a zero weight
    ambient, fam = LieType("C", 2), geom_family("c2", l=1, t=2)
    for weight in ((0, 0), (-1, 1)):
        for p in (0, 2, 3):
            ent = entry(ambient, fam, weight)
            assert checker.entry_gate(ent, p)[1] is None
            with pytest.raises(ValueError, match="^highest weight must be dominant and non-zero$"):
                verify_entry(ent, Characteristic(p))


def test_filters_examples():
    e = build_embedding(LieType("B", 5), geom_family("c1", sub="DlB", l=2))
    assert necessary_filters(e, lam(5, (2, 1), (5, 1)), P0)
    assert not necessary_filters(e, lam(5, (5, 1)), P0)
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    assert not necessary_filters(e, lam(3, (3, 1)), P0)
    e = build_embedding(LieType("C", 4), geom_family("c2", l=2, t=2))
    assert not necessary_filters(e, lam(4, (1, 1)), P0)
    # two certified weights over one simple-root drop that carries one copy
    e = build_embedding(LieType("B", 4), geom_family("c4ii", l=1, t=2))
    findings = necessary_filters(e, lam(4, (1, 1), (4, 1)), P0)
    assert [f["kind"] for f in findings] == ["multiplicity-bound-exceeded"]
    assert findings[0]["target"] == [1, 5] and findings[0]["capacity"] == 1
    # lam_4 of A_5 restricts irreducibly to D_3.2 (the D_3 adjoint module);
    # two of its certified weights restrict to one weight more than a simple
    # root below the orbit, where the capacity bound does not apply
    e = build_embedding(LieType("A", 5), geom_family("c6"))
    assert not necessary_filters(e, lam(5, (4, 1)), P0)


def test_filters_chain_certification_at_small_p():
    # at p = 2 on C_2 the chain running to the long root is not certified,
    # so the symplectic-form row lambda_2 must pass the filters
    e = build_embedding(LieType("C", 2), geom_family("c2", l=1, t=2))
    assert necessary_filters(e, (0, 1), P0)  # reducible at p = 0
    assert not necessary_filters(e, (0, 1), Characteristic(2))


def test_ford_condition():
    assert ford_condition_check((0, 0, 1), 3, Characteristic(7)) is True
    assert ford_condition_check((1, 0, 1), 3, Characteristic(7)) is True
    assert ford_condition_check((1, 0, 1), 3, Characteristic(5)) is False
    assert ford_condition_check((0, 0, 1), 3, P0) is True
    assert ford_condition_check((1, 0, 1), 3, P0) is False
    assert ford_condition_check((0, 0, 2), 3, Characteristic(7)) is False
    with pytest.raises(ValueError):
        ford_condition_check((0, 0, 1), 3, Characteristic(2))
    # a non-integral or short weight is refused, not truncated
    with pytest.raises(ValueError, match="non-integral"):
        ford_condition_check((0.5, 0, 1), 3, P0)
    with pytest.raises(ValueError, match="wrong length"):
        ford_condition_check((0, 1), 3, P0)
    # adjacent-support congruence: a_i + a_j = i - j (mod p)
    assert ford_condition_check((0, 2, 3, 1), 4, Characteristic(3)) is True
    assert ford_condition_check((0, 2, 3, 1), 4, Characteristic(7)) is False


def test_verify_spin_identities():
    ent = entry(LieType("B", 5), geom_family("c1", sub="DlB", l=2), lam(5, (5, 1)), "p!=2", kappa=2)
    assert verify_entry(ent, P0).verdict == "PASS"
    rep = verify_entry(ent, Characteristic(7))
    assert rep.verdict == "PASS" and rep.dim_lhs == 32 == rep.dim_rhs


def test_verify_exterior_power():
    ent = entry(LieType("A", 5), geom_family("c6"), lam(5, (3, 1)), "p!=2", restr=(0, 0, 2), kappa=2)
    rep = verify_entry(ent, P0)
    assert rep.verdict == "PASS" and rep.dim_lhs == 20


def test_verify_c4ii_dimension_identity():
    ent = entry(LieType("C", 4), geom_family("c4ii", l=1, t=3), lam(4, (2, 1)), "p!=2", restr=(0, 2, 2), kappa=3)
    rep = verify_entry(ent, Characteristic(5))
    assert rep.verdict == "PASS" and rep.dim_lhs == 27 == rep.dim_rhs


def test_verify_condition_gates():
    ent = entry(LieType("D", 4), geom_family("c4ii", kind="Cl", l=1, t=3), lam(4, (3, 1)), "p=2")
    rep = verify_entry(ent, Characteristic(3))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.reasons[0]["kind"] == "p-condition-unsatisfied"
    ent = entry(LieType("C", 3), geom_family("c6"), lam(3, (3, 1)), "any")
    rep = verify_entry(ent, Characteristic(3))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.reasons[0]["kind"] == "subgroup-existence"


def test_verify_detects_wrong_expectations():
    ent = entry(LieType("B", 3), geom_family("c1", sub="Dn"), lam(3, (3, 1)), "p!=2", kappa=3)
    rep = verify_entry(ent, P0)
    assert rep.verdict == "FAIL" and rep.reasons[0]["kind"] == "kappa-mismatch"
    ent = entry(LieType("B", 3), geom_family("c1", sub="Dn"), lam(3, (3, 1)), "p!=2", restr=(1, 0, 0))
    rep = verify_entry(ent, P0)
    assert rep.verdict == "FAIL" and rep.reasons[0]["kind"] == "restriction-mismatch"
    # a genuinely reducible weight fails through the filters or the branch
    ent = entry(LieType("B", 3), geom_family("c1", sub="Dn"), lam(3, (1, 1)), "p!=2")
    assert verify_entry(ent, P0).verdict == "FAIL"


def test_verify_ford_row_at_p7():
    # B_3: lambda_1 + lambda_3 satisfies the congruences at p = 7
    ent = entry(LieType("B", 3), geom_family("c1", sub="Dn"), lam(3, (1, 1), (3, 1)), "p!=2", kappa=2)
    rep = verify_entry(ent, Characteristic(7))
    assert rep.verdict == "PASS"
    assert rep.dim_lhs == 40 == rep.dim_rhs  # 2^n(2n-1) = 2 * 20
    # same weight at p = 5 fails the Ford congruence: the filters reject it
    rep5 = verify_entry(ent, Characteristic(5))
    assert rep5.verdict == "FAIL"


def test_scan_examples():
    res = scan_candidates(LieType("B", 3), build_embedding(LieType("B", 3), geom_family("c1", sub="Dn")), P0, 2)
    assert [l for l, v in res if v == "IRREDUCIBLE"] == [(0, 0, 1)]
    res = scan_candidates(
        LieType("D", 4), build_embedding(LieType("D", 4), geom_family("c2", kind="Dl", l=2, t=2)), P0, 1
    )
    assert [l for l, v in res if v == "IRREDUCIBLE"] == [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)]
    res = scan_candidates(LieType("C", 4), build_embedding(LieType("C", 4), geom_family("c2", l=2, t=2)), P0, 2)
    assert [l for l, v in res if v == "IRREDUCIBLE"] == [(1, 0, 0, 0)]
    res = scan_candidates(LieType("A", 3), build_embedding(LieType("A", 3), geom_family("c2", l=1, t=2)), P0, 1)
    assert [l for l, v in res if v == "IRREDUCIBLE"] == [(0, 0, 1), (1, 0, 0)]
    assert dict(res)[(0, 1, 0)] == "FILTERED"


def test_scan_p_positive_is_filter_only():
    res = scan_candidates(
        LieType("B", 3), build_embedding(LieType("B", 3), geom_family("c1", sub="Dn")), Characteristic(7), 2
    )
    verdicts = {v for _, v in res}
    assert verdicts <= {"FILTERED", "UNRESOLVED"}
    assert dict(res)[(0, 0, 1)] == "UNRESOLVED"


def test_second_copy_of_g_must_be_the_ambient(monkeypatch):
    # the embedding names G; a root system or ambient of another type given
    # next to it is refused before any record, orbit or table is made (a C3
    # scan with this B3 embedding once called (0,0,1) REDUCIBLE)
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    for name in ("_entry_record", "_scan_verdicts", "_branch_p0", "freudenthal"):
        monkeypatch.setattr(checker, name, lambda *args, **kw: pytest.fail("worked before the ambient check"))
    with pytest.raises(ValueError, match=r"^C3 is not the ambient group B3 of the embedding c1:sub=Dn$"):
        scan_candidates(LieType("C", 3), e, P0, 2)
    with pytest.raises(ValueError, match=r"^C3 is not the ambient group B3"):
        branch_p0(build_root_system(LieType("C", 3)), (1, 0, 0), e)
    monkeypatch.undo()
    # types are compared, so a root system built directly is accepted
    assert branch_p0(RootSystem(LieType("B", 3)), (0, 0, 1), e).verdict == "PASS"
    assert dict(scan_candidates(LieType("B", 3), e, P0, 2))[(0, 0, 1)] == "IRREDUCIBLE"


def test_rebuilt_embedding_gives_the_same_verdicts():
    # the checker's caches are keyed on the embedding itself; a rebuilt one
    # is a new key, and every verdict read through it is the same
    ambient, fam = LieType("B", 4), geom_family("c2", l=1, t=3)
    rs = build_root_system(ambient)

    def verdicts(e):
        return (
            scan_candidates(ambient, e, P0, 2),
            [necessary_filters(e, w, Characteristic(p)) for w in dominant_weights_bounded(4, 2) for p in (0, 3)],
            [branch_p0(rs, w, e).factors for w in dominant_weights_bounded(4, 1)],
        )

    e = build_embedding(ambient, fam)
    before = verdicts(e)
    build_embedding.cache_clear()
    rebuilt = build_embedding(ambient, fam)
    assert rebuilt is not e and rebuilt != e
    assert verdicts(rebuilt) == before


def test_dominant_weights_bounded():
    ws = dominant_weights_bounded(2, 2)
    assert ws == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert dominant_weights_bounded(2, 3, p=2) == [(0, 1), (1, 0), (1, 1)]
    # each call gets a fresh list from the cache, and a float bound, which
    # hashes like the int, is refused however warm the cache is
    ws.clear()
    assert dominant_weights_bounded(2, 2) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    with pytest.raises(TypeError):
        dominant_weights_bounded(2, 2.0)


def test_p_condition_ok():
    assert p_condition_ok("any", 0)
    assert p_condition_ok("p!=2", 3) and not p_condition_ok("p!=2", 2)
    assert p_condition_ok("p=2", 2) and not p_condition_ok("p=2", 0)
    assert p_condition_ok("p!=2&p!=3", 5) and not p_condition_ok("p!=2&p!=3", 3)
    assert p_condition_ok("p>=3", 5) and not p_condition_ok("p>=3", 0)
    with pytest.raises(ValueError):
        p_condition_ok("q=1", 0)
    # a malformed clause raises even after a clause that fails at p, and
    # again on the next call: the parse cache keeps no error
    for _ in range(2):
        with pytest.raises(ValueError):
            p_condition_ok("p!=2&p>2", 2)


def test_branch_concurrent_callers_agree():
    # pure functions over immutable inputs: parallel callers see identical results
    from concurrent.futures import ThreadPoolExecutor

    rs = build_root_system(LieType("B", 4))
    e = build_embedding(LieType("B", 4), geom_family("c2", l=1, t=3))
    weights = dominant_weights_bounded(4, 2)

    def job(w):
        rep = branch_p0(rs, w, e)
        return w, sorted(rep.factors.items())

    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = dict(pool.map(job, weights * 3))
    serial = {w: sorted(branch_p0(rs, w, e).factors.items()) for w in weights}
    assert parallel == serial
