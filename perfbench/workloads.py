"""The three benchmark workloads: item lists, the timed call, records, oracles.

A workload is a fixed list of items.  ``setup`` builds it (this is the part
of a child's run that ``setup_s`` measures), ``call`` is the only code on the
timed path, ``record`` turns an output into a canonical JSON-able value after
the loop, and ``Oracle.failed`` checks records in the parent process with code
that does not share the timed algorithm.

The seed only permutes item order; records are keyed by item id, so digests
do not depend on it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("scan_p0", "verify_tables", "freudenthal_sweep")

# Criterion-7 pool at rank <= 5: every (ambient, family) instance that the
# tables' parameter enumeration yields and whose subgroup exists at p = 0.
# Kept as data so the item list stays fixed while the package is refactored;
# test_perfbench checks it against the package's own enumeration.
SCAN_EMBEDDINGS = (
    "A1 c2:l=0,t=2", "A2 c2:l=0,t=3", "A3 c2:l=1,t=2", "A3 c2:l=0,t=4",
    "A4 c2:l=0,t=5", "A5 c2:l=2,t=2", "A5 c2:l=1,t=3", "A5 c2:l=0,t=6",
    "A5 c6", "B3 c1:sub=Dn", "B3 c1:l=1,sub=DlB", "B3 c1:l=2,sub=DlB",
    "B4 c1:sub=Dn", "B4 c1:l=1,sub=DlB", "B4 c1:l=2,sub=DlB",
    "B4 c1:l=3,sub=DlB", "B4 c2:l=1,t=3", "B4 c4ii:l=1,t=2", "B5 c1:sub=Dn",
    "B5 c1:l=1,sub=DlB", "B5 c1:l=2,sub=DlB", "B5 c1:l=3,sub=DlB",
    "B5 c1:l=4,sub=DlB", "C2 c2:l=1,t=2", "C2 c3", "C3 c2:l=1,t=3", "C3 c3",
    "C4 c2:l=2,t=2", "C4 c2:l=1,t=4", "C4 c3", "C4 c4i:a=1,b=2",
    "C4 c4ii:l=1,t=3", "C5 c2:l=1,t=5", "C5 c3", "D4 c1:l=1,sub=DlD",
    "D4 c2:kind=Dl,l=2,t=2", "D4 c2:kind=Dl,l=1,t=4", "D4 c3",
    "D5 c1:l=1,sub=DlD", "D5 c1:l=2,sub=DlD", "D5 c2:kind=Bl,l=2,t=2",
    "D5 c2:kind=Dl,l=1,t=5",
)
SCAN_BOUND = 3

VERIFY_PRIMES = (0, 2, 3, 5, 7)
VERIFY_RANK_CAP = 8
VERIFY_PATTERN_BOUND = 3

SWEEP_TYPES = (("A", 1, 6), ("B", 2, 6), ("C", 2, 6), ("D", 3, 6))
SWEEP_BOUND = 3


def _lie_type(wb, text):
    return wb.LieType(text[0], int(text[1:]))


def _family(wb, text):
    tag, _, rest = text.partition(":")
    params = {}
    for token in filter(None, rest.split(",")):
        key, value = token.split("=")
        params[key] = int(value) if value.isdigit() else value
    return wb.geom_family(tag, **params)


def _shipped_all(wb):
    from importlib import resources

    from weylbranch import tables

    text = resources.files("weylbranch").joinpath("data/table_all.tsv").read_text(encoding="utf-8")
    return tables.parse_table(text, source="table_all.tsv")


def bounded_weights(n, bound):
    """Non-zero dominant weights of rank n with coefficient sum <= bound."""
    return [w for w in itertools.product(range(bound + 1), repeat=n) if 0 < sum(w) <= bound]


def setup(wb, name):
    """[(item id, args for call)] in canonical (sorted id) order."""
    items = []
    if name == "scan_p0":
        for spec in SCAN_EMBEDDINGS:
            amb_text, fam_text = spec.split(" ")
            ambient = _lie_type(wb, amb_text)
            e = wb.build_embedding(ambient, _family(wb, fam_text))
            items.append((spec, (ambient, e)))
    elif name == "verify_tables":
        from weylbranch import tables

        rows = _shipped_all(wb)
        for p in VERIFY_PRIMES:
            chi = wb.Characteristic(p)
            for entry in tables.instantiate_rows(rows, VERIFY_RANK_CAP, chi, VERIFY_PATTERN_BOUND):
                items.append((f"p{p}|{entry.entry_id}", (entry, chi)))
    elif name == "freudenthal_sweep":
        for fam, lo, hi in SWEEP_TYPES:
            for n in range(lo, hi + 1):
                rs = wb.build_root_system(wb.LieType(fam, n))
                for w in bounded_weights(n, SWEEP_BOUND):
                    items.append((f"{fam}{n}|{','.join(map(str, w))}", (rs, w)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    items.sort(key=lambda item: item[0])
    return items


def order(items, seed, limit=None):
    """The first ``limit`` canonical items, shuffled by ``seed`` (an int or a string)."""
    chosen = list(items[:limit] if limit else items)
    random.Random(seed).shuffle(chosen)
    return chosen


def call(wb, name, args):
    """The timed operation for one item: the public API only."""
    if name == "scan_p0":
        ambient, e = args
        return wb.scan_candidates(ambient, e, wb.Characteristic(0), SCAN_BOUND)
    if name == "verify_tables":
        entry, chi = args
        return wb.verify_entry(entry, chi)
    rs, w = args
    return wb.freudenthal(rs, w)


def record(name, out):
    """Canonical JSON-able form of one output."""
    if name == "scan_p0":
        return [[list(lam), verdict] for lam, verdict in out]
    if name == "verify_tables":
        return {
            "verdict": out.verdict,
            "kappa_found": out.kappa_found,
            "dim_lhs": out.dim_lhs,
            "dim_rhs": out.dim_rhs,
            "reasons": out.reasons,
            "factors": sorted([list(k), v] for k, v in out.factors.items()),
        }
    return {
        "total_dim": out.total_dim,
        "entries": sorted([list(w), m] for w, m in out.entries.items()),
    }


def digest(records):
    """sha256 over the canonical records sorted by item id."""
    text = json.dumps(sorted(records.items()), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Oracle:
    """Per-item correctness checks that run outside the timed path."""

    def __init__(self, wb, name):
        self.wb = wb
        self.name = name
        if name == "scan_p0":
            self.irreducible = self._table_irreducible()

    def _table_irreducible(self):
        """Criterion-7 oracle: applicable shipped:all rows with sum <= bound."""
        from weylbranch import tables
        from weylbranch.checker import p_condition_ok
        from weylbranch.embeddings import existence_ok

        wb = self.wb
        p0 = wb.Characteristic(0)
        max_rank = max(int(spec.split(" ")[0][1:]) for spec in SCAN_EMBEDDINGS)
        expected = {}
        for ent in tables.instantiate_rows(_shipped_all(wb), max_rank, p0, SCAN_BOUND):
            if not p_condition_ok(ent.p_condition, 0) or sum(ent.lam) > SCAN_BOUND:
                continue
            if not existence_ok(wb.build_embedding(ent.ambient, ent.family), 0):
                continue
            expected.setdefault(f"{ent.ambient} {ent.family}", set()).add(tuple(ent.lam))
        return expected

    def failed(self, item_id, rec):
        """True when one item's record disagrees with the oracle."""
        if self.name == "scan_p0":
            found = sorted(tuple(lam) for lam, verdict in rec if verdict == "IRREDUCIBLE")
            return found != sorted(self.irreducible.get(item_id, ()))
        if self.name == "verify_tables":
            return rec["verdict"] == "FAIL"
        type_text, w_text = item_id.split("|")
        rs = self.wb.build_root_system(_lie_type(self.wb, type_text))
        w = tuple(int(c) for c in w_text.split(","))
        return rec["total_dim"] != self.wb.weyl_dim(rs, w)


def verdict_counts(records):
    """verify_tables verdict counts, split into p = 0 and p in {2,3,5,7}."""
    counts = {"p0": {}, "p2357": {}}
    for item_id, rec in records.items():
        group = counts["p0" if item_id.startswith("p0|") else "p2357"]
        group[rec["verdict"]] = group.get(rec["verdict"], 0) + 1
    return counts
