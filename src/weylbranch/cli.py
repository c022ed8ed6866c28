"""Command-line surface: dim, branch, verify, scan, rootsys-info, orbit.

Reports are emitted as line-delimited JSON records with stable field names
and deterministic ordering; human-oriented summaries go to stderr.  Setting
WEYLBRANCH_CAP to a positive integer overrides the orbit enumeration cap.
Exit codes: 2 for a usage error, 3 for a failed internal invariant, and
141 (128 + SIGPIPE, as a shell reports a command its reader closed on) when
the reader of stdout closes it early, as ``head`` does; that exit is quiet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from . import charcalc, tables
from .charcalc import Characteristic
from .checker import (
    FAIL,
    IRREDUCIBLE,
    _scan_verdicts,
    branch_p0,
    entry_gate,
    verify_entry,
)
from .embeddings import FAMILY_TAGS, build_embedding, format_h0_weight, instances
from .kernels import KernelCapacityError, orbit_cap, orbit_size, weyl_orbit_array
from .rootsys import LieType, build_root_system, minimal_weights

SHIPPED = ("all", "c136", "c2", "c4i", "c4ii")


def _lie_type(family: str, rank: str) -> LieType:
    return LieType(family.upper(), int(rank))


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _weight(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated coefficients, got {len(parts)}")
    return tuple(int(p) for p in parts)


def _spec_value(text: str):
    """A spec value: an integer parameter, or else a selector string."""
    try:
        return int(text)
    except ValueError:
        return text


def parse_family_spec(spec: str, ambient: LieType):
    """The instance at ``ambient`` named by a spec such as 'c1:Dn' or 'c2:l=1,t=2'.

    That is the first instance, in enumeration order, whose parameters include
    every ``k=v`` (a non-integer ``v`` is a selector value) and every bare
    flag, and whose integer parameters the spec all gives.  So a selector is a
    flag, a ``k=v``, or left out where one instance fits, and every instance
    name the package prints parses back.  ``c6:Dm`` names plain ``c6``.
    """
    tag, _, rest = spec.partition(":")
    tag = tag.strip()
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family spec {spec!r}")
    tokens = [[s.strip() for s in t.partition("=")] for t in rest.split(",") if t.strip()]
    names = [k for k, _, _ in tokens]
    if len(set(names)) < len(names):
        raise ValueError(f"a parameter or flag is repeated in family spec {spec!r}")
    given = {k: _spec_value(v) for k, eq, v in tokens if eq}
    flags = {k for k, eq, _ in tokens if not eq} - ({"Dm"} if tag == "c6" else set())
    families = instances(tag, ambient)
    for fam in families:
        params = dict(fam.params)
        integers = {k for k, v in params.items() if isinstance(v, int)}
        if given.items() <= params.items() and flags <= set(params.values()) and integers <= given.keys():
            return fam
    listed = ", ".join(map(str, families)) or "none"
    raise ValueError(f"no instance {spec} on {ambient}; the {tag} instances on {ambient} are: {listed}")


def _shipped_rows(name: str):
    pkg = resources.files("weylbranch")
    path = pkg.joinpath(f"data/table_{name}.tsv")
    return tables.parse_table(path.read_text(encoding="utf-8"), source=f"table_{name}.tsv")


def _load_rows(spec: str):
    if spec.startswith("shipped:"):
        name = spec.split(":", 1)[1]
        if name not in SHIPPED:
            raise ValueError(f"unknown shipped table {name!r}; choose from {SHIPPED}")
        return _shipped_rows(name)
    return tables.load_table(spec)


def cmd_dim(args) -> int:
    t = _lie_type(args.family, args.rank)
    rs = build_root_system(t)
    lam = _weight(args.coeffs, t.rank)
    chi = Characteristic(args.p)
    val, rule = charcalc.irr_dim_with_rule(rs, lam, chi)
    if val is None:
        print(f"unknown\trule={rule}")
    else:
        print(f"{val}\trule={rule}")
    return 0


def cmd_branch(args) -> int:
    t = _lie_type(args.family, args.rank)
    rs = build_root_system(t)
    lam = _weight(args.coeffs, t.rank)
    fam = parse_family_spec(args.subgroup, t)
    e = build_embedding(t, fam)
    rep = branch_p0(rs, lam, e)
    pieces = []
    for hw in sorted(rep.factors):
        m = rep.factors[hw]
        d = rep.dims[hw]
        pieces.append(f"{m} x {d}")
        print(f"factor\t{format_h0_weight(e, hw)}\tmult={m}\tdim={d}")
    print(f"kappa\t{rep.kappa_found}")
    print(f"conservation\t{rep.dim_lhs} = {' + '.join(pieces)}")
    print(f"clifford\t{rep.verdict}")
    return 0


def _emit(record, out):
    out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_verify(args) -> int:
    try:
        rows = _load_rows(args.table)
    except tables.TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every characteristic, and every row at it, is checked before the first record is written
    chis = [Characteristic(int(x)) for x in args.p.split(",")]
    for i, chi in enumerate(chis):
        if chi in chis[:i]:
            raise ValueError(f"characteristic {chi.p} is repeated in --p {args.p!r}")
    batches = [(chi, tables.instantiate_rows(rows, args.rank_cap, chi, args.pattern_bound)) for chi in chis]
    any_fail = False
    counts = {}
    out = sys.stdout
    for chi, entries in batches:
        p = chi.p
        for entry in entries:
            rep = verify_entry(entry, chi)
            counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
            any_fail |= rep.verdict == FAIL
            _emit(
                {
                    "entry_id": entry.entry_id,
                    "p": p,
                    "verdict": rep.verdict,
                    "kappa_expected": entry.expected_kappa,
                    "kappa_found": rep.kappa_found,
                    "dim_lhs": rep.dim_lhs,
                    "dim_rhs": rep.dim_rhs,
                    "reasons": rep.reasons,
                },
                out,
            )
    summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(f"verify: {summary or 'no entries'}", file=sys.stderr)
    return 1 if any_fail else 0


def cmd_scan(args) -> int:
    t = _lie_type(args.family, args.rank)
    fam = parse_family_spec(args.subgroup, t)
    e = build_embedding(t, fam)
    chi = Characteristic(args.p)
    if args.assert_tables and chi.p != 0:
        print("error: --assert requires --p 0 (full verdicts)", file=sys.stderr)
        return 2
    out = sys.stdout
    found = []
    for lam, verdict in _scan_verdicts(e, chi, args.bound, None):
        _emit({"weight": list(lam), "verdict": verdict}, out)
        if verdict == IRREDUCIBLE:
            found.append(lam)
    if args.assert_tables:
        rows = _shipped_rows("all")
        entries = tables.instantiate_rows(rows, t.rank, chi, args.bound)
        expected = sorted(
            entry.lam
            for entry in entries
            if entry.ambient == t
            and entry.family == fam
            and sum(entry.lam) <= args.bound
            and entry_gate(entry, chi.p)[1] is None
        )
        found.sort()
        record = {"assert": found == expected, "expected": [list(x) for x in expected], "found": [list(x) for x in found]}
        _emit(record, out)
        if found != expected:
            print("scan: assertion FAILED", file=sys.stderr)
            return 1
        print("scan: assertion passed", file=sys.stderr)
    return 0


def cmd_rootsys_info(args) -> int:
    t = _lie_type(args.family, args.rank)
    rs = build_root_system(t)
    print(f"type\t{t}")
    print(f"positive_roots\t{len(rs.positive_roots)}")
    print(f"eG\t{rs.eG}")
    print(f"weyl_order\t{rs.weyl_order()}")
    for i, row in enumerate(rs.cartan):
        print(f"cartan[{i + 1}]\t{' '.join(str(x) for x in row)}")
    mins = sorted(minimal_weights(t))
    print(f"minimal_weights\t{'; '.join(','.join(map(str, m)) for m in mins)}")
    return 0


def cmd_orbit(args) -> int:
    t = _lie_type(args.family, args.rank)
    rs = build_root_system(t)
    w = _weight(args.coeffs, t.rank)
    summary = orbit_size(rs, w)
    rows = weyl_orbit_array(rs, w).tolist() if args.list else []
    print(f"dominant_rep\t{','.join(map(str, summary.dominant_rep))}")
    print(f"orbit_size\t{summary.orbit_size}")
    stab = " x ".join(str(x) for x in summary.stabilizer_type) or "trivial"
    print(f"stabilizer\t{stab}")
    for row in rows:
        print(",".join(map(str, row)))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="weylbranch", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="closed-form irreducible dimension")
    p.add_argument("family")
    p.add_argument("rank")
    p.add_argument("coeffs")
    p.add_argument("--p", type=int, default=0)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("branch", help="characteristic-zero branching of one module")
    p.add_argument("family")
    p.add_argument("rank")
    p.add_argument("coeffs")
    p.add_argument("subgroup", help="family spec, e.g. c1:Dn or c2:l=1,t=2")
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("verify", help="verify classification-table rows")
    p.add_argument("table", help="path to a table file, or shipped:all / shipped:c2 / ...")
    p.add_argument("--p", default="0", help="comma-separated characteristics")
    p.add_argument("--rank-cap", type=_count, default=8)
    p.add_argument("--pattern-bound", type=_count, default=3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="classify all bounded dominant candidates")
    p.add_argument("family")
    p.add_argument("rank")
    p.add_argument("subgroup")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--assert", dest="assert_tables", action="store_true",
                   help="compare the irreducible set against the shipped tables")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("rootsys-info", help="root-system data for one type")
    p.add_argument("family")
    p.add_argument("rank")
    p.set_defaults(fn=cmd_rootsys_info)

    p = sub.add_parser("orbit", help="Weyl-orbit summary of a weight")
    p.add_argument("family")
    p.add_argument("rank")
    p.add_argument("coeffs")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_orbit)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        orbit_cap()  # reject a malformed WEYLBRANCH_CAP on every command
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KernelCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
