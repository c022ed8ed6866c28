"""Restriction maps onto the disconnected geometric subgroup families.

Each family is realized as an explicit integer matrix sending ambient
fundamental-weight coordinates to concatenated factor coordinates plus
central-torus charges, frozen to one fixed conjugacy choice.  The component
group (block permutations, graph flips, torus inversion) acts on restricted
weights through small generator lists.

Conventions:

* factor lists are *materialized*: a D2 factor appears as two A1 factors
  (its natural module is the tensor square), B1/C1 factors appear as A1,
  and rank-one "D1" parts are carried as central-torus charges;
* torus charges are scaled integers (scale recorded per embedding) so that
  the whole matrix stays over the integers;
* simple-root images are stored per ambient simple root and are required to
  agree with the matrix image of the Cartan row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .rootsys import LieType, build_root_system, scaled_root_coords

A1 = LieType("A", 1)

FAMILY_TAGS = ("c1", "c2", "c3", "c4i", "c4ii", "c6")


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


@dataclass(frozen=True)
class Generator:
    """One component-group generator acting on restricted weights."""

    factor_perm: tuple = ()  # i -> new position of factor i
    flips: frozenset = frozenset()  # factors whose diagram flip is applied
    charge_op: tuple = ("id",)  # ("id",) | ("neg",) | ("perm", perm) | ("dflip",)


@dataclass(frozen=True)
class ComponentAction:
    generators: tuple


@dataclass
class Embedding:
    ambient: LieType
    family: GeomFamily
    factors: tuple  # materialized LieTypes
    factor_groups: tuple  # original factor -> tuple of materialized indices
    torus_rank: int
    restriction: np.ndarray  # n x (sum of factor ranks + torus_rank)
    simple_root_images: tuple
    charge_scale: int
    action: ComponentAction
    existence: str = "any"  # p-condition for H to exist and be maximal
    central2: bool = False  # central 2^{t-1} elementary abelian part present
    notes: dict = field(default_factory=dict)

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
        self.factor_systems = tuple(build_root_system(t) for t in self.factors)

    def split(self, hw):
        parts = []
        for off, r in zip(self.factor_offsets, self.factor_ranks):
            parts.append(tuple(hw[off:off + r]))
        return tuple(parts), tuple(hw[self.semisimple_rank:])

    def join(self, parts, charges):
        out = []
        for p in parts:
            out.extend(p)
        out.extend(charges)
        return tuple(out)


def restrict_weight(e: Embedding, w):
    """Linear image of an ambient weight; factor coords then torus charges."""
    if len(w) != e.ambient.rank:
        raise ValueError(f"weight {w} has wrong rank for {e.ambient}")
    vec = np.asarray(w, dtype=np.int64) @ e.restriction
    return tuple(int(x) for x in vec)


def _flip_part(t: LieType, part):
    if t.family == "A":
        return tuple(reversed(part))
    if t.family == "D":
        out = list(part)
        out[-2], out[-1] = out[-1], out[-2]
        return tuple(out)
    raise ValueError(f"factor {t} has no diagram flip")


def apply_generator(e: Embedding, g: Generator, hw):
    parts, charges = e.split(hw)
    nparts = list(parts)
    if g.flips:
        nparts = [
            _flip_part(e.factors[i], p) if i in g.flips else p
            for i, p in enumerate(nparts)
        ]
    if g.factor_perm:
        moved = [None] * len(nparts)
        for i, p in enumerate(nparts):
            j = g.factor_perm[i]
            if e.factors[i] != e.factors[j]:
                raise ValueError("generator permutes factors of different type")
            moved[j] = p
        nparts = moved
    op = g.charge_op
    if op[0] == "neg":
        charges = tuple(-c for c in charges)
    elif op[0] == "perm":
        perm = op[1]
        moved = [0] * len(charges)
        for i, c in enumerate(charges):
            moved[perm[i]] = c
        charges = tuple(moved)
    elif op[0] == "dflip":
        ch = list(charges)
        ch[-2], ch[-1] = -ch[-1], -ch[-2]
        charges = tuple(ch)
    return e.join(nparts, charges)


def component_orbit_set(e: Embedding, hw):
    """The orbit of hw under the component group, as a sorted list."""
    seen = {tuple(hw)}
    frontier = [tuple(hw)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in e.action.generators:
                y = apply_generator(e, g, w)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


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


def kappa_of(e: Embedding, hw) -> int:
    return len(component_orbit_set(e, hw)) * central_multiplicity(e, hw)


def h_value(e: Embedding, hw) -> int:
    """Sum of all fundamental-weight coefficients across the factors."""
    return int(sum(hw[: e.semisimple_rank]))


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
    # pairs (the flip moves lambda by a half-integral multiple of b_{l-1}-b_l)
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
        if pairable and (scaled[-2] + scaled[-1]) % d:
            raise ValueError(f"correction not in the root lattice of factor {f + 1} (fork pair)")
        for j, c in enumerate(scaled):
            comps[j] += Fraction(c, d)
    total = sum(comps, Fraction(0))
    if total.denominator == 1:
        total = int(total)
    return total, tuple(comps)


def p_condition_ok(cond: str, p: int) -> bool:
    """Whether p satisfies a condition: 'any', or '&'-joined 'p!=k', 'p>=k', 'p=k'."""
    cond = cond.strip()
    if cond in ("", "any"):
        return True
    for clause in cond.split("&"):
        clause = clause.strip()
        if clause.startswith("p!="):
            if p == int(clause[3:]):
                return False
        elif clause.startswith("p>="):
            if p < int(clause[3:]):
                return False
        elif clause.startswith("p="):
            if p != int(clause[2:]):
                return False
        else:
            raise ValueError(f"unparseable p-condition {cond!r}")
    return True


def existence_ok(e: Embedding, p: int) -> bool:
    return p_condition_ok(e.existence, p)


# ---------------------------------------------------------------------------
# builder helpers


class _MatrixBuilder:
    """Accumulates the restriction matrix in (factor, index) terms."""

    def __init__(self, ambient: LieType, kinds, torus_rank=0, charge_scale=1):
        # kinds: list of (family, rank) for the *original* factors
        self.ambient = ambient
        self.n = ambient.rank
        factors = []
        groups = []
        for fam, r in kinds:
            idx0 = len(factors)
            if fam == "D" and r == 2:
                factors += [A1, A1]
                groups.append((idx0, idx0 + 1))
            elif r == 1:
                factors.append(A1)
                groups.append((idx0,))
            else:
                factors.append(LieType(fam, r))
                groups.append((idx0,))
        self.factors = tuple(factors)
        self.groups = tuple(groups)
        self.ranks = [t.rank for t in factors]
        offs = []
        off = 0
        for r in self.ranks:
            offs.append(off)
            off += r
        self.offsets = offs
        self.torus_rank = torus_rank
        self.charge_scale = charge_scale
        self.width = off + torus_rank
        self.mat = np.zeros((self.n, self.width), dtype=np.int64)
        self.kinds = list(kinds)

    def add(self, amb_i, orig_factor, j, coeff=1):
        """Add coeff * omega_{orig_factor, j} to the image of lambda_{amb_i} (1-based)."""
        fam, r = self.kinds[orig_factor - 1]
        grp = self.groups[orig_factor - 1]
        if fam == "D" and r == 2:
            # omega_{.,1}, omega_{.,2} are the two A1 fundamental weights
            mat_idx = self.offsets[grp[j - 1]]
        else:
            mat_idx = self.offsets[grp[0]] + (j - 1)
        self.mat[amb_i - 1, mat_idx] += coeff

    def add_charge(self, amb_i, c_idx, value):
        base = sum(self.ranks)
        self.mat[amb_i - 1, base + c_idx] += value

    def materialized_flip(self, orig_factor):
        """Flip data for one original factor: (perm update, flips update)."""
        fam, r = self.kinds[orig_factor - 1]
        grp = self.groups[orig_factor - 1]
        if fam == "D" and r == 2:
            return ("swap", grp)
        if fam in ("A", "D"):
            return ("flip", grp)
        raise ValueError(f"factor {fam}{r} has no flip")


def _identity_perm(k):
    return tuple(range(k))


def _gen_flip(builder, orig_factors):
    """Generator applying the diagram flip on the given original factors."""
    perm = list(range(len(builder.factors)))
    flips = set()
    for f in orig_factors:
        kind, grp = builder.materialized_flip(f)
        if kind == "swap":
            perm[grp[0]], perm[grp[1]] = grp[1], grp[0]
        else:
            flips.add(grp[0])
    return Generator(factor_perm=tuple(perm), flips=frozenset(flips))


def _gen_block_transposition(builder, f1, f2, charge_perm=None):
    """Swap two original factors (must have identical materialized shape)."""
    perm = list(range(len(builder.factors)))
    g1 = builder.groups[f1 - 1]
    g2 = builder.groups[f2 - 1]
    if len(g1) != len(g2):
        raise ValueError(f"factors {f1} and {f2} have different materialized shapes")
    for a, b in zip(g1, g2):
        perm[a], perm[b] = b, a
    cop = ("perm", tuple(charge_perm)) if charge_perm is not None else ("id",)
    return Generator(factor_perm=tuple(perm), charge_op=cop)


def _st_generators(builder, t, charge=False):
    gens = []
    for i in range(1, t):
        cp = None
        if charge:
            cp = list(range(t))
            cp[i - 1], cp[i] = i, i - 1
        gens.append(_gen_block_transposition(builder, i, i + 1, cp))
    return gens


def _finish(builder, ambient, family, gens, existence="any", central2=False,
            simple_root_images=None, notes=None):
    rs = build_root_system(ambient)
    derived = tuple(
        tuple(int(x) for x in (np.asarray(rs.cartan[k], dtype=np.int64) @ builder.mat))
        for k in range(ambient.rank)
    )
    images = tuple(simple_root_images) if simple_root_images is not None else derived
    emb = Embedding(
        ambient=ambient,
        family=family,
        factors=builder.factors,
        factor_groups=builder.groups,
        torus_rank=builder.torus_rank,
        restriction=builder.mat,
        simple_root_images=images,
        charge_scale=builder.charge_scale,
        action=ComponentAction(generators=tuple(gens)),
        existence=existence,
        central2=central2,
        notes=notes or {},
    )
    for k in range(ambient.rank):
        if tuple(images[k]) != derived[k]:
            raise AssertionError(
                f"simple-root image mismatch at alpha_{k + 1} of {ambient}: "
                f"{images[k]} vs {derived[k]}"
            )
    return emb


# ---------------------------------------------------------------------------
# C1: stabilizers of non-degenerate subspaces


def _build_c1(ambient, family):
    n = ambient.rank
    sub = family.get("sub")
    l = family.get("l")
    if ambient.family == "B":
        if sub == "Dn":
            if n < 3:
                raise ValueError("B_n > D_n.2 needs n >= 3")
            b = _MatrixBuilder(ambient, [("D", n)])
            for i in range(1, n - 1):
                b.add(i, 1, i)
            b.add(n - 1, 1, n - 1)
            b.add(n - 1, 1, n)
            b.add(n, 1, n)
            return _finish(b, ambient, family, [_gen_flip(b, [1])], existence="p!=2")
        if sub == "DlB":
            if not (l is not None and 1 <= l < n and n >= 3):
                raise ValueError("B_n > D_l B_{n-l}.2 needs 1 <= l < n, n >= 3")
            if l == 1:
                b = _MatrixBuilder(ambient, [("B", n - 1)], torus_rank=1, charge_scale=2)
                for i in range(2, n + 1):
                    b.add(i, 1, i - 1)
                for i in range(1, n):
                    b.add_charge(i, 0, 2)
                b.add_charge(n, 0, 1)
                gens = [Generator(factor_perm=_identity_perm(len(b.factors)), charge_op=("neg",))]
                return _finish(b, ambient, family, gens, existence="p!=2")
            b = _MatrixBuilder(ambient, [("D", l), ("B", n - l)])
            for i in range(1, l - 1):
                b.add(i, 1, i)
            b.add(l - 1, 1, l - 1)
            b.add(l - 1, 1, l)
            for i in range(l, n):
                b.add(i, 1, l, 2)
                if i > l:
                    b.add(i, 2, i - l)
            b.add(n, 1, l)
            b.add(n, 2, n - l)
            return _finish(b, ambient, family, [_gen_flip(b, [1])], existence="p!=2")
    if ambient.family == "D" and sub == "DlD":
        if not (l is not None and 1 <= l < Fraction(n, 2) and n >= 4):
            raise ValueError("D_n > D_l D_{n-l}.2 needs 1 <= l < n/2, n >= 4")
        if l == 1:
            b = _MatrixBuilder(ambient, [("D", n - 1)], torus_rank=1, charge_scale=2)
            for i in range(2, n + 1):
                b.add(i, 1, i - 1)
            for i in range(1, n - 1):
                b.add_charge(i, 0, 2)
            b.add_charge(n - 1, 0, 1)
            b.add_charge(n, 0, 1)
            perm = _identity_perm(len(b.factors))
            g = Generator(factor_perm=perm, flips=frozenset({0}), charge_op=("neg",))
            return _finish(b, ambient, family, [g])
        b = _MatrixBuilder(ambient, [("D", l), ("D", n - l)])
        for i in range(1, l - 1):
            b.add(i, 1, i)
        b.add(l - 1, 1, l - 1)
        b.add(l - 1, 1, l)
        for i in range(l, n - 1):
            b.add(i, 1, l, 2)
            if i > l:
                b.add(i, 2, i - l)
        b.add(n - 1, 1, l)
        b.add(n - 1, 2, n - l - 1)
        b.add(n, 1, l)
        b.add(n, 2, n - l)
        return _finish(b, ambient, family, [_gen_flip(b, [1, 2])])
    raise ValueError(f"invalid c1 family {family} on {ambient}")


# ---------------------------------------------------------------------------
# C3: stabilizers of totally singular decompositions


def _build_c3(ambient, family):
    n = ambient.rank
    if ambient.family not in ("C", "D"):
        raise ValueError("c3 exists on C_n and D_n only")
    existence = "p!=2" if ambient.family == "C" else "any"
    if ambient.family == "D" and n % 2 != 0:
        raise ValueError("c3 on D_n needs n even")
    b = _MatrixBuilder(ambient, [("A", n - 1)], torus_rank=1, charge_scale=2)
    for i in range(1, n):
        b.add(i, 1, i)
    if ambient.family == "C":
        for i in range(1, n + 1):
            b.add_charge(i, 0, 2 * i)
    else:
        for i in range(1, n - 1):
            b.add_charge(i, 0, 2 * i)
        b.add_charge(n - 1, 0, n - 2)
        b.add_charge(n, 0, n)
    g = Generator(
        factor_perm=_identity_perm(len(b.factors)),
        flips=frozenset({0}) if n - 1 >= 2 else frozenset(),
        charge_op=("neg",),
    )
    if n - 1 == 1:
        # A_1 has no diagram flip; tau only inverts the torus
        g = Generator(factor_perm=_identity_perm(len(b.factors)), charge_op=("neg",))
    return _finish(b, ambient, family, [g], existence=existence)


# ---------------------------------------------------------------------------
# C6: classical subgroups


def _build_c6(ambient, family):
    n = ambient.rank
    if ambient.family == "A":
        if (n + 1) % 2 != 0:
            raise ValueError("c6 on A_n needs n odd")
        m = (n + 1) // 2
        if m < 3:
            raise ValueError("c6 A_{2m-1} > D_m.2 needs m >= 3 (D_m simple)")
        b = _MatrixBuilder(ambient, [("D", m)])
        for i in range(1, m - 1):
            b.add(i, 1, i)
            b.add(2 * m - i, 1, i)
        b.add(m - 1, 1, m - 1)
        b.add(m - 1, 1, m)
        b.add(m + 1, 1, m - 1)
        b.add(m + 1, 1, m)
        b.add(m, 1, m, 2)
        # independently recorded simple-root images: alpha_i -> beta_i,
        # alpha_{m+i} -> beta_{m-i} (1 <= i <= m-1), alpha_m -> beta_m - beta_{m-1}
        dm = build_root_system(LieType("D", m))

        def beta(j):
            return np.asarray(dm.cartan[j - 1], dtype=np.int64)

        images = []
        for k in range(1, n + 1):
            if k < m:
                img = beta(k)
            elif k == m:
                img = beta(m) - beta(m - 1)
            else:
                img = beta(2 * m - k)
            images.append(tuple(int(x) for x in img))
        return _finish(b, ambient, family, [_gen_flip(b, [1])], existence="p!=2",
                       simple_root_images=images)
    if ambient.family == "C":
        if n < 3:
            raise ValueError("c6 C_n > D_n.2 needs n >= 3")
        b = _MatrixBuilder(ambient, [("D", n)])
        for i in range(1, n - 1):
            b.add(i, 1, i)
        b.add(n - 1, 1, n - 1)
        b.add(n - 1, 1, n)
        b.add(n, 1, n, 2)
        return _finish(b, ambient, family, [_gen_flip(b, [1])], existence="p=2")
    raise ValueError(f"invalid c6 family on {ambient}")


# ---------------------------------------------------------------------------
# C2: imprimitive subgroups


def _build_c2_a(ambient, family):
    n = ambient.rank
    l = family.get("l")
    t = family.get("t")
    if l is None or t is None or not (l >= 0 and t >= 2 and n + 1 == (l + 1) * t):
        raise ValueError("c2 on A_n needs n + 1 = (l+1) t, l >= 0, t >= 2")
    scale = n + 1
    if l == 0:
        b = _MatrixBuilder(ambient, [], torus_rank=t, charge_scale=scale)
        for k in range(1, n + 1):
            for i in range(1, t + 1):
                b.add_charge(k, i - 1, (scale if i <= k else 0) - k)
        gens = []
        for i in range(t - 1):
            perm = list(range(t))
            perm[i], perm[i + 1] = i + 1, i
            gens.append(Generator(charge_op=("perm", tuple(perm))))
        return _finish(b, ambient, family, gens)
    b = _MatrixBuilder(ambient, [("A", l)] * t, torus_rank=t, charge_scale=scale)
    for k in range(1, n + 1):
        q, r = divmod(k, l + 1)
        if r:
            b.add(k, q + 1, r)
        for i in range(1, t + 1):
            inblock = min(max(k - (i - 1) * (l + 1), 0), l + 1)
            b.add_charge(k, i - 1, scale * inblock - k * (l + 1))
    return _finish(b, ambient, family, _st_generators(b, t, charge=True))


def _build_c2_c(ambient, family):
    n = ambient.rank
    l = family.get("l")
    t = family.get("t")
    if l is None or t is None or not (l >= 1 and t >= 2 and n == l * t):
        raise ValueError("c2 on C_n needs n = l t, l >= 1, t >= 2")
    b = _MatrixBuilder(ambient, [("C", l)] * t)
    for k in range(1, n + 1):
        q, r = divmod(k, l)
        if r:
            b.add(k, q + 1, r)
        for i in range(1, k // l + 1):
            b.add(k, i, l)
    return _finish(b, ambient, family, _st_generators(b, t))


def _build_c2_bl(ambient, family):
    """(2^{t-1} x B_l^t).S_t inside B_n (t odd) or D_n (t even)."""
    n = ambient.rank
    l = family.get("l")
    t = family.get("t")
    if ambient.family == "B":
        if l is None or t is None or not (l >= 1 and t >= 3 and t % 2 == 1 and 2 * n + 1 == (2 * l + 1) * t):
            raise ValueError("c2 B_l^t on B_n needs 2n+1 = (2l+1)t, l >= 1, t >= 3 odd")
        top = n  # ranges of the doubled coefficients stop at n-1; b_n enters everywhere
    elif ambient.family == "D":
        if l is None or t is None or not (l >= 1 and t >= 2 and t % 2 == 0 and 2 * n == (2 * l + 1) * t):
            raise ValueError("c2 B_l^t on D_n needs 2n = (2l+1)t, l >= 1, t >= 2 even")
        top = n - 1  # doubled coefficients stop at n-2; b_{n-1} + b_n enters everywhere
    else:
        raise ValueError("B_l^t lives in B_n or D_n")

    b = _MatrixBuilder(ambient, [("B", l)] * t)

    def add_v(i, k, coeff):
        b.add(k, i, l, coeff)

    def spin_cols(k_list):
        for i in range(1, t + 1):
            for k in k_list:
                add_v(i, k, 1)

    if ambient.family == "B":
        spin_tail = [n]
    else:
        spin_tail = [n - 1, n]

    if l == 1:
        spin_cols(spin_tail)
        for m in range(1, t):
            if m % 2 == 1:
                start = 3 * ((m + 1) // 2) - 2
            else:
                start = 3 * (m // 2) - 1
            for k in range(start, top):
                add_v(m, k, 2)
    else:
        for i in range(1, t + 1):
            if ambient.family == "B" and i == t:
                for j in range(1, l):
                    b.add(n - l + j, i, j)
                continue
            base = (i - 1) * l + (i - 1) // 2
            for j in range(1, l):
                b.add(base + j, i, j)
        spin_cols(spin_tail)
        kmax = t if ambient.family == "D" else t - 1
        for m in range(1, kmax + 1):
            if m % 2 == 1:
                kp = (m + 1) // 2
                start = (2 * kp - 1) * l + kp - 1
            else:
                kp = m // 2
                start = kp * (2 * l + 1) - 1
            for k in range(start, top):
                add_v(m, k, 2)
    return _finish(
        b, ambient, family, _st_generators(b, t), existence="p!=2", central2=True
    )


def _build_c2_dl(ambient, family):
    n = ambient.rank
    l = family.get("l")
    t = family.get("t")
    if ambient.family != "D" or l is None or t is None or not (l >= 1 and t >= 2 and n == l * t and n >= 4):
        raise ValueError("c2 D_l^t on D_n needs n = l t, l >= 1, t >= 2, n >= 4")
    if l == 1:
        # normalizer of a maximal torus: charges are doubled e-coordinates
        b = _MatrixBuilder(ambient, [], torus_rank=n, charge_scale=2)
        for k in range(1, n - 1):
            for j in range(1, k + 1):
                b.add_charge(k, j - 1, 2)
        for j in range(1, n):
            b.add_charge(n - 1, j - 1, 1)
            b.add_charge(n, j - 1, 1)
        b.add_charge(n - 1, n - 1, -1)
        b.add_charge(n, n - 1, 1)
        gens = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = i + 1, i
            gens.append(Generator(charge_op=("perm", tuple(perm))))
        gens.append(Generator(charge_op=("dflip",)))
        return _finish(b, ambient, family, gens)
    b = _MatrixBuilder(ambient, [("D", l)] * t)
    for k in range(1, n):
        q, r = divmod(k, l)
        if r:
            b.add(k, q + 1, r)
    b.add(n, t, l)
    for i in range(1, t):
        b.add(n, i, l)
        b.add(n - 1, i, l)
        b.add(i * l - 1, i, l)
        for k in range(i * l, n - 1):
            b.add(k, i, l, 2)
    gens = _st_generators(b, t)
    # even numbers of D-flips: generated by the pairwise flip on factors 1, 2
    gens.append(_gen_flip(b, [1, 2]))
    return _finish(b, ambient, family, gens)


def _build_c2(ambient, family):
    if ambient.family == "A":
        return _build_c2_a(ambient, family)
    if ambient.family == "C":
        return _build_c2_c(ambient, family)
    if ambient.family == "B":
        return _build_c2_bl(ambient, family)
    if ambient.family == "D":
        kind = family.get("kind", "Dl")
        if kind == "Bl":
            return _build_c2_bl(ambient, family)
        return _build_c2_dl(ambient, family)
    raise ValueError(f"invalid c2 family on {ambient}")


# ---------------------------------------------------------------------------
# C4: tensor product subgroups.  Both sub-collections are realized through the
# coordinate model of the tensor decomposition: each ambient torus coordinate
# is a signed sum of factor torus coordinates, read off from the position of
# the corresponding basis vector inside the tensor product.


def _ambient_e_rows(ambient):
    """Doubled e-coordinates of the fundamental weights (rows, length n)."""
    n = ambient.rank
    fam = ambient.family
    rows = np.zeros((n, n), dtype=np.int64)
    for k in range(1, n + 1):
        if fam in ("B", "C") or (fam == "D" and k <= n - 2):
            for j in range(k):
                rows[k - 1, j] = 2
        elif fam == "D" and k == n - 1:
            rows[k - 1, :] = 1
            rows[k - 1, n - 1] = -1
        elif fam == "D" and k == n:
            rows[k - 1, :] = 1
    if fam == "B":
        rows[n - 1, :] = 1  # lambda_n is the half-sum
    return rows


def _factor_from_e(fam, l, f2):
    """Factor fundamental coordinates from doubled e-coordinates."""
    out = []
    if fam == "A":
        for j in range(l):
            v = f2[j] - f2[j + 1]
            _even(v)
            out.append(v // 2)
        return tuple(out)
    if fam == "B":
        for j in range(l - 1):
            v = f2[j] - f2[j + 1]
            _even(v)
            out.append(v // 2)
        out.append(int(f2[l - 1]))
        return tuple(out)
    if fam == "C":
        for j in range(l - 1):
            v = f2[j] - f2[j + 1]
            _even(v)
            out.append(v // 2)
        _even(f2[l - 1])
        out.append(int(f2[l - 1]) // 2)
        return tuple(out)
    # D
    for j in range(l - 2):
        v = f2[j] - f2[j + 1]
        _even(v)
        out.append(v // 2)
    v = f2[l - 2] - f2[l - 1]
    _even(v)
    out.append(v // 2)
    v = f2[l - 2] + f2[l - 1]
    _even(v)
    out.append(v // 2)
    return tuple(out)


def _even(v):
    if v % 2 != 0:
        raise AssertionError("tensor-model restriction produced a non-integral weight")


def _tensor_embedding(ambient, family, kinds, assignment, gens_fn, existence):
    """Common C4 construction.

    ``assignment`` maps each ambient e-index (0-based, one per coordinate of
    the natural module's positive half) to a list of (factor, e-index, sign)
    triples describing the corresponding tensor basis vector.
    """
    n = ambient.rank
    factor_edim = [r + 1 if f == "A" else r for f, r in kinds]
    rows = _ambient_e_rows(ambient)
    b = _MatrixBuilder(ambient, kinds)
    for k in range(1, n + 1):
        # doubled factor e-coordinates of lambda_k
        fcoords = [np.zeros(d, dtype=np.int64) for d in factor_edim]
        for j in range(n):
            if rows[k - 1, j] == 0:
                continue
            for (fi, ei, sign) in assignment[j]:
                fcoords[fi][ei] += sign * rows[k - 1, j]
        for gi, (fam, r) in enumerate(kinds):
            if fam == "D" and r == 2:
                # D2 factor: the two A1 coefficients are g1 - g2 and g1 + g2
                v1 = fcoords[gi][0] - fcoords[gi][1]
                v2 = fcoords[gi][0] + fcoords[gi][1]
                _even(v1)
                _even(v2)
                b.add(k, gi + 1, 1, int(v1) // 2)
                b.add(k, gi + 1, 2, int(v2) // 2)
            else:
                coeffs = _factor_from_e(fam, r, fcoords[gi])
                for j, c in enumerate(coeffs, start=1):
                    if c:
                        b.add(k, gi + 1, j, int(c))
    return _finish(b, ambient, family, gens_fn(b), existence=existence)


def _build_c4i(ambient, family):
    a = family.get("a")
    bb = family.get("b")
    n = ambient.rank
    if ambient.family == "C":
        if a is None or bb is None or not (a >= 1 and bb >= 2 and n == 2 * a * bb):
            raise ValueError("c4i on C_n needs n = 2ab, a >= 1, b >= 2")
        kinds = [("C", a), ("D", bb)]
    elif ambient.family == "D":
        if a is None or bb is None or not (a > bb >= 2 and n == 2 * a * bb):
            raise ValueError("c4i on D_n needs n = 2ab, a > b >= 2")
        kinds = [("D", a), ("D", bb)]
    else:
        raise ValueError("c4i lives in C_n or D_n")
    assignment = {}
    for j in range(bb):
        for i in range(1, a + 1):
            assignment[2 * j * a + i - 1] = [(0, i - 1, 1), (1, j, 1)]
            assignment[2 * j * a + a + i - 1] = [(0, a - i, -1), (1, j, 1)]

    def gens(builder):
        if ambient.family == "C":
            return [_gen_flip(builder, [2])]
        return [_gen_flip(builder, [1]), _gen_flip(builder, [2])]

    return _tensor_embedding(ambient, family, kinds, assignment, gens, "p!=2")


def _build_c4ii(ambient, family):
    l = family.get("l")
    t = family.get("t")
    n = ambient.rank
    if l is None or t is None:
        raise ValueError("c4ii needs parameters l and t")
    fam = ambient.family
    if fam == "A":
        if not (l >= 2 and t >= 2 and n + 1 == (l + 1) ** t):
            raise ValueError("c4ii on A_n needs n + 1 = (l+1)^t, l >= 2, t >= 2")
        d = l + 1
        kinds = [("A", l)] * t
        existence = "any"
    elif fam == "B":
        if not (l >= 1 and t >= 2 and 2 * n + 1 == (2 * l + 1) ** t):
            raise ValueError("c4ii on B_n needs 2n + 1 = (2l+1)^t, l >= 1, t >= 2")
        d = 2 * l + 1
        kinds = [("B", l)] * t
        existence = "p!=2"
    elif fam == "C":
        if not (l >= 1 and t >= 3 and t % 2 == 1 and 2 * n == (2 * l) ** t):
            raise ValueError("c4ii on C_n needs 2n = (2l)^t, l >= 1, t >= 3 odd")
        d = 2 * l
        kinds = [("C", l)] * t
        existence = "p!=2"
    else:  # D
        kind = family.get("kind", "Cl")
        if kind == "Cl":
            if not (l >= 1 and t >= 2 and 2 * n == (2 * l) ** t):
                raise ValueError("c4ii C_l^t on D_n needs 2n = (2l)^t")
            d = 2 * l
            kinds = [("C", l)] * t
            existence = "any" if t % 2 == 0 else "p=2"
        elif kind == "Dl":
            if not (l >= 3 and t >= 2 and 2 * n == (2 * l) ** t):
                raise ValueError("c4ii D_l^t on D_n needs 2n = (2l)^t, l >= 3")
            d = 2 * l
            kinds = [("D", l)] * t
            existence = "p!=2"
        else:
            raise ValueError(f"unknown c4ii kind {kind!r}")

    # digit model: ambient coordinate j (0-based) is the tensor basis vector
    # whose factor-i digit is r_i; factors are little-endian in the digits.
    def factor_vector(fam_f, r):
        # (e-index, sign) of the factor weight attached to digit r, or None = 0
        if fam_f == "A":
            return (r, 1)
        if fam_f == "B":
            if r < l:
                return (r, 1)
            if r == l:
                return None
            return (2 * l - r, -1)
        # C or D factor, d = 2l
        if r < l:
            return (r, 1)
        return (2 * l - 1 - r, -1)

    ecount = n + 1 if fam == "A" else n
    assignment = {}
    for j in range(ecount):
        m = j
        triples = []
        for i in range(t):
            r = m % d
            m //= d
            fv = factor_vector(kinds[i][0], r)
            if fv is not None:
                triples.append((i, fv[0], fv[1]))
        assignment[j] = triples

    def gens(builder):
        out = _st_generators(builder, t)
        if fam == "D" and family.get("kind", "Cl") == "Dl":
            for f in range(1, t + 1):
                out.append(_gen_flip(builder, [f]))
        return out

    if fam == "A":
        return _tensor_embedding_a(ambient, family, kinds, assignment, gens, existence)
    return _tensor_embedding(ambient, family, kinds, assignment, gens, existence)


def _tensor_embedding_a(ambient, family, kinds, assignment, gens_fn, existence):
    """C4(ii) on A_n: e-coordinates live in Z^{n+1} with m_{n+1} = 0."""
    n = ambient.rank
    l = kinds[0][1]
    factor_edim = l + 1
    b = _MatrixBuilder(ambient, kinds)
    for k in range(1, n + 1):
        fcoords = [np.zeros(factor_edim, dtype=np.int64) for _ in kinds]
        for j in range(k):  # m_j(lambda_k) = 1 for j <= k, else 0
            for (fi, ei, sign) in assignment[j]:
                fcoords[fi][ei] += sign
        for gi in range(len(kinds)):
            for j in range(1, l + 1):
                c = int(fcoords[gi][j - 1] - fcoords[gi][j])
                if c:
                    b.add(k, gi + 1, j, c)
    return _finish(b, ambient, family, gens_fn(b), existence=existence)


_BUILDERS = {
    "c1": _build_c1,
    "c2": _build_c2,
    "c3": _build_c3,
    "c4i": _build_c4i,
    "c4ii": _build_c4ii,
    "c6": _build_c6,
}


def build_embedding(ambient: LieType, family: GeomFamily) -> Embedding:
    """Construct the frozen restriction data for one family instance."""
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
