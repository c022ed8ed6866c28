"""The former stabilizer-chain walk of the component orbits, kept as a
test-only oracle for the whole-group step and the h route.

``stabilizer_chain`` is Schreier-Sims with Sims' filter on the signed
points; ``component_orbits`` walks a block of weights along that chain one
transversal at a time, shedding trailing weights before a stage that would
pass ``embeddings.ORBIT_CHUNK_ROWS`` rows.  It shares no code with
``embeddings.component_group``, ``embeddings.Wreath`` or the h route, and
it walks groups of any order.
"""

import functools

import numpy as np

from weylbranch import embeddings, kernels


def stabilizer_chain(generators, width):
    """A stabilizer chain of the component group, by Schreier-Sims with
    Sims' filter on the 2 * width signed points (point i is e_i, point
    width + i is -e_i; a permutation g lists g(p) per point p).

    With G_j the stabilizer of the base points b_1 .. b_{j-1}, U_j holds one
    element of G_j per point of G_j b_j, so G = U_1 ... U_k and, G being
    closed under inverses, G x = U_k^-1 (... (U_1^-1 x)).  The Schreier
    generators of G_j generate G_{j+1}; the filter keeps the group and one
    per (first moved point, its image).  Returns U_1^-1 .. U_k^-1 as blocks
    of (index rows, sign rows), like ``generators``: u takes e_i to +-e_q
    with q = u(i) mod width, so u^-1 reads coordinate q into place i.
    """
    n = 2 * width
    one = tuple(range(n))

    def mul(a, b):  # a after b
        return tuple([a[p] for p in b])

    def inv(a):
        out = [0] * n
        for p, q in enumerate(a):
            out[q] = p
        return tuple(out)

    def sims_filter(perms):  # (g, g^-1) per (first point i that g moves, g(i))
        table = {}
        for g in perms:
            while g != one:
                i = 0
                while g[i] == i:
                    i += 1
                h = table.setdefault((i, g[i]), (g, inv(g)))
                g = one if h[0] is g else mul(h[1], g)
        return [g for g, _ in table.values()]

    # each generator's inverse, e_i -> +-e_idx[i], which generate G as well
    pos = ([j + width * (s < 0) for j, s in zip(idx, sgn)] for idx, sgn in generators)
    gens, stages = sims_filter(tuple(p + [(q + width) % n for q in p]) for p in pos), []
    while gens:
        b = min(p for g in gens for p in range(n) if g[p] != p)
        orbit, todo = {b: one}, [b]
        for p in todo:
            for g in gens:
                if g[p] not in orbit:
                    orbit[g[p]] = mul(g, orbit[p])
                    todo.append(g[p])
        images = np.array(list(orbit.values()), dtype=np.intp)[:, :width]
        stages.append((images % width, np.where(images < width, 1, -1)))
        back = {p: inv(u) for p, u in orbit.items()}
        gens = sims_filter(mul(back[g[p]], mul(g, u)) for p, u in orbit.items() for g in gens)
    return tuple(stages)


@functools.lru_cache(maxsize=None)
def chain_of(e):
    """The stabilizer chain of e's component group."""
    return stabilizer_chain(e.generators, e.width)


def chain_order(e):
    """|A|, the product of the transversal sizes."""
    order = 1
    for idx, _ in chain_of(e):
        order *= len(idx)
    return order


def component_orbits(e, rows):
    """The former ``embeddings.component_orbits``: yields (orbit, sizes) per
    chunk, the orbits in the sorted order of ``component_orbit_set``.

    A stage applies one transversal to the chunk's rows as one
    index-and-sign step and drops repeats by int64 keys of (weight, image).
    Before a stage whose rows times |U_j| would pass ORBIT_CHUNK_ROWS, the
    chunk sheds its trailing weights (one stays); they keep their rows and
    resume there in the next chunk.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, e.width)
    bound = int(np.abs(rows).max(initial=0))
    if bound >= 1 << 60:
        raise kernels.KernelCapacityError(f"component orbits({e.ambient}, {e.family}): coordinates exceed 2**60")
    stages = chain_of(e)
    limit = embeddings.ORBIT_CHUNK_ROWS
    weight, image = np.arange(len(rows)), rows
    stage = np.zeros(len(rows), dtype=np.intp)
    lo, take = 0, len(rows)
    while lo < len(rows):
        hi = top = min(lo + take, len(rows))
        cut = np.searchsorted(weight, hi)
        cw, ci, weight, image = weight[:cut] - lo, image[:cut], weight[cut:], image[cut:]
        keys = kernels._key_weights(e.width + 1, 2 * max(bound, hi - lo) + 1)
        for s in range(int(stage[hi - 1]), len(stages)):
            start, size = np.searchsorted(cw, np.count_nonzero(stage[lo:hi] > s)), len(stages[s][0])
            if (len(ci) - start) * size > limit and hi - lo > 1:
                grow = np.bincount(cw[start:], minlength=hi - lo) * size
                keep = max(int(np.searchsorted(np.cumsum(grow), limit, side="right")), 1)
                stage[lo + keep:hi] = np.maximum(stage[lo + keep:hi], s)
                hi, cut = lo + keep, np.searchsorted(cw, keep)
                weight, image = np.concatenate((cw[cut:] + lo, weight)), np.concatenate((ci[cut:], image))
                cw, ci = cw[:cut], ci[:cut]
            if start < len(ci):
                cw, ci = _orbit_stage(stages[s], cw, ci, start, keys)
        yield ci, np.bincount(cw, minlength=hi - lo)
        lo, take = hi, 2 * take if hi == top else hi - lo


def _orbit_stage(step, weight, image, start, keys):
    """The (weight, image) rows with each one from ``start`` on replaced by
    its images under one stage block, repeats dropped, in key order."""
    idx, sgn = step
    moved = np.repeat(weight[start:], len(idx))
    images = (image[start:, idx] * sgn).reshape(len(moved), -1)
    packed = images @ keys[1:] + moved[:, None] * keys[0]
    order = kernels._key_order(packed)
    order = order[kernels._run_starts(packed[order])]
    if not start:
        return moved[order], images[order]
    return np.concatenate((weight[:start], moved[order])), np.concatenate((image[:start], images[order]))
