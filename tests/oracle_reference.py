"""Two references for ``label_classes``.

The two-pass ball oracle saturates the radius-(r+1) and radius-(r+2)
balls from scratch with a tuple-keyed union-find and two ``multiply``
calls per edge, which is slow but short enough to audit by eye.

The per-site series labeler reads each site's label off the series top
down, with one reduce per layer and one twist per upper layer at every
site, and the holonomy labeler of Z^n x|_A Z twists each site down to
its top class.  ``label_classes`` labels a row of sites at once: the
layers above the bottom one, and the holonomy twist, are read once per
coset of the bottom layer, and each distinct row is built once, one box
point per site.  Its labels, numbering included, must equal these, and
these twist by ``inverse(apply(z))``, not by the labeler's ``_tail``.
"""

from functools import lru_cache, reduce
from itertools import product
import math

from reidemeister.groups import AutomorphismSpec, ClassLabeling, ZnSemidirectZ, _box


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        elif self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        self.parent[ry] = rx


def reference_label_classes(spec: AutomorphismSpec, radius: int) -> ClassLabeling:
    """Labels over the radius-r ball, read off the saturation of the
    radius-(r+1) ball; ``complete`` from the radius-(r+2) saturation."""
    fam = spec.family
    twists = []
    for gen in fam.generators():
        for z in (gen, fam.inverse(gen)):
            twists.append((z, fam.inverse(spec.apply(z))))

    def saturate(r):
        ball = set(product(range(-r, r + 1), repeat=fam.slots))
        uf = _UnionFind(ball)
        mul = fam.multiply
        for g in ball:
            for z_exp, phiz_inv in twists:
                h = mul(mul(z_exp, g), phiz_inv)
                if h in ball:
                    uf.union(g, h)
        return uf

    uf = saturate(radius + 1)
    uf_next = saturate(radius + 2)

    ball = sorted(product(range(-radius, radius + 1), repeat=fam.slots))
    count = len({uf.find(g) for g in ball})
    roots_next: dict[tuple, list] = {}
    for g in product(range(-radius - 1, radius + 2), repeat=fam.slots):
        roots_next.setdefault(uf_next.find(g), []).append(g)
    count_next = len(roots_next)
    interior = radius - 1
    complete = count == count_next and all(
        any(max(abs(e) for e in member) <= interior for member in members)
        for members in roots_next.values()
    )

    labels: dict[tuple[int, ...], int] = {}
    assigned: dict[tuple, int] = {}
    for g in ball:
        root = uf.find(g)
        if root not in assigned:
            assigned[root] = len(assigned)
        labels[g] = assigned[root]
    return ClassLabeling(radius, labels, complete)


def _twister(spec: AutomorphismSpec):
    """(z, g) -> z g phi(z)^-1, with phi(z)^-1 = inverse(apply(z))."""
    fam = spec.family
    mul, tail = fam.multiply, lru_cache(None)(lambda z: fam.inverse(spec.apply(z)))
    return lambda z, g: mul(mul(z, g), tail(z))


def reference_class_labeler(spec: AutomorphismSpec):
    """The label of an element's twisted class, read off the series top
    down at each site: each layer's box point r of v + (I - X) Z^k, then
    the twist by the lift of -w, v = r + (I - X) w, and the next layer
    down; the holonomy branch of Z^n x|_A Z has its own labeler."""
    fam = spec.family
    if isinstance(fam, ZnSemidirectZ) and fam._holonomy(spec) is not None:
        return reference_holonomy_labeler(spec)
    blocks, actions, twist = fam.layer_matrices(spec), fam.actions, _twister(spec)
    boxes = [_box(b) for b in blocks]
    cuts = [slice(slots[0], slots[-1] + 1) for _, slots, _ in fam.layers]
    top, zero = len(blocks) - 1, (0,) * fam.slots

    @lru_cache(None)
    def box_under(e):  # the layer below the top, on which the top class e acts by B_1^e_1 B_2^e_2
        return _box(reduce(lambda x, be: be[0] ** be[1] * x, zip(actions[::-1], e[::-1]), blocks[-2]))

    def label(g):
        out = []
        for i, cut in zip(range(top, -1, -1), cuts[::-1]):
            box = box_under(out[0]) if i == top - 1 and actions else boxes[i]
            r, w = box.reduce(g[cut])
            out.append(r)
            if not i or box.singular:
                return tuple(out)
            if any(w):
                g = twist(zero[:cut.start] + tuple(-e for e in w) + zero[cut.stop:], g)

    return label


def reference_holonomy_labeler(spec: AutomorphismSpec):
    """The holonomy branch of Z^n x|_A Z, one site at a time: g = l t^k,
    l in L = <t^d, e1..en>; the twist by t^-s brings the top class to k
    mod c = gcd(1 - q, d), and the label is the least box point of l's
    orbit under the stabilizer t^(d/c) L."""
    fam = spec.family
    d, h, lattice, q = fam._holonomy(spec)
    n, twist = fam.n, _twister(spec)
    c = math.gcd(1 - q, d)
    unit, boxes = pow((1 - q) // c, -1, d // c), [_box(h ** k * lattice) for k in range(c)]
    stabilizer = (0,) * n + (d // c,)

    def point(k, g):  # the box point of l, g = l t^k
        return boxes[k].reduce(((g[n] - k) // d,) + g[:n])[0]

    def label(g):
        k = g[n] % c
        s = (g[n] - k) // c * unit % (d // c)  # (1 - q) s = g[n] - k mod d
        orbit = [point(k, twist((0,) * n + (-s,), g) if s else g)]
        for _ in range(c - 1):  # x -> the box point of t^(d/c) x t^k phi(t^(d/c))^-1
            orbit.append(point(k, twist(stabilizer, orbit[-1][1:] + (orbit[-1][0] * d + k,))))
        return k, min(orbit)

    return label


def reference_labels(spec: AutomorphismSpec, radius: int) -> dict:
    """The per-site labels of the radius-r ball, numbered in first-seen
    order over the sorted ball."""
    label, assigned = reference_class_labeler(spec), {}
    ball = product(range(-radius, radius + 1), repeat=spec.family.slots)
    return {g: assigned.setdefault(label(g), len(assigned)) for g in ball}
