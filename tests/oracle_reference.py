"""The two-pass ball oracle, kept as the reference for ``label_classes``.

It saturates the radius-(r+1) and radius-(r+2) balls from scratch with a
tuple-keyed union-find and two ``multiply`` calls per edge, which is
slow but short enough to audit by eye.
"""

from itertools import product

from reidemeister.groups import AutomorphismSpec, ClassLabeling


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
