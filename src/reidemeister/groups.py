"""Concrete group arithmetic for the classified families.

Six families are supported, each with a hand-derived closed-form
``multiply`` (a generic collector would be slower and harder to audit at
this size), which is the only place the group is written down.  An
element is its exponent tuple in a fixed generator order, with no
wrapper: the normal form g_1^e_1 ... g_n^e_n is unique, so two elements
are equal exactly when their tuples agree, and the family computes on
them (``multiply``, ``inverse``, ``power``; ``element`` checks one).
Generator images of an automorphism are such tuples too.  The inverse,
the powers and the defining relations are read off ``multiply``: the
collection relations g_j g_i = NF(g_j g_i), i < j, present each family
(a polycyclic presentation), and ``verify_automorphism`` checks an
automorphism against them.  The hand-written presentations are kept in
the tests as an independent reference.  Each family also declares its
polycyclic series once (``GroupFamily.layers``, ``actions``, ``route``):
the layer check that completes verification, the formula route for the
Reidemeister number and the twisted-class labels of the oracle
(``label_classes``) are all read off it.  Each layer also carries
its kind: the lattice is abelian and the center central, so once the
images lie in their layers, the relations between two lattice generators
and those with a central generator hold, and verification does not
evaluate them again.

Generator and exponent-slot order per family (also the order used by
all serialization):

===========================  =====================================
family                       slots
===========================  =====================================
FreeAbelian(n)               e1 .. en         (n <= MAX_RANK = 4)
Heisenberg(n)                x, y, z          (z central, yx = xy z^n)
HeisenbergTimesZ(n)          x, y, z, u       (u central)
ZnSemidirectZ(A)             e1 .. en, t      (t v t^-1 = A v,
                                               n <= MAX_RANK - 1)
Z2MinusIExt(A, n0)           e1, e2, t, u     (t v t^-1 = -v,
                                               u v u^-1 = A v,
                                               u t u^-1 = n0 t)
HnSemidirectZ(n, k, l)       x, y, z, t       (t x t^-1 = x^-1 z^k,
                                               t y t^-1 = y^-1 z^l,
                                               t z t^-1 = z)
===========================  =====================================

Exponents are arbitrary-precision; witness parameters up to 10**6 are
routine and must not overflow anything.

Z2MinusIExt is the extension of Z^2 by Z^2 in which u acts by A, t by
-I and [u, t] = n0; its law writes the sign of t out, and the test
reference ``tests/canonical_reference.py`` keeps the law for any
commuting pair of actions as an independent check.  The matrix-backed
laws read A^k (``exactlin._power``) and the geometric sums
(``exactlin._power_sum``) from one bounded power cache; an action of
finite order reduces the exponent modulo its order first, in O(1).
Exponents, parameters and n0 must be ints: the constructors and JSON
decoding refuse a float, a string or a boolean with a ValueError naming
the field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache, reduce
from itertools import combinations, product
import math
import operator
from typing import Callable, ClassVar, Mapping, Sequence

from .exactlin import (
    IntMatrix,
    MatrixParseError,
    finite_order,
    lifting_solver,
    matrix_from_json,
    _power,
    _power_sum,
    _strict_int,
)
from .twisted import INFINITE, HermiteBox, RNumber, r_abelian, r_class_sum


class UnknownWitnessError(ValueError):
    """No witness with the requested id exists for the family."""


class LayerLeftError(ValueError):
    """A generator image leaves its layer of the family's series."""


_MINUS_I = IntMatrix(2, 2, (-1, 0, 0, -1))
MAX_RANK = 4  # FreeAbelian(n): the package answers for Hirsch length <= 4


def _json_matrix(data: Mapping) -> IntMatrix:
    try:
        return matrix_from_json(data["matrix"])
    except MatrixParseError as exc:
        raise ValueError("field 'matrix': %s" % exc) from None


# ---------------------------------------------------------------------------
# Families


class GroupFamily:
    """Base class of the family table.

    Each subclass is one row: its JSON tag and decoder, its group law on
    exponent tuples, and its polycyclic series.  The law is the only
    description of the group: its normal forms are in slot order, and the
    base class derives the inverse and the powers from it, as
    ``verify_automorphism`` derives the relations.  The series is set once
    per instance (``_declare``):

    - ``layers``: (name, slots, kind) per layer, bottom first,
      partitioning the slots into runs of consecutive slots; conjugation
      keeps each layer's generators in that layer and the layers below.
      ``kind`` is "abelian" or "central" when the layer and those below it
      generate an abelian or a central subgroup, else None;
    - ``actions``: the matrices by which the top layer's generators act on
      the layer below it, modulo the lower layers; None when every layer
      is central modulo the layers below;
    - ``route``: the trace id of the formula route.

    The layer check and the formula route are read off it:
    ``layer_matrices`` reads the block each layer's images induce,
    ``layer_failure`` requires each block to be unimodular, and
    ``rnumber_route`` counts along the series, and ``class_labeler``
    labels twisted classes along it.  The kinds tell
    ``verify_automorphism`` which collection relations the series already
    proves (``open_relations``).  ``tests/test_groups.py`` checks each
    series, kinds included, against ``multiply``.
    FAMILIES maps each tag to its subclass.
    """

    json_tag: ClassVar[str]
    generator_names: tuple[str, ...] = ()
    layers: tuple[tuple[str, tuple[int, ...]], ...] = ()
    actions: tuple[IntMatrix, ...] | None = None
    route: str = ""

    @property
    def slots(self) -> int:
        return len(self.generator_names)

    def _declare(self, names, layers, route, actions=None):
        """Set the generator names and the series."""
        vars(self).update(generator_names=names, layers=layers, actions=actions, route=route)

    def element(self, exponents: Sequence[int]) -> tuple[int, ...]:
        """The exponent tuple, checked: one int per slot."""
        exponents = tuple(exponents)
        if len(exponents) != self.slots:
            raise ValueError("expected %d exponents, got %d" % (self.slots, len(exponents)))
        for e in exponents:
            _strict_int(e, "an exponent")
        return exponents

    def generators(self) -> list[tuple[int, ...]]:
        n = self.slots
        return [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]

    # subclasses implement multiply on exponent tuples
    def multiply(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def inverse(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """g_n^-a_n ... g_1^-a_1 for a = g_1^a_1 ... g_n^a_n."""
        n = len(a)
        powers = [(0,) * i + (-e,) + (0,) * (n - 1 - i) for i, e in enumerate(a) if e]
        return reduce(self.multiply, reversed(powers)) if powers else a

    def power(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        # high bit first, no squaring past the last: a^1 costs no product, a^-1 one inverse
        if not k:
            return (0,) * len(a)
        result = base = a if k > 0 else self.inverse(a)
        for bit in bin(abs(k))[3:]:
            result = self.multiply(result, result)
            if bit == "1":
                result = self.multiply(result, base)
        return result

    # JSON: the tag plus the integer parameters, which the constructor
    # checks (``_require_int_fields``); families with matrix parameters
    # override both directions
    def to_json_dict(self) -> dict:
        return {"tag": self.json_tag, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupFamily":
        return cls(*(data[f.name] for f in fields(cls)))

    def _require_int_fields(self):
        for f in fields(self):
            _strict_int(getattr(self, f.name), "field %r" % f.name)

    # the series read off an automorphism spec of this family
    def layer_matrices(self, spec: "AutomorphismSpec") -> list[IntMatrix]:
        """The block each layer's generator images induce on that layer,
        bottom first; LayerLeftError when an image leaves the layer and the
        layers below."""
        images, blocks = spec.images, []
        for (name, slots, _), above in zip(self.layers, _slots_above(self.layers)):
            cols = [images[s] for s in slots]
            if any(img[j] for img in cols for j in above):
                raise LayerLeftError("images leave the %s subgroup" % name)
            blocks.append(IntMatrix(len(slots), len(slots), tuple(img[j] for j in slots for img in cols)))
        return blocks

    def layer_failure(self, spec: "AutomorphismSpec") -> str | None:
        """The first layer, bottom first, whose block is not unimodular, or
        None; LayerLeftError when the images leave a layer."""
        for (name, slots, _), block in zip(self.layers, self.layer_matrices(spec)):
            if not block.is_unimodular:
                if len(slots) == 1:
                    return "%s exponent of %s is not +-1" % (name, self.generator_names[slots[0]])
                return "%s matrix is not unimodular" % name
        return None

    def rnumber_route(self, spec: "AutomorphismSpec") -> tuple[RNumber, tuple[str, ...]]:
        """Reidemeister number of a verified spec and the rule it used.

        With every layer central the counts multiply.  Otherwise the top
        block Q sums over the classes of Z^k / (I - Q) Z^k, the class of the
        i-th top generator acting on the block below by ``actions[i]``
        (``twisted.r_class_sum``), times the counts of the central layers
        under it; infinite when det(I - Q) = 0, as 1 is then an eigenvalue
        of Q."""
        blocks = self.layer_matrices(spec)
        if self.actions is None:
            return reduce(operator.mul, map(r_abelian, blocks)), (self.route,)
        *central, below, top = blocks
        shift = IntMatrix.identity(top.rows) - top
        if shift.det() == 0:
            return INFINITE, ("rnumber:identity-quotient",)
        return reduce(operator.mul, map(r_abelian, central), r_class_sum(shift, self.actions, below)), (self.route,)

    def class_labeler(self, spec: "AutomorphismSpec") -> Callable[[tuple[int, ...]], tuple]:
        """The label of an element's twisted class, read off the series top
        down: with the layers above fixed, a twist g -> z g phi(z)^-1 by z
        in this layer and below moves the layer's coordinates v by (I - X) w,
        w those of z and X the layer's block (times the action of the top
        class, on the layer below the top).  So the box point r of
        v + (I - X) Z^k (``HermiteBox``) is an invariant, and the twist by
        the lift of -w, v = r + (I - X) w, moves g onto it; below, only the
        lower layers move.  The label is r per layer, down to the bottom or
        to a singular layer, below which it may join classes."""
        blocks, actions, twist = self.layer_matrices(spec), self.actions, self._twister(spec)
        boxes = [_box(b) for b in blocks]
        cuts = [slice(slots[0], slots[-1] + 1) for _, slots, _ in self.layers]
        top, zero = len(blocks) - 1, (0,) * self.slots

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

    def _twister(self, spec: "AutomorphismSpec") -> Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
        """(z, g) -> z g phi(z)^-1, keeping phi(z)^-1 per z while it lives."""
        mul, tail = self.multiply, lru_cache(None)(lambda z: self.inverse(spec.apply(z)))
        return lambda z, g: mul(mul(z, g), tail(z))

    def open_relations(self, spec: "AutomorphismSpec") -> tuple[tuple[int, int], ...]:
        """The pairs (i, j), i < j, whose collection relation the series
        does not prove for a spec that passed ``layer_failure``: all of them
        when an image leaves its layer and the layers below (as the
        holonomy branch of ``ZnSemidirectZ`` allows), else those that the
        layer kinds do not settle."""
        leaving, all_pairs, open_pairs = _series_shape(self.layers)
        images = spec.images
        return all_pairs if any(images[s][j] for s, j in leaving) else open_pairs


def _box(x: IntMatrix) -> HermiteBox:
    return HermiteBox(IntMatrix.identity(x.rows) - x)


@lru_cache(maxsize=64)
def _slots_above(layers: tuple) -> tuple[tuple[int, ...], ...]:
    """Per layer, the slots of the layers above it, which its images may
    not reach; one entry per series shape."""
    return tuple(tuple(s for _, later, _ in layers[i + 1:] for s in later) for i in range(len(layers)))


@lru_cache(maxsize=64)
def _series_shape(layers: tuple) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(leaving, all pairs, open pairs) for one series shape: the (s, j)
    with slot j above the layer of slot s, the pairs i < j, and those
    whose relation the kinds do not settle.

    With every image in its layer and the layers below, the images of a
    kinded layer's generators and those below it lie in the subgroup those
    generate.  So the relation of g_i and g_j holds when both lie in an
    abelian one (their images commute, as they do) or one lies in a
    central one (its image is central too)."""
    leaving = tuple((s, j) for (_, slots, _), above in zip(layers, _slots_above(layers)) for s in slots for j in above)
    abelian, central, below = set(), set(), set()
    for _, slots, kind in layers:
        below.update(slots)
        if kind == "abelian":
            abelian = set(below)
        elif kind == "central":
            central = set(below)
    all_pairs = tuple(combinations(range(len(below)), 2))
    open_pairs = tuple(p for p in all_pairs if not (set(p) <= abelian or central.intersection(p)))
    return leaving, all_pairs, open_pairs


@dataclass(frozen=True)
class FreeAbelian(GroupFamily):
    json_tag = "free-abelian"
    n: int

    def __post_init__(self):
        self._require_int_fields()
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        if self.n > MAX_RANK:
            raise ValueError("rank %d exceeds MAX_RANK = %d, the largest Hirsch length in scope" % (self.n, MAX_RANK))
        names = tuple("e%d" % (i + 1) for i in range(self.n))
        self._declare(names, (("lattice", tuple(range(self.n)), "abelian"),), "rnumber:lattice")

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))


def _heis_mul(n: int, a: tuple, b: tuple) -> tuple:
    # yx = xy z^n, z central: moving x^a2 left past y^b1 costs z^(n a2 b1)
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + n * b[0] * a[1])


@dataclass(frozen=True)
class Heisenberg(GroupFamily):
    json_tag = "heisenberg"
    n: int

    def __post_init__(self):
        self._require_int_fields()
        if self.n < 1:
            raise ValueError("Heisenberg parameter must be >= 1")
        layers = (("center", (2,), "central"), ("quotient", (0, 1), None))
        self._declare(("x", "y", "z"), layers, "rnumber:center-times-quotient")

    def multiply(self, a, b):
        return _heis_mul(self.n, a, b)


@dataclass(frozen=True)
class HeisenbergTimesZ(GroupFamily):
    json_tag = "heisenberg-times-z"
    n: int

    def __post_init__(self):
        self._require_int_fields()
        if self.n < 1:
            raise ValueError("Heisenberg parameter must be >= 1")
        layers = (("center", (2, 3), "central"), ("quotient", (0, 1), None))
        self._declare(("x", "y", "z", "u"), layers, "rnumber:center-times-quotient")

    def multiply(self, a, b):
        return _heis_mul(self.n, a[:3], b[:3]) + (a[3] + b[3],)


@dataclass(frozen=True)
class ZnSemidirectZ(GroupFamily):
    """Z^n x|_A Z: the lattice below the quotient <t>, on which t acts by
    A; with A = I the group is free abelian, one layer."""

    json_tag = "zn-semidirect-z"
    action: IntMatrix

    def __post_init__(self):
        n = self.action.rows
        if n >= MAX_RANK:
            raise ValueError(
                "a %dx%d action gives Hirsch length %d, above MAX_RANK = %d, the largest Hirsch length in scope"
                % (n, self.action.cols, n + 1, MAX_RANK)
            )
        if not self.action.is_unimodular:
            raise ValueError("the acting matrix must be unimodular")
        names = tuple("e%d" % (i + 1) for i in range(n)) + ("t",)
        if self.action == IntMatrix.identity(n):
            self._declare(names, (("lattice", tuple(range(n + 1)), "abelian"),), "rnumber:lattice")
        else:
            layers = (("lattice", tuple(range(n)), "abelian"), ("quotient", (n,), None))
            self._declare(names, layers, "rnumber:two-step-addition", (self.action,))

    @property
    def n(self) -> int:
        return self.action.rows

    def multiply(self, a, b):
        n = self.n
        p = _power(self.action.entries, a[n])
        return tuple(a[i] + sum(map(operator.mul, p[i * n:(i + 1) * n], b)) for i in range(n)) + (a[n] + b[n],)

    def to_json_dict(self):
        return {"tag": self.json_tag, "matrix": self.action.to_rows()}

    @classmethod
    def from_json(cls, data):
        return cls(_json_matrix(data))

    # The holonomy branch: when A has finite order d, the e_i images may
    # leave the lattice, and the translation lattice <t^d, e1..en> is the
    # characteristic one.  Leaving the lattice is a failure where it is
    # characteristic, as when 1 is not an eigenvalue.  Known gap (ROADMAP
    # item 6): an A of infinite order refuses genuine automorphisms too,
    # e.g. e1 -> e1^-1, e2 -> t, t -> e2 on A = (1,1;0,1).
    def layer_failure(self, spec):
        try:
            return super().layer_failure(spec)
        except LayerLeftError:
            d = finite_order(self.action)
            if d is None:
                raise
        if not translation_matrix(spec, d).is_unimodular:
            return "translation-lattice matrix is not unimodular"
        if math.gcd(spec.image_of("t")[self.n], d) != 1:
            return "induced map on the finite quotient is not bijective"
        return None

    def rnumber_route(self, spec):
        try:
            return super().rnumber_route(spec)
        except LayerLeftError:
            d = finite_order(self.action)
            if d is None:
                raise
        # the holonomy Z / d acts on the translation lattice by diag(1, A)^e
        n, a = self.n, self.action
        h = IntMatrix.from_rows([[1] + [0] * n] + [[0, *a.row(i)] for i in range(n)])
        total = r_class_sum(IntMatrix(1, 1, (d,)), (h,), translation_matrix(spec, d)).div_exact(d)
        return total, ("rnumber:holonomy-averaging",)

    def class_labeler(self, spec):
        try:
            return super().class_labeler(spec)
        except LayerLeftError:
            d = finite_order(self.action)
            if d is None:
                raise
        # The holonomy branch: g = l t^k, l in L = <t^d, e1..en> (coordinates
        # (t^d, e1..en)), on which phi acts by T and t by H = diag(1, A).  A
        # twist by t^s moves k by (1 - q) s mod d, q the t-exponent of
        # phi(t): the top class is k mod c = gcd(1 - q, d), its stabilizer
        # t^(d/c) L.  A twist by w in L moves l by (I - H^k T) w, so l has a
        # box point; the label is the least one of its orbit under t^(d/c).
        n, twist = self.n, self._twister(spec)
        h = IntMatrix.from_rows([[1] + [0] * n] + [[0, *self.action.row(i)] for i in range(n)])
        q, lattice = spec.image_of("t")[n], translation_matrix(spec, d)
        c = math.gcd(1 - q, d)
        unit, boxes = pow((1 - q) // c, -1, d // c), [_box(h ** k * lattice) for k in range(c)]
        stabilizer, least = (0,) * n + (d // c,), {}

        def point(k, g):  # the box point of l, g = l t^k
            return boxes[k].reduce(((g[n] - k) // d,) + g[:n])[0]

        def label(g):
            k = g[n] % c
            s = (g[n] - k) // c * unit % (d // c)  # (1 - q) s = g[n] - k mod d
            r = point(k, twist((0,) * n + (-s,), g) if s else g)
            if (k, r) not in least:
                orbit = [r]
                for _ in range(c - 1):  # x -> the box point of t^(d/c) x t^k phi(t^(d/c))^-1
                    orbit.append(point(k, twist(stabilizer, orbit[-1][1:] + (orbit[-1][0] * d + k,))))
                least.update(dict.fromkeys(((k, x) for x in orbit), min(orbit)))
            return k, least[k, r]

        return label


# every lattice of the filiform algebra is Z^3 x|_A Z, A unipotent, (A - I)^2 != 0
THREE_STEP = ZnSemidirectZ(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))


@dataclass(frozen=True)
class Z2MinusIExt(GroupFamily):
    """(Z^2 x|_{-I} Z) x|_psi Z with psi(v t^k) = A(v) (n0 t)^k."""

    json_tag = "z2-minusi-ext"
    action: IntMatrix
    n0: tuple[int, int]

    def __post_init__(self):
        if self.action.rows != 2 or self.action.cols != 2 or not self.action.is_unimodular:
            raise ValueError("the outer action must be a unimodular 2x2 matrix")
        if len(self.n0) != 2:
            raise ValueError("n0 must be a length-2 integer vector")
        object.__setattr__(self, "n0", tuple(_strict_int(v, "an entry of n0") for v in self.n0))
        # the class of t^e u^f in Z^2 / (I - Q) Z^2 acts on the lattice by (-I)^e A^f
        layers = (("lattice", (0, 1), "abelian"), ("quotient", (2, 3), None))
        self._declare(("e1", "e2", "t", "u"), layers, "rnumber:quotient-class-sum", (_MINUS_I, self.action))

    # with S_A(l) = I + A + ... + A^(l-1), and S_-I(k') = [k' odd] I for every k':
    # v t^k u^l * v' t^k' u^l' = (v + (-1)^k (A^l v' + [k' odd] S_A(l) n0)) t^(k+k') u^(l+l')
    def multiply(self, a, b):
        x1, y1, k1, l1 = a
        x2, y2, k2, l2 = b
        p, s = _power_sum(self.action.entries, l1)
        w0 = p[0] * x2 + p[1] * y2
        w1 = p[2] * x2 + p[3] * y2
        if k2 % 2:
            n0, n1 = self.n0
            w0 += s[0] * n0 + s[1] * n1
            w1 += s[2] * n0 + s[3] * n1
        if k1 % 2:
            return (x1 - w0, y1 - w1, k1 + k2, l1 + l2)
        return (x1 + w0, y1 + w1, k1 + k2, l1 + l2)

    def to_json_dict(self):
        return {"tag": self.json_tag, "matrix": self.action.to_rows(), "n0": list(self.n0)}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data["n0"], list):
            raise ValueError("field 'n0' must be an array of two integers, got %r" % (data["n0"],))
        return cls(_json_matrix(data), tuple(data["n0"]))

    def layer_failure(self, spec):
        # the image of t acts on the lattice by +-A^k, k its u-exponent, and
        # must act by -I; an action of infinite order forces k = 0, and so
        # has at most 4 classes to sum
        failure = super().layer_failure(spec)
        if failure is None and spec.image_of("t")[3] and finite_order(self.action) is None:
            return "u-exponent of the image of t is not 0"
        return failure


@dataclass(frozen=True)
class HnSemidirectZ(GroupFamily):
    """H_n x|_psi Z with psi(x) = x^-1 z^k, psi(y) = y^-1 z^l, psi(z) = z."""

    json_tag = "hn-semidirect-z"
    n: int
    k: int
    l: int

    def __post_init__(self):
        self._require_int_fields()
        if self.n < 1:
            raise ValueError("Heisenberg parameter must be >= 1")
        # the class of t^e in Z / (1 - q) Z acts on H_n / Z(H_n) by (-I)^e
        layers = (("center", (2,), "central"), ("Heisenberg", (0, 1), None), ("quotient", (3,), None))
        self._declare(("x", "y", "z", "t"), layers, "rnumber:two-step-addition", (_MINUS_I,))

    def multiply(self, a, b):
        x, y, z = b[:3]
        if a[3] % 2:  # t^k acts by psi^(k mod 2), as psi is an involution on H_n
            x, y, z = -x, -y, z + self.k * x + self.l * y
        return _heis_mul(self.n, a[:3], (x, y, z)) + (a[3] + b[3],)


FAMILIES: dict[str, type[GroupFamily]] = {cls.json_tag: cls for cls in GroupFamily.__subclasses__()}


def family_from_json(data: Mapping) -> GroupFamily:
    """Decode a family from its JSON object; every malformed input ends in
    one ValueError naming what is wrong."""
    if not isinstance(data, Mapping):
        raise ValueError("a family must be a JSON object, got %s" % type(data).__name__)
    tag = data.get("tag")
    cls = FAMILIES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError("unknown family tag %r" % (tag,))
    try:
        return cls.from_json(data)
    except KeyError as exc:
        raise ValueError("family %r lacks the field %s" % (tag, exc)) from None
    except TypeError as exc:
        raise ValueError("family %r has a malformed field: %s" % (tag, exc)) from None


# ---------------------------------------------------------------------------
# Automorphism specifications


@dataclass(frozen=True)
class AutomorphismSpec:
    """The images of the generators, in slot order, each an exponent
    tuple in normal form; the layer matrices are read off the images by
    the family (``layer_matrices``), never stored."""

    family: GroupFamily
    images: tuple[tuple[int, ...], ...]
    verified: bool = False

    def __post_init__(self):
        slots = self.family.slots
        if len(self.images) != slots:
            raise ValueError("expected %d generator images, got %d" % (slots, len(self.images)))
        for img in self.images:
            if len(img) != slots:
                raise ValueError("expected %d exponents in each image, got %d" % (slots, len(img)))

    @classmethod
    def from_images(cls, family: GroupFamily, images: Mapping[str, Sequence[int]]) -> "AutomorphismSpec":
        unknown = [name for name in images if name not in family.generator_names]
        if unknown:
            raise ValueError("image for %r, which is not a generator of %s" % (unknown[0], family.json_tag))
        elems = []
        for name in family.generator_names:
            if name not in images:
                raise ValueError("missing image for generator %r" % name)
            try:
                elems.append(family.element(images[name]))
            except ValueError as exc:
                raise ValueError("image of %r: %s" % (name, exc)) from None
        return cls(family, tuple(elems))

    def image_of(self, name: str) -> tuple[int, ...]:
        return self.images[self.family.generator_names.index(name)]

    def apply(self, g: tuple[int, ...]) -> tuple[int, ...]:
        """phi(g) for g in normal form: the product of generator images
        raised to g's exponents, in slot order."""
        fam = self.family
        if len(g) != fam.slots:
            raise ValueError("expected %d exponents, got %d" % (fam.slots, len(g)))
        powers = [fam.power(img, e) for img, e in zip(self.images, g) if e]
        return reduce(fam.multiply, powers) if powers else (0,) * fam.slots

    def to_json_dict(self) -> dict:
        images = dict(zip(self.family.generator_names, map(list, self.images)))
        return {"family": self.family.to_json_dict(), "images": images}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AutomorphismSpec":
        """Decode a spec; malformed JSON ends in one ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError("an automorphism must be a JSON object, got %s" % type(data).__name__)
        for key in ("family", "images"):
            if key not in data:
                raise ValueError("automorphism JSON lacks the key %r" % key)
        family = family_from_json(data["family"])
        images = data["images"]
        if not isinstance(images, Mapping) or not all(isinstance(v, (list, tuple)) for v in images.values()):
            raise ValueError("'images' must map each generator name to an array of exponents")
        try:
            return cls.from_images(family, images)
        except TypeError as exc:
            raise ValueError("malformed generator image: %s" % exc) from None


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_automorphism(spec: AutomorphismSpec) -> VerificationResult:
    """Check that the generator images define an automorphism.

    A spec passes when the induced matrices on the layers of the
    polycyclic series are unimodular and phi respects every collection
    relation g_j g_i = NF(g_j g_i), i < j, read off ``multiply``:
    phi(g_j) phi(g_i) must equal phi(NF(g_j g_i)), the product of the
    image powers in slot order (``AutomorphismSpec.apply``).  This relies
    on the family's normal forms being in slot order, so that these
    relations present it; the hand-written presentations are kept in the
    tests as the reference.  The report names the failed layer or the
    first violated relation, pairs (i, j) in lexicographic order.  The
    layers come first: they read the images in O(1) and bound the
    exponents the relations then multiply by.

    Once every image lies in its layer and the layers below, the series
    proves two kinds of relation, which are not evaluated again
    (``GroupFamily.open_relations``): two generators of an abelian layer
    (the lattice) have commuting images in it, and a generator of a
    central layer (the center) has a central image.  A skipped relation
    holds, so the first violated one, and the report, are those of the
    full check.
    """
    family = spec.family
    try:
        failure = family.layer_failure(spec)
    except ValueError as exc:
        failure = str(exc)
    if failure:
        return VerificationResult(False, failure)
    gens, images, names = family.generators(), spec.images, family.generator_names
    for i, j in family.open_relations(spec):
        relation = family.multiply(gens[j], gens[i])
        if family.multiply(images[j], images[i]) != spec.apply(relation):
            word = " ".join("%s^%d" % (name, e) for name, e in zip(names, relation) if e) or "1"
            return VerificationResult(False, "relation violated: %s %s = <%s>" % (names[j], names[i], word))
    return VerificationResult(True)


def translation_matrix(spec: AutomorphismSpec, d: int) -> IntMatrix:
    """Matrix of the automorphism on the finite-index lattice <t^d, e1..en>.

    Coordinates are (t^d, e1, ..., en); requires every e_i image to have
    t-exponent divisible by d (the lattice is characteristic when the
    action has finite order d, so genuine automorphisms always restrict).
    """
    if not isinstance(spec.family, ZnSemidirectZ):
        raise TypeError("translation matrix only applies to ZnSemidirectZ")
    n = spec.family.n
    cols = []
    t_power = spec.family.power(spec.image_of("t"), d)
    for img in (t_power,) + spec.images[:n]:
        texp = img[n]
        if texp % d:
            raise ValueError("image does not lie in the translation lattice")
        cols.append((texp // d,) + img[:n])
    return IntMatrix.from_columns(cols)


# ---------------------------------------------------------------------------
# Reidemeister numbers of verified specs (formula path)


def rnumber_with_trace(spec: AutomorphismSpec) -> tuple[RNumber, tuple[str, ...]]:
    """Reidemeister number of a verified spec along the family's formula route."""
    if not spec.verified:
        raise ValueError("spec must be verified first")
    return spec.family.rnumber_route(spec)


def rnumber(spec: AutomorphismSpec) -> RNumber:
    return rnumber_with_trace(spec)[0]


# ---------------------------------------------------------------------------
# Witness automorphism families


def witness(family: GroupFamily, name: str, param: int) -> AutomorphismSpec:
    """A verified witness automorphism with a known closed-form count."""
    if param < 1:
        raise ValueError("witness parameter must be >= 1")
    builder = _WITNESS_BUILDERS.get((type(family), name))
    if builder is None:
        raise UnknownWitnessError("no witness %r for family %r" % (name, family.json_tag))
    spec = builder(family, param)
    report = verify_automorphism(spec)
    if not report:
        raise AssertionError("witness construction failed verification: %s" % report.failure)
    return replace(spec, verified=True)


def _witness_phi_m_htz(fam: HeisenbergTimesZ, m: int) -> AutomorphismSpec:
    return AutomorphismSpec.from_images(
        fam, {"x": (0, 1, 0, 0), "y": (1, m, 0, 0), "z": (0, 0, -1, 0), "u": (0, 0, 0, -1)}
    )


def _witness_phi_m_heis(fam: Heisenberg, m: int) -> AutomorphismSpec:
    return AutomorphismSpec.from_images(fam, {"x": (0, 1, 0), "y": (1, m, 0), "z": (0, 0, -1)})


def _witness_target_abelian(fam: FreeAbelian, alpha: int) -> AutomorphismSpec:
    n = fam.n
    if n == 1:
        raise UnknownWitnessError("rank-1 lattices only admit the negation witness")
    if n == 2:
        # det(I - M) = -alpha
        return AutomorphismSpec.from_images(fam, {"e1": (0, 1), "e2": (-1, alpha + 2)})
    # companion matrix of x^n + alpha x^(n-1) - 1, so det(I - M) = alpha:
    # e_i -> e_(i+1), and e_n -> e_1 - alpha e_n
    images = {"e%d" % (i + 1): tuple(int(j == i + 1) for j in range(n)) for i in range(n - 1)}
    images["e%d" % n] = (1,) + (0,) * (n - 2) + (-alpha,)
    return AutomorphismSpec.from_images(fam, images)


def _witness_negation(fam: FreeAbelian, param: int) -> AutomorphismSpec:
    return AutomorphismSpec(fam, tuple(tuple(-int(i == j) for j in range(fam.n)) for i in range(fam.n)))


def minus_i_block_matrix(n: int, m: int) -> IntMatrix:
    """The n x n witness block: top row (0..0 1), then [I_(n-1) | (0..0 m)^T]."""
    rows = [[0] * (n - 1) + [1]]
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        if i == n - 2:
            row[n - 1] = m
        rows.append(row)
    return IntMatrix.from_rows(rows)


def _witness_m_m(fam: ZnSemidirectZ, m: int) -> AutomorphismSpec:
    n = fam.n
    if fam.action != -IntMatrix.identity(n):
        raise UnknownWitnessError("the block witness requires the -I action")
    block = minus_i_block_matrix(n, m)
    images = {}
    for i in range(n):
        images["e%d" % (i + 1)] = tuple(block.column(i)) + (0,)
    images["t"] = (0,) * n + (-1,)
    return AutomorphismSpec.from_images(fam, images)


def tahara_form_order2(delta: int) -> IntMatrix:
    return IntMatrix.from_rows([[1, 0, delta], [0, -1, 0], [0, 0, -1]])


def tahara_form_order3(delta: int) -> IntMatrix:
    return IntMatrix.from_rows([[1, 0, delta], [0, 0, -1], [0, 1, -1]])


def _witness_phi_alpha(fam: ZnSemidirectZ, alpha: int) -> AutomorphismSpec:
    a = fam.action
    if a == tahara_form_order2(1):
        images = {
            "e1": (1 - 2 * alpha, 0, 0, 4 * alpha),
            "e2": (-1, -1, 2, 0),
            "e3": (1 - alpha, 1, -1, 2 * alpha),
            "t": (0, 0, 1, -1),
        }
    elif a == tahara_form_order2(0):
        images = {
            "e1": (1 - 2 * alpha, 0, 0, 2),
            "e2": (0, 0, 1, 0),
            "e3": (0, 1, 1, 0),
            "t": (alpha, 0, 0, -1),
        }
    elif a in (tahara_form_order3(0), tahara_form_order3(1)):
        delta = 1 if a == tahara_form_order3(1) else 0
        images = {
            "e1": (3 * alpha - 1, 0, 0, 3 * (delta * 3 * alpha + (1 - delta))),
            "e2": (delta * alpha, -1, 0, 3 * delta * alpha),
            "e3": (delta * alpha, 0, -1, 3 * delta * alpha),
            "t": ((1 - delta) * alpha, 1, 0, 1),
        }
    else:
        raise UnknownWitnessError("phi_alpha requires one of the canonical finite-order forms")
    return AutomorphismSpec.from_images(fam, images)


def _witness_m_r(fam: HnSemidirectZ, r: int) -> AutomorphismSpec:
    n, k, l = fam.n, fam.k, fam.l
    even_n = n % 2 == 0
    if even_n and (k % 2 or l % 2):
        if r % 2:
            raise UnknownWitnessError("with an odd central twist and even n the trace must be even")
        if k % 2 == 0:  # l odd
            m = IntMatrix.from_rows([[r + 1, r // 2], [-2, -1]])
        elif l % 2 == 0:  # k odd
            m = IntMatrix.from_rows([[-1, -2], [r // 2, r + 1]])
        else:  # both odd
            m = IntMatrix.from_rows([[0, 1], [1, r]])
    else:
        m = IntMatrix.from_rows([[r, 1], [1, 0]])
    return _hn_spec_from_block(fam, m)


def _hn_spec_from_block(fam: HnSemidirectZ, m: IntMatrix) -> AutomorphismSpec:
    """Extend the quotient block M (det -1) to a full spec by solving the
    lifting condition for the central exponents."""
    n, k, l = fam.n, fam.k, fam.l
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if m.det() != -1:
        raise ValueError("the quotient block must have determinant -1")
    t1 = (IntMatrix.identity(2) + m.transpose()).apply((k, l))
    if n % 2 == 1:
        inv2 = (n + 1) // 2
        mz = (-t1[0] * inv2) % n
        pz = (-t1[1] * inv2) % n
        mtilde = (2 * mz + t1[0]) // n
        ptilde = (2 * pz + t1[1]) // n
        corner = IntMatrix.from_rows([[-c, a], [-d, b]])
        ef = corner.inverse_unimodular().apply((mtilde - a * c, ptilde - b * d))
    else:
        if t1[0] % 2 or t1[1] % 2:
            raise ValueError("the block does not satisfy the lifting parity condition")
        mz = (n * a * c - t1[0]) // 2
        pz = (n * b * d - t1[1]) // 2
        ef = (0, 0)
    images = {
        "x": (a, c, mz, 0),
        "y": (b, d, pz, 0),
        "z": (0, 0, -1, 0),
        "t": (ef[0], ef[1], 0, -1),
    }
    return AutomorphismSpec.from_images(fam, images)


def _witness_phi_eight(fam: Z2MinusIExt, param: int) -> AutomorphismSpec:
    """An automorphism of the double extension with eight classes, when
    one exists: a trace-zero block solving the intertwining equation plus
    an integral solution m0, z0 of the lifting constraint.  On a spectrum
    {8, oo} these come as values from the decision that proves it; a
    spectrum {oo} is refused with its rule.  The parameter is not used."""
    from . import spectra  # only phi_eight requests load the classifier
    a = fam.action
    # the family has checked A and n0, so the decision runs unchecked
    res, lift = spectra._ext_decision(a, fam.n0)
    if lift is not None:
        wit, coeffs = lift
        m = wit.matrix
    elif a in (IntMatrix.identity(2), -IntMatrix.identity(2)):
        # on +-I lifting reads M mod 2, where the solutions fall into three
        # classes; these blocks are the least of each, and one lifts for every n0
        solve = lifting_solver(a, fam.n0)
        blocks = (IntMatrix(2, 2, e) for e in ((0, -1, 1, 0), (-1, -2, 1, 1), (-1, -1, 2, 1)))
        m, coeffs = next((m, c) for m in blocks if (c := solve(m)) is not None)
    else:
        raise UnknownWitnessError(
            "phi_eight needs an automorphism with eight classes; A = %s has determinant %d and n0 = (%d, %d), "
            "where the spectrum is {oo} (%s)" % (a, a.det(), *fam.n0, res.trace[-1])
        )
    m0, z0 = coeffs[:2], coeffs[2:]
    images = {
        "e1": tuple(m.column(0)) + (0, 0),
        "e2": tuple(m.column(1)) + (0, 0),
        "t": (z0[0], z0[1], -1, 0),
        "u": (m0[0], m0[1], 0, -1),
    }
    return AutomorphismSpec.from_images(fam, images)


_WITNESS_BUILDERS = {
    (HeisenbergTimesZ, "phi_m"): _witness_phi_m_htz,
    (Heisenberg, "phi_m"): _witness_phi_m_heis,
    (FreeAbelian, "target"): _witness_target_abelian,
    (FreeAbelian, "negation"): _witness_negation,
    (ZnSemidirectZ, "M_m"): _witness_m_m,
    (ZnSemidirectZ, "phi_alpha"): _witness_phi_alpha,
    (HnSemidirectZ, "M_r"): _witness_m_r,
    (Z2MinusIExt, "phi_eight"): _witness_phi_eight,
}


# ---------------------------------------------------------------------------
# Twisted-conjugacy labels


# the cap on the (2 r + 1)^slots sites of a labelled ball, checked before labelling
MAX_BALL_SITES = 100_000


@dataclass(frozen=True)
class ClassLabeling:
    """Twisted-class labels over the radius-r exponent ball, numbered in
    first-seen order over the sorted ball (``GroupFamily.class_labeler``).
    With R finite they are exact, and ``complete``, the ball meeting all R
    classes, is a proof; with R infinite it is False."""

    ball_radius: int
    labels: Mapping[tuple[int, ...], int]
    complete: bool

    @property
    def class_count(self) -> int:
        return len(set(self.labels.values()))


def label_classes(spec: AutomorphismSpec, radius: int) -> ClassLabeling:
    """The twisted class of each element of the radius-r exponent ball;
    ValueError above MAX_BALL_SITES sites."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not spec.verified:
        raise ValueError("spec must be verified first")
    fam, side = spec.family, 2 * radius + 1
    size = side ** fam.slots
    if size > MAX_BALL_SITES:
        raise ValueError(
            "the radius-%d oracle needs a ball of %d^%d = %d sites, above the cap of %d"
            % (radius, side, fam.slots, size, MAX_BALL_SITES)
        )
    label, assigned = fam.class_labeler(spec), {}
    ball = product(range(-radius, radius + 1), repeat=fam.slots)
    labels = {g: assigned.setdefault(label(g), len(assigned)) for g in ball}
    value = fam.rnumber_route(spec)[0].value
    return ClassLabeling(radius, labels, value is not None and len(assigned) == value)
