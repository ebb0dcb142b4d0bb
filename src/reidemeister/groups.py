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
Exponents, parameters and n0 must be ints: each family's ``_series``
refuses a parameter, and ``element`` and ``verify_automorphism`` an
exponent, that is a float, a string or a boolean, with a ValueError
naming the field, and an action that is not an ``IntMatrix``.  The
unimodular action, n0 and the Heisenberg n are checked by the
``exactlin`` validators that ``spectra`` calls too (``_unimodular``,
``_int_pair``, ``_heisenberg_parameter``), with one ``HypothesisError``
text each.  JSON
decoding (``family_from_json``) also refuses a missing field and any key
other than the tag and the family's fields, and a spec's decoding any
top-level key other than ``family`` and ``images``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _Value,
    _heisenberg_parameter,
    _int_pair,
    _one_minus,
    _power,
    _power_sum,
    _strict_int,
    _unimodular,
)
from .twisted import INFINITE, HermiteBox, RNumber, class_matrix, r_abelian, r_class_sum


class UnknownWitnessError(ValueError):
    """No witness with the requested id exists for the family."""


_MINUS_I = IntMatrix(2, 2, (-1, 0, 0, -1))
MAX_RANK = 4  # FreeAbelian(n): the package answers for Hirsch length <= 4
# The size of each memo: of spec values (verification reports, holonomy
# readings) and of double extensions (phi_eight's decisions).  It is fixed,
# as a long-lived caller meets a new spec value per witness parameter, and
# small: a value is met again soon (a witness's round trip, its count and
# labels) or, in practice, not at all.
MEMO_SIZE = 64


# ---------------------------------------------------------------------------
# Families


class GroupFamily(_Value):
    """Base class of the family table.

    Each subclass is one row: its JSON tag, its parameters (``_fields``),
    its group law on exponent tuples, and its polycyclic series.  The law
    is the only description of the group: its normal forms are in slot
    order, and the base class derives the inverse and the powers from it,
    as ``verify_automorphism`` derives the relations.  The base
    constructor binds the parameters as every ``_Value`` does (keywords,
    ``_defaults``, a ``TypeError`` naming the class for a field missing,
    repeated or unknown); the family's one hook, ``_series``, checks them
    and returns its generator names and its series:

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
    FAMILIES maps each tag to its subclass.  The fields, the series, and
    the field tuple that equality and the hash read (``_key``) are kept
    in the instance ``__dict__``.

    The JSON form is the tag and then each field under its name, read
    back by ``from_json``: a matrix field, ``action``, is written under
    "matrix" as its rows, a vector field as an array, an int as it is.
    """

    json_tag: ClassVar[str]
    _json_keys: ClassVar[tuple[str, ...]]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._json_keys = tuple("matrix" if f == "action" else f for f in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        d = self.__dict__
        d.update(zip(fields, args))
        d["generator_names"], d["layers"], d["route"], d["actions"] = self._series()
        d["_key"] = tuple(map(d.__getitem__, fields))  # after the hook, which may normalise a field

    @property
    def slots(self) -> int:
        return len(self.generator_names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

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

    def to_json_dict(self) -> dict:
        data = {"tag": self.json_tag}
        for key, value in zip(self._json_keys, self._key):
            data[key] = value.to_rows() if key == "matrix" else list(value) if value.__class__ is tuple else value
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupFamily":
        """The family of a JSON object; a KeyError for a missing field."""
        keys = cls._json_keys
        for key in data:
            if key not in keys and key != "tag":
                raise ValueError("family %r has no field %r" % (cls.json_tag, key))
        try:
            values = [matrix_from_json(data[key]) if key == "matrix" else data[key] for key in keys]
        except MatrixParseError as exc:
            raise ValueError("field 'matrix': %s" % exc) from None
        return cls(*values)

    # the series read off an automorphism spec of this family
    def layer_matrices(self, spec: "AutomorphismSpec") -> list[IntMatrix]:
        """The block each layer's generator images induce on that layer,
        bottom first; a ValueError naming the lowest layer one of whose
        generator images leaves that layer and the layers below."""
        images = spec.images
        for name, s, j in _series_shape(self.layers)[0]:
            if images[s][j]:
                raise ValueError("images leave the %s subgroup" % name)
        return [IntMatrix(len(b), len(b), tuple(images[s][j] for j in b for s in b)) for _, b, _ in self.layers]

    def layer_failure(self, spec: "AutomorphismSpec") -> str | None:
        """The first layer, bottom first, whose block is not unimodular, or
        None; the ValueError of ``layer_matrices`` when an image leaves its
        layer and the layers below."""
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
        shift = _one_minus(top)
        if shift.det() == 0:
            return INFINITE, ("rnumber:identity-quotient",)
        return reduce(operator.mul, map(r_abelian, central), r_class_sum(shift, self.actions, below)), (self.route,)

    def class_labeler(self, spec: "AutomorphismSpec") -> Callable[[tuple[int, ...], Sequence[tuple]], list]:
        """``row(u, grid)``: the labels of the twisted classes of the sites
        that agree with u off the bottom layer B and have B coordinates b,
        for each b of grid (u's own B coordinates are not read).  One
        site's label is its one-point row.  The rows are built by ``_rows``.

        A label is read off the series top down: with the layers above
        fixed, a twist g -> z g phi(z)^-1 by z in this layer and below moves
        the layer's coordinates v by (I - X) w, w those of z and X the
        layer's block (times the action of the top class, on the layer
        below the top).  So the box point r of v + (I - X) Z^k
        (``HermiteBox``) is an invariant, and the twist by the lift of -w,
        v = r + (I - X) w, moves g onto it; below, only the lower layers
        move.  The label is (the number of the points above B, B's point),
        or (the number of the points down to a singular layer, None): below
        a singular layer the points may join classes, and such a label
        never equals a full one.  The points above B are numbered in the
        order the labeler meets them, so a label hashes as an int and a
        point.

        The layers above B are read once per coset: every series has an
        abelian normal B that is central or leads the normal form
        (``tests/test_oracle.py`` checks it), so g = b u, u being g with
        its B coordinates 0, and z g phi(z)^-1 = (z b z^-1)(z u phi(z)^-1).
        Every layer above reads the same r and w for each b.  At the end of
        u's chain B's coordinates are beta, and L, the action on B of the
        product of the twists, is the identity when B is central (z b z^-1
        = b).  Else B lies right under the top (``tests/test_oracle.py``
        checks it too), the one twist is by the top lift z = -w, and L is
        its action read off ``actions`` (``twisted.class_matrix``).  At the
        bottom g's B coordinates are beta + L b, and no twist follows, so
        the key of u's row is (the number above B, B's box, the box point
        of beta, L).  A one-layer series is the coset u = 0."""
        blocks, actions, tail, mul = self.layer_matrices(spec), self.actions, self._tail(spec), self.multiply
        boxes = [_box(b) for b in blocks]
        cuts = [slice(slots[0], slots[-1] + 1) for _, slots, _ in self.layers]
        top, zero, (_, bottom, kind) = len(blocks) - 1, (0,) * self.slots, self.layers[0]
        first, last, pad, numbers = bottom[0], bottom[-1] + 1, zero[: len(bottom)], {}
        ident = IntMatrix.identity(len(bottom))

        @lru_cache(None)
        def box_under(e):  # the layer below the top, on which the top class e acts by B_1^e_1 B_2^e_2
            return _box(class_matrix(actions, e, blocks[-2]))

        def box_of(i, out):  # layer i's box, out the labels above it, top first
            return box_under(out[0]) if i == top - 1 and actions else boxes[i]

        @lru_cache(None)
        def lift(start, w):  # (z, phi(z)^-1) for z the lift of -w into the layer from slot start
            z = zero[:start] + tuple(-e for e in w) + zero[start + len(w):]
            return z, tail(z)

        def chain(g):  # the labels above B, top first, g twisted onto them, the last lift; None below a singular layer
            out, w = [], None
            for i in range(top, 0, -1):
                box, cut = box_of(i, out), cuts[i]
                r, w = box.reduce(g[cut])
                out.append(r)
                if box.singular:
                    return tuple(out), None, None
                if any(w):
                    z, inv = lift(cut.start, w)
                    g = mul(mul(z, g), inv)
            return tuple(out), g, w

        def coset(u):  # the key of u's row: (the number above B, B's box, beta's box point, L's rows or None)
            u = u[:first] + pad + u[last:]
            out, end, w = chain(u)
            number = numbers.setdefault(out, len(numbers))
            if end is None:
                return number, None, None, None
            beta, rows, box = end[first:last], None, box_of(0, out)
            if kind != "central" and w is not None:  # B lies under the top, and the top lift -w acts on it by L
                act = class_matrix(actions, [-e for e in w], ident)
                rows = tuple(act.row(i) for i in range(act.rows))
            return number, box, box.point(beta), rows

        return _rows(coset, lambda number, r: (number, r))

    def _tail(self, spec: "AutomorphismSpec") -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """z -> phi(z)^-1, the right factor of the twist g -> z g phi(z)^-1.
        ``spec.apply`` takes z = g_1^a_1 ... g_n^a_n to the product of the
        image powers phi(g_i)^a_i in slot order, so phi(z)^-1 is
        phi(g_n)^-a_n ... phi(g_1)^-a_1.  Each power is kept per (i, a_i)
        while the function lives."""
        mul, images, slots = self.multiply, spec.images, range(self.slots - 1, -1, -1)
        power = lru_cache(None)(lambda i, e: self.power(images[i], -e))

        def tail(z):
            factors = [power(i, z[i]) for i in slots if z[i]]
            return reduce(mul, factors) if factors else z

        return tail

    def open_relations(self, spec: "AutomorphismSpec") -> tuple[tuple[int, int], ...]:
        """The pairs (i, j), i < j, whose collection relation the series
        does not prove for a spec that passed ``layer_failure``: all of them
        when an image leaves its layer and the layers below (only the
        holonomy branch of ``ZnSemidirectZ`` passes such a spec), else those
        that the layer kinds do not settle."""
        leaving, all_pairs, open_pairs = _series_shape(self.layers)
        images = spec.images
        return all_pairs if any(images[s][j] for _, s, j in leaving) else open_pairs


def _box(x: IntMatrix) -> HermiteBox:
    return HermiteBox(_one_minus(x))


def _action_field(action) -> IntMatrix:
    if action.__class__ is not IntMatrix:
        raise ValueError("field 'action' must be an IntMatrix, got %r" % (action,))
    return action


def _rows(key_of: Callable, label: Callable) -> Callable[[tuple[int, ...], Sequence[tuple]], list]:
    """``row(u, grid)`` of a labeler: the row of u is fixed by its key,
    key_of(u) = (tag, box, p, rows of L or None), and is the label
    label(tag, the box point of p + L b) of each b of grid (L = I for rows
    None), or label(tag, None) for each b when box is None.  Each distinct
    (key, grid) is built once and handed to every coset that reads it, so
    the list must not be changed; the images L b are computed once per
    (L, grid).  Only the box point is read at the bottom
    (``HermiteBox.point``): the box point of p + L b equals that of
    beta + L b whenever p is the box point of beta."""
    built, images, add = {}, {}, operator.add

    def row(u, grid):
        key = key_of(u), grid
        labels = built.get(key)
        if labels is None:
            tag, box, base, rows = key[0]
            if box is None:
                labels = [label(tag, None)] * len(grid)
            else:
                point, moved = box.point, images.get((rows, grid))
                if moved is None:
                    moved = images[rows, grid] = grid if rows is None else [
                        tuple(sum(map(operator.mul, r, b)) for r in rows) for b in grid]
                labels = [label(tag, point(tuple(map(add, base, v)))) for v in moved]
            built[key] = labels
        return labels

    return row


@lru_cache(maxsize=64)
def _series_shape(layers: tuple) -> tuple[tuple[tuple, ...], ...]:
    """(leaving, all pairs, open pairs) for one series shape: the (name, s,
    j) with slot j above the layer, named name, of slot s, bottom first;
    the pairs i < j; and those whose relation the kinds do not settle.

    With every image in its layer and the layers below, the images of a
    kinded layer's generators and those below it lie in the subgroup those
    generate.  So the relation of g_i and g_j holds when both lie in an
    abelian one (their images commute, as they do) or one lies in a
    central one (its image is central too)."""
    leaving, abelian, central, below = [], set(), set(), set()
    size = sum(len(slots) for _, slots, _ in layers)
    for name, slots, kind in layers:
        below.update(slots)
        leaving += [(name, s, j) for s in slots for j in range(size) if j not in below]
        if kind == "abelian":
            abelian = set(below)
        elif kind == "central":
            central = set(below)
    all_pairs = tuple(combinations(range(len(below)), 2))
    open_pairs = tuple(p for p in all_pairs if not (set(p) <= abelian or central.intersection(p)))
    return tuple(leaving), all_pairs, open_pairs


class FreeAbelian(GroupFamily):
    json_tag = "free-abelian"
    _fields = ("n",)

    def _series(self):
        n = _strict_int(self.n, "field 'n'")
        if n < 1:
            raise ValueError("rank must be >= 1")
        if n > MAX_RANK:
            raise ValueError("rank %d exceeds MAX_RANK = %d, the largest Hirsch length in scope" % (n, MAX_RANK))
        names = tuple("e%d" % (i + 1) for i in range(n))
        return names, (("lattice", tuple(range(n)), "abelian"),), "rnumber:lattice", None

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))


def _heis_mul(n: int, a: tuple, b: tuple) -> tuple:
    # yx = xy z^n, z central: moving x^a2 left past y^b1 costs z^(n a2 b1)
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + n * b[0] * a[1])


class Heisenberg(GroupFamily):
    json_tag = "heisenberg"
    _fields = ("n",)

    def _series(self):
        _heisenberg_parameter(self.n, "field 'n'")
        layers = (("center", (2,), "central"), ("quotient", (0, 1), None))
        return ("x", "y", "z"), layers, "rnumber:center-times-quotient", None

    def multiply(self, a, b):
        return _heis_mul(self.n, a, b)


class HeisenbergTimesZ(GroupFamily):
    json_tag = "heisenberg-times-z"
    _fields = ("n",)

    def _series(self):
        _heisenberg_parameter(self.n, "field 'n'")
        layers = (("center", (2, 3), "central"), ("quotient", (0, 1), None))
        return ("x", "y", "z", "u"), layers, "rnumber:center-times-quotient", None

    def multiply(self, a, b):
        return _heis_mul(self.n, a[:3], b[:3]) + (a[3] + b[3],)


class ZnSemidirectZ(GroupFamily):
    """Z^n x|_A Z: the lattice below the quotient <t>, on which t acts by
    A; with A = I the group is free abelian, one layer."""

    json_tag = "zn-semidirect-z"
    _fields = ("action",)

    def _series(self):
        action = _action_field(self.action)
        n = action.rows
        if n >= MAX_RANK:
            raise ValueError(
                "a %dx%d action gives Hirsch length %d, above MAX_RANK = %d, the largest Hirsch length in scope"
                % (n, action.cols, n + 1, MAX_RANK)
            )
        _unimodular(action, n, "the acting matrix")
        names = tuple("e%d" % (i + 1) for i in range(n)) + ("t",)
        if action == IntMatrix.identity(n):
            return names, (("lattice", tuple(range(n + 1)), "abelian"),), "rnumber:lattice", None
        layers = (("lattice", tuple(range(n)), "abelian"), ("quotient", (n,), None))
        return names, layers, "rnumber:two-step-addition", (action,)

    @property
    def n(self) -> int:
        return self.action.rows

    def multiply(self, a, b):
        n = self.n
        p = _power(self.action.entries, a[n])
        return tuple(a[i] + sum(map(operator.mul, p[i * n:(i + 1) * n], b)) for i in range(n)) + (a[n] + b[n],)

    # The holonomy branch: when A has finite order d, the e_i images may
    # leave the lattice, and the translation lattice <t^d, e1..en> is the
    # characteristic one.  ``_holonomy`` reads the branch off a spec once,
    # and the layer check, the formula route and the labels branch on it.
    # Leaving the lattice is a failure where it is characteristic, as when 1
    # is not an eigenvalue.  Known gap (ROADMAP item 6): an A of infinite
    # order refuses genuine automorphisms too, e.g. e1 -> e1^-1, e2 -> t,
    # t -> e2 on A = (1,1;0,1).
    def _holonomy(self, spec):
        """(d, H, T, q) when the spec takes the holonomy branch, else None
        (A = I, A of infinite order, or no e_i image with a t-exponent: the
        declared series applies).  d is the order of A, H = diag(1, A) the
        action of t on the translation lattice in the coordinates (t^d,
        e1..en), T the matrix of phi on it and q the t-exponent of phi(t);
        a ValueError when an e_i image lies outside the translation lattice.
        Read once per spec value (``_by_value``), so verification, the
        formula route and the labels share one reading."""
        return _by_value(_holonomy_reading, spec)

    def layer_failure(self, spec):
        holonomy = self._holonomy(spec)
        if holonomy is None:
            return super().layer_failure(spec)
        # q needs no check of its own against d: phi(t) = v t^q gives
        # phi(t)^d = (sum_{j<d} A^(qj) v) t^(qd), and A^q has order d / g for
        # g = gcd(q, d), so g divides T's first column, and so det T
        return None if holonomy[2].is_unimodular else "translation-lattice matrix is not unimodular"

    def rnumber_route(self, spec):
        holonomy = self._holonomy(spec)
        if holonomy is None:
            return super().rnumber_route(spec)
        # the holonomy Z / d acts on the translation lattice by H^e
        d, h, lattice, _ = holonomy
        return r_class_sum(IntMatrix(1, 1, (d,)), (h,), lattice).div_exact(d), ("rnumber:holonomy-averaging",)

    def class_labeler(self, spec):
        holonomy = self._holonomy(spec)
        if holonomy is None:
            return super().class_labeler(spec)
        # The holonomy branch: g = l t^k, l in L = <t^d, e1..en> (coordinates
        # (t^d, e1..en)), on which phi acts by T and t by H.  A twist by t^s
        # moves k by (1 - q) s mod d: the top class is k mod c = gcd(1 - q,
        # d), its stabilizer t^(d/c) L.  A twist by w in L moves l by
        # (I - H^k T) w, so l has a box point; the label is the least one of
        # its orbit under t^(d/c).  The same split as the series labels: a
        # site is b t^m, b in the lattice, and the twist by t^-s that brings
        # the top class down to k is (A^-s b)(t^-s t^m phi(t)^s).  So the
        # key of t^m's row is (k, its box, the box point of the end of its
        # twist, A^-s under a zero row for the t^d coordinate).
        d, h, lattice, q = holonomy
        n, tail, mul, entries = self.n, self._tail(spec), self.multiply, self.action.entries
        c = math.gcd(1 - q, d)
        unit, boxes = pow((1 - q) // c, -1, d // c), [_box(h ** k * lattice) for k in range(c)]
        stabilizer, least = (0,) * n + (d // c,), {}
        back = tail(stabilizer)

        def point(k, g):  # the box point of l, g = l t^k
            return boxes[k].point(((g[n] - k) // d,) + g[:n])

        def coset(u):  # the key of the row of t^m, m = u[n]
            m = u[n]
            k = m % c
            s = (m - k) // c * unit % (d // c)  # (1 - q) s = m - k mod d
            # the twist of t^m by t^-s is t^(m - s) phi(t^-s)^-1
            end, p = mul((0,) * n + (m - s,), tail((0,) * n + (-s,))), _power(entries, -s)
            return k, boxes[k], point(k, end), ((0,) * n,) + tuple(p[i * n:(i + 1) * n] for i in range(n))

        def label(k, r):
            if (k, r) not in least:
                orbit = [r]
                for _ in range(c - 1):  # x -> the box point of t^(d/c) x t^k phi(t^(d/c))^-1
                    orbit.append(point(k, mul(mul(stabilizer, orbit[-1][1:] + (orbit[-1][0] * d + k,)), back)))
                least.update(dict.fromkeys(((k, x) for x in orbit), min(orbit)))
            return k, least[k, r]

        return _rows(coset, label)


@lru_cache(maxsize=MEMO_SIZE)
def _holonomy_reading(fam: ZnSemidirectZ, images: tuple[tuple[int, ...], ...]):
    """``ZnSemidirectZ._holonomy`` of the spec value (fam, images)."""
    n = fam.n
    if fam.actions is None or not any(img[n] for img in images[:n]):
        return None
    d = finite_order(fam.action)
    if d is None:
        return None
    cols = []
    for img in (fam.power(images[n], d),) + images[:n]:
        if img[n] % d:
            raise ValueError("image does not lie in the translation lattice")
        cols.append((img[n] // d,) + img[:n])
    h = IntMatrix.from_rows([[1] + [0] * n] + [[0, *fam.action.row(i)] for i in range(n)])
    return d, h, IntMatrix.from_columns(cols), images[n][n]


# every lattice of the filiform algebra is Z^3 x|_A Z, A unipotent, (A - I)^2 != 0
THREE_STEP = ZnSemidirectZ(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))


class Z2MinusIExt(GroupFamily):
    """(Z^2 x|_{-I} Z) x|_psi Z with psi(v t^k) = A(v) (n0 t)^k."""

    json_tag = "z2-minusi-ext"
    _fields = ("action", "n0")

    def _series(self):
        action = _action_field(self.action)
        _unimodular(action, 2, "the outer action")
        self.__dict__["n0"] = _int_pair(self.n0, "n0")  # a list, kept as a tuple
        # the class of t^e u^f in Z^2 / (I - Q) Z^2 acts on the lattice by (-I)^e A^f
        layers = (("lattice", (0, 1), "abelian"), ("quotient", (2, 3), None))
        return ("e1", "e2", "t", "u"), layers, "rnumber:quotient-class-sum", (_MINUS_I, action)

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

    def layer_failure(self, spec):
        # the image of t acts on the lattice by +-A^k, k its u-exponent, and
        # must act by -I; an action of infinite order forces k = 0, and so
        # has at most 4 classes to sum
        failure = super().layer_failure(spec)
        if failure is None and spec.image_of("t")[3] and finite_order(self.action) is None:
            return "u-exponent of the image of t is not 0"
        return failure


class HnSemidirectZ(GroupFamily):
    """H_n x|_psi Z with psi(x) = x^-1 z^k, psi(y) = y^-1 z^l, psi(z) = z."""

    json_tag = "hn-semidirect-z"
    _fields = ("n", "k", "l")

    def _series(self):
        _strict_int(self.k, "field 'k'")
        _strict_int(self.l, "field 'l'")
        _heisenberg_parameter(self.n, "field 'n'")
        # the class of t^e in Z / (1 - q) Z acts on H_n / Z(H_n) by (-I)^e
        layers = (("center", (2,), "central"), ("Heisenberg", (0, 1), None), ("quotient", (3,), None))
        return ("x", "y", "z", "t"), layers, "rnumber:two-step-addition", (_MINUS_I,)

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
        for key in data:  # a key such as "verified" or a misspelt "imagez" must not be dropped
            if key not in ("family", "images"):
                raise ValueError("automorphism JSON has no key %r" % (key,))
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


class VerificationResult(_Value):
    __slots__ = _fields = ("ok", "failure")
    _defaults = {"failure": None}

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

    The report is a function of the spec's value, (family, images), so
    each value is verified once and its report kept in a bounded memo
    (``MEMO_SIZE`` values, least recently used out first).
    """
    return _by_value(_verify_value, spec)


def _by_value(memo, spec: AutomorphismSpec):
    """memo(family, images) for the spec's value, the images as tuples.  An
    exponent that is not an int is refused with a ValueError that names it,
    since 1.0 == 1 would find the memo entry of another value."""
    images = tuple(map(tuple, spec.images))
    for img in images:
        for e in img:
            if type(e) is not int:
                _strict_int(e, "an exponent")
    return memo(spec.family, images)


@lru_cache(maxsize=MEMO_SIZE)
def _verify_value(family: GroupFamily, images: tuple[tuple[int, ...], ...]) -> VerificationResult:
    """``verify_automorphism`` of the spec value (family, images)."""
    spec = AutomorphismSpec(family, images)
    try:
        failure = family.layer_failure(spec)
    except ValueError as exc:
        failure = str(exc)
    if failure:
        return VerificationResult(False, failure)
    gens, names = family.generators(), family.generator_names
    for i, j in family.open_relations(spec):
        relation = family.multiply(gens[j], gens[i])
        if family.multiply(images[j], images[i]) != spec.apply(relation):
            word = " ".join("%s^%d" % (name, e) for name, e in zip(names, relation) if e) or "1"
            return VerificationResult(False, "relation violated: %s %s = <%s>" % (names[j], names[i], word))
    return VerificationResult(True)


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
    if _strict_int(param, "the witness parameter") < 1:
        raise ValueError("witness parameter must be >= 1")
    builder = _WITNESS_BUILDERS.get((type(family), name))
    if builder is None:
        raise UnknownWitnessError("no witness %r for family %r" % (name, family.json_tag))
    spec = builder(family, param)
    report = verify_automorphism(spec)
    if not report:
        raise AssertionError("witness construction failed verification: %s" % report.failure)
    return AutomorphismSpec(spec.family, spec.images, True)


def _witness_phi_m(fam: Heisenberg | HeisenbergTimesZ, m: int) -> AutomorphismSpec:
    """x -> y, y -> x y^m, z -> z^-1; on Heisenberg x Z each image is
    padded with a 0, and u -> u^-1."""
    images = [(0, 1, 0), (1, m, 0), (0, 0, -1)]
    if fam.slots == 4:
        images = [img + (0,) for img in images] + [(0, 0, 0, -1)]
    return AutomorphismSpec(fam, tuple(images))


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


# the canonical finite-order forms phi_alpha is written for, as (order, delta)
_TAHARA_FORMS = {form(delta): (order, delta) for order, form in ((2, tahara_form_order2), (3, tahara_form_order3))
                 for delta in (0, 1)}


def _witness_phi_alpha(fam: ZnSemidirectZ, alpha: int) -> AutomorphismSpec:
    form = _TAHARA_FORMS.get(fam.action)
    if form is None:
        raise UnknownWitnessError("phi_alpha requires one of the canonical finite-order forms")
    order, delta = form
    if order == 2 and delta:
        images = {
            "e1": (1 - 2 * alpha, 0, 0, 4 * alpha),
            "e2": (-1, -1, 2, 0),
            "e3": (1 - alpha, 1, -1, 2 * alpha),
            "t": (0, 0, 1, -1),
        }
    elif order == 2:
        images = {
            "e1": (1 - 2 * alpha, 0, 0, 2),
            "e2": (0, 0, 1, 0),
            "e3": (0, 1, 1, 0),
            "t": (alpha, 0, 0, -1),
        }
    else:
        images = {
            "e1": (3 * alpha - 1, 0, 0, 3 * (delta * 3 * alpha + (1 - delta))),
            "e2": (delta * alpha, -1, 0, 3 * delta * alpha),
            "e3": (delta * alpha, 0, -1, 3 * delta * alpha),
            "t": ((1 - delta) * alpha, 1, 0, 1),
        }
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
    {8, oo} these come as values from the decision that proves it, which
    is read once per family (``_ext_decision``); a spectrum {oo} is refused
    with its rule.  The parameter is not used."""
    a = fam.action
    res, lift = _ext_decision(fam)
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


@lru_cache(maxsize=MEMO_SIZE)
def _ext_decision(fam: Z2MinusIExt):
    """``spectra._ext_decision`` of the family, which depends on A and n0
    alone, not on the witness parameter."""
    from . import spectra  # only phi_eight requests load the classifier

    # the family has checked A and n0, so the decision runs unchecked
    return spectra._ext_decision(fam.action, fam.n0)


_WITNESS_BUILDERS = {
    (HeisenbergTimesZ, "phi_m"): _witness_phi_m,
    (Heisenberg, "phi_m"): _witness_phi_m,
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


class ClassLabeling(_Value):
    """Twisted-class labels over the radius-r exponent ball, numbered in
    first-seen order over the sorted ball (``GroupFamily.class_labeler``).
    With R finite they are exact, and ``complete``, the ball meeting all R
    classes, is a proof; with R infinite it is False."""

    __slots__ = _fields = ("ball_radius", "labels", "complete")

    @property
    def class_count(self) -> int:
        return len(set(self.labels.values()))


def label_classes(spec: AutomorphismSpec, radius: int) -> ClassLabeling:
    """The twisted class of each element of the radius-r exponent ball,
    numbered in first-seen order over the sorted ball; ValueError above
    MAX_BALL_SITES sites.  The ball is labelled one row at a time: for each
    coset of the bottom layer, the row of ``class_labeler`` labels every
    bottom point of the ball's grid, and each label is placed by its index
    in ball order before the one numbering pass."""
    if _strict_int(radius, "the radius") < 1:
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
    # one row per coset of the bottom layer B, whose slots are consecutive:
    # the sites of a row lie `stride` apart in ball order
    row, span, (_, bottom, _) = fam.class_labeler(spec), range(-radius, radius + 1), fam.layers[0]
    first, last = bottom[0], bottom[-1] + 1
    grid, pad = tuple(product(span, repeat=last - first)), (0,) * (last - first)
    stride = side ** (fam.slots - last)
    block, flat = len(grid) * stride, [None] * size
    for i, pre in enumerate(product(span, repeat=first)):
        for j, post in enumerate(product(span, repeat=fam.slots - last)):
            start = i * block + j
            flat[start:start + block:stride] = row(pre + pad + post, grid)
    assigned = {}
    numbers = [assigned.setdefault(x, len(assigned)) for x in flat]
    labels = dict(zip(product(span, repeat=fam.slots), numbers))
    value = fam.rnumber_route(spec)[0].value
    return ClassLabeling(radius, labels, value is not None and len(assigned) == value)
