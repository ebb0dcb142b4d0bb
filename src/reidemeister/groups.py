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
the tests as an independent reference.

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

Z2MinusIExt is one case of the extension of Z^2 by Z^2 in which u and t
act by commuting matrices A and B with [u, t] = n0: its law is
``_z2_by_z2_mul`` with B = -I, the same law ``spectra`` applies to any
such presentation.  The matrix-backed laws read A^k, B^k and their
geometric sums from the bounded power cache of ``exactlin._power_sum``;
an action of finite order reduces the exponent modulo its order first,
in O(1).  Exponents, parameters and n0 must be ints: the constructors
and JSON decoding refuse a float, a string or a boolean with a ValueError
naming the field.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields, replace
from functools import reduce
from itertools import combinations, product
import math
import operator
from typing import ClassVar, Mapping, Sequence

from .exactlin import (
    IntMatrix,
    MatrixParseError,
    finite_order,
    least_solution,
    lifting_solver,
    matrix_from_json,
    system2_orbit,
    _power_sum,
    _strict_int,
)
from .twisted import INFINITE, RNumber, r_abelian, r_class_sum


class UnknownWitnessError(ValueError):
    """No witness with the requested id exists for the family."""


_MINUS_I2 = (-1, 0, 0, -1)
MAX_RANK = 4  # FreeAbelian(n): the package answers for Hirsch length <= 4


def _json_matrix(data: Mapping) -> IntMatrix:
    try:
        return matrix_from_json(data["matrix"])
    except MatrixParseError as exc:
        raise ValueError("field 'matrix': %s" % exc) from None


def _z2_by_z2_mul(a: tuple, b: tuple, n0: tuple, g: tuple, h: tuple) -> tuple:
    """The law of the extension of Z^2 by Z^2 in which u acts on the
    kernel by A, t by the commuting B (entries, row-major), and [u, t] = n0.
    With (z1, z2, k, l) = z t^k u^l and S_M(k) = I + M + ... + M^(k-1):
    z t^k u^l * z' t^k' u^l' = (z + B^k (A^l z' + S_B(k') S_A(l) n0)) t^(k+k') u^(l+l').
    """
    x1, y1, k1, l1 = g
    x2, y2, k2, l2 = h
    p, s = _power_sum(a, l1)
    w0 = p[0] * x2 + p[1] * y2
    w1 = p[2] * x2 + p[3] * y2
    if k2 and l1:
        q = _power_sum(b, k2)[1]
        v0 = s[0] * n0[0] + s[1] * n0[1]
        v1 = s[2] * n0[0] + s[3] * n0[1]
        w0 += q[0] * v0 + q[1] * v1
        w1 += q[2] * v0 + q[3] * v1
    r = _power_sum(b, k1)[0]
    return (x1 + r[0] * w0 + r[1] * w1, y1 + r[2] * w0 + r[3] * w1, k1 + k2, l1 + l2)


# ---------------------------------------------------------------------------
# Families


class GroupFamily:
    """Base class of the family table.

    Each subclass is one row: its JSON tag and decoder, its group law on
    exponent tuples, the matrices an automorphism induces on its layers,
    the layer check that completes verification, and its formula route
    for the Reidemeister number.  The law is the only description of the
    group: its normal forms are in slot order, and the base class derives
    the inverse and the powers from it, as ``verify_automorphism`` derives
    the relations.
    FAMILIES maps each tag to its subclass.
    """

    json_tag: ClassVar[str]
    generator_names: tuple[str, ...] = ()

    @property
    def slots(self) -> int:
        return len(self.generator_names)

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

    # layers and formula route of an automorphism spec of this family
    def layer_failure(self, spec: "AutomorphismSpec") -> str | None:
        """Why the induced layer maps are not bijective, or None; may
        raise ValueError when the images do not preserve a layer."""
        raise NotImplementedError

    def rnumber_route(self, spec: "AutomorphismSpec") -> tuple[RNumber, tuple[str, ...]]:
        """Reidemeister number of a verified spec and the rule it used; a
        route that sums over the classes of a quotient calls
        ``twisted.r_class_sum``, through ``_quotient_class_sum``."""
        raise NotImplementedError


def _xy_block(spec: "AutomorphismSpec") -> IntMatrix:
    """Action on the Heisenberg quotient <x, y>: the first two exponents
    of the images of the first two generators."""
    return IntMatrix.from_columns([spec.images[0][:2], spec.images[1][:2]])


def _lattice_block(spec: "AutomorphismSpec", n: int) -> IntMatrix:
    """Action on the lattice spanned by the first n generators."""
    cols = []
    for img in spec.images[:n]:
        if any(img[n:]):
            raise ValueError("images do not preserve the lattice subgroup")
        cols.append(img[:n])
    return IntMatrix.from_columns(cols)


def _center_failure(spec: "AutomorphismSpec") -> str | None:
    z_img = spec.image_of("z")
    if any(z_img[:2]) or any(z_img[3:]) or abs(z_img[2]) != 1:
        return "center image is not z^(+-1)"
    return None


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
        object.__setattr__(self, "generator_names", tuple("e%d" % (i + 1) for i in range(self.n)))

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def fitting_matrix(self, spec):
        return _lattice_block(spec, self.n)

    quotient_matrix = fitting_matrix

    def layer_failure(self, spec):
        if not self.fitting_matrix(spec).is_unimodular:
            return "lattice matrix is not unimodular"
        return None

    def rnumber_route(self, spec):
        return r_abelian(self.fitting_matrix(spec)), ("rnumber:lattice",)


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
        object.__setattr__(self, "generator_names", ("x", "y", "z"))

    def multiply(self, a, b):
        return _heis_mul(self.n, a, b)

    def fitting_matrix(self, spec):
        return _xy_block(spec)

    quotient_matrix = fitting_matrix

    def layer_failure(self, spec):
        failure = _center_failure(spec)
        if failure is None and not self.quotient_matrix(spec).is_unimodular:
            failure = "quotient matrix is not unimodular"
        return failure

    def rnumber_route(self, spec):
        e = spec.image_of("z")[2]
        r = _r_scalar(e) * r_abelian(self.quotient_matrix(spec))
        return r, ("rnumber:center-times-quotient",)


@dataclass(frozen=True)
class HeisenbergTimesZ(GroupFamily):
    json_tag = "heisenberg-times-z"
    n: int

    def __post_init__(self):
        self._require_int_fields()
        if self.n < 1:
            raise ValueError("Heisenberg parameter must be >= 1")
        object.__setattr__(self, "generator_names", ("x", "y", "z", "u"))

    def multiply(self, a, b):
        return _heis_mul(self.n, a[:3], b[:3]) + (a[3] + b[3],)

    def fitting_matrix(self, spec):
        z_img, u_img = spec.image_of("z"), spec.image_of("u")
        if any(z_img[:2]) or any(u_img[:2]):
            raise ValueError("images do not preserve the center")
        return IntMatrix.from_columns([z_img[2:], u_img[2:]])

    def quotient_matrix(self, spec):
        return _xy_block(spec)

    def layer_failure(self, spec):
        if not self.fitting_matrix(spec).is_unimodular:
            return "center matrix is not unimodular"
        if not self.quotient_matrix(spec).is_unimodular:
            return "quotient matrix is not unimodular"
        return None

    def rnumber_route(self, spec):
        r = r_abelian(self.fitting_matrix(spec)) * r_abelian(self.quotient_matrix(spec))
        return r, ("rnumber:center-times-quotient",)


@dataclass(frozen=True)
class ZnSemidirectZ(GroupFamily):
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
        object.__setattr__(self, "generator_names", tuple("e%d" % (i + 1) for i in range(n)) + ("t",))

    @property
    def n(self) -> int:
        return self.action.rows

    def multiply(self, a, b):
        n = self.n
        p = _power_sum(self.action.entries, a[n])[0]
        return tuple(a[i] + sum(map(operator.mul, p[i * n:(i + 1) * n], b)) for i in range(n)) + (a[n] + b[n],)

    def to_json_dict(self):
        return {"tag": self.json_tag, "matrix": self.action.to_rows()}

    @classmethod
    def from_json(cls, data):
        return cls(_json_matrix(data))

    def fitting_matrix(self, spec):
        return _lattice_block(spec, self.n)

    def quotient_matrix(self, spec):
        return IntMatrix(1, 1, (spec.image_of("t")[self.n],))

    def layer_failure(self, spec):
        n, a = self.n, self.action
        if a == IntMatrix.identity(n):
            full = IntMatrix.from_columns(spec.images)
            return None if full.is_unimodular else "full abelian matrix is not unimodular"
        if self._lattice_preserved(spec):
            if not self.fitting_matrix(spec).is_unimodular:
                return "lattice matrix is not unimodular"
            if abs(spec.image_of("t")[n]) != 1:
                return "quotient exponent of t is not +-1"
            return None
        d = finite_order(a)
        if d is None:
            # With an infinite-order action the lattice is characteristic
            # whenever 1 is not an eigenvalue, so leaving it is a failure; in
            # the unipotent corner this check is sound but conservative.
            return "images leave the lattice subgroup"
        if not translation_matrix(spec, d).is_unimodular:
            return "translation-lattice matrix is not unimodular"
        if math.gcd(spec.image_of("t")[n], d) != 1:
            return "induced map on the finite quotient is not bijective"
        return None

    def rnumber_route(self, spec):
        n, a = self.n, self.action
        if a == IntMatrix.identity(n):
            full = IntMatrix.from_columns(spec.images)
            return r_abelian(full), ("rnumber:lattice",)
        if self._lattice_preserved(spec):
            # the class of t^e in Z / (1 - q) Z acts on the lattice by A^e
            return _quotient_class_sum(self, spec, (a,), "rnumber:two-step-addition")
        d = finite_order(a)
        if d is None:
            raise ValueError("images leave the lattice for an infinite-order action")
        # the holonomy Z / d acts on the translation lattice <t^d, e1..en> by diag(1, A)^e
        h = IntMatrix.from_rows([[1] + [0] * n] + [[0, *a.row(i)] for i in range(n)])
        total = r_class_sum(IntMatrix(1, 1, (d,)), (h,), translation_matrix(spec, d)).div_exact(d)
        return total, ("rnumber:holonomy-averaging",)

    def _lattice_preserved(self, spec) -> bool:
        n = self.n
        return all(img[n] == 0 for img in spec.images[:n])


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
        object.__setattr__(self, "generator_names", ("e1", "e2", "t", "u"))

    # the Z^2-by-Z^2 extension law with t acting by B = -I
    def multiply(self, a, b):
        return _z2_by_z2_mul(self.action.entries, _MINUS_I2, self.n0, a, b)

    def to_json_dict(self):
        return {"tag": self.json_tag, "matrix": self.action.to_rows(), "n0": list(self.n0)}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data["n0"], list):
            raise ValueError("field 'n0' must be an array of two integers, got %r" % (data["n0"],))
        return cls(_json_matrix(data), tuple(data["n0"]))

    def fitting_matrix(self, spec):
        return _lattice_block(spec, 2)

    def quotient_matrix(self, spec):
        return IntMatrix.from_columns([spec.image_of("t")[2:], spec.image_of("u")[2:]])

    def layer_failure(self, spec):
        if not self.fitting_matrix(spec).is_unimodular:
            return "lattice matrix is not unimodular"
        if not self.quotient_matrix(spec).is_unimodular:
            return "quotient matrix is not unimodular"
        # the image of t acts on the lattice by +-A^k, k its u-exponent, and
        # must act by -I; an action of infinite order forces k = 0
        if spec.image_of("t")[3] and finite_order(self.action) is None:
            return "u-exponent of the image of t is not 0"
        return None

    def rnumber_route(self, spec):
        # the class of t^e u^f in Z^2 / (I - Q) Z^2 acts on the lattice by
        # (-I)^e A^f; an action of infinite order has at most 4 classes, as
        # the u-exponent of the image of t is then 0
        return _quotient_class_sum(self, spec, (-IntMatrix.identity(2), self.action), "rnumber:quotient-class-sum")


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
        object.__setattr__(self, "generator_names", ("x", "y", "z", "t"))

    def _psi(self, h: tuple) -> tuple:
        a, b, c = h
        return (-a, -b, c + self.k * a + self.l * b)

    def multiply(self, a, b):
        h2 = b[:3]
        if a[3] % 2:  # psi is an involution on H_n
            h2 = self._psi(h2)
        return _heis_mul(self.n, a[:3], h2) + (a[3] + b[3],)

    def fitting_matrix(self, spec):
        return _xy_block(spec)

    def quotient_matrix(self, spec):
        return IntMatrix(1, 1, (spec.image_of("t")[3],))

    def layer_failure(self, spec):
        failure = _center_failure(spec)
        if failure:
            return failure
        for name in ("x", "y"):
            if spec.image_of(name)[3]:
                return "image of %s leaves the Heisenberg subgroup" % name
        if not self.fitting_matrix(spec).is_unimodular:
            return "Heisenberg quotient matrix is not unimodular"
        if abs(spec.image_of("t")[3]) != 1:
            return "quotient exponent of t is not +-1"
        return None

    def rnumber_route(self, spec):
        # the class of t^e in Z / (1 - q) Z acts on H_n / Z(H_n) by (-I)^e
        r, trace = _quotient_class_sum(self, spec, (-IntMatrix.identity(2),), "rnumber:two-step-addition")
        return _r_scalar(spec.image_of("z")[2]) * r, trace


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
    the family (``layer_failure``, ``rnumber_route``), never stored."""

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
    """
    family = spec.family
    try:
        failure = family.layer_failure(spec)
    except ValueError as exc:
        failure = str(exc)
    if failure:
        return VerificationResult(False, failure)
    gens, images, names = family.generators(), spec.images, family.generator_names
    for i, j in combinations(range(family.slots), 2):
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


def _r_scalar(e: int) -> RNumber:
    return r_abelian(IntMatrix(1, 1, (e,)))


def _quotient_class_sum(family, spec, actions, rule: str) -> tuple[RNumber, tuple[str, ...]]:
    """The class sum of the fitting matrix over Z^k / (I - Q) Z^k, Q the
    quotient matrix, the class of the i-th quotient generator acting by
    actions[i]; infinite when I - Q is singular, as 1 is then an
    eigenvalue of Q."""
    q = family.quotient_matrix(spec)
    shift = IntMatrix.identity(q.rows) - q
    if shift.det() == 0:
        return INFINITE, ("rnumber:identity-quotient",)
    return r_class_sum(shift, actions, family.fitting_matrix(spec)), (rule,)


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
    images = {}
    for i in range(fam.n):
        vec = [0] * fam.n
        vec[i] = -1
        images["e%d" % (i + 1)] = tuple(vec)
    return AutomorphismSpec.from_images(fam, images)


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
    an integral solution of the lifting constraint.  The block is the
    least lifting solution of ``exactlin.least_solution``, in the order
    the spectrum reports its witness in (|m|, then negative m first, then
    (n, p) ascending), and the translations are that solution's m0 and
    z0, so on a hyperbolic action they equal the spectrum's evidence; the
    parameter is not used."""
    a = fam.action
    if a.det() != 1:
        # the quadratic system encodes the intertwining only for det 1
        raise UnknownWitnessError(
            "phi_eight needs an action of determinant 1; with determinant -1 the spectrum is {oo}"
        )
    if abs(a.trace()) <= 2 and a not in (IntMatrix.identity(2), -IntMatrix.identity(2)):
        # parabolic or of finite order 3, 4 or 6: no automorphism has finitely many classes
        case = ("a repeated eigenvalue", "ext:repeated-eigenvalue") if abs(a.trace()) == 2 else (
            "finite order %d" % finite_order(a), "z3:block-order-four-or-six")
        raise UnknownWitnessError(
            "phi_eight needs a hyperbolic action or A = +-I; A = %s has %s, where the spectrum is {oo} (%s)"
            % (a, *case)
        )
    lift = lifting_solver(a, fam.n0)
    if abs(a.trace()) == 2:
        # on +-I lifting reads M mod 2, where the solutions fall into three
        # classes; these blocks are the least of each, and one lifts for every n0
        blocks = (IntMatrix(2, 2, e) for e in ((0, -1, 1, 0), (-1, -2, 1, 1), (-1, -1, 2, 1)))
        found = next((m, c) for m in blocks if (c := lift(m)) is not None)
    else:
        orbit = system2_orbit(a)
        found = orbit and least_solution(a, orbit, lift)
        if not found:
            raise UnknownWitnessError(
                "no solution of the quadratic system for A = %s lifts with n0 = (%d, %d), so the spectrum is {oo} (%s)"
                % (a, *fam.n0, "ext:parity-obstruction" if orbit else "system2:proven-empty")
            )
    m, coeffs = found
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
# Twisted-conjugacy labeling oracle


# The outer ball of label_classes has (2 r + 5)^slots sites, walked in
# rows of 2 r + 5; above this cap the oracle refuses before it allocates
# anything.  The largest ball in the tests and the benchmark is 13^4 =
# 28 561 sites.
MAX_BALL_SITES = 100_000


@dataclass(frozen=True)
class ClassLabeling:
    """Twisted-conjugacy labels over a bounded exponent ball.

    The labels come from one incremental union-find saturation of the
    radius-(r+2) ball, walked row by row with one twist per generator (see
    ``label_classes``): the edges inside the radius-(r+1) ball are merged
    first and the radius-r labels read off there, so merge paths grazing
    the boundary are not reported as spurious extra classes.  ``complete``
    is a heuristic fixed-point certificate read off the finished
    saturation: the class count did not change when the radius grew by one
    and every class already meets the interior of the ball.  It is never a
    proof; the formula paths stay authoritative, the oracle a falsifier.
    """

    ball_radius: int
    labels: Mapping[tuple[int, ...], int]
    complete: bool

    @property
    def class_count(self) -> int:
        return len(set(self.labels.values()))


def _row_span(h0: tuple[int, ...], d: tuple[int, ...], bound: int, side: int) -> tuple[int, int]:
    """The k in range(side) with h0 + k d in the sup-norm ball of radius
    bound, as a half-open interval (start, stop), empty when start >= stop."""
    start, stop = 0, side
    for h, s in zip(h0, d):
        if s < 0:  # the ball is symmetric
            h, s = -h, -s
        if s:
            start = max(start, -((bound + h) // s))
            stop = min(stop, (bound - h) // s + 1)
        elif abs(h) > bound:
            return 0, 0
    return start, stop


def _ball_offsets(side: int, slots: int, radius: int) -> list[int]:
    """The indices of the radius ball's sites, in sorted order, when the
    sites of the ball of the given side are numbered in sorted order."""
    centre = side // 2
    offsets = [0]
    for _ in range(slots):
        offsets = [i * side + c for i in offsets for c in range(centre - radius, centre + radius + 1)]
    return offsets


def label_classes(spec: AutomorphismSpec, radius: int) -> ClassLabeling:
    """Union-find saturation of g ~ z g phi(z)^-1 over an exponent ball.

    One saturation of the radius-(r+2) ball with one twist per generator
    z: the twist by z^-1 is its inverse map and gives the same edges.
    Each twist is affine in slot 0 once the other slots are fixed, so the
    ball is walked in rows along slot 0: two twists give a row's start h0
    and step d, the k with h0 + k d in the ball form one interval, and the
    image's index in the sorted ball is index(h0) + k (d . strides).  The
    radius-(r+1) edges, those with both ends in the radius-(r+1) ball, are
    merged first and the radius-r labels and class count taken as a
    snapshot, in first-seen order over the sorted ball; then the edges
    leaving that ball are merged, and the class count over it and the
    interior certificate are read off the finished structure.  Raises
    ValueError when the outer ball would hold more than MAX_BALL_SITES
    sites.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not spec.verified:
        raise ValueError("spec must be verified first")
    fam = spec.family
    slots = fam.slots
    inner, outer = radius + 1, radius + 2
    side = 2 * outer + 1
    size = side ** slots
    if size > MAX_BALL_SITES:
        raise ValueError(
            "the radius-%d oracle needs a ball of %d^%d = %d sites, above the cap of %d"
            % (radius, side, slots, size, MAX_BALL_SITES)
        )
    mul = fam.multiply
    twists = [(z, fam.inverse(spec.apply(z))) for z in fam.generators()]
    strides = [side ** (slots - 1 - i) for i in range(slots)]
    step = strides[0]
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y

    leaving_g, leaving_h = array("l"), array("l")  # the edges leaving ball(r+1)
    for base, rest in enumerate(product(range(-outer, outer + 1), repeat=slots - 1)):
        # the row's sites (k - outer, rest), 0 <= k < side; those with
        # 1 <= k < g_stop lie in ball(r+1)
        sources = range(base, size, step)
        g_stop = side - 1 if max(map(abs, rest), default=0) <= inner else 0
        first, second = (-outer,) + rest, (1 - outer,) + rest
        for z, w in twists:
            h0 = mul(mul(z, first), w)
            d = tuple(map(operator.sub, mul(mul(z, second), w), h0))
            lo, hi = _row_span(h0, d, outer, side)
            if lo >= hi:
                continue
            # image indices index(h0) + k (d . strides); that step is 0 only
            # when at most one image lies in the ball
            start = sum((x + outer) * s for x, s in zip(h0, strides))
            image_step = sum(map(operator.mul, d, strides))
            images = range(start, start + side * image_step, image_step) if image_step else [start] * side
            a, b = _row_span(h0, d, inner, side)
            a, b = max(a, 1), min(b, g_stop)
            for x, y in zip(sources[a:b], images[a:b]):
                union(x, y)
            if a >= b:  # no edge inside ball(r+1): all of [lo, hi) leaves it
                a = b = lo
            for part in (slice(lo, a), slice(b, hi)):
                leaving_g.extend(sources[part])
                leaving_h.extend(images[part])

    labels: dict[tuple[int, ...], int] = {}
    assigned: dict[int, int] = {}
    for g, gi in zip(product(range(-radius, radius + 1), repeat=slots), _ball_offsets(side, slots, radius)):
        labels[g] = assigned.setdefault(find(gi), len(assigned))
    count = len(assigned)

    for x, y in zip(leaving_g, leaving_h):
        union(x, y)
    roots_next = set(map(find, _ball_offsets(side, slots, inner)))
    roots_interior = set(map(find, _ball_offsets(side, slots, radius - 1)))
    complete = count == len(roots_next) == len(roots_interior)
    return ClassLabeling(radius, labels, complete)
