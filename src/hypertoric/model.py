"""GIT input data and stack models.

Encodes the weight matrix A and character theta, computes column bases,
basis coefficients, sigma sets and their sign rule, genericity, the minimal
unstable coordinate sets (one per hyperplane spanned by columns), the doubled
weight matrix of the cotangent-type model, and exact moment-map evaluation.

Column indices are 1-based throughout the public API (columns 1..n; others
are refused).  In a doubled model coordinate j is x_j for j <= n, else y_{j-n}.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .characters import CharacterClass
from .exact import IntMatrix, as_fraction_vector, as_int, hnf, solve_rational
from .value import Value

LAWRENCE = "lawrence"
HYPERTORIC = "hypertoric"
DIRECT = "direct"
KINDS = (LAWRENCE, HYPERTORIC, DIRECT)


class ModelError(ValueError):
    """Invalid model input (rank deficiency, bad schema, ...)."""


class NonGenericError(ModelError):
    """Character sits on a GIT wall: some basis coefficient vanishes."""

    def __init__(self, report: "GenericReport"):
        self.report = report
        super().__init__("non-generic character: " + report.describe())


class WeightMatrix(Value):
    """The d x n integer matrix of torus weights; column j is the character
    of the coordinate x_j.  Must have full rank d over Q.  The matrix is the
    value; its ``columns``, ``d`` and ``n`` are cache slots set once, and a
    column argument is read behind one test: a plain int in 1..n, else
    ``ModelError``."""

    _fields = ("matrix",)
    __slots__ = _fields + ("columns", "d", "n")

    def __init__(self, matrix: IntMatrix):
        if matrix.rows == 0 or matrix.cols == 0:
            raise ModelError("weight matrix must be nonempty")
        if len(hnf(matrix.entries, matrix.cols)) != matrix.rows:
            raise ModelError("rank deficient: weight matrix must have full row rank")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "columns", tuple(zip(*matrix.entries)))
        object.__setattr__(self, "d", matrix.rows)
        object.__setattr__(self, "n", matrix.cols)

    @staticmethod
    def from_rows(rows) -> "WeightMatrix":
        return WeightMatrix(IntMatrix(tuple(_int_entries(row, "weight matrix") for row in rows)))

    def column(self, j: int) -> tuple[int, ...]:
        """Weight of coordinate x_j (1-based)."""
        if type(j) is int and 0 < j <= self.n:
            return self.columns[j - 1]
        raise ModelError("columns {%s} are not all in 1..%d" % (j, self.n))

    def columns_matrix(self, cols) -> IntMatrix:
        """Square-ish submatrix of the 1-based columns, in ascending order."""
        return self.matrix.submatrix_columns(sorted(j - 1 for j in self._checked(cols)))

    def lattice(self, cols) -> tuple[tuple[int, ...], ...]:
        """The reduced Hermite basis of the lattice the 1-based columns span;
        its length is their rank."""
        return hnf([self.columns[j - 1] for j in self._checked(cols)], self.d)

    def _checked(self, cols) -> tuple[int, ...]:
        """The 1-based columns, refused unless all are plain ints in 1..n:
        neither 0 nor -1 is read from the other end, nor True or 1.0 as 1."""
        cols = tuple(cols)
        if cols and (set(map(type, cols)) != {int} or min(cols) < 1 or max(cols) > self.n):
            raise ModelError("columns {%s} are not all in 1..%d" % (",".join(map(str, cols)), self.n))
        return cols


class SigmaSet(NamedTuple):
    """Coordinates selected by the signs of the basis coefficients: the
    x-coordinate of a column with positive coefficient, the y-coordinate of
    one with negative coefficient."""

    basis: tuple[int, ...]
    tags: tuple[str, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple("%s%d" % (tag, j) for j, tag in zip(self.basis, self.tags))


class GenericReport(NamedTuple):
    """Outcome of the genericity check; violations name (basis, column)."""

    generic: bool
    violations: tuple[tuple[tuple[int, ...], int], ...] = ()

    def describe(self) -> str:
        if self.generic:
            return "generic"
        return "; ".join(
            "basis {%s}, lambda_%d = 0" % (",".join(map(str, basis)), col)
            for basis, col in self.violations
        )


class StableArrangement(NamedTuple):
    """Stable-locus combinatorics of a model: the sigma sets, the minimal
    unstable coordinate sets (the minimal sets meeting every sigma set; for
    a GIT model, one per hyperplane spanned by columns), and the ambient
    coordinate labels.  The coordinate characters are the columns of
    ``StackModel.weights``."""

    sigma_sets: tuple[SigmaSet, ...]
    unstable_minimal: tuple[frozenset[int], ...]
    labels: tuple[str, ...]


class StackModel(Value):
    """A Lawrence, hypertoric or direct toric model ready for the inertia
    and Chow machinery.

    ``base`` is the defining d x n weight matrix; ``weights`` is the ambient
    coordinate matrix (doubled to d x 2n for Lawrence/hypertoric models).
    The hypertoric tangent class is the Lawrence one minus d trivial
    summands, reflecting that the moment-map directions carry the trivial
    character.
    """

    __slots__ = _fields = ("kind", "base", "weights", "theta", "arrangement", "tangent_class")

    def __init__(self, kind: str, base: WeightMatrix, weights: WeightMatrix,
                 theta: tuple[int, ...] | None, arrangement: StableArrangement,
                 tangent_class: CharacterClass):
        # ages and obstructions are computed on integer multiplicities
        if any(m.denominator != 1 for _, m in tangent_class.terms):
            raise ModelError("tangent class multiplicities must be integers: %s" % tangent_class)
        for name, value in zip(self._fields, (kind, base, weights, theta, arrangement, tangent_class)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def doubled(self) -> bool:
        return self.kind in (LAWRENCE, HYPERTORIC)

    @property
    def num_coords(self) -> int:
        return self.weights.n

    def coordinate_char(self, j: int) -> tuple[int, ...]:
        return self.weights.column(j)

    def coords_of_columns(self, cols) -> frozenset[int]:
        """Ambient coordinate indices lying over the given base columns."""
        cols = self.base._checked(cols)
        return frozenset(cols + tuple(self.n + j for j in cols) if self.doubled else cols)


def column_bases(a: WeightMatrix) -> list[tuple[int, ...]]:
    """All size-d column subsets with nonzero determinant, lexicographic."""
    out = []
    for combo in itertools.combinations(range(1, a.n + 1), a.d):
        if a.columns_matrix(combo).det() != 0:
            out.append(combo)
    if not out:
        raise ModelError("rank deficient: no column basis exists")
    return out


def lambda_coeffs(a: WeightMatrix, basis, theta) -> tuple[Fraction, ...]:
    """The unique rationals with sum(lambda_j * a_{i_j}) = theta, indexed by
    the sorted basis columns."""
    basis = tuple(sorted(basis))
    sub = a.columns_matrix(basis)
    if sub.det() == 0:
        raise ModelError("columns {%s} are not a basis" % ",".join(map(str, basis)))
    x = solve_rational(sub, as_fraction_vector(theta))
    assert x is not None
    return x


def _sign_rule(a: WeightMatrix, basis, theta) -> tuple[SigmaSet, list]:
    """The sigma set of a sorted basis, with the (basis, column) pairs whose
    coefficient is zero (the walls theta sits on).

    By Cramer's rule lambda_j = det A_B^(j<-theta) / det A_B, where the
    numerator has theta in place of column j, so sign(lambda_j) is the
    product of the signs of two integer determinants and lambda_j is zero
    exactly when the numerator is; a rational theta is scaled to an integer
    one first, which keeps every sign."""
    sub = a.columns_matrix(basis)
    det = sub.det()
    if det == 0:
        raise ModelError("columns {%s} are not a basis" % ",".join(map(str, basis)))
    theta = _integral(theta)
    if len(theta) != sub.rows:
        raise ValueError("right-hand side length %d does not match %d rows" % (len(theta), sub.rows))
    tags, walls = [], []
    for k, j in enumerate(basis):
        num = IntMatrix(tuple(row[:k] + (t,) + row[k + 1:] for row, t in zip(sub.entries, theta))).det()
        if not num:
            walls.append((basis, j))
        tags.append("x" if num * det > 0 else "y")
    return SigmaSet(basis, tuple(tags)), walls


def _integral(theta) -> tuple[int, ...]:
    """A positive multiple of ``theta`` with integer entries."""
    values = as_fraction_vector(theta)
    scale = lcm(*(x.denominator for x in values))
    return tuple(int(x * scale) for x in values)


def sigma_set(a: WeightMatrix, basis, theta) -> SigmaSet:
    """Apply the sign rule to the basis coefficients; zero coefficients mean
    the character is non-generic and are a hard error."""
    sigma, walls = _sign_rule(a, tuple(sorted(basis)), theta)
    if walls:
        raise NonGenericError(GenericReport(False, tuple(walls[:1])))
    return sigma


def check_generic(a: WeightMatrix, theta) -> GenericReport:
    """A character is generic iff every column basis has all-nonzero
    coefficients.  All violating (basis, column) pairs are reported."""
    violations = tuple(w for basis in column_bases(a) for w in _sign_rule(a, basis, theta)[1])
    return GenericReport(not violations, violations)


def minimal_unstable_sets(sigma_sets, n: int) -> list[frozenset[int]]:
    """One minimal unstable coordinate set per hyperplane spanned by columns,
    read off the sigma sets of all column bases and ordered by (size, sorted
    elements).  The d-1 columns S of a basis span a hyperplane H; theta is
    lambda_k a_k modulo H in every basis S + {k}, so the set of H is the
    coordinate each such sigma set selects for k (x_k -> k, y_k -> n + k)."""
    hyperplanes: dict[tuple[int, ...], set[int]] = {}
    for sigma in sigma_sets:
        for i, (k, tag) in enumerate(zip(sigma.basis, sigma.tags)):
            rest = sigma.basis[:i] + sigma.basis[i + 1:]
            hyperplanes.setdefault(rest, set()).add(k if tag == "x" else n + k)
    return sorted({frozenset(s) for s in hyperplanes.values()}, key=lambda s: (len(s), sorted(s)))


def lawrence_double(a: WeightMatrix) -> WeightMatrix:
    """The d x 2n matrix (a_1 ... a_n, -a_1 ... -a_n)."""
    rows = [list(row) + [-e for e in row] for row in a.matrix.entries]
    return WeightMatrix.from_rows(rows)


def moment_eval(a: WeightMatrix, point) -> tuple[Fraction, ...]:
    """mu_i = sum_j a_ij x_j y_j at an exact rational point
    (x_1..x_n, y_1..y_n)."""
    p = as_fraction_vector(point)
    if len(p) != 2 * a.n:
        raise ValueError("point must have %d coordinates" % (2 * a.n))
    xys = [x * y for x, y in zip(p[:a.n], p[a.n:])]
    return tuple(sum((e * xy for e, xy in zip(row, xys)), Fraction(0)) for row in a.matrix.entries)


def _coordinate_labels(n: int, doubled: bool) -> tuple[str, ...]:
    labels = ["x%d" % j for j in range(1, n + 1)]
    if doubled:
        labels += ["y%d" % j for j in range(1, n + 1)]
    return tuple(labels)


def _int_entries(values, what: str) -> tuple[int, ...]:
    """``values`` as ints.  An entry with a fractional part is refused, not
    truncated: a model is built at the data it is given or not at all."""
    out = []
    for c in values:
        try:
            out.append(as_int(c))
        except ValueError:
            raise ModelError("%s must be integral, got entry %s" % (what, c)) from None
    return tuple(out)


def _git_arrangement(a: WeightMatrix, theta, doubled: bool):
    """The int character, sigma sets and minimal unstable sets of a GIT
    model, with one solve per column basis.  A zero character and a
    non-integral one are refused; a non-generic one raises with every wall
    ``check_generic`` reports."""
    theta = _int_entries(theta, "character theta")
    if not any(theta):
        raise ModelError("character theta must be nonzero")
    rules = [_sign_rule(a, basis, theta) for basis in column_bases(a)]
    walls = tuple(w for _, ws in rules for w in ws)
    if walls:
        raise NonGenericError(GenericReport(False, walls))
    sigmas = tuple(sigma for sigma, _ in rules)
    dual = [j for s in sigmas for j, tag in zip(s.basis, s.tags) if tag == "y"]
    if dual and not doubled:
        raise ModelError("sigma set selects dual coordinate y%d but the model is not doubled" % dual[0])
    return theta, sigmas, tuple(minimal_unstable_sets(sigmas, a.n))


def _tangent_class(d: int, chars) -> CharacterClass:
    """One summand per coordinate character, less the d torus directions."""
    return CharacterClass.build(d, [(w, 1) for w in chars], trivial=-d)


def lawrence_model(a: WeightMatrix, theta) -> StackModel:
    """Quotient model of the doubled coordinate space by the torus,
    linearized at theta.  Non-generic theta is rejected outright."""
    theta, sigmas, unstable = _git_arrangement(a, theta, doubled=True)
    doubled = lawrence_double(a)
    arrangement = StableArrangement(sigmas, unstable, _coordinate_labels(a.n, True))
    return StackModel(LAWRENCE, a, doubled, theta, arrangement, _tangent_class(a.d, doubled.columns))


def _moment_fiber(lm: StackModel) -> StackModel:
    """The moment fiber of a Lawrence model (see ``hypertoric_model``): the
    same arrangement, kind hypertoric, and d trivial summands less."""
    tangent = lm.tangent_class + CharacterClass.build(lm.d, trivial=-lm.d)
    return StackModel(HYPERTORIC, lm.base, lm.weights, lm.theta, lm.arrangement, tangent)


@functools.lru_cache(maxsize=2)
def _lawrence_pair(a: WeightMatrix, theta: tuple[int, ...]) -> tuple[StackModel, StackModel]:
    """The Lawrence model of ``(a, theta)``, ``theta`` as ints, and its
    moment fiber: a parsed input and the verifiers of it read one pair.
    A build that raises is not stored."""
    ambient = lawrence_model(a, theta)
    return ambient, _moment_fiber(ambient)


def hypertoric_model(a: WeightMatrix, theta) -> StackModel:
    """Moment-fiber model inside the Lawrence model: same arrangement, with
    the d trivial tangent directions of the moment map removed.  Its kind
    and tangent class tell it apart from the Lawrence model."""
    return _moment_fiber(lawrence_model(a, theta))


def direct_model(a: WeightMatrix, unstable=None, theta=None) -> StackModel:
    """Undoubled toric model.

    Either pass the minimal unstable coordinate sets directly (1-based column
    indices), or pass a character theta whose sign rule selects only
    x-coordinates in every basis (weighted-projective-space style inputs).
    """
    tangent = _tangent_class(a.d, a.columns)
    labels = _coordinate_labels(a.n, False)
    if unstable is not None:
        sets = []
        for s in unstable:
            fs = frozenset(_int_entries(s, "unstable set"))
            if not fs or not fs <= set(range(1, a.n + 1)):
                raise ModelError("unstable set %r is not a nonempty set of columns 1..%d" % (sorted(fs), a.n))
            sets.append(fs)
        for s1 in sets:
            for s2 in sets:
                if s1 < s2:
                    raise ModelError("unstable sets must form an antichain")
        sets = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        theta_t = _int_entries(theta, "character theta") if theta is not None else None
        arrangement = StableArrangement((), tuple(sets), labels)
        return StackModel(DIRECT, a, a, theta_t, arrangement, tangent)
    if theta is None:
        raise ModelError("direct model needs either unstable sets or a character")
    theta, sigmas, unstable_sets = _git_arrangement(a, theta, doubled=False)
    arrangement = StableArrangement(sigmas, unstable_sets, labels)
    return StackModel(DIRECT, a, a, theta, arrangement, tangent)


def model_from_dict(data: dict) -> StackModel:
    """Build a model from the JSON input schema:

      {"A": [[...]], "theta": [...], "kind": "lawrence"|"hypertoric"|"direct",
       "unstable": [[...]]}   (unstable: direct models only)

    A lawrence or hypertoric model is read from the memo of Lawrence models
    and their moment fibers (``_lawrence_pair``) that the verifiers read."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    if "A" not in data:
        raise ModelError("model file is missing the weight matrix 'A'")
    for key, depth in (("A", 2), ("theta", 1), ("unstable", 2)):
        if data.get(key) is not None:
            _json_ints(data[key], "'%s'" % key, depth)
    try:
        a = WeightMatrix.from_rows(data["A"])
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelError):
            raise
        raise ModelError("bad weight matrix: %s" % exc) from exc
    theta, unstable = data.get("theta"), data.get("unstable")
    if theta is not None and not (isinstance(theta, (list, tuple)) and len(theta) == a.d):
        raise ModelError("'theta' must be a list of d=%d integers, got %r" % (a.d, theta))
    if unstable is not None and not (
        isinstance(unstable, (list, tuple)) and all(isinstance(s, (list, tuple)) for s in unstable)
    ):
        raise ModelError("'unstable' must be a list of lists of column indices, got %r" % (unstable,))
    kind = data.get("kind", LAWRENCE)
    if kind not in KINDS:
        raise ModelError("unknown model kind %r (expected one of %s)" % (kind, "/".join(KINDS)))
    if kind == DIRECT:
        return direct_model(a, unstable=unstable, theta=theta)
    if theta is None:
        raise ModelError("%s model requires a character 'theta'" % kind)
    if "unstable" in data:
        raise ModelError("explicit unstable sets are only allowed for direct models")
    return _lawrence_pair(a, _int_entries(theta, "character theta"))[kind == HYPERTORIC]


def _json_ints(value, what: str, depth: int):
    """``value``, once every entry of its lists, nested at most ``depth``
    deep, is a JSON integer; floats, booleans, strings and lists nested
    deeper are refused, not truncated by ``int`` or left to fail later."""
    if depth and isinstance(value, (list, tuple)):
        for e in value:
            _json_ints(e, what, depth - 1)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ModelError("%s entries must be integers, got %r" % (what, value))
    return value
