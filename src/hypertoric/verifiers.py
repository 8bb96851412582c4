"""Executable checks for the local-structure results.

Two verifiers live here.  The strong-embedding criterion checks that every
generator of a local inertia group acts trivially on the normal-bundle
fiber (all pairings integral).  The chart verifier realizes each sigma
chart as a product (moment fiber) x (affine fiber) with exact rational
coordinates and confirms the isomorphism by exact round-trips on sampled
points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .exact import as_fraction_vector, as_int
from .inertia import TorsionElement, _same_dimension, inertia_elements
from .model import SigmaSet, StackModel, WeightMatrix, _integral, _lawrence_pair, lambda_coeffs, moment_eval
from .value import Value


class LocalModelSRE(Value):
    """Local model at a point: generators of the (finite abelian) inertia
    group and the characters acting on the normal-bundle fiber.  Generators
    of different dimensions, and a normal weight whose length is not every
    generator's dimension, are refused at construction, with
    ``ValueError`` (``inertia._same_dimension``)."""

    __slots__ = _fields = ("generators", "normal_weights")

    def __init__(self, generators: tuple[TorsionElement, ...],
                 normal_weights: tuple[tuple[int, ...], ...]):
        for g in generators[:1]:
            _same_dimension(g.d, *generators)
        for w in normal_weights:
            _same_dimension(len(w), *generators)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "normal_weights", normal_weights)

    @staticmethod
    def cyclic(order: int, weights) -> "LocalModelSRE":
        """Cyclic group of the given order acting on a sum of 1-dimensional
        characters given by integer exponents."""
        order = as_int(order)
        if order < 1:
            raise ValueError("group order must be positive")
        gen = TorsionElement.from_fractions([Fraction(1, order)])
        return LocalModelSRE((gen,), tuple((as_int(w),) for w in weights))


def sre_condition_iii(local: LocalModelSRE) -> bool:
    """True iff the normal fiber is a trivial representation of the inertia
    group: every generator pairs integrally with every normal weight.  The
    weights' lengths were checked when ``local`` was built."""
    return all(g.fixes(w) for g in local.generators for w in local.normal_weights)


def hypertoric_normal_data(model: StackModel) -> LocalModelSRE:
    """Normal data of the moment-fiber embedding: the moment equations are
    torus-invariant, so the normal bundle is d copies of the trivial
    character at every inertia element."""
    zero = (0,) * model.d
    return LocalModelSRE(tuple(inertia_elements(model)), (zero,) * model.d)


class ChartInstance(Value):
    """One sigma chart, ready for exact evaluation.

    ``pivots`` lists (column, tag) over the basis columns in ascending
    order, the order ``lambda_coeffs`` uses; tag 'x' or 'y' names which of
    the two coordinates over the column is the chart denominator, and the
    other one is its partner.  The fiber coordinates of a chart point q are
    its moment value in the basis of those columns: mu(q) = sum z_i a_{b_i}.
    The pivots, and the 0-based coordinate index of each pivot and of its
    partner (x_j at j - 1, y_j at n + j - 1), are cache slots read once, at
    construction; the chart's value is its sigma set and matrix.
    """

    _fields = ("sigma", "a")
    __slots__ = _fields + ("pivots", "_pivot_at", "_partner_at")

    def __init__(self, sigma: SigmaSet, a: WeightMatrix):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)
        pivots = tuple(sorted(zip(sigma.basis, sigma.tags)))
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_pivot_at", tuple(c - 1 if t == "x" else a.n + c - 1 for c, t in pivots))
        object.__setattr__(self, "_partner_at", tuple(a.n + c - 1 if t == "x" else c - 1 for c, t in pivots))

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def d(self) -> int:
        return self.a.d

    @property
    def base_point_dim(self) -> int:
        return 2 * self.n - self.d

    @property
    def fiber_dim(self) -> int:
        return self.d

    def pivot_values(self, point) -> list[Fraction]:
        return [point[i] for i in self._pivot_at]

    def partner_index(self, i: int) -> int:
        return self._partner_at[i]

    def in_chart(self, point) -> bool:
        return all(point[i] != 0 for i in self._pivot_at)


def build_chart(a: WeightMatrix, sigma: SigmaSet) -> ChartInstance:
    """The chart of a sigma set whose columns are a basis: d columns of
    Hermite rank d.  Other columns are refused with ``ModelError``, naming
    them, by ``WeightMatrix.basis_lattice``."""
    a.basis_lattice(sigma.basis)
    return ChartInstance(sigma, a)


def chart_forward(chart: ChartInstance, base_point, z) -> tuple[Fraction, ...]:
    """Map (base point on the moment fiber, fiber coordinates z) into the
    chart: moving the partner of pivot i by z_i / pivot_i adds z_i a_{b_i}
    to the moment value.  z = 0 returns the base point."""
    p = _chart_point(chart, base_point, "base point")
    zv = as_fraction_vector(z)
    if len(zv) != chart.d:
        raise ValueError("fiber vector must have %d coordinates" % chart.d)
    if any(moment_eval(chart.a, p)):
        raise ValueError("base point is not on the moment fiber")
    return _shift_partners(chart, p, zv)


def _chart_point(chart: ChartInstance, point, what: str) -> list[Fraction]:
    """The one point check of both chart maps: ``point`` as a list of
    Fractions, refused unless it has 2n coordinates and lies in the chart."""
    p = list(as_fraction_vector(point))
    if len(p) != 2 * chart.n:
        raise ValueError("point must have %d coordinates" % (2 * chart.n))
    if not chart.in_chart(p):
        raise ValueError("%s is outside the chart (a pivot coordinate vanishes)" % what)
    return p


def _shift_partners(chart: ChartInstance, p: list[Fraction], z) -> tuple[Fraction, ...]:
    # a pivot and its partner lie over one column, so no pivot is shifted
    for i, j, zi in zip(chart._pivot_at, chart._partner_at, z):
        p[j] += zi / p[i]
    return tuple(p)


def chart_inverse(chart: ChartInstance, point) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Split a chart point into (moment-fiber base point, fiber coordinates):
    z is the moment value in the basis of the pivot columns, and the base
    point undoes the partner shift of ``chart_forward``."""
    q = _chart_point(chart, point, "point")
    z = lambda_coeffs(chart.a, chart.sigma.basis, moment_eval(chart.a, q))
    return _shift_partners(chart, q, [-c for c in z]), z


def random_rational_point(rng: random.Random, dim: int, bound: int = 9) -> tuple[Fraction, ...]:
    """Seeded exact rational point with bounded numerators/denominators."""
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)
    )


class ChartCheck(NamedTuple):
    sigma_labels: tuple[str, ...]
    samples: int
    ok: bool
    detail: str = ""


class ChartReport(NamedTuple):
    ok: bool
    charts: tuple[ChartCheck, ...]


def verify_charts(a: WeightMatrix, theta, samples: int = 100, seed: int = 0) -> ChartReport:
    """For every sigma chart: sample chart points, split them, check the base
    point kills the original moment map exactly, and check both round-trips
    reproduce the inputs exactly.  The sigma sets are those of the Lawrence
    model of ``(a, theta)``, read from the memo every parse and verifier
    reads (``model._lawrence_pair``), so the sign rule runs once per column
    basis; a rational ``theta`` is scaled to an integral one first.  A
    ``samples`` below 1 raises ``ValueError``: it would check no point and
    report a vacuous pass."""
    samples = as_int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    rng = random.Random(seed)
    checks = []
    for sigma in _lawrence_pair(a, _integral(theta)[0])[0].arrangement.sigma_sets:
        chart = build_chart(a, sigma)
        detail = ""
        ok = True
        done = 0
        while done < samples:
            q = random_rational_point(rng, 2 * a.n)
            if not chart.in_chart(q):
                continue
            done += 1
            base, z = chart_inverse(chart, q)
            if any(moment_eval(a, base)):
                ok, detail = False, "base point of %s has nonzero moment value" % (q,)
                break
            if chart_forward(chart, base, z) != q:
                ok, detail = False, "forward(inverse(q)) != q at %s" % (q,)
                break
            z2 = random_rational_point(rng, a.d)
            p2 = chart_forward(chart, base, z2)
            if chart_inverse(chart, p2) != (base, z2):
                ok, detail = False, "inverse(forward(base, z)) mismatch at %s" % (q,)
                break
        checks.append(ChartCheck(sigma.labels(), done, ok, detail))
    return ChartReport(all(c.ok for c in checks), tuple(checks))
