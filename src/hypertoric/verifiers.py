"""Executable checks for the local-structure results.

Two verifiers live here.  The strong-embedding criterion checks that every
generator of a local inertia group acts trivially on the normal-bundle
fiber (all pairings integral).  The chart verifier realizes each sigma
chart as a product (moment fiber) x (affine fiber) with exact rational
coordinates and confirms the isomorphism by exact round-trips on sampled
points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import IntMatrix, as_fraction_vector, solve_rational
from .inertia import TorsionElement, inertia_elements
from .model import SigmaSet, StackModel, WeightMatrix, _moment, column_bases, moment_eval, sigma_set


@dataclass(frozen=True)
class LocalModelSRE:
    """Local model at a point: generators of the (finite abelian) inertia
    group and the characters acting on the normal-bundle fiber."""

    generators: tuple[TorsionElement, ...]
    normal_weights: tuple[tuple[int, ...], ...]

    @staticmethod
    def cyclic(order: int, weights) -> "LocalModelSRE":
        """Cyclic group of the given order acting on a sum of 1-dimensional
        characters given by integer exponents."""
        if order < 1:
            raise ValueError("group order must be positive")
        gen = TorsionElement.from_fractions([Fraction(1, order)])
        return LocalModelSRE((gen,), tuple((int(w),) for w in weights))


def sre_condition_iii(local: LocalModelSRE) -> bool:
    """True iff the normal fiber is a trivial representation of the inertia
    group: every generator pairs integrally with every normal weight."""
    return all(g.fixes(w) for g in local.generators for w in local.normal_weights)


def hypertoric_normal_data(model: StackModel) -> LocalModelSRE:
    """Normal data of the moment-fiber embedding: the moment equations are
    torus-invariant, so the normal bundle is d copies of the trivial
    character at every inertia element."""
    zero = (0,) * model.d
    return LocalModelSRE(tuple(inertia_elements(model)), (zero,) * model.d)


@dataclass(frozen=True)
class ChartInstance:
    """One sigma chart, ready for exact evaluation.

    ``pivot_order`` is the row permutation (applied to the weight matrix as
    a unimodular row operation) making every pivot entry nonzero;
    ``pivots`` lists (row, column, tag) with tag 'x' or 'y' naming which of
    the two coordinates over the column is the chart denominator.
    """

    sigma: SigmaSet
    n: int
    reduced: IntMatrix
    pivot_order: tuple[int, ...]
    pivots: tuple[tuple[int, int, str], ...]

    @property
    def d(self) -> int:
        return self.reduced.rows

    @property
    def base_point_dim(self) -> int:
        return 2 * self.n - self.d

    @property
    def fiber_dim(self) -> int:
        return self.d

    def _coord_index(self, column: int, tag: str) -> int:
        return (column - 1) if tag == "x" else (self.n + column - 1)

    def pivot_values(self, point) -> list[Fraction]:
        return [point[self._coord_index(col, tag)] for _, col, tag in self.pivots]

    def partner_index(self, i: int) -> int:
        _, col, tag = self.pivots[i]
        return self._coord_index(col, "y" if tag == "x" else "x")

    def in_chart(self, point) -> bool:
        return all(v != 0 for v in self.pivot_values(point))

    def moment(self, point) -> tuple[Fraction, ...]:
        return _moment(self.reduced.entries, self.n, point)

    def _pivot_submatrix(self) -> IntMatrix:
        return self.reduced.submatrix_columns([col - 1 for _, col, _ in self.pivots])

    def _offpivot_moment(self, point) -> tuple[Fraction, ...]:
        return _moment(self.reduced.entries, self.n, point, skip={c - 1 for _, c, _ in self.pivots})


def build_chart(a: WeightMatrix, sigma: SigmaSet) -> ChartInstance:
    """Fix the deterministic pivot data: basis columns ordered x-tagged then
    y-tagged, and the lexicographically smallest row permutation putting a
    nonzero entry on every pivot."""
    ordered = [(col, tag) for col, tag in zip(sigma.basis, sigma.tags) if tag == "x"]
    ordered += [(col, tag) for col, tag in zip(sigma.basis, sigma.tags) if tag == "y"]
    d = a.d
    for perm in itertools.permutations(range(d)):
        if all(a.matrix[perm[i], ordered[i][0] - 1] != 0 for i in range(d)):
            reduced = IntMatrix.from_rows([a.matrix.row(i) for i in perm])
            pivots = tuple((i, ordered[i][0], ordered[i][1]) for i in range(d))
            return ChartInstance(sigma, a.n, reduced, tuple(perm), pivots)
    raise ValueError("no row permutation makes all pivots nonzero; columns are not a basis")


def chart_forward(chart: ChartInstance, base_point, z) -> tuple[Fraction, ...]:
    """Map (base point on the moment fiber, fiber coordinates z) into the
    chart: shift each solved coordinate so that the i-th reduced moment value
    of the image equals a_ii * z_i.  z = 0 returns the base point."""
    p = list(as_fraction_vector(base_point))
    zv = as_fraction_vector(z)
    if len(p) != 2 * chart.n:
        raise ValueError("point must have %d coordinates" % (2 * chart.n))
    if len(zv) != chart.d:
        raise ValueError("fiber vector must have %d coordinates" % chart.d)
    if not chart.in_chart(p):
        raise ValueError("base point is outside the chart (a pivot coordinate vanishes)")
    if any(chart.moment(p)):
        raise ValueError("base point is not on the moment fiber")
    rhs = [chart.reduced[i, col - 1] * zv[i] for i, (_, col, _) in enumerate(chart.pivots)]
    return _shift_partners(chart, p, rhs)


def _shift_partners(chart: ChartInstance, p: list[Fraction], rhs) -> tuple[Fraction, ...]:
    w = solve_rational(chart._pivot_submatrix(), rhs)
    assert w is not None
    pivots = chart.pivot_values(p)
    for i in range(chart.d):
        p[chart.partner_index(i)] += w[i] / pivots[i]
    return tuple(p)


def chart_inverse(chart: ChartInstance, point) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Split a chart point into (moment-fiber base point, fiber coordinates):
    z_i is the i-th reduced moment value over the pivot entry, and the base
    point re-solves the partner coordinates to put the moment map at zero."""
    q = list(as_fraction_vector(point))
    if len(q) != 2 * chart.n:
        raise ValueError("point must have %d coordinates" % (2 * chart.n))
    if not chart.in_chart(q):
        raise ValueError("point is outside the chart (a pivot coordinate vanishes)")
    mu = chart.moment(q)
    z = tuple(mu[i] / chart.reduced[i, col - 1] for i, (_, col, _) in enumerate(chart.pivots))
    rest = chart._offpivot_moment(q)
    u = solve_rational(chart._pivot_submatrix(), [-r for r in rest])
    assert u is not None
    pivots = chart.pivot_values(q)
    base = list(q)
    for i in range(chart.d):
        base[chart.partner_index(i)] = u[i] / pivots[i]
    return tuple(base), z


def random_rational_point(rng: random.Random, dim: int, bound: int = 9) -> tuple[Fraction, ...]:
    """Seeded exact rational point with bounded numerators/denominators."""
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)
    )


@dataclass(frozen=True)
class ChartCheck:
    sigma_labels: tuple[str, ...]
    samples: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ChartReport:
    ok: bool
    charts: tuple[ChartCheck, ...]


def verify_charts(a: WeightMatrix, theta, samples: int = 100, seed: int = 0) -> ChartReport:
    """For every sigma chart: sample chart points, split them, check the base
    point kills the original moment map exactly, and check both round-trips
    reproduce the inputs exactly."""
    rng = random.Random(seed)
    checks = []
    for basis in column_bases(a):
        sigma = sigma_set(a, basis, theta)
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
