"""Graded pieces and ``exact.hnf`` against the bodies they replaced.

``chow._build_piece`` builds piece k from piece k-1: t_i times each row of
the lower piece's Hermite basis, plus the relations of degree exactly k.
Its reference is ``reference_build_piece`` below, the full Macaulay matrix:
every relation times every monomial of the complementary degree.
``exact.hnf`` reduces each incoming vector by the basis so far and skips
lattice members; its reference is ``reference_hnf``, which inserts every
vector.  The reduced Hermite basis is unique per lattice, so each pair must
agree exactly: pieces as whole ``GradedPiece`` values, bases as tuples.
"""

import random

from hypertoric import (
    GradedRingPresentation,
    IntPoly,
    WeightMatrix,
    direct_model,
    hypertoric_model,
    inertia_components,
    lawrence_model,
    presentation,
    sector_model,
)
from hypertoric.chow import GradedPiece
from hypertoric.exact import hermite_reduce, hnf
from hypertoric.poly import monomials_of_degree
from hypertoric.sampling import random_generic_instance


def reference_hnf(vectors, width):
    """Every vector inserted by gcd steps on pivot columns, the basis
    re-reduced after each insertion."""
    rows = {}
    for vec in vectors:
        v = list(vec)
        assert len(v) == width
        for c in range(width):
            if not v[c]:
                continue
            b = rows[c] if c in rows else [0] * width
            while v[c]:
                q = b[c] // v[c]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            rows[c] = b if b[c] > 0 else [-x for x in b]
        order = sorted(rows)
        for i, c in enumerate(order):
            rows[c] = hermite_reduce(rows[c], [rows[k] for k in order[i + 1:]])
    return tuple(tuple(rows[c]) for c in sorted(rows))


def reference_build_piece(pres, k):
    """The Hermite basis of every relation times every monomial of degree
    k minus the relation's degree."""
    monos = tuple(monomials_of_degree(pres.num_vars, k))
    columns = []
    for rel in pres.relations:
        e = rel.homogeneous_degree()
        if e > k:
            continue
        for m in monomials_of_degree(pres.num_vars, k - e):
            shifted = rel * IntPoly.from_dict(pres.num_vars, {m: 1})
            columns.append(shifted.coefficients_on(monos))
    return GradedPiece(k, monos, reference_hnf(columns, len(monos)))


def _sector_rings(model, truncation):
    """The presentation of every sector fixed set of ``model``."""
    fixed_sets = sorted({c.fixed_columns for c in inertia_components(model)}, key=sorted)
    return [presentation(sector_model(model, f), truncation) for f in fixed_sets]


def _models():
    """Seeded Lawrence, hypertoric and direct models with d <= 3, and mu3."""
    rng = random.Random(2718)
    out = []
    for d, n in ((1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5)):
        a, theta = random_generic_instance(rng, d, n)
        out += [lawrence_model(a, theta), hypertoric_model(a, theta),
                direct_model(a, unstable=[[n]])]
    out.append(direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]))
    return out


def test_pieces_equal_the_macaulay_matrix_pieces():
    checked = set()
    for model in _models():
        truncation = 6 if model.d < 3 else 4
        for pres in _sector_rings(model, truncation):
            for k in range(truncation + 1):
                assert pres.piece(k) == reference_build_piece(pres, k)
            checked.add((model.kind, model.d, len(pres.relations) > 1))
    # every kind and rank, with rings of one and of several relations
    assert {(kind, d) for kind, d, _ in checked} == {
        (kind, d) for kind in ("lawrence", "hypertoric", "direct") for d in (1, 2, 3)}
    assert any(many for _, _, many in checked)


def test_mu3_pieces_equal_the_macaulay_matrix_pieces():
    mu3 = direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])
    rings = _sector_rings(mu3, 6)
    assert [str(r) for pres in rings for r in pres.relations] == ["3*t1", "3*t1"]
    for pres in rings:
        for k in range(7):
            assert pres.piece(k) == reference_build_piece(pres, k)


def test_pieces_of_random_presentations_equal_the_macaulay_matrix_pieces():
    # generators in several degrees, so piece k mixes lower rows and new
    # generators; any degree may be asked for first
    rng = random.Random(99)
    for trial in range(60):
        nvars = 1 + trial % 3
        rels = set()
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            monos = monomials_of_degree(nvars, deg)
            terms = rng.sample(monos, min(2, len(monos)))
            poly = IntPoly.from_dict(nvars, {m: rng.randint(-4, 4) for m in terms})
            if not poly.is_zero:
                rels.add(poly)
        if not rels:
            continue
        truncation = 5 if nvars < 3 else 4
        pres = GradedRingPresentation(nvars, tuple(sorted(rels, key=lambda p: p.terms)), truncation)
        degrees = list(range(truncation + 1))
        rng.shuffle(degrees)
        for k in degrees:
            assert pres.piece(k) == reference_build_piece(pres, k)


def _random_lattice(rng):
    """Vectors of a random lattice, with dependent and repeated rows."""
    width = rng.randint(1, 6)
    vectors = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 4)):
        if not vectors:
            break
        kind = rng.random()
        if kind < 0.35:
            vectors.append(list(rng.choice(vectors)))  # a repeated row
        elif kind < 0.7 and len(vectors) > 1:
            u, w = rng.sample(vectors, 2)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            vectors.append([p * x + q * y for x, y in zip(u, w)])  # a dependent row
        else:
            vectors.append([0] * width)
    rng.shuffle(vectors)
    return width, vectors


def test_skipping_hnf_equals_the_inserting_hnf():
    rng = random.Random(5150)
    dependent = 0
    for _ in range(1500):
        width, vectors = _random_lattice(rng)
        basis = hnf(vectors, width)
        assert basis == reference_hnf(vectors, width)
        dependent += len(vectors) > len(basis)
    # in most lattices some vector is a member of the lattice before it
    assert dependent > 500


def test_skipping_hnf_equals_the_inserting_hnf_on_wide_dependent_lattices():
    # rank well below the number of rows: most vectors are members and are
    # skipped, including scaled copies of a basis row
    rng = random.Random(8128)
    for _ in range(100):
        width = rng.randint(4, 10)
        gens = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(rng.randint(1, 3))]
        vectors = [[sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(width)]
                   for _ in range(12)]
        vectors += [[3 * x for x in gens[0]], gens[0], gens[0]]
        rng.shuffle(vectors)
        assert hnf(vectors, width) == reference_hnf(vectors, width)
