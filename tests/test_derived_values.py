"""Values the library derives, built unchecked, against the checked build.

The verify path builds four kinds of value from values it has already
validated, through each type's ``_``-prefixed constructor, with none of
``__init__``'s checks: the doubled weight matrix (``lawrence_double``),
the moment fiber (``model._moment_fiber``), every sector ring
(``chow._trace_ring``) and every embedding between two rings of one model
(``SectorEmbedding._of_coordinates``).  Each is held here to the value the
public constructor builds from the same data, down to each relation's
degree as the library reads it off the first term, over
the Lawrence, hypertoric and direct models of ``test_pair_blocks`` and
the Lawrence and hypertoric models of ``(1, 4)`` ... ``(3, 6)`` at seeds
1-5.  The public constructors keep their refusals.
"""

import random
import re
from fractions import Fraction

import pytest

import hypertoric.model as model_module
from hypertoric import (
    CharacterClass,
    GradedRingPresentation,
    IntMatrix,
    ModelError,
    SectorEmbedding,
    StackModel,
    WeightMatrix,
    hypertoric_model,
    lawrence_double,
    lawrence_model,
    orbifold_table,
    presentation,
)
from hypertoric.chow import _degree
from hypertoric.inertia import _bits, _mask
from hypertoric.model import HYPERTORIC
from hypertoric.sampling import random_generic_instance
from test_pair_blocks import _models as pair_block_models

SHAPES = [(1, 4), (1, 6), (2, 4), (2, 5), (3, 5), (3, 6)]


def _instances():
    for d, n in SHAPES:
        for seed in range(1, 6):
            yield random_generic_instance(random.Random(seed), d, n)


def _models():
    yield from (model for _, model in pair_block_models())
    for a, theta in _instances():
        yield lawrence_model(a, theta)
        yield hypertoric_model(a, theta)


def _lawrence_models():
    return [m for m in _models() if m.kind == "lawrence"]


def test_the_doubled_matrix_equals_the_checked_one():
    bases = {m.base for m in _models()}
    assert len(bases) > 30
    for a in bases:
        doubled = lawrence_double(a)
        rows = [list(row) + [-e for e in row] for row in a.matrix.entries]
        checked = WeightMatrix.from_rows(rows)
        assert doubled == checked and type(doubled.matrix) is IntMatrix
        assert (doubled.columns, doubled.d, doubled.n) == (checked.columns, checked.d, checked.n)
        assert all(type(e) is int for row in doubled.matrix.entries for e in row)


def test_the_moment_fiber_equals_the_replaced_model_and_has_no_analysis():
    models = _lawrence_models()
    assert len(models) > 30
    for lm in models:
        lm.analysis  # the ambient's analysis is set, and is not copied
        fiber = model_module._moment_fiber(lm)
        tangent = lm.tangent_class
        replaced = lm.replace(kind=HYPERTORIC,
                              tangent_class=CharacterClass(lm.d, tangent.terms, tangent.trivial - lm.d))
        assert fiber == replaced and type(fiber) is StackModel
        assert fiber.tangent_class.trivial == tangent.trivial - lm.d
        assert not hasattr(fiber, "_analysis")


def _geometries():
    for model in _models():
        yield model, orbifold_table(model, 4)


def test_every_built_ring_and_embedding_equals_the_checked_one():
    rings = embeddings = 0
    for model, geo in _geometries():
        built = list(geo._presentations.values()) + [presentation(model), presentation(model, 3)]
        for ring in built:
            checked = GradedRingPresentation(ring.num_vars, ring.relations, ring.truncation)
            assert ring == checked and (checked.minimal, checked.table) == (None, None)
            # each relation's degree, read off its first term, is that of
            # the checked relation and the bit count of a minimal mask
            degrees = [_degree(r) for r in ring.relations]
            assert degrees == [r.homogeneous_degree() for r in checked.relations]
            assert set(degrees) <= {s.bit_count() for s in ring.minimal}
        rings += len(built)
        n = model.n
        for (common, target), emb in geo._embeddings.items():
            # the coordinates over the normal columns, x_j before y_j
            coords = [c for j in _bits(target & ~common) for c in ((j, j + n) if model.doubled else (j,))]
            checked = SectorEmbedding(emb.sub, emb.ambient, [model.coordinate_char(c) for c in coords])
            assert emb == checked and emb.normal == _mask(coords)
            assert emb.sub is geo._ring(common) and emb.ambient is geo._ring(target)
        embeddings += len(geo._embeddings)
    assert rings > 500 and embeddings > 1000


def test_the_checked_constructors_keep_their_refusals():
    # what the derived builds skip, the public ones still refuse (the
    # refusals of weight matrices, presentations and embeddings are held
    # by test_model, test_chow and test_integral_inputs)
    with pytest.raises(TypeError, match="matrix entries must be plain ints, got True"):
        IntMatrix(((1, True),))
    lm = lawrence_model(WeightMatrix.from_rows([[1, 2]]), [1])
    half = CharacterClass(1, (((1,), Fraction(1, 2)),), Fraction(0))
    for call in (lambda: lm.replace(tangent_class=half),
                 lambda: StackModel(HYPERTORIC, lm.base, lm.weights, lm.theta, lm.arrangement, half)):
        with pytest.raises(ModelError, match=re.escape("tangent class multiplicities must be integers: ")):
            call()


def test_a_derived_build_takes_one_value_per_field():
    # the unchecked constructor still refuses a wrong number of fields, so
    # no compared field is left unset and no value is dropped
    rows = ((1, 2), (-1, -2))
    assert IntMatrix._derived(rows) == IntMatrix(rows)
    lm = lawrence_model(WeightMatrix.from_rows([[1, 2]]), [1])
    fields = [getattr(lm, f) for f in StackModel._fields]
    for values in ((), (rows, rows)):
        with pytest.raises(ValueError, match="zip"):
            IntMatrix._derived(*values)
    for values in (fields[:-1], fields + [None]):
        with pytest.raises(ValueError, match="zip"):
            StackModel._derived(*values)
