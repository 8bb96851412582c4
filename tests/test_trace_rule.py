"""The trace rule and the sector rings on coordinate masks, against sets.

An orbifold geometry reads a sector's minimal unstable sets as int
coordinate masks: the minimal traces of the model's minimal unstable
masks on the coordinates over the fixed columns (``inertia._traces``).
The reference here is the rule on frozensets, as ``sector_unstable_sets``
ran it before it read the mask rule.  Both are tried on every column
subset, the empty and the rank-deficient ones among them.  Every ring
the geometry builds must be ``GradedRingPresentation.from_characters`` of
its traces' characters, with the same relations in the same order.  A
verify of a model the library built checks none of the columns it built
itself (``WeightMatrix._checked``), while the public entries still refuse
columns outside 1..n.
"""

import itertools
import random
import re

import pytest

import hypertoric.model as model_module
from hypertoric import (
    GradedRingPresentation,
    ModelError,
    SectorGeometry,
    WeightMatrix,
    direct_model,
    lawrence_model,
    orbifold_table,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from hypertoric.inertia import _bits, _columns, _mask, _traces, sector_unstable_sets
from hypertoric.sampling import random_generic_instance
from test_pair_blocks import _models as pair_block_models

TRUNCATION = 4


def reference_traces(model, fixed):
    """The minimal traces of the model's minimal unstable sets on the
    coordinates over ``fixed``, as sets, ordered by (size, sorted
    elements); an empty trace raises."""
    alive = model.coords_of_columns(fixed)
    traces = {s & alive for s in model.arrangement.unstable_minimal}
    if frozenset() in traces:
        raise ValueError("fixed locus lies in the unstable locus")
    return sorted((s for s in traces if not any(t < s for t in traces)), key=lambda s: (len(s), sorted(s)))


def _models():
    yield from pair_block_models()
    yield "mu3", direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])
    non_primitive = WeightMatrix.from_rows([[2, 4, 6]])
    yield "non-primitive", direct_model(non_primitive, theta=[1])
    yield "non-primitive-lawrence", lawrence_model(non_primitive, [1])
    yield "repeated-lawrence", lawrence_model(WeightMatrix.from_rows([[1, 1, 2]]), [1])


def _outcome(rule):
    try:
        return rule()
    except ValueError as exc:
        return ("refused", str(exc))


def test_the_mask_rule_is_the_set_rule_on_every_column_subset():
    refused = compared = 0
    for name, model in _models():
        unstable = [_mask(s) for s in model.arrangement.unstable_minimal]
        for k in range(model.n + 1):
            for fixed in map(frozenset, itertools.combinations(range(1, model.n + 1), k)):
                want = _outcome(lambda: reference_traces(model, fixed))
                alive = _mask(model.coords_of_columns(fixed))
                masks = _outcome(lambda: [_columns(s) for s in _traces(unstable, alive)])
                assert masks == want == _outcome(lambda: sector_unstable_sets(model, fixed)), (name, fixed)
                refused += want[0] == "refused"
                compared += want[0] != "refused"
    assert refused > 400 and compared > 800


def test_every_ring_of_a_geometry_is_the_ring_of_its_traces_characters():
    rings = 0
    for name, model in _models():
        geo = orbifold_table(model, TRUNCATION)
        for k in range(model.n + 1):
            for fixed in map(frozenset, itertools.combinations(range(1, model.n + 1), k)):
                got = _outcome(lambda: geo.presentation_for(fixed))
                if isinstance(got, tuple):
                    assert got == _outcome(lambda: reference_traces(model, fixed)), (name, fixed)
        for fixed_mask, pres in geo._presentations.items():
            traces = reference_traces(model, _columns(fixed_mask))
            want = GradedRingPresentation.from_characters(
                model.d, [[model.coordinate_char(i) for i in sorted(s)] for s in traces], geo.truncation)
            assert pres == want and pres.relations == want.relations, (name, fixed_mask)
            assert set(pres.traces) <= set(map(_mask, traces))
            for rel, mask in zip(pres.relations, pres.traces):
                assert rel == GradedRingPresentation.from_characters(
                    model.d, [[model.coordinate_char(i) for i in _bits(mask)]], geo.truncation).relations[0]
            rings += 1
    assert rings > 800


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_passing_verify_checks_none_of_the_columns_it_built(seed, monkeypatch):
    # a desk-shape input (d = 2, n = 5, entries in [-3, 3]): the model
    # build, the sector walk and the geometry read the library's own
    # column tuples unchecked; the memo is emptied so that the model and
    # its analysis are built under the spy
    a, theta = random_generic_instance(random.Random(seed), 2, 5)
    model_module._lawrence_pair.cache_clear()
    calls = []
    checked = WeightMatrix._checked
    monkeypatch.setattr(WeightMatrix, "_checked", lambda self, cols: calls.append(cols) or checked(self, cols))
    assert verify_obstruction_pullback(a, theta).ok and verify_orbifold_iso(a, theta, 5).ok
    assert calls == []

    # the public entries still check, with the texts they had
    model = lawrence_model(a, theta)
    geo = SectorGeometry(model, TRUNCATION)
    entries = (geo.presentation_for, lambda cols: sector_unstable_sets(model, cols), model.coords_of_columns,
               model.base.lattice, model.base.columns_matrix)
    for entry in entries:
        for bad in (0, 7):
            with pytest.raises(ModelError, match=re.escape("columns {%d} are not all in 1..5" % bad)):
                entry({bad})
    assert calls
