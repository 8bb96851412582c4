"""Sector rings straight from the fixed set, against the sector model.

An orbifold geometry reads a sector's ring off the characters of the
minimal traces of its model's unstable sets, with no sector model built.
The oracle builds the sector model and its presentation the long way, for
every column subset of full rank, and asks for the same relations, the
same certificates (the minimal trace masks, as a multiset, each read as
the characters of its coordinates), and the same refusal of a fixed locus that lies in the
unstable locus.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from hypertoric import (
    ModelError,
    SectorGeometry,
    WeightMatrix,
    direct_model,
    hypertoric_model,
    lawrence_model,
    model_from_dict,
    presentation,
    sector_model,
)
from hypertoric.exact import hnf
from hypertoric.inertia import _bits
from hypertoric.sampling import random_generic_instance

MODELS_DIR = Path(__file__).resolve().parent.parent / "demos" / "models"
TRUNCATION = 4


def _demo_models():
    """The demo files that are models, each also as its Lawrence model when
    it has a character; of the six files, ``nongeneric`` (theta on a wall)
    and ``quadric_cone_sre`` (local SRE data) are refused as models."""
    refused = []
    for path in sorted(MODELS_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        try:
            model = model_from_dict(data)
        except ModelError:
            refused.append(path.stem)
            continue
        yield path.stem, model
        if model.kind == "hypertoric":
            yield path.stem + "-lawrence", lawrence_model(model.base, model.theta)
    assert refused == ["nongeneric", "quadric_cone_sre"]


def _seeded_models():
    rng = random.Random(61)
    for i in range(12):
        d = 1 + i % 3
        a, theta = random_generic_instance(rng, d, rng.randint(d + 1, 5))
        yield "lawrence-%d" % i, lawrence_model(a, theta)
        yield "hypertoric-%d" % i, hypertoric_model(a, theta)
        # a theta-built direct model (a product of weighted projective
        # spaces: positive blocks, positive character) and an explicit
        # antichain of column sets on the same matrix
        cuts = sorted(rng.sample(range(1, a.n), d - 1))
        blocks = list(zip([0] + cuts, cuts + [a.n]))
        rows = [[rng.randint(1, 4) if lo <= j < hi else 0 for j in range(a.n)] for lo, hi in blocks]
        yield "direct-theta-%d" % i, direct_model(WeightMatrix.from_rows(rows), theta=[1] * d)
        sets = {frozenset(rng.sample(range(1, a.n + 1), rng.randint(1, 2))) for _ in range(2)}
        sets = [sorted(s) for s in sets if not any(t < s for t in sets)]
        yield "direct-sets-%d" % i, direct_model(a, unstable=sets)


def _full_rank_subsets(model):
    a = model.base
    for k in range(a.d, a.n + 1):
        for cols in itertools.combinations(range(1, a.n + 1), k):
            if len(hnf((a.column(j) for j in cols), a.d)) == a.d:
                yield frozenset(cols)


def _outcome(build):
    """The relations and certificates of the ring ``build`` returns with
    its model, or its refusal."""
    try:
        pres, model = build()
    except ValueError as exc:
        return ("refused", str(exc))
    # the sector model renumbers the coordinates, so the minimal masks are
    # compared as a multiset, each through the characters of its coordinates
    chars = model.coordinate_char
    return (pres.relations, tuple(sorted(tuple(sorted(chars(i) for i in _bits(mask))) for mask in pres.minimal)))


def _sector_model_ring(model, fixed):
    sector = sector_model(model, fixed)
    return presentation(sector, TRUNCATION), sector


@pytest.mark.parametrize("source", ["demo", "seeded"])
def test_direct_sector_rings_equal_the_sector_model_presentations(source):
    models = list(_demo_models() if source == "demo" else _seeded_models())
    if source == "demo":
        assert [name for name, _ in models] == [
            "bmu3", "p2", "tp1", "tp1-lawrence", "tp12", "tp12-lawrence"]
    kinds, refused, compared = set(), 0, 0
    for name, model in models:
        geo = SectorGeometry(model, TRUNCATION)
        kinds.add(model.kind)
        for fixed in _full_rank_subsets(model):
            got = _outcome(lambda: (geo.presentation_for(fixed), model))
            want = _outcome(lambda: _sector_model_ring(model, fixed))
            assert got == want, (name, sorted(fixed))
            if got[0] == "refused":
                assert got[1] == "fixed locus lies in the unstable locus"
                refused += 1
            else:
                assert len(got[1]) >= len(got[0])
                compared += 1
    assert kinds == {"lawrence", "hypertoric", "direct"}
    least_refused, least_compared = {"demo": (3, 20), "seeded": (30, 400)}[source]
    assert refused >= least_refused and compared >= least_compared
