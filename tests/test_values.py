"""Value types and records, and what importing the package costs.

Records are ``typing.NamedTuple``s and value types slotted classes over
``value.Value``; neither needs ``dataclasses``.  These tests pin what the
frozen dataclasses they replace gave: type-strict equality, equal hashes
for equal values, no assignment, sorting by canonical vectors, and
validation on every way to make a value.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hypertoric
from hypertoric import (
    CharacterClass,
    GradedClass,
    GradedRingPresentation,
    IntMatrix,
    IntPoly,
    LocalModelSRE,
    ModelError,
    SectorEmbedding,
    TorsionElement,
    WeightMatrix,
    build_chart,
    check_generic,
    direct_model,
    graded_group,
    lawrence_model,
    presentation,
    ring_map_is_iso,
    sigma_set,
    snf,
    verify_charts,
)
from hypertoric.value import Value

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter: pytest itself has imported both; -S keeps
    # site-packages hooks out, so only the package's own imports count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import hypertoric.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _elements(seed, count=60, d=2):
    rng = random.Random(seed)
    return [TorsionElement.from_fractions([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                                           for _ in range(d)])
            for _ in range(count)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_torsion_elements_sort_as_their_canonical_vectors(seed):
    els = _elements(seed)
    assert sorted(els) == sorted(els, key=lambda g: g.v)
    assert [g.v for g in sorted(els)] == sorted(g.v for g in els)
    assert min(els).v == min(g.v for g in els) and max(els).v == max(g.v for g in els)


def _equal_pairs():
    """Two equal values, built separately, of each value type."""
    def two(make):
        return make(), make()

    a = [[1, 2, 0], [0, 1, 3]]
    return [
        two(lambda: TorsionElement.from_fractions([Fraction(2, 3), Fraction(1, 2)])),
        two(lambda: IntPoly.linear_form((2, -1)) ** 2),
        two(lambda: CharacterClass.build(2, [((1, 0), 2), ((0, 1), Fraction(1, 2))], 1)),
        two(lambda: IntMatrix.from_rows(a)),
        two(lambda: WeightMatrix.from_rows(a)),
        two(lambda: lawrence_model(WeightMatrix.from_rows(a), [1, 1])),
        two(lambda: GradedClass(TorsionElement(3, (1,)), IntPoly.variable(1, 0))),
        two(lambda: LocalModelSRE.cyclic(3, [1, 2])),
        two(lambda: build_chart(WeightMatrix.from_rows(a), sigma_set(WeightMatrix.from_rows(a), (1, 2), [1, 1]))),
    ]


@pytest.mark.parametrize("x, y", _equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_hash_equally(x, y):
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def _value_types():
    """Every ``Value`` subclass in the package, every module imported."""
    for module in pkgutil.iter_modules(hypertoric.__path__):
        importlib.import_module("hypertoric." + module.name)
    out, todo = [], [Value]
    while todo:
        subs = todo.pop().__subclasses__()
        out += subs
        todo += subs
    return out


def test_every_value_type_takes_equality_and_the_hash_from_value():
    # one identity rule: no value type defines __eq__ or caches a hash of
    # its own, and only the presentation, whose pieces fill a dict, sets
    # __hash__, to None
    types = _value_types()
    assert TorsionElement in types and len(types) >= 10
    assert TorsionElement.__slots__ == TorsionElement._fields == ("order", "nums")
    generic = "Value.__init_subclass__.<locals>.__%s__"
    for cls in types:
        assert vars(cls)["__eq__"].__qualname__ == generic % "eq", cls
        own_hash = vars(cls)["__hash__"]
        if cls is GradedRingPresentation:
            assert own_hash is None
        else:
            assert own_hash.__qualname__ == generic % "hash", cls


def test_values_never_equal_a_tuple_of_their_fields():
    g = TorsionElement(3, (1, 2))
    p = IntPoly.linear_form((1, 2))
    c = CharacterClass.build(1, [((2,), 1)])
    for value, fields in ((g, (3, (1, 2))), (p, (p.nvars, p.terms)), (c, (c.dim, c.terms, c.trivial))):
        assert value != fields and fields != value
        assert value != list(fields)
        assert len({value, fields}) == 2
    # nor a value of another type over the same fields
    assert GradedClass((), ()) != LocalModelSRE((), ())


def _frozen_instances():
    """One instance of every class that was a frozen dataclass."""
    a = WeightMatrix.from_rows([[1, 2]])
    model = lawrence_model(a, [1])
    pres = presentation(model, 3)
    sigma = sigma_set(a, (1,), [1])
    return [
        IntMatrix.from_rows([[1, 2]]),
        snf(IntMatrix.from_rows([[2, 4]])),
        CharacterClass.build(1, [((1,), 1)]),
        IntPoly.variable(1, 0),
        a,
        sigma,
        check_generic(a, [1]),
        model.arrangement,
        model,
        graded_group(pres, 1),
        GradedClass(None, IntPoly.zero(1)),
        ring_map_is_iso(pres, pres, [IntPoly.variable(1, 0)], 2),
        SectorEmbedding(pres, pres, ()),
        TorsionElement(2, (1,)),
        LocalModelSRE.cyclic(2, [1]),
        build_chart(a, sigma),
        verify_charts(a, [1], samples=1).charts[0],
        verify_charts(a, [1], samples=1),
    ]


@pytest.mark.parametrize("value", _frozen_instances(), ids=lambda v: type(v).__name__)
def test_fields_of_formerly_frozen_classes_cannot_be_assigned(value):
    assert value._fields
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert hasattr(value, name)


@pytest.mark.parametrize("value", [v for v in _frozen_instances() if not isinstance(v, tuple)],
                         ids=lambda v: type(v).__name__)
def test_value_types_copy_and_pickle_through_their_constructor(value):
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(value).__name__ + "(" in repr(value)


def test_replace_goes_back_through_validation():
    g = TorsionElement(3, (1,))
    assert g.replace(nums=(2,)) == TorsionElement(3, (2,))
    with pytest.raises(ValueError, match="not a canonical torsion element"):
        g.replace(order=4, nums=(2,))
    model = lawrence_model(WeightMatrix.from_rows([[1, 2]]), [1])
    with pytest.raises(ModelError, match="rank deficient"):
        model.replace(base=WeightMatrix(IntMatrix.from_rows([[0, 0]])))
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1]]).replace(entries=((1.5,),))


def test_a_presentation_is_immutable_and_keeps_its_repr():
    # truncation could be reassigned after pieces were cached
    pres = GradedRingPresentation(1, (IntPoly.linear_form((3,)),), 4)
    pres.piece(2)
    for name, value in (("truncation", 7), ("relations", ())):
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(pres, name, value)
    assert (pres.truncation, len(pres.relations)) == (4, 1)
    assert repr(pres) == "GradedRingPresentation(num_vars=1, relations=(IntPoly(3*t1),), truncation=4)"


def test_presentations_compare_by_ring_and_are_unhashable():
    # a model's ring keeps its coordinate masks, outside its value
    built = presentation(direct_model(WeightMatrix.from_rows([[3]]), unstable=[[1]]), 4)
    plain = GradedRingPresentation(1, (IntPoly.linear_form((3,)),), 4)
    assert (built.minimal, plain.minimal) == ((0b10,), None)
    assert built == plain and built != GradedRingPresentation(1, plain.relations, 5)
    assert built != (1, plain.relations, 4)
    with pytest.raises(TypeError):
        hash(built)
    with pytest.raises(TypeError):
        hash(SectorEmbedding(built, plain, ()))
