"""Integer inputs with a fractional part are refused, not truncated.

Each entry point below used to pass its input through ``int``, which
truncates: 1.5 became 1 and 7/2 became 3, and the result answered a
question nobody asked.  Now each raises ``ValueError`` naming the value (a
``ModelError`` for model inputs), and an integral value of any type
(``2``, ``Fraction(4, 2)``, ``2.0``) keeps working.  The integer
parameters of the API (bounds, truncations, sample counts, orders,
exponents and scalars) are read the same way, before their range check;
a string, a bool, ``None`` or another non-number is refused there too.
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from hypertoric import (
    CharacterClass,
    GradedRingPresentation,
    IntMatrix,
    IntPoly,
    LocalModelSRE,
    ModelError,
    SectorEmbedding,
    SectorGeometry,
    TorsionElement,
    WeightMatrix,
    check_generic,
    direct_model,
    graded_group,
    lawrence_model,
    orbifold_table,
    presentation,
    reduce_class,
    ring_map_is_iso,
    verify_charts,
    verify_orbifold_iso,
)
from hypertoric.exact import as_int

INTEGRAL = [2, Fraction(4, 2), 2.0]


@pytest.mark.parametrize("value", [1.5, Fraction(7, 2), -0.25])
def test_as_int_refuses_a_fractional_part(value):
    with pytest.raises(ValueError, match="expected an integer, got %s" % value):
        as_int(value)


@pytest.mark.parametrize("value", ["5", "10/2", True, [1], float("inf"), float("-inf"), float("nan")])
def test_as_int_refuses_what_is_not_a_number(value):
    # Fraction used to parse a string and read a bool as 0 or 1, a list
    # died in its bare TypeError, an infinity in a bare OverflowError and
    # nan in a ValueError that did not name it; the message shows the
    # repr, so '5' does not read as 5
    with pytest.raises(ValueError, match="^expected an integer, got %s$" % re.escape(repr(value))):
        as_int(value)


@pytest.mark.parametrize("value", INTEGRAL)
def test_as_int_takes_integral_values_of_any_type(value):
    assert as_int(value) == 2 and type(as_int(value)) is int


def test_weight_matrix_refuses_a_fractional_entry():
    with pytest.raises(ModelError, match="weight matrix must be integral, got entry 1.5"):
        WeightMatrix.from_rows([[1.5, 2]])
    with pytest.raises(ValueError, match="got 1.5"):
        IntMatrix.from_rows([[1.5, 2]])
    for x in INTEGRAL:
        assert WeightMatrix.from_rows([[x, 1]]).matrix.entries == ((2, 1),)
        assert IntMatrix.from_rows([[x]]).entries == ((2,),)


def test_poly_from_dict_refuses_a_fractional_coefficient():
    with pytest.raises(ValueError, match="got 7/2"):
        IntPoly.from_dict(1, {(1,): Fraction(7, 2)})
    for exps in ((1, 0), (-1,)):
        with pytest.raises(ValueError, match=r"^bad exponent tuple %s for 1 variables$" % re.escape(repr(exps))):
            IntPoly.from_dict(1, {exps: 1})
    for x in INTEGRAL:
        assert str(IntPoly.from_dict(1, {(1,): x})) == "2*t1"


def test_linear_form_refuses_a_fractional_weight():
    with pytest.raises(ValueError, match="got 1.5"):
        IntPoly.linear_form((1.5, 2))
    for x in INTEGRAL:
        assert str(IntPoly.linear_form((x, 1))) == "2*t1 + t2"


def test_character_class_refuses_a_fractional_character():
    with pytest.raises(ValueError, match="got 1.7"):
        CharacterClass.build(1, [((1.7,), 1)])
    for x in INTEGRAL:
        assert CharacterClass.build(1, [((x,), 1)]) == CharacterClass.build(1, [((2,), 1)])
    with pytest.raises(ValueError, match=r"^character \(1, 2\) has wrong length for dim 1$"):
        CharacterClass.build(1, [((1, 2), 1)])
    with pytest.raises(ValueError, match="^mixing character classes of different dims$"):
        CharacterClass.build(1) + CharacterClass.build(2)
    # multiplicities, the trivial part and a scalar follow as_int's input
    # rule: True read as 1, '1/2' was parsed and '2' read as 2
    for call, value in ((lambda: CharacterClass.build(1, [((1,), True)]), True),
                        (lambda: CharacterClass.build(1, [((1,), "1/2")]), "1/2"),
                        (lambda: CharacterClass.build(1, [], trivial="2"), "2"),
                        (lambda: CharacterClass.build(1, [((1,), 1)]).scale(None), None)):
        with pytest.raises(ValueError, match="^expected a finite number, got %s$" % re.escape(repr(value))):
            call()


def test_direct_model_refuses_a_fractional_unstable_column():
    a = WeightMatrix.from_rows([[1, 2]])
    with pytest.raises(ModelError, match="unstable set must be integral, got entry 1.5"):
        direct_model(a, unstable=[[1.5]])
    for x in INTEGRAL:
        assert direct_model(a, unstable=[[x]]).arrangement.unstable_minimal == (frozenset({2}),)


def test_cyclic_local_model_refuses_a_fractional_weight():
    with pytest.raises(ValueError, match="got 1.5"):
        LocalModelSRE.cyclic(3, [1.5])
    for x in INTEGRAL:
        assert LocalModelSRE.cyclic(3, [x]).normal_weights == ((2,),)


def test_products_of_linear_forms_refuse_a_fractional_character():
    with pytest.raises(ValueError, match="got 1.5"):
        GradedRingPresentation.from_characters(1, [[(1.5,)]], 2)
    ring = GradedRingPresentation.from_characters(1, [[(3,)]], 2)
    with pytest.raises(ValueError, match="got 1.5"):
        SectorEmbedding(ring, ring, ((1.5,),))
    for x in INTEGRAL:
        assert GradedRingPresentation.from_characters(1, [[(x,)]], 2).relations == (IntPoly.linear_form((2,)),)
        assert str(SectorEmbedding(ring, ring, ((x,),)).euler) == "2*t1"


def _lawrence():
    return WeightMatrix.from_rows([[1, 2]]), [1]


_T = IntPoly.variable(1, 0)
_Z3T = GradedRingPresentation(1, (_T.scale(3),), 4)

# each integer parameter of the API, as a function of its value
INTEGER_PARAMETERS = {
    "verify_orbifold_iso bound": lambda x: verify_orbifold_iso(*_lawrence(), x),
    "orbifold_table bound": lambda x: orbifold_table(lawrence_model(*_lawrence()), x).truncation,
    "SectorGeometry truncation": lambda x: SectorGeometry(lawrence_model(*_lawrence()), x).truncation,
    "GradedRingPresentation truncation": lambda x: GradedRingPresentation(1, (_T.scale(3),), x).truncation,
    "GradedRingPresentation num_vars": lambda x: GradedRingPresentation(x, (IntPoly.linear_form((1, 2)),), 3).num_vars,
    "GradedRingPresentation.piece degree": lambda x: _Z3T.piece(x).degree,
    "reduce_class degree": lambda x: reduce_class(_Z3T, IntPoly.zero(1), x),
    "verify_charts samples": lambda x: verify_charts(*_lawrence(), samples=x),
    "ring_map_is_iso bound": lambda x: ring_map_is_iso(_Z3T, _Z3T, [_T], x),
    "LocalModelSRE.cyclic order": lambda x: LocalModelSRE.cyclic(x, [1]),
    "IntPoly power": lambda x: (_T.scale(3) + _T) ** x,
    "IntPoly.scale": lambda x: _T.scale(x),
}


@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_refuse_a_fractional_part_and_take_integral_values(name):
    entry = INTEGER_PARAMETERS[name]
    for value in (1.5, Fraction(5, 2), 0.5):
        with pytest.raises(ValueError, match="expected an integer, got %s" % value):
            entry(value)
    expected = entry(2)
    for x in INTEGRAL:
        assert entry(x) == expected
    if isinstance(expected, int):
        assert all(type(entry(x)) is int for x in INTEGRAL)
    if isinstance(expected, IntPoly):
        assert all(type(c) is int for x in INTEGRAL for _, c in entry(x).terms)
    if name == "verify_charts samples":
        assert all(c.samples == 2 for c in expected.charts)


def test_integer_parameters_refuse_none():
    # None used to die in a bare TypeError from Fraction that named neither
    # the value nor the parameter; orbifold_table's bound keeps None as its
    # documented default
    for name in ("verify_orbifold_iso bound", "verify_charts samples", "SectorGeometry truncation"):
        with pytest.raises(ValueError, match="^expected an integer, got None$"):
            INTEGER_PARAMETERS[name](None)
    assert orbifold_table(lawrence_model(*_lawrence()), None).truncation >= 1


@pytest.mark.parametrize("value", [True, "1", None])
def test_a_piece_degree_that_is_not_a_number_is_refused_with_its_name(value):
    # piece(True) built and cached piece 1 with degree True, so a later
    # piece(1) had degree True too; '1' and None died in a bare TypeError;
    # reduce_class reads None as its default, no degree given
    pres = presentation(lawrence_model(*_lawrence()), 4)
    expected = "^expected an integer, got %s$" % re.escape(repr(value))
    calls = [pres.piece, lambda k: graded_group(pres, k), lambda k: reduce_class(pres, IntPoly.zero(1), k)]
    for call in calls[:2] if value is None else calls:
        with pytest.raises(ValueError, match=expected):
            call(value)
    assert type(pres.piece(1).degree) is int and type(pres.piece(2.0).degree) is int


@pytest.mark.parametrize("value", [True, "2", None])
def test_a_number_of_variables_that_is_not_a_number_is_refused_with_its_name(value):
    # GradedRingPresentation(True, ...) used to construct with num_vars True
    with pytest.raises(ValueError, match="^expected an integer, got %s$" % re.escape(repr(value))):
        GradedRingPresentation(value, (), 3)


def test_a_string_bound_is_refused_not_parsed():
    # "5" used to run the iso check at bound 5
    with pytest.raises(ValueError, match="^expected an integer, got '5'$"):
        verify_orbifold_iso(*_lawrence(), "5")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_float_is_refused_with_its_name(value):
    # each call used to die in a bare OverflowError (or, for nan, a
    # ValueError not naming it) from Fraction
    expected = "^expected an integer, got %s$" % re.escape(repr(value))
    with pytest.raises(ValueError, match=expected):
        verify_orbifold_iso(*_lawrence(), value)
    with pytest.raises(ValueError, match=expected):
        verify_charts(*_lawrence(), samples=value)
    with pytest.raises(ValueError, match="^expected a finite number, got %s$" % re.escape(repr(value))):
        verify_charts(_lawrence()[0], [value])


@pytest.mark.parametrize("value", ["5/7", True, None, Decimal("Infinity")])
def test_a_character_entry_that_is_not_a_number_is_refused_with_its_name(value):
    # rational vectors follow as_int's input rule: check_generic parsed '5/7'
    # and read True as 1 (verify_charts ran at theta (1) and reported ok),
    # None died in a bare TypeError and a Decimal infinity in a bare
    # OverflowError
    expected = "^expected a finite number, got %s$" % re.escape(repr(value))
    for call in (check_generic, verify_charts):
        with pytest.raises(ValueError, match=expected):
            call(_lawrence()[0], [value])


@pytest.mark.parametrize("value", [True, float("inf"), None, "1/2"])
def test_a_torsion_entry_that_is_not_a_number_is_refused_with_its_name(value):
    # from_fractions passed each entry to Fraction: True gave the identity
    # (0), '1/2' was parsed, an infinity died in a bare OverflowError and
    # None in a bare TypeError
    with pytest.raises(ValueError, match="^expected a finite number, got %s$" % re.escape(repr(value))):
        TorsionElement.from_fractions([value])
