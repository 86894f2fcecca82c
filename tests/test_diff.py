"""The structural differ (repro.lang.diff): classification and Loc
re-keying across reparses.

The load-bearing property: for every corpus example, re-parsing the
unparse of a parse is an *identity* edit — the differ proves it and the
edit costs nothing.  Targeted cases pin down the classification table
(value-only, rename-only, shape insertion, annotation changes, full
rewrites) and the Loc-stability guarantees each class makes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.changeset import FULL_CHANGE
from repro.examples import example_names, example_source
from repro.lang.diff import diff_source
from repro.lang.program import parse_program

SOURCE = "(def x 10) (svg [(rect 'red' x 20 30 40)])"


# ---------------------------------------------------------------------------
# Identity edits are free (corpus-wide property)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", example_names())
def test_unparse_reparse_is_empty_changeset(name):
    program = parse_program(example_source(name))
    diff = diff_source(program, program.unparse())
    assert diff.kind == "identity"
    assert not diff.change
    assert not diff.change.structural
    # The surviving program *is* the old one, substitution-for-free:
    assert diff.program.user_locs() == program.user_locs()
    assert diff.program.user_values() == program.user_values()
    assert diff.rekeyed == len(program.user_locs())
    assert diff.fresh == 0


def test_identity_edit_adopts_new_text():
    program = parse_program(SOURCE)
    spaced = SOURCE.replace(" 20", "    20")
    diff = diff_source(program, spaced)
    assert diff.kind == "identity"
    assert diff.program.source == spaced


# ---------------------------------------------------------------------------
# Value-only edits
# ---------------------------------------------------------------------------

def test_literal_only_edit_is_value_change():
    program = parse_program(SOURCE)
    diff = diff_source(program, SOURCE.replace("10", "99"))
    assert diff.kind == "value"
    assert not diff.change.structural
    assert {loc.display() for loc in diff.change.locs} == {"x"}
    assert diff.program.user_locs() == program.user_locs()
    assert diff.program.user_values() == [99.0, 20.0, 30.0, 40.0]
    assert diff.program.source == SOURCE            # the base text stays


def test_multi_literal_edit_lists_every_changed_loc():
    program = parse_program(SOURCE)
    diff = diff_source(program,
                       "(def x 11) (svg [(rect 'red' x 21 30 41)])")
    assert diff.kind == "value"
    assert len(diff.change.locs) == 3


@settings(max_examples=25, deadline=None)
@given(values=st.lists(
    st.integers(min_value=-2000, max_value=2000).map(lambda n: n / 4),
    min_size=4, max_size=4))
def test_random_value_perturbations_roundtrip(values):
    program = parse_program(SOURCE)
    rho = dict(zip(program.user_locs(), values))
    edited_text = program.substitute(rho).unparse()
    diff = diff_source(program, edited_text)
    expected = {loc for loc, value in rho.items()
                if value != program.rho0[loc]}
    assert diff.kind == ("value" if expected else "identity")
    assert diff.change.locs == frozenset(expected)
    assert not diff.change.structural
    assert diff.program.unparse() == edited_text


# ---------------------------------------------------------------------------
# Structural edits: re-keying
# ---------------------------------------------------------------------------

def test_rename_only_edit_keeps_locs_and_adopts_name():
    program = parse_program(SOURCE)
    renamed = SOURCE.replace("x", "wide")
    diff = diff_source(program, renamed)
    assert diff.kind == "structural"
    assert diff.change.structural
    # Every literal survived the reparse with its old Loc (identity is
    # by ident) ...
    assert diff.program.user_locs() == program.user_locs()
    assert diff.rekeyed == 4 and diff.fresh == 0
    # ... the renamed binding's location displays the new name in the
    # edited program, while the old program (the undo history) keeps its
    # own Loc objects untouched.
    assert diff.program.user_locs()[0].display() == "wide"
    assert program.user_locs()[0].display() == "x"


def test_shape_insertion_keeps_surviving_locs():
    program = parse_program(SOURCE)
    inserted = ("(def x 10) (svg [(rect 'red' x 20 30 40) "
                "(circle 'blue' 100 100 5)])")
    diff = diff_source(program, inserted)
    assert diff.kind == "structural"
    assert diff.rekeyed == 4 and diff.fresh == 3
    assert diff.program.user_locs()[:4] == program.user_locs()
    # The inserted circle's literals are new locations.
    new_locs = diff.program.user_locs()[4:]
    assert all(loc not in program.user_locs() for loc in new_locs)


def test_def_insertion_anchors_spine_alignment():
    """Prepending a definition must not shift every later pairing: the
    surviving bindings anchor on their binder patterns."""
    program = parse_program(SOURCE)
    diff = diff_source(program, "(def pad 7) " + SOURCE)
    assert diff.kind == "structural"
    assert diff.rekeyed == 4 and diff.fresh == 1
    # No surviving literal changed value — the report must say so.
    assert not diff.change.locs
    # x (and the rect literals) kept their Locs; only pad's 7 is new.
    assert diff.program.user_locs()[1:] == program.user_locs()
    assert diff.program.user_locs()[1].display() == "x"
    assert diff.program.user_locs()[0] not in program.user_locs()


def test_def_deletion_anchors_spine_alignment():
    program = parse_program("(def pad 7) " + SOURCE)
    diff = diff_source(program, SOURCE)
    assert diff.kind == "structural"
    assert diff.rekeyed == 4 and diff.fresh == 0
    assert diff.program.user_locs() == program.user_locs()[1:]


def test_annotation_change_is_structural_with_fresh_loc():
    program = parse_program(SOURCE)
    diff = diff_source(program, SOURCE.replace("10", "10!"))
    assert diff.kind == "structural"
    # The re-annotated literal must NOT keep its old (unfrozen) Loc.
    assert diff.program.user_locs()[0] != program.user_locs()[0]
    assert diff.program.user_locs()[0].frozen
    assert diff.program.user_locs()[1:] == program.user_locs()[1:]


def test_range_annotation_change_is_structural():
    program = parse_program(SOURCE)
    diff = diff_source(program, SOURCE.replace("10", "10{0-50}"))
    assert diff.kind == "structural"
    # Slider ranges live on the ENum, not the Loc, so the Loc survives.
    assert diff.program.user_locs() == program.user_locs()


def test_unrelated_program_is_full():
    program = parse_program(SOURCE)
    diff = diff_source(program, "'hello'")
    assert diff.kind == "full"
    assert diff.change is FULL_CHANGE
    assert diff.rekeyed == 0


def test_def_to_let_sugar_change_is_not_value_only():
    program = parse_program(SOURCE)
    diff = diff_source(
        program, "(let x 10 (svg [(rect 'red' x 20 30 40)]))")
    assert diff.kind == "structural"
    assert diff.program.user_locs() == program.user_locs()


def test_structural_edit_keeps_prelude_overlays():
    program = parse_program(SOURCE, prelude_frozen=False)
    prelude_loc = next(loc for loc in program.rho0 if loc.in_prelude)
    modified = program.substitute(
        {prelude_loc: program.rho0[prelude_loc] + 7.0})
    assert modified.prelude_modified
    diff = diff_source(modified,
                       "(def x 10) (svg [(circle 'red' x 50 20)])")
    assert diff.change.structural
    assert diff.program.rho0[prelude_loc] == \
        program.rho0[prelude_loc] + 7.0
    assert diff.program.last_change.structural


def test_parse_error_propagates():
    from repro.lang.errors import LittleSyntaxError

    program = parse_program(SOURCE)
    with pytest.raises(LittleSyntaxError):
        diff_source(program, "(svg [(rect")
