"""Tests for the Program container: Prelude sharing, substitution fast
paths, slider collection, unparse behaviour."""

from repro.lang import parse_program
from repro.lang.prelude import prelude_bindings, prelude_source


class TestPreludeLoading:
    def test_source_available(self):
        assert "(def nStar" in prelude_source()

    def test_bindings_cached_and_shared(self):
        assert prelude_bindings(True) is prelude_bindings(True)

    def test_frozen_and_unfrozen_are_distinct(self):
        frozen = prelude_bindings(True)
        unfrozen = prelude_bindings(False)
        assert frozen is not unfrozen
        # Same definitions, different location freezing.
        assert len(frozen) == len(unfrozen)

    def test_programs_share_prelude_locations(self):
        p1 = parse_program("(+ 1 2)")
        p2 = parse_program("(* 3 4)")
        prelude_locs_1 = {loc for loc in p1.rho0 if loc.in_prelude}
        prelude_locs_2 = {loc for loc in p2.rho0 if loc.in_prelude}
        assert prelude_locs_1 == prelude_locs_2

    def test_user_locations_never_collide(self):
        p1 = parse_program("(+ 1 2)")
        p2 = parse_program("(+ 1 2)")
        user1 = {loc for loc in p1.rho0 if not loc.in_prelude}
        user2 = {loc for loc in p2.rho0 if not loc.in_prelude}
        assert not (user1 & user2)


class TestProgramQueries:
    def test_user_locs_excludes_prelude(self, sine_program):
        for loc in sine_program.user_locs():
            assert not loc.in_prelude

    def test_range_annotations(self, sine_program):
        annotations = sine_program.range_annotations()
        assert len(annotations) == 1
        loc, lo, hi, current = annotations[0]
        assert (lo, hi, current) == (3.0, 30.0, 12.0)
        assert loc.display() == "n"


class TestSubstitutionPaths:
    def test_user_only_substitution_shares_prelude(self, sine_program):
        loc = next(loc for loc in sine_program.rho0
                   if loc.display() == "x0")
        updated = sine_program.substitute({loc: 95.0})
        # The Prelude spine is rebuilt from the shared cache, but the
        # bound expressions are the same objects.
        assert updated.ast.bound is sine_program.ast.bound

    def test_prelude_substitution_path(self):
        program = parse_program("(+ 1 2)", prelude_frozen=False)
        loc = next(loc for loc in program.rho0 if loc.in_prelude)
        updated = program.substitute({loc: 42.0})
        assert updated.rho0[loc] == 42.0

    def test_chained_substitutions(self, sine_program):
        x0 = next(loc for loc in sine_program.rho0
                  if loc.display() == "x0")
        sep = next(loc for loc in sine_program.rho0
                   if loc.display() == "sep")
        program = sine_program.substitute({x0: 60.0})
        program = program.substitute({sep: 40.0})
        assert program.rho0[x0] == 60.0
        assert program.rho0[sep] == 40.0

    def test_substitution_is_value_only(self, sine_program):
        """Substitutions never change program *structure* — the defining
        property of small updates (§2.2)."""
        x0 = next(loc for loc in sine_program.rho0
                  if loc.display() == "x0")
        updated = sine_program.substitute({x0: 95.0})
        original_lines = sine_program.unparse().splitlines()
        updated_lines = updated.unparse().splitlines()
        assert len(original_lines) == len(updated_lines)
        diffs = [
            (a, b) for a, b in zip(original_lines, updated_lines) if a != b]
        assert len(diffs) == 1
