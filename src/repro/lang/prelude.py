"""Loading and caching of the little Prelude.

The Prelude is parsed once per freeze mode and shared between programs: its
ASTs are read-only, and location objects are globally unique, so sharing is
safe.  ``frozen=True`` (the default) freezes every Prelude literal, per §2.2;
``frozen=False`` is used by experiments that enumerate *all* candidate
updates, including Prelude locations (paper Figure 1D shows ρ3 and ρ4 before
freezing is taken into account).

Each freeze mode numbers its literals from a fixed start below every user
program's (those count up from 1), so a Prelude location has the same
``Loc.ident`` in every process, whatever the process parsed first: session
snapshots name rewritten Prelude literals by ident.

The caches are **single-flight**: a bare ``lru_cache`` lets two threads
race the first miss and parse the Prelude twice, yielding two distinct
``Loc`` identity sets — one ends up inside the cached ``prelude_env``'s
traces, the other inside a racing program's ρ0, and the solver later
fails with "location with no value in rho".  All entry points therefore
compute under one re-entrant lock, so every consumer observes Prelude
locations from the same parse.  (Found by the serve concurrency harness;
see ``tests/test_serve_concurrency.py``.)
"""

from __future__ import annotations

import importlib.resources
from functools import lru_cache
from threading import RLock
from typing import Dict, Tuple

from .ast import Expr, Loc, Pattern, iter_numbers
from .parser import LocAllocator, parse_definition_sequence

Binding = Tuple[Pattern, Expr, bool]

#: One lock for every Prelude cache: computations nest (env → bindings →
#: source), hence re-entrant.  Warm hits pay one uncontended acquire.
_PRELUDE_LOCK = RLock()


@lru_cache(maxsize=None)
def _prelude_source() -> str:
    resource = importlib.resources.files("repro.lang").joinpath(
        "programs/prelude.little")
    return resource.read_text(encoding="utf-8")


def prelude_source() -> str:
    with _PRELUDE_LOCK:
        return _prelude_source()


#: The first ``Loc.ident`` of each freeze mode's Prelude literals.
_PRELUDE_IDENT_START = {True: -2_000_000, False: -1_000_000}


@lru_cache(maxsize=2)
def _prelude_bindings(frozen: bool) -> Tuple[Binding, ...]:
    return tuple(parse_definition_sequence(
        prelude_source(), auto_freeze=frozen, in_prelude=True,
        allocator=LocAllocator(_PRELUDE_IDENT_START[frozen])))


def prelude_bindings(frozen: bool = True) -> Tuple[Binding, ...]:
    """The Prelude as a tuple of (pattern, expr, recursive) bindings."""
    with _PRELUDE_LOCK:
        return _prelude_bindings(frozen)


@lru_cache(maxsize=2)
def _prelude_env(frozen: bool):
    from .errors import MatchFailure
    from .eval import Env, _eval, get_recorder, match, set_recorder

    # The first program to run in the process triggers this evaluation
    # from inside its own budget scope and guard recording.  Neither may
    # see it: the program would be charged for the Prelude, and record
    # its guards and partials, on its first run only.
    previous = get_recorder()
    set_recorder(None)
    try:
        base = Env()
        for pattern, bound, _rec in prelude_bindings(frozen):
            value = _eval(bound, base, None)
            bindings = match(pattern, value)
            if bindings is None:
                raise MatchFailure(
                    "prelude binding did not match its pattern")
            base.bindings.update(bindings)
    finally:
        set_recorder(previous)
    return base


def prelude_env(frozen: bool = True):
    """The Prelude evaluated once per freeze mode into a single flat
    environment (the live-sync fast path of §5.2.3: Prelude values never
    change during a drag, so re-evaluating the ``ELet`` spine on every
    mouse-move is pure waste).

    All bindings land in one shared dict: each definition is evaluated in
    the environment-so-far, exactly as the nested-let spine would, and
    closures capture the flat env so recursive definitions see themselves.
    The returned env is treated as read-only; callers evaluate user code
    in child environments.
    """
    with _PRELUDE_LOCK:
        return _prelude_env(frozen)


@lru_cache(maxsize=2)
def _prelude_rho0(frozen: bool) -> Dict[Loc, float]:
    rho0: Dict[Loc, float] = {}
    for _pattern, bound, _rec in prelude_bindings(frozen):
        for num in iter_numbers(bound):
            rho0[num.loc] = num.value
    return rho0


def prelude_rho0(frozen: bool = True) -> Dict[Loc, float]:
    """ρ0 restricted to Prelude literals, computed once per freeze mode.

    Program construction merges this with the user program's ρ0 instead of
    re-walking the combined Prelude+user AST every time.  Callers must not
    mutate the returned dict.
    """
    with _PRELUDE_LOCK:
        return _prelude_rho0(frozen)
