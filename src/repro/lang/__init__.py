"""The ``little`` language: syntax, semantics and Prelude (paper §2, App. A)."""

from .ast import (ECase, ECons, ELambda, ELet, ENil, ENum, EOp, EStr, EVar,
                  EApp, EBool, Expr, Loc, PBool, PCons, PNil, PNum, PStr,
                  PVar, Pattern, iter_numbers, substitute)
from .diff import SourceDiff, diff_programs, diff_source
from .errors import (LittleError, LittleRuntimeError, LittleSyntaxError,
                     MatchFailure, SolverFailure, SvgError)
from .eval import Env, evaluate, match
from .parser import parse_expr, parse_top_level
from .program import Program, parse_program
from .unparser import unparse, unparse_pattern
from .values import (VBool, VClosure, VCons, VNil, VNum, VStr, Value,
                     format_number, from_pylist, is_list, to_pylist,
                     value_equal)

__all__ = [
    "ECase", "ECons", "ELambda", "ELet", "ENil", "ENum", "EOp", "EStr",
    "EVar", "EApp", "EBool", "Expr", "Loc", "PBool", "PCons", "PNil", "PNum",
    "PStr", "PVar", "Pattern", "iter_numbers", "substitute",
    "SourceDiff", "diff_programs", "diff_source",
    "LittleError", "LittleRuntimeError", "LittleSyntaxError", "MatchFailure",
    "SolverFailure", "SvgError",
    "Env", "evaluate", "match",
    "parse_expr", "parse_top_level", "Program", "parse_program",
    "unparse", "unparse_pattern",
    "VBool", "VClosure", "VCons", "VNil", "VNum", "VStr", "Value",
    "format_number", "from_pylist", "is_list", "to_pylist", "value_equal",
]
