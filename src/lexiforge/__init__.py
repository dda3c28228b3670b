"""Lexicon compiler and unification-based morphology.

A human-edited source base (morphemes, words, lexemes, inheritance
classes, string rewriting rules, type declarations and compilation
rules) is compiled into an object dictionary indexed by surface form,
and word formation rules then analyze and generate inflected words
over that dictionary by feature unification.
"""

from .alo_rules import CompiledAloRule, compile_alo_rule
from .diagnostics import Diagnostic, ERROR, WARNING, has_errors
from .dict_compiler import CompileResult, apply_dict_rule, compile_base
from .feature_tree import (
    EMPTY_TREE,
    FeatureTree,
    PathThroughLeaf,
    Quoted,
    ValueSet,
    leaf,
    render_value,
    unify,
)
from .inheritance import ResolveError, ResolvedEntry, linearize, resolve, resolve_all
from .morph_engine import Analysis, GenerationLimit, WFRule, analyze, generate, parse_wf_rules
from .object_dict import FormatError, ObjectDictionary, ObjectEntry, load, save
from .source import (
    Entry,
    ParseResult,
    SourceBase,
    SourceSyntaxError,
    parse_source,
    parse_source_text,
)
from .type_checker import check_base, check_tree

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CompileResult",
    "CompiledAloRule",
    "Diagnostic",
    "EMPTY_TREE",
    "ERROR",
    "Entry",
    "FeatureTree",
    "FormatError",
    "GenerationLimit",
    "ObjectDictionary",
    "ObjectEntry",
    "ParseResult",
    "PathThroughLeaf",
    "Quoted",
    "ResolveError",
    "ResolvedEntry",
    "SourceBase",
    "SourceSyntaxError",
    "ValueSet",
    "WARNING",
    "WFRule",
    "analyze",
    "apply_dict_rule",
    "check_base",
    "check_tree",
    "compile_alo_rule",
    "compile_base",
    "generate",
    "has_errors",
    "leaf",
    "linearize",
    "load",
    "parse_source",
    "parse_source_text",
    "parse_wf_rules",
    "render_value",
    "resolve",
    "resolve_all",
    "save",
    "unify",
]
