"""Lexicon compiler and unification-based morphology.

A human-edited source base (morphemes, words, lexemes, inheritance
classes, string rewriting rules, type declarations and compilation
rules) is compiled into an object dictionary indexed by surface form,
and word formation rules then analyze and generate inflected words
over that dictionary by feature unification.

The word-formation engine (`morph_engine`, with `Analysis`,
`GenerationLimit`, `WFRule`, `analyze`, `generate` and
`parse_wf_rules`) is imported on first use of one of those names, not
with the package: compiling a base and reading a dictionary never need
it, and `lexiforge compile` would otherwise pay for loading it.  Every
other public name is imported here.
"""

import importlib

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

_ENGINE_NAMES = frozenset(
    ("Analysis", "GenerationLimit", "WFRule", "analyze", "generate", "parse_wf_rules")
)

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


def __getattr__(name):
    # called only for names the module lacks: the engine's names, and
    # `morph_engine` itself until the engine has been imported
    if name == "morph_engine" or name in _ENGINE_NAMES:
        engine = importlib.import_module(".morph_engine", __name__)
        return engine if name == "morph_engine" else getattr(engine, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
