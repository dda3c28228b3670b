"""Command line front end.

Exit codes: 0 on success, 1 when the work itself fails (a source with
errors, a query with no answer), 2 when an input cannot be used at all
(missing file, bad encoding, malformed dictionary or rule file).

Machine-readable output: `--porcelain` prints one tab-separated record
per line, with backslash, tab and newline escaped as \\\\, \\t and \\n
inside fields.  Diagnostics go to stderr everywhere except `check`,
whose whole point is printing them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dict_compiler import compile_base
from .feature_tree import EMPTY_TREE, FeatureTree, PathThroughLeaf, leaf
from .morph_engine import analyze, generate, parse_wf_rules
from .object_dict import FormatError, ObjectDictionary, VersionError, load, save
from .source import SourceSyntaxError, parse_source

UNKNOWN = "*UNKNOWN*"


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.message = message
        self.code = code


def _escape(field: str) -> str:
    return field.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _record(*fields: str) -> str:
    return "\t".join(_escape(f) for f in fields)


def _canon_field(tree) -> str:
    return tree.canonical_form().rstrip("\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise CliError("%s: invalid UTF-8 at byte %d" % (path, err.start))
    except OSError as err:
        raise CliError("cannot read %s: %s" % (path, err.strerror or err))


def _load_dictionary(args) -> ObjectDictionary:
    try:
        return load(
            args.dictionary,
            lex_feature=args.lex_feature,
            concat_feature=args.concat_feature,
        )
    except (FormatError, VersionError) as err:
        raise CliError("%s: %s" % (args.dictionary, err))
    except UnicodeDecodeError as err:
        raise CliError("%s: invalid UTF-8 at byte %d" % (args.dictionary, err.start))
    except OSError as err:
        raise CliError("cannot read %s: %s" % (args.dictionary, err.strerror or err))


def _load_rules(args):
    text = _read_text(args.rules)
    try:
        return parse_wf_rules(text, args.rules)
    except SourceSyntaxError as err:
        raise CliError(err.to_diagnostic().render())


def _parse_constraints(tokens) -> FeatureTree:
    tree = EMPTY_TREE
    for token in tokens:
        lhs, eq, rhs = token.partition("=")
        path = tuple(p for p in lhs.strip().split(".") if p)
        values = [v for v in (s.strip() for s in rhs.split(",")) if v]
        if not eq or not path or not values:
            raise CliError(
                "bad constraint %r, expected path.to.feature=value[,value...]" % token
            )
        if tree.get(path) is not None:
            raise CliError("bad constraint %r: path given twice" % token)
        try:
            tree = tree.set(path, leaf(*values))
        except (ValueError, PathThroughLeaf) as err:
            raise CliError("bad constraint %r: %s" % (token, err))
    return tree


def _run_pipeline(args):
    if not os.path.exists(args.source):
        raise CliError("cannot read %s: no such file" % args.source)
    parsed = parse_source(args.source)
    compiled = compile_base(
        parsed.base,
        lex_feature=args.lex_feature,
        concat_feature=args.concat_feature,
    )
    return compiled.dictionary, list(parsed.diagnostics) + list(compiled.diagnostics)


def cmd_compile(args) -> int:
    dictionary, diagnostics = _run_pipeline(args)
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    if dictionary is None:
        return 1
    out = args.output or os.path.splitext(args.source)[0] + ".dic"
    try:
        save(dictionary, out)
    except OSError as err:
        raise CliError("cannot write %s: %s" % (out, err.strerror or err))
    stats = dictionary.stats()
    print("wrote %d entries for %d surfaces to %s" % (stats.entries, stats.surfaces, out))
    return 0


def cmd_check(args) -> int:
    dictionary, diagnostics = _run_pipeline(args)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    for diag in diagnostics:
        print(diag.render())
    print("%d errors, %d warnings" % (errors, len(diagnostics) - errors))
    return 1 if dictionary is None or errors else 0


def cmd_lookup(args) -> int:
    dictionary = _load_dictionary(args)
    missed = False
    for surface in args.surfaces:
        entries = dictionary.lookup(surface)
        if not entries:
            missed = True
            if args.porcelain:
                print(_record(surface, UNKNOWN))
            else:
                print("%s: %s" % (surface, UNKNOWN))
            continue
        for entry in entries:
            if args.porcelain:
                print(_record(surface, _canon_field(entry.tree)))
            else:
                print("%s:" % surface)
                for line in entry.tree.canonical_form().splitlines():
                    print("  " + line)
                print()
    return 1 if missed else 0


def cmd_analyze(args) -> int:
    dictionary = _load_dictionary(args)
    rules = _load_rules(args)
    missed = False
    for surface in args.surfaces:
        readings = analyze(surface, dictionary, rules)
        if not readings:
            missed = True
            if args.porcelain:
                print(_record(surface, UNKNOWN))
            else:
                print("%s: %s" % (surface, UNKNOWN))
            continue
        for reading in readings:
            lemma = reading.lemma or "-"
            parts = "+".join(part for part, _ in reading.segmentation)
            if args.porcelain:
                print(
                    _record(
                        surface,
                        reading.category,
                        lemma,
                        parts,
                        _canon_field(reading.tree),
                    )
                )
            else:
                print("%s: %s %s %s" % (surface, reading.category, lemma, parts))
                for line in reading.tree.canonical_form().splitlines():
                    print("  " + line)
                print()
    return 1 if missed else 0


def cmd_generate(args) -> int:
    dictionary = _load_dictionary(args)
    rules = _load_rules(args)
    constraints = _parse_constraints(args.constraints)
    surfaces = generate(args.lemma, constraints, dictionary, rules)
    if not surfaces:
        print(UNKNOWN)
        return 1
    for surface in surfaces:
        print(surface)
    return 0


def cmd_dump(args) -> int:
    dictionary = _load_dictionary(args)
    save(dictionary, sys.stdout)
    return 0


def cmd_stats(args) -> int:
    stats = _load_dictionary(args).stats()
    print("entries: %d" % stats.entries)
    print("surfaces: %d" % stats.surfaces)
    print("lemmas: %d" % stats.lemmas)
    print("homographs: %d" % stats.homographs)
    return 0


def _add_feature_options(parser):
    parser.add_argument(
        "--lex-feature",
        default="lex",
        help="feature naming the lemma an entry belongs to (default: lex)",
    )
    parser.add_argument(
        "--concat-feature",
        default="concat",
        help="feature naming the concatenation category (default: concat)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexiforge",
        description="compile lexical sources and query the result",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compile", help="compile a source base into a dictionary")
    p.add_argument("source")
    p.add_argument("-o", "--output", help="output path (default: source with .dic)")
    _add_feature_options(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="run all checks, print every diagnostic")
    p.add_argument("source")
    _add_feature_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lookup", help="print the entries stored for a surface")
    p.add_argument("dictionary")
    p.add_argument("surfaces", nargs="+", metavar="surface")
    p.add_argument("--porcelain", action="store_true")
    _add_feature_options(p)
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("analyze", help="analyze surfaces against word formation rules")
    p.add_argument("dictionary")
    p.add_argument("rules")
    p.add_argument("surfaces", nargs="+", metavar="surface")
    p.add_argument("--porcelain", action="store_true")
    _add_feature_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="generate surfaces for a lemma")
    p.add_argument("dictionary")
    p.add_argument("rules")
    p.add_argument("lemma")
    p.add_argument(
        "constraints",
        nargs="*",
        metavar="constraint",
        help="feature constraints, e.g. vinfo.tense=impf agr.pers=1,3",
    )
    _add_feature_options(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dump", help="print a dictionary in its storage format")
    p.add_argument("dictionary")
    _add_feature_options(p)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("stats", help="print dictionary summary counts")
    p.add_argument("dictionary")
    _add_feature_options(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(err.message, file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
