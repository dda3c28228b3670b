"""Command line front end.

Exit codes: 0 on success, 1 when the work itself fails (a source with
any error, parse errors included, a query with no answer, a `generate`
rule over its bound on candidate combinations, or a closed stdout that
cuts the output short), 2 when an input cannot be used at all (a
missing, unreadable or non-UTF-8 source root, dictionary or rule file,
a malformed dictionary or rule file, or a `compile` output that names
a file of the source).

Machine-readable output: `--porcelain` prints one tab-separated record
per line, with backslash, tab and newline escaped as \\\\, \\t and \\n
inside fields.  Diagnostics go to stderr everywhere except `check`,
whose whole point is printing them.

Only `analyze` and `generate` import the word-formation engine, when
they run: the other commands never load it.
"""

from __future__ import annotations

import argparse
import os
import posixpath
import sys

from .dict_compiler import compile_base
from .feature_tree import EMPTY_TREE, FeatureTree, PathThroughLeaf, leaf
from .object_dict import FormatError, ObjectDictionary, indented, load, save
from .source import SourceSyntaxError, parse_source, read_file

UNKNOWN = "*UNKNOWN*"


class CliError(Exception):
    """An input that cannot be used at all: exit 2."""


def _escape(field: str) -> str:
    return field.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _record(*fields: str) -> str:
    return "\t".join(_escape(f) for f in fields)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise CliError("%s: invalid UTF-8 at byte %d" % (path, err.start))
    except OSError as err:
        raise CliError("cannot read %s: %s" % (path, err.strerror or err))


def _load_dictionary(path: str) -> ObjectDictionary:
    """`load` reading the open file, which it reads in blocks."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return load(handle)
    except UnicodeDecodeError as err:
        # the error's offset is within the block being decoded: read
        # the file whole, which reports the offset in the file
        _read_text(path)
        raise CliError("%s: invalid UTF-8" % path) from err
    except OSError as err:
        raise CliError("cannot read %s: %s" % (path, err.strerror or err))
    except FormatError as err:
        raise CliError("%s: %s" % (path, err))


def _load_rules(args):
    from .morph_engine import parse_wf_rules

    text = _read_text(args.rules)
    try:
        return parse_wf_rules(text, args.rules)
    except SourceSyntaxError as err:
        raise CliError(err.to_diagnostic().render())


def _parse_constraints(tokens) -> FeatureTree:
    tree = EMPTY_TREE
    for token in tokens:
        lhs, eq, rhs = token.partition("=")
        path = tuple(lhs.strip().split("."))
        values = [v.strip() for v in rhs.split(",")]
        if not eq or not all(path) or not all(values):
            raise CliError(
                "bad constraint %r, expected path.to.feature=value[,value...]" % token
            )
        held = tree.get(path)
        if isinstance(held, FeatureTree):
            raise CliError(
                "bad constraint %r: leaf '%s' would replace the features below it"
                % (token, " ".join(path))
            )
        if held is not None:
            raise CliError("bad constraint %r: path given twice" % token)
        try:
            tree = tree.set(path, leaf(*values))
        except (ValueError, PathThroughLeaf) as err:
            raise CliError("bad constraint %r: %s" % (token, err))
    return tree


def _run_pipeline(args, output: str | None = None):
    """The compiled dictionary, or None when any diagnostic, parse
    diagnostics included, is an error (`compile_base` decides); and
    every diagnostic.  An `output` that names the source root or a file
    it includes is refused (exit 2) before anything is compiled.

    The root is read once: an unusable root is exit 2, not a
    diagnostic, and the parser gets the text that was read."""
    text = _read_text(args.source)
    root = posixpath.normpath(args.source)
    parsed = parse_source(args.source, lambda path: text if path == root else read_file(path))
    if output is not None:
        real = os.path.realpath(output)
        for path in (args.source, *(target for _, target in parsed.base.includes)):
            if os.path.realpath(path) == real:
                raise CliError(
                    "refusing to write %s over the source file %s" % (output, path)
                )
    compiled = compile_base(parsed.base, parsed.diagnostics)
    return compiled.dictionary, compiled.diagnostics


def cmd_compile(args) -> int:
    out = args.output or os.path.splitext(args.source)[0] + ".dic"
    dictionary, diagnostics = _run_pipeline(args, out)
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    if dictionary is None:
        return 1
    try:
        save(dictionary, out)
    except OSError as err:
        raise CliError("cannot write %s: %s" % (out, err.strerror or err))
    print(
        "wrote %d entries for %d surfaces to %s"
        % (len(dictionary.entries), len(dictionary.surface_index), out)
    )
    return 0


def cmd_check(args) -> int:
    dictionary, diagnostics = _run_pipeline(args)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    for diag in diagnostics:
        print(diag.render())
    print("%d errors, %d warnings" % (errors, len(diagnostics) - errors))
    return 1 if dictionary is None else 0


def _print_answers(args, answers_for) -> int:
    """Print each surface's answers, (fields, tree) pairs from
    `answers_for(surface)`, or *UNKNOWN*; 1 when some surface had none."""
    missed = False
    for surface in args.surfaces:
        answers = list(answers_for(surface))
        if not answers:
            missed = True
            if args.porcelain:
                print(_record(surface, UNKNOWN))
            else:
                print("%s: %s" % (surface, UNKNOWN))
        for fields, tree in answers:
            canon = tree.canonical_form()
            if args.porcelain:
                print(_record(surface, *fields, canon.rstrip("\n")))
            else:
                print(" ".join((surface + ":",) + fields))
                print(indented(canon))
    return 1 if missed else 0


def cmd_lookup(args) -> int:
    dictionary = _load_dictionary(args.dictionary)
    return _print_answers(
        args, lambda surface: (((), entry.tree) for entry in dictionary.lookup(surface))
    )


def cmd_analyze(args) -> int:
    from .morph_engine import analyze

    dictionary = _load_dictionary(args.dictionary)
    rules = _load_rules(args)

    def readings(surface):
        for reading in analyze(surface, dictionary, rules, args.lex_feature):
            parts = "+".join(part for part, _ in reading.segmentation)
            yield (reading.category, reading.lemma or "-", parts), reading.tree

    return _print_answers(args, readings)


def cmd_generate(args) -> int:
    from .morph_engine import GenerationLimit, generate

    dictionary = _load_dictionary(args.dictionary)
    rules = _load_rules(args)
    constraints = _parse_constraints(args.constraints)
    try:
        surfaces = generate(args.lemma, constraints, dictionary, rules, args.lex_feature)
    except GenerationLimit as err:
        print(err, file=sys.stderr)
        return 1
    if not surfaces:
        print(UNKNOWN)
        return 1
    for surface in surfaces:
        print(surface)
    return 0


def cmd_dump(args) -> int:
    dictionary = _load_dictionary(args.dictionary)
    save(dictionary, sys.stdout)
    return 0


def cmd_stats(args) -> int:
    stats = _load_dictionary(args.dictionary).stats(args.lex_feature)
    print("entries: %d" % stats.entries)
    print("surfaces: %d" % stats.surfaces)
    print("lemmas: %d" % stats.lemmas)
    print("homographs: %d" % stats.homographs)
    return 0


def _add_lex_feature_option(parser):
    parser.add_argument(
        "--lex-feature",
        default="lex",
        help="feature naming the lemma an entry belongs to (default: lex)",
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
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="run all checks, print every diagnostic")
    p.add_argument("source")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lookup", help="print the entries stored for a surface")
    p.add_argument("dictionary")
    p.add_argument("surfaces", nargs="+", metavar="surface")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("analyze", help="analyze surfaces against word formation rules")
    p.add_argument("dictionary")
    p.add_argument("rules")
    p.add_argument("surfaces", nargs="+", metavar="surface")
    p.add_argument("--porcelain", action="store_true")
    _add_lex_feature_option(p)
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
    _add_lex_feature_option(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dump", help="print a dictionary in its storage format")
    p.add_argument("dictionary")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("stats", help="print dictionary summary counts")
    p.add_argument("dictionary")
    _add_lex_feature_option(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except CliError as err:
        print(err, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader stopped reading (`| head`): the output is cut
        # short.  What is still buffered goes to the null device, so the
        # interpreter's flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
