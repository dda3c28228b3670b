"""Test inputs read by the pipeline's own source reader.

Each helper puts a snippet under the section header it belongs to,
reads it with `parse_source_text`, and raises `SourceSyntaxError` at
the first error diagnostic, so a malformed snippet fails at once.
"""

from lexiforge.diagnostics import ERROR
from lexiforge.feature_tree import ValueSet
from lexiforge.source import SourceSyntaxError, parse_source_text


def _read(text: str):
    result = parse_source_text(text)
    for d in result.diagnostics:
        if d.severity == ERROR:
            raise SourceSyntaxError(d.message, d.file, d.line)
    return result.base


def parse_tree(text: str):
    """Equation lines folded into a tree, read as the body of an entry
    (blank lines are dropped: in a source they would end the entry)."""
    body = "\n".join(line for line in text.split("\n") if line.strip())
    return _read("#WORDS\n\nx\n" + body).words["x"].tree()


def parse_alo_rule(text: str):
    """The one rule block in `text`."""
    (rule,) = _read("#ALO-RULES\n\n" + text).alo_rules.values()
    return rule


def parse_dict_rules(text: str):
    """The rules of a `#DICT-RULES` section body."""
    return _read("#DICT-RULES\n" + text).dict_rules


def sorted_lemmas(dictionary):
    """The sorted distinct values of the dictionary entries' top-level
    `lex` leaves."""
    found = set()
    for entry in dictionary.entries:
        node = entry.tree.children.get("lex")
        if isinstance(node, ValueSet):
            found.update(node.texts())
    return sorted(found)
