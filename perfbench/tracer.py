"""Per-layer tracing by wrapping the names one lexiforge module calls in another.

Nothing inside lexiforge changes.  Each hook replaces a module
attribute or a class attribute with a wrapper that records a span
(calls, total time, time covered by child spans) or a count, keyed by
the outermost open span, so the same layer can be told apart under
`object_dict.load` and under `dict_compiler.compile_base`.  Spans are
aggregated in memory, never stored one by one, and dumped once at the
end.  Times come from `clock`, which may leave out time the process
spent on something other than the traced work.  A hook whose name no
longer exists raises `MissingHook`: a layer that is no longer measured
must not read as a layer that got cheaper.  A change that renames or
removes a hooked name updates the tables below with it.
"""

from __future__ import annotations

import importlib
import inspect

OUTSIDE = "-"

# (module, attribute path, span name, tally): `tally(result)` adds to
# the span's tally, e.g. lookups that found something.
COMPILE_SPANS = (
    ("lexiforge.cli", "parse_source", "source.parse", None),
    ("lexiforge.cli", "compile_base", "dict_compiler.compile_base", None),
    ("lexiforge.dict_compiler", "resolve_all", "inheritance.resolve_all", None),
    ("lexiforge.alo_rules", "CompiledAloRule.apply", "alo_rules.apply", None),
    ("lexiforge.dict_compiler", "check_base", "type_checker.check_base", None),
    ("lexiforge.dict_compiler", "apply_dict_rule", "dict_compiler.apply_dict_rule",
     lambda entry: entry is not None),
    ("lexiforge.cli", "save", "object_dict.save", None),
)
SERVE_SPANS = (
    ("lexiforge.object_dict", "load", "object_dict.load", None),
    ("lexiforge.object_dict", "parse_equation", "source.parse_equation", None),
    ("lexiforge.morph_engine", "parse_wf_rules", "morph_engine.parse_wf_rules", None),
    ("lexiforge.morph_engine", "analyze", "morph_engine.analyze", len),
    ("lexiforge.morph_engine", "generate", "morph_engine.generate", len),
    ("lexiforge.object_dict", "ObjectDictionary.lookup", "object_dict.lookup", bool),
    ("lexiforge.object_dict", "ObjectDictionary.lookup_by_lemma", "object_dict.lookup_by_lemma", None),
    ("lexiforge.object_dict", "ObjectDictionary.lookup_by_concat", "object_dict.lookup_by_concat", None),
    ("lexiforge.morph_engine", "unify", "feature_tree.unify", None),
)
SHARED_SPANS = (
    ("lexiforge.object_dict", "ObjectDictionary.build", "object_dict.build",
     lambda d: len(d.warnings)),
    ("lexiforge.feature_tree", "FeatureTree.canonical_form", "feature_tree.canonical_form", None),
)
# (module, attribute path, count name): calls counted, not timed.
CALL_COUNTS = (
    ("lexiforge.feature_tree", "FeatureTree.__init__", "feature_tree.trees_built"),
)
# (module, attribute path, count name): items yielded by the returned iterator.
YIELD_COUNTS = (
    ("lexiforge.morph_engine", "combinations", "morph_engine.split"),
    ("lexiforge.morph_engine", "product", "morph_engine.combo"),
)


class MissingHook(LookupError):
    """A hooked name is not in lexiforge."""


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[tuple[str, str], list] = {}  # (root, name) -> [calls, total, child, tally]
        self.counts: dict[tuple[str, str], int] = {}

    def root(self) -> str:
        return self.stack[0][0] if self.stack else OUTSIDE

    def install(self, spans=(), call_counts=(), yield_counts=()):
        for module, path, name, tally in spans:
            self._patch(module, path, lambda orig, n=name, t=tally: self._span(orig, n, t))
        for module, path, name in call_counts:
            self._patch(module, path, lambda orig, n=name: self._call_count(orig, n))
        for module, path, name in yield_counts:
            self._patch(module, path, lambda orig, n=name: self._yield_count(orig, n))

    def _patch(self, module_name, path, make_wrapper):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        static = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if static is None:
            raise MissingHook("%s.%s" % (module_name, path))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(static.__func__)))
        else:
            setattr(owner, attr, make_wrapper(static))

    def _span(self, orig, name, tally):
        stack, spans, clock = self.stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            root = stack[0][0] if stack else name
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((root, name))
                if record is None:
                    record = spans[(root, name)] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
            if tally is not None:
                record[3] += tally(result)
            return result

        return wrapper

    def _call_count(self, orig, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = (self.root(), name)
            counts[key] = counts.get(key, 0) + 1
            return orig(*args, **kwargs)

        return wrapper

    def _yield_count(self, orig, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = (self.root(), name)
            for item in orig(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [[root, name, *record] for (root, name), record in self.spans.items()],
            "counts": [[root, name, n] for (root, name), n in self.counts.items()],
        }


class Trace:
    """Read side of a dumped trace; `root=None` sums over every root."""

    def __init__(self, dumped: dict):
        self.spans = dumped["spans"]
        self.counts = dumped["counts"]

    def _span_sum(self, name, column, root=None, exclude_root=None):
        return sum(
            row[column]
            for row in self.spans
            if row[1] == name and root in (None, row[0]) and row[0] != exclude_root
        )

    def calls(self, name, root=None, exclude_root=None):
        return self._span_sum(name, 2, root, exclude_root)

    def seconds(self, name, root=None, exclude_root=None):
        return self._span_sum(name, 3, root, exclude_root)

    def self_seconds(self, name, root=None):
        return self.seconds(name, root) - self._span_sum(name, 4, root)

    def tally(self, name, root=None):
        return self._span_sum(name, 5, root)

    def count(self, name, root=None):
        return sum(row[2] for row in self.counts if row[1] == name and root in (None, row[0]))


def install_all(tracer: Tracer, spans):
    tracer.install(spans + SHARED_SPANS, CALL_COUNTS, YIELD_COUNTS)
