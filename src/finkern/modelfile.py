"""The textual model format consumed and emitted by the CLI.

A document is a sequence of declarations::

    space X { a b c }
    measure mu on X { a = 1/2  c = 1/2 }
    effect w on X { a = 2  b = inf }
    probability alpha on X { a = 1  b = 1/2 }
    kernel P : X -> X {
      a -> a = 1/2
      a -> b = 1/2
      b -> b = 1
    }
    involution phi on X { a -> b  b -> a }
    balancing met = metropolis

Comments run from ``#`` to end of line; entries may be separated by commas
or whitespace. Absent measure/effect/kernel entries are zero. Values are
``p/q``, integer strings, or ``inf``, with at most ``MAX_VALUE_DIGITS``
digits in a numerator and in a denominator. Labels are atoms
(``[A-Za-z0-9_.*]+``), tuples ``(a,b)`` (any arity >= 2, nested), or tagged
coproduct points ``L:a`` / ``R:b``, nested at most ``MAX_LABEL_DEPTH``
levels (a tuple or a tag is one level). Involutions list moved points as
``source -> image`` pairs and must be self-inverse; omitted points are
fixed. ``probability`` entries must lie in [0, 1].

``emit`` prints a canonical form; ``parse(emit(doc)) == doc`` for every
document it accepts, and all semantic validation happens at parse with line
numbers. A label nested deeper than the limit, or a value longer than
its bound, is a ``ModelError`` at parse and a ``ValueError`` at emit, so
every document that ``emit`` prints is one that ``parse`` reads.

``parse`` streams: it tokenizes one line at a time and holds only that
line's tokens. A measure, effect or kernel entry ``x = v`` or ``x -> y =
v`` over atom labels on one line costs a few dict lookups, and each
distinct value text is parsed once per call.
"""

from __future__ import annotations

import re

from .semiring import ExtNonneg, ONE, ZERO, pair_text
from .spaces import UNIT, FinSpace, Label, Tagged, format_label
from .kernels import Involution, Kernel, effect, from_maps, pair_rows
from .mcmc import BALANCING_FUNCTIONS
from ._record import Record


class ModelError(ValueError):
    """A model-file problem, with the 1-based line it was found on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ModelDocument(Record):
    """Named spaces, kernels, measures, effects, probabilities, involutions,
    and balancing-function selections.

    Each field is a dict from names, empty unless given; two documents are
    equal when all their dicts are.
    """

    __slots__ = ("spaces", "measures", "effects", "probabilities", "kernels",
                 "involutions", "balancing")

    def __init__(self, spaces: dict[str, FinSpace] | None = None,
                 measures: dict[str, Kernel] | None = None,
                 effects: dict[str, Kernel] | None = None,
                 probabilities: dict[str, Kernel] | None = None,
                 kernels: dict[str, Kernel] | None = None,
                 involutions: dict[str, Involution] | None = None,
                 balancing: dict[str, str] | None = None):
        self.spaces = {} if spaces is None else spaces
        self.measures = {} if measures is None else measures
        self.effects = {} if effects is None else effects
        self.probabilities = {} if probabilities is None else probabilities
        self.kernels = {} if kernels is None else kernels
        self.involutions = {} if involutions is None else involutions
        self.balancing = {} if balancing is None else balancing

    def space_name(self, space: FinSpace) -> str:
        """The name of ``space`` itself, or else of the first declared space
        equal to it."""
        for name, candidate in self.spaces.items():
            if candidate is space:
                return name
        for name, candidate in self.spaces.items():
            if candidate == space:
                return name
        raise ValueError(f"document declares no space equal to {space!r}")

    def add_space(self, name: str, space: FinSpace) -> None:
        if name in self.spaces:
            raise ValueError(f"duplicate space name {name!r}")
        self.spaces[name] = space


_ATOM_RE = re.compile(r"^[A-Za-z0-9_.*]+$")
_TOKEN_RE = re.compile(r"->|[(){},=]|[A-Za-z0-9_.*/:]+|\S")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: How many levels of tuples and tags a label may nest. Parsing, printing,
#: hashing and comparing a label each recurse once per level, so the limit
#: keeps every one of them far from Python's recursion limit.
MAX_LABEL_DEPTH = 100

#: How many digits a value's numerator and its denominator may each have.
#: The bound is checked on the text, before any conversion. ``semiring``
#: reads and prints values under any limit of the interpreter on integer
#: digits, so what a document may hold does not depend on that limit.
MAX_VALUE_DIGITS = 4300


def parse_label(text: str) -> Label:
    """Parse a single label written in model-file syntax."""
    tokens = _Tokens(text)
    label = _parse_label(tokens)
    if tokens.peek() is not None:
        raise ModelError(tokens.line, f"trailing input after label: {tokens.peek()!r}")
    return label


#: The token list of an exhausted document: its one token is None.
_END = (None,)


class _Tokens:
    """The document's tokens, read one line's list at a time.

    ``toks`` is the current line's token list, ``pos`` the index of the
    next token in it, and ``line`` that line's number (at the end, the last
    token's line, and ``toks`` is ``_END``). Only the current line's list
    is held, so parsing a large kernel never holds a token list as big as
    the document. The entry loops of measures, effects and kernels read
    ``toks`` by index and move ``pos`` themselves; all else uses the
    methods.
    """

    __slots__ = ("_lines", "toks", "pos", "line")

    def __init__(self, text: str):
        self._lines = enumerate(text.splitlines(), start=1)
        self.line = 1
        self.next_line()

    def next_line(self) -> None:
        """Move to the first token of the next line that has one."""
        for lineno, line in self._lines:
            if "#" in line:
                line = line[:line.index("#")]
            # a comma is whitespace, and no token contains one
            toks = _TOKEN_RE.findall(line.replace(",", " "))
            if toks:
                self.toks, self.pos, self.line = toks, 0, lineno
                return
        self.toks, self.pos = _END, 0

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def take(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok is None:
            raise ModelError(self.line, f"unexpected end of document, expected {what}")
        self.pos += 1
        if self.pos == len(self.toks):
            self.next_line()
        return tok

    def next(self, expected: str) -> str:
        tok = self.toks[self.pos]
        if tok is None:
            raise ModelError(self.line,
                             f"unexpected end of document, expected {expected!r}")
        if tok != expected:
            raise ModelError(self.line, f"expected {expected!r}, got {tok!r}")
        return self.take(expected)


def _nested(depth: int, line: int) -> int:
    """The depth of a part of a label ``depth`` levels deep; past the limit,
    a ``ModelError`` on ``line``."""
    if depth >= MAX_LABEL_DEPTH:
        raise ModelError(line, f"label nested deeper than {MAX_LABEL_DEPTH} levels")
    return depth + 1


def _parse_label(tokens: _Tokens, depth: int = 0) -> Label:
    """The next label, which sits ``depth`` levels inside another."""
    line = tokens.line
    tok = tokens.take("a label")
    if tok == "(":
        inner = _nested(depth, line)
        parts = [_parse_label(tokens, inner)]
        while tokens.peek() != ")":
            parts.append(_parse_label(tokens, inner))
        tokens.next(")")
        if len(parts) < 2:
            raise ModelError(line, "tuple labels need at least two components")
        return tuple(parts)
    if ":" in tok:
        return _parse_tagged(tok, line, tokens, depth)
    if not _ATOM_RE.match(tok):
        raise ModelError(line, f"bad label {tok!r}")
    return tok


def _parse_tagged(tok: str, line: int, tokens: _Tokens, depth: int) -> Tagged:
    """A tagged label whose first token is ``tok``: ``L:a``, ``L:L:a``, or
    ``L:`` before a label's own tokens."""
    inner = _nested(depth, line)
    side, _, rest = tok.partition(":")
    if side not in ("L", "R"):
        raise ModelError(line, f"tag must be L or R, got {side!r}")
    if not rest:
        return Tagged(side, _parse_label(tokens, inner))
    if ":" in rest:
        return Tagged(side, _parse_tagged(rest, line, tokens, inner))
    if not _ATOM_RE.match(rest):
        raise ModelError(line, f"bad atom {rest!r}")
    return Tagged(side, rest)


def _parse_value(tokens: _Tokens, values: dict[str, ExtNonneg]) -> ExtNonneg:
    """The next token as a value, parsed once per text: ``values`` maps the
    texts already parsed to their values."""
    line = tokens.line
    tok = tokens.take("a value")
    value = values.get(tok)
    if value is None:
        if _too_long(tok):
            raise ModelError(line, "a value's numerator and denominator have at "
                             f"most {MAX_VALUE_DIGITS} digits each")
        try:
            value = values[tok] = ExtNonneg.parse(tok)
        except ValueError as exc:
            raise ModelError(line, str(exc)) from None
    return value


# The entry loops below read a plain-atom entry that sits on one line
# straight from the line's token list: a label is an atom exactly when it
# is a string key of the space's index, so one ``dict.get`` both parses
# and resolves it. Any other entry (a tuple or tagged label, an entry split
# across lines, an unknown label, a duplicate) takes the general path
# through ``_parse_label``, and a value text not parsed before goes through
# ``_parse_value``; those two raise every error.


def _parse_point_map(tokens: _Tokens, space: FinSpace, what: str,
                     values: dict[str, ExtNonneg]) -> dict[int, ExtNonneg]:
    """The listed values of a measure or effect, keyed by point index."""
    entries: dict[int, ExtNonneg] = {}
    index = space._index
    tokens.next("{")
    while (toks := tokens.toks)[pos := tokens.pos] != "}":
        if len(toks) - pos >= 3 and toks[pos + 1] == "=" \
                and (i := index.get(toks[pos])) is not None and i not in entries:
            value = values.get(toks[pos + 2])
            if value is None:
                tokens.pos = pos + 2
                value = _parse_value(tokens, values)
            elif pos + 3 == len(toks):
                tokens.next_line()
            else:
                tokens.pos = pos + 3
            entries[i] = value
            continue
        line = tokens.line
        label = _parse_label(tokens)
        if (i := index.get(label)) is None:
            raise ModelError(line, f"label {format_label(label)} is not in the {what} space")
        if i in entries:
            raise ModelError(line, f"duplicate entry for {format_label(label)}")
        tokens.next("=")
        entries[i] = _parse_value(tokens, values)
    tokens.next("}")
    return entries


def _parse_kernel_rows(tokens: _Tokens, dom: FinSpace, cod: FinSpace,
                       values: dict[str, ExtNonneg]) -> list[dict[int, ExtNonneg]]:
    """A kernel block's listed entries, as one column -> value map per row."""
    rows: list[dict[int, ExtNonneg]] = [{} for _ in dom.labels]
    src_index, dst_index = dom._index, cod._index
    tokens.next("{")
    while (toks := tokens.toks)[pos := tokens.pos] != "}":
        if len(toks) - pos >= 5 and toks[pos + 1] == "->" and toks[pos + 3] == "=" \
                and (i := src_index.get(toks[pos])) is not None \
                and (j := dst_index.get(toks[pos + 2])) is not None \
                and j not in (row := rows[i]):
            value = values.get(toks[pos + 4])
            if value is None:
                tokens.pos = pos + 4
                value = _parse_value(tokens, values)
            elif pos + 5 == len(toks):
                tokens.next_line()
            else:
                tokens.pos = pos + 5
            row[j] = value
            continue
        entry_line = tokens.line
        src = _parse_label(tokens)
        if (i := src_index.get(src)) is None:
            raise ModelError(entry_line, f"label {format_label(src)} is not in the domain")
        tokens.next("->")
        dst = _parse_label(tokens)
        if (j := dst_index.get(dst)) is None:
            raise ModelError(entry_line, f"label {format_label(dst)} is not in the codomain")
        if j in rows[i]:
            raise ModelError(entry_line, "duplicate kernel entry")
        tokens.next("=")
        rows[i][j] = _parse_value(tokens, values)
    tokens.next("}")
    return rows


def parse(text: str) -> ModelDocument:
    """Parse a document, validating every semantic invariant."""
    tokens = _Tokens(text)
    doc = ModelDocument()
    values: dict[str, ExtNonneg] = {}  # value text -> value, for this call

    def fresh_name(kind: dict, what: str) -> str:
        line = tokens.line
        name = tokens.take("a name")
        if not _NAME_RE.match(name):
            raise ModelError(line, f"bad {what} name {name!r}")
        if name in kind:
            raise ModelError(line, f"duplicate {what} name {name!r}")
        return name

    def named_space() -> FinSpace:
        line = tokens.line
        name = tokens.take("a space name")
        if name not in doc.spaces:
            raise ModelError(line, f"unknown space {name!r}")
        return doc.spaces[name]

    while tokens.peek() is not None:
        line = tokens.line
        keyword = tokens.take("a declaration keyword")
        if keyword == "space":
            name = fresh_name(doc.spaces, "space")
            tokens.next("{")
            labels = []
            while tokens.peek() != "}":
                labels.append(_parse_label(tokens))
            tokens.next("}")
            try:
                doc.spaces[name] = FinSpace(labels)
            except ValueError as exc:
                raise ModelError(line, str(exc)) from None
        elif keyword in ("measure", "effect", "probability"):
            store = {"measure": doc.measures, "effect": doc.effects,
                     "probability": doc.probabilities}[keyword]
            name = fresh_name(store, keyword)
            tokens.next("on")
            space = named_space()
            entries = _parse_point_map(tokens, space, keyword, values)
            if keyword == "probability":
                for idx, v in sorted(entries.items()):
                    if not v <= ONE:
                        raise ModelError(line, f"probability value {v} at "
                                         f"{format_label(space.labels[idx])} exceeds 1")
            if keyword == "measure":
                store[name] = from_maps(UNIT, space, (entries,))
            else:
                store[name] = effect(
                    space, [entries.get(i, ZERO) for i in range(len(space))])
        elif keyword == "kernel":
            name = fresh_name(doc.kernels, "kernel")
            tokens.next(":")
            dom = named_space()
            tokens.next("->")
            cod = named_space()
            doc.kernels[name] = from_maps(
                dom, cod, _parse_kernel_rows(tokens, dom, cod, values))
        elif keyword == "involution":
            name = fresh_name(doc.involutions, "involution")
            tokens.next("on")
            space = named_space()
            mapping: dict[Label, Label] = {}
            tokens.next("{")
            while tokens.peek() != "}":
                entry_line = tokens.line
                src = _parse_label(tokens)
                tokens.next("->")
                dst = _parse_label(tokens)
                for lab in (src, dst):
                    if lab not in space:
                        raise ModelError(entry_line,
                                         f"label {format_label(lab)} is not in the space")
                if src in mapping:
                    raise ModelError(entry_line,
                                     f"{format_label(src)} mapped twice")
                mapping[src] = dst
            tokens.next("}")
            try:
                doc.involutions[name] = Involution.from_mapping(space, mapping)
            except ValueError as exc:
                raise ModelError(line, str(exc)) from None
        elif keyword == "balancing":
            name = fresh_name(doc.balancing, "balancing")
            tokens.next("=")
            fn_line = tokens.line
            fn = tokens.take("a balancing function name")
            if fn not in BALANCING_FUNCTIONS:
                raise ModelError(fn_line, f"unknown balancing function {fn!r}")
            doc.balancing[name] = fn
        else:
            raise ModelError(line, f"unknown declaration {keyword!r}")
    return doc


def _too_long(text: str) -> bool:
    """Whether a value text has a part longer than ``MAX_VALUE_DIGITS``."""
    return len(text) > MAX_VALUE_DIGITS \
        and max(map(len, text.split("/"))) > MAX_VALUE_DIGITS


def _value_text(pair: tuple[int, int], entity: str) -> str:
    """The text of a value of ``entity``, which must fit the bound."""
    text = pair_text(*pair)
    # the length test first saves a call per value of a large document
    if len(text) > MAX_VALUE_DIGITS and _too_long(text):
        raise ValueError(f"{entity} has a value of more than "
                         f"{MAX_VALUE_DIGITS} digits")
    return text


def _too_deep(labels) -> bool:
    """Whether a label nests deeper than ``MAX_LABEL_DEPTH``, found level by
    level without recursion: ``level`` holds the tuples and tagged labels
    one level further in each round."""
    level, depth = [x for x in labels if x.__class__ is not str], 0
    while level and depth < MAX_LABEL_DEPTH:
        level = [part for x in level for part in ((x.label,) if isinstance(x, Tagged) else x)
                 if part.__class__ is not str]
        depth += 1
    return bool(level)


def emit(doc: ModelDocument) -> str:
    """Print a document in canonical form (zero entries omitted)."""
    out: list[str] = []
    for name, space in doc.spaces.items():
        if _too_deep(space.labels):
            raise ValueError(f"space {name!r} has a label nested deeper than "
                             f"{MAX_LABEL_DEPTH} levels")
        labels = " ".join(format_label(x) for x in space.labels)
        out.append(f"space {name} {{ {labels} }}")
    for keyword, store in (("measure", doc.measures),
                           ("effect", doc.effects),
                           ("probability", doc.probabilities)):
        for name, kernel in store.items():
            entity = f"{keyword} {name!r}"
            if keyword == "measure":
                space = kernel.cod
                charged = pair_rows(kernel)[0].items()
            else:
                space = kernel.dom
                charged = [(i, pair) for i, pairs in enumerate(pair_rows(kernel))
                           for pair in pairs.values()]
            body = "  ".join(f"{format_label(space.labels[i])} = "
                             f"{_value_text(pair, entity)}" for i, pair in charged)
            block = f"{{ {body} }}" if body else "{ }"
            out.append(f"{keyword} {name} on {doc.space_name(space)} {block}")
    for name, kernel in doc.kernels.items():
        entity = f"kernel {name!r}"
        out.append(f"kernel {name} : {doc.space_name(kernel.dom)} -> "
                   f"{doc.space_name(kernel.cod)} {{")
        cod_labels = [format_label(y) for y in kernel.cod.labels]
        for x, pairs in zip(kernel.dom.labels, pair_rows(kernel)):
            src = format_label(x)
            for j, pair in pairs.items():
                out.append(f"  {src} -> {cod_labels[j]} = {_value_text(pair, entity)}")
        out.append("}")
    for name, inv in doc.involutions.items():
        body = "  ".join(f"{format_label(a)} -> {format_label(b)}"
                         for a, b in inv.moved_pairs())
        block = f"{{ {body} }}" if body else "{ }"
        out.append(f"involution {name} on {doc.space_name(inv.space)} {block}")
    for name, fn in doc.balancing.items():
        out.append(f"balancing {name} = {fn}")
    return "\n".join(out) + "\n"
