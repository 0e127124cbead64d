"""Query planning over the archive-wide index.

The planner answers term, phrase and boolean queries with channel
filters.  A query is parsed into a small AST; the planner then collects
every leaf term, looks each up in its shard in turn (consistent
hashing means the shard of a term is known without coordination), and
evaluates the AST over the returned posting sets.

The same AST can also be evaluated directly against an object's token
sequences (:func:`matches_units`).  That is the *scan oracle*: the
semantics of a query are defined by what a full scan of the rebuilt
objects would answer, and the property suite holds the index to exactly
that answer.

Grammar (keywords case-insensitive; adjacency is implicit AND)::

    expr   := and_expr ("OR" and_expr)*
    and_expr := unary ("AND"? unary)*
    unary  := "NOT" unary | atom
    atom   := "(" expr ")" | '"' phrase '"' | word
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import QueryError
from repro.ids import ObjectId
from repro.index.postings import BOTH, CHANNELS, Posting, channel_matches
from repro.text.search import tokenize

# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TermNode:
    """Leaf: one term occurs anywhere in the filtered channels."""

    term: str


@dataclass(frozen=True, slots=True)
class PhraseNode:
    """Leaf: the terms occur consecutively within one indexing unit."""

    terms: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class AndNode:
    parts: tuple


@dataclass(frozen=True, slots=True)
class OrNode:
    parts: tuple


@dataclass(frozen=True, slots=True)
class NotNode:
    part: object


Node = TermNode | PhraseNode | AndNode | OrNode | NotNode


def contains_not(node: Node) -> bool:
    """Whether the query negates anywhere (NOT needs the id universe)."""
    if isinstance(node, NotNode):
        return True
    if isinstance(node, (AndNode, OrNode)):
        return any(contains_not(part) for part in node.parts)
    return False


def leaf_terms(node: Node) -> set[str]:
    """Every distinct term the query needs postings for."""
    if isinstance(node, TermNode):
        return {node.term}
    if isinstance(node, PhraseNode):
        return set(node.terms)
    if isinstance(node, NotNode):
        return leaf_terms(node.part)  # type: ignore[arg-type]
    return set().union(*(leaf_terms(part) for part in node.parts))


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

_LEXEME = re.compile(r"\(|\)|\"[^\"]*\"|[\w'-]+")
_KEYWORDS = {"and", "or", "not"}


def parse_query(query: str) -> Node:
    """Parse a boolean/phrase query string into an AST.

    ``AND``/``OR``/``NOT`` (any case) are operators and cannot be
    searched as terms; quote them inside a phrase if needed.

    Raises
    ------
    QueryError
        On empty or malformed queries.
    """
    lexemes = _LEXEME.findall(query)
    if not lexemes:
        raise QueryError(f"query {query!r} contains no terms")
    parser = _Parser(lexemes, query)
    node = parser.expr()
    if not parser.at_end():
        raise QueryError(f"unexpected {parser.peek()!r} in query {query!r}")
    return node


class _Parser:
    def __init__(self, lexemes: list[str], source: str) -> None:
        self._lexemes = lexemes
        self._source = source
        self._pos = 0

    def peek(self) -> str | None:
        if self._pos < len(self._lexemes):
            return self._lexemes[self._pos]
        return None

    def at_end(self) -> bool:
        return self._pos >= len(self._lexemes)

    def _take(self) -> str:
        lexeme = self._lexemes[self._pos]
        self._pos += 1
        return lexeme

    def expr(self) -> Node:
        parts = [self.and_expr()]
        while (lex := self.peek()) is not None and lex.lower() == "or":
            self._take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else OrNode(tuple(parts))

    def and_expr(self) -> Node:
        parts = [self.unary()]
        while (lex := self.peek()) is not None:
            if lex.lower() == "and":
                self._take()
                parts.append(self.unary())
            elif lex.lower() == "or" or lex == ")":
                break
            else:  # implicit AND
                parts.append(self.unary())
        return parts[0] if len(parts) == 1 else AndNode(tuple(parts))

    def unary(self) -> Node:
        lex = self.peek()
        if lex is not None and lex.lower() == "not":
            self._take()
            return NotNode(self.unary())
        return self.atom()

    def atom(self) -> Node:
        lex = self.peek()
        if lex is None:
            raise QueryError(f"query {self._source!r} ends unexpectedly")
        if lex == "(":
            self._take()
            node = self.expr()
            if self.peek() != ")":
                raise QueryError(f"unbalanced parentheses in {self._source!r}")
            self._take()
            return node
        if lex == ")":
            raise QueryError(f"unbalanced parentheses in {self._source!r}")
        self._take()
        if lex.startswith('"'):
            terms = [term for term, _ in tokenize(lex[1:-1])]
            if not terms:
                raise QueryError(f"empty phrase in query {self._source!r}")
            if len(terms) == 1:
                return TermNode(terms[0])
            return PhraseNode(tuple(terms))
        if lex.lower() in _KEYWORDS:
            raise QueryError(
                f"operator {lex!r} needs an operand in {self._source!r}"
            )
        return TermNode(lex.lower())


# ----------------------------------------------------------------------
# evaluation over posting sets (the index-served path)
# ----------------------------------------------------------------------


def evaluate(
    node: Node,
    channel: str,
    postings_by_term: dict[str, list[Posting]],
    universe: set[ObjectId],
) -> set[ObjectId]:
    """Objects satisfying ``node`` in ``channel``, from looked-up postings.

    ``postings_by_term`` must cover :func:`leaf_terms` of the node;
    postings are assumed already filtered for liveness but not for
    channel.  ``universe`` (all indexed objects) bounds ``NOT``.
    """
    if isinstance(node, TermNode):
        return {
            posting.object_id
            for posting in postings_by_term.get(node.term, ())
            if channel_matches(posting.channel, channel)
        }
    if isinstance(node, PhraseNode):
        return _phrase_objects(node.terms, channel, postings_by_term)
    if isinstance(node, AndNode):
        result: set[ObjectId] | None = None
        for part in node.parts:
            matched = evaluate(part, channel, postings_by_term, universe)
            result = matched if result is None else result & matched
            if not result:
                return set()
        return result or set()
    if isinstance(node, OrNode):
        result = set()
        for part in node.parts:
            result |= evaluate(part, channel, postings_by_term, universe)
        return result
    if isinstance(node, NotNode):
        return universe - evaluate(
            node.part, channel, postings_by_term, universe  # type: ignore[arg-type]
        )
    raise QueryError(f"unknown query node {node!r}")


def _phrase_objects(
    terms: tuple[str, ...],
    channel: str,
    postings_by_term: dict[str, list[Posting]],
) -> set[ObjectId]:
    """Objects where the terms occur at consecutive ordinals, per channel."""
    wanted = [ch for ch in CHANNELS if channel_matches(ch, channel)]
    # ordinals[(object, channel)] per phrase slot
    per_slot: list[dict[tuple[ObjectId, str], set[int]]] = []
    for term in terms:
        slots: dict[tuple[ObjectId, str], set[int]] = {}
        for posting in postings_by_term.get(term, ()):
            if posting.channel in wanted:
                slots.setdefault(
                    (posting.object_id, posting.channel), set()
                ).add(posting.ordinal)
        if not slots:
            return set()
        per_slot.append(slots)
    candidates = set(per_slot[0])
    for slots in per_slot[1:]:
        candidates &= set(slots)
    hits: set[ObjectId] = set()
    for key in candidates:
        object_id, _ = key
        if object_id in hits:
            continue
        first = per_slot[0][key]
        if any(
            all(start + offset in per_slot[offset][key]
                for offset in range(1, len(terms)))
            for start in first
        ):
            hits.add(object_id)
    return hits


# ----------------------------------------------------------------------
# evaluation over token units (the scan oracle)
# ----------------------------------------------------------------------


def matches_units(
    node: Node, channel: str, units: dict[str, list[list[str]]]
) -> bool:
    """Whether one object satisfies ``node``, from its token sequences.

    ``units`` maps each channel to the object's indexing units (one
    token list per text segment / image label / voice segment).  This
    is the reference semantics the index must reproduce.
    """
    wanted = [ch for ch in CHANNELS if channel_matches(ch, channel)]
    if isinstance(node, TermNode):
        return any(
            node.term in tokens for ch in wanted for tokens in units.get(ch, ())
        )
    if isinstance(node, PhraseNode):
        run = list(node.terms)
        n = len(run)
        for ch in wanted:
            for tokens in units.get(ch, ()):
                if any(
                    tokens[i : i + n] == run
                    for i in range(len(tokens) - n + 1)
                ):
                    return True
        return False
    if isinstance(node, AndNode):
        return all(matches_units(part, channel, units) for part in node.parts)
    if isinstance(node, OrNode):
        return any(matches_units(part, channel, units) for part in node.parts)
    if isinstance(node, NotNode):
        return not matches_units(node.part, channel, units)  # type: ignore[arg-type]
    raise QueryError(f"unknown query node {node!r}")


def terms_query(terms: list[str]) -> Node:
    """The conjunctive AST of a plain ``select(terms=[...])`` query.

    Each entry is parsed with the full grammar: a bare multi-word entry
    is an implicit AND of its words; adjacency requires quoting
    (``'"optical disk"'``); entries may be boolean expressions.

    Raises
    ------
    QueryError
        If no terms are given.
    """
    if not terms:
        raise QueryError("term search needs at least one term")
    parts = tuple(parse_query(term) for term in terms)
    return parts[0] if len(parts) == 1 else AndNode(parts)


__all__ = [
    "AndNode",
    "Node",
    "NotNode",
    "OrNode",
    "PhraseNode",
    "TermNode",
    "evaluate",
    "leaf_terms",
    "matches_units",
    "parse_query",
    "terms_query",
    "BOTH",
]
