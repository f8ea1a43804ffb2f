"""Canonical graph hashing for dataset deduplication.

A graph is identified by its source text (after a fixed normalization)
together with its operator topology. Hashing the canonical byte encoding
of the pair gives a digest that is stable across producers, so duplicate
graphs can be detected without re-executing anything.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from typing import Sequence

__all__ = ["HashInput", "graph_hash", "normalize_source"]

_COMMENT = re.compile(r"#[^\n]*")
# Topologies are checked JSON lists or frozen tuples, never cyclic.
_encode_topology = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def normalize_source(text: str) -> str:
    """Canonicalize source text: drop '#' comments, collapse whitespace.

    Every '#' starts a comment running to the end of its line; runs of
    whitespace (including newlines) collapse to a single space and the
    ends are trimmed. Identifier names are kept as written. The result is
    a fixed point: normalize(normalize(s)) == normalize(s). ``str.split``
    splits on exactly the characters ``re``'s ``\\s`` matches.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    return " ".join(text.split())


_BAD_TOPOLOGY = "topology must be a nonempty list of [op string, list of integer indices]"
_SEQUENCES = (list, tuple)  # a global: a literal tuple of the two names is rebuilt on every test


def _refuse_surrogates(text: str, key: str) -> str:
    # The one lone-surrogate rule of ingest and the model types: JSON's "\ud800"
    # decodes to a code point that UTF-8, and so every output, refuses.
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{key} must not hold a lone surrogate") from None
    return text


def _check_topology(topology: Sequence) -> None:
    # Exact types: JSON booleans are ints to isinstance. Shapes come before surrogates.
    if type(topology) not in _SEQUENCES or not topology:
        raise ValueError(_BAD_TOPOLOGY)
    ascii_ops = True
    for entry in topology:
        if type(entry) not in _SEQUENCES or len(entry) != 2:
            raise ValueError(_BAD_TOPOLOGY)
        op, inputs = entry
        if type(op) is not str or type(inputs) not in _SEQUENCES:
            raise ValueError(_BAD_TOPOLOGY)
        for i in inputs:
            if type(i) is not int:
                raise ValueError(_BAD_TOPOLOGY)
        if not op.isascii():
            ascii_ops = False
    if not ascii_ops:
        _refuse_surrogates("".join([op for op, _ in topology]), "topology")


class _CheckedTuple:
    """Base of the named tuples whose constructor checks their fields.

    A named tuple's ``_make``, and ``_replace``, which calls it, build the
    tuple without its ``__new__``; here both go through the constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class HashInput(_CheckedTuple, namedtuple("HashInput", "normalized_source topology")):
    """Canonical hashing inputs for one computational graph.

    ``normalized_source`` must already be in normalized form: ``graph_hash``
    hashes it as given (build via ``from_source`` to guarantee that).
    ``topology`` lists operators in topological order as (op_type,
    ordered input indices) pairs, as lists or tuples; it is checked as
    ingest checks it and frozen into nested tuples. Neither the source
    nor an op name may hold a lone surrogate, which no output could encode.
    """

    __slots__ = ()

    def __new__(cls, normalized_source: str, topology: Sequence) -> "HashInput":
        if type(normalized_source) is not str:
            raise ValueError("normalized_source must be a string")
        _refuse_surrogates(normalized_source, "normalized_source")
        _check_topology(topology)
        frozen = tuple([(op, tuple(inputs)) for op, inputs in topology])
        return tuple.__new__(cls, (normalized_source, frozen))

    @classmethod
    def from_source(cls, source: str, topology: Sequence) -> "HashInput":
        """Normalize raw source text and build from it; a source that is not a string is refused."""
        return cls(normalize_source(source) if type(source) is str else source, topology)


def graph_hash(h: HashInput) -> str:
    """Hex SHA-256 of a graph's canonical bytes: ``_text_digest`` of its fields, topology as compact JSON."""
    return _text_digest(h.normalized_source, _encode_topology(h.topology))


def _text_digest(normalized_source: str, topology_json: str) -> str:
    """Hex SHA-256 of the normalized source, a 0x1f separator and the
    topology's compact JSON text, each UTF-8 encoded: the one layout of a
    graph's canonical bytes."""
    import hashlib

    payload = normalized_source.encode("utf-8") + b"\x1f" + topology_json.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
