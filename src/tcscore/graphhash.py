"""Canonical graph hashing for dataset deduplication.

A graph is identified by its source text (after a fixed normalization)
together with its operator topology. Hashing the canonical byte encoding
of the pair gives a digest that is stable across producers, so duplicate
graphs can be detected without re-executing anything.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Sequence

__all__ = ["HashInput", "Topology", "graph_hash", "normalize_source"]

Topology = tuple[tuple[str, tuple[int, ...]], ...]

_COMMENT = re.compile(r"#[^\n]*")
_encode_topology = json.JSONEncoder(separators=(",", ":")).encode


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


def _freeze_topology(topology: Sequence) -> Topology:
    # Exact types: JSON booleans are ints to isinstance.
    if type(topology) not in (list, tuple) or not topology:
        raise ValueError(_BAD_TOPOLOGY)
    frozen = []
    for entry in topology:
        if type(entry) not in (list, tuple) or len(entry) != 2:
            raise ValueError(_BAD_TOPOLOGY)
        op, inputs = entry
        if type(op) is not str or type(inputs) not in (list, tuple):
            raise ValueError(_BAD_TOPOLOGY)
        for i in inputs:
            if type(i) is not int:
                raise ValueError(_BAD_TOPOLOGY)
        frozen.append((op, tuple(inputs)))
    return tuple(frozen)


@dataclass(frozen=True, slots=True)
class HashInput:
    """Canonical hashing inputs for one computational graph.

    ``normalized_source`` must already be in normalized form (build via
    ``from_source`` to guarantee that); ``topology`` lists operators in
    topological order as (op_type, ordered input indices) pairs.
    """

    normalized_source: str
    topology: Topology

    @classmethod
    def from_source(cls, source: str, topology: Sequence) -> "HashInput":
        """Normalize raw source text; check and freeze the topology listing."""
        return cls(normalize_source(source), _freeze_topology(topology))


def graph_hash(h: HashInput) -> str:
    """Hex digest of the canonical byte encoding of a graph.

    SHA-256 over the normalized source, a 0x1f separator, and the compact
    JSON form of the topology. Normalization is idempotent, so it is
    applied again here defensively; equal graphs hash equally no matter
    how the input was constructed.
    """
    source = normalize_source(h.normalized_source)
    topology = _encode_topology(h.topology)
    payload = source.encode("utf-8") + b"\x1f" + topology.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
