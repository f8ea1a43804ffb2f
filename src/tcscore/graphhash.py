"""Canonical graph hashing for dataset deduplication.

A graph is identified by its source text (after a fixed normalization)
together with its operator topology. Hashing the canonical byte encoding
of the pair gives a digest that is stable across producers, so duplicate
graphs can be detected without re-executing anything.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

__all__ = ["HashInput", "Topology", "graph_hash", "normalize_source"]

Topology = tuple[tuple[str, tuple[int, ...]], ...]

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


def _check_topology(topology: Sequence) -> None:
    # Exact types: JSON booleans are ints to isinstance.
    if type(topology) not in (list, tuple) or not topology:
        raise ValueError(_BAD_TOPOLOGY)
    for entry in topology:
        if type(entry) not in (list, tuple) or len(entry) != 2:
            raise ValueError(_BAD_TOPOLOGY)
        op, inputs = entry
        if type(op) is not str or type(inputs) not in (list, tuple):
            raise ValueError(_BAD_TOPOLOGY)
        for i in inputs:
            if type(i) is not int:
                raise ValueError(_BAD_TOPOLOGY)


def _freeze_topology(topology: Sequence) -> Topology:
    """A listing that passed ``_check_topology``, as nested tuples."""
    return tuple([(op, tuple(inputs)) for op, inputs in topology])


@dataclass(frozen=True, slots=True)
class HashInput:
    """Canonical hashing inputs for one computational graph.

    ``normalized_source`` must already be in normalized form: ``graph_hash``
    hashes it as given (build via ``from_source`` to guarantee that).
    ``topology`` lists operators in topological order as (op_type,
    ordered input indices) pairs; lists and tuples hash alike.
    """

    normalized_source: str
    topology: Topology

    @classmethod
    def from_source(cls, source: str, topology: Sequence) -> "HashInput":
        """Normalize raw source text; check and freeze the topology listing."""
        _check_topology(topology)
        return cls(normalize_source(source), _freeze_topology(topology))


def graph_hash(h: HashInput) -> str:
    """Hex digest of the canonical byte encoding of a graph.

    SHA-256 over the normalized source, a 0x1f separator, and the compact
    JSON form of the topology. The source is trusted to be normalized, as
    ``HashInput`` requires; it is not normalized again.
    """
    import hashlib

    topology = _encode_topology(h.topology)
    payload = h.normalized_source.encode("utf-8") + b"\x1f" + topology.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
