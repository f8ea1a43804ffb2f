"""Dataset-level tooling: deduplication, hash audit, composition stats."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .graphhash import graph_hash
from .records import TaskCategory, file_writer, read_manifest_lines

if TYPE_CHECKING:
    from .model import SampleManifest
    from .records import SampleGroup

__all__ = ["StatsReport", "audit_hashes", "dedup", "dedup_file", "stats"]

_T = TypeVar("_T")


def dedup(
    manifests: Iterable[SampleManifest],
) -> tuple[list[SampleManifest], list[SampleManifest]]:
    """Split manifests into (kept, dropped) by graph hash.

    The first occurrence of each hash is kept, later ones are dropped;
    input order is preserved on both sides and reapplying is a no-op.
    """
    kept: list[SampleManifest] = []
    dropped: list[SampleManifest] = []
    for manifest, first in _first_by_hash((m, m.graph_hash) for m in manifests):
        (kept if first else dropped).append(manifest)
    return kept, dropped


def dedup_file(path: str | Path, out: str | Path) -> tuple[int, int]:
    """Stream manifests file ``path`` to ``out``, keeping the first line of each graph hash.

    Every line is checked in full, as ``load_manifests`` checks it, but
    only its text and graph hash are kept. A kept line is
    written as read, stripped of surrounding whitespace, never re-encoded;
    ``out`` is replaced only after the last line passed, so it may be
    ``path``, and keeps its old bytes when ``path`` is refused, empty
    included. Returns the (kept, dropped) line counts.
    """
    kept = dropped = 0
    with file_writer(out) as write:
        for text, first in _first_by_hash(read_manifest_lines(path)):
            if first:
                kept += 1
                write(text + "\n")
            else:
                dropped += 1
    return kept, dropped


def _first_by_hash(pairs: Iterable[tuple[_T, str]]) -> Iterator[tuple[_T, bool]]:
    """Pair each item with whether no earlier item had its graph hash.

    Hashes compare lowercased: a manifest may spell its hex digest in
    either case, and ``graph_hash`` emits lowercase.
    """
    seen: set[str] = set()
    for item, stored in pairs:
        digest = stored.lower()
        first = digest not in seen
        if first:
            seen.add(digest)
        yield item, first


def audit_hashes(manifests: Iterable[SampleManifest]) -> list[str]:
    """Sample ids whose stored graph_hash, in either case, disagrees with its recorded inputs."""
    return [
        m.sample_id for m in manifests
        if m.source_digest_inputs is not None
        and graph_hash(m.source_digest_inputs) != m.graph_hash.lower()
    ]


class StatsReport(NamedTuple):
    """Dataset composition: category breakdown and operator-count histograms.

    Histogram bin k covers operator counts in [2**k, 2**(k+1)); shares
    are percentages of the total.
    """

    total: int
    category_counts: Mapping[str, int]
    category_shares: Mapping[str, float]
    opcount_histograms: Mapping[str, Mapping[int, int]]


def stats(manifests: Iterable[SampleGroup | SampleManifest]) -> StatsReport:
    """Category shares and log2-binned operator-count histograms."""
    manifests = list(manifests)
    if not manifests:
        raise ValueError("no manifests")
    counts = {category.value: 0 for category in TaskCategory}
    histograms: dict[str, dict[int, int]] = {
        category.value: {} for category in TaskCategory
    }
    for manifest in manifests:
        category = manifest.task_category.value
        counts[category] += 1
        bin_exp = manifest.operator_count.bit_length() - 1
        histograms[category][bin_exp] = histograms[category].get(bin_exp, 0) + 1
    total = len(manifests)
    return StatsReport(
        total=total,
        category_counts=counts,
        category_shares={cat: 100.0 * n / total for cat, n in counts.items()},
        opcount_histograms={
            cat: dict(sorted(hist.items())) for cat, hist in histograms.items()
        },
    )
