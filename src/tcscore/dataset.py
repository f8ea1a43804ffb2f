"""Dataset-level tooling: deduplication, hash audit, composition stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphhash import graph_hash
from .records import ManifestFields, SampleManifest, TaskCategory

__all__ = ["StatsReport", "audit_hashes", "dedup", "hash_mismatch", "stats"]


def dedup(
    manifests: Iterable[SampleManifest],
) -> tuple[list[SampleManifest], list[SampleManifest]]:
    """Split manifests into (kept, dropped) by graph hash.

    The first occurrence of each hash is kept, later ones are dropped;
    input order is preserved on both sides and reapplying is a no-op.
    """
    kept: list[SampleManifest] = []
    dropped: list[SampleManifest] = []
    seen: set[str] = set()
    for manifest in manifests:
        if manifest.graph_hash in seen:
            dropped.append(manifest)
        else:
            seen.add(manifest.graph_hash)
            kept.append(manifest)
    return kept, dropped


def hash_mismatch(manifest: SampleManifest) -> bool:
    """Whether the stored graph_hash disagrees with the recorded inputs."""
    inputs = manifest.source_digest_inputs
    return inputs is not None and graph_hash(inputs) != manifest.graph_hash


def audit_hashes(manifests: Iterable[SampleManifest]) -> list[str]:
    """Sample ids whose stored graph_hash disagrees with its recorded inputs."""
    return [m.sample_id for m in manifests if hash_mismatch(m)]


@dataclass(frozen=True)
class StatsReport:
    """Dataset composition: category breakdown and operator-count histograms.

    Histogram bin k covers operator counts in [2**k, 2**(k+1)); shares
    are percentages of the total.
    """

    total: int
    category_counts: Mapping[str, int]
    category_shares: Mapping[str, float]
    opcount_histograms: Mapping[str, Mapping[int, int]]


def stats(manifests: Iterable[ManifestFields]) -> StatsReport:
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
