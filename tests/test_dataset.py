"""Graph hashing, deduplication, and dataset statistics."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcscore.dataset import audit_hashes, dedup, stats
from tcscore.graphhash import HashInput, _encode_topology, _text_digest, graph_hash, normalize_source
from tcscore.records import SampleManifest, TaskCategory

DATA_DIR = Path(__file__).parent / "data"


def make_manifest(sample_id, category=TaskCategory.CV, opcount=512, digest="ab"):
    return SampleManifest(sample_id, "torch", category, opcount, digest)


def test_normalize_strips_comments_and_collapses_whitespace():
    raw = "x = a + b  # add\n\n\ty   =  x\n"
    assert normalize_source(raw) == "x = a + b y = x"


def test_normalize_keeps_identifier_names():
    assert normalize_source("my_tensor = conv( input_a )") == "my_tensor = conv( input_a )"


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_normalize_is_idempotent(text):
    once = normalize_source(text)
    assert normalize_source(once) == once


@given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000#abxyz"))
@settings(max_examples=500, deadline=None)
def test_normalize_matches_two_regex_passes(text):
    # str.split() and re's \s agree on every whitespace character; only
    # '\n' ends a comment.
    expected = re.sub(r"\s+", " ", re.sub(r"#[^\n]*", "", text)).strip()
    assert normalize_source(text) == expected


def test_hash_ignores_comments_and_whitespace():
    topology = [("add", (0, 1))]
    a = HashInput.from_source("x = a + b", topology)
    b = HashInput.from_source("x  =  a + b   # sum\n", topology)
    assert graph_hash(a) == graph_hash(b)


def test_hash_sensitive_to_topology():
    base = HashInput.from_source("x = a + b", [("add", (0, 1))])
    extra = HashInput.from_source("x = a + b", [("add", (0, 1)), ("relu", (2,))])
    reordered = HashInput.from_source("x = a + b", [("add", (1, 0))])
    assert graph_hash(base) != graph_hash(extra)
    assert graph_hash(base) != graph_hash(reordered)


def test_hash_sensitive_to_source():
    topology = [("add", (0, 1))]
    a = HashInput.from_source("x = a + b", topology)
    b = HashInput.from_source("x = a - b", topology)
    assert graph_hash(a) != graph_hash(b)


def test_hash_rejects_empty_topology():
    with pytest.raises(ValueError, match="topology"):
        graph_hash(HashInput.from_source("x = a", []))


@pytest.mark.parametrize("topology", [[("add", (0, True))], [(1, (0,))]])
def test_from_source_rejects_malformed_topology(topology):
    with pytest.raises(ValueError, match="topology must be a nonempty list"):
        HashInput.from_source("x = a + b", topology)


def test_hash_golden_vector():
    golden = json.loads((DATA_DIR / "graph_hash_golden.json").read_text())
    h = HashInput.from_source(golden["normalized_source"], golden["topology"])
    assert graph_hash(h) == golden["sha256"]


def test_hash_golden_vector_with_comments_and_unicode_whitespace():
    source = (
        "def f(x0, w):  # entry\n"
        "\tx1 = matmul(x0,\u3000w)\x0b\r\n"
        "  x2 = add(x1, x0) # residual\x85x9 = x2 "
        "\xa0return x2\x1c# out\n"
    )
    lists = [["matmul", [0, 1]], ["add", [2, 0]], ["relu", [3]]]
    tuples = (("matmul", (0, 1)), ("add", (2, 0)), ("relu", (3,)))
    normalized = "def f(x0, w): x1 = matmul(x0, w) x2 = add(x1, x0)"
    expected = "e3a4d3443d6ac255e47e5acdd3f2fca622a2cf495f6d55ece7e528f713c9b05e"
    # HashInput freezes lists into tuples, so both spellings hash alike.
    for h in (
        HashInput.from_source(source, lists),
        HashInput.from_source(source, tuples),
        HashInput(normalized, lists),
    ):
        assert h.normalized_source == normalized
        assert graph_hash(h) == expected
    # validate's hash audit builds no HashInput: it digests the checked JSON lists directly.
    assert _text_digest(normalize_source(source), _encode_topology(lists)) == expected


def test_dedup_all_distinct():
    manifests = [make_manifest(f"s{i}", digest=f"{i:02x}") for i in range(4)]
    kept, dropped = dedup(manifests)
    assert kept == manifests and dropped == []


def test_dedup_drops_second_occurrence():
    first = make_manifest("a", digest="ff")
    second = make_manifest("b", digest="ff")
    third = make_manifest("c", digest="ee")
    kept, dropped = dedup([first, second, third])
    assert kept == [first, third]
    assert dropped == [second]


def test_dedup_is_idempotent_and_partitions_input():
    manifests = [
        make_manifest(f"s{i}", digest=f"{i % 3:02x}") for i in range(9)
    ]
    kept, dropped = dedup(manifests)
    assert sorted(m.sample_id for m in kept + dropped) == sorted(
        m.sample_id for m in manifests
    )
    again_kept, again_dropped = dedup(kept)
    assert again_kept == kept and again_dropped == []


def test_audit_hashes_flags_mismatches():
    inputs = HashInput.from_source("x = a + b", [("add", (0, 1))])
    good = SampleManifest(
        "good", "torch", TaskCategory.CV, 4, graph_hash(inputs), source_digest_inputs=inputs
    )
    bad = SampleManifest(
        "bad", "torch", TaskCategory.CV, 4, "deadbeef", source_digest_inputs=inputs
    )
    unaudited = make_manifest("plain")
    assert audit_hashes([good, bad, unaudited]) == ["bad"]


def test_stats_single_cv_sample():
    report = stats([make_manifest("a", opcount=512)])
    assert report.category_shares["CV"] == 100.0
    assert report.opcount_histograms["CV"] == {9: 1}


def test_stats_category_shares():
    manifests = (
        [make_manifest(f"cv{i}", TaskCategory.CV) for i in range(478)]
        + [make_manifest(f"nlp{i}", TaskCategory.NLP) for i in range(395)]
        + [make_manifest(f"o{i}", TaskCategory.OTHER) for i in range(127)]
    )
    report = stats(manifests)
    assert report.total == 1000
    assert report.category_shares["CV"] == pytest.approx(47.8)
    assert report.category_shares["NLP"] == pytest.approx(39.5)
    assert math.fsum(report.category_shares.values()) == pytest.approx(100.0, abs=1e-9)


def test_stats_bin_boundaries():
    report = stats(
        [
            make_manifest("a", opcount=1),
            make_manifest("b", opcount=2),
            make_manifest("c", opcount=3),
            make_manifest("d", opcount=511),
            make_manifest("e", opcount=512),
        ]
    )
    assert report.opcount_histograms["CV"] == {0: 1, 1: 2, 8: 1, 9: 1}


def test_stats_rejects_empty():
    with pytest.raises(ValueError, match="no manifests"):
        stats([])


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(TaskCategory)), st.integers(min_value=1, max_value=1 << 14)
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100)
def test_stats_invariants(entries):
    manifests = [
        make_manifest(f"s{i}", category, opcount)
        for i, (category, opcount) in enumerate(entries)
    ]
    report = stats(manifests)
    assert math.fsum(report.category_shares.values()) == pytest.approx(100.0, abs=1e-9)
    for category, count in report.category_counts.items():
        assert sum(report.opcount_histograms[category].values()) == count
    for category, hist in report.opcount_histograms.items():
        for bin_exp, _ in hist.items():
            assert bin_exp >= 0
    # every sample lands in the bin holding its operator count
    for manifest in manifests:
        k = manifest.operator_count.bit_length() - 1
        assert 2**k <= manifest.operator_count < 2 ** (k + 1)
