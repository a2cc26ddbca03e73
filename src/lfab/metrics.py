"""Text normalization, word error rate, and manifest statistics.

WER is word-level Levenshtein with unit costs. Among minimal-cost
alignments the backtrace prefers substitution over insertion over
deletion, so the reported S/D/I split is deterministic. Normalization is
a simplified pass (lowercase, strip punctuation to spaces, collapse
whitespace); digits are kept as-is, with no number spelling-out.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_KEEP = re.compile(r"[^a-z0-9']+")


def normalize_text(s: str) -> str:
    """Lowercase, map chars outside [a-z0-9'] to space, collapse spaces, trim."""
    return " ".join(_KEEP.sub(" ", s.lower()).split())


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / self.ref_words


def wer(ref: str, hyp: str) -> WerBreakdown:
    """Word error rate between a reference and a hypothesis string.

    Both strings are normalized first. The reference must be non-empty
    after normalization.
    """
    ref_words = normalize_text(ref).split()
    hyp_words = normalize_text(hyp).split()
    if not ref_words:
        raise ValueError("empty reference after normalization")
    r, h = len(ref_words), len(hyp_words)
    d = [[0] * (h + 1) for _ in range(r + 1)]
    for i in range(1, r + 1):
        d[i][0] = i
    for j in range(1, h + 1):
        d[0][j] = j
    for i in range(1, r + 1):
        row, prev = d[i], d[i - 1]
        for j in range(1, h + 1):
            row[j] = min(
                prev[j - 1] + (ref_words[i - 1] != hyp_words[j - 1]),
                row[j - 1] + 1,  # insertion: extra hypothesis word
                prev[j] + 1,  # deletion: missing reference word
            )
    subs = dels = ins = 0
    i, j = r, h
    # tie order: substitution/match, then insertion, then deletion
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (
            ref_words[i - 1] != hyp_words[j - 1]
        ):
            subs += ref_words[i - 1] != hyp_words[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and d[i][j] == d[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return WerBreakdown(substitutions=subs, deletions=dels, insertions=ins, ref_words=r)


@dataclass(frozen=True)
class ManifestEntry:
    audio_filepath: str
    duration: float  # seconds
    text: str

    def __post_init__(self):
        if not 0 < self.duration < float("inf"):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")


def read_manifest(path) -> list[ManifestEntry]:
    """Read a line-delimited JSON manifest; unknown fields are ignored."""
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            try:
                entries.append(
                    ManifestEntry(
                        audio_filepath=str(obj["audio_filepath"]),
                        duration=float(obj["duration"]),
                        text=str(obj["text"]),
                    )
                )
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: missing field {e.args[0]!r}") from e
            except (TypeError, ValueError, OverflowError) as e:
                # a field of the wrong type, e.g. "duration": {"x": 1} or a
                # non-positive, non-finite or overflowing duration
                raise ValueError(f"{path}:{lineno}: {e}") from e
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


def manifest_stats(entries) -> dict:
    """Duration stats in minutes, rounded to 2 decimals."""
    if not entries:
        raise ValueError("empty manifest")
    minutes = [e.duration / 60.0 for e in entries]
    return {
        "count": len(entries),
        "min_min": round(min(minutes), 2),
        "max_min": round(max(minutes), 2),
        "mean_min": round(sum(minutes) / len(minutes), 2),
    }
