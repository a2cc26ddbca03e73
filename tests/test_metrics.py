"""Metrics tests: normalization properties, WER vs brute-force edit search."""

import functools
import json
import random
import string

import pytest

from lfab.metrics import (
    ManifestEntry,
    WerBreakdown,
    manifest_stats,
    normalize_text,
    read_manifest,
    wer,
)


@functools.lru_cache(maxsize=None)
def edit_distance_exhaustive(a: tuple, b: tuple) -> int:
    """Plain recursive minimal edit count (unit costs), no DP shortcuts."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        edit_distance_exhaustive(a[1:], b[1:]) + (a[0] != b[0]),
        edit_distance_exhaustive(a, b[1:]) + 1,
        edit_distance_exhaustive(a[1:], b) + 1,
    )


def random_words(rng, max_len=8, vocab=4):
    return tuple(rng.choice("abcd"[:vocab]) for _ in range(rng.randint(0, max_len)))


class TestNormalizeText:
    def test_punctuation_to_space(self):
        assert normalize_text("Hello, World!") == "hello world"

    def test_apostrophe_kept_and_whitespace_collapsed(self):
        assert normalize_text("it's  FINE") == "it's fine"

    def test_digits_kept(self):
        assert normalize_text("Room 101.") == "room 101"

    def test_trim(self):
        assert normalize_text("  a  b  ") == "a b"

    def test_empty_and_symbol_only(self):
        assert normalize_text("") == ""
        assert normalize_text("?!–…") == ""

    def test_idempotent_on_random_strings(self):
        rng = random.Random(0)
        alphabet = string.printable + "éüñ—“”"
        for _ in range(1000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            once = normalize_text(s)
            assert normalize_text(once) == once

    def test_output_alphabet_and_no_edge_spaces(self):
        rng = random.Random(1)
        allowed = set("abcdefghijklmnopqrstuvwxyz0123456789' ")
        for _ in range(300):
            s = "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(0, 30)))
            out = normalize_text(s)
            assert set(out) <= allowed
            assert out == out.strip()


class TestWer:
    def test_identity_zero(self):
        b = wer("the cat sat", "the cat sat")
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)
        assert b.wer == 0.0

    def test_single_substitution(self):
        b = wer("a b c", "a x c")
        assert b.substitutions == 1 and b.deletions == 0 and b.insertions == 0
        assert b.wer == pytest.approx(1 / 3)

    def test_insert_only(self):
        b = wer("a b", "a b x y z")
        assert b.insertions == 3 and b.substitutions == 0 and b.deletions == 0

    def test_delete_only(self):
        b = wer("a b c d", "a d")
        assert b.deletions == 2 and b.substitutions == 0 and b.insertions == 0

    def test_tie_prefers_substitution(self):
        # "a b" vs "b a" admits S=2 or D=1,I=1; both cost 2
        b = wer("a b", "b a")
        assert (b.substitutions, b.deletions, b.insertions) == (2, 0, 0)

    def test_empty_hypothesis_all_deletions(self):
        b = wer("a b c", "!!!")
        assert b.deletions == 3 and b.wer == 1.0

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError, match="reference"):
            wer("", "a")
        with pytest.raises(ValueError, match="reference"):
            wer("?!", "a")

    def test_normalizes_before_scoring(self):
        assert wer("The CAT.", "the cat").wer == 0.0

    def test_counts_sum_to_distance_and_ratio(self):
        b = wer("a b c d e", "a x c y")
        assert b.errors == b.substitutions + b.deletions + b.insertions
        assert b.wer == b.errors / b.ref_words
        assert b.ref_words == 5

    def test_matches_exhaustive_search_on_500_random_pairs(self):
        rng = random.Random(42)
        checked = 0
        while checked < 500:
            ref = random_words(rng)
            hyp = random_words(rng)
            if not ref:
                continue
            b = wer(" ".join(ref), " ".join(hyp))
            assert b.errors == edit_distance_exhaustive(ref, hyp), (ref, hyp)
            checked += 1

    def test_triangle_inequality_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (random_words(rng, max_len=6) for _ in range(3))
            if not (a and b and c):
                continue
            dab = wer(" ".join(a), " ".join(b)).errors
            dbc = wer(" ".join(b), " ".join(c)).errors
            dac = wer(" ".join(a), " ".join(c)).errors
            assert dac <= dab + dbc

    def test_breakdown_is_frozen_value(self):
        b = WerBreakdown(substitutions=1, deletions=2, insertions=3, ref_words=6)
        assert b.errors == 6
        assert b.wer == 1.0
        with pytest.raises(AttributeError):
            b.substitutions = 0


class TestManifest:
    def write(self, tmp_path, rows):
        p = tmp_path / "manifest.json"
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        return p

    def test_roundtrip_and_unknown_fields_ignored(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                {"audio_filepath": "a.wav", "duration": 60.0, "text": "hi", "extra": 1},
                {"audio_filepath": "b.wav", "duration": 30.0, "text": "yo"},
            ],
        )
        entries = read_manifest(p)
        assert entries[0] == ManifestEntry("a.wav", 60.0, "hi")
        assert entries[1].duration == 30.0

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            '{"audio_filepath": "a.wav", "duration": 1.0, "text": "x"}\n\n',
            encoding="utf-8",
        )
        assert len(read_manifest(p)) == 1

    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"audio_filepath": "a.wav"\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_manifest(p)

    def test_missing_field(self, tmp_path):
        p = self.write(tmp_path, [{"audio_filepath": "a.wav", "duration": 1.0}])
        with pytest.raises(ValueError, match="text"):
            read_manifest(p)

    def test_nonpositive_duration_rejected(self, tmp_path):
        p = self.write(tmp_path, [{"audio_filepath": "a.wav", "duration": 0, "text": "x"}])
        with pytest.raises(ValueError, match="duration"):
            read_manifest(p)

    @pytest.mark.parametrize("line, match", [
        ("[1, 2]", "expected a JSON object, got list"),
        ("3", "expected a JSON object, got int"),
        ("null", "expected a JSON object, got NoneType"),
        ('{"audio_filepath": "a.wav", "duration": {"x": 1}, "text": "x"}', "float"),
        ('{"audio_filepath": "a.wav", "duration": "soon", "text": "x"}', "float"),
        ('{"audio_filepath": "a.wav", "duration": 1' + "0" * 400 + ', "text": "x"}',
         "too large"),
        # "Infinity" was accepted, and manifest-stats printed min_min=inf
        *[('{"audio_filepath": "a.wav", "duration": ' + d + ', "text": "x"}',
           "duration must be positive and finite") for d in ("NaN", "Infinity", "-Infinity")],
        ("[" * 100000, "invalid JSON"),
    ])
    def test_bad_line_is_value_error_naming_the_line(self, tmp_path, line, match):
        p = tmp_path / "m.json"
        p.write_text('{"audio_filepath": "a.wav", "duration": 1.0, "text": "x"}\n'
                     + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=match) as e:
            read_manifest(p)
        assert str(e.value).startswith(f"{p}:2: ")

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            read_manifest(p)


class TestManifestStats:
    def test_single_minute_entry(self):
        stats = manifest_stats([ManifestEntry("a.wav", 60.0, "")])
        assert stats == {"count": 1, "min_min": 1.0, "max_min": 1.0, "mean_min": 1.0}

    def test_talk_corpus_shaped_row(self):
        # 11 recordings spanning 6.89 to 29.53 minutes, mean 16.74
        durations_min = [6.89, 29.53] + [16.413333333333334] * 9
        entries = [
            ManifestEntry(f"talk{i}.wav", m * 60.0, "") for i, m in enumerate(durations_min)
        ]
        stats = manifest_stats(entries)
        assert stats == {"count": 11, "min_min": 6.89, "max_min": 29.53, "mean_min": 16.74}

    def test_mean_matches_independent_arithmetic(self):
        rng = random.Random(3)
        entries = [
            ManifestEntry(f"{i}.wav", rng.uniform(10.0, 9000.0), "") for i in range(25)
        ]
        stats = manifest_stats(entries)
        want = round(sum(e.duration for e in entries) / 60.0 / len(entries), 2)
        assert stats["mean_min"] == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            manifest_stats([])
