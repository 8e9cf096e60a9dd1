import pickle
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcm.errors import DataError, FormatError
from kgcm.numeric import SeededRng, fnv1a64
from kgcm.text import (
    EncoderConfig,
    embedding_id,
    encode,
    encode_hashed,
    load_embedding_file,
    tokenize,
)

# Published FNV-1a 64-bit reference vectors.
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"b": 0xAF63DF4C8601F1A5,
    b"foobar": 0x85944171F73967E8,
}


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_rule_application(self):
        assert tokenize("Rush-hour DEMAND!") == ["rush", "hour", "demand"]

    def test_empty_tokens_dropped(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_underscore_splits(self):
        assert tokenize("rush_hour") == ["rush", "hour"]

    def test_digits_kept(self):
        assert tokenize("region 3 spike") == ["region", "3", "spike"]

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(alphabet=st.one_of(st.sampled_from("_ -aZ09éÉßİ٣Ⅻ²½"), st.characters())))
    def test_matches_the_character_loop(self, text):
        assert tokenize(text) == _tokenize_reference(text)


def _tokenize_reference(text: str) -> list[str]:
    """The character loop ``tokenize`` replaces: runs of ``str.isalnum()`` codepoints of the lowered text."""
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


class TestFnv1a:
    @pytest.mark.parametrize("data,expected", sorted(FNV_VECTORS.items()))
    def test_reference_vectors(self, data, expected):
        assert fnv1a64(data) == expected

    def test_matches_independent_reimplementation(self):
        def reference(data: bytes) -> int:
            h = 0xCBF29CE484222325
            for byte in data:
                h ^= byte
                h = (h * 0x100000001B3) % 2**64
            return h

        for word in ["demand", "holiday", "区域", "a b c", "x" * 50]:
            assert fnv1a64(word.encode("utf-8")) == reference(word.encode("utf-8"))


class TestEncodeHashed:
    def test_empty_text(self):
        emb = encode_hashed("", 8)
        assert emb.tokens.shape == (0, 8)
        np.testing.assert_array_equal(emb.pooled, np.zeros(8))

    def test_deterministic(self):
        a = encode_hashed("morning rush near the stadium", 16)
        b = encode_hashed("morning rush near the stadium", 16)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.pooled, b.pooled)

    def test_token_rows_are_signed_one_hot(self):
        emb = encode_hashed("heavy rain tonight", 32)
        assert emb.tokens.shape == (3, 32)
        for row in emb.tokens:
            assert np.abs(row).sum() == 1.0
            assert set(np.unique(row)).issubset({-1.0, 0.0, 1.0})

    def test_row_placement_follows_hash(self):
        d = 32
        emb = encode_hashed("a", d)
        h = FNV_VECTORS[b"a"]
        expected_sign = -1.0 if h >> 63 else 1.0
        assert emb.tokens[0, h % d] == expected_sign

    def test_pooled_norm_is_zero_or_one(self):
        rng = SeededRng(0)
        words = ["surge", "quiet", "rain", "match", "expo", "holiday", "snow"]
        for _ in range(200):
            k = rng.integers(0, 5)
            text = " ".join(words[rng.integers(0, len(words))] for _ in range(k))
            norm = np.linalg.norm(encode_hashed(text, 16).pooled)
            assert abs(norm) < 1e-12 or abs(norm - 1.0) < 1e-12

    def test_bag_of_tokens_order_invariance(self):
        a = encode_hashed("a b", 8)
        b = encode_hashed("b a", 8)
        np.testing.assert_array_equal(a.pooled, b.pooled)
        assert sorted(map(tuple, a.tokens)) == sorted(map(tuple, b.tokens))

    def test_dimension_too_small(self):
        with pytest.raises(DataError):
            encode_hashed("x", 1)


class TestEmbeddingFile:
    def test_zero_vector_line(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("r1_t0,0,0,0,0\n")
        table = load_embedding_file(p)
        np.testing.assert_array_equal(table["r1_t0"].pooled, np.zeros(4))
        assert table["r1_t0"].tokens.shape == (1, 4)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("r1_t0,1,2\nr1_t0,3,4\n")
        with pytest.raises(FormatError, match="r1_t0"):
            load_embedding_file(p)

    def test_ragged_width_rejected_with_line(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,1,2,3\nb,1,2,3,4\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embedding_file(p)

    def test_non_numeric_field_rejected_with_line(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,1,2\nb,1,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embedding_file(p)

    @pytest.mark.parametrize("lines, line", [("a,nan,1\nb,inf,2\n", 1), ("a,0,1\nb,-inf,2\n", 2)])
    def test_non_finite_value_rejected_with_file_and_line(self, tmp_path, lines, line):
        p = tmp_path / "emb.csv"
        p.write_text(lines)
        with pytest.raises(FormatError, match=rf"emb\.csv line {line}: non-finite"):
            load_embedding_file(p)


class TestEncodeDispatch:
    def test_hashed_mode(self):
        a = encode("festival crowd", "festival crowd", EncoderConfig(), 8)
        b = encode("festival crowd", "any key", EncoderConfig(), 8)
        np.testing.assert_array_equal(a.pooled, b.pooled)
        np.testing.assert_array_equal(a.pooled, encode_hashed("festival crowd", 8).pooled)

    def test_file_mode_present(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("k,1.0,2.0\n")
        out = encode("ignored", "k", EncoderConfig(str(p)), 8)
        np.testing.assert_array_equal(out.pooled, [1.0, 2.0])

    def test_file_mode_absent_names_id(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("k,1.0,2.0\n")
        with pytest.raises(DataError, match="missing-key"):
            encode("x", "missing-key", EncoderConfig(str(p)), 8)

    def test_file_is_read_on_the_first_lookup_only(self, tmp_path):
        p = tmp_path / "emb.csv"
        encoder = EncoderConfig(str(p))  # no file yet: building the config reads nothing
        p.write_text("k,1.0,2.0\n")
        np.testing.assert_array_equal(encode("x", "k", encoder, 8).pooled, [1.0, 2.0])
        p.unlink()
        np.testing.assert_array_equal(encode("x", "k", encoder, 8).pooled, [1.0, 2.0])

    def test_a_pickle_carries_the_file_name_and_not_the_table_read_from_it(self, tmp_path):
        # a two-process scoring pass pickles its model, encoder included, each time
        p = tmp_path / "emb.csv"
        p.write_text("".join(f"k{i},{i}.5,2.0\n" for i in range(100)))
        encoder = EncoderConfig(str(p))
        encode("x", "k1", encoder, 8)
        assert "embeddings" in vars(encoder)
        assert pickle.dumps(encoder) == pickle.dumps(EncoderConfig(str(p)))
        copy = pickle.loads(pickle.dumps(encoder))
        assert copy == encoder and "embeddings" not in vars(copy)
        np.testing.assert_array_equal(encode("x", "k99", copy, 8).pooled, [99.5, 2.0])


def test_embedding_id_names_the_source_and_the_timestamp():
    ts = datetime(2024, 1, 1, 7, 30, tzinfo=timezone.utc)
    assert embedding_id("r1", ts) == "r1|2024-01-01T07:30:00+00:00"
    assert embedding_id("global", ts) == "global|2024-01-01T07:30:00+00:00"
