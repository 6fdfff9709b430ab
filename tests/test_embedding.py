import numpy as np
import pytest

from trialmatch import embedding
from trialmatch.embedding import (
    _INITIAL_TABLE_ROWS,
    _token_vector,
    ENDPOINT_ENV_VAR,
    HttpProvider,
    MockProvider,
    embed_texts,
    embed_tokens,
    http_embed,
    mock_embed,
    resolve_endpoint,
)
from trialmatch.errors import (
    ConfigError,
    DataError,
    ProviderError,
)
from trialmatch.representation import mean_pool


# ---------------------------------------------------------------------------
# mock embedder
# ---------------------------------------------------------------------------

class TestMockEmbed:
    def test_unit_norm(self):
        for text in ("fever", "fever and chills", "a b c d e f g"):
            vec = mock_embed(text, dim=32, seed=0)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_bit_identical(self):
        a = mock_embed("fever chills", dim=16, seed=3)
        b = mock_embed("fever chills", dim=16, seed=3)
        assert np.array_equal(a, b)

    def test_dim_and_seed_matter(self):
        assert mock_embed("x", dim=8, seed=0).shape == (8,)
        a = mock_embed("x y", dim=8, seed=0)
        b = mock_embed("x y", dim=8, seed=1)
        assert not np.array_equal(a, b)

    def test_dim_too_small(self):
        with pytest.raises(ConfigError):
            mock_embed("x", dim=1)

    def test_no_tokens(self):
        with pytest.raises(DataError):
            mock_embed("   ", dim=8)

    def test_shared_tokens_raise_cosine(self):
        # Lexical overlap must beat disjoint vocabulary nearly always.
        rng = np.random.default_rng(42)
        hits = 0
        for trial in range(100):
            words = [f"w{rng.integers(1_000_000)}" for _ in range(4)]
            shared_a = mock_embed(f"{words[0]} {words[1]}", dim=32, seed=7)
            shared_b = mock_embed(f"{words[0]} {words[2]}", dim=32, seed=7)
            disjoint = mock_embed(f"{words[3]} w_other_{trial}", dim=32, seed=7)
            if float(shared_a @ shared_b) > float(shared_a @ disjoint):
                hits += 1
        assert hits >= 99


class TestMockProvider:
    def test_repeated_text_identical(self):
        provider = MockProvider(dim=64, seed=0)
        a, b = embed_texts(provider, ["a", "a"])
        assert np.array_equal(a, b)

    def test_shape_contract(self):
        provider = MockProvider(dim=64, seed=0)
        for vec in embed_texts(provider, ["x", "y z"]):
            assert vec.shape == (64,)

    def test_batch_invariance(self):
        provider = MockProvider(dim=32, seed=5)
        batch = embed_texts(provider, ["a", "b"])
        single_a = embed_texts(provider, ["a"])[0]
        single_b = embed_texts(provider, ["b"])[0]
        assert np.array_equal(batch[0], single_a)
        assert np.array_equal(batch[1], single_b)

    def test_matches_mock_embed(self):
        provider = MockProvider(dim=16, seed=9)
        assert np.allclose(
            embed_texts(provider, ["fever chills"])[0],
            mock_embed("fever chills", dim=16, seed=9),
            atol=1e-12,
        )

    def test_empty_inputs_rejected(self):
        provider = MockProvider(dim=8)
        with pytest.raises(DataError):
            embed_texts(provider, [])
        with pytest.raises(DataError):
            embed_texts(provider, ["ok", ""])


def reference_rows(text: str, dim: int, seed: int) -> list[np.ndarray]:
    """Each token's vector, hashed on its own."""
    return [_token_vector(token, dim, seed) for token in text.split()]


def reference_text(text: str, dim: int, seed: int) -> np.ndarray:
    """The text vector as a running sum over its tokens, then normalized."""
    acc = np.zeros(dim)
    for row in reference_rows(text, dim, seed):
        acc += row
    return acc / float(np.linalg.norm(acc))


def vocabulary_texts(seed: int, n_texts: int, vocabulary: int) -> list[str]:
    """Texts of 1-40 tokens drawn with repeats from ``vocabulary`` words."""
    rng = np.random.default_rng(seed)
    return [
        " ".join(f"w{i}" for i in rng.integers(0, vocabulary, int(rng.integers(1, 41))))
        for _ in range(n_texts)
    ]


class TestTokenTable:
    # More distinct tokens than four initial tables: the table grows at least
    # twice while these texts are embedded.
    VOCABULARY = 5 * _INITIAL_TABLE_ROWS

    def test_bit_equal_to_per_token_reference_across_growths(self):
        texts = vocabulary_texts(0, 200, self.VOCABULARY)
        assert len({t for text in texts for t in text.split()}) > 4 * _INITIAL_TABLE_ROWS
        provider = MockProvider(dim=24, seed=3)
        for text in texts:
            assert np.array_equal(provider.embed_text(text), reference_text(text, 24, 3))
            assert np.array_equal(
                embed_tokens(provider, text), np.stack(reference_rows(text, 24, 3))
            )
        # Every text again, now that every row is in the grown table.
        vectors = embed_texts(provider, texts)
        assert all(
            np.array_equal(v, reference_text(text, 24, 3)) for v, text in zip(vectors, texts)
        )


class TestEmbedTokens:
    def test_row_per_token(self):
        provider = MockProvider(dim=16, seed=0)
        matrix = embed_tokens(provider, "a b c")
        assert matrix.shape == (3, 16)

    def test_single_token_equals_mean_pool(self):
        provider = MockProvider(dim=16, seed=0)
        matrix = embed_tokens(provider, "solo")
        assert np.array_equal(mean_pool(matrix), matrix[0])

    def test_deterministic(self):
        provider = MockProvider(dim=16, seed=2)
        assert np.array_equal(embed_tokens(provider, "x y"), embed_tokens(provider, "x y"))

    def test_pooled_consistency_with_text_embedding(self):
        # Renormalized mean pooling of the token matrix equals the text vector.
        provider = MockProvider(dim=48, seed=4)
        for text in ("fever", "fever chills cough", "a b c d e a b"):
            pooled = mean_pool(embed_tokens(provider, text))
            pooled = pooled / np.linalg.norm(pooled)
            direct = embed_texts(provider, [text])[0]
            assert np.allclose(pooled, direct, atol=1e-9)

    def test_unsupported_provider(self):
        provider = HttpProvider("http://127.0.0.1:9", model="m", dim=4)
        with pytest.raises(ConfigError):
            embed_tokens(provider, "x")


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

class TestHttpEmbed:
    def test_happy_path(self, embed_server):
        vectors = http_embed(embed_server.url, "m", ["a"], expected_dim=4)
        assert len(vectors) == 1
        assert vectors[0].shape == (4,)

    def test_dimension_mismatch(self, embed_server):
        embed_server.behavior["mode"] = "short_vector"
        with pytest.raises(ProviderError, match="has 3 entries, declared dim is 4"):
            http_embed(embed_server.url, "m", ["a"], expected_dim=4)

    def test_declared_dim_mismatch(self, embed_server):
        with pytest.raises(ProviderError, match="service reports dim 4, provider declared 7"):
            http_embed(embed_server.url, "m", ["a"], expected_dim=7)

    def test_boolean_dim_is_a_wrong_field_type(self, embed_server):
        # True is an int to isinstance, and equal to 1.
        embed_server.behavior["dim"] = True
        with pytest.raises(ProviderError, match="has wrong field types"):
            http_embed(embed_server.url, "m", ["a"], expected_dim=1)

    # numpy reads "1.5" and true as numbers, and a nested row raises a bare
    # ValueError; each is a provider error naming the embedding.
    @pytest.mark.parametrize("mode", ["string_row", "bool_row", "ragged_row"])
    def test_a_row_of_other_than_numbers_is_rejected(self, embed_server, mode):
        embed_server.behavior["mode"] = mode
        with pytest.raises(ProviderError, match="^embedding 0 is not a list of JSON numbers$"):
            http_embed(embed_server.url, "m", ["a", "b"], expected_dim=4)

    def test_an_integer_past_float64_is_non_finite(self, embed_server):
        embed_server.behavior["mode"] = "huge_int_row"
        with pytest.raises(ProviderError, match="^embedding 0 contains non-finite values$"):
            http_embed(embed_server.url, "m", ["a"], expected_dim=4)

    def test_bad_status(self, embed_server):
        embed_server.behavior["mode"] = "bad_status"
        with pytest.raises(ProviderError, match="returned status 500"):
            http_embed(embed_server.url, "m", ["a"])

    def test_bad_status_is_posted_once(self, embed_server):
        # A status is the service's answer, not a transport failure to retry.
        assert embedding.HTTP_MAX_ATTEMPTS > 1
        embed_server.behavior["mode"] = "bad_status"
        with pytest.raises(ProviderError, match="returned status 500"):
            http_embed(embed_server.url, "m", ["a"])
        assert embed_server.calls["count"] == 1

    def test_request_is_sent_as_json(self, embed_server):
        http_embed(embed_server.url, "m", ["a"], expected_dim=4)
        assert embed_server.request["content_type"] == "application/json"

    def test_request_body_is_the_model_and_the_texts(self, embed_server):
        texts = ["fever and chills", "naïve 37.50 °C"]
        http_embed(embed_server.url, "m", texts, expected_dim=4)
        assert embed_server.request["body"] == {"model": "m", "texts": texts}

    def test_malformed_json(self, embed_server):
        embed_server.behavior["mode"] = "bad_json"
        with pytest.raises(ProviderError, match="malformed JSON"):
            http_embed(embed_server.url, "m", ["a"])

    def test_retries_then_success(self, embed_server, caplog, monkeypatch):
        monkeypatch.setattr(embedding, "HTTP_BACKOFF_BASE", 0.01)
        embed_server.behavior.update(mode="fail_then_ok", fail_times=2)
        with caplog.at_level("WARNING", logger="trialmatch.embedding"):
            vectors = http_embed(embed_server.url, "m", ["a"], expected_dim=4)
        assert len(vectors) == 1
        retries = [r for r in caplog.records if "retrying" in r.message]
        assert len(retries) == 2

    def test_retries_exhausted(self, embed_server, monkeypatch):
        monkeypatch.setattr(embedding, "HTTP_BACKOFF_BASE", 0.01)
        monkeypatch.setattr(embedding, "HTTP_MAX_ATTEMPTS", 2)
        embed_server.behavior.update(mode="fail_then_ok", fail_times=99)
        with pytest.raises(ProviderError):
            http_embed(embed_server.url, "m", ["a"])
        assert embed_server.calls["count"] == 2

    def test_timeout(self, embed_server, monkeypatch):
        monkeypatch.setattr(embedding, "HTTP_TIMEOUT", 0.05)
        monkeypatch.setattr(embedding, "HTTP_MAX_ATTEMPTS", 1)
        embed_server.behavior["delay"] = 0.5
        with pytest.raises(ProviderError, match="timed out"):
            http_embed(embed_server.url, "m", ["a"])

    def test_batch_limit(self, embed_server, monkeypatch):
        monkeypatch.setattr(embedding, "HTTP_MAX_BATCH", 2)
        with pytest.raises(ConfigError):
            http_embed(embed_server.url, "m", ["a", "b", "c"])

    def test_provider_batches(self, embed_server, monkeypatch):
        monkeypatch.setattr(embedding, "HTTP_MAX_BATCH", 2)
        provider = HttpProvider(embed_server.url, model="m", dim=4)
        vectors = provider.embed_texts(["a", "b", "c", "d", "e"])
        assert len(vectors) == 5
        # 5 texts at batch size 2 -> 3 round trips
        assert embed_server.calls["count"] == 3


class TestEndpointResolution:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://from-env:1")
        assert resolve_endpoint("http://configured:2") == "http://from-env:1"

    def test_configured_fallback(self, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        assert resolve_endpoint("http://configured:2") == "http://configured:2"

    def test_neither(self, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        with pytest.raises(ConfigError):
            resolve_endpoint(None)
