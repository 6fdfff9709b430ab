import numpy as np
import pytest

from trialmatch.errors import (
    ConfigError,
    DataError,
    DegenerateVarianceError,
)
from trialmatch import representation
from trialmatch.representation import (
    DimRedConfig,
    dimred,
    hybrid_concat,
    mean_pool,
    pca_fit,
    pca_project,
    pool_pca_mean,
    select_last_token,
)


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain cyclic Jacobi rotations; the brute-force oracle for symmetric
    eigen-decomposition, independent of LAPACK."""
    a = matrix.astype(np.float64).copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if np.sqrt(2 * off) <= 1e-14 * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], v[:, order]


def _align_sign(w: np.ndarray) -> np.ndarray:
    w = w.copy()
    for j in range(w.shape[1]):
        col = w[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            w[:, j] = -col
    return w


class TestPcaFit:
    def test_worked_example(self):
        model = pca_fit(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 1)
        assert model.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
        assert model.components[:, 0] == pytest.approx(
            np.array([1.0, 1.0]) / np.sqrt(2.0), abs=1e-12
        )

    def test_one_dimensional_identity(self):
        data = np.array([[1.0], [4.0], [7.0], [8.0]])
        model = pca_fit(data, 1)
        assert model.components[0, 0] == pytest.approx(1.0)
        assert model.eigenvalues[0] == pytest.approx(np.var(data, ddof=1), abs=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 5))
        model = pca_fit(data, 5)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / 199
        assert model.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-9)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        model = pca_fit(rng.standard_normal((30, 7)), 4)
        gram = model.components.T @ model.components
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        model = pca_fit(rng.standard_normal((25, 6)), 3)
        for j in range(3):
            col = model.components[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(3)
        model = pca_fit(rng.standard_normal((40, 9)), 6)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0)

    def test_dual_route_equals_direct(self):
        # Wide matrices take the Gram route; it must agree with the covariance.
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 40))
        model = pca_fit(data, 4)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / 5
        values, vectors = np.linalg.eigh(cov)
        order = np.argsort(values)[::-1][:4]
        assert model.eigenvalues == pytest.approx(values[order], abs=1e-9)
        expected = _align_sign(vectors[:, order])
        assert np.max(np.abs(model.components - expected)) < 1e-8

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="at least 2"):
            pca_fit(np.ones((1, 3)), 1)

    def test_components_out_of_range(self):
        with pytest.raises(ConfigError):
            pca_fit(np.random.default_rng(0).standard_normal((5, 3)), 4)
        with pytest.raises(ConfigError):
            pca_fit(np.random.default_rng(0).standard_normal((3, 8)), 3)

    def test_non_finite_rejected(self):
        bad = np.ones((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            pca_fit(bad, 1)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            f = int(rng.integers(1, 9))
            s = int(rng.integers(f + 1, 21))
            data = rng.standard_normal((s, f))
            n = min(s - 1, f)
            model = pca_fit(data, n)
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / (s - 1)
            values, vectors = jacobi_eigh(cov)
            assert np.max(np.abs(model.eigenvalues - values[:n])) < 1e-6
            expected = _align_sign(vectors[:, :n])
            assert np.max(np.abs(model.components - expected)) < 1e-6


def psd_with_gap(k: int, ratio: float, seed: int) -> np.ndarray:
    """A random k x k PSD matrix with top eigenvalue 1 and second ``ratio``;
    the others are spread below ``ratio``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    values = np.concatenate([[1.0, ratio], rng.uniform(0.0, ratio, k - 2)])
    return (q * values) @ q.T


def centered_data_with_gap(s: int, f: int, ratio: float, seed: int) -> np.ndarray:
    """s x f data whose sample covariance has its top two eigenvalues in the
    proportion ``ratio`` (second over first), the rest well below."""
    rng = np.random.default_rng(seed)
    k = min(s - 1, f)
    left = rng.standard_normal((s, k))
    left, _ = np.linalg.qr(left - left.mean(axis=0))  # columns orthogonal to ones
    right, _ = np.linalg.qr(rng.standard_normal((f, k)))
    singular = np.sqrt(np.concatenate([[1.0, ratio], rng.uniform(0.0, 0.5 * ratio, k - 2)]))
    return (left * singular) @ right.T + rng.standard_normal(f)


class TestTopEigenpairs:
    @pytest.mark.parametrize("ratio", [0.5, 0.997])
    def test_one_pair_agrees_with_eigh(self, ratio, monkeypatch):
        for seed in range(5):
            sym = psd_with_gap(64, ratio, seed)
            values, vectors = np.linalg.eigh(sym)

            def no_eigh(matrix):
                raise AssertionError("the one-pair route fell back to eigh")

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", no_eigh)
                top, vector = representation._top_eigenpairs(sym, 1)
            assert top.shape == (1,) and vector.shape == (64, 1)
            assert top[0] == pytest.approx(values[-1], rel=1e-13)
            assert np.max(np.abs(_align_sign(vector) - _align_sign(vectors[:, -1:]))) < 1e-12

    @pytest.mark.parametrize("ratio", [0.5, 0.997])
    @pytest.mark.parametrize("shape", [(20, 60), (60, 20)], ids=["gram", "covariance"])
    def test_one_component_fit_agrees_with_eigh(self, ratio, shape):
        s, f = shape
        data = centered_data_with_gap(s, f, ratio, seed=3)
        model = pca_fit(data, 1)
        centered = data - data.mean(axis=0)
        values, vectors = np.linalg.eigh(centered.T @ centered / (s - 1))
        assert model.eigenvalues[0] == pytest.approx(values[-1], rel=1e-12)
        assert model.eigenvalues[0] * ratio == pytest.approx(values[-2], rel=1e-9)
        assert np.max(np.abs(model.components - _align_sign(vectors[:, -1:]))) < 1e-12

    @pytest.mark.parametrize("failure", ["wrong_vector", "singular"])
    def test_failed_residual_check_falls_back_to_eigh(self, failure, monkeypatch):
        sym = psd_with_gap(32, 0.9, seed=7)
        values, vectors = np.linalg.eigh(sym)

        def broken(matrix, top):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.ones(matrix.shape[0]) / np.sqrt(matrix.shape[0])

        monkeypatch.setattr(representation, "_refine_top_eigenvector", broken)
        top, vector = representation._top_eigenpairs(sym, 1)
        assert np.array_equal(top, values[-1:])
        assert np.array_equal(vector, vectors[:, -1:])

    def test_several_pairs_come_from_eigh(self):
        sym = psd_with_gap(16, 0.8, seed=1)
        values, vectors = np.linalg.eigh(sym)
        top, found = representation._top_eigenpairs(sym, 3)
        assert np.array_equal(top, values[::-1][:3])
        assert np.array_equal(found, vectors[:, ::-1][:, :3])


class TestPcaProject:
    def test_score_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((60, 6))
        model = pca_fit(data, 4)
        scores = pca_project(model, data)
        variances = scores.var(axis=0, ddof=1)
        assert variances == pytest.approx(model.eigenvalues, abs=1e-8)

    def test_mean_row_projects_to_zero(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((20, 4))
        model = pca_fit(data, 2)
        row = pca_project(model, model.mean[None, :])
        assert np.max(np.abs(row)) < 1e-12

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((50, 5))
        model = pca_fit(data, 5)
        scores = pca_project(model, data)
        rebuilt = scores @ model.components.T + model.mean
        assert np.max(np.abs(rebuilt - data)) < 1e-8

    def test_reconstruction_error_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            s = int(rng.integers(6, 21))
            f = int(rng.integers(2, 9))
            data = rng.standard_normal((s, f))
            errors = []
            for n in range(1, min(s - 1, f) + 1):
                model = pca_fit(data, n)
                rebuilt = pca_project(model, data) @ model.components.T + model.mean
                errors.append(float(np.mean((rebuilt - data) ** 2)))
            assert all(b <= a + 1e-10 for a, b in zip(errors, errors[1:]))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((40, 5))
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = pca_fit(data, 3)
        rotated = pca_fit(data @ rotation, 3)
        assert rotated.eigenvalues == pytest.approx(base.eigenvalues, abs=1e-8)
        for j in range(3):
            alignment = abs(float((rotation.T @ base.components[:, j]) @ rotated.components[:, j]))
            assert alignment == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        model = pca_fit(np.random.default_rng(0).standard_normal((10, 3)), 2)
        with pytest.raises(DataError, match="data has 4 features, model expects 3"):
            pca_project(model, np.zeros((2, 4)))


class TestPooling:
    def test_mean_pool_arithmetic(self):
        got = mean_pool(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(got, np.array([2.0, 3.0]))

    def test_mean_pool_single_row(self):
        assert np.array_equal(mean_pool(np.array([[5.0, 6.0]])), np.array([5.0, 6.0]))

    def test_mean_pool_zeros(self):
        assert np.array_equal(mean_pool(np.zeros((3, 4))), np.zeros(4))

    def test_mean_pool_linearity(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((6, 5))
        lhs = mean_pool(2.5 * a + (-1.25) * b)
        rhs = 2.5 * mean_pool(a) - 1.25 * mean_pool(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_last_token(self):
        got = select_last_token(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(got, np.array([3.0, 4.0]))

    def test_last_token_single_row_equals_mean(self):
        m = np.array([[7.0, 8.0]])
        assert np.array_equal(select_last_token(m), mean_pool(m))

    def test_pca_mean_identical_rows_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            pool_pca_mean(np.array([[1.0, 2.0], [1.0, 2.0]]), 1)

    def test_pca_mean_worked_example(self):
        got = pool_pca_mean(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 1)
        assert got == pytest.approx(np.array([0.0]), abs=1e-9)

    def test_pca_mean_shape(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            l = int(rng.integers(3, 20))
            d = int(rng.integers(2, 10))
            n = int(rng.integers(1, min(l - 1, d) + 1))
            assert pool_pca_mean(rng.standard_normal((l, d)), n).shape == (n,)

    def test_pca_mean_insufficient_tokens(self):
        with pytest.raises(DataError, match="at least 2 token rows"):
            pool_pca_mean(np.ones((1, 4)), 1)

    def test_hybrid_concat(self):
        a = mean_pool(np.array([[1.0]]))
        b = mean_pool(np.array([[2.0, 3.0]]))
        assert np.array_equal(hybrid_concat(a, b), np.array([1.0, 2.0, 3.0]))

    def test_hybrid_concat_with_empty(self):
        b = mean_pool(np.array([[2.0, 3.0]]))
        assert np.array_equal(hybrid_concat(np.array([]), b), b)

    def test_hybrid_lengths_add(self):
        rng = np.random.default_rng(12)
        a = mean_pool(rng.standard_normal((2, 7)))
        b = select_last_token(rng.standard_normal((2, 4)))
        assert len(hybrid_concat(a, b)) == 11


class TestDimRed:
    def test_defaults(self):
        assert DimRedConfig() == DimRedConfig(axis="sequence", n_components=None)

    def test_hidden_axis_has_no_default_component_count(self):
        with pytest.raises(ConfigError, match="^hidden-axis compression requires n_components$"):
            DimRedConfig(axis="hidden")

    def test_hidden_axis_shape(self):
        # The hidden axis compresses pooled vectors with a PCA fitted on the
        # train rows; ``dimred`` compresses one token matrix and refuses it.
        rng = np.random.default_rng(13)
        train, test = rng.standard_normal((300, 512)), rng.standard_normal((40, 512))
        cfg = DimRedConfig(axis="hidden", n_components=128)
        model = pca_fit(train, cfg.n_components)
        assert pca_project(model, train).shape == (300, 128)
        assert pca_project(model, test).shape == (40, 128)
        with pytest.raises(ConfigError, match="train split"):
            dimred(train, cfg)

    def test_sequence_axis_single_component_shape(self):
        rng = np.random.default_rng(14)
        matrix = rng.standard_normal((60, 24))
        got = dimred(matrix, DimRedConfig(axis="sequence"))
        assert got.shape == (24,)

    def test_sequence_axis_equals_fit_then_project(self):
        # One centered copy serves the check, the fit and the projection;
        # the scores must match the separate public steps bit for bit.
        rng = np.random.default_rng(19)
        for l, d in ((60, 24), (24, 60)):
            matrix = rng.standard_normal((l, d))
            got = dimred(matrix, DimRedConfig(axis="sequence"))
            model = pca_fit(matrix.T, 1)
            assert np.array_equal(got, pca_project(model, matrix.T)[:, 0])

    # Even 1, the count it keeps: each compression has one spelling, so
    # equal compressions get equal config hashes.
    @pytest.mark.parametrize("n", [1, 2, 3, 128])
    def test_sequence_axis_keeps_one_component(self, n):
        message = "^'n_components' is read by no sequence-axis compression$"
        with pytest.raises(ConfigError, match=message):
            DimRedConfig(axis="sequence", n_components=n)

    def test_component_range_checks(self):
        with pytest.raises(ConfigError, match="positive"):
            DimRedConfig(axis="hidden", n_components=0)
        # The hidden axis is checked against the train rows when it is fitted.
        assert DimRedConfig(axis="hidden", n_components=4096).n_components == 4096

    def test_degenerate_input(self):
        with pytest.raises(DegenerateVarianceError):
            dimred(np.ones((5, 4)), DimRedConfig())
        # Token rows that hold one value each give every hidden dimension the
        # same profile across tokens.
        with pytest.raises(DegenerateVarianceError):
            dimred(np.arange(5.0)[:, None] * np.ones((1, 4)), DimRedConfig())

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            DimRedConfig(axis="diagonal")

    def test_shape_contract_random(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            l = int(rng.integers(1, 24))
            d = int(rng.integers(2, 12))
            got = dimred(rng.standard_normal((l, d)), DimRedConfig())
            assert got.shape == (d,)


def fresh_scores(matrix: np.ndarray) -> np.ndarray:
    """Sequence-axis scores computed by the public fit and projection, with
    no memo involved."""
    return pca_project(pca_fit(matrix.T, 1), matrix.T)[:, 0]


@pytest.fixture
def compress_calls(monkeypatch) -> list:
    """Start from an empty ``dimred`` memo and record each compression."""
    monkeypatch.setattr(representation, "_dimred_memo", None, raising=False)
    calls = []
    compress = representation._compress

    def counting(data, n_components):
        calls.append(data.shape)
        return compress(data, n_components)

    monkeypatch.setattr(representation, "_compress", counting)
    return calls


class TestDimRedMemo:
    CFG = DimRedConfig()

    def test_equal_bits_reuse_and_signed_zero_does_not(self, compress_calls):
        matrix = np.random.default_rng(30).standard_normal((9, 6))
        matrix[2, 3] = 0.0
        first = dimred(matrix, self.CFG)
        # Another object with the same bits is the same input.
        assert np.array_equal(dimred(matrix.copy(), self.CFG), first)
        assert len(compress_calls) == 1
        signed = matrix.copy()
        signed[2, 3] = -0.0
        dimred(signed, self.CFG)
        assert len(compress_calls) == 2

    def test_in_place_mutation_is_a_new_input(self, compress_calls):
        matrix = np.random.default_rng(31).standard_normal((9, 6))
        before = dimred(matrix, self.CFG)
        matrix[4] *= 3.0
        after = dimred(matrix, self.CFG)
        assert len(compress_calls) == 2
        assert np.array_equal(after, fresh_scores(matrix))
        assert not np.array_equal(after, before)

    def test_alternating_inputs_are_bit_exact(self, compress_calls):
        rng = np.random.default_rng(32)
        a, b = rng.standard_normal((9, 6)), rng.standard_normal((9, 6))
        results = [dimred(m, self.CFG) for m in (a, b, a, a)]
        for got, m in zip(results, (a, b, a, a)):
            assert np.array_equal(got, fresh_scores(m))
        assert len(compress_calls) == 3  # the last call reuses the third

    def test_degenerate_input_raises_on_every_call(self, compress_calls):
        flat = np.arange(5.0)[:, None] * np.ones((1, 4))
        for _ in range(3):
            with pytest.raises(DegenerateVarianceError):
                dimred(flat, self.CFG)
        assert len(compress_calls) == 3
        assert representation._dimred_memo is None

    def test_returned_scores_do_not_alias_the_memo(self, compress_calls):
        matrix = np.random.default_rng(33).standard_normal((9, 6))
        expected = fresh_scores(matrix)
        dimred(matrix, self.CFG)[:] = 7.0  # the computed result
        dimred(matrix, self.CFG)[:] = 7.0  # a reused result
        assert np.array_equal(dimred(matrix, self.CFG), expected)
        assert len(compress_calls) == 1
