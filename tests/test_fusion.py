"""Unit tests for score tables, late fusion, top-k accuracy, and mean pooling."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import seqcls.fusion as fusion
from score_oracle import per_row_table
from seqcls.autodiff import rng
from seqcls.errors import ConfigError, DataError, FormatError, ShapeError
from seqcls.fusion import (
    MeanPoolParams,
    ScoreTable,
    late_fuse,
    mean_pool_forward,
    read_scores,
    softmax_scores,
    top_k_accuracy,
    write_scores,
)


def random_table(gen, ids, k=4) -> ScoreTable:
    return ScoreTable(k, ids, softmax_scores(gen.normal(size=(len(ids), k))))


class TestScoreTable:
    def test_accepts_valid_distribution(self):
        t = ScoreTable(3, ["v0"], [[0.2, 0.3, 0.5]])
        assert t.ids == ["v0"]
        assert_allclose(t.rows["v0"], [0.2, 0.3, 0.5])

    def test_rejects_wrong_length(self):
        with pytest.raises(DataError):
            ScoreTable(3, ["v0"], [[0.5, 0.5]])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            ScoreTable(2, ["v0"], [[1.2, -0.2]])

    def test_rejects_bad_sum(self):
        with pytest.raises(DataError):
            ScoreTable(2, ["v0"], [[0.6, 0.6]])

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 0.5], [np.inf, 0.0]])
    def test_rejects_non_finite(self, probs):
        """NaN fails every range comparison, so it needs its own check."""
        with pytest.raises(DataError, match="finite"):
            ScoreTable(2, ["v0"], [probs])

    def test_rejects_duplicate_id(self):
        with pytest.raises(DataError):
            ScoreTable(2, ["v0", "v0"], [[0.5, 0.5], [0.5, 0.5]])

    def test_softmax_scores_is_stable(self):
        """Huge logits do not overflow and still form a distribution."""
        p = softmax_scores(np.array([1000.0, 1000.0, 999.0]))
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) <= 1e-12


# (video index, "row" or "id", the row or id it gets) on a table of 8 valid rows
FAULT_PATTERNS = [
    [(5, "row", [np.nan, 0.5, 0.5]), (2, "row", [0.6, 0.6, 0.6])],
    [(4, "row", [1.5, -0.25, -0.25]), (1, "id", "v0")],
    [(3, "id", "v1"), (6, "row", [np.inf, 0.0, 0.0])],
    [(7, "row", [0.2, 0.2, 0.2])],
    [(0, "row", [-0.0, np.nan, 1.0])],
    [(6, "id", "v2")],
]


def faulty_rows(faults) -> tuple[list[str], np.ndarray]:
    ids = [f"v{i}" for i in range(8)]
    probs = np.full((8, 3), 1.0 / 3.0)
    for i, kind, value in faults:
        if kind == "id":
            ids[i] = value
        else:
            probs[i] = value
    return ids, probs


class TestConstructorGate:
    """The constructor checks a whole matrix at once and must behave like
    the per-row oracle: the same rows, and the same first error."""

    def test_equals_the_per_row_oracle(self):
        gen = rng(3)
        ids = [f"v{i}" for i in range(50)]
        probs = softmax_scores(gen.normal(size=(50, 6)))
        fast, ref = ScoreTable(6, ids, probs), per_row_table(6, ids, probs)
        assert fast.ids == list(fast.rows) == ids
        assert fast.probs.dtype == np.float64 and fast.probs.shape == (50, 6)
        for vid in ids:
            assert fast.rows[vid].tobytes() == ref.rows[vid].tobytes()

    @pytest.mark.parametrize("faults", FAULT_PATTERNS)
    def test_raises_the_first_per_row_error(self, faults):
        ids, probs = faulty_rows(faults)
        with pytest.raises(DataError) as ref:
            per_row_table(3, ids, probs)
        with pytest.raises(DataError) as fast:
            ScoreTable(3, ids, probs)
        assert str(fast.value) == str(ref.value)

    # the last pattern gives one video a repeated id and a bad sum: the row rules come first
    @pytest.mark.parametrize("faults", FAULT_PATTERNS + [
        [(4, "id", "v1"), (4, "row", [0.6, 0.6, 0.6]), (6, "row", [np.nan, 0.5, 0.5])]])
    def test_error_row_is_the_index_of_the_first_bad_video(self, faults):
        ids, probs = faulty_rows(faults)

        def oracle_fails(n):
            try:
                per_row_table(3, ids[:n], probs[:n])
            except DataError:
                return True
            return False

        first = next(i for i in range(len(ids)) if oracle_fails(i + 1))
        with pytest.raises(DataError) as ref:
            per_row_table(3, ids, probs)
        with pytest.raises(DataError) as fast:
            ScoreTable(3, ids, probs)
        assert fast.value.row == first
        assert str(fast.value) == str(ref.value)

    def test_rejects_wrong_class_count_and_row_count(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(DataError, match="expected 3 scores"):
            ScoreTable(3, ["a", "b"], probs)
        with pytest.raises(DataError, match="3 video ids"):
            ScoreTable(2, ["a", "b", "c"], probs)
        with pytest.raises(DataError, match="0 video ids"):
            ScoreTable(3, [], np.empty((0, 2)))


class TestSoftmaxScoresMatrix:
    def test_rows_equal_per_row_softmax_bitwise(self):
        gen = rng(11)
        logits = np.concatenate([gen.normal(scale=30.0, size=(40, 7)),
                                 np.round(gen.normal(size=(20, 7)))])  # ties in the rows
        logits[3] = 0.0
        logits[4, :] = [-0.0, 0.0, -0.0, 1e300, -1e300, 5.0, 5.0]
        probs = softmax_scores(logits)
        assert probs.shape == logits.shape
        for row, p in zip(logits, probs):
            assert softmax_scores(row).tobytes() == p.tobytes()


class TestLateFuse:
    def test_matches_weighted_average_oracle(self):
        gen = rng(42)
        ids = [f"v{i}" for i in range(6)]
        tables = [random_table(gen, ids) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        fused = late_fuse(tables, weights)
        for vid in ids:
            expected = sum(w * t.rows[vid] for w, t in zip(weights, tables))
            assert_allclose(fused.rows[vid], expected, rtol=0, atol=1e-15)

    def test_self_fusion_is_bitwise_identity(self):
        """Fusing identical tables returns every row unchanged, bit for bit."""
        gen = rng(42)
        table = random_table(gen, [f"v{i}" for i in range(5)])
        fused = late_fuse([table, table, table], [1 / 3, 1 / 3, 1 / 3])
        for vid, row in table.rows.items():
            assert_array_equal(fused.rows[vid], row)

    def test_weight_validation(self):
        gen = rng(42)
        t = random_table(gen, ["a"])
        with pytest.raises(ConfigError):
            late_fuse([t, t], [0.7, 0.2])
        with pytest.raises(ConfigError):
            late_fuse([t, t], [1.5, -0.5])
        for weights in ([1.0, float("nan")], [float("inf"), 0.0]):
            with pytest.raises(ConfigError):
                late_fuse([t, t], weights)
        with pytest.raises(ConfigError):
            late_fuse([t], [float("nan")])
        with pytest.raises(ConfigError):
            late_fuse([t, t], [1.0])
        with pytest.raises(ConfigError):
            late_fuse([], [])

    def test_misaligned_tables_rejected(self):
        gen = rng(42)
        with pytest.raises(DataError):
            late_fuse([random_table(gen, ["a"]), random_table(gen, ["b"])], [0.5, 0.5])
        with pytest.raises(DataError):
            late_fuse([random_table(gen, ["a"], k=3), random_table(gen, ["a"], k=4)],
                      [0.5, 0.5])

    def test_refuses_a_fused_row_past_the_sum_tolerance(self):
        """Weights may sum to 1 + 1e-9, which can push a row at the edge of the
        table's sum rule past it; the fused table refuses that row."""
        x = 0.5 + 5e-7  # rounds below: [x, x] sums to 1 + 9.99999999918e-7
        a = ScoreTable(2, ["v"], [[0.5 - 4.999999e-7] * 2])
        b = ScoreTable(2, ["v"], [[x, x]])
        row = a.probs[0] + (1.0 + 0.9e-9) * (b.probs[0] - a.probs[0])
        assert abs(row.sum() - 1.0) > fusion.PROB_SUM_TOL
        with pytest.raises(DataError, match=r"^video 'v': scores sum to 1\.000001000") as exc:
            late_fuse([a, b], [0.0, 1.0 + 0.9e-9])
        assert exc.value.row == 0


class TestTopKAccuracy:
    def table_from(self, rows: dict[str, list[float]]) -> ScoreTable:
        return ScoreTable(len(next(iter(rows.values()))), list(rows), list(rows.values()))

    def test_hand_worked_case(self):
        t = self.table_from({"a": [0.6, 0.3, 0.1], "b": [0.2, 0.3, 0.5],
                             "c": [0.25, 0.5, 0.25]})
        labels = {"a": 0, "b": 0, "c": 1}
        assert top_k_accuracy(t, labels, 1) == pytest.approx(2 / 3)
        assert top_k_accuracy(t, labels, 2) == pytest.approx(2 / 3)
        assert top_k_accuracy(t, labels, 3) == 1.0

    def test_ties_prefer_lower_class_index(self):
        t = self.table_from({"a": [0.5, 0.5]})
        assert top_k_accuracy(t, {"a": 0}, 1) == 1.0
        assert top_k_accuracy(t, {"a": 1}, 1) == 0.0

    def test_top1_never_exceeds_top5(self):
        gen = rng(42)
        for trial in range(20):
            ids = [f"v{i}" for i in range(10)]
            t = random_table(gen, ids, k=6)
            labels = {vid: int(gen.integers(0, 6)) for vid in ids}
            assert top_k_accuracy(t, labels, 1) <= top_k_accuracy(t, labels, 5)

    def test_k_equal_classes_is_always_one(self):
        gen = rng(42)
        ids = [f"v{i}" for i in range(8)]
        t = random_table(gen, ids, k=5)
        labels = {vid: int(gen.integers(0, 5)) for vid in ids}
        assert top_k_accuracy(t, labels, 5) == 1.0

    @staticmethod
    def ref_top_k_accuracy(table: ScoreTable, labels: dict[str, int], k: int) -> float:
        """One stable argsort per row, the loop the vectorized rank replaces."""
        hits = 0
        for vid, probs in table.rows.items():
            if vid not in labels:
                raise DataError(f"video {vid!r} missing from labels")
            label = labels[vid]
            if not 0 <= label < table.num_classes:
                raise DataError(f"video {vid!r} label {label} outside [0, {table.num_classes})")
            hits += int(label in np.argsort(-probs, kind="stable")[:k])
        return hits / len(table.rows)

    def test_matches_per_row_oracle_on_ties_for_every_k(self):
        gen = rng(5)
        k = 6
        # coarse probabilities repeat within rows, so exact ties are common
        counts = gen.integers(0, 3, size=(300, k)).astype(float)
        counts[counts.sum(axis=1) == 0] = 1.0
        counts[:5] = 1.0  # all classes tied
        ids = [f"v{i}" for i in range(len(counts))]
        table = ScoreTable(k, ids, counts / counts.sum(axis=1, keepdims=True))
        labels = {vid: int(gen.integers(0, k)) for vid in ids}
        for top in range(1, k + 1):
            assert top_k_accuracy(table, labels, top) == self.ref_top_k_accuracy(table, labels, top)

    @pytest.mark.parametrize("labels", [{"a": 0, "c": 1}, {"a": 0, "b": 2, "c": 7},
                                        {"a": 9, "b": 0}, {"b": 0, "c": -1}])
    def test_label_errors_name_the_same_first_video(self, labels):
        t = self.table_from({"a": [0.5, 0.5], "b": [0.25, 0.75], "c": [1.0, 0.0]})
        with pytest.raises(DataError) as ref:
            self.ref_top_k_accuracy(t, labels, 1)
        with pytest.raises(DataError) as fast:
            top_k_accuracy(t, labels, 1)
        assert str(fast.value) == str(ref.value)

    def test_validation(self):
        with pytest.raises(DataError, match="empty score table"):
            top_k_accuracy(ScoreTable(2, [], np.empty((0, 2))), {}, 1)
        t = self.table_from({"a": [0.5, 0.5]})
        with pytest.raises(ConfigError):
            top_k_accuracy(t, {"a": 0}, 0)
        with pytest.raises(ConfigError):
            top_k_accuracy(t, {"a": 0}, 3)
        with pytest.raises(DataError):
            top_k_accuracy(t, {}, 1)
        with pytest.raises(DataError):
            top_k_accuracy(t, {"a": 5}, 1)


class TestScoreFiles:
    def test_round_trip_at_text_precision(self, tmp_path):
        gen = rng(42)
        table = random_table(gen, [f"v{i}" for i in range(5)])
        path = tmp_path / "scores.csv"
        write_scores(path, table)
        assert path.read_text().startswith("#classes=4\n")
        back = read_scores(path)
        assert back.num_classes == 4
        for vid, row in table.rows.items():
            assert_allclose(back.rows[vid], row, rtol=1e-8)

    def test_write_is_deterministic(self, tmp_path):
        gen = rng(42)
        table = random_table(gen, ["a", "b"])
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_scores(p1, table)
        write_scores(p2, table)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("v0,0.5,0.5\n")
        with pytest.raises(FormatError):
            read_scores(path)

    def test_field_count_error_names_the_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=3\nv0,0.2,0.3,0.5\nv1,0.5,0.5\n")
        with pytest.raises(FormatError, match="line 3"):
            read_scores(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=2\nv0,0.5,abc\n")
        with pytest.raises(FormatError, match="line 2"):
            read_scores(path)

    def test_bad_distribution_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=2\nv0,0.9,0.9\n")
        with pytest.raises(FormatError, match="line 2"):
            read_scores(path)

    def test_nan_scores_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=2\nv0,0.5,0.5\nv1,nan,nan\n")
        with pytest.raises(FormatError, match="line 3"):
            read_scores(path)


    @pytest.mark.parametrize("vid", ["a,b", ",", "a,,b", "0.5,0.5", "x\ty", "ends ", "é,1"])
    def test_ids_with_commas_round_trip(self, tmp_path, vid):
        table = ScoreTable(2, [vid, "plain"], np.array([[0.25, 0.75], [1.0, 0.0]]))
        path = tmp_path / "scores.csv"
        write_scores(path, table)
        back = read_scores(path)
        assert list(back.rows) == [vid, "plain"]
        assert_array_equal(back.rows[vid], [0.25, 0.75])

    @pytest.mark.parametrize("vid", ["a\nb", "a\rb", "a\r\n", " lead", "\tlead", "\x0blead"])
    def test_ids_it_cannot_give_back_are_refused_before_opening(self, tmp_path, monkeypatch,
                                                                 vid):
        table = ScoreTable(2, ["ok", vid], np.array([[0.5, 0.5], [0.5, 0.5]]))
        path = tmp_path / "scores.csv"
        path.write_text("old")

        def no_write(*args, **kwargs):
            raise AssertionError("write_scores opened its target before checking ids")

        monkeypatch.setattr(fusion, "atomic_write", no_write)
        with pytest.raises(DataError, match="cannot be written"):
            write_scores(path, table)
        assert path.read_text() == "old"

    def test_last_k_fields_are_the_scores(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=2\nv,0.9,0.25,0.75\n")
        assert list(read_scores(path).rows) == ["v,0.9"]

    def test_invalid_utf8_is_a_format_error_at_its_offset(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"#classes=2\nv0,0.5,0.5\nv\xff,0.5,0.5\n")
        with pytest.raises(FormatError, match="not valid utf-8") as exc:
            read_scores(path)
        assert exc.value.offset == 23

    def test_header_only_table_with_a_huge_class_count_writes_back(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#classes=1000000000000\n")
        table = read_scores(path)
        write_scores(tmp_path / "out.csv", late_fuse([table, table], [0.5, 0.5]))
        assert (tmp_path / "out.csv").read_text() == "#classes=1000000000000\n"


class TestMeanPoolBaseline:
    def test_matches_concat_of_means_oracle(self):
        """A ragged batch scores each video as concat(frame means) @ W + b."""
        gen = rng(42)
        params = MeanPoolParams.from_kwargs([("rgb", 3), ("flow", 2)], 4, {}, gen)
        params.classifier_b.data[...] = gen.normal(size=4)
        batch = [{"rgb": gen.normal(size=(int(gen.integers(1, 9)), 3)),
                  "flow": gen.normal(size=(int(gen.integers(1, 9)), 2))} for _ in range(7)]
        assert len({x["rgb"].shape[0] for x in batch}) > 1
        out = mean_pool_forward(params, params.prepare(batch))
        assert out.data.shape == (7, 4)
        for row, s in zip(out.data, batch):
            rep = np.concatenate([s["rgb"].mean(axis=0), s["flow"].mean(axis=0)])
            assert_allclose(row, rep @ params.classifier_w.data + params.classifier_b.data,
                            rtol=1e-12, atol=1e-12)

    def test_frame_order_changes_no_bit(self):
        gen = rng(42)
        params = MeanPoolParams.from_kwargs([("rgb", 3)], 2, {}, gen)
        x = gen.normal(size=(9, 3))
        base = mean_pool_forward(params, params.prepare([{"rgb": x}])).data
        for _ in range(10):
            shuffled = mean_pool_forward(params, params.prepare([{"rgb": x[gen.permutation(9)]}]))
            assert_array_equal(shuffled.data, base)

    def test_missing_modality_rejected(self):
        params = MeanPoolParams.from_kwargs([("rgb", 3)], 2, {}, rng(42))
        with pytest.raises(ShapeError):
            params.prepare([{}])

    def test_dim_mismatch_rejected(self):
        params = MeanPoolParams.from_kwargs([("rgb", 3)], 2, {}, rng(42))
        with pytest.raises(ShapeError):
            params.prepare([{"rgb": np.ones((4, 5))}])

    def test_init_validation(self, refused):
        """No modality or one class: build_model refuses the baseline."""
        assert "modalities" in refused("meanpool", [], 2, {})
        assert "num_classes" in refused("meanpool", [("rgb", 3)], 1, {})
