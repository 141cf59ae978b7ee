"""Planted defects that the oracle tests must catch.

Each entry names a file, a text that occurs exactly once in it, the text
that replaces it, and the tests that must fail once it is replaced.
``run_mutants.py`` applies each entry to a temporary copy of the
repository and runs its tests there; ``test_mutants.py`` (Tier-1) checks
only that every old text still occurs exactly once, so that a refactor
cannot leave an entry pointing at code that is gone.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("train-reprepares-validation", "src/seqcls/training.py",
           "evaluate(cfg.model, params, val_samples, inputs=val_inputs)",
           "evaluate(cfg.model, params, val_samples)",
           ("tests/test_training.py::TestTrainLoop::test_prepare_runs_twice_per_train_call",
            "tests/test_training.py::TestTrainLoop::test_each_epoch_scores_through_one_evaluate_call")),
    Mutant("satt-skips-canonical-order", "src/seqcls/satt.py",
           "zip(xs, _frame_orders(xs))",
           "zip(xs, [np.arange(len(x)) for x in xs])",
           ("tests/test_satt.py::TestCanonicalFrameOrder::test_evaluate_scores_bitwise",
            "tests/test_satt.py::TestSattNet::test_per_modality_permutation_invariance",
            "tests/test_model_properties.py::test_satt_logits_ignore_frame_order")),
    Mutant("pack-copies", "src/seqcls/autodiff.py",
           "v.data = flat.data[start:stop].reshape(v.data.shape)",
           "v.data = flat.data[start:stop].reshape(v.data.shape).copy()",
           ("tests/test_autodiff.py::TestBackward::test_pack_makes_leaves_views_of_one_flat_leaf",
            "tests/test_training.py::TestTrainLoop::test_parameters_stay_views_of_the_packed_leaf",
            "tests/test_model_properties.py::test_parameters_stay_views_of_the_arena_after_a_step")),
    Mutant("segment-max-drops-last-frame", "src/seqcls/autodiff.py",
           "np.arange((hi - lo).max())",
           "np.arange((hi - lo).max() - 1)",
           ("tests/test_autodiff.py::TestTemporalOps::test_adaptive_pool_matches_brute_force",
            "tests/test_autodiff.py::TestOnePassOpsMatchReference::test_adaptive_pool")),
    Mutant("read-mmf-offsets-one-sequence", "src/seqcls/data.py",
           'flat[a:b] = np.frombuffer(blob, "<f4", b - a, offset)',
           'flat[a:b] = np.frombuffer(blob, "<f4", b - a, offset + 4 * (a == starts[1]))',
           ("tests/test_bulk_io.py::TestReadMmfMatchesReference::"
            "test_valid_files_give_equal_bytes_shapes_and_ids",)),
    Mutant("op-case-checks-one-parameter", "src/seqcls/gradcheck.py",
           "lambda: op(**params)), list(params.items())",
           "lambda: op(**params)), list(params.items())[:1]",
           ("tests/test_gradcheck.py::"
            "test_every_case_checks_exactly_the_leaves_its_scalar_reaches",)),
    Mutant("depthwise-keeps-strided-gradient", "src/seqcls/autodiff.py",
           "g = np.ascontiguousarray(g)",
           "g = g",
           ("tests/test_autodiff.py::TestOnePassOpsMatchReference::"
            "test_depthwise_conv_non_contiguous_incoming_gradient",)),
    Mutant("scores-lose-a-digit", "src/seqcls/fusion.py",
           '",%.9g"',
           '",%.8g"',
           ("tests/test_bulk_io.py::TestScoreFilesMatchReference::test_write_gives_equal_bytes",)),
    Mutant("read-mmf-allows-repeats", "src/seqcls/data.py",
           "if any(entry[0] == name for entry in layout[first:]):",
           "if False:",
           ("tests/test_data.py::TestMmfErrors::"
            "test_repeated_modality_read_fails_at_the_repeated_name",)),
    Mutant("txn-clip-trainable", "src/seqcls/txn.py",
           "pointwise_conv1d(Value(np.stack(clips)),",
           "pointwise_conv1d(Value(np.stack(clips), requires_grad=True),",
           ("tests/test_training.py::TestGraphSize::test_default_step",)),
    Mutant("txn-clip-cuts-tail", "src/seqcls/txn.py",
           "x = frames[:cfg.pad_len]",
           "x = frames[-cfg.pad_len:]",
           ("tests/test_txn.py::TestPreparedClips::"
            "test_matches_per_batch_pad_and_pool_oracle_bitwise",
            "tests/test_txn.py::TestPreparedClips::test_default_clip_is_a_view_of_its_frames")),
    Mutant("depthwise-forward-reverses-taps", "src/seqcls/autodiff.py",
           "out = _tap_sum(xwin, kernels.data)",
           "out = _tap_sum(xwin[..., ::-1, :, :], kernels.data[::-1])",
           ("tests/test_autodiff.py::TestOnePassOpsMatchReference::test_depthwise_conv",)),
    Mutant("depthwise-gradient-unreversed", "src/seqcls/autodiff.py",
           "_tap_window(gpad, t)[..., ::-1, :, :]",
           "_tap_window(gpad, t)",
           ("tests/test_autodiff.py::TestOnePassOpsMatchReference::test_depthwise_conv",)),
    Mutant("table-gate-skips-sum-check", "src/seqcls/fusion.py",
           "\n                and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL)",
           "",
           ("tests/test_fusion.py::TestConstructorGate::test_raises_the_first_per_row_error",
            "tests/test_bulk_io.py::TestScoreFilesMatchReference::"
            "test_mutated_files_raise_identical_errors")),
    Mutant("table-scan-checks-repeats-first", "src/seqcls/fusion.py",
           "            if row.shape != (self.num_classes,):",
           "            if vid in seen:\n"
           "                fault = f\"duplicate video id {vid!r}\"\n"
           "            elif row.shape != (self.num_classes,):",
           ("tests/test_fusion.py::TestConstructorGate::"
            "test_error_row_is_the_index_of_the_first_bad_video",)),
    Mutant("late-fuse-skips-realignment", "src/seqcls/fusion.py",
           "q = q[[at[vid] for vid in first.ids]]",
           "q = q",
           ("tests/test_bulk_io.py::TestLateFuseMatchesReference::test_rows_are_bit_identical",)),
    Mutant("pool-returns-completion-order", "src/seqcls/gradcheck.py",
           "list(pool.map(_run_task, tasks, chunksize=1))",
           "[f.result() for f in futures.as_completed([pool.submit(_run_task, t) for t in tasks])]",
           ("tests/test_gradcheck.py::TestWorkerPool::test_one_and_two_workers_give_the_same_bytes",)),
    Mutant("read-scores-lets-a-parse-error-win", "src/seqcls/fusion.py",
           "_checked_table(k, ids, rows, linenos)  # a bad row before the fault wins",
           "pass",
           ("tests/test_bulk_io.py::TestScoreFilesMatchReference::"
            "test_bad_row_wins_over_a_later_parse_error",
            "tests/test_bulk_io.py::TestScoreFilesMatchReference::"
            "test_mutated_files_raise_identical_errors")),
    Mutant("classifier-bias-gradient-reads-one-row", "src/seqcls/autodiff.py",
           "g.reshape(-1, cout).sum(axis=0) if bias.requires_grad else None",
           "g.reshape(-1, cout)[0] if bias.requires_grad else None",
           ("tests/test_autodiff.py::TestOnePassOpsMatchReference::"
            "test_classifier_matches_the_matmul_add_composite",)),
)
