from collections import Counter

import numpy as np
import pytest

from scengen import (DensityMatrix, InputError, KrausModel, hmm,
                     belief_update, embed_hmm, hmm_forward,
                     next_symbol_distribution, qhmm, qhmm_log_likelihood,
                     qhmm_sample, qhmm_samples, random_stiefel, trainer,
                     validate_kraus)
from scengen.hmm import _flatten, _pad, _row_blocks
from scengen.qhmm import _BLOCK_BUDGET, _merged

from oracles import (all_sequences, kraus_path_probability, pad_reference,
                     qhmm_sample_reference, random_kraus_model)

LN_P_011 = -2.3018853378797726


def distinct_prefixes(rows, length):
    """The distinct length-``length`` prefixes of an array's rows, sorted."""
    return sorted({tuple(row[:length]) for row in rows.tolist()})


# qhmm_samples rows of two seeded random_kraus_models, recorded before the
# sampler read its probabilities from the effects (TestSamples.test_golden_rows)
GOLDEN_K4 = [[2, 0, 1, 1, 0, 1, 1, 2], [2, 0, 0, 1, 0, 2, 2, 0], [1, 2, 0, 0, 0, 1, 2, 1],
             [2, 2, 1, 0, 0, 2, 1, 2], [1, 0, 1, 2, 1, 1, 1, 1], [2, 1, 0, 2, 0, 0, 0, 0]]
GOLDEN_K16 = [[2, 2, 0, 0, 2, 3, 0, 0], [2, 1, 1, 1, 0, 1, 1, 1], [2, 2, 2, 3, 0, 2, 2, 3],
              [3, 0, 3, 1, 2, 3, 3, 3], [2, 3, 1, 0, 0, 2, 3, 1], [2, 0, 3, 1, 3, 2, 3, 1],
              [0, 1, 1, 1, 3, 1, 3, 0], [2, 1, 0, 1, 3, 2, 2, 3], [2, 0, 0, 2, 1, 0, 3, 1],
              [3, 1, 2, 2, 0, 2, 1, 1]]
GOLDEN_K16_PREFIX_0 = [[2, 2, 0, 0, 2, 3, 0, 0], [2, 1, 1, 1, 0, 1, 1, 1],
                       [2, 2, 2, 3, 0, 2, 2, 3], [3, 0, 3, 1, 2, 3, 3, 3],
                       [2, 3, 1, 0, 0, 2, 3, 1], [2, 0, 3, 1, 3, 2, 3, 1],
                       [0, 1, 1, 1, 3, 1, 3, 0], [2, 1, 0, 1, 3, 2, 2, 3],
                       [1, 0, 0, 2, 1, 0, 3, 1], [3, 1, 2, 2, 0, 2, 1, 1]]


def identity_channel():
    return KrausModel(np.eye(1, dtype=complex).reshape(1, 1, 1, 1),
                      DensityMatrix.maximally_mixed(1))


def projective_model():
    ops = np.zeros((2, 1, 2, 2), dtype=complex)
    ops[0, 0] = np.diag([1.0, 0.0])
    ops[1, 0] = np.diag([0.0, 1.0])
    return KrausModel(ops, DensityMatrix.maximally_mixed(2))


class TestDensityMatrix:
    def test_valid_constructions(self):
        DensityMatrix(np.eye(3) / 3)
        DensityMatrix.pure(4, 2)
        DensityMatrix.from_diagonal([0.25, 0.75])

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            DensityMatrix([[0.5, 0.4], [0.1, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityMatrix(np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestKrausModel:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            KrausModel(np.zeros((2, 1, 2, 3)), DensityMatrix.maximally_mixed(2))
        with pytest.raises(InputError):
            KrausModel(np.zeros((2, 1, 3, 3)), DensityMatrix.maximally_mixed(2))

    def test_stiefel_round_trip(self):
        rng = np.random.default_rng(0)
        model = random_kraus_model(rng, 3, 2, multiplicity=2)
        stacked = model.to_stiefel()
        assert stacked.shape == (2 * 2 * 3, 3)
        clone = KrausModel.from_stiefel(stacked, 2, 2, model.initial_state)
        np.testing.assert_array_equal(clone.operators, model.operators)

    def test_from_stiefel_rejects_bad_rows(self):
        with pytest.raises(InputError):
            KrausModel.from_stiefel(np.eye(3, 2), 2, 1,
                                    DensityMatrix.maximally_mixed(2))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(1)
        model = random_kraus_model(rng, 2, 3, multiplicity=2)
        payload = model.to_dict()
        assert payload["type"] == "qhmm"
        assert np.asarray(payload["kraus_re"]).shape == (3, 2, 2, 2)
        clone = KrausModel.from_dict(payload)
        np.testing.assert_array_equal(clone.operators, model.operators)
        np.testing.assert_array_equal(clone.initial_state.matrix,
                                      model.initial_state.matrix)

    def test_from_dict_rejects_mismatched_header(self):
        payload = identity_channel().to_dict()
        payload["mu"] = 2
        with pytest.raises(InputError):
            KrausModel.from_dict(payload)


class TestBeliefUpdate:
    def test_identity_channel_is_a_fixed_point(self):
        model = identity_channel()
        rho, prob = belief_update(model.initial_state, model, 0)
        assert prob == 1.0
        np.testing.assert_array_equal(rho.matrix, model.initial_state.matrix)

    def test_projective_measurement_collapses(self):
        model = projective_model()
        rho, prob = belief_update(model.initial_state, model, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_kraus_model(rng, 3, 2, multiplicity=2)
            rho = model.initial_state
            total = sum(belief_update(rho, model, x)[1] for x in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_updated_belief_stays_valid(self):
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 3, 3, multiplicity=2)
        rho = model.initial_state
        for x in (0, 2, 1, 1, 0):
            rho, prob = belief_update(rho, model, x)
            assert 0.0 <= prob <= 1.0
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert abs(m.trace() - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-9

    def test_impossible_symbol_flags_invalid(self):
        model = projective_model()
        collapsed, _ = belief_update(DensityMatrix.pure(2, 0), model, 0)
        rho, prob = belief_update(collapsed, model, 1)
        assert rho is None
        assert prob == 0.0

    def test_symbol_out_of_range(self):
        with pytest.raises(InputError):
            belief_update(DensityMatrix.maximally_mixed(2), projective_model(), 2)


class TestLogLikelihood:
    def test_identity_channel_is_certain(self):
        model = identity_channel()
        assert qhmm_log_likelihood(model, [0, 0, 0, 0]) == 0.0

    def test_projective_hand_computation(self):
        model = projective_model()
        assert qhmm_log_likelihood(model, [0, 0]) == pytest.approx(np.log(0.5),
                                                                   abs=1e-12)

    def test_matches_belief_update_chain(self):
        rng = np.random.default_rng(4)
        model = random_kraus_model(rng, 3, 2, multiplicity=2)
        seq = [0, 1, 1, 0, 1]
        rho, total = model.initial_state, 0.0
        for x in seq:
            rho, prob = belief_update(rho, model, x)
            total += np.log(prob)
        assert qhmm_log_likelihood(model, seq) == pytest.approx(total, abs=1e-10)

    def test_matches_kraus_path_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            model = random_kraus_model(rng, int(rng.integers(1, 4)),
                                       int(rng.integers(1, 4)),
                                       multiplicity=int(rng.integers(1, 3)))
            seq = list(rng.integers(0, model.alphabet_size,
                                    size=int(rng.integers(1, 5))))
            want = kraus_path_probability(model, seq)
            assert np.exp(qhmm_log_likelihood(model, seq)) == pytest.approx(
                want, rel=1e-10)

    @pytest.mark.parametrize("k,m,mu,length", [(3, 3, 2, 4), (2, 2, 1, 5)])
    def test_total_probability_sums_to_one(self, k, m, mu, length):
        model = random_kraus_model(np.random.default_rng(k + m), k, m, mu)
        total = sum(np.exp(qhmm_log_likelihood(model, list(seq)))
                    for seq in all_sequences(m, length))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_underflow_reports_minus_inf(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_log_likelihood(model, [0, 1]) == float("-inf")


def loss_and_gradient(operators, rho0, padded, lengths):
    """:func:`qhmm._loss_and_gradient` of one run."""
    ((log_probs, grad),) = qhmm._loss_and_gradient([(operators, padded, lengths)], rho0)
    return log_probs, grad


def filter_renormalizing_every_step(operators, rho0, padded, lengths, history):
    """The row filter of :func:`qhmm._loss_and_gradient` with the beliefs
    renormalized after every step of a block, its last step included."""
    log_probs = np.zeros(len(lengths))
    for rows in _row_blocks(len(lengths), rho0.shape[0] ** 2, _BLOCK_BUDGET):
        symbols, block_ll, block_len = padded[rows], log_probs[rows], lengths[rows]
        rho = rho0[None]
        for t in range(block_len[0]):
            n = int(np.count_nonzero(block_len > t))
            updated, probs = qhmm._kraus_step(operators, rho[:n], symbols[:n, t])
            dead = probs <= qhmm.UNDERFLOW_PROB
            block_ll[:n][dead] = -np.inf
            probs = np.where(dead, 1.0, probs)
            history.append((rho[:n], probs))
            block_ll[:n] += np.log(probs)
            rho = qhmm._renormalize(updated, probs)
    return log_probs


def tree_log_likelihoods(pairs, padded, lengths):
    """:func:`qhmm._log_likelihoods` of padded rows in any order: sorted by
    :func:`hmm._lexicographic`, as :func:`hmm._prefix_rows` sorts them, and
    returned in row order."""
    places, starts = hmm._lexicographic(padded, lengths)
    got, filtered = qhmm._log_likelihoods(pairs, padded[places], lengths[places], starts)
    log_probs = np.empty_like(got)
    log_probs[:, places] = got
    return log_probs, filtered


def filtered_history(ops, rho0, padded, lengths):
    """Log-probabilities of padded rows that fit one row block, each its own
    path, and the history :func:`qhmm._filter` keeps while filtering them."""
    log_probs, history = np.zeros(len(lengths)), []
    qhmm._filter(ops, rho0, qhmm._running_layout(padded, lengths, log_probs), history)
    return log_probs, history


class TestPropagate:
    def test_skipping_each_blocks_last_renormalization_changes_nothing(
            self, monkeypatch):
        # 300 rows of lengths 1 to 7 over three 128-row blocks at K=4;
        # symbol 2 cannot be emitted, so every 50th row underflows
        rng = np.random.default_rng(4)
        ops = random_kraus_model(rng, 4, 3).operators.copy()
        ops[2] = 0.0
        lengths = np.sort(rng.integers(1, 8, size=300))[::-1]
        padded = rng.integers(0, 2, size=(300, 7)) * (np.arange(7) < lengths[:, None])
        padded[::50, 0] = 2
        rho0 = DensityMatrix.maximally_mixed(4).matrix
        want_history = []
        want = filter_renormalizing_every_step(ops, rho0, padded, lengths, want_history)
        assert np.isinf(want).sum() == 6 and np.isfinite(want).sum() == 294
        real, calls = qhmm._renormalize, []

        def counted(updated, probs):
            calls.append(len(probs))
            return real(updated, probs)

        monkeypatch.setattr(qhmm, "_renormalize", counted)
        got, _ = loss_and_gradient(ops, rho0, padded, lengths)
        np.testing.assert_array_equal(got, want)
        # steps - 1 renormalizations per block
        blocks = _row_blocks(300, 16, _BLOCK_BUDGET)
        assert len(blocks) == 3
        assert len(calls) == sum(lengths[rows][0] - 1 for rows in blocks)
        # the history that the loss and gradient run backwards over
        history = [entry for rows in blocks
                   for entry in filtered_history(ops, rho0, padded[rows], lengths[rows])[1]]
        assert len(history) == len(want_history)
        for (rho, probs), (want_rho, want_probs) in zip(history, want_history):
            np.testing.assert_array_equal(rho, want_rho)
            np.testing.assert_array_equal(probs, want_probs)


class TestRowFilterBits:
    """Rows filtered together in row blocks, and rows filtered on a prefix
    tree, keep the bits of the same rows filtered one at a time."""

    @staticmethod
    def instance(k, m, mu, count):
        # symbol m - 1 cannot be emitted, so the rows starting with it
        # underflow at their first step and the rows holding it later
        rng = np.random.default_rng(10 * k + m)
        ops = random_kraus_model(rng, k, m, mu).operators.copy()
        ops[m - 1] = 0.0
        lengths = np.sort(rng.integers(1, 8, size=count))[::-1]
        padded = rng.integers(0, m - 1, size=(count, 7)) * (np.arange(7) < lengths[:, None])
        padded[::7, 0] = m - 1
        padded[3::11, 2] = m - 1
        return ops, DensityMatrix.maximally_mixed(k).matrix, padded, lengths

    @staticmethod
    def one_row_at_a_time(ops, rho0, padded, lengths):
        rows = []
        for i in range(len(lengths)):
            log_prob, history = filtered_history(ops, rho0, padded[i:i + 1],
                                                 lengths[i:i + 1])
            rows.append((log_prob[0], history))
        return rows

    @pytest.mark.parametrize("k, m, mu, count", [(4, 3, 1, 300), (16, 8, 2, 40)])
    def test_log_likelihoods_match_the_row_filter(self, monkeypatch, k, m, mu, count):
        # the prefix tree against rows filtered one at a time and the
        # forward pass of the loss, over several row blocks with
        # underflowing rows; several pairs in one call share each block's
        # tree and equal one call per pair
        ops, rho0, padded, lengths = self.instance(k, m, mu, count)
        other = random_kraus_model(np.random.default_rng(k), k, m, mu).operators
        pairs = [(ops, rho0), (other, rho0), (ops, DensityMatrix.pure(k).matrix)]
        real_layout, trees = hmm._prefix_layout, []

        def recording(symbols, lengths, starts):
            trees.append(len(lengths))
            return real_layout(symbols, lengths, starts)

        monkeypatch.setattr(hmm, "_prefix_layout", recording)
        got, filtered = tree_log_likelihoods(pairs, padded, lengths)
        assert trees == [len(lengths[rows]) for rows in _row_blocks(count, k * k, _BLOCK_BUDGET)]
        monkeypatch.undo()
        want = self.one_row_at_a_time(ops, rho0, padded, lengths)
        np.testing.assert_array_equal(got[0], [log_prob for log_prob, _ in want])
        for (operators, initial), row in zip(pairs, got):
            np.testing.assert_array_equal(
                row, loss_and_gradient(operators, initial, padded, lengths)[0])
            alone, nodes = tree_log_likelihoods([(operators, initial)], padded, lengths)
            np.testing.assert_array_equal(alone[0], row)
            assert filtered == 3 * nodes
        assert np.isinf(got[0]).sum() > 1 and np.isfinite(got[0]).sum() > 1

    @pytest.mark.parametrize("k, m, mu, count", [(4, 3, 1, 300), (16, 8, 2, 40)])
    def test_loss_and_gradient_forward_is_bit_identical_to_one_row_calls(
            self, monkeypatch, k, m, mu, count):
        ops, rho0, padded, lengths = self.instance(k, m, mu, count)
        want = self.one_row_at_a_time(ops, rho0, padded, lengths)
        real_filter, blocks = qhmm._filter, []

        def recording(operators, rho0, steps, history=None):
            blocks.append((len(steps[0][2]), history))
            return real_filter(operators, rho0, steps, history)

        monkeypatch.setattr(qhmm, "_filter", recording)
        log_probs, _ = loss_and_gradient(ops, rho0, padded, lengths)
        np.testing.assert_array_equal(log_probs, [log_prob for log_prob, _ in want])
        # each row's history is its own call's
        assert len(blocks) >= 3
        start = 0
        for rows, history in blocks:
            for t, (rho, probs) in enumerate(history):
                for j in range(len(probs)):
                    want_rho, want_probs = want[start + j][1][t]
                    np.testing.assert_array_equal(probs[j:j + 1], want_probs)
                    np.testing.assert_array_equal(rho[j:j + 1] if t else rho, want_rho)
            start += rows
        assert start == count


def kernel_rows(padded, lengths):
    """Padded rows as (length, symbols) pairs."""
    return [(length, tuple(row[:length])) for length, row in zip(lengths.tolist(),
                                                                 padded.tolist())]


class TestLossAndGradient:
    """Runs passed to one call share kernel calls of whole runs, which stack
    their operators and merge their rows longest first; each run gets the
    log-probabilities and the gradient of a call over its own rows and
    operators."""

    @staticmethod
    def record_row_kernel(monkeypatch):
        real, calls = qhmm._row_kernel, []

        def recording(operators, rho0, padded, lengths):
            calls.append((len(operators), kernel_rows(padded, lengths), padded.shape[1]))
            return real(operators, rho0, padded, lengths)

        monkeypatch.setattr(qhmm, "_row_kernel", recording)
        return calls

    @pytest.mark.parametrize("k, mu", [(1, 1), (4, 1), (16, 2)])
    def test_merged_runs_get_the_results_of_their_own_calls(self, monkeypatch, k, mu):
        # runs A and B, alphabets 2 and 3, stacked as symbols 0-1 and 2-4;
        # B's symbol 2 cannot be emitted, so its one row holding it
        # underflows. The rows have tied lengths, and A's row 1 is also one
        # of B's, as two seeds of one dataset share their rows
        rng = np.random.default_rng(k + mu)
        models = [random_kraus_model(rng, k, m, mu).operators.copy() for m in (2, 3)]
        models[1][2] = 0.0
        rho0 = DensityMatrix.maximally_mixed(k).matrix
        half = min(10, _BLOCK_BUDGET // k ** 2 // 2)

        def rows(count):
            return [tuple(int(x) for x in rng.integers(0, 2, size=1 + i % 4))
                    for i in range(count)]

        a, b = rows(half), rows(half - 2)
        b += [a[1], (0, 2, 1)]
        runs = [(model, *pad_reference(part, len(model))[:2])
                for model, part in zip(models, (a, b))]
        calls = self.record_row_kernel(monkeypatch)
        got = qhmm._loss_and_gradient(runs, rho0)
        # one kernel call over both runs, B's symbols offset past A's
        ((symbols, merged, _),) = calls
        rows_a, rows_b = (kernel_rows(*run[1:]) for run in runs)
        rows_b = [(length, tuple(x + 2 for x in row)) for length, row in rows_b]
        assert symbols == 5 and merged == sorted(rows_a + rows_b, key=lambda row: -row[0])
        assert len(set(length for length, _ in merged)) < len(merged)  # ties
        for (model, padded, lengths), (log_probs, grad) in zip(runs, got):
            want_log_probs, want = qhmm._loss_and_gradient([(model, padded, lengths)], rho0)[0]
            np.testing.assert_array_equal(log_probs, want_log_probs)
            np.testing.assert_array_equal(grad, want)
            np.testing.assert_array_equal(
                log_probs, tree_log_likelihoods([(model, rho0)], padded, lengths)[0][0])
            assert np.isfinite(grad).all() and np.abs(grad).max() > 0
        assert [np.isinf(log_probs).sum() for log_probs, _ in got] == [0, 1]

    @pytest.mark.parametrize("k, mu", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_merged_calls_of_more_than_128_rows_match_their_own_calls(
            self, monkeypatch, k, mu):
        # four runs of alphabets 2 to 5 whose rows, of lengths 1 to 8, merge
        # into one call of 400 rows (at K=3 one 227-row block), so each
        # symbol's gradient sums the terms of many rows beside other runs'
        rng = np.random.default_rng(10 * k + mu)
        rho0 = DensityMatrix.maximally_mixed(k).matrix
        total = min(_BLOCK_BUDGET // k ** 2, 400)
        counts = [total // 4, total // 3, total // 5]
        counts.append(total - sum(counts))
        runs = []
        for alphabet, count in zip((3, 2, 5, 4), counts):
            rows = [tuple(rng.integers(0, alphabet, size=int(rng.integers(1, 9))).tolist())
                    for _ in range(count)]
            runs.append((random_kraus_model(rng, k, alphabet, mu).operators,
                         *pad_reference(rows, alphabet)[:2]))
        calls = self.record_row_kernel(monkeypatch)
        got = qhmm._loss_and_gradient(runs, rho0)
        ((symbols, merged, _),) = calls
        assert symbols == 14 and len(merged) == total > 128
        monkeypatch.undo()
        for one_run, (log_probs, grad) in zip(runs, got):
            ((want_log_probs, want),) = qhmm._loss_and_gradient([one_run], rho0)
            np.testing.assert_array_equal(log_probs, want_log_probs)
            np.testing.assert_array_equal(grad, want)

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_runs_share_calls_of_whole_runs_up_to_the_cap(self, monkeypatch, k):
        # five runs of alphabets 2 and 3 and of widths 2 to 6, packed in
        # order into calls of at most one row block: A and B fill the first
        # call, C is above the cap and a call of its own, and D and E share
        # the last
        cap = _BLOCK_BUDGET // k ** 2
        rng = np.random.default_rng(k)
        rho0 = DensityMatrix.maximally_mixed(k).matrix

        def run(alphabet, count, width):
            rows = [tuple(rng.integers(0, alphabet, size=width).tolist())]
            rows += [tuple(rng.integers(0, alphabet, size=int(rng.integers(1, width + 1))))
                     for _ in range(count - 1)]
            return (random_kraus_model(rng, k, alphabet).operators,
                    *pad_reference(rows, alphabet)[:2])

        runs = [run(2, cap // 2, 3), run(3, cap - cap // 2, 6), run(2, cap + 1, 4),
                run(3, 1, 2), run(2, 2, 5)]
        calls = self.record_row_kernel(monkeypatch)
        got = qhmm._loss_and_gradient(runs, rho0)
        assert [(symbols, len(rows), width) for symbols, rows, width in calls] \
            == [(5, cap, 6), (2, cap + 1, 4), (5, 3, 5)]
        for (_, rows, _), members in zip(calls, [runs[:2], runs[2:3], runs[3:]]):
            offsets, want = [0, len(members[0][0])], []
            for (_, padded, lengths), offset in zip(members, offsets):
                want += [(length, tuple(x + offset for x in row))
                         for length, row in kernel_rows(padded, lengths)]
            assert rows == sorted(want, key=lambda row: -row[0])
        monkeypatch.undo()
        assert len(got) == len(runs)
        for one_run, (log_probs, grad) in zip(runs, got):
            ((want_log_probs, want),) = qhmm._loss_and_gradient([one_run], rho0)
            np.testing.assert_array_equal(log_probs, want_log_probs)
            np.testing.assert_array_equal(grad, want)
            assert grad.shape == one_run[0].shape


class TestSample:
    def test_projective_from_pure_state_is_constant(self):
        ops = projective_model().operators
        model = KrausModel(ops, DensityMatrix.pure(2, 0))
        assert qhmm_sample(model, 6, 3) == [0, 0, 0, 0, 0, 0]

    def test_seed_determinism(self):
        model = random_kraus_model(np.random.default_rng(6), 2, 2)
        assert qhmm_sample(model, 20, 7) == qhmm_sample(model, 20, 7)
        assert qhmm_sample(model, 20, 7) != qhmm_sample(model, 20, 8)

    def test_step_distributions_sum_to_one(self):
        model = random_kraus_model(np.random.default_rng(8), 3, 3, 2)
        rho = model.initial_state
        probs = next_symbol_distribution(model, rho)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_next_symbol_distribution_is_a_ratio_of_path_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            model = random_kraus_model(rng, int(rng.integers(1, 5)),
                                       int(rng.integers(2, 4)),
                                       multiplicity=int(rng.integers(1, 3)))
            seq = rng.integers(0, model.alphabet_size,
                               size=int(rng.integers(0, 4))).tolist()
            rho = model.initial_state
            for x in seq:
                rho, _ = belief_update(rho, model, x)
            want = [kraus_path_probability(model, seq + [x])
                    / kraus_path_probability(model, seq)
                    for x in range(model.alphabet_size)]
            np.testing.assert_allclose(next_symbol_distribution(model, rho), want,
                                       rtol=0, atol=1e-12)

    def test_effects_sum_to_identity_within_the_completeness_residual(self):
        scaled = KrausModel.from_stiefel(random_stiefel(12, 3, 0).matrix * (1.0 + 4e-9),
                                         2, 2, DensityMatrix.maximally_mixed(3))
        models = [scaled] + [random_kraus_model(np.random.default_rng(seed), k, m, mu)
                             for seed, (k, m, mu) in enumerate([(4, 8, 1), (16, 8, 2),
                                                                (3, 2, 3)])]
        for model in models:
            report = validate_kraus(model)
            assert report.passes
            k = model.dim
            total = qhmm._effects(model.operators).sum(axis=0).reshape(k, k)
            # the residual sums the same products in another order
            slack = model.to_stiefel().shape[0] * np.finfo(float).eps
            assert np.abs(total - np.eye(k)).max() <= report.completeness_residual + slack

    def test_length_one_frequencies_match_analytic(self):
        model = random_kraus_model(np.random.default_rng(9), 2, 2)
        want = next_symbol_distribution(model, model.initial_state)
        # the rows of one batched call are the draws of 100,000 sequential
        # one-row calls on this generator (TestSamples pins that)
        draws = qhmm_samples(model, 1, 100_000, np.random.default_rng(99))[:, 0]
        assert abs(draws.mean() - want[1]) < 0.01
        assert qhmm_sample(model, 1, 99) == qhmm_sample_reference(model, 1, 99)

    def test_any_model_passing_validation_samples(self):
        # a completeness residual of 8e-9 passes validate_kraus, so sampling
        # must accept the probability sum it moves (by at most K * 8e-9)
        stacked = random_stiefel(6, 3, 0).matrix * (1.0 + 4e-9)
        model = KrausModel.from_stiefel(stacked, 2, 1, DensityMatrix.maximally_mixed(3))
        report = validate_kraus(model)
        assert report.passes and report.completeness_residual > 1e-9
        assert len(qhmm_sample(model, 10, 0)) == 10

    def test_incomplete_model_is_rejected(self):
        ops = np.full((1, 1, 1, 1), 1.1, dtype=complex)
        model = KrausModel(ops, DensityMatrix.maximally_mixed(1))
        with pytest.raises(InputError):
            qhmm_sample(model, 3, 0)

    def test_prefix_conditioning(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_sample(model, 3, 0, prefix=[0]) == [0, 0, 0]
        with pytest.raises(InputError):
            qhmm_sample(model, 3, 0, prefix=[1])


class TestSamples:
    """The batched sampler against one-sample reference calls on one generator."""

    @pytest.mark.parametrize("prefix", [(), (0,), (1, 0)])
    @pytest.mark.parametrize("k, m, mu, count, blocks", [
        (4, 8, 1, 400, 4),    # 128 beliefs per kernel call
        (16, 8, 2, 3, 1),     # 4 beliefs per kernel call
        (16, 8, 2, 10, 3),
        (2, 3, 1, 0, 0),
    ])
    def test_rows_equal_sequential_reference_calls(self, k, m, mu, count, blocks, prefix):
        # the reference reads each step's probabilities from the traces of
        # every symbol's Kraus update, not from the effects
        assert len(_row_blocks(count, mu * k ** 2, _BLOCK_BUDGET)) == blocks
        model = random_kraus_model(np.random.default_rng(k + m + mu), k, m, mu)
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = [qhmm_sample_reference(model, 6, want_rng, prefix=prefix)
                for _ in range(count)]
        got = qhmm_samples(model, 6, count, got_rng, prefix=prefix)
        assert got.shape == (count, 6) and got.dtype == np.int64
        assert got.tolist() == want
        # the shared generator ends where the sequential calls left it
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("k, m, mu, count", [(4, 8, 1, 400), (16, 8, 2, 40)])
    def test_kernel_calls_stay_within_one_row_block(self, monkeypatch, k, m, mu, count):
        # the per-step temporaries hold at most one block of beliefs, one
        # Kraus update each, however many distinct prefixes a step advances
        real_step, rows = qhmm._kraus_step, []

        def recording_step(operators, rho, symbols):
            rows.append(len(symbols))
            return real_step(operators, rho, symbols)

        monkeypatch.setattr(qhmm, "_kraus_step", recording_step)
        model = random_kraus_model(np.random.default_rng(1), k, m, mu)
        got = qhmm_samples(model, 4, count, 0, prefix=[0])
        cap = _BLOCK_BUDGET // (mu * k ** 2)
        assert max(len(distinct_prefixes(got, t)) for t in range(1, 4)) > cap
        assert max(rows) == cap

    @pytest.mark.parametrize("prefix", [(), (2,), (1, 0, 2)])
    @pytest.mark.parametrize("k, m, mu, count", [(4, 8, 1, 300), (16, 3, 2, 9)])
    def test_kraus_updates_only_by_drawn_or_prefix_symbols(self, monkeypatch, k, m, mu,
                                                           count, prefix):
        real_step, seen = qhmm._kraus_step, []

        def recording_step(operators, rho, symbols):
            seen.append(symbols.tolist())
            return real_step(operators, rho, symbols)

        monkeypatch.setattr(qhmm, "_kraus_step", recording_step)
        model = random_kraus_model(np.random.default_rng(k + mu), k, m, mu)
        got = qhmm_samples(model, 5, count, 4, prefix=prefix)
        cap = _BLOCK_BUDGET // (mu * k ** 2)
        # each prefix symbol alone, then, at every step but the last (whose
        # update nothing reads), each distinct drawn prefix once, in
        # lexicographic order and in calls of at most cap beliefs
        want = [[x] for x in prefix]
        for t in range(1, 5):
            last = [p[-1] for p in distinct_prefixes(got, t)]
            want += [last[start:start + cap] for start in range(0, len(last), cap)]
        assert len(distinct_prefixes(got, 4)) > cap
        assert len(distinct_prefixes(got, 4)) < count
        assert seen == want

    def test_work_counts_the_beliefs_advanced(self):
        model = random_kraus_model(np.random.default_rng(6), 4, 3, 1)
        work = Counter()
        got = qhmm_samples(model, 6, 200, 8, work=work)
        assert work == {"beliefs_advanced": sum(len(distinct_prefixes(got, t))
                                                for t in range(1, 6))}
        assert work["beliefs_advanced"] < 5 * 200
        # the prefix's updates are not drawn ones
        work = Counter()
        qhmm_samples(model, 1, 200, 8, prefix=[0, 1], work=work)
        assert work == {"beliefs_advanced": 0}

    def test_golden_rows(self):
        # rows recorded from the sampler that read every step's probabilities
        # from the traces of every symbol's Kraus update
        small = random_kraus_model(np.random.default_rng(401), 4, 3, 1)
        assert qhmm_samples(small, 8, 6, 17).tolist() == GOLDEN_K4
        wide = random_kraus_model(np.random.default_rng(1602), 16, 4, 2)
        assert qhmm_samples(wide, 8, 10, 23).tolist() == GOLDEN_K16
        assert qhmm_samples(wide, 8, 10, 23, prefix=(0,)).tolist() == GOLDEN_K16_PREFIX_0

    def test_one_row_call_is_a_list_of_the_reference(self):
        model = random_kraus_model(np.random.default_rng(3), 3, 4, 2)
        assert qhmm_sample(model, 9, 11, prefix=[2]) == \
            qhmm_sample_reference(model, 9, 11, prefix=[2])

    def test_incomplete_model_error_is_unchanged(self):
        ops = np.full((1, 1, 1, 1), 1.1, dtype=complex)
        model = KrausModel(ops, DensityMatrix.maximally_mixed(1))
        message = "per-symbol probabilities do not sum to 1"
        with pytest.raises(InputError, match=message):
            qhmm_sample_reference(model, 3, 0)
        with pytest.raises(InputError, match=message):
            qhmm_samples(model, 3, 20, 0)

    def test_zero_probability_prefix_error_is_unchanged(self, det_hmm):
        model = embed_hmm(det_hmm)
        message = "prefix has zero probability under the model"
        with pytest.raises(InputError, match=message):
            qhmm_sample_reference(model, 3, 0, prefix=[0, 1])
        for count in (0, 5):
            with pytest.raises(InputError, match=message):
                qhmm_samples(model, 3, count, 0, prefix=[0, 1])

    def test_bad_length_or_count_is_rejected_before_sampling(self):
        model = random_kraus_model(np.random.default_rng(2), 2, 2)
        for length, count in ((0, 0), (0, 3), (2, -1)):
            with pytest.raises(InputError):
                qhmm_samples(model, length, count, 0)

class TestEmbedHmm:
    def test_single_state_scalar(self, single_state_hmm):
        model = embed_hmm(single_state_hmm)
        assert model.dim == 1 and model.multiplicity == 1
        np.testing.assert_allclose(model.operators[0, 0], [[np.sqrt(0.5)]])
        # sqrt(0.5)**2 lands one ulp from 0.5, so "exact" means machine epsilon
        assert validate_kraus(model).completeness_residual <= 1e-15

    def test_deterministic_chain_probabilities(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_log_likelihood(model, [0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert qhmm_log_likelihood(model, [0, 1]) == float("-inf")

    def test_reference_all_length_three_sequences(self, ref_hmm):
        model = embed_hmm(ref_hmm)
        for seq in all_sequences(2, 3):
            want = hmm_forward(ref_hmm, list(seq)).log_likelihood
            got = qhmm_log_likelihood(model, list(seq))
            assert got == pytest.approx(want, rel=1e-10)

    def test_reference_frozen_value(self, ref_hmm):
        got = qhmm_log_likelihood(embed_hmm(ref_hmm), [0, 1, 1])
        assert got == pytest.approx(LN_P_011, abs=1e-12)

    def test_multiplicity_equals_num_states(self, ref_hmm):
        model = embed_hmm(ref_hmm)
        assert model.multiplicity == ref_hmm.num_states
        assert model.initial_state.matrix[0, 0] == ref_hmm.start[0]

    def test_completeness_holds(self):
        rng = np.random.default_rng(10)
        from oracles import random_hmm
        for _ in range(5):
            hmm = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            assert validate_kraus(embed_hmm(hmm)).passes


class TestValidateKraus:
    def test_identity_channel_all_zero_residuals(self):
        report = validate_kraus(identity_channel())
        assert report.completeness_residual == 0.0
        assert report.state_hermiticity_residual == 0.0
        assert report.state_trace_residual == 0.0
        assert report.state_min_eigenvalue == pytest.approx(1.0)
        assert report.passes

    def test_scaled_operator_breaks_completeness(self):
        ops = np.full((1, 1, 1, 1), 1.1, dtype=complex)
        model = KrausModel(ops, DensityMatrix.maximally_mixed(1))
        report = validate_kraus(model)
        assert report.completeness_residual == pytest.approx(0.21, abs=1e-12)
        assert not report.passes

    def test_completeness_is_the_residual_training_accepts_by(self):
        # one residual for one constraint, so a point that training accepts
        # cannot fail the completeness check at the tolerance boundary
        rng = np.random.default_rng(12)
        for _ in range(100):
            k, m, mu = (int(rng.integers(lo, hi)) for lo, hi in ((2, 17), (1, 4), (1, 3)))
            point = random_stiefel(m * mu * k, k, int(rng.integers(2**31)))
            model = KrausModel.from_stiefel(point.matrix, m, mu,
                                            DensityMatrix.maximally_mixed(k))
            assert validate_kraus(model).completeness_residual == point.residual()

    def test_one_residual_function(self):
        from scengen import orthonormality_residual, trainer
        assert trainer.orthonormality_residual is orthonormality_residual \
            is qhmm.orthonormality_residual

    def test_random_stiefel_model_passes(self):
        model = random_kraus_model(np.random.default_rng(11), 3, 2, 2)
        report = validate_kraus(model)
        assert report.completeness_residual <= 1e-8
        assert report.passes


class TestMerged:
    def test_rows_merge_longest_first_with_offset_symbols(self):
        # three runs of widths 4, 5 and 2 and alphabets 3, 4 and 6, with
        # lengths tied across runs
        rng = np.random.default_rng(4)
        alphabets, widths = [3, 4, 6], [4, 5, 2]
        runs = []
        for m, width in zip(alphabets, widths):
            sequences = [list(rng.integers(0, m, size=length))
                         for length in rng.integers(1, width + 1, size=7)]
            sequences[0] = list(rng.integers(0, m, size=width))
            runs.append(_pad(*_flatten(sequences), m)[:2])
        offsets = [0, 3, 7]
        padded, lengths, order = _merged(runs, offsets)
        assert padded.shape == (21, 5) and padded.dtype == np.int64
        assert np.all(np.diff(lengths) <= 0)
        owners, places = np.divmod(order, 7)  # each run holds 7 rows
        for r, (rows, run_lengths) in enumerate(runs):
            mine = owners == r
            assert places[mine].tolist() == list(range(7))  # in the run's order
            for row, length, place in zip(padded[mine], lengths[mine], places[mine]):
                assert length == run_lengths[place]
                np.testing.assert_array_equal(row[:length], rows[place, :length] + offsets[r])
