from collections import Counter

import numpy as np
import pytest

from scengen import (CategoricalHmm, InputError, PosteriorUndefinedError,
                     TrainingError, baum_welch_fit, baum_welch_fits, hmm_backward,
                     hmm_forward, hmm_posterior, hmm_sample, hmm_samples)
from scengen import hmm
from scengen.hmm import _flatten, _pad, _prefix_rows

from oracles import (all_sequences, baum_welch_reference, hmm_sample_reference, pad_reference,
                     path_sum_probability, posterior_by_enumeration, random_hmm)

# frozen with the path-sum oracle before the recursions were written
LN_P_011 = -2.3018853378797726


class TestCategoricalHmm:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(InputError):
            CategoricalHmm([[0.5, 0.4], [0.4, 0.6]], [[1, 0], [0, 1]], [1, 0])
        with pytest.raises(InputError):
            CategoricalHmm([[1.2, -0.2], [0.4, 0.6]], [[1, 0], [0, 1]], [1, 0])
        with pytest.raises(InputError):
            CategoricalHmm([[1.0]], [[0.5, 0.5]], [0.9])

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            CategoricalHmm([[1.0]], [[0.5, 0.5], [0.5, 0.5]], [1.0])
        with pytest.raises(InputError):
            CategoricalHmm([1.0], [[0.5, 0.5]], [1.0])

    def test_arrays_are_read_only(self, ref_hmm):
        with pytest.raises(ValueError):
            ref_hmm.transition[0, 0] = 0.5

    def test_dict_round_trip(self, ref_hmm):
        payload = ref_hmm.to_dict()
        assert payload["type"] == "hmm"
        assert payload["K"] == 2 and payload["M"] == 2
        clone = CategoricalHmm.from_dict(payload)
        np.testing.assert_array_equal(clone.transition, ref_hmm.transition)
        np.testing.assert_array_equal(clone.emission, ref_hmm.emission)
        np.testing.assert_array_equal(clone.start, ref_hmm.start)

    def test_from_dict_rejects_mismatched_header(self, ref_hmm):
        payload = ref_hmm.to_dict()
        payload["K"] = 3
        with pytest.raises(InputError):
            CategoricalHmm.from_dict(payload)
        with pytest.raises(InputError):
            CategoricalHmm.from_dict({"type": "qhmm"})


class TestForward:
    def test_single_state_product_of_emissions(self, single_state_hmm):
        res = hmm_forward(single_state_hmm, [0, 1])
        assert res.log_likelihood == pytest.approx(np.log(0.25), abs=1e-12)

    def test_deterministic_chain(self, det_hmm):
        assert hmm_forward(det_hmm, [0, 0, 0]).log_likelihood == 0.0
        assert hmm_forward(det_hmm, [0, 1]).log_likelihood == float("-inf")

    def test_reference_matches_path_sum_oracle(self, ref_hmm):
        res = hmm_forward(ref_hmm, [0, 1, 1])
        assert res.log_likelihood == pytest.approx(LN_P_011, abs=1e-12)
        oracle = path_sum_probability(ref_hmm, [0, 1, 1])
        assert np.exp(res.log_likelihood) == pytest.approx(oracle, rel=1e-12)

    def test_random_models_match_path_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            model = random_hmm(rng, k, m)
            length = int(rng.integers(1, 7))
            seq = rng.integers(0, m, size=length)
            got = np.exp(hmm_forward(model, seq).log_likelihood)
            assert got == pytest.approx(path_sum_probability(model, seq), rel=1e-10)

    @pytest.mark.parametrize("k,m,length", [(2, 2, 4), (3, 3, 5)])
    def test_total_probability_sums_to_one(self, k, m, length):
        rng = np.random.default_rng(k * 10 + m)
        model = random_hmm(rng, k, m)
        total = sum(np.exp(hmm_forward(model, list(seq)).log_likelihood)
                    for seq in all_sequences(m, length))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_scaled_rows_and_scaling_identity(self, ref_hmm):
        res = hmm_forward(ref_hmm, [0, 1, 1, 0, 1])
        np.testing.assert_allclose(res.forward.sum(axis=1), 1.0, atol=1e-9)
        assert res.log_likelihood == pytest.approx(np.log(res.scaling).sum(), abs=1e-9)

    def test_input_validation(self, ref_hmm):
        with pytest.raises(InputError):
            hmm_forward(ref_hmm, [])
        with pytest.raises(InputError):
            hmm_forward(ref_hmm, [0, 2])
        with pytest.raises(InputError):
            hmm_forward(ref_hmm, [-1])


class TestPad:
    """Flat padding against the sequence-at-a-time reference."""

    @pytest.mark.parametrize("make", [
        lambda: [[0, 1, 2], [3], [1, 1, 1, 1], [2, 0], [0], [3, 3, 3, 3]],
        lambda: [[2, 0, 1]],
        lambda: [[0, 1], [1, 0], [3, 3]],
        lambda: [(0, 1, 2), (3,), (1, 0)],
        lambda: [np.array([0, 3, 1], dtype=np.int32), np.array([2], dtype=np.int32)],
        lambda: ([i % 4] * (1 + i % 5) for i in range(40)),
        lambda: [[0.0, 2.0], [1]],
    ])
    def test_rows_equal_reference(self, make):
        want = pad_reference(make(), 4)
        got = _pad(*_flatten(make()), 4)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("sequences", [
        [], [[]], [[0, 1], []], [[[0, 1]]], [[0, [1]]], [[0, 1], 2], ["01"],
        [[0, 0.5]], [[0, np.nan]], [[0, 4]], [[-1, 0]], [[0, "1"]],
    ])
    def test_invalid_input_is_an_input_error(self, sequences):
        # the reference leaks a bare ValueError or TypeError on [[0, [1]]] and
        # [[0, "1"]]
        with pytest.raises(InputError):
            _pad(*_flatten(sequences), 4)


class TestPrefixRows:
    """:func:`hmm._prefix_rows` sorts the rows once and gives what the
    longest-first rows of :func:`_pad` sorted by :func:`hmm._lexicographic`
    give."""

    @staticmethod
    def reference(symbols, lengths, alphabet_size):
        padded, lengths, order = _pad(symbols, lengths, alphabet_size)
        places, starts = hmm._lexicographic(padded, lengths)
        return padded[places], lengths[places], order[places], starts

    @pytest.mark.parametrize("make", [
        lambda rng: [[0, 1, 2], [3], [0, 1, 2], [1, 1], [3], [0, 1], [0, 1, 2, 0]],
        lambda rng: [[2, 0, 1]],
        lambda rng: [[1, 0], [0, 1], [3, 3], [0, 1], [2, 2]],
        lambda rng: [[0], [0], [0]],
        lambda rng: [rng.integers(0, 2, size=int(rng.integers(1, 5))).tolist()
                     for _ in range(200)],
    ])
    def test_rows_equal_the_two_sort_reference(self, make):
        sequences = make(np.random.default_rng(7))
        got = _prefix_rows(*_flatten(sequences), 4)
        want = self.reference(*_flatten(sequences), 4)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestTreeScores:
    """HMM scoring on the prefix tree (:func:`hmm._log_likelihoods` over the
    rows of :func:`hmm._prefix_rows`) gives every row the bits of its
    one-row :func:`hmm_forward` call."""

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_tree_rows_equal_their_one_row_calls(self, k):
        # symbol 3 cannot be emitted, so the prefix [0, 3] and every
        # extension of it score -inf; [0, 1] and [2] end at interior nodes
        rng = np.random.default_rng(40 + k)
        m = 4
        model = random_hmm(rng, k, m)
        emission = model.emission.copy()
        emission[:, 3] = 0.0
        model = CategoricalHmm(model.transition, emission / emission.sum(axis=1, keepdims=True),
                               model.start)
        sequences = [[0, 1, 2, 1], [0, 1], [0, 1, 2], [0, 3], [0, 3, 1, 2], [0, 3, 0], [2],
                     [2, 2, 2, 2, 2], [1, 0], [0, 1], [2, 1]]
        sequences += [rng.integers(0, 3, size=int(rng.integers(1, 9))).tolist()
                      for _ in range(60)]
        sequences = [sequences[i] for i in rng.permutation(len(sequences))]
        padded, lengths, order, starts = _prefix_rows(*_flatten(sequences), m)
        got, nodes = hmm._log_likelihoods([model], padded, lengths, starts)
        for row, i in enumerate(order.tolist()):
            assert got[0, row] == hmm_forward(model, sequences[i]).log_likelihood
            assert (got[0, row] == -np.inf) == (sequences[i][:2] == [0, 3])
        assert nodes == len({tuple(seq[:depth]) for seq in sequences
                             for depth in range(1, len(seq) + 1)})

    @pytest.mark.parametrize("cap", [1, 5, 12, 40])
    def test_node_blocks_bound_each_tree(self, cap):
        rng = np.random.default_rng(cap)
        sequences = [rng.integers(0, 3, size=int(rng.integers(1, 7))).tolist()
                     for _ in range(80)]
        padded, lengths, order, starts = _prefix_rows(*_flatten(sequences), 3)
        rows = [tuple(sequences[i]) for i in order.tolist()]

        def nodes(block):
            return len({row[:depth] for row in block for depth in range(1, len(row) + 1)})

        blocks = hmm._node_blocks(lengths, starts, cap)
        assert [i for block in blocks for i in range(len(rows))[block]] == list(range(len(rows)))
        for block in blocks:
            # within the cap unless one row alone exceeds it, and no longer
            # block from the same first row would fit
            assert nodes(rows[block]) <= cap or block.stop - block.start == 1
            if block.stop < len(rows):
                assert nodes(rows[block.start:block.stop + 1]) > cap


class TestBackward:
    def test_final_row_is_unscaled_one(self, ref_hmm):
        res = hmm_backward(ref_hmm, [0, 1, 1])
        np.testing.assert_array_equal(res.backward[-1], [1.0, 1.0])

    def test_single_state_reconstruction(self, single_state_hmm):
        res = hmm_backward(single_state_hmm, [0, 1])
        recon = (single_state_hmm.start * single_state_hmm.emission[:, 0]
                 * res.backward[0]).sum() * np.prod(res.scaling[1:])
        assert recon == pytest.approx(0.25, rel=1e-12)

    def _reconstruct(self, model, seq):
        res = hmm_backward(model, seq)
        head = (model.start * model.emission[:, seq[0]] * res.backward[0]).sum()
        return np.log(head) + np.log(res.scaling[1:]).sum()

    def test_reference_agrees_with_forward(self, ref_hmm):
        seq = [0, 1, 1]
        forward_ll = hmm_forward(ref_hmm, seq).log_likelihood
        assert self._reconstruct(ref_hmm, seq) == pytest.approx(forward_ll, rel=1e-10)

    def test_random_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            model = random_hmm(rng, k, m)
            seq = list(rng.integers(0, m, size=int(rng.integers(1, 7))))
            assert self._reconstruct(model, seq) == pytest.approx(
                hmm_forward(model, seq).log_likelihood, rel=1e-10)


    def test_extinct_sequence_keeps_zero_rows_and_scalings(self, absorbing_hmm):
        # "1 0" ends in the absorbing state 0, which never emits 2
        seq = [1, 0, 2, 1]
        for res in (hmm_forward(absorbing_hmm, seq), hmm_backward(absorbing_hmm, seq)):
            assert res.log_likelihood == float("-inf")
            np.testing.assert_allclose(res.forward[:2], [[1 / 3, 2 / 3], [1.0, 0.0]],
                                       rtol=1e-15)
            np.testing.assert_array_equal(res.forward[2:], 0.0)
            np.testing.assert_allclose(res.scaling[:2], [0.15, 0.54], rtol=1e-15)
            np.testing.assert_array_equal(res.scaling[2:], 0.0)
        backward = hmm_backward(absorbing_hmm, seq).backward
        assert backward.shape == (4, 2)
        np.testing.assert_array_equal(backward, 0.0)


class TestPosterior:
    def test_single_state_is_always_one(self, single_state_hmm):
        for t in (1, 2):
            np.testing.assert_array_equal(
                hmm_posterior(single_state_hmm, [0, 1], t), [1.0])

    def test_deterministic_chain_pins_state(self, det_hmm):
        np.testing.assert_allclose(hmm_posterior(det_hmm, [0, 0], 1), [1.0, 0.0])

    def test_reference_matches_enumeration(self, ref_hmm):
        got = hmm_posterior(ref_hmm, [0, 1, 1], 2)
        want = posterior_by_enumeration(ref_hmm, [0, 1, 1], 2)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_distribution_properties(self, ref_hmm):
        rng = np.random.default_rng(3)
        for _ in range(5):
            seq = list(rng.integers(0, 2, size=6))
            for t in range(1, 7):
                post = hmm_posterior(ref_hmm, seq, t)
                assert post.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(post >= 0)

    def test_zero_probability_sequence_errors(self, det_hmm):
        with pytest.raises(PosteriorUndefinedError):
            hmm_posterior(det_hmm, [0, 1], 1)

    def test_position_bounds(self, ref_hmm):
        with pytest.raises(InputError):
            hmm_posterior(ref_hmm, [0, 1], 0)
        with pytest.raises(InputError):
            hmm_posterior(ref_hmm, [0, 1], 3)


class TestBaumWelch:
    def test_reaches_generating_model_likelihood(self, det_hmm):
        dataset = [hmm_sample(det_hmm, 4, seed) for seed in range(8)]
        result = baum_welch_fit(dataset, 2, alphabet_size=2, seed=1)
        fitted = sum(hmm_forward(result.model, s).log_likelihood for s in dataset)
        generating = sum(hmm_forward(det_hmm, s).log_likelihood for s in dataset)
        assert fitted >= generating - 1e-6

    def test_single_state_categorical_mle(self):
        result = baum_welch_fit([[0, 0, 0, 0]], 1, alphabet_size=2, seed=0)
        np.testing.assert_allclose(result.model.emission[0], [1.0, 0.0], atol=1e-6)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(9)
        truth = random_hmm(rng, 2, 3)
        dataset = [hmm_sample(truth, 12, int(rng.integers(2**31))) for _ in range(6)]
        result = baum_welch_fit(dataset, 2, alphabet_size=3, max_iters=40, seed=4)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-8)

    def test_fitted_model_is_stochastic(self):
        rng = np.random.default_rng(2)
        dataset = [list(rng.integers(0, 3, size=8)) for _ in range(4)]
        model = baum_welch_fit(dataset, 3, alphabet_size=3, seed=7).model
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)
        assert model.start.sum() == pytest.approx(1.0, abs=1e-9)

    def test_seed_reproducibility(self):
        dataset = [[0, 1, 2, 1], [2, 2, 0]]
        a = baum_welch_fit(dataset, 2, seed=5)
        b = baum_welch_fit(dataset, 2, seed=5)
        np.testing.assert_array_equal(a.model.transition, b.model.transition)
        assert a.log_likelihoods == b.log_likelihoods

    def test_empty_dataset_errors(self):
        with pytest.raises(InputError):
            baum_welch_fit([], 2, alphabet_size=2)

    def test_empty_sequence_is_an_input_error_with_inferred_alphabet(self):
        with pytest.raises(InputError):
            baum_welch_fit([[0, 1], []], 2)

    @pytest.mark.parametrize("options, message", [
        ({"max_iters": -3}, "max_iters must be >= 0"),
        ({"tol": float("nan")}, "tol must not be NaN"),
    ])
    def test_negative_iterations_and_nan_tolerance_are_input_errors(self, options,
                                                                    message):
        with pytest.raises(InputError, match=message):
            baum_welch_fit([[0, 1], [1]], 2, **options)

    def test_zero_iterations_return_the_seeded_initialization(self):
        result = baum_welch_fit([[0, 1], [1]], 2, max_iters=0, seed=3)
        assert result.log_likelihoods == []
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(result.model.transition,
                                      rng.dirichlet(np.ones(2), size=2))

    def test_negative_symbol_is_reported_with_inferred_alphabet(self):
        with pytest.raises(InputError, match="symbol -1 is negative"):
            baum_welch_fit([[0, -1]], 2)

    @pytest.mark.parametrize("k", [3, 8])
    def test_matches_per_sequence_reference(self, tree_cap, k):
        # mixed lengths over several prefix-tree blocks of the E-step
        rng = np.random.default_rng(k)
        truth = random_hmm(rng, 3, 4)
        count = 2 * (1024 // k) + 7
        dataset = [hmm_sample(truth, int(rng.integers(1, 9)), rng) for _ in range(count)]
        assert tree_cap(64, k, dataset, 4) > 3
        got = baum_welch_fit(dataset, k, alphabet_size=4, max_iters=12, seed=k)
        model, history = baum_welch_reference(dataset, k, 4, max_iters=12, seed=k)
        assert len(got.log_likelihoods) == len(history)
        np.testing.assert_allclose(got.log_likelihoods, history, rtol=1e-9, atol=0)
        for name in ("transition", "emission", "start"):
            np.testing.assert_allclose(getattr(got.model, name), getattr(model, name),
                                       rtol=0, atol=1e-12)

    def test_zero_probability_row_raises(self, emissions_without, tree_cap):
        # initial emissions that never produce symbol 2; only one row, in a
        # middle one of several tree blocks, contains it
        rng = np.random.default_rng(4)
        dataset = [list(rng.integers(0, 2, size=int(rng.integers(1, 7))))
                   for _ in range(3 * (1024 // 2))]
        dataset[len(dataset) // 2] = [0, 2, 1]
        assert tree_cap(16, 2, dataset, 3) > 3
        emissions_without(2, 3)
        for fit in (baum_welch_fit, baum_welch_reference):
            with pytest.raises(TrainingError):
                fit(dataset, 2, alphabet_size=3, seed=0)


def sampled_dataset(rng, alphabet_size, count, max_len):
    truth = random_hmm(rng, 3, alphabet_size)
    return [hmm_sample(truth, int(rng.integers(1, max_len + 1)), rng) for _ in range(count)]


class TestBaumWelchFits:
    """Stacked fits against separate one-run fits, bit for bit."""

    def separate(self, datasets, k, seeds, **options):
        out = []
        for sequences, alphabet_size in datasets:
            row = []
            for seed in seeds:
                try:
                    row.append(baum_welch_fit(sequences, k, alphabet_size=alphabet_size,
                                              seed=seed, **options))
                except TrainingError as exc:
                    row.append(exc)
            out.append(row)
        return out

    def assert_same(self, got, want):
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert len(got_row) == len(want_row)
            for g, w in zip(got_row, want_row):
                if isinstance(w, TrainingError):
                    assert isinstance(g, TrainingError) and str(g) == str(w)
                    continue
                assert g.log_likelihoods == w.log_likelihoods
                for name in ("transition", "emission", "start"):
                    np.testing.assert_array_equal(getattr(g.model, name),
                                                  getattr(w.model, name))

    def test_mixed_alphabets_and_widths(self):
        rng = np.random.default_rng(11)
        datasets = [(sampled_dataset(rng, 6, 9, 4), 6), (sampled_dataset(rng, 8, 14, 7), 8),
                    (sampled_dataset(rng, 6, 5, 9), None)]
        got = baum_welch_fits(datasets, 4, [0, 1, 2], max_iters=25)
        self.assert_same(got, self.separate(datasets, 4, [0, 1, 2], max_iters=25))
        assert got[1][0].model.alphabet_size == 8 and got[0][0].model.alphabet_size == 6

    def test_runs_larger_than_a_block(self, tree_cap):
        # the first dataset's trees span several blocks, the small ones one
        rng = np.random.default_rng(5)
        k = 8
        big = sampled_dataset(rng, 4, 2 * (1024 // k) + 9, 6)
        datasets = [(big, 4), (sampled_dataset(rng, 4, 7, 5), 4),
                    (sampled_dataset(rng, 5, 6, 3), 5)]
        assert tree_cap(64, k, big, 4) > 3 and tree_cap(64, k, datasets[1][0], 4) == 1
        work = Counter()
        got = baum_welch_fits(datasets, k, [3, 4], max_iters=6, work=work)
        self.assert_same(got, self.separate(datasets, k, [3, 4], max_iters=6))
        # one stack per dataset, each of two runs
        assert work == Counter(em_iterations=6 * 6, em_passes=3 * 6, runs_failed=0)

    def test_runs_converge_at_different_iterations(self):
        rng = np.random.default_rng(2)
        datasets = [(sampled_dataset(rng, 3, 12, 6), 3), (sampled_dataset(rng, 3, 8, 4), 3),
                    (sampled_dataset(rng, 5, 10, 5), 5)]
        seeds = range(5)
        work = Counter()
        got = baum_welch_fits(datasets, 3, seeds, max_iters=200, tol=1e-4, work=work)
        self.assert_same(got, self.separate(datasets, 3, seeds, max_iters=200, tol=1e-4))
        iterations = [[len(fit.log_likelihoods) for fit in row] for row in got]
        assert len({n for row in iterations for n in row}) > 3
        assert max(map(max, iterations)) < 200
        # each dataset's stack runs until its longest run ends
        assert work == Counter(em_iterations=sum(map(sum, iterations)),
                               em_passes=sum(map(max, iterations)), runs_failed=0)

    def test_zero_iterations_return_the_seeded_initializations(self):
        datasets = [([[0, 1], [1]], 2), ([[2, 0, 1]], 3)]
        work = Counter()
        got = baum_welch_fits(datasets, 2, [3, 7], max_iters=0, work=work)
        self.assert_same(got, self.separate(datasets, 2, [3, 7], max_iters=0))
        assert all(fit.log_likelihoods == [] for row in got for fit in row)
        assert work == Counter(em_iterations=0, em_passes=0, runs_failed=0)

    def test_one_failing_run_leaves_the_others(self, emissions_without):
        # seed 1's initial emissions on the first dataset never produce
        # symbol 2, which one of its rows contains
        rng = np.random.default_rng(8)
        datasets = [(sampled_dataset(rng, 3, 10, 5), 3), (sampled_dataset(rng, 4, 10, 5), 4)]
        datasets[0][0][4] = [0, 2, 1]
        emissions_without(2, 3, seed=1)
        work = Counter()
        got = baum_welch_fits(datasets, 2, [0, 1, 2], max_iters=10, work=work)
        want = self.separate(datasets, 2, [0, 1, 2], max_iters=10)
        assert isinstance(want[0][1], TrainingError)
        assert sum(isinstance(fit, TrainingError) for row in want for fit in row) == 1
        self.assert_same(got, want)
        assert work["runs_failed"] == 1

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_stacks_over_several_trees_with_a_failing_run(self, emissions_without, tree_cap,
                                                          k):
        # seed 1's initial emissions on the first dataset never produce
        # symbol 2, which one of its rows contains; each dataset's trees
        # span several blocks
        rng = np.random.default_rng(30 + k)
        datasets = [(sampled_dataset(rng, 5, 40, 6), 5), (sampled_dataset(rng, 6, 30, 5), 6)]
        datasets[0][0][4] = [0, 2, 1]
        assert min(tree_cap(12, k, rows, m) for rows, m in datasets) > 3
        emissions_without(2, 5, seed=1)
        seeds = [0, 1, 2]
        work = Counter()
        got = baum_welch_fits(datasets, k, seeds, max_iters=8, work=work)
        want = self.separate(datasets, k, seeds, max_iters=8)
        assert [isinstance(fit, TrainingError) for row in want for fit in row] == \
            [False, True, False, False, False, False]
        self.assert_same(got, want)
        assert work["runs_failed"] == 1

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_fits_do_not_depend_on_the_row_order(self, tree_cap, k):
        rng = np.random.default_rng(50 + k)
        datasets = [(sampled_dataset(rng, 4, 60, 7), 4), (sampled_dataset(rng, 3, 9, 4), 3)]
        assert tree_cap(12, k, datasets[0][0], 4) > 3
        shuffled = [([rows[i] for i in rng.permutation(len(rows))], m) for rows, m in datasets]
        assert shuffled[0][0] != datasets[0][0]
        self.assert_same(baum_welch_fits(shuffled, k, [0, 1], max_iters=8),
                         baum_welch_fits(datasets, k, [0, 1], max_iters=8))

    def test_input_errors(self):
        with pytest.raises(InputError, match="num_states must be >= 1"):
            baum_welch_fits([([[0, 1]], 2)], 0, [0])
        with pytest.raises(InputError, match="dataset must contain at least one sequence"):
            baum_welch_fits([([[0, 1]], 2), ([], 2)], 2, [0])


class TestSample:
    def test_deterministic_chain_emits_zeros(self, det_hmm):
        for seed in (0, 1, 99):
            assert hmm_sample(det_hmm, 4, seed) == [0, 0, 0, 0]

    def test_seed_determinism(self, ref_hmm):
        assert hmm_sample(ref_hmm, 25, 42) == hmm_sample(ref_hmm, 25, 42)
        assert hmm_sample(ref_hmm, 25, 42) != hmm_sample(ref_hmm, 25, 43)

    def test_symbols_in_range(self, ref_hmm):
        assert set(hmm_sample(ref_hmm, 200, 0)) <= {0, 1}

    def test_length_one_frequencies(self, single_state_hmm):
        # the rows of one batched call are the draws of 100,000 sequential
        # one-row calls on this generator (TestSamples pins that)
        draws = hmm_samples(single_state_hmm, 1, 100_000, np.random.default_rng(123))[:, 0]
        assert abs(draws.mean() - 0.5) < 0.01
        assert hmm_sample(single_state_hmm, 1, 123) == \
            hmm_sample_reference(single_state_hmm, 1, 123)

    def test_prefix_conditioning(self, det_hmm):
        assert hmm_sample(det_hmm, 3, 0, prefix=[0, 0]) == [0, 0, 0]
        with pytest.raises(InputError):
            hmm_sample(det_hmm, 3, 0, prefix=[1])

    def test_length_validation(self, ref_hmm):
        with pytest.raises(InputError):
            hmm_sample(ref_hmm, 0, 1)


class TestSamples:
    """The batched sampler against one-sample reference calls on one generator."""

    @pytest.mark.parametrize("prefix", [(), (0,), (1, 0)])
    @pytest.mark.parametrize("k, m, count", [(4, 8, 400), (16, 8, 30), (2, 3, 0)])
    def test_rows_equal_sequential_reference_calls(self, k, m, count, prefix):
        model = random_hmm(np.random.default_rng(k + m), k, m)
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = [hmm_sample_reference(model, 6, want_rng, prefix=prefix)
                for _ in range(count)]
        got = hmm_samples(model, 6, count, got_rng, prefix=prefix)
        assert got.shape == (count, 6) and got.dtype == np.int64
        assert got.tolist() == want
        # the shared generator ends where the sequential calls left it
        assert got_rng.random() == want_rng.random()

    def test_one_row_call_is_a_list_of_the_reference(self, ref_hmm):
        assert hmm_sample(ref_hmm, 9, 11, prefix=[1]) == \
            hmm_sample_reference(ref_hmm, 9, 11, prefix=[1])

    def test_zero_probability_prefix_error_is_unchanged(self, det_hmm):
        message = "prefix has zero probability under the model"
        with pytest.raises(InputError, match=message):
            hmm_sample_reference(det_hmm, 3, 0, prefix=[1])
        for count in (0, 5):
            with pytest.raises(InputError, match=message):
                hmm_samples(det_hmm, 3, count, 0, prefix=[1])

    def test_bad_length_or_count_is_rejected_before_sampling(self, ref_hmm):
        for length, count in ((0, 0), (0, 3), (2, -1)):
            with pytest.raises(InputError):
                hmm_samples(ref_hmm, length, count, 0)
