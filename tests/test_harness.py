"""Agreement counting, learner probe, closed forms, records, experiment plans."""

import contextlib
import io
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glhs
from glhs import core, harness
from glhs.cli import main
from glhs.core import (
    PURPOSE_LEARN,
    CursorRng,
    StreamReader,
    StreamWriter,
    purpose_stream,
)
from glhs.halfspace import Disjunction, Halfspace
from glhs.labelcover import gen_planted_projection, gen_planted_unique
from glhs.moments import build_pair, column_sum_pmf
from glhs.reduction import dict_test_batch, or_acceptance_closed_form
from glhs.reduction import TestSpec as Spec  # plain import trips pytest collection
from glhs.harness import (
    AgreementReport,
    CheckRecord,
    ExperimentPlan,
    LearnerConfig,
    _active_indices,
    agreement,
    exact_majority_gap,
    fold_record_files,
    hypothesis_id,
    linear_statistic_gap_exact,
    majority_halfspace,
    majority_threshold,
    make_record,
    matrix_sum_pmf,
    negated_rate,
    parse_record,
    perceptron_train,
    read_records,
    run_experiment,
    summarize_records,
    write_dict_test_stream,
    write_reduction_stream,
)
from glhs.stats import binomial_sigma

SEED = 977


def _matched_spec(r=1, gamma=0.0625, k=12, eps="0.82", p="0.25"):
    d0, d1 = build_pair(k, eps, p)
    return Spec(d0=d0, d1=d1, r=r, gamma=gamma)


class TestHypothesisId:
    def test_kind_shape_and_stability(self):
        h = Halfspace.from_grid(np.ones((3, 4)), 1.0)
        hid = hypothesis_id(h)
        assert hid.startswith("halfspace-3x4-")
        assert hypothesis_id(h) == hid
        other = Halfspace.from_grid(np.ones((3, 4)), 2.0)
        assert hypothesis_id(other) != hid
        d = Disjunction(literals=frozenset({(0, 1)}), rows=3, cols=4)
        assert hypothesis_id(d).startswith("disjunction-3x4-")


class TestAgreementReport:
    @given(
        n1=st.integers(0, 50),
        n0=st.integers(0, 50),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_identities(self, n1, n0, data):
        if n1 + n0 == 0:
            return
        hits1 = data.draw(st.integers(0, n1))
        zeros_right = data.draw(st.integers(0, n0))
        rep = AgreementReport(
            hypothesis="h",
            count=n1 + n0,
            matches=hits1 + zeros_right,
            n1=n1,
            hits1=hits1,
        )
        assert rep.n0 == n0
        assert rep.hits0 == n0 - zeros_right
        assert rep.rate == (hits1 + zeros_right) / (n1 + n0)
        cm1 = hits1 / n1 if n1 else 0.0
        cm0 = rep.hits0 / n0 if n0 else 0.0
        assert rep.gap == pytest.approx(cm1 - cm0)
        assert rep.balanced_acceptance == pytest.approx(0.5 + 0.5 * rep.gap)
        assert rep.identity_residual() <= 1e-12
        assert negated_rate(rep) == pytest.approx(1.0 - rep.rate)

    def test_match_count_range(self):
        with pytest.raises(ValueError, match="out of range"):
            AgreementReport(hypothesis="h", count=3, matches=4, n1=2, hits1=1)


def _hand_case():
    bits = np.array(
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 1, 1]],
        dtype=np.uint8,
    )
    labels = np.array([1, 0, 1, 0, 0, 1], dtype=np.uint8)
    h = Halfspace.from_grid(np.array([[1.0, 1.0, -1.0]]), 1.0)
    return bits, labels, h


class TestAgreement:
    def test_exact_counting_against_loop(self):
        bits, labels, h = _hand_case()
        [rep] = agreement([h], [(bits, labels)])
        want = sum(
            int(h.evaluate(row)) == lab for row, lab in zip(bits, labels.tolist())
        )
        assert rep.matches == want
        assert rep.count == 6
        assert rep.n1 == 3
        assert rep.hits1 == sum(
            int(h.evaluate(row)) for row, lab in zip(bits, labels.tolist()) if lab
        )

    def test_chunking_is_invisible(self):
        spec = _matched_spec(r=2)
        bits, labels = dict_test_batch(spec, SEED, 0, 0, 100)
        h = majority_halfspace(spec)
        [small] = agreement([h], ((bits[i : i + 7], labels[i : i + 7]) for i in range(0, 100, 7)))
        [big] = agreement([h], [(bits, labels)])
        assert small.matches == big.matches
        assert small.hits1 == big.hits1

    def test_stream_path_input(self, tmp_path):
        spec = _matched_spec(r=2)
        path = tmp_path / "dict.stream"
        write_dict_test_stream(str(path), spec, 64, SEED, stream_id=5)
        bits, labels = dict_test_batch(spec, SEED, 5, 0, 64)
        h = majority_halfspace(spec)
        [from_file] = agreement([h], StreamReader(str(path)).read_batches(17))
        [from_arrays] = agreement([h], [(bits, labels)])
        assert from_file.matches == from_arrays.matches
        assert from_file.n1 == from_arrays.n1
        reader = StreamReader(str(path))
        [(loaded, loaded_labels)] = list(reader.read_batches(64))
        assert np.array_equal(loaded, bits) and np.array_equal(loaded_labels, labels)
        assert reader.header.rows == spec.k
        assert reader.header.cols == spec.r
        assert reader.header.count == 64
        assert "kind=dict-test" in reader.header.meta

    def test_example_sequence_input(self):
        bits, labels, h = _hand_case()
        batches = [(bits[:2], labels[:2]), (bits[2:5], labels[2:5]), (bits[5:], labels[5:])]
        [rep] = agreement([h], batches)
        [whole] = agreement([h], [(bits, labels)])
        assert (rep.count, rep.matches, rep.n1, rep.hits1) == (
            whole.count, whole.matches, whole.n1, whole.hits1
        )
        wide = Halfspace.from_grid(np.ones((1, 4)), 1.0)
        with pytest.raises(ValueError, match="reads 4 bits"):
            agreement([wide], iter(batches))

    def test_peak_memory_stays_below_twice_the_batch(self):
        # a float64 copy of the batch would be 8 * bits.nbytes
        rnd = np.random.RandomState(8)
        bits = (rnd.randint(0, 100, size=(8192, 3200), dtype=np.uint8) == 0).astype(np.uint8)
        labels = bits[:, 0].copy()
        h = Halfspace.from_grid(rnd.standard_normal((200, 16)), 0.1)
        tracemalloc.start()
        try:
            [rep] = agreement([h], [(bits, labels)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.count == 8192
        assert peak < 2 * bits.nbytes

    def test_dim_mismatch_and_empty(self):
        bits, labels, h = _hand_case()
        wide = Halfspace.from_grid(np.ones((1, 4)), 1.0)
        with pytest.raises(ValueError, match="reads 4 bits"):
            agreement([wide], [(bits, labels)])
        with pytest.raises(ValueError, match="no examples"):
            agreement([h], [])

    def test_several_hypotheses_share_one_pass(self):
        spec = _matched_spec(r=2)
        bits, labels = dict_test_batch(spec, SEED, 0, 0, 100)
        hyps = [
            majority_halfspace(spec),
            Disjunction(literals=frozenset((i, 0) for i in range(spec.k)), rows=spec.k, cols=2),
        ]
        drawn = []

        def batches():
            for i in range(0, 100, 7):
                drawn.append(i)
                yield bits[i : i + 7], labels[i : i + 7]

        reps = agreement(hyps, batches())
        assert drawn == list(range(0, 100, 7))
        assert reps == [agreement([h], [(bits, labels)])[0] for h in hyps]

    def test_every_hypothesis_is_dimension_checked(self):
        bits, labels, h = _hand_case()
        wide = Halfspace.from_grid(np.ones((1, 4)), 1.0)
        for hyps in ([h, wide], [wide, h]):
            with pytest.raises(ValueError, match="reads 4 bits"):
                agreement(hyps, [(bits, labels)])
        with pytest.raises(ValueError, match="no examples"):
            agreement([h, h], [])


def _train(bits, labels, cfg=LearnerConfig(), rows=1, cols=None):
    """perceptron_train on in-memory bits, packed as a stream stores them."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return perceptron_train((packed, labels), cfg, rows, bits.shape[1] if cols is None else cols)


class TestPerceptron:
    def _separable(self, n=200, seed=3):
        rnd = np.random.RandomState(seed)
        bits = rnd.randint(0, 2, size=(n, 6)).astype(np.uint8)
        labels = bits[:, 0].astype(np.uint8)  # dictator target
        return bits, labels

    def test_learns_a_separable_dictator(self):
        bits, labels = self._separable()
        final = _train(bits, labels, LearnerConfig(epochs=20, averaged=False))
        assert agreement([final], [(bits, labels)])[0].rate == 1.0
        averaged = _train(bits, labels, LearnerConfig(epochs=20))
        assert agreement([averaged], [(bits, labels)])[0].rate >= 0.9

    def test_training_is_deterministic(self):
        bits, labels = self._separable()
        cfg = LearnerConfig(epochs=3, shuffle_seed=11)
        a = _train(bits, labels, cfg)
        b = _train(bits, labels, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.theta == b.theta
        c = _train(bits, labels, LearnerConfig(epochs=3, shuffle_seed=12))
        assert not np.array_equal(a.weights, c.weights)

    def test_grid_shape_handling(self):
        bits, labels = self._separable()
        h = _train(bits, labels, LearnerConfig(epochs=1), rows=2, cols=3)
        assert (h.rows, h.cols) == (2, 3)
        flat = _train(bits, labels, LearnerConfig(epochs=1))
        assert (flat.rows, flat.cols) == (1, 6)
        # 9 bits take two bytes a row; the records hold one
        with pytest.raises(ValueError, match="needs 2-byte rows"):
            _train(bits, labels, LearnerConfig(epochs=1), rows=3, cols=3)

    def test_stream_grid_shape_is_inherited(self, tmp_path):
        spec = _matched_spec(r=2)
        path = tmp_path / "train.stream"
        write_dict_test_stream(str(path), spec, 50, SEED)
        reader = StreamReader(str(path))
        hdr = reader.header
        h = perceptron_train(reader.read_records(), LearnerConfig(epochs=1), hdr.rows, hdr.cols)
        assert (h.rows, h.cols) == (spec.k, spec.r)

    def test_unaveraged_final_state(self):
        bits, labels = self._separable()
        plain = _train(bits, labels, LearnerConfig(epochs=5, averaged=False))
        avg = _train(bits, labels, LearnerConfig(epochs=5, averaged=True))
        assert not np.array_equal(plain.weights, avg.weights)

    def test_empty_training_set(self, tmp_path):
        with pytest.raises(ValueError, match="no training examples"):
            _train(np.zeros((0, 3), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        path = tmp_path / "empty.stream"
        with StreamWriter(str(path), 2, 3):
            pass
        reader = StreamReader(str(path))
        assert list(reader.read_batches()) == []
        with pytest.raises(ValueError, match="no training examples"):
            perceptron_train(reader.read_records(), LearnerConfig(), 2, 3)

    def test_rejects_non_binary_input(self):
        bits, labels = self._separable()
        labels[5] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            _train(bits, labels)
        # 5 of the 6 bits: bit 5 of each byte lies past the row
        bits, labels = self._separable()
        bits[3, 5] = 1
        with pytest.raises(ValueError, match="pad bit"):
            perceptron_train((np.packbits(bits, axis=1, bitorder="little"), labels),
                             LearnerConfig(), 1, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            LearnerConfig(epochs=0)
        with pytest.raises(ValueError, match="rate"):
            LearnerConfig(rate=0.0)
        with pytest.raises(ValueError, match="schedule"):
            LearnerConfig(schedule="bogus")


def _dense_reference(bits, labels, cfg):
    """The per-example loop perceptron_train replaced, kept as its oracle."""
    n, dim = bits.shape
    x = bits.astype(np.float64)
    t = labels.astype(np.float64) * 2.0 - 1.0

    w = np.zeros(dim)
    bias = 0.0
    u = np.zeros(dim)
    u_bias = 0.0
    rng = CursorRng(cfg.shuffle_seed, purpose_stream(0, PURPOSE_LEARN))
    step = 0
    total = n * cfg.epochs
    for epoch in range(cfg.epochs):
        order = rng.shuffle(list(range(n)))
        eta = cfg.rate if cfg.schedule == "constant" else cfg.rate / (epoch + 1)
        for i in order:
            step += 1
            margin = x[i] @ w + bias
            pred = 1.0 if margin >= 0.0 else -1.0
            if pred != t[i]:
                delta = eta * t[i]
                w += delta * x[i]
                bias += delta
                u += (step * delta) * x[i]
                u_bias += step * delta
    if cfg.averaged:
        w = w * ((total + 1) / total) - u / total
        bias = bias * ((total + 1) / total) - u_bias / total
    return Halfspace.from_grid(w.reshape(1, dim), -bias)


def _wide_sparse_stream(zero_rows=0.0, n=1999, dim=803, seed=5):
    """Rows with at most 48 set bits under a dictator label on column 0; a
    `zero_rows` share of the rows is all zero (label 0, margin = bias)."""
    rnd = np.random.RandomState(seed)
    bits = np.zeros((n, dim), dtype=np.uint8)
    for i, c in enumerate(rnd.randint(0, 48, size=n)):
        bits[i, 1 + rnd.choice(dim - 1, c, replace=False)] = 1
    bits[:, 0] = rnd.randint(0, 2, size=n)
    bits[rnd.random_sample(n) < zero_rows] = 0
    return bits, bits[:, 0].copy()


def _dense_noisy_stream(n=1000, dim=96, seed=6):
    """Half the bits set and labels independent of them: about half the
    steps are mistakes."""
    rnd = np.random.RandomState(seed)
    bits = rnd.randint(0, 2, size=(n, dim)).astype(np.uint8)
    return bits, rnd.randint(0, 2, size=n).astype(np.uint8)


_ORACLE_STREAMS = {
    "wide-sparse": _wide_sparse_stream,
    "dense-noisy": _dense_noisy_stream,
    "zero-rows": lambda: _wide_sparse_stream(zero_rows=0.3, seed=7),
}


class TestPerceptronOracle:
    """perceptron_train against the plain dense loop, bit for bit."""

    @pytest.mark.parametrize("averaged", [True, False])
    @pytest.mark.parametrize(
        "rate,schedule",
        # integral: every update an integer, so u is added once per step window
        [(1.0, "constant"), (3.0, "constant"), (1.0, "inverse"),
         (0.3, "inverse"), (0.1, "constant")],
    )
    @pytest.mark.parametrize("stream", sorted(_ORACLE_STREAMS))
    def test_matches_dense_loop(self, stream, rate, schedule, averaged):
        self._assert_matches_dense_loop(stream, rate, schedule, averaged)

    # dense-noisy over 4 epochs makes 4000 steps, about half of them mistakes:
    # rate * 4000 * 4001 / 2 is under 2^53 at rate 2^30 and over it at 2^31,
    # and at 2^40 + 1 the window sums of u would round in another order
    @pytest.mark.parametrize("averaged", [True, False])
    @pytest.mark.parametrize("rate", [2.0**30, 2.0**31, 2.0**40 + 1])
    def test_matches_dense_loop_around_the_exactness_guard(self, rate, averaged):
        self._assert_matches_dense_loop("dense-noisy", rate, "constant", averaged)

    @staticmethod
    def _assert_matches_dense_loop(stream, rate, schedule, averaged):
        bits, labels = _ORACLE_STREAMS[stream]()
        cfg = LearnerConfig(
            epochs=4, rate=rate, schedule=schedule, shuffle_seed=2, averaged=averaged
        )
        got = _train(bits, labels, cfg)
        want = _dense_reference(bits, labels, cfg)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert np.float64(got.theta).tobytes() == np.float64(want.theta).tobytes()

    # 700 x 803 spans three index blocks
    @pytest.mark.parametrize("shape", [(0, 8), (5, 3), (37, 803), (64, 96), (700, 803)])
    def test_active_indices_match_nonzero(self, shape):
        rnd = np.random.RandomState(shape[0])
        bits = (rnd.random_sample(shape) < 0.1).astype(np.uint8)
        if shape[0]:
            bits[-1] = 0
        active = _active_indices(np.packbits(bits, axis=1, bitorder="little"), shape[1])
        assert active.shape[1] == max(1, bits.sum(axis=1).max(initial=0))
        for i in range(shape[0]):
            got = active[i][active[i] < shape[1]]
            assert np.array_equal(got, np.flatnonzero(bits[i]))
            assert (active[i][got.size:] == shape[1]).all()

    @pytest.mark.parametrize("density", [None, 0.5])
    def test_peak_memory_stays_below_a_float_copy(self, density):
        # None: rows with at most 48 of 3200 bits set; 0.5: half the bits
        # set, whose training reaches the scan within 3 epochs
        if density is None:
            bits, labels = _wide_sparse_stream(n=4000, dim=3200)
        else:
            rnd = np.random.RandomState(3)
            bits = (rnd.random_sample((4000, 3200)) < density).astype(np.uint8)
            labels = bits[:, 0].copy()
        tracemalloc.start()
        try:
            _train(bits, labels, LearnerConfig(epochs=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * bits.nbytes

    def test_stream_records_are_held_once(self, tmp_path):
        # more rows than one read chunk; training holds the packed records,
        # n*(dim/8 + 1) bytes, and neither an unpacked chunk nor a float copy
        bits, labels = _wide_sparse_stream(n=8692, dim=3200)
        path = tmp_path / "wide.stream"
        with StreamWriter(str(path), 1, 3200) as out:
            out.append_batch(bits, labels)
        tracemalloc.start()
        try:
            reader = StreamReader(str(path))
            perceptron_train(reader.read_records(), LearnerConfig(epochs=1), 1, 3200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * bits.nbytes

    def test_learn_holds_no_unpacked_stream(self, tmp_path, monkeypatch):
        # learn trains on the stream's packed records, n*(dim/8 + 1) bytes,
        # and its agreement pass reads chunks of 2^20 cells: the 4000 rows
        # span 13 of them
        bits, labels = _wide_sparse_stream(n=4000, dim=3200)
        path = tmp_path / "wide.stream"
        with StreamWriter(str(path), 1, 3200) as out:
            out.append_batch(bits, labels)
        monkeypatch.setattr(core, "CHUNK_CELLS", 1 << 20)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["learn", "--stream", str(path), "--epochs", "3"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bits.nbytes / 2

    def test_learn_unpacks_no_training_chunk(self, tmp_path, monkeypatch):
        # training takes the records as stored; only agreement reads batches
        bits, labels = _wide_sparse_stream(n=300, dim=60)
        path = tmp_path / "s.stream"
        with StreamWriter(str(path), 6, 10) as out:
            out.append_batch(bits, labels)
        passes = []
        real = StreamReader.read_batches

        def counting(self, *args, **kwargs):
            passes.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StreamReader, "read_batches", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["learn", "--stream", str(path), "--epochs", "2"]) == 0
        assert len(passes) == 1

    def test_learn_ignores_set_pad_bits(self, tmp_path):
        # 6 bits per row leave two pad bits in each row's byte; the reader
        # ignores them, so setting them changes no learned weight
        rnd = np.random.RandomState(8)
        bits = (rnd.random_sample((600, 6)) < 0.3).astype(np.uint8)
        clean = tmp_path / "clean.bin"
        with StreamWriter(str(clean), 2, 3) as out:
            out.append_batch(bits, bits[:, 0].copy())
        blob = bytearray(clean.read_bytes())
        records = np.frombuffer(blob, dtype=np.uint8, offset=len(blob) - 1200).reshape(600, 2)
        records[:, 0] |= 0b11000000  # a view of blob
        (tmp_path / "dirty.bin").write_bytes(bytes(blob))
        for name in ("clean", "dirty"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["learn", "--stream", str(tmp_path / f"{name}.bin"),
                             "--epochs", "3", "--out", str(tmp_path / f"{name}.hs")]) == 0
        assert (tmp_path / "clean.hs").read_bytes() == (tmp_path / "dirty.hs").read_bytes()


# Runs glhs commands (argv strings) in this fresh interpreter, then prints
# its peak resident set size in KiB.  That is VmHWM, the peak of the
# interpreter's own address space: ru_maxrss would also count the resident
# peak of the process it was forked from, here the test runner.
_PEAK_RSS_SCRIPT = """
import contextlib, io, sys
from glhs.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _peak_rss_kib(workdir, *commands: str) -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(glhs.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *commands],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="reads Linux's VmHWM and pins glibc's heap behaviour",
)
def test_reduce_leaves_no_heap_for_learn(tmp_path):
    # the label-cover pipeline of the benchmark: the chunks `reduce` drew must
    # not stay in the heap under `learn`'s peak, which then matches learn run
    # alone in a fresh interpreter
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-lc", "--kind", "projection", "--vertices", "200", "--edges", "2000",
                     "--k", "3", "--m", "16", "--n", "8", "--d", "2", "--seed", "5",
                     "--out", str(tmp_path / "proj.lc")]) == 0
    reduce = ("reduce --instance proj.lc --k 3 --eps 0.5 --p 0.25 --gamma 0.1 "
              "--completeness-only --count 20000 --seed 1 --out proj.bin")
    learn = "learn --stream proj.bin --epochs 12 --seed 4 --out proj.hs"
    both = _peak_rss_kib(tmp_path, reduce, learn)
    alone = _peak_rss_kib(tmp_path, learn)
    assert both - alone <= 2048, (both, alone)


class TestMatrixSumPmf:
    def test_against_sequential_convolution(self):
        spec = _matched_spec()
        for dist in (spec.d0, spec.d1.noisy(0.125)):
            base = column_sum_pmf(dist)
            rolled = base.copy()
            for r in range(2, 6):
                rolled = np.convolve(rolled, base)
                fast = matrix_sum_pmf(dist, r)
                assert fast.shape == rolled.shape
                assert np.allclose(fast, rolled, atol=1e-12)
                assert fast.sum() == pytest.approx(1.0)

    def test_r_one_is_the_column_law(self):
        spec = _matched_spec()
        assert np.array_equal(matrix_sum_pmf(spec.d0, 1), column_sum_pmf(spec.d0))

    def test_r_must_be_positive(self):
        spec = _matched_spec()
        with pytest.raises(ValueError, match="positive"):
            matrix_sum_pmf(spec.d0, 0)


class TestMajorityClosedForms:
    def test_threshold_is_the_brute_force_argmax(self):
        spec = _matched_spec(r=2, gamma=0.0625)
        pmf0 = matrix_sum_pmf(spec.d0.noisy(spec.gamma), spec.r)
        pmf1 = matrix_sum_pmf(spec.d1.noisy(spec.gamma), spec.r)
        best_theta, best_acc = 0, -1.0
        for theta in range(len(pmf0) + 1):
            acc = 0.5 + 0.5 * (float(pmf1[theta:].sum()) - float(pmf0[theta:].sum()))
            if acc > best_acc:
                best_theta, best_acc = theta, acc
        theta, acc = majority_threshold(spec)
        assert theta == best_theta
        assert acc == pytest.approx(best_acc)
        assert exact_majority_gap(spec) == pytest.approx(2.0 * best_acc - 1.0)

    def test_empirical_majority_acceptance(self):
        spec = _matched_spec(r=1, gamma=1.0 / 144.0)
        theta, acc = majority_threshold(spec)
        h = majority_halfspace(spec)
        assert h.theta == float(theta)
        assert np.array_equal(h.weights, np.ones(spec.dim))
        n = 20000
        bits, labels = dict_test_batch(spec, SEED, 1, 0, n)
        [rep] = agreement([h], [(bits, labels)])
        tol = 4.0 * binomial_sigma(acc, n) + 4.0 / n
        assert abs(rep.balanced_acceptance - acc) <= tol

    def test_linear_statistics_are_blind(self):
        spec = _matched_spec(r=3, gamma=0.125)
        gap = linear_statistic_gap_exact(spec, [1.0, -2.5, 0.75, 3.25])
        assert gap == Fraction(0)


class TestReductionStream:
    @staticmethod
    def _record_batches(monkeypatch) -> list:
        seen = []
        real = StreamWriter.append_batch

        def recording(self, bits, labels):
            seen.append(bits)
            real(self, bits, labels)

        monkeypatch.setattr(StreamWriter, "append_batch", recording)
        return seen

    @pytest.mark.parametrize("kind", ["dict-test", "ug-reduce", "lc-reduce"])
    def test_chunks_share_the_writer_buffer(self, tmp_path, monkeypatch, kind):
        # 2^10 cells per chunk: each stream below spans three chunks or more,
        # all drawn into one buffer, and the bytes are the one-call draw's
        from glhs.moments import completeness_pair
        from glhs.reduction import lc_reduce_batch, ug_reduce_batch

        monkeypatch.setattr(core, "CHUNK_CELLS", 1 << 10)
        seen = self._record_batches(monkeypatch)
        path = str(tmp_path / "s.stream")
        if kind == "dict-test":
            spec = _matched_spec(r=4)
            write_dict_test_stream(path, spec, 50, SEED)
            want = dict_test_batch(spec, SEED, 0, 0, 50)
        elif kind == "ug-reduce":
            spec = _matched_spec(r=4, gamma=0.03125)
            inst, _ = gen_planted_unique(14, 6, 12, 4, seed=2)
            write_reduction_stream(path, inst, spec, 50, SEED)
            want = ug_reduce_batch(inst, spec, SEED, 0, 0, 50)
        else:
            d0, d1 = completeness_pair(3, "0.5", "0.25")
            spec = Spec(d0=d0, d1=d1, r=2, gamma=0.25, completeness_only=True)
            inst, _ = gen_planted_projection(5, 6, 3, 4, 2, 2, seed=3)
            write_reduction_stream(path, inst, spec, 120, SEED)
            want = lc_reduce_batch(inst, spec, SEED, 0, 0, 120)
        assert len(seen) >= 3
        assert all(np.shares_memory(seen[0], bits) for bits in seen[1:])
        [(bits, labels)] = list(StreamReader(path).read_batches(1000))
        assert np.array_equal(bits, want[0]) and np.array_equal(labels, want[1])

    def test_unique_and_general_kinds(self, tmp_path):
        spec = _matched_spec(r=4, gamma=0.03125)
        inst, _ = gen_planted_unique(14, 6, 12, 4, seed=2)
        upath = tmp_path / "ug.stream"
        write_reduction_stream(str(upath), inst, spec, 20, SEED, extra_meta="tag=x")
        reader = StreamReader(str(upath))
        assert reader.header.rows == 14
        assert reader.header.cols == 4
        assert "kind=ug-reduce" in reader.header.meta
        assert "tag=x" in reader.header.meta

        from glhs.moments import completeness_pair

        d0, d1 = completeness_pair(3, "0.5", "0.25")
        small = Spec(d0=d0, d1=d1, r=2, gamma=0.25, completeness_only=True)
        pinst, _ = gen_planted_projection(5, 6, 3, 4, 2, 2, seed=3)
        gpath = tmp_path / "lc.stream"
        write_reduction_stream(str(gpath), pinst, small, 20, SEED)
        reader = StreamReader(str(gpath))
        assert reader.header.rows == 5
        assert reader.header.cols == 4
        assert "kind=lc-reduce" in reader.header.meta


_PARAM_KEY = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8
)
_PARAM_VAL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=12
)


class TestCheckRecords:
    def test_statuses(self):
        assert make_record("a", {}, 0.0, "t", True).status == "pass"
        assert make_record("a", {}, 0.0, "t", False).status == "fail"
        assert make_record("a", {}, 0.0, "t", None).status == "exploratory"
        assert make_record("a", {}, 0.0, "t", None).passed
        assert not make_record("a", {}, 0.0, "t", False).passed
        with pytest.raises(ValueError, match="status"):
            CheckRecord("a", (), 0.0, "t", "maybe")

    @given(
        check_id=_PARAM_KEY,
        params=st.dictionaries(_PARAM_KEY, _PARAM_VAL, max_size=4),
        statistic=st.floats(allow_nan=False, allow_infinity=False, width=64),
        target=_PARAM_VAL,
        ok=st.sampled_from([True, False, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_line_roundtrip(self, check_id, params, statistic, target, ok):
        rec = make_record(check_id, params, statistic, target, ok)
        back = parse_record(rec.line())
        assert back == rec

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="not a check record"):
            parse_record("hello world")
        with pytest.raises(ValueError, match="not a check record"):
            parse_record("check\tonly\tfour\tfields")

    def test_file_roundtrip_and_folding(self, tmp_path):
        recs_a = [
            make_record("one", {"k": 4}, 1.25, "<= 2", True),
            make_record("two", {}, 0.5, "reported", None),
        ]
        recs_b = [make_record("three", {"x": "y"}, 9.0, "<= 2", False)]
        pa, pb = tmp_path / "a.report", tmp_path / "b.report"
        pa.write_text("".join(rec.line() + "\n" for rec in recs_a))
        pb.write_text("".join(rec.line() + "\n" for rec in recs_b))
        pa.write_text("# config echo line\n\n" + pa.read_text())
        assert read_records(str(pa)) == recs_a
        folded, summary = fold_record_files([str(pa), str(pb)])
        assert folded == recs_a + recs_b
        assert (summary.total, summary.passed, summary.failed, summary.exploratory) == (
            3,
            1,
            1,
            1,
        )
        assert not summary.ok
        assert summary.line().endswith("FAIL")
        ok_summary = summarize_records(recs_a)
        assert ok_summary.ok
        assert ok_summary.line().endswith("OK")


class TestRunExperiment:
    def test_plan_validation(self):
        spec = _matched_spec()
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentPlan(kind="nope", spec=spec, samples=10, master_seed=1)
        with pytest.raises(ValueError, match="sample count"):
            ExperimentPlan(kind="completeness", spec=spec, samples=0, master_seed=1)

    def test_completeness_on_the_grid(self):
        spec = _matched_spec(r=2, gamma=0.015625)
        plan = ExperimentPlan(
            kind="completeness",
            spec=spec,
            samples=4000,
            master_seed=SEED,
            threshold=0.5,
        )
        records = run_experiment(plan)
        by_id = {rec.check_id: rec for rec in records}
        assert by_id["completeness.acceptance"].status == "pass"
        assert by_id["completeness.balance-identity"].status == "pass"
        assert by_id["completeness.floor"].status == "pass"
        predicted = or_acceptance_closed_form(spec)
        assert abs(by_id["completeness.acceptance"].statistic - predicted) <= 0.05

    def test_soundness_probes_and_learner(self):
        spec = _matched_spec(r=1, gamma=1.0 / 144.0)
        plan = ExperimentPlan(
            kind="soundness",
            spec=spec,
            samples=6000,
            master_seed=SEED,
            threshold=exact_majority_gap(spec),
        )
        records = run_experiment(plan)
        assert [rec.check_id for rec in records] == [
            "soundness.majority.gap",
            "soundness.majority.balance-identity",
        ]
        gap, identity = records
        assert gap.status == "pass"
        assert gap.target.startswith(f"<= {plan.threshold!r} + 4.0*sigma(")
        assert identity.status == "pass"


def _one_pass_per_plan(plans):
    """The records of each plan from its own draw of the examples: the loop
    `run_experiment` replaced, which sampled the test's examples once per plan."""
    records = []
    for plan in plans:
        spec = plan.spec
        if plan.kind == "completeness":
            h = Disjunction(
                literals=frozenset((i, 0) for i in range(spec.k)), rows=spec.k, cols=spec.r
            )
        else:
            h = majority_halfspace(spec)
        step = core.chunk_rows(spec.dim)
        [rep] = agreement([h], (
            dict_test_batch(spec, plan.master_seed, 0, start, min(step, plan.samples - start))
            for start in range(0, plan.samples, step)
        ))
        records += harness._plan_records(plan, rep)
    return records


class TestSharedDraw:
    """dict-test draws its examples once for both of its checks."""

    SAMPLES = 30

    def _plans(self, spec=None, samples=SAMPLES, seed=SEED):
        spec = spec or _matched_spec(r=2, gamma=0.03125)
        return (
            ExperimentPlan("completeness", spec, samples, seed, 0.5),
            ExperimentPlan("soundness", spec, samples, seed, 0.2),
        )

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_records_equal_one_pass_per_plan(self, monkeypatch, rows):
        plans = self._plans()
        if rows is not None:
            monkeypatch.setattr(core, "CHUNK_CELLS", rows * plans[0].spec.dim)
        shared = run_experiment(*plans)
        assert [rec.line() for rec in shared] == [
            rec.line() for rec in _one_pass_per_plan(plans)
        ]
        assert [rec.check_id for rec in shared] == [
            "completeness.acceptance",
            "completeness.balance-identity",
            "completeness.floor",
            "soundness.majority.gap",
            "soundness.majority.balance-identity",
        ]
        for plan in plans:
            assert [rec.line() for rec in run_experiment(plan)] == [
                rec.line() for rec in _one_pass_per_plan([plan])
            ]

    def test_each_chunk_is_drawn_once(self, monkeypatch):
        plans = self._plans()
        monkeypatch.setattr(core, "CHUNK_CELLS", 7 * plans[0].spec.dim)
        calls = []

        def counted(spec, master_seed, stream_id, start, n, **kw):
            calls.append((start, n))
            return dict_test_batch(spec, master_seed, stream_id, start, n, **kw)

        monkeypatch.setattr(harness, "dict_test_batch", counted)
        run_experiment(*plans)
        assert calls == [(0, 7), (7, 7), (14, 7), (21, 7), (28, 2)]

    def test_plans_must_share_spec_samples_and_seed(self):
        complete, sound = self._plans()
        for other in (
            self._plans(spec=_matched_spec(r=3, gamma=0.03125))[1],
            self._plans(samples=self.SAMPLES + 1)[1],
            self._plans(seed=SEED + 1)[1],
        ):
            with pytest.raises(ValueError, match="share spec, samples and seed"):
                run_experiment(complete, other)
        with pytest.raises(ValueError, match="no experiment plans"):
            run_experiment()
