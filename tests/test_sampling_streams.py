import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avnsim import _frame, _sampler, experiment
from avnsim.experiment import (
    Schedule,
    _born_stack,
    _born_table,
    _exact_stack,
    _joint_projectors,
    _probabilities,
    _stream,
    context_pair,
    sample_events,
)
from avnsim.observables import CORRELATIONS, bell_operator, correlation_operators
from avnsim.qstate import DIM
from avnsim.source import NoiseModel, SourceConfig, apply_noise, build_psi

_SEEDS = [0, 1, 2**32, 2**63, 2**64 - 1]


def _fresh(seed, idx):
    # an independent derivation: a new Philox whose key is (seed, index)
    return np.random.Philox(key=np.array([seed, idx], dtype=np.uint64))


def _dirty(bits):
    # leave the generator mid-stream, with buffered words and a spare 32-bit half
    rng = np.random.Generator(bits)
    rng.poisson(5.0)
    rng.integers(2**32, dtype=np.uint32)
    bits.random_raw(3)


@pytest.mark.parametrize("seed", _SEEDS)
def test_one_rekeyed_generator_gives_every_stream_of_a_seed(seed):
    bits = np.random.Philox()
    for idx in range(len(CORRELATIONS)):
        _dirty(bits)
        first = _stream(seed, idx, bits).bit_generator.random_raw(256)
        assert np.array_equal(first, _stream(seed, idx).bit_generator.random_raw(256))
        assert np.array_equal(first, _fresh(seed, idx).random_raw(256))
        # a second re-key of the same generator, after it has drawn, starts over
        _dirty(bits)
        assert np.array_equal(_stream(seed, idx, bits).bit_generator.random_raw(256), first)
        _dirty(bits)
        halves = _stream(seed, idx, bits).integers(2**32, size=9, dtype=np.uint32)
        assert np.array_equal(halves, np.random.Generator(_fresh(seed, idx)).integers(2**32, size=9, dtype=np.uint32))


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("idx", [0, 8])
def test_a_plain_int_rekey_sets_the_state_of_a_uint64_key(key, idx):
    # a signed slip in the cast of a word above 2**63 would change the key
    bits = np.random.Philox()
    _dirty(bits)
    experiment._rekey(bits, key, idx)
    want = _fresh(key, idx)
    state, fresh = bits.state, want.state
    for words in ("counter", "key"):
        assert np.array_equal(state["state"][words], fresh["state"][words]), words
        assert state["state"][words].dtype == np.uint64, words
    assert np.array_equal(state["buffer"], fresh["buffer"])
    assert {k: state[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")} == {
        k: fresh[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")
    }
    assert bits.random_raw(8).tolist() == want.random_raw(8).tolist()


def test_rekeying_checks_the_seed():
    with pytest.raises(ValueError, match=str(2**64)):
        _stream(2**64, 0, np.random.Philox())


_NOISE = NoiseModel(0.1, 0.9, 0.8, -1.2)
# the three sampling entry points: the library run, one table, and the CLI run
SAMPLERS = {
    "run_schedule": lambda seed: experiment.run_schedule(apply_noise(build_psi(0.7), _NOISE), Schedule(), seed),
    "sample_events": lambda seed: sample_events(np.full(DIM, 1.0 / DIM), 1000, seed),
    "frame_simulate": lambda seed: _frame.simulate(SourceConfig(0.7), _NOISE, Schedule(), seed),
}


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.9)], ids=["float", "bool", "numpy_float"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_a_seed_that_is_not_an_integer_is_rejected_not_aliased(sampler, seed):
    # int(1.5) and True would silently draw seed 1's streams
    with pytest.raises(ValueError, match="seed must be an integer"):
        SAMPLERS[sampler](seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)], ids=["int64", "uint64_max"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_a_numpy_integer_seed_gives_the_streams_of_the_equal_int(sampler, seed):
    assert SAMPLERS[sampler](seed) == SAMPLERS[sampler](int(seed))


def test_the_born_stack_is_the_nine_pairs_read_only_in_correlation_order():
    stack = _born_stack()
    assert stack.shape == (len(CORRELATIONS), DIM, DIM, DIM)
    assert stack.dtype == complex
    assert not stack.flags.writeable
    for row, corr in zip(stack, CORRELATIONS):
        pair = context_pair(corr.id)
        assert row.tobytes() == _joint_projectors(pair.alice, pair.bob).tobytes(), corr.id


def test_the_exact_stack_is_the_nine_operators_the_bell_operator_and_the_m_projectors_read_only():
    stack = _exact_stack()
    pair = context_pair("M")
    rows = [*correlation_operators(), bell_operator(), *_joint_projectors(pair.alice, pair.bob)]
    assert stack.shape == (len(CORRELATIONS) + 1 + DIM, DIM, DIM)
    assert stack.dtype == complex
    assert not stack.flags.writeable
    assert [row.tobytes() for row in stack] == [row.tobytes() for row in rows]


_UNIT = st.floats(0.0, 1.0)
_ANGLE = st.floats(-math.pi, math.pi)
_AMPLITUDES = st.lists(st.floats(-1.0, 1.0), min_size=2 * DIM, max_size=2 * DIM).filter(
    lambda parts: math.fsum(x * x for x in parts) > 1e-6
)


@settings(max_examples=100, deadline=None)
@given(parts=_AMPLITUDES, phi=_ANGLE, w=_UNIT, vp=_UNIT, vq=_UNIT, delta=_ANGLE)
def test_the_stacked_born_table_equals_the_per_pair_rows_bit_for_bit(parts, phi, w, vp, vq, delta):
    # the table run_schedule checks and draws from, against one einsum per pair
    psi = np.array(parts[:DIM]) + 1j * np.array(parts[DIM:])
    model = NoiseModel(w, vp, vq, delta)
    for state in (psi / np.linalg.norm(psi), build_psi(SourceConfig(phi))):
        rho = apply_noise(state, model)
        with mock.patch.object(experiment, "_probabilities", wraps=experiment._probabilities) as checked:
            experiment.run_schedule(rho, Schedule(pair_rate=2.0), 0)
        (table,), _ = checked.call_args
        pairs = [context_pair(corr.id) for corr in CORRELATIONS]
        rows = np.array([np.einsum("oij,ji->o", _joint_projectors(p.alice, p.bob), rho) for p in pairs])
        assert table.shape == rows.shape
        assert table.tobytes() == rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(parts=_AMPLITUDES, phi=_ANGLE, w=_UNIT, vp=_UNIT, vq=_UNIT, delta=_ANGLE)
def test_the_one_division_normalises_each_row_as_its_own_division_and_the_port_do(parts, phi, w, vp, vq, delta):
    # run_schedule draws from _born_table and _frame.simulate from _sampler.normalise:
    # the two count alike only if both normalise a row to the same bits
    psi = np.array(parts[:DIM]) + 1j * np.array(parts[DIM:])
    model = NoiseModel(w, vp, vq, delta)
    for state in (psi / np.linalg.norm(psi), build_psi(SourceConfig(phi))):
        rho = apply_noise(state, model)
        table = _born_table(rho)
        checked = _probabilities(np.einsum("koij,ji->ko", _born_stack(), rho))
        for row, dist in zip(table, checked):
            assert row.tobytes() == (dist / dist.sum()).tobytes()
            assert row.tolist() == _sampler.normalise(dist.tolist())


@pytest.mark.parametrize("seed", [0, 3, 2**63, 2**64 - 1])
def test_sample_events_draws_the_seeds_stream_zero_on_the_threads_generator(seed):
    weights = np.arange(1.0, DIM + 1.0)
    for n in (0, 1, 17, 1000, 10**6):
        for dist in (np.full(DIM, 1.0 / DIM), weights):
            want = experiment._draw_counts(_stream(seed, 0), dist, n)
            assert sample_events(dist, n, seed) == want, n
            # a run between two calls leaves the thread's generator mid-stream
            experiment.run_schedule(np.eye(DIM) / DIM, Schedule(pair_rate=5.0), seed)
            _dirty(experiment._THREAD.rng.bit_generator)
            assert sample_events(dist, n, seed) == want, n


_THREAD_SEEDS = [[4 * k + t for k in range(5)] for t in range(4)]


def _run(seed):
    return repr(SAMPLERS["run_schedule"](seed))


def test_each_thread_draws_the_reports_of_a_sequential_run():
    want = [[_run(seed) for seed in seeds] for seeds in _THREAD_SEEDS]
    got = [None] * len(_THREAD_SEEDS)
    start = threading.Barrier(len(_THREAD_SEEDS), timeout=60)

    def work(t):
        start.wait()
        got[t] = [_run(seed) for seed in _THREAD_SEEDS[t]]

    rekey = experiment._rekey

    def rekey_and_yield(*args):
        # hand the interpreter to another thread between a re-key and its draws,
        # where a generator shared by the threads would draw another run's stream
        rekey(*args)
        time.sleep(0)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(_THREAD_SEEDS))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(experiment, "_rekey", rekey_and_yield):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_a_run_after_the_threads_generator_was_left_mid_stream_equals_a_fresh_run():
    fresh = {}
    # a new thread builds its generator on this run
    thread = threading.Thread(target=lambda: fresh.update(report=_run(7)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    _run(7)  # builds this thread's generator if no test has
    rng = experiment._THREAD.rng
    rng.binomial(1000, 0.3)  # a binomial set-up for another (n, p)
    _dirty(rng.bit_generator)
    assert _run(7) == fresh["report"]
