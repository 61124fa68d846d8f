"""The standard-library port of numpy's sampling algorithms against numpy itself.

Each test names the primitive it holds to numpy: the Philox4x64-10 words,
the Poisson draw, the binomial draw, the multinomial normalisation and
the multinomial chain on run_schedule's own Born tables.

The port must match bit for bit because the counts depend on the last
bit of each probability.  numpy's binomial draws on min(p, 1 - p) and
returns n - draw above 1/2, so a one-ulp change in a chained ratio near
1/2 changes that draw and every later draw on the stream; a bin that is
0 in one table and 1e-17 in another shifts the stream too, because an
inversion draw takes a uniform and p = 0 takes none.  So a sampled
document is reproducible only with the same table bits and the same
draws: the CLI reads the frame's table and this port, the library reads
the dense table and numpy.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from avnsim import _records, _sampler, experiment, reference
from avnsim.experiment import POISSON_LAM_MAX, Schedule, _born_stack, _probabilities, _stream
from avnsim.observables import CORRELATIONS
from avnsim.qstate import DIM
from avnsim.source import NoiseModel, SourceConfig, apply_noise, build_psi

SEEDS = [0, 1, 2**32, 2**63, 2**64 - 1]
DRAWS = 200


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_words_equal_numpys(seed):
    for idx in range(len(CORRELATIONS)):
        bits = _sampler.Philox(seed, idx)
        want = _stream(seed, idx).bit_generator.random_raw(256).tolist()
        assert [bits.raw() for _ in range(256)] == want, idx


def test_philox_doubles_equal_numpys():
    bits = _sampler.Philox(7, 3)
    assert [bits.double() for _ in range(DRAWS)] == _stream(7, 3).random(DRAWS).tolist()


@pytest.mark.parametrize("lam", [0.0, np.nextafter(10.0, 0.0), 10.0, 1e6, POISSON_LAM_MAX], ids=repr)
@pytest.mark.parametrize("seed", [0, 2**63])
def test_poisson_draws_equal_numpys(lam, seed):
    bits = _sampler.Philox(seed, 4)
    want = _stream(seed, 4).poisson(lam, DRAWS).tolist()
    assert [_sampler.poisson(bits, float(lam)) for _ in range(DRAWS)] == want


_HALF_UP, _HALF_DOWN = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
BINOMIAL_CASES = {
    # n * p = 30 exactly draws by inversion, one ulp more by BTPE
    "np_30_inversion": (1000, 0.03),
    "np_30_btpe": (1000, np.nextafter(0.03, 1.0)),
    "np_30_reflected_inversion": (1000, 0.97),
    "np_30_reflected_btpe": (1000, np.nextafter(0.97, 0.0)),
    "half_btpe": (1000, 0.5),
    "half_up_btpe": (1000, _HALF_UP),
    "half_down_btpe": (1000, _HALF_DOWN),
    "half_up_inversion": (40, _HALF_UP),
    "half_down_inversion": (40, _HALF_DOWN),
    "p_zero": (1000, 0.0),
    "p_one": (1000, 1.0),
    "n_zero": (0, 0.3),
    "n_2_62_inversion": (2**62 - 7, 3e-18),
    "n_2_62_btpe": (2**62 - 7, 0.25),
    "n_2_62_half_up": (2**62 - 7, _HALF_UP),
    "n_2_62_half_down": (2**62 - 7, _HALF_DOWN),
}


@pytest.mark.parametrize("n, p", BINOMIAL_CASES.values(), ids=BINOMIAL_CASES)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_binomial_draws_equal_numpys(n, p, seed):
    bits = _sampler.Philox(seed, 8)
    want = _stream(seed, 8).binomial(n, p, DRAWS).tolist()
    assert [_sampler.binomial(bits, n, float(p)) for _ in range(DRAWS)] == want


def test_multinomial_normalisation_equals_numpys_division_by_its_pairwise_sum():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        dist = rng.random(DIM) ** rng.choice([1, 8, 32])
        dist[rng.random(DIM) < 0.3] = 0.0
        if dist.sum() > 0.0:
            assert _sampler.normalise(dist.tolist()) == (dist / dist.sum()).tolist()


def _dense_table(rho):
    # the table run_schedule checks and draws from
    return _probabilities(np.einsum("koij,ji->ko", _born_stack(), rho))


def _runs():
    fitted = reference.fitted_noise().model
    noisy = NoiseModel(0.1, 0.9, 0.8, -1.2)
    return {
        "fitted_matched": (apply_noise(build_psi(0.0), fitted), reference.matched_schedule()),
        "noisy_default": (apply_noise(build_psi(SourceConfig(0.7)), noisy), Schedule()),
        "noisy_pair_rate_2": (apply_noise(build_psi(SourceConfig(0.7)), noisy), Schedule(pair_rate=2.0)),
    }


@pytest.mark.parametrize("run", ["fitted_matched", "noisy_default", "noisy_pair_rate_2"])
def test_multinomial_counts_equal_numpys_on_run_schedules_tables(run):
    rho, schedule = _runs()[run]
    table = _dense_table(rho)
    for seed in range(300):
        for idx, (corr, dist) in enumerate(zip(CORRELATIONS, table)):
            rng, bits = _stream(seed, idx), _sampler.Philox(seed, idx)
            n = int(rng.poisson(schedule.mean_counts(corr.id)))
            assert _sampler.poisson(bits, schedule.mean_counts(corr.id)) == n, (seed, corr.id)
            want = rng.multinomial(n, dist / dist.sum()).tolist()
            assert _sampler.multinomial(bits, n, _sampler.normalise(dist.tolist())) == want, (seed, corr.id)


def test_multinomial_replay_of_the_dense_table_gives_run_schedules_report():
    rho, schedule = _runs()["noisy_default"]
    table = _dense_table(rho)
    report = experiment.run_schedule(rho, schedule, 5)
    for idx, (corr, dist, est) in enumerate(zip(CORRELATIONS, table, report.estimates)):
        bits = _sampler.Philox(5, idx)
        n = _sampler.poisson(bits, schedule.mean_counts(corr.id))
        counts = _sampler.multinomial(bits, n, _sampler.normalise(dist.tolist()))
        assert _records._estimate(corr.id, np.array(counts), n) == est


VECTORS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sampler_vectors.json")
VECTOR_DRAWS = 30


def _hex(values):
    return [float(v).hex() for v in values]


def _digest(draws):
    """The sha256 of a long run's draws (ints, or lists of counts) as str() writes them, joined by spaces."""
    return hashlib.sha256(" ".join(map(str, draws)).encode()).hexdigest()


# long runs, each reaching its named branch many times: (inputs, draws)
LONG_RUNS = {
    "ptrs_slow_path_lam_10_5": ({"lam": (10.5).hex()}, 30_000),
    "ptrs_slow_path_lam_1e6": ({"lam": (1e6).hex()}, 30_000),
    "btpe_explicit_np_31": ({"n": 1000, "p": (0.031).hex()}, 30_000),
    "btpe_squeeze_and_stirling_npq_90": ({"n": 1000, "p": (0.1).hex()}, 30_000),
    "btpe_squeeze_and_stirling_npq_2100": ({"n": 10_000, "p": (0.3).hex()}, 50_000),
    # k * k beyond int64 in the squeeze, which numpy's C arithmetic wraps
    "btpe_int64_wrap_n_2_62": ({"n": 2**62 - 7, "p": (0.25).hex()}, 20_000),
    # q = 1 - p with q n one ulp below 30: the reflected draw by inversion
    # (q n at p = 0.97 rounds above 30, so that case draws by BTPE)
    "reflected_inversion_qn_below_30": ({"n": 1000, "p": float(np.nextafter(0.97, 1.0)).hex()}, 5_000),
    # the chain often has one event left before its last bin
    "multinomial_three_events": ({"n": 3, "pvals": _hex([1 / 16] * 16)}, 3_000),
}


def _numpy_outputs(kind, case):
    """What numpy draws for one committed vector's inputs.

    A draw vector ends with `next_word`, the raw word numpy draws next, so
    a replay that takes one word too many or too few fails.
    """
    rng = _stream(case["seed"], case["index"])
    if kind == "philox":
        return {"words": rng.bit_generator.random_raw(16).tolist()}
    if kind == "long_run":
        if "lam" in case:
            draws = rng.poisson(float.fromhex(case["lam"]), case["count"])
        elif "p" in case:
            draws = rng.binomial(case["n"], float.fromhex(case["p"]), case["count"])
        else:
            draws = rng.multinomial(case["n"], [float.fromhex(w) for w in case["pvals"]], case["count"])
        out = {"sha256": _digest(draws.tolist())}
    elif kind == "poisson":
        out = {"draws": rng.poisson(float.fromhex(case["lam"]), VECTOR_DRAWS).tolist()}
    elif kind == "binomial":
        out = {"draws": rng.binomial(case["n"], float.fromhex(case["p"]), VECTOR_DRAWS).tolist()}
    else:
        n = int(rng.poisson(float.fromhex(case["lam"])))
        dist = np.array([float.fromhex(w) for w in case["weights"]])
        pvals = dist / dist.sum()
        out = {"n": n, "pvals": _hex(pvals), "counts": rng.multinomial(n, pvals).tolist()}
    return {**out, "next_word": int(rng.bit_generator.random_raw())}


def _sampler_vectors():
    """The vectors tests/test_sampler_vectors.py replays without numpy.

    The multinomial rows are run_schedule's Born table of the fitted state
    under the matched schedule, for seeds 0 and 1, and one row at mean 0,
    which draws no events.  The long runs store only the sha256 of their
    draws (see _digest) and the word after them.
    """
    inputs = {
        "philox": [{"seed": s, "index": i} for s, i in [(0, 0), (1, 8), (2**63, 3), (2**64 - 1, 8)]],
        "poisson": [
            {"seed": seed, "index": 4, "lam": float(lam).hex()}
            for lam in [np.nextafter(10.0, 0.0), 10.0, 1e6] for seed in [0, 2**63]
        ],
        "binomial": [
            {"case": name, "seed": seed, "index": 8, "n": n, "p": float(p).hex()}
            for name in ["np_30_inversion", "np_30_btpe", "np_30_reflected_inversion", "np_30_reflected_btpe"]
            for n, p in [BINOMIAL_CASES[name]]
            for seed in [0, 2**64 - 1]
        ],
    }
    rho, schedule = _runs()["fitted_matched"]
    table = _dense_table(rho)
    rows = [(seed, idx, schedule.mean_counts(corr.id)) for seed in (0, 1) for idx, corr in enumerate(CORRELATIONS)]
    inputs["multinomial"] = [
        {"seed": seed, "index": idx, "lam": float(lam).hex(), "weights": _hex(table[idx])}
        for seed, idx, lam in rows + [(2, 0, 0.0)]
    ]
    inputs["long_run"] = [
        {"case": name, "seed": 0, "index": 4 if "lam" in params else 8, **params, "count": count}
        for name, (params, count) in LONG_RUNS.items()
    ]
    vectors = {kind: [{**case, **_numpy_outputs(kind, case)} for case in cases] for kind, cases in inputs.items()}
    return {"numpy": np.__version__, **vectors}


def test_committed_vectors_are_numpys_draws():
    with open(VECTORS, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed.pop("numpy") == "2.4.6"
    for kind, cases in committed.items():
        for case in cases:
            assert {**case, **_numpy_outputs(kind, case)} == case, (kind, case)


def test_committed_multinomial_weights_are_run_schedules_born_table():
    with open(VECTORS, encoding="utf-8") as fh:
        committed = json.load(fh)["multinomial"]
    table = _dense_table(_runs()["fitted_matched"][0])
    for case in committed:
        assert case["weights"] == _hex(table[case["index"]]), case


if __name__ == "__main__":
    # rewrite the committed vectors: PYTHONPATH=src python tests/test_sampler.py
    with open(VECTORS, "w", encoding="utf-8") as fh:
        json.dump(_sampler_vectors(), fh, indent=1)
        fh.write("\n")
