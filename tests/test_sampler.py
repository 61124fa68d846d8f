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
