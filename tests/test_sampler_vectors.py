"""The standard-library sampler against numpy's committed draws, without numpy.

tests/data/sampler_vectors.json holds what numpy 2.4.6 drew for fixed
inputs: raw Philox4x64-10 words for four (seed, index) keys, Poisson
draws on both sides of the PTRS switch at lam = 10, binomial draws at
n p = 30 (inversion) and one ulp above (BTPE) with their p > 1/2
reflections, and multinomial rows of run_schedule's Born table of the
fitted state, one of them with no events; and long runs of 3,000 to
50,000 draws, stored as the sha256 of the draws, that reach PTRS's and
BTPE's slower branches, BTPE's int64 wrap and the multinomial chain's
last event many times.  Floats are stored by float.hex.  Each draw
vector ends with the raw word numpy drew next, so the port must also
take exactly as many words.  The log-Gamma helpers of the Poisson and
binomial bounds are checked against math.lgamma.

This file imports neither numpy nor hypothesis, so the numpy-free CI job
runs it; tests/test_sampler.py holds the port to live numpy and checks
the vectors against numpy.  Each test takes no argument, so a script can
call them on an interpreter without pytest.
"""

import functools
import hashlib
import json
import math
import os

from avnsim import _sampler

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
with open(os.path.join(DATA, "sampler_vectors.json"), encoding="utf-8") as fh:
    VECTORS = json.load(fh)


def _drawn(case, draw):
    """case's draws from a fresh (seed, index) stream, then the raw word after them."""
    bits = _sampler.Philox(case["seed"], case["index"])
    return [draw(bits) for _ in case["draws"]], bits.raw()


def test_philox_words():
    for case in VECTORS["philox"]:
        bits = _sampler.Philox(case["seed"], case["index"])
        assert [bits.raw() for _ in case["words"]] == case["words"], case


def test_poisson_draws():
    for case in VECTORS["poisson"]:
        lam = float.fromhex(case["lam"])
        assert _drawn(case, lambda bits: _sampler.poisson(bits, lam)) == (case["draws"], case["next_word"]), case


def test_binomial_draws():
    cases = VECTORS["binomial"]
    regimes = {"np_30_inversion", "np_30_btpe", "np_30_reflected_inversion", "np_30_reflected_btpe"}
    assert {c["case"] for c in cases} == regimes
    for case in cases:
        n, p = case["n"], float.fromhex(case["p"])
        assert _drawn(case, lambda bits: _sampler.binomial(bits, n, p)) == (case["draws"], case["next_word"]), case


def test_multinomial_rows():
    cases = VECTORS["multinomial"]
    assert 0 in {c["n"] for c in cases}
    for case in cases:
        pvals = _sampler.normalise([float.fromhex(w) for w in case["weights"]])
        assert [p.hex() for p in pvals] == case["pvals"], case
        bits = _sampler.Philox(case["seed"], case["index"])
        n = _sampler.poisson(bits, float.fromhex(case["lam"]))
        assert n == case["n"], case
        assert _sampler.multinomial(bits, n, pvals) == case["counts"], case
        assert bits.raw() == case["next_word"], case


def test_long_runs():
    # each run reaches its branch many times: PTRS's log test at a small and
    # a large mean, BTPE's explicit f(y) / f(m) at n p = 31, its squeeze and
    # Stirling bound at a small and a large n p q, its int64 wrap of k * k at
    # n near 2^62, inversion on q = 1 - p just below the switch, and the
    # multinomial chain with one event left
    cases = VECTORS["long_run"]
    assert {c["case"] for c in cases} == {
        "ptrs_slow_path_lam_10_5",
        "ptrs_slow_path_lam_1e6",
        "btpe_explicit_np_31",
        "btpe_squeeze_and_stirling_npq_90",
        "btpe_squeeze_and_stirling_npq_2100",
        "btpe_int64_wrap_n_2_62",
        "reflected_inversion_qn_below_30",
        "multinomial_three_events",
    }
    for case in cases:
        bits = _sampler.Philox(case["seed"], case["index"])
        if "lam" in case:
            draw = functools.partial(_sampler.poisson, bits, float.fromhex(case["lam"]))
        elif "p" in case:
            draw = functools.partial(_sampler.binomial, bits, case["n"], float.fromhex(case["p"]))
        else:
            draw = functools.partial(_sampler.multinomial, bits, case["n"], [float.fromhex(w) for w in case["pvals"]])
        digest = hashlib.sha256(" ".join(str(draw()) for _ in range(case["count"])).encode()).hexdigest()
        assert (digest, bits.raw()) == (case["sha256"], case["next_word"]), case["case"]


def test_loggam_is_the_standard_librarys_lgamma():
    # every multiple of 1/2 from 1 to 400: the recurrence below 7 and the series above
    for k in range(2, 801):
        x = k / 2
        assert abs(_sampler._loggam(x) - math.lgamma(x)) <= 2e-12, x


def test_stirling_is_the_remainder_of_stirlings_formula_with_numpys_13680():
    # the remainder lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2) of the series
    # with 13860 is the port's value plus the 180 / (166320 x) numpy leaves out
    for x in range(21, 5001):
        remainder = math.lgamma(x) - ((x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi))
        assert abs(_sampler._stirling(float(x)) + 180.0 / (166320.0 * x) - remainder) <= 5e-11, x
