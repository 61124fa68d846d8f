"""numpy's Generator sampling paths, ported bit for bit to the standard library.

`avnsim simulate` and `reproduce-paper` draw their counts here, so they
run without numpy; experiment.run_schedule draws the same algorithms
from numpy itself, and the tests hold each primitive to numpy's output:

- Philox4x64-10 (Salmon et al. 2011), keyed (seed, stream index) from
  counter 0 with an empty buffer, as experiment._rekey sets numpy's
  Philox before each stream.  The counter is incremented before each
  four-word block.
- a double is the top 53 bits of one word times 2^-53.
- Poisson: the multiplication method below lam = 10, PTRS (Hoermann
  1993) from 10 up.
- binomial: inversion when n p <= 30, BTPE (Kachitvichyanukul and
  Schmeiser 1988) otherwise, each on min(p, 1 - p) with n - draw for
  p > 0.5.
- multinomial: the chain of binomials on p_j / (1 - p_0 - ... - p_{j-1}),
  after numpy's normalisation, each row over the pairwise sum of its 16
  weights (run_schedule divides its nine rows at once, to the same bits).

The arithmetic follows numpy's C source operation by operation: the
counts depend on the last bit of every probability and every draw.
"""

import math

_MASK = (1 << 64) - 1
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


class Philox:
    """The Philox4x64-10 stream keyed (key, index), from its start.

    Precondition: key and index are ints in [0, 2**64).  The key is a seed
    the caller has checked once (_records.check_seed), as _frame.simulate
    does; a key outside the range would alias another key's stream.
    """

    __slots__ = ("_keys", "_counter", "_buffer")

    def __init__(self, key: int, index: int):
        self._keys = [((key + r * _WEYL[0]) & _MASK, (index + r * _WEYL[1]) & _MASK) for r in range(_ROUNDS)]
        self._counter = 0
        self._buffer: list[int] = []

    def _block(self) -> None:
        self._counter = (self._counter + 1) & ((1 << 256) - 1)
        c = self._counter
        c0, c1, c2, c3 = c & _MASK, c >> 64 & _MASK, c >> 128 & _MASK, c >> 192
        m0, m1 = _MULTIPLIERS
        for k0, k1 in self._keys:
            p0, p1 = m0 * c0, m1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        # popped from the end: the first word of the block is drawn first
        self._buffer = [c3, c2, c1, c0]

    def raw(self) -> int:
        """The next 64-bit word."""
        if not self._buffer:
            self._block()
        return self._buffer.pop()

    def double(self) -> float:
        """A uniform double in [0, 1) from the top 53 bits of the next word."""
        return (self.raw() >> 11) * (1.0 / 9007199254740992.0)


def _int64_floor(x: float) -> int:
    """(int64_t)floor(x) as x86-64 casts it: a value out of range gives INT64_MIN."""
    return math.floor(x) if -9.223372036854775808e18 <= x < 9.223372036854775808e18 else -(1 << 63)


def _wrap64(i: int) -> int:
    """An integer product as int64_t arithmetic wraps it."""
    return (i + (1 << 63)) % (1 << 64) - (1 << 63)


def _loggam(x: float) -> float:
    """log Gamma(x) by Stirling's series with upward recurrence below 7."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = -1.39243221690590e00
    for a in (
        1.796443723688307e-01,
        -2.955065359477124e-02,
        6.410256410256410e-03,
        -1.917526917526918e-03,
        8.417508417508418e-04,
        -5.952380952380952e-04,
        7.936507936507937e-04,
        -2.777777777777778e-03,
        8.333333333333333e-02,
    ):
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e00 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def poisson(bits: Philox, lam: float) -> int:
    """numpy's Poisson draw for a mean 0 <= lam <= POISSON_LAM_MAX."""
    if lam >= 10.0:
        return _poisson_ptrs(bits, lam)
    if lam == 0.0:
        return 0
    enlam = math.exp(-lam)
    x, prod = 0, 1.0
    while True:
        prod *= bits.double()
        if prod <= enlam:
            return x
        x += 1


def _poisson_ptrs(bits: Philox, lam: float) -> int:
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = bits.double() - 0.5
        v = bits.double()
        us = 0.5 - abs(u)
        if us == 0.0:
            # C's k is then (int64_t)floor(-inf), a negative integer: rejected
            continue
        k = _int64_floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        # log(0) is -inf in C; v = 0 always accepts here
        log_v = math.log(v) if v > 0.0 else -math.inf
        if log_v + math.log(invalpha) - math.log(a / (us * us) + b) <= -lam + k * loglam - _loggam(float(k + 1)):
            return k


def binomial(bits: Philox, n: int, p: float) -> int:
    """numpy's binomial draw of n trials at success probability p in [0, 1]."""
    if n == 0 or p == 0.0:
        return 0
    # both methods draw at r = min(p, 1 - p); the count at p > 0.5 is n less the draw
    r = p if p <= 0.5 else 1.0 - p
    x = _binomial_inversion(bits, n, r) if r * n <= 30.0 else _binomial_btpe(bits, n, r)
    return x if p <= 0.5 else n - x


def _binomial_inversion(bits: Philox, n: int, p: float) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    np_ = n * p
    bound = int(min(float(n), np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = bits.double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = bits.double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(bits: Philox, n: int, r: float) -> int:
    """BTPE's draw of n trials at success probability r <= 0.5."""
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        u = bits.double() * p4
        v = bits.double()
        if u <= p1:
            # triangular region: always accepted
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            # parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            # left exponential tail
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:
            # right exponential tail
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):
            # explicit evaluation of f(y) / f(m)
            s = r / q
            a = s * (n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v <= f:
                return y
            continue
        # squeeze on log f(y) / f(m), then the Stirling bound
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _wrap64(-k * k) / (2 * nrq)
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = float(y + 1)
        f1 = float(m + 1)
        z = float(n + 1 - m)
        w = float(n - y + 1)
        bound = (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + _stirling(f1)
            + _stirling(z)
            + _stirling(x1)
            + _stirling(w)
        )
        if big_a <= bound:
            return y


def _stirling(x: float) -> float:
    # numpy's BTPE writes the series' 1/12 as 13680/166320 where it is
    # 13860/166320; the port keeps numpy's 13680, since its accept bound must
    # be numpy's to the last bit for the draws to be numpy's
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def normalise(dist) -> list[float]:
    """dist / dist.sum() for 16 non-negative weights, summed pairwise as numpy sums them."""
    r = [dist[j] + dist[8 + j] for j in range(8)]
    total = 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    return [x / total for x in dist]


def multinomial(bits: Philox, n: int, pvals) -> list[int]:
    """numpy's multinomial draw of n events over pvals: a chain of binomials."""
    counts = [0] * len(pvals)
    remaining_p = 1.0
    dn = n
    for j in range(len(pvals) - 1):
        counts[j] = binomial(bits, dn, pvals[j] / remaining_p)
        dn -= counts[j]
        if dn <= 0:
            break
        remaining_p -= pvals[j]
    if dn > 0:
        counts[-1] = dn
    return counts
