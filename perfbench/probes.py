"""Host reference loop and timed probes of ring and series kernels.

The reference loop is pure-Python tuple and big-int arithmetic of the kind
ltk's kernels do, and uses no ltk code.  The host this benchmark was built
on slows by up to 40% for seconds to minutes at a time, for reasons outside
the process; the loop, timed next to each op, measures that host speed so
op times can be scaled to a fixed nominal host (see run.py).

Probe operands are fixed (seeded independently of the workload seed), so a
probe measures the same work in every run; only the host and ltk change.
Each probe reports the median of several timed samples.
"""

import random
import statistics
import time

SAMPLES = 5
REF_NOMINAL_S = 0.0005  # reference loop time on the nominal host
_REF_MOD = 3 ** 13


def reference_loop():
    """Wall time in seconds of one pass of the host reference loop."""
    t0 = time.perf_counter()
    acc, out = (1, 2), []
    for i in range(2000):
        acc = ((acc[0] * acc[1] + i) % _REF_MOD, (acc[0] + acc[1] * i) % _REF_MOD)
        out.append(acc)
    return time.perf_counter() - t0


def host_scale(before, after):
    """Factor taking a wall time measured between two reference passes to
    the nominal host."""
    return 2 * REF_NOMINAL_S / (before + after)


def host_calib_ms():
    """host.calib_ms: median of 25 reference passes, in ms."""
    return statistics.median(reference_loop() for _ in range(25)) * 1e3


def _median_time(fn, reps):
    """Median over SAMPLES of the mean wall time of one fn() call, in s."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def _unit(spec, rng):
    while True:
        x = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
        if x.is_unit():
            return x


def ring_probes():
    """rings.mul_us.<kind> and rings.inverse_us.<kind>, in microseconds.

    Each kind uses the ring a workload computes in; unramified runs at p=2
    because the default polynomial x^2 + x + 1 is reducible mod 3.
    """
    from ltk.rings import make_composite, make_ring
    okp = make_ring(3, 13, "ramified_quad", quad=(0, 3))
    rings = {
        "zp": make_ring(3, 12, "zp"),                                 # iwasawa_invariants
        "ramified_quad": make_ring(3, 7, "ramified_quad", quad=(0, 3)),  # lt_coleman
        "unramified_quad": make_ring(2, 7, "unramified_quad", quad=(1, 1)),
        "cyclotomic": make_ring(3, 13, "cyclotomic", level=2),        # okp_moments cosets
        "composite": make_composite(okp, 2),
    }
    rng = random.Random(1)
    out = {}
    for kind, spec in rings.items():
        x, y = _unit(spec, rng), _unit(spec, rng)
        out[f"rings.mul_us.{kind}"] = (_median_time(lambda: x * y, 400) * 1e6, "us")
        out[f"rings.inverse_us.{kind}"] = (_median_time(x.inverse, 20) * 1e6, "us")
    return out


def series_probes():
    """series.{mul,compose,invert}_ms.capC for C in 24, 64, 128.

    Cap 24 runs over lt_coleman's ring (ramified, p=3, N=7); caps 64 and 128
    over okp_moments' value ring (Z/3^13), whose series reach cap 64.
    """
    from ltk.rings import make_ring
    from ltk.series import TruncSeries
    ram = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    zp = make_ring(3, 13, "zp")
    rng = random.Random(2)
    out = {}
    for cap, spec, reps in ((24, ram, (10, 1, 10)), (64, zp, (5, 1, 5)),
                            (128, zp, (2, 1, 2))):
        a = TruncSeries(spec, cap, [_unit(spec, rng) for _ in range(cap)])
        b = TruncSeries(spec, cap, [_unit(spec, rng) for _ in range(cap)])
        inner = TruncSeries(spec, cap, [spec.zero()] + [
            _unit(spec, rng) for _ in range(cap - 1)])
        out[f"series.mul_ms.cap{cap}"] = (_median_time(lambda: a * b, reps[0]) * 1e3, "ms")
        out[f"series.compose_ms.cap{cap}"] = (
            _median_time(lambda: a.compose(inner), reps[1]) * 1e3, "ms")
        out[f"series.invert_ms.cap{cap}"] = (_median_time(a.invert, reps[2]) * 1e3, "ms")
    return out
