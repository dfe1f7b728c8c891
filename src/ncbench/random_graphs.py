"""Seeded Erdős–Rényi-type DAG/CPDAG samplers used as negative controls.

A draw picks a uniform m-subset of the unordered node pairs as the skeleton
and orients it along a uniformly random total order, so conditional on
(d, m) every pair is included with probability m / m_max.
"""

from __future__ import annotations

import contextlib
import functools
import itertools

from .graphs import _as_int, _built, _checked_d, _compelled, _Record, max_edges

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's mixing order over its pool of 4, after each word hashes its own entropy.
_MIXES = [(i, i) for i in range(4)] + [(s, t) for s in range(4) for t in range(4) if s != t]


def _seeded(entropy):
    """(state, inc) of numpy's PCG64(SeedSequence(entropy)) for non-negative ints: their
    little-endian 32-bit words into the pool, generate_state(4, np.uint64) out as
    (initstate, initseq), then state = 0, inc = initseq << 1 | 1, step, add initstate, step.
    Each hash is v ^= h; h *= mult; v *= h; v ^= v >> 16, all mod 2**32."""
    words = []
    for n in entropy:
        words.append(n & _M32)
        while n >> 32:
            n >>= 32
            words.append(n & _M32)
    pool, h = words + [0] * (4 - len(words)), 0x43B0D7E5
    for src, dst in _MIXES + [(s, t) for s in range(4, len(words)) for t in range(4)]:
        v = pool[src] ^ h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        v ^= v >> 16
        if src != dst:  # mix into the pool word
            v = (0xCA01F9DD * pool[dst] - 0x4973F715 * v) & _M32
            v ^= v >> 16
        pool[dst] = v
    out, h = [], 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    initstate = (out[0] | out[1] << 32) << 64 | out[2] | out[3] << 32
    inc = ((out[4] | out[5] << 32) << 65 | (out[6] | out[7] << 32) << 1 | 1) & _M128
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def _lemire_retry(word, span, m):
    """Lemire's rejection (numpy's buffered_bounded_lemire_uint32) for m = word() * span:
    the first m, this or redrawn, whose low word is at least 2**32 % span."""
    threshold = (2**32 - span) % span
    while m & _M32 < threshold:
        m = word() * span
    return m


class Stream:
    """numpy's PCG64 stream and the three Generator methods the package uses,
    draw for draw in pure Python, as of numpy 2.4. NumPy's policy (NEP 19)
    fixes a bit generator's output across releases but lets Generator methods
    change, so the package keeps its own copy of them. numpy() hands the
    stream's state to a numpy Generator, for the SEM and its noise."""

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, entropy):
        self.state, self.inc = _seeded(entropy)
        self.has_uint32 = self.uinteger = 0

    def _words(self):
        """The 32-bit draws, numpy's next_uint32: the low, then the high half of each 64-bit
        XSL-RR output. Closing the iterator sets the fields to the state after the last."""
        s, inc, has, high = self.state, self.inc, self.has_uint32, self.uinteger
        try:
            if has:
                has = 0
                yield high
            while True:
                s = (s * _PCG_MULT + inc) & _M128
                # Rotate right by the top 6 bits: shift the word doubled to 128 bits.
                x = ((s >> 64 ^ s) & _M64) * (2**64 + 1) >> (s >> 122) & _M64
                has, high = 1, x >> 32
                yield x & _M32
                has = 0
                yield high
        finally:
            self.state, self.has_uint32, self.uinteger = s, has, high

    def permutation(self, n):
        """Generator.permutation(n) as a list: Fisher-Yates from the top,
        each swap index drawn by masked rejection."""
        out, words = list(range(n)), self._words()
        word = words.__next__
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = word() & mask
            while j > i:
                j = word() & mask
            out[i], out[j] = out[j], out[i]
        words.close()
        return out

    def sample(self, n, m):
        """Generator.choice(n, m, replace=False) as a list: Floyd's sample, then a shuffle
        of it; or, when n > 10000 and m > n // 50, the last m of a shuffle of range(n)
        run down to max(n - m, 1). Each index is Lemire's draw, none on a range of one."""
        if not 0 <= m <= n < 2**32:  # from 2**32 numpy takes 64-bit draws, not copied here
            raise ValueError(f"cannot take {m} of {n} without replacement (n < 2**32)")
        words = self._words()
        word = words.__next__
        if n > 10000 and m > n // 50:
            out, stop = list(range(n)), max(n - m, 1)
        else:
            out, stop = [0] if m == n > 0 else [], 1
            seen = set(out)
            for top in range(max(n - m, 1), n):
                v = word() * (top + 1)
                if v & _M32 <= top:
                    v = _lemire_retry(word, top + 1, v)
                v >>= 32
                if v in seen:
                    v = top
                seen.add(v)
                out.append(v)
        for i in range(len(out) - 1, stop - 1, -1):
            j = word() * (i + 1)
            if j & _M32 <= i:
                j = _lemire_retry(word, i + 1, j)
            j >>= 32
            out[i], out[j] = out[j], out[i]
        words.close()
        return out[len(out) - m:]

    def choice(self, pool):
        """Generator.choice(pool) on a non-empty list: one Lemire draw, sample's with m = 1."""
        return pool[self.sample(len(pool), 1)[0]]

    def _state(self):
        """This stream's state as numpy's PCG64 bit_generator.state."""
        return {"bit_generator": "PCG64", "state": {"state": self.state, "inc": self.inc},
                "has_uint32": self.has_uint32, "uinteger": self.uinteger}

    def numpy(self):
        """A numpy Generator at this stream's state; its draws leave the stream as it is."""
        import numpy as np
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_Unseeded)
        bits = np.random.PCG64(_Unseeded())
        bits.state = self._state()
        return np.random.Generator(bits)

    def _load(self, rng):
        """Take the state of the PCG64 numpy Generator rng; TypeError for anything else."""
        state = getattr(getattr(rng, "bit_generator", None), "state", None)
        if not isinstance(state, dict) or state.get("bit_generator") != "PCG64":
            raise TypeError(f"rng must be a Stream or a numpy Generator on PCG64, got {rng!r}")
        self.state, self.inc = state["state"]["state"], state["state"]["inc"]
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        return self


class _Unseeded:
    """numpy's ISeedSequence (Stream.numpy registers it) with an all-zero state:
    a PCG64 built on it hashes no seed, where numpy() sets the state next."""

    def generate_state(self, n_words, dtype):
        import numpy as np
        return np.zeros(n_words, dtype)


@contextlib.contextmanager
def _as_numpy(rng):
    """rng for numpy's samplers: a PCG64 numpy Generator as it is; a Stream as
    a Generator at its state, whose final state the Stream takes back."""
    if not isinstance(rng, Stream):
        Stream.__new__(Stream)._load(rng)  # the type check
        yield rng
        return
    gen = rng.numpy()
    yield gen
    rng._load(gen)


class RngSeed(_Record):
    """Master seed plus stream index; distinct indices give independent streams.

    Entry points take an integer seed and every sampler a Stream (or a numpy
    Generator on PCG64); generator() and child(i) are the only conversions
    from one to the other. Their streams are numpy's SeedSequence([seed,
    stream]) and SeedSequence([seed, stream, i]) under PCG64."""

    def __init__(self, seed, stream=0):
        for name, value in zip(self._fields, (seed, stream)):
            object.__setattr__(self, name, _as_int(value, name, ValueError))
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self):
        return Stream([self.seed, self.stream])

    def child(self, index):
        """Derived stream for replication `index` under this master seed."""
        index = _as_int(index, "index", ValueError)
        if index < 0:
            raise ValueError("index must be non-negative")
        return Stream([self.seed, self.stream, index])


@functools.cache
def _pairs(d):
    """The unordered node pairs (i < j) in lexicographic order; sample_er_dag
    indexes them, so their order is part of every seeded draw."""
    return tuple(itertools.combinations(range(d), 2))


def _draw(d, m, rng):
    """The draw both samplers share: a uniform node order, then m of
    _pairs(d) without replacement, each oriented along the order. Returns (d,
    rank in the order, oriented edges, skeleton); d and m pass their doors first."""
    mmax = max_edges(d)
    m = _as_int(m, "m", ValueError)
    if not (0 <= m <= mmax):
        raise ValueError(f"m={m} out of range [0, {mmax}] for d={d}")
    d = _checked_d(d)
    if mmax >= 2**32:  # the stream's 32-bit door, before any draw
        raise ValueError(f"d={d} has {mmax} node pairs, too many to draw from (2**32 or more)")
    # A PCG64 numpy Generator is only a state for the stream, and takes its state back.
    stream = rng if isinstance(rng, Stream) else Stream.__new__(Stream)._load(rng)
    order, picks = stream.permutation(d), stream.sample(mmax, m)
    if stream is not rng:
        rng.bit_generator.state = stream._state()
    rank = [0] * d
    for pos, v in enumerate(order):
        rank[v] = pos
    pairs = _pairs(d)
    skel = [pairs[idx] for idx in picks]
    edges = [(i, j) if rank[i] < rank[j] else (j, i) for i, j in skel]
    return d, rank, edges, frozenset(skel)


def sample_er_dag(d, m, rng):
    """DAG with exactly m edges, drawn from rng: uniform skeleton, uniform-order orientation."""
    d, _, edges, skel = _draw(d, m, rng)
    return _built(d, frozenset(edges), skel)


def sample_er_cpdag(d, m, rng):
    """CPDAG of the Markov equivalence class of a sample_er_dag draw: the same
    draw, labelled along its own order with no intermediate Dag."""
    d, rank, edges, skel = _draw(d, m, rng)
    return _compelled(d, edges, rank, skel, None)
