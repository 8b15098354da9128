"""The five kernels.

Each performs genuine computation at small scale (so the simulator stays
fast) with a *calibrated* branch budget representing the native input's
cost on the paper's hardware (Core2 Quad @ 3 GHz; see Fig. 7).  Disk
plans are calibrated to the paper's measured interrupt counts:
ferret 31, blackscholes 38, canneal 183, dedup 293, streamcluster 27.
"""

import math

from repro.workloads.parsec.base import ParsecWorkload


def _cnd(x: float) -> float:
    """Cumulative normal distribution via erf (Black-Scholes helper)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class BlackScholes(ParsecWorkload):
    """Option pricing with the closed-form Black-Scholes solution."""

    name = "blackscholes"
    compute_budget = int(0.93e7)     # ~93 ms of compute at 100 Mbranch/s
    input_reads = 30                 # option portfolio unpack
    output_writes = 8
    batches = 20

    OPTIONS = 2000

    def prepare(self) -> None:
        rng = self.rng
        self.options = [
            (rng.uniform(20.0, 120.0),   # spot
             rng.uniform(20.0, 120.0),   # strike
             rng.uniform(0.05, 2.0),     # expiry years
             rng.uniform(0.01, 0.06),    # rate
             rng.uniform(0.1, 0.6),      # volatility
             rng.random() < 0.5)         # is_call
            for _ in range(self.OPTIONS)
        ]
        self.prices = []

    def run_batch(self, index: int, total: int) -> None:
        chunk = math.ceil(len(self.options) / total)
        for spot, strike, expiry, rate, vol, is_call in \
                self.options[index * chunk:(index + 1) * chunk]:
            d1 = (math.log(spot / strike)
                  + (rate + 0.5 * vol * vol) * expiry) \
                / (vol * math.sqrt(expiry))
            d2 = d1 - vol * math.sqrt(expiry)
            if is_call:
                price = spot * _cnd(d1) \
                    - strike * math.exp(-rate * expiry) * _cnd(d2)
            else:
                price = strike * math.exp(-rate * expiry) * _cnd(-d2) \
                    - spot * _cnd(-d1)
            self.prices.append(price)

    def finish_result(self) -> float:
        return round(sum(self.prices) / len(self.prices), 6)


class Ferret(ParsecWorkload):
    """Content-based similarity search over feature vectors."""

    name = "ferret"
    compute_budget = int(1.03e7)
    input_reads = 25                 # image database segments
    output_writes = 6
    batches = 20

    DATABASE = 200
    QUERIES = 20
    DIMS = 16
    TOP_K = 5

    def prepare(self) -> None:
        rng = self.rng
        self.database = [
            [rng.gauss(0.0, 1.0) for _ in range(self.DIMS)]
            for _ in range(self.DATABASE)]
        self.queries = [
            [rng.gauss(0.0, 1.0) for _ in range(self.DIMS)]
            for _ in range(self.QUERIES)]
        self.matches = []

    @staticmethod
    def _cosine(a, b) -> float:
        dot = sum(x * y for x, y in zip(a, b))
        norm = math.sqrt(sum(x * x for x in a)) \
            * math.sqrt(sum(y * y for y in b))
        return dot / norm if norm else 0.0

    def run_batch(self, index: int, total: int) -> None:
        chunk = math.ceil(self.QUERIES / total)
        for query in self.queries[index * chunk:(index + 1) * chunk]:
            scored = sorted(
                ((self._cosine(query, img), i)
                 for i, img in enumerate(self.database)),
                reverse=True)
            self.matches.append(tuple(i for _, i in scored[:self.TOP_K]))

    def finish_result(self) -> int:
        # stable fingerprint of all top-k lists
        return hash(tuple(self.matches)) & 0xFFFFFFFF


class Canneal(ParsecWorkload):
    """Simulated-annealing placement to minimise routing cost."""

    name = "canneal"
    compute_budget = int(1.127e8)
    input_reads = 150                # large netlist unpack
    output_writes = 33
    batches = 40

    ELEMENTS = 300
    NETS = 600
    SWAPS_PER_BATCH = 400

    def prepare(self) -> None:
        rng = self.rng
        self.positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                          for _ in range(self.ELEMENTS)]
        self.nets = [(rng.randrange(self.ELEMENTS),
                      rng.randrange(self.ELEMENTS))
                     for _ in range(self.NETS)]
        # each element's net indices, ascending (PARSEC's canneal keeps
        # per-element fan-in/fan-out lists): a swap rescores only these
        self.incident = [[] for _ in range(self.ELEMENTS)]
        for index, (a, b) in enumerate(self.nets):
            self.incident[a].append(index)
            if b != a:
                self.incident[b].append(index)
        self.temperature = 50.0
        self.cost = self._total_cost()

    def _wire_len(self, a: int, b: int) -> float:
        (x1, y1), (x2, y2) = self.positions[a], self.positions[b]
        return abs(x1 - x2) + abs(y1 - y2)

    def _total_cost(self) -> float:
        return sum(self._wire_len(a, b) for a, b in self.nets)

    def run_batch(self, index: int, total: int) -> None:
        rng = self.rng
        for _ in range(self.SWAPS_PER_BATCH):
            i = rng.randrange(self.ELEMENTS)
            j = rng.randrange(self.ELEMENTS)
            if i == j:
                continue
            # each net once, summed in net order: float addition is
            # not associative, so any other order changes ``delta``
            touched = [self.nets[n] for n in
                       sorted(set(self.incident[i] + self.incident[j]))]
            before = sum(self._wire_len(a, b) for a, b in touched)
            self.positions[i], self.positions[j] = \
                self.positions[j], self.positions[i]
            after = sum(self._wire_len(a, b) for a, b in touched)
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(self.temperature, 1e-6)):
                self.cost += delta
            else:
                self.positions[i], self.positions[j] = \
                    self.positions[j], self.positions[i]
        self.temperature *= 0.9

    def finish_result(self) -> float:
        return round(self.cost, 3)


class Dedup(ParsecWorkload):
    """Deduplicating compression pipeline over a synthetic backup stream."""

    name = "dedup"
    compute_budget = int(3.085e8)
    input_reads = 250                # the stream being backed up
    output_writes = 43
    batches = 60

    CHUNKS = 6000

    def prepare(self) -> None:
        rng = self.rng
        # skewed content distribution -> genuine duplicate chunks
        self.stream = [int(rng.paretovariate(0.7)) % 1200
                       for _ in range(self.CHUNKS)]
        self.seen = {}
        self.unique = 0
        self.duplicates = 0
        self.compressed_size = 0

    @staticmethod
    def _fingerprint(value: int) -> int:
        # cheap stand-in for SHA1: an avalanche mix
        value = (value ^ 61) ^ (value >> 16)
        value = (value + (value << 3)) & 0xFFFFFFFF
        value ^= value >> 4
        value = (value * 0x27d4eb2d) & 0xFFFFFFFF
        return value ^ (value >> 15)

    def run_batch(self, index: int, total: int) -> None:
        chunk = math.ceil(self.CHUNKS / total)
        for content in self.stream[index * chunk:(index + 1) * chunk]:
            digest = self._fingerprint(content)
            if digest in self.seen:
                self.duplicates += 1
            else:
                self.seen[digest] = content
                self.unique += 1
                # "compress" the unique chunk
                self.compressed_size += 1 + content % 97

    def finish_result(self) -> tuple:
        return (self.unique, self.duplicates, self.compressed_size)


class StreamCluster(ParsecWorkload):
    """Online k-median clustering of a point stream."""

    name = "streamcluster"
    compute_budget = int(2.31e7)
    input_reads = 21                 # streamed point windows
    output_writes = 6
    batches = 20

    POINTS = 1500
    DIMS = 8
    MAX_CENTERS = 24
    OPEN_THRESHOLD = 6.0

    def prepare(self) -> None:
        rng = self.rng
        self.points = [
            [rng.gauss(rng.choice((-3.0, 0.0, 3.0)), 1.0)
             for _ in range(self.DIMS)]
            for _ in range(self.POINTS)]
        self.centers = []
        self.assign_cost = 0.0

    @staticmethod
    def _dist(a, b) -> float:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    def run_batch(self, index: int, total: int) -> None:
        chunk = math.ceil(self.POINTS / total)
        for point in self.points[index * chunk:(index + 1) * chunk]:
            if not self.centers:
                self.centers.append(point)
                continue
            nearest = min(self._dist(point, c) for c in self.centers)
            if nearest > self.OPEN_THRESHOLD \
                    and len(self.centers) < self.MAX_CENTERS:
                self.centers.append(point)
            else:
                self.assign_cost += nearest

    def finish_result(self) -> tuple:
        return (len(self.centers), round(self.assign_cost, 3))


#: name -> class registry used by the Fig. 7 harness
PARSEC_KERNELS = {
    "ferret": Ferret,
    "blackscholes": BlackScholes,
    "canneal": Canneal,
    "dedup": Dedup,
    "streamcluster": StreamCluster,
}
