"""``gp_campaign``: a GP expression-tree campaign, compile-bound.

Population 200, 3 generations of :mod:`repro.apps.gp` genomes, compiled
into one fresh in-memory ``ExecutableCache`` per pass (no disk tier, so
nothing leaks between passes or runs).  Each generation streams through
``compile_many(max_workers=2)`` in :data:`CHUNKS` batches of
:data:`CHUNK` genomes; after each batch its unique, not yet evaluated
genomes run once on a fresh ``GPUDevice`` via ``Loader.run`` (T=16,
1 MiB heap, timing off).  Selection clones most winners, so generation 1
is miss-heavy and later generations are hit-heavy.

The seed picks the genomes but not the amount of work in a batch: every
generation-1 batch holds exactly :data:`DISTINCT_PER_CHUNK` never-seen
genomes (the rest clones of them), every later batch exactly
:data:`FRESH_PER_CHUNK` never-seen mutants (the rest tournament winners,
all cache hits), so every seed costs 216 builds and 384 cache hits.
Batches of one generation are alike, so a generation's time is taken as
:data:`CHUNKS` times its median batch wall, and its variants' latencies
as those of a typical batch: a stretch of slow host time moves one batch
rather than the figures.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import nullcontext

from perfbench.oracle import Oracle

NAME = "gp_campaign"
POPULATION = 200
GENERATIONS = 3
DEPTH = 2
TOURNAMENT = 3
CHUNK = 25
CHUNKS = POPULATION // CHUNK
DISTINCT_PER_CHUNK = 19
FRESH_PER_CHUNK = 4
THREAD_LIMIT = 16
HEAP_BYTES = 1 << 20
DEVICE_MEM_BYTES = 64 * 1024 * 1024
WORKERS = 2
BACKEND = "compiled"
#: Fitness target ``x*x + 2*x + 1``, reachable by the genome grammar.
TARGET = ("add", ("mul", "x", "x"), ("add", ("mul", 2, "x"), 1))
#: Warm-up genome evaluated during set-up (pays first-compile costs).
WARMUP = ("add", "x", 1)
#: Fitness of a variant that failed to build or to match its reference.
WORST_FITNESS = 1 << 62


class GPCampaign:
    #: wall of one pass on a 2-core x86-64 host; a run of --seconds S makes
    #: S // PASS_SECONDS passes, at least one
    PASS_SECONDS = 20.0
    #: set-ups measured per run; setup_s is their median (a set-up is
    #: short, so more samples steady it cheaply)
    SETUP_SAMPLES = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.oracle = Oracle()
        #: variants whose build raised (no output to check)
        self.failures: list[str] = []

    def setup(self) -> None:
        from repro.compilecache import ExecutableCache

        entry = self._compile([WARMUP], ExecutableCache())[0]
        self._evaluate(WARMUP, entry)

    def _compile(self, genomes, cache):
        from repro.apps import gp
        from repro.compilecache import CompileRequest, compile_many

        requests = [
            CompileRequest(
                program=lambda g=g: gp.build_genome_program(g),
                source_hash=gp.genome_key(g),
            )
            for g in genomes
        ]
        # A failed build maps to None and counts as a failed variant.
        return compile_many(
            requests, cache=cache, max_workers=WORKERS, on_error="none"
        )

    def _evaluate(self, genome, entry):
        from repro.config import DeviceConfig
        from repro.gpu.device import GPUDevice
        from repro.host.loader import Loader

        loader = Loader(
            entry.module,
            GPUDevice(DeviceConfig(global_mem_bytes=DEVICE_MEM_BYTES)),
            heap_bytes=HEAP_BYTES,
        )
        try:
            res = loader.run(
                [],
                thread_limit=THREAD_LIMIT,
                collect_timing=False,
                backend=BACKEND,
            )
        finally:
            loader.close()
        return self.oracle.check_gp(genome, res.exit_code, res.stdout)

    def run_pass(self, index: int, tracer=None) -> dict:
        """Campaign ``index`` of this seed, on a fresh cache."""
        from repro.apps import gp
        from repro.compilecache import ExecutableCache

        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        target = gp.reference_total(TARGET)
        cache = ExecutableCache()
        population = _initial_population(rng)
        seen = {gp.genome_key(g) for g in population}
        fitness: dict[str, int] = {}
        #: (generation, wall, variant latencies) of every batch
        batches = []
        attempted = failed = 0
        t_start = time.perf_counter()
        for gen in range(1, GENERATIONS + 1):
            for c in range(CHUNKS):
                chunk = population[c * CHUNK:(c + 1) * CHUNK]
                t_batch = time.perf_counter()
                latencies = []
                with tracer.request(f"gen{gen}.{c}") if tracer else nullcontext():
                    entries = self._compile(chunk, cache)
                    t_compiled = time.perf_counter()
                    done: dict[str, float] = {}
                    for genome, entry in zip(chunk, entries):
                        key = gp.genome_key(genome)
                        attempted += 1
                        if entry is None:
                            self.failures.append(
                                f"build failed: {gp.render_expr(genome)}"
                            )
                            failed += 1
                            fitness.setdefault(key, WORST_FITNESS)
                            continue
                        if key not in fitness and key not in done:
                            total = self._evaluate(genome, entry)
                            if total is None:
                                failed += 1
                            fitness[key] = (
                                WORST_FITNESS if total is None else abs(total - target)
                            )
                            done[key] = time.perf_counter()
                        # a variant's fitness is known once its own
                        # evaluation (or, for a repeat, its batch's
                        # compile) has finished
                        latencies.append(done.get(key, t_compiled) - t_batch)
                batches.append((gen, time.perf_counter() - t_batch, latencies))
            if gen < GENERATIONS:
                population = _next_generation(population, fitness, seen, rng)
        return dict(
            wall=time.perf_counter() - t_start,
            batches=batches,
            attempted=attempted,
            failed=failed,
        )

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        """The campaign as it runs when every batch is its generation's
        typical batch: the median batch wall, and at each latency rank the
        median over the generation's batches (a collector pause or slow
        stretch moves one batch, not the figures).  Returns variants per
        second and the typical batches' variant latencies."""
        walls: dict[int, list[float]] = {}
        ranked: dict[int, list[list[float]]] = {}
        for p in passes:
            for gen, wall, latencies in p["batches"]:
                walls.setdefault(gen, []).append(wall)
                ranked.setdefault(gen, []).append(sorted(latencies))
        campaign = sum(CHUNKS * statistics.median(w) for w in walls.values())
        ok = sum(p["attempted"] - p["failed"] for p in passes) / len(passes)
        return dict(
            throughput=ok / campaign,
            latencies=[
                statistics.median(rank)
                for batches in ranked.values()
                for rank in zip(*batches)
            ],
        )


def _initial_population(rng):
    """:data:`CHUNKS` batches of :data:`DISTINCT_PER_CHUNK` never-seen
    genomes plus clones of them, each batch shuffled."""
    from repro.apps import gp

    seen: set[str] = set()
    population = []
    for _ in range(CHUNKS):
        fresh = []
        while len(fresh) < DISTINCT_PER_CHUNK:
            genome = gp.random_genome(rng, DEPTH)
            key = gp.genome_key(genome)
            if key not in seen:
                seen.add(key)
                fresh.append(genome)
        chunk = fresh + [
            rng.choice(fresh) for _ in range(CHUNK - DISTINCT_PER_CHUNK)
        ]
        rng.shuffle(chunk)
        population += chunk
    return population


def _next_generation(population, fitness, seen, rng):
    """Tournament selection clones the winners (cache hits); then
    :data:`FRESH_PER_CHUNK` of each batch are replaced by never-seen
    mutants (fresh compiles).  ``seen`` collects every genome key so far."""
    from repro.apps import gp

    def fit(genome):
        return fitness[gp.genome_key(genome)]

    fresh = [
        min(
            (population[rng.randrange(len(population))] for _ in range(TOURNAMENT)),
            key=fit,
        )
        for _ in range(len(population))
    ]
    for c in range(CHUNKS):
        for slot in rng.sample(range(c * CHUNK, (c + 1) * CHUNK), FRESH_PER_CHUNK):
            while True:
                mutant = gp.mutate(fresh[slot], rng, DEPTH)
                key = gp.genome_key(mutant)
                if key not in seen:
                    break
            seen.add(key)
            fresh[slot] = mutant
    return fresh
