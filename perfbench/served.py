"""``served_mix``: three tenants on one campaign server, two phases.

A ``CampaignServer`` runs on ``ServerThread(devices=2)``; one ``Client``
connection on the calling thread submits, so the process has two threads.
Tenant *k* submits small untimed campaigns of app *k* (pagerank, stencil,
xsbench at validation-sized args) with N in {1, 2, 4}, T=32 and
per-instance seeds.

* Phase A is an open loop: seeded Poisson arrivals at :data:`RATE` jobs/s.
  Each job is timed from its due time, not from when it was sent, so a
  stalled generator still charges the wait to later jobs; how late the
  generator ran is reported as its lag.
* Phase B sends a backlog of :data:`BURST_JOBS` submissions in one write
  (the replies are read afterwards) and times the server draining it,
  :data:`BURSTS` times.  The end-to-end figures come from this phase: jobs
  per second over all backlogs together and each job's latency from its
  backlog's submission.  Submitted one round trip at a time, a backlog's
  first jobs ran while the rest trickled in, and single backlogs drained
  at either about 35 or about 55 jobs/s at random; sent at once, every
  backlog starts with the whole queue.  Phase A's latencies, from
  an often idle server, swing by a half between runs of identical inputs
  on a shared host (thread wake-ups), so they are reported but not gated.

Each phase holds every (tenant, N) pair equally often; the seed shuffles
their order and picks instance seeds and arrival times.  Free random
choices made the amount of work, and with it every figure, swing by a
third between seeds.
"""

from __future__ import annotations

import gc
import random
import select
import statistics
import time

from perfbench.oracle import Oracle

NAME = "served_mix"
#: tenant -> app; validation-sized args (harness.validate's, minus -s).
APP_ARGS = {
    "pagerank": ["-n", "512", "-d", "4", "-i", "2"],
    "stencil": ["-n", "256", "-i", "2"],
    "xsbench": ["-g", "128", "-n", "4", "-l", "32"],
}
TENANTS = {f"tenant-{app}": app for app in APP_ARGS}
INSTANCES = (1, 2, 4)
THREAD_LIMIT = 32
DEVICES = 2
BACKEND = "compiled"
#: Phase-A arrival rate in jobs/s: about half of the phase-B drain rate
#: measured on a 2-core x86-64 host (about 30 jobs/s for this mix).
RATE = 10.0
#: 12 jobs of each (tenant, N) pair.
PHASE_A_JOBS = 108
#: Backlog size: 12 per tenant stays inside the server's default admission
#: limits (16 queued per tenant, 64 in total), so no job is refused.
BURST_JOBS = 36
BURSTS = 16
#: Longest wait for outstanding jobs after the last submit.
DRAIN_TIMEOUT_S = 60.0

CLOCK = time.perf_counter


def _client_class():
    from repro import wire
    from repro.errors import ServeError
    from repro.serve import protocol
    from repro.sched.jobs import JobTicket
    from repro.serve.client import Client

    class TimedClient(Client):
        """The blessed client, reading its socket through a private line
        buffer so it can stamp each event the moment it is read and wait
        for events until a deadline between submissions."""

        def __init__(self, address):
            self._rbuf = bytearray()
            self.events = 0
            #: job id -> (arrival time, terminal event)
            self.terminal: dict[int, tuple[float, dict]] = {}
            super().__init__(address)

        def _read_msg(self) -> dict:
            while True:
                end = self._rbuf.find(b"\n")
                if end >= 0:
                    break
                if len(self._rbuf) > protocol.MAX_LINE_BYTES:
                    raise ServeError(
                        "server sent an over-long line", code=wire.E_BAD_REQUEST
                    )
                chunk = self._sock.recv(1 << 16)
                if not chunk:
                    raise ServeError(
                        "connection closed by server", code=wire.E_INTERNAL
                    )
                self._rbuf += chunk
            line = bytes(self._rbuf[: end + 1])
            del self._rbuf[: end + 1]
            msg = protocol.decode(line)
            if "event" in msg:
                self._note(msg)
            return msg

        def _note(self, msg: dict) -> None:
            self.events += 1
            if msg["event"] in ("result", "failed", "cancelled"):
                self.terminal[msg.get("job_id")] = (CLOCK(), msg)

        def submit_backlog(self, submissions) -> list:
            """Send every submission in one write, then read the replies
            in order, so the whole backlog reaches the server at once.
            Returns per submission the job id, or the ServeError of a
            refusal."""
            seqs, data = [], bytearray()
            for sub in submissions:
                self._seq += 1
                seqs.append(self._seq)
                data += protocol.encode(
                    {"op": "submit", "seq": self._seq, "submission": sub.to_wire()}
                )
            self._sock.sendall(data)
            out = []
            for seq in seqs:
                reply = self._read_msg()
                while "event" in reply:
                    reply = self._read_msg()
                error = protocol.reply_error(reply)
                if error is not None:
                    out.append(ServeError(error[1], code=error[0]))
                elif reply.get("seq") != seq:
                    raise ServeError(
                        f"out-of-order reply (seq {reply.get('seq')!r}, "
                        f"expected {seq})",
                        code=wire.E_INTERNAL,
                    )
                else:
                    out.append(JobTicket.from_wire(reply["ticket"]).job_id)
            return out

        def poll(self, deadline: float) -> None:
            """Read events as they arrive until ``deadline``."""
            while True:
                if b"\n" not in self._rbuf:
                    remaining = deadline - CLOCK()
                    if remaining <= 0:
                        return
                    ready, _, _ = select.select([self._sock], [], [], remaining)
                    if not ready:
                        return
                msg = self._read_msg()
                if "event" not in msg:
                    raise ServeError(
                        f"unexpected reply outside a request: {msg!r}",
                        code=wire.E_INTERNAL,
                    )

    return TimedClient


class ServedMix:
    #: wall of one pass on a 2-core x86-64 host; a run of --seconds S makes
    #: S // PASS_SECONDS passes, at least one
    PASS_SECONDS = 30.0
    #: set-ups measured per run; setup_s is their median
    SETUP_SAMPLES = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.oracle = Oracle()
        #: operations that failed or were refused (no output to check)
        self.failures: list[str] = []
        self.passes = 0
        self.server = None
        self.client = None
        #: instance seed -> job label, for tagging server-side spans
        self.seed_owner: dict[str, str] = {}
        self._next_seed = random.Random(f"{NAME}:{seed}").randrange(1, 1 << 20)

    # -- set-up -------------------------------------------------------
    def setup(self) -> None:
        from repro.serve.harness import ServerThread

        self.server = ServerThread(devices=DEVICES)
        self.server.start()
        self.client = _client_class()(self.server.address)
        # One job per app warms the compile cache and, at N=4, the
        # loaders of both devices.
        jobs = [self._job(tenant, 4, "warmup") for tenant in TENANTS]
        records = [self._submit(job) for job in jobs]
        self._wait(records)
        self._check(records)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- jobs ---------------------------------------------------------
    def _job(self, tenant: str, n: int, label: str, phase: str = "") -> dict:
        from repro.host.launch import LaunchSpec

        app = TENANTS[tenant]
        lines = []
        for _ in range(n):
            seed = str(self._next_seed)
            self._next_seed += 1
            self.seed_owner[seed] = label
            lines.append(APP_ARGS[app] + ["-s", seed])
        spec = LaunchSpec(
            lines,
            thread_limit=THREAD_LIMIT,
            collect_timing=False,
            backend=BACKEND,
        )
        return dict(tenant=tenant, app=app, spec=spec, label=label, phase=phase)

    def _submit(self, job: dict, due: float | None = None) -> dict:
        from repro.errors import ServeError

        sent = CLOCK()
        record = dict(job, due=sent if due is None else due, sent=sent)
        try:
            remote = self.client.submit(job["app"], job["spec"], tenant=job["tenant"])
        except ServeError as exc:  # refused (E_ADMISSION) or bad request
            record["error"] = f"{exc.code}: {exc}"
            return record
        record["replied"] = CLOCK()
        record["job_id"] = remote.job_id
        return record

    def _submit_backlog(self, jobs: list[dict]) -> list[dict]:
        from repro.serve.protocol import Submission

        sent = CLOCK()
        replies = self.client.submit_backlog(
            Submission(app=job["app"], spec=job["spec"], tenant=job["tenant"])
            for job in jobs
        )
        replied = CLOCK()
        records = []
        for job, reply in zip(jobs, replies):
            record = dict(job, due=sent, sent=sent, replied=replied)
            if isinstance(reply, Exception):  # refused (E_ADMISSION)
                record["error"] = f"{reply.code}: {reply}"
                del record["replied"]
            else:
                record["job_id"] = reply
            records.append(record)
        return records

    def _wait(self, records) -> None:
        deadline = CLOCK() + DRAIN_TIMEOUT_S
        ids = [r["job_id"] for r in records if "job_id" in r]
        while CLOCK() < deadline and any(i not in self.client.terminal for i in ids):
            self.client.poll(min(deadline, CLOCK() + 1.0))

    def _check(self, records) -> tuple[int, int]:
        """Reference-check every instance; returns (attempted, failed)."""
        from repro.sched.jobs import JobResult

        attempted = failed = 0
        for r in records:
            attempted += 1
            # checked once; dropping the event keeps the client from
            # holding every result of the run
            done = self.client.terminal.pop(r.get("job_id"), None)
            if done is None or done[1]["event"] != "result":
                failed += 1
                reason = r.get("error") or (done and done[1]) or "no result"
                self.failures.append(f"{r['label']}: {reason}")
                continue
            r["done"] = done[0]
            result = JobResult.from_wire(done[1]["result"])
            bad = [
                inst
                for inst in result.instances
                if not self.oracle.check_instance(
                    r["app"], inst.args, inst.exit_code, inst.stdout
                )
            ]
            expected = len(r["spec"].resolve_instances())
            if len(result.instances) != expected:
                self.oracle.mismatches.append(
                    f"{r['label']}: {len(result.instances)} of {expected} instances"
                )
            if bad or len(result.instances) != expected:
                failed += 1
        return attempted, failed

    # -- one pass -----------------------------------------------------
    def run_pass(self, index: int, tracer=None) -> dict:
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        tag = f"p{self.passes}"
        self.passes += 1
        events0 = self.client.events

        # phase A: open loop at RATE
        jobs = [
            self._job(tenant, n, f"{tag}a{i}", "A")
            for i, (tenant, n) in enumerate(_mix(PHASE_A_JOBS, rng))
        ]
        due = CLOCK() + 0.05
        phase_a = []
        for job in jobs:
            due += rng.expovariate(RATE)
            self.client.poll(due)
            phase_a.append(self._submit(job, due))
        self._wait(phase_a)
        attempted, failed = self._check(phase_a)

        # phase B: backlogs submitted at once
        phase_b, burst_walls = [], []
        for b in range(BURSTS):
            jobs = [
                self._job(tenant, n, f"{tag}b{b}.{i}", "B")
                for i, (tenant, n) in enumerate(_mix(BURST_JOBS, rng))
            ]
            burst = self._submit_backlog(jobs)
            self._wait(burst)
            att_b, fail_b = self._check(burst)
            attempted += att_b
            failed += fail_b
            # each backlog starts from a collected heap, as each pass does
            gc.collect()
            finished = [r["done"] for r in burst if "done" in r]
            burst_walls.append(max(finished, default=CLOCK()) - burst[0]["sent"])
            phase_b += burst

        rtts = [r["replied"] - r["sent"] for r in phase_a + phase_b if "replied" in r]
        if tracer is not None:
            for r in phase_a + phase_b:
                if "done" in r:
                    tracer.add_span("serve.job", r["due"], r["done"], r["label"])
                if "replied" in r:
                    tracer.add_span("serve.submit", r["sent"], r["replied"], r["label"])
        return dict(
            wall=sum(burst_walls),
            burst_rates=[
                sum("done" in r for r in phase_b[i * BURST_JOBS:(i + 1) * BURST_JOBS]) / w
                for i, w in enumerate(burst_walls)
            ],
            burst_walls=burst_walls,
            burst_done=sum("done" in r for r in phase_b),
            latencies=[r["done"] - r["due"] for r in phase_b if "done" in r],
            open_loop=[r["done"] - r["due"] for r in phase_a if "done" in r],
            lags=[r["sent"] - r["due"] for r in phase_a],
            rtts=rtts,
            events=self.client.events - events0,
            records=phase_a + phase_b,
            attempted=attempted,
            failed=failed,
        )

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        """Backlog jobs per second over every backlog together, and every
        backlog job's latency."""
        return dict(
            throughput=sum(p["burst_done"] for p in passes)
            / sum(w for p in passes for w in p["burst_walls"]),
            latencies=[x for p in passes for x in p["latencies"]],
        )

    def utilization(self) -> float:
        """Mean per-device occupancy reported by the server's metrics op."""
        util = self.client.metrics()["server"]["utilization"]
        return statistics.fmean(util.values()) if util else 0.0


def _mix(count: int, rng) -> list[tuple[str, int]]:
    """``count`` (tenant, N) pairs, each pair equally often, shuffled."""
    pairs = [(t, n) for t in sorted(TENANTS) for n in INSTANCES]
    jobs = pairs * (count // len(pairs))
    rng.shuffle(jobs)
    return jobs
