"""Shared pieces of the benchmark: set-up, forked children, statistics.

The checkout root is the parent of this directory; the system under test
is imported from ``<root>/src`` and every file the benchmark writes goes
under ``<root>/.bench_build/perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = ROOT / "baselines" / "paper_claims.json"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

#: Recorded outputs the runs are checked against (see ``reference``).
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Wall-clock budget of one run: every child is waited for at most until
#: this many seconds after start, inside the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: Set-up is repeated this many times per run and its median reported,
#: so work moved into set-up shows and one slow set-up does not.
SETUP_REPEATS = 5

#: Seed kept out of development: a later gain is claimed only if it also
#: holds on this seed, which nobody tuned a change against.
HELD_OUT_SEED = 7919

#: Seeds whose outputs are pinned in ``reference.json``: the smoke
#: test's seed and the held-out seed.
PINNED_SEEDS = (1, HELD_OUT_SEED)

#: Pinned seed every run also computes, untimed, and checks against
#: ``reference.json``, so output that changed the same way on every call
#: fails whatever ``--seed`` the run was given.
REFERENCE_SEED = PINNED_SEEDS[0]

#: Measurement campaign the models are fitted on (every workload).  Its
#: seed is fixed: the fitted bank's size sets the cost of every shard-key
#: derivation, so a bank that changed with ``--seed`` would spread the
#: figures across seeds by ±15% for reasons no workload is about.  The
#: workload seed drives everything drawn from the models instead.
SIM_BS, SIM_DAYS, MIN_SESSIONS, MODEL_SEED = 20, 2, 500, 2023

#: Size of the host-speed probe's inputs (:func:`probe_ms`): a document
#: of this many entries and an array of 128x as many floats, which take
#: about as long to encode and to sort on the fast host.  The probe takes
#: about ``REFERENCE_PROBE_MS`` on the 2-vCPU x86 VM of the measurements
#: in ``METRICS.md``.  End-to-end timings of the campaign workloads and
#: every set-up are reported scaled to that speed (see
#: :func:`host_scale`); the raw figures are logged.
PROBE_ENTRIES = 1500
REFERENCE_PROBE_MS = 5.0

#: A run during which other guests took more than this share of the CPU
#: is flagged ``noisy``, like one whose load average exceeded the cores.
NOISY_STEAL_SHARE = 0.05


class BenchError(RuntimeError):
    """A benchmark child failed or a correctness check did not hold."""


def import_system() -> None:
    """Put ``<root>/src`` on the path and import the system under test.

    Raises :class:`BenchError` when the checkout holds no program, so the
    benchmark exits non-zero without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if not BASELINE.is_file():
        raise BenchError(f"golden baseline missing: {BASELINE}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def reference() -> dict:
    """The recorded outputs every run is checked against.

    ``fidelity_summary`` is the ``evaluate_aggregate`` summary the
    pinned seeds' campaign aggregates give (it holds only claim counts
    and the verdict, ``OK``).  ``campaign_digests`` pins
    ``CampaignResult.digest()`` per workload, size (``full``/``smoke``)
    and seed, and ``serve_variant_digests`` the serve variants' digests
    per seed, for :data:`PINNED_SEEDS`.  Recorded from runs of the
    program as of this benchmark's introduction: a change that alters
    them changes the program's output and must say so.
    """
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up -----------------------------------------------------------------
def fit_models():
    """Simulate the reference measurement campaign and fit the models.

    Returns ``(bank, mix)``.  Called through the ``simulator`` module so
    the traced run's wrapper on ``simulate`` sees the call.
    """
    import numpy as np

    import repro.dataset.simulator as simulator
    from repro.core.model_bank import ModelBank
    from repro.core.service_mix import ServiceMix
    from repro.dataset.network import Network, NetworkConfig

    network = Network(
        NetworkConfig(n_bs=SIM_BS), np.random.default_rng([MODEL_SEED, 1])
    )
    table = simulator.simulate(
        network,
        simulator.SimulationConfig(n_days=SIM_DAYS),
        np.random.default_rng([MODEL_SEED, 2]),
    )
    bank = ModelBank.fit_from_table(table, min_sessions=MIN_SESSIONS)
    mix = ServiceMix.from_measurements(table).restricted_to(bank.services())
    return bank, mix


def decile_generator(bank, mix, n_bs: int, rate_scale: float):
    """A generator whose BSs sweep the paper's arrival deciles.

    Same recipe as ``benchmarks/bench_campaign.py``: BS ``i`` gets decile
    ``1 + i % 9``'s peak rate scaled by ``rate_scale``, so quiet and busy
    cells mix as in a deployment snapshot.
    """
    from repro.core.arrivals import ArrivalModel
    from repro.core.generator import TrafficGenerator
    from repro.dataset.network import decile_peak_rate

    arrivals = {}
    for bs_id in range(n_bs):
        peak = decile_peak_rate(1 + (bs_id % 9)) * rate_scale
        arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    return TrafficGenerator(arrivals, mix, bank)


def derived_seed(seed: int, *path: int) -> int:
    """A root seed for a sub-stream of the workload seed."""
    import numpy as np

    sequence = np.random.SeedSequence([seed, *path])
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


# -- forked children ----------------------------------------------------------
class Child:
    """A forked process running ``target(conn, *args)``, with a duplex pipe.

    Every wait on the child ends by ``deadline`` (``time.monotonic()``
    seconds); a child still running then is killed.

    Fork (not spawn) is deliberate: the child starts from the parent's
    already-imported state, so its peak RSS counts only the system under
    test on top of a fixed import baseline, and no pickling of the
    workload is needed.  The parent forks before it starts any thread.
    """

    def __init__(self, deadline: float, target, *args):
        self.deadline = deadline
        sys.stdout.flush()
        sys.stderr.flush()
        parent_conn, child_conn = multiprocessing.Pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            parent_conn.close()
            code = 1
            try:
                target(child_conn, *args)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        child_conn.close()
        self.pid = pid
        self.conn = parent_conn

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def recv(self):
        """Next message from the child, or :class:`BenchError`."""
        timeout = self._left()
        try:
            ready = self.conn.poll(timeout)
        except (EOFError, OSError) as exc:
            raise BenchError(f"child {self.pid} died: {exc}") from exc
        if not ready:
            raise BenchError(f"child {self.pid} sent nothing in {timeout}s")
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise BenchError(f"child {self.pid} failed (see stderr)") from exc

    def send(self, message) -> None:
        self.conn.send(message)

    def finish(self) -> float:
        """Wait for a clean exit; return the child's peak RSS in MiB."""
        while True:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                break
            if not self._left():
                self.kill()
                raise BenchError(f"child {self.pid} did not exit")
            time.sleep(0.02)
        self.pid = 0
        self.conn.close()
        if os.waitstatus_to_exitcode(status) != 0:
            raise BenchError(f"child exited with status {status}")
        return usage.ru_maxrss / 1024.0  # Linux reports KiB

    def kill(self) -> None:
        """Stop the child (if still running) and reap it."""
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
            self.pid = 0
        self.conn.close()


def pin(slot: int) -> None:
    """Pin the calling process to the ``slot``-th usable CPU.

    The child under test runs on CPU slot 1; the serve load generator on
    slot 0, so the two never queue behind each other.  Unpinned, a
    campaign child's calls alternated for seconds at a time between two
    speeds ~75% apart, and five-seed spreads of the campaign read and
    write medians were 0.30-0.36; pinned, five-seed spreads were
    0.03-0.07.  A no-op with fewer than two usable CPUs.
    """
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) >= 2:
        os.sched_setaffinity(0, {usable[slot % len(usable)]})


# -- statistics ---------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); infinite values allowed."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def timing(values_ms) -> dict:
    """Median, p99 and the tail of one latency sample (ms), with counts.

    p99 needs ≥ 1000 samples to have ten beyond it; ``beyond_p99``
    records how many there were, so a thin tail shows.  ``tail`` is the
    highest whole percentile ``tail_q`` (at most 99) with at least ten
    samples beyond it, or ``None`` below 20 samples.
    """
    n = len(values_ms)
    p99 = percentile(values_ms, 99)
    tail_q = min(99, math.floor(100 * (1 - 10 / n))) if n >= 20 else None
    tail = percentile(values_ms, tail_q) if tail_q is not None else None
    return {
        "samples": n,
        "p50": percentile(values_ms, 50),
        "p99": p99,
        "beyond_p99": sum(1 for v in values_ms if v > p99),
        "tail_q": tail_q,
        "tail": tail,
        "beyond_tail": (
            sum(1 for v in values_ms if v > tail) if tail is not None else 0
        ),
    }


# -- environment ----------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout is no repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment_start(seed: int) -> dict:
    """The environment block, as known before the run."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "host_probe_ms_start": host_probe_ms(),
        "_cpu_ticks": _cpu_ticks(),
    }


_PROBE_INPUTS: tuple | None = None


def probe_ms(repeats: int = 3) -> float:
    """Host-speed probe: median time (ms) of a fixed piece of mixed work.

    The work is ``json.dumps`` of a fixed nested dict plus ``numpy.sort``
    of a fixed array, the two kinds of work a campaign call is made of
    (shard-key derivation, checkpoint codec and output write encode
    JSON; generation and the sketch fold are numpy array passes).  It
    uses the standard library and numpy only and touches none of the
    program, so no change to the program can move it.  On shared hosts
    it has run 1.7x slower for seconds to minutes at a time with under
    1% steal, and the program's timings slowed with it (see
    ``METRICS.md``, Stability).
    """
    global _PROBE_INPUTS
    import numpy as np

    if _PROBE_INPUTS is None:
        _PROBE_INPUTS = (
            {f"k{i}": [i * 0.5, f"v{i}", {"x": i}]
             for i in range(PROBE_ENTRIES)},
            np.random.default_rng(0).random(PROBE_ENTRIES * 128),
        )
    document, values = _PROBE_INPUTS
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        json.dumps(document, sort_keys=True)
        np.sort(values)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def host_probe_ms() -> float:
    """The probe at the start or end of a run, for the environment block."""
    return probe_ms(15)


def host_scale(*probes: float) -> float:
    """Factor that turns a timing taken beside ``probes`` into host time.

    ``REFERENCE_PROBE_MS / mean(probes)``: below 1 when the host ran
    slower than the reference speed.  A time multiplied by it (a rate
    divided by it) reads as it would have on a host that runs the probe
    in ``REFERENCE_PROBE_MS``.
    """
    return REFERENCE_PROBE_MS / statistics.fmean(probes)


def host_setup_s(payload) -> float:
    """Median set-up time of a run in host time (see :func:`host_scale`).

    ``payload["setup_s"]`` holds each set-up's wall time and
    ``payload["setup_probes"]`` the probes taken before and after it.
    """
    return statistics.median(
        seconds * host_scale(*probes)
        for seconds, probes in zip(payload["setup_s"],
                                   payload["setup_probes"])
    )


def _cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters from ``/proc/stat`` (Linux only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields[:1] == ["cpu"] else None


def environment_end(env: dict) -> dict:
    """Close the environment block; flag a run on a loaded machine.

    ``steal_share`` is the share of CPU time the hypervisor gave to other
    guests during the run: interference the load average cannot show.
    """
    env["loadavg_end"] = list(os.getloadavg())
    env["host_probe_ms_end"] = host_probe_ms()
    start, end = env.pop("_cpu_ticks"), _cpu_ticks()
    steal = None
    if start and end and sum(end) > sum(start):
        steal = (end[7] - start[7]) / (sum(end) - sum(start))
    env["steal_share"] = steal
    cores = env["cpus_usable"] or 1
    env["noisy"] = (
        max(env["loadavg_start"][0], env["loadavg_end"][0]) > cores
        or (steal or 0.0) > NOISY_STEAL_SHARE
    )
    return env
