"""Fork-isolated benchmark phases, shared by the throughput benchmarks."""

import multiprocessing

from repro.pipeline.executors import peak_rss_mb


def isolated_phase(fn, *args) -> tuple[dict, float]:
    """Run ``fn(*args)`` in a forked child; return (result, child RSS MiB).

    ``ru_maxrss`` never goes down, so phases measured in one process mask
    each other; a fresh fork gives each phase its own high-water mark on
    top of whatever the parent had resident at fork time.
    """
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()

    def target() -> None:
        result = fn(*args)
        queue.put((result, peak_rss_mb()))

    process = context.Process(target=target)
    process.start()
    result, rss = queue.get()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"phase child exited with {process.exitcode}")
    return result, rss
