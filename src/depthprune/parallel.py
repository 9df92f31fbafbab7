"""Run independent numpy work on the machine's cores, one thread per item."""

import threading


def threaded(fn, items):
    """``[fn(item) for item in items]``, each item after the first on its own thread.

    The first item runs on the calling thread.  numpy's kernels release the
    GIL, so the calls share the machine's cores.  An exception raised on
    another thread is re-raised here with its own type.  ``fn`` must call
    nothing that the benchmark tracer wraps: its span stack belongs to the
    calling thread.
    """
    results, errors = [None] * len(items), []

    def run(i):
        try:
            results[i] = fn(items[i])
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(items))]
    for thread in threads:
        thread.start()
    try:
        results[0] = fn(items[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results
