import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs; numpy
    reports its array buffers to it, LAPACK's own workspaces it does not see."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
