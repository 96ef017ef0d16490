import os

import pytest


@pytest.fixture
def address_space_cap():
    """Cap this process's address space 1 GiB above its current size for
    one test, so that a missing size check fails there with MemoryError
    instead of exhausting the machine's memory.  Where the size cannot be
    read (no ``resource`` module or no ``/proc``), the test runs uncapped.
    """
    try:
        import resource
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def cold_bound_caches():
    """Empty the cached rho-end records of ``ex_bounds`` and the cached
    Delta of ``rc_bounds`` before a test, so that a test counting
    evaluations sees the same work whichever tests ran before it."""
    from freqchan import ex_bounds, rc_bounds
    ex_bounds._end.cache_clear()
    rc_bounds._delta_cached.cache_clear()
