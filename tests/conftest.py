"""Shared fixtures."""

import numpy as np
import pytest

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft",
                    "irfft", "fft2", "ifft2")

# the real passes of a 2D transform of a real field
REAL_PASSES = ("rfft", "irfft")


class TransformLog(list):
    """One entry per transform, the size of the larger of its input and
    output (in points).  A 2D transform of a half spectrum is two numpy
    calls (spectral._forward and _inverse): a complex pass along the first
    grid axis (fftn or ifftn), which is the entry, and a real pass along
    the last (rfft or irfft), which real_passes records.  A transform of a
    1D field or of a whole 2D spectrum is one call, the entry."""

    def __init__(self):
        super().__init__()
        self.real_passes = []

    def clear(self):
        super().clear()
        self.real_passes.clear()


@pytest.fixture
def fft_calls(monkeypatch):
    """A TransformLog of every numpy.fft call made while the test runs."""
    calls = TransformLog()
    for name in FFT_ENTRY_POINTS:
        log = calls.real_passes if name in REAL_PASSES else calls

        def counted(*args, _fn=getattr(np.fft, name), _log=log, **kwargs):
            out = _fn(*args, **kwargs)
            _log.append(max(np.size(args[0]), out.size))
            return out
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def peak_alloc():
    """measure(fn, *args) -> (fn's result, peak, retained): tracemalloc's
    peak of the bytes allocated during the call above those allocated at
    its start, and the bytes still allocated after it (the result's
    included).  tracemalloc sees numpy's data buffers, so both count every
    array the call made."""
    import gc
    import tracemalloc

    def measure(fn, *args, **kwargs):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - start, current - start
    return measure
