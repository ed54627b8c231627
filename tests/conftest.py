"""Shared fixtures."""

import numpy as np
import pytest

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft",
                    "irfft", "fft2", "ifft2")


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that gains, per call of any numpy.fft entry point, the size of
    the larger of its input and output (in points)."""
    calls = []
    for name in FFT_ENTRY_POINTS:
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            out = _fn(*args, **kwargs)
            calls.append(max(np.size(args[0]), out.size))
            return out
        monkeypatch.setattr(np.fft, name, counted)
    return calls
