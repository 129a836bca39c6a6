import numpy as np
import pytest

from diskflow import elliptic, fields


def one_bit_pattern_column(a):
    """Column 0 of a when every row of a is finite and holds one bit
    pattern, else None: the tests' own scan for the arrays that fields
    holds as columns."""
    bits = np.ascontiguousarray(a).view(np.uint64)
    if (bits == bits[:, :1]).all() and np.isfinite(a[:, 0]).all():
        return a[:, :1].copy()
    return None


@pytest.fixture
def full_array_path(monkeypatch):
    """A switch to the full-array path: fields._bit_column finds no array
    held, so every operator runs on full-size arrays.  The exact angular
    zeros of rows that hold one bit pattern come from the scan above: the
    angular kernels return them as zero arrays.  With held_solves, the
    elliptic solves also take such a right-hand side's column from that
    scan, as they take a held one's (mode 0 alone, phi's column 0);
    without, they transform it."""
    def switch(held_solves=True):
        monkeypatch.setattr(fields, "_bit_column", lambda a: None)
        for name in ("_dtheta", "_dtheta2"):
            def kernel(a, real=getattr(fields, name)):
                if a.shape[1] != 1 and one_bit_pattern_column(a) is not None:
                    return np.zeros_like(a)
                return real(a)
            monkeypatch.setattr(fields, name, kernel)
        if held_solves:
            monkeypatch.setattr(elliptic, "_column",
                                lambda f: one_bit_pattern_column(f.values))
    return switch
