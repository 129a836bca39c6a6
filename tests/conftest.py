import dataclasses
import types
import typing

import numpy as np
import pytest

from diskflow import cli, elliptic, fields


def one_bit_pattern_column(a):
    """Column 0 of a when every row of a is finite and holds one bit
    pattern, else None: the tests' own scan for the arrays that fields
    holds as columns."""
    bits = np.ascontiguousarray(a).view(np.uint64)
    if (bits == bits[:, :1]).all() and np.isfinite(a[:, 0]).all():
        return a[:, :1].copy()
    return None


# a sum over a held (column or sector) field agrees with the same sum over
# the field held at full size to this share of the sum of the |terms|
SUM_REL = 1e-13


def sum_close(got, want, scale):
    """True when the held sum got agrees with the full-size sum want within
    SUM_REL * scale, scale the sum of the |terms| (for a norm, the norm
    itself); a non-finite want must be matched exactly."""
    if not np.isfinite(want):
        return got == want or bool(np.isnan(got) and np.isnan(want))
    return abs(got - want) <= SUM_REL * scale


def audits_agree(got, want, e0):
    """The EnergyAudit got agrees with want, the same budget summed at full
    size: i1-i4, lhs and residual within SUM_REL of the sum of the |terms|
    of the budget (|lhs| + |i1| + ... + |i4|), rel_residual within that
    over its denominator max(|lhs|, e0), every other field equal."""
    got, want = dataclasses.asdict(got), dataclasses.asdict(want)
    scale = sum(abs(want[k]) for k in ("lhs", "i1", "i2", "i3", "i4"))
    scales = dict.fromkeys(("lhs", "i1", "i2", "i3", "i4", "residual"), scale)
    scales["rel_residual"] = scale / max(abs(want["lhs"]), e0)
    return got.keys() == want.keys() and all(
        sum_close(got[k], want[k], scales[k]) if k in scales
        else got[k] == want[k] for k in got)


def document_keys(cls=cli.RunConfig, prefix=""):
    """Every dotted key of a config document: the fields of cli.RunConfig
    and, recursively, of each section dataclass it nests."""
    keys = set()
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        keys.add(key)
        hint = hints[f.name]
        if isinstance(hint, types.UnionType):       # Section | None
            hint, = (a for a in typing.get_args(hint) if a is not type(None))
        if dataclasses.is_dataclass(hint):
            keys |= document_keys(hint, key + ".")
    return keys


def kept_column(f, i=0):
    """The (n_r, 1) column that component i of f is kept as, or None when
    f keeps it as a sector or at full size."""
    a = f._arrs[i]
    return a if a.shape[1] == 1 else None


def held_prefixes(grid):
    """Each factor the grid holds, by key, and the length of the mode
    prefix it covers, read from the size of its LU."""
    return {key: lu.shape[0] // elliptic._block_size(grid, key[0])
            for key, (_, lu, _) in grid.solver_cache.items()}


def public_arrays(f):
    """The public full-shape arrays of a field, one per component."""
    if isinstance(f, fields.ScalarField):
        return (f.values,)
    return (f.u_r, f.u_theta)


@pytest.fixture
def full_array_path(monkeypatch):
    """A switch to the full-array path: fields._bit_column and
    fields._bit_period find no array held, so every field keeps its full
    array and every operator runs on full-size arrays.  The exact angular
    zeros of rows that hold one bit pattern come from the scan above: the
    angular kernels return them as zero arrays.  With held_solves, the
    elliptic solves also take such a right-hand side's column from that
    scan, as they take a held one's (mode 0 alone, phi's column 0);
    without, they transform it."""
    def switch(held_solves=True):
        monkeypatch.setattr(fields, "_bit_column", lambda a: None)
        monkeypatch.setattr(fields, "_bit_period", lambda a: None)
        for name in ("_dtheta", "_dtheta2"):
            def kernel(a, step=1, real=getattr(fields, name)):
                if a.shape[1] != 1 and one_bit_pattern_column(a) is not None:
                    return np.zeros_like(a)
                return real(a, step)
            monkeypatch.setattr(fields, name, kernel)
        if held_solves:
            def sector(f):
                col = one_bit_pattern_column(f.values)
                return f.values if col is None else col
            monkeypatch.setattr(elliptic, "_sector", sector)
    return switch
