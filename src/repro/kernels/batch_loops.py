"""Scalar per-element loops for the batched hashing hot paths.

Single-source siblings of :mod:`repro.kernels.cdcl_loops`: each function
below is written in the numba-compatible subset of python and computes
exactly what the vectorised numpy paths of the ``python`` kernel compute
-- GF(2^n) Horner evaluation (Russian-peasant multiply with interleaved
reduction), byte-table affine hashing, trail-zeros and bit-length.  The
``numba`` kernel njit-compiles them; the parity tests also run them
*uncompiled* on small inputs, so the loop sources themselves are covered
by tier-1 CI where numba is absent.

All arrays are uint64 (int64 for count outputs); constants are
``np.uint64`` so arithmetic stays in uint64 under both interpreters
(mixed int64/uint64 expressions would promote to float64 in numba).
Like the CDCL loop, every function stays in the no-object subset, so
the ``numba`` kernel compiles them ``nogil=True`` and whole Horner /
byte-table / trail-zeros sweeps run GIL-free under thread-parallel
repetitions.
"""

from __future__ import annotations

import numpy as _np

_ZERO = _np.uint64(0)
_ONE = _np.uint64(1)
_BYTE = _np.uint64(0xFF)


def gf2_eval_poly(coeffs, xs, out, top, mask, mod_low):
    """Horner-evaluate a GF(2^n) polynomial at each point of ``xs``.

    ``coeffs`` is uint64, constant term first (at least one entry);
    ``top``/``mask``/``mod_low`` are the uint64 reduction constants
    ``n - 1`` (0 for n == 1), ``2**n - 1`` and the modulus without its
    top bit.  Writes field elements into ``out``.
    """
    s = len(coeffs)
    for i in range(len(xs)):
        x = xs[i]
        acc = coeffs[s - 1]
        for c in range(s - 2, -1, -1):
            # acc = acc * x (Russian peasant, reduced), then ^ coeff.
            a = acc
            b = x
            res = _ZERO
            while b != _ZERO:
                if (b & _ONE) != _ZERO:
                    res ^= a
                b >>= _ONE
                carry = (a >> top) & _ONE
                a = (a << _ONE) & mask
                if carry != _ZERO:
                    a ^= mod_low
            acc = res ^ coeffs[c]
        out[i] = acc
    return out


def linear_values(xs, tables, offset0, out):
    """Affine GF(2) hash values (``out_bits <= 64``) per element.

    ``tables`` is the byte-table layout of
    :meth:`repro.hashing.base.LinearHash._packed` (``tables[j, v, 0]``
    is ``A (v << 8j)``); ``offset0`` is the single-word packed offset
    vector.  Writes uint64 values into ``out`` (row 0 at the MSB of the
    ``out_bits``-wide value).
    """
    for i in range(len(xs)):
        x = xs[i]
        val = offset0
        for j in range(tables.shape[0]):
            val ^= tables[j, (x >> _np.uint64(8 * j)) & _BYTE, 0]
        out[i] = val
    return out


def linear_values_words(xs, tables, offset_words, out):
    """Affine hash values for arbitrary ``out_bits``: fills the
    ``(N, W)`` uint64 array ``out`` most-significant word first, same
    layout as :meth:`repro.hashing.base.LinearHash.values_batch_words`.
    """
    words = len(offset_words)
    for i in range(len(xs)):
        x = xs[i]
        for w in range(words):
            out[i, w] = offset_words[w]
        for j in range(tables.shape[0]):
            v = (x >> _np.uint64(8 * j)) & _BYTE
            for w in range(words):
                out[i, w] ^= tables[j, v, w]
    return out


def trail_zeros(values, out_bits, out):
    """Per-element ``TrailZero``: trailing zero bits of each uint64
    value, ``out_bits`` for a zero value.  Writes int64 counts."""
    for i in range(len(values)):
        v = values[i]
        if v == _ZERO:
            out[i] = out_bits
        else:
            count = 0
            while (v & _ONE) == _ZERO:
                v >>= _ONE
                count += 1
            out[i] = count
    return out


def bit_length(values, out):
    """Per-element bit length of each uint64 value (0 for 0); the
    ``cell_level`` building block (``level = out_bits - bit_length``).
    Writes int64 lengths."""
    for i in range(len(values)):
        v = values[i]
        count = 0
        while v != _ZERO:
            v >>= _ONE
            count += 1
        out[i] = count
    return out
