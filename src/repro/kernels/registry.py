"""The compute-kernel registry: named implementations of the hot loops.

Every counter in the paper bottoms out in the same two inner loops --
NP-oracle search (watched-literal clause propagation plus watched-XOR row
evaluation in :class:`repro.sat.solver.CdclSolver`) and hash evaluation
(:meth:`repro.gf2.gf2n.GF2n.eval_poly_batch` Horner sweeps,
:class:`repro.hashing.base.LinearHash` byte-table affine hashing,
trail-zero / bit-length SWAR tricks).  This registry makes *which code
runs those loops* a configuration flag, mirroring the solver-backend
registry in :mod:`repro.sat.backends`:

* ``python`` (default) -- the pure-python/numpy paths factored out of the
  original implementations; zero dependencies beyond numpy.
* ``numba`` -- the same loop sources njit-compiled (soft dependency;
  registered as *unavailable* when numba is not importable, so listings
  stay honest and selection errors stay friendly).

Selection resolves in order: an explicit name passed by the caller, the
process-wide override set by :func:`set_default_kernel` (the CLI's
``--kernel`` flag lands here), the ``REPRO_KERNEL`` environment variable,
then :data:`DEFAULT_KERNEL`.

A kernel is an object with the loop surface documented in DESIGN.md
(section "Kernel registry"): ``propagate(state)`` over a
:class:`repro.kernels.state.SolverState`, plus the batched hashing ops
``gf2_eval_poly_batch`` / ``linear_values_batch`` /
``linear_values_batch_words`` / ``trail_zeros_batch`` /
``bit_length_batch``.  The affine-hash ops take the byte tables of
:meth:`repro.hashing.base.LinearHash._packed` -- ``tables[j, v]`` is
``A (v << 8j)`` as ``ceil(out_bits/64)`` uint64 words, most significant
first, ``ceil(in_bits/8) x 256`` entries per hash (12 KiB for a 24 ->
72-bit hash) -- plus the offset words, and XOR one entry per input
byte.  Both registered kernels are bit-identical by
contract (``tests/test_kernels.py`` enforces it); a kernel that is merely
*approximately* right would silently break the golden-pinned determinism
tests, so the parity suite is the price of admission for a new entry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import InvalidParameterError

#: The kernel used when no explicit name, override, or env var applies.
DEFAULT_KERNEL = "python"

#: Environment variable consulted when no explicit kernel is requested.
ENV_VAR = "REPRO_KERNEL"


@dataclass(frozen=True)
class KernelInfo:
    """One registry entry.

    ``available`` is False for kernels whose soft dependency is missing
    (the ``numba`` entry on a bare container); they stay listed -- so
    ``repro kernels`` can say *why* -- but :func:`get_kernel` refuses
    them with the recorded reason.  ``releases_gil`` is the capability
    flag the executor auto-pick reads: True means the kernel's hot loops
    drop the GIL for their whole run, so thread-parallel repetitions
    genuinely overlap.
    """

    name: str
    factory: Callable[[], object]
    description: str
    available: bool = True
    unavailable_reason: str = ""
    releases_gil: bool = False


_REGISTRY: Dict[str, KernelInfo] = {}
_INSTANCES: Dict[str, object] = {}
_INSTANCE_LOCK = threading.Lock()
_default_override: Optional[str] = None


def register_kernel(name: str, factory: Callable[[], object],
                    description: str = "", available: bool = True,
                    unavailable_reason: str = "",
                    releases_gil: bool = False,
                    replace: bool = False) -> None:
    """Register a named kernel.

    ``replace=False`` (the default) refuses to shadow an existing name,
    so a typo in a plugin cannot silently hijack ``python``.
    """
    if not replace and name in _REGISTRY:
        raise InvalidParameterError(f"kernel {name!r} already registered")
    _REGISTRY[name] = KernelInfo(name, factory, description,
                                 available, unavailable_reason,
                                 releases_gil)
    _INSTANCES.pop(name, None)


def kernel_names() -> List[str]:
    """Registered kernel names, default first, rest alphabetical."""
    names = sorted(_REGISTRY)
    if DEFAULT_KERNEL in names:
        names.remove(DEFAULT_KERNEL)
        names.insert(0, DEFAULT_KERNEL)
    return names


def kernel_info(name: str) -> KernelInfo:
    """Look a kernel up by name (friendly error listing known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(kernel_names())
        raise InvalidParameterError(
            f"unknown kernel {name!r}; registered: {known}") from None


def has_kernel(name: str) -> bool:
    """Whether ``name`` is registered (available or not)."""
    return name in _REGISTRY


def set_default_kernel(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide kernel override.

    Takes precedence over ``REPRO_KERNEL``; the CLI's ``--kernel`` flag
    routes here so the hashing layer -- which samples hash functions far
    from any explicit kernel argument -- follows the same selection.
    """
    if name is not None:
        kernel_info(name)  # Validate eagerly: fail at the flag, not later.
    global _default_override
    _default_override = name


def resolve_kernel_name(name: Optional[str] = None) -> str:
    """The kernel name an optional explicit ``name`` resolves to."""
    if name:
        return name
    if _default_override:
        return _default_override
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return DEFAULT_KERNEL


def get_kernel(name: Optional[str] = None) -> object:
    """Resolve and instantiate a kernel (instances are cached).

    Args:
        name: explicit kernel name, or ``None`` to follow the
            override / ``REPRO_KERNEL`` / default resolution order.

    Returns:
        The kernel instance.

    Raises:
        InvalidParameterError: an unregistered name, or a registered
            kernel whose soft dependency is missing (the error carries
            the recorded reason, e.g. "numba is not installed").
    """
    resolved = resolve_kernel_name(name)
    info = kernel_info(resolved)
    if not info.available:
        raise InvalidParameterError(
            f"kernel {resolved!r} is registered but unavailable: "
            f"{info.unavailable_reason}")
    instance = _INSTANCES.get(resolved)
    if instance is None:
        # Thread-parallel tasks may race a cold cache; one factory call
        # wins (numba jit wrapping is not free, and callers expect the
        # cached instance to be process-unique).
        with _INSTANCE_LOCK:
            instance = _INSTANCES.get(resolved)
            if instance is None:
                instance = info.factory()
                _INSTANCES[resolved] = instance
    return instance
