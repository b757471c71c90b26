"""Pluggable solver backends for the greedy matching engine.

The engine (:mod:`repro.core.engine`) is generic over a
:class:`~repro.core.backends.base.SolverBackend` that owns the candidate
mask representation; this package holds the protocol, the registry, and
the two implementations:

``"python"`` — :class:`~repro.core.backends.python_int.PythonIntBackend`
    the reference: big-int bitmask rows, the seed implementation's exact
    semantics.  The default.

``"numpy"`` — :class:`~repro.core.backends.mmap_block.MmapBlockBackend`
    wide lists as ``uint64`` block matrices with vectorized trimMatching
    row-ANDs and ``bitwise_count``/SWAR popcounts
    (:class:`~repro.core.backends.numpy_block.BlockMatchingList`); small
    lists are the reference's lists plus a single-row closed form
    (:class:`~repro.core.backends.numpy_block.NumpyMatchingList`).  Its
    store hits add uint64 views over the mapped store file that every
    backend's hits open (:func:`~repro.core.store.map_payload`), so the
    kernels read the file's pages without repacking.  Bit-identical
    results.  ``"mmap"`` is an alias for the same backend.

Selection: pass ``backend=`` (a name or a backend instance) anywhere the
matching stack accepts it — :func:`repro.core.api.match`,
:class:`~repro.core.service.MatchingService`,
:class:`~repro.core.workspace.MatchingWorkspace`, the CLI's
``--backend`` flag — or set the ``REPRO_BACKEND`` environment variable
to change the process default (explicit arguments win).
"""

from __future__ import annotations

import os

from repro.core.backends.base import MatchingList, SolverBackend
from repro.core.backends.python_int import PythonIntBackend, PythonMatchingList
from repro.core.backends.numpy_block import BlockBackendBase, NumpyMatchingList
from repro.core.backends.mmap_block import MmapBlockBackend
from repro.utils.errors import InputError

__all__ = [
    "MatchingList",
    "SolverBackend",
    "PythonIntBackend",
    "PythonMatchingList",
    "BlockBackendBase",
    "NumpyMatchingList",
    "MmapBlockBackend",
    "BACKEND_NAMES",
    "BACKEND_ENV_VAR",
    "get_backend",
]

#: Every accepted backend name, in preference/registration order.
BACKEND_NAMES: tuple[str, ...] = ("python", "numpy", "mmap")

#: Environment variable supplying the process-default backend name.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_FACTORIES = {
    "python": PythonIntBackend,
    "numpy": MmapBlockBackend,
}

#: Names that resolve to another backend's instance: ``"mmap"`` predates
#: the numpy backend mapping its store hits.
_ALIASES = {"mmap": "numpy"}

#: Constructed backends are stateless — cache one instance per name.
_instances: dict[str, SolverBackend] = {}


def get_backend(spec: "str | SolverBackend | None" = None) -> SolverBackend:
    """Resolve a backend: an instance, a registry name, or the default.

    ``None`` consults ``REPRO_BACKEND`` and falls back to ``"python"``;
    ``"mmap"`` resolves to the ``"numpy"`` instance.  Unknown names
    raise :class:`~repro.utils.errors.InputError` before any expensive
    work.
    """
    if isinstance(spec, SolverBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "python"
    if not isinstance(spec, str):
        raise InputError(
            f"solver backend must be a name or SolverBackend, got {spec!r}"
        )
    name = spec.strip().lower()
    name = _ALIASES.get(name, name)
    if name not in _FACTORIES:
        raise InputError(
            f"unknown solver backend {spec!r}; choose one of {BACKEND_NAMES}"
        )
    backend = _instances.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _instances[name] = backend
    return backend
