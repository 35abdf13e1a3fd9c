"""The optional NumPy guard and the fleet backend registry.

One optional tier sits above the pure-Python reference semantics:
**NumPy** (the ``[perf]`` extra) — vectorized struct-of-arrays
lowerings.  This module is the single place NumPy is imported, so a
NumPy-free install degrades in exactly one, testable way
(``tests/test_numpy_free.py`` runs the full CLI surface with NumPy
shadowed out).

:func:`resolve_backend` is the one dispatch rule every fleet entry
point, sweep, and checker goes through: ``"auto"`` prefers ``numpy``
→ ``python``; pinning an unavailable backend is a
:class:`~repro.exceptions.ConfigurationError` with an install hint.
Pure Python stays the bit-identity oracle — the NumPy tier is a
lowering of the same kernels, pinned by the differential test battery.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

try:  # pragma: no cover - trivially one of the two branches per install
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None

#: The NumPy module when importable, else ``None``.
np: Optional[Any] = _numpy

#: True when the ``[perf]`` extra's NumPy is importable.
HAVE_NUMPY: bool = np is not None

#: Every backend name :func:`resolve_backend` accepts (the CLI's
#: ``--backend`` choices).
BACKEND_CHOICES: Tuple[str, ...] = ("auto", "numpy", "python")


def resolve_backend(backend: str = "auto") -> str:
    """Resolve a backend request to a concrete tier name.

    ``"auto"`` dispatches numpy → python by availability.  Pinning an
    unavailable tier raises :class:`~repro.exceptions.ConfigurationError`.
    """
    from repro.exceptions import ConfigurationError

    if backend == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if backend == "numpy":
        if not HAVE_NUMPY:
            raise ConfigurationError(
                "backend='numpy' requested but numpy is not importable; "
                "install the [perf] extra or use backend='auto'"
            )
        return "numpy"
    if backend == "python":
        return "python"
    raise ConfigurationError(
        f"unknown fleet backend {backend!r}; choose one of "
        f"{', '.join(BACKEND_CHOICES)}"
    )
