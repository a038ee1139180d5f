"""Layered runtime defenses against self-propagating payloads in
file-mediated multi-agent systems: a taint-tracking reference monitor, a
deterministic ecosystem simulator, and an independent trace auditor.

Everything else is imported from its submodule (``reentryguard.sim``,
``reentryguard.verifier``, ...)."""

from .scenarios import load_bundled

__version__ = "0.1.0"

__all__ = ["load_bundled"]
