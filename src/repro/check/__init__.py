"""Conformance checking for the coherence machinery.

Three layers, all off by default:

* :mod:`repro.check.oracle` — a timing-free reference memory model
  (shadow memory over symbolic version tokens) that predicts the value
  every access must observe under per-location coherence;
* :mod:`repro.check.invariants` — a runtime checker attached to a
  :class:`~repro.sim.system.MultiprocessorSystem` that mirrors every data
  movement of the protocol into the oracle and enforces the structural
  MESI/Firefly invariants (SWMR, inclusion, single dirty owner,
  update-page legality, write-buffer FIFO order);
* :mod:`repro.check.fuzz` — a seeded adversarial trace generator with a
  shrinker, runnable as ``python -m repro.check``.

Enable per run with ``MultiprocessorSystem(..., check=True)``, with
``repro simulate --check``, or globally by setting the environment
variable named by :data:`REPRO_CHECK_ENV` (the test suite does).  This
module stays import-light on purpose: :mod:`repro.sim.system` imports it
unconditionally, and the heavy submodules load only when a checker is
actually attached.
"""

from __future__ import annotations

#: Environment variable enabling the checker (any value but "" and "0").
REPRO_CHECK_ENV = "REPRO_CHECK"

__all__ = ["REPRO_CHECK_ENV"]

