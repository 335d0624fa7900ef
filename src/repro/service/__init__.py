"""``repro.service`` — long-lived explanation serving on a warm substrate.

The paper's best-describe search is a one-shot batch computation; this
package turns it into a *resident service*: one
:class:`~repro.service.explanation_service.ExplanationService` owns one
long-lived OBDM system and its shared
:class:`~repro.engine.cache.EvaluationCache`, and answers repeated
``explain(labeling, …)`` requests against the warm memos instead of
rebuilding them per call.  Three lifecycle mechanisms (detailed in
:mod:`repro.service.explanation_service`) keep that sound and bounded:
per-layer LRU eviction (warm verdict matrices keep private copies of
their rows, so eviction never invalidates a session), snapshot
persistence (``save()``/``load()``) so a restarted service starts warm,
and incremental verdict maintenance
(:meth:`~repro.engine.verdicts.VerdictMatrix.apply_drift`) that absorbs
labeling drift by gathering the surviving borders' verdicts from the
shared verdict store instead of recomputing J-matches.
"""

from __future__ import annotations

from .explanation_service import ExplanationService, ServiceStats

__all__ = ["ExplanationService", "ServiceStats"]
