"""The names the end-to-end benchmark needs from the tree.

``e2ebench/`` runs against the committed source: its tracer wraps
methods by name on their own classes (``e2ebench.trace.LAYERS``), and
its workloads import the public packages.  The benchmark's self-tests
(``e2ebench/check_e2ebench.py``) spawn processes and run only on
request, so this fast check brings the same contract into the tier-1
run: a renamed or deleted traced method, or a stale ``__all__`` entry,
fails here instead of failing every benchmark run.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PACKAGES = ("repro", "repro.engine", "repro.core", "repro.service", "repro.gateway")


def test_tracer_installs_on_the_tree_and_public_names_resolve():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    trace = importlib.import_module("e2ebench.trace")
    targets = [target for targets in trace.LAYERS.values() for target in targets]
    originals = [cls.__dict__.get(name) for cls, name in targets]
    tracer = trace.LayerTracer()
    try:
        tracer.install()
        for (cls, name), raw in zip(targets, originals):
            assert cls.__dict__[name] is not raw, f"{cls.__name__}.{name} was not wrapped"
    finally:
        tracer.uninstall()
    assert [cls.__dict__.get(name) for cls, name in targets] == originals

    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{package}.{name} does not resolve"
