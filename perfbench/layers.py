"""Which functions of the program form each layer, and their counters.

:func:`install` wraps the public entry points of ``protocols``,
``attacks``, ``core``, ``datasets``, ``sim.engine``, ``sim.cache``,
``sim.streaming`` and ``serve.service``/``serve.http`` on a
:class:`~perfbench.spans.Tracer`.  Span names are the per-layer metric
prefixes.  Classes are wrapped through every concrete subclass that
overrides the method, so ``OLH.support_counts`` and
``OUE.support_counts`` are both traced; functions imported by name into
other modules (``recover_frequencies`` in ``repro.serve.service`` and
``repro.sim.engine``) are rebound at each import site.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Any

import numpy as np

from perfbench.spans import Tracer

#: Modules imported before patching, so every by-name binding exists.
MODULES = (
    "repro",
    "repro.protocols.hashing",
    "repro.protocols.base",
    "repro.protocols.oue",
    "repro.protocols.olh",
    "repro.attacks",
    "repro.attacks.base",
    "repro.core.recover",
    "repro.core.projection",
    "repro.core.detection",
    "repro.core.kmeans",
    "repro.datasets",
    "repro.datasets.synthetic",
    "repro.datasets.ipums",
    "repro.datasets.fire",
    "repro.datasets.io",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.cache",
    "repro.sim.streaming",
    "repro.serve",
    "repro.serve.service",
    "repro.serve.http",
    "repro.kv",
    "repro.cli",
)


def _payload_bytes(payload: Any) -> int:
    """Characters of base64 data in a wire payload (nested dicts)."""
    if isinstance(payload, dict):
        return sum(_payload_bytes(v) for v in payload.values())
    return len(payload) if isinstance(payload, str) else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer ledger reports."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    hashing = mods["repro.protocols.hashing"]
    base = mods["repro.protocols.base"]
    oue = mods["repro.protocols.oue"]
    attacks_base = mods["repro.attacks.base"]
    cache = mods["repro.sim.cache"]
    engine = mods["repro.sim.engine"]
    FrequencyOracle = base.FrequencyOracle

    # protocols
    tracer.patch_function(
        hashing.hash_items,
        "protocols.hashing.hash_items",
        lambda a, k, r: {"hashes": int(np.size(r))},
    )

    def perturb_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        protocol, items = args[0], args[1]
        n = int(np.size(items))
        computed = n * protocol.domain_size * 8 if isinstance(protocol, oue.OUE) else 0
        return {"reports": n, "bytes_computed": computed}

    tracer.patch_method(FrequencyOracle, "perturb", "protocols.perturb", perturb_attrs)
    tracer.patch_method(
        FrequencyOracle,
        "support_counts",
        "protocols.support_counts",
        lambda a, k, r: {"reports": int(a[0].num_reports(a[1]))},
    )
    tracer.patch_method(FrequencyOracle, "fold_support_counts", "protocols.fold_support_counts")
    tracer.patch_method(
        FrequencyOracle, "sample_genuine_counts", "protocols.sample_genuine_counts"
    )
    tracer.patch_method(
        FrequencyOracle,
        "decode_reports",
        "protocols.decode_reports",
        lambda a, k, r: {"bytes": _payload_bytes(a[1])},
    )

    # attacks
    def craft_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        m = args[2] if len(args) > 2 else kwargs.get("m", 0)
        return {"reports": int(m)}

    tracer.patch_method(attacks_base.PoisoningAttack, "craft", "attacks.craft", craft_attrs)

    # core
    recover_mod = mods["repro.core.recover"]
    projection = mods["repro.core.projection"]
    kmeans_mod = mods["repro.core.kmeans"]
    tracer.patch_function(recover_mod.recover_frequencies, "core.recover")
    tracer.patch_method(recover_mod.LDPRecover, "recover", "core.recover")
    for fn in (projection.project_onto_simplex_kkt, projection.project_onto_simplex_sort):
        tracer.patch_function(fn, "core.projection")
    tracer.patch_function(mods["repro.core.detection"].detect_and_aggregate, "core.detection")
    for fn in (kmeans_mod.kmeans, kmeans_mod.recover_with_kmeans):
        tracer.patch_function(fn, "core.kmeans")
    tracer.patch_method(kmeans_mod.KMeansDefense, "run", "core.kmeans")

    # datasets
    for mod_name in ("repro.datasets.synthetic", "repro.datasets.ipums",
                     "repro.datasets.fire", "repro.datasets.io"):
        module = mods[mod_name]
        for attr, fn in list(vars(module).items()):
            if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod_name):
                tracer.patch_function(fn, "datasets.build")
    tracer.patch_method(mods["repro.datasets"].Dataset, "scaled", "datasets.build")

    # sim.engine
    tracer.patch_function(engine.parallel_map, "sim.engine.dispatch")
    tracer.patch_function(engine.run_chunked_trial, "sim.engine.chunked")

    # sim.cache
    def get_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        return {"hits": int(result is not None)}

    def put_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        return {"bytes": result.stat().st_size}

    CellCache = cache.CellCache
    original_path = CellCache._path

    def path(self: Any, key: str) -> Any:
        # Every lookup and store resolves its cell key here, so the spans
        # of a cell's lookup, computation and store carry that key.
        tracer.retag(key)
        return original_path(self, key)

    tracer.patch_attr(CellCache, "_path", path)
    for method in ("get", "get_evaluation"):
        tracer.patch_method(CellCache, method, "sim.cache.get", get_attrs)
    tracer.patch_method(CellCache, "put", "sim.cache.put", put_attrs)
    for attr in ("canonical_key", "fingerprint_object", "fingerprint_dataset",
                 "fingerprint_seed_sequences", "fingerprint_kv_population",
                 "fingerprint_attack_schedule", "evaluation_cell_spec",
                 "row_cell_spec", "scenario_cell_spec", "trial_stream_spec"):
        tracer.patch_function(getattr(cache, attr), "sim.cache.key")
    tracer.patch_function(cache._compute_source_digest, "sim.cache.source_digest")

    # sim.streaming
    tracer.patch_method(
        mods["repro.sim.streaming"].AggregatorState,
        "ingest",
        "sim.streaming.ingest",
        lambda a, k, r: {"reports": int(r)},
    )

    # serve
    service = mods["repro.serve.service"].RecoveryService
    tracer.patch_method(service, "ingest_payload", "serve.service.ingest")
    tracer.patch_method(service, "frequencies", "serve.service.frequencies")
    # Each request's spans carry its id, set around the traced dispatch.
    http = mods["repro.serve.http"].RecoveryHTTPServer
    traced_dispatch = tracer.wrap("serve.http.dispatch", http._dispatch)
    requests = itertools.count(1)

    def dispatch(self: Any, method: str, target: str, body: bytes) -> Any:
        tracer.tag = f"req-{next(requests)}"
        try:
            return traced_dispatch(self, method, target, body)
        finally:
            tracer.tag = ""

    tracer.patch_attr(http, "_dispatch", dispatch)


def span_names() -> set[str]:
    """Every span name :func:`install` records."""
    tracer = Tracer()
    install(tracer)
    tracer.unpatch()
    return tracer.names
