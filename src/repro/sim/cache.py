"""Persistent experiment-cell cache: content-addressed, resumable sweeps.

Every exhibit of the paper (Figures 3-10, Table I) is a grid of
*experimental cells*, and each cell is a pure function of its spec —
dataset, protocol and parameters, attack and parameters, ``beta``,
``eta``, ``trials``, the simulation mode, and the exact per-trial seed
sequences.  This module caches completed cells on disk keyed by the
canonical hash of that spec, so:

* an interrupted sweep resumes from its completed cells on rerun;
* regenerating a figure after a code-comment-only change costs zero
  simulation time;
* execution knobs that cannot change results — ``workers`` (bit-identical
  by construction) and ``chunk_users`` (statistically identical chunked
  aggregation) — are deliberately **excluded** from the key, so a run on
  one machine shape warms the cache for every other.

Layout: one JSON file per cell under
``<cache_dir>/<tag>/<key[:2]>/<key>.json`` where ``tag`` versions the
cache by schema (:data:`CACHE_SCHEMA`), the ``repro`` package version,
and a content hash of the package source tree
(:func:`source_digest`) — a release *or* an in-place code edit
invalidates old entries wholesale instead of serving stale rows.
Writes are atomic (temp file + ``os.replace``) so a Ctrl-C never
leaves a truncated entry behind; unreadable entries are treated as misses
and reported by :meth:`CellCache.verify`.

The cache stores two kinds of payloads:

* ``"evaluation"`` — a serialized
  :class:`~repro.sim.experiment.RecoveryEvaluation` (including its
  per-metric :class:`~repro.sim.engine.MetricStats`), the payload of
  :func:`repro.sim.experiment.recovery_cell` cells;
* ``"row"`` — an exhibit row payload (one flat row, or the per-``k`` /
  per-epoch expansion of the heavy-hitter and epochs scenarios), the
  payload of every other cell.

Both are written and read by the one cell executor,
:func:`repro.sim.cells.run_cell`.

The CLI exposes the store via ``--cache-dir`` / ``--no-cache`` /
``--cache-stats`` on ``run`` and a ``cache`` subcommand (``ls`` /
``prune`` / ``verify``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.attacks.base import PoisoningAttack
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import FrequencyOracle
from repro.sim.engine import DEFAULT_CHUNK_USERS, MetricStats, Welford

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiment -> cache)
    from repro.sim.experiment import RecoveryEvaluation

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "CacheStats",
    "CellBlockStore",
    "CellCache",
    "cache_tag",
    "canonical_key",
    "default_cache_dir",
    "evaluation_cell_spec",
    "fingerprint_attack_schedule",
    "fingerprint_dataset",
    "fingerprint_kv_population",
    "fingerprint_object",
    "fingerprint_seed_sequences",
    "resolve_cache",
    "resolved_cohort_chunk",
    "row_cell_spec",
    "scenario_cell_spec",
    "source_digest",
    "trial_stream_spec",
]

#: Cache schema version: bump whenever the entry layout, the spec
#: fingerprints, or the payload serialization change incompatibly.
CACHE_SCHEMA = 1

#: Environment variable that overrides the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------
def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fingerprint_array(arr: np.ndarray) -> dict[str, Any]:
    """Content hash of a numpy array (dtype + shape + raw bytes)."""
    arr = np.ascontiguousarray(arr)
    return {
        "__array__": _hash_bytes(arr.tobytes()),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


_SKIP = object()  # sentinel: attribute carries no cell-identity information


def _fingerprint_value(value: Any) -> Any:
    """Recursively reduce a value to canonical JSON-able identity data.

    RNG machinery (``Generator`` / ``BitGenerator`` / ``SeedSequence``
    attributes) and callables are skipped: attack/protocol objects hold
    construction-time generators whose state does not influence results —
    trial randomness flows exclusively through the spec's seed list.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _fingerprint_array(value)
    if isinstance(
        value, (np.random.Generator, np.random.BitGenerator, np.random.SeedSequence)
    ):
        return _SKIP
    if callable(value) and not isinstance(value, type):
        return _SKIP
    if isinstance(value, dict):
        out = {str(k): _fingerprint_value(v) for k, v in sorted(value.items())}
        return {k: v for k, v in out.items() if v is not _SKIP}
    if isinstance(value, (list, tuple)):
        return [v for v in (_fingerprint_value(x) for x in value) if v is not _SKIP]
    if isinstance(value, Dataset):
        return fingerprint_dataset(value)
    if isinstance(value, (FrequencyOracle, PoisoningAttack)):
        return fingerprint_object(value)
    if hasattr(value, "__dict__"):
        return fingerprint_object(value)
    return repr(value)


def fingerprint_object(obj: Any) -> dict[str, Any]:
    """Canonical identity of a protocol / attack / defense instance.

    Walks ``obj``'s instance ``vars()``: scalars pass through, arrays are
    content-hashed, nested components (e.g. :class:`MultiAttacker`'s
    sub-attacks, IPA's inner attack) recurse, and RNG state is skipped
    (see :func:`_fingerprint_value`).  Classes may declare a
    ``FINGERPRINT_EXCLUDE`` set of execution-only attribute names that
    cannot change results (e.g. OLH's ``chunk_cells`` support-scan
    budget); those are omitted, exactly like the engine's ``workers`` /
    ``chunk_users`` knobs are omitted from the cell spec.  Attributes that
    *do* change the report distribution (e.g. OLH's ``cohort``) stay in.
    The concrete class name is always included so two classes with
    identical attributes cannot collide.
    """
    fp: dict[str, Any] = {"__type__": type(obj).__name__}
    describe = getattr(obj, "describe", None)
    if callable(describe):
        fp["describe"] = str(describe())
    exclude = getattr(type(obj), "FINGERPRINT_EXCLUDE", frozenset())
    for key, value in sorted(vars(obj).items()):
        if key in exclude:
            continue
        printed = _fingerprint_value(value)
        if printed is not _SKIP:
            fp[key] = printed
    return fp


def fingerprint_dataset(dataset: Dataset) -> dict[str, Any]:
    """Canonical identity of a dataset: name plus histogram content hash."""
    return {
        "name": dataset.name,
        "counts": _fingerprint_array(dataset.counts),
        "num_users": dataset.num_users,
        "domain_size": dataset.domain_size,
    }


def fingerprint_seed_sequences(
    seeds: Sequence[np.random.SeedSequence],
) -> list[dict[str, Any]]:
    """Canonical identity of the per-trial ``seeds`` of a cell.

    Each :class:`~numpy.random.SeedSequence` is fully determined by its
    ``entropy``, ``spawn_key`` and ``pool_size``, so this captures exactly
    the randomness every trial will consume — independent of whether the
    trials later run inline or across a process pool.  Non-deterministic
    runs (``rng=None`` draws OS entropy) simply produce keys that will
    never be hit again, i.e. natural cache misses.
    """
    out = []
    for seq in seeds:
        entropy = seq.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        out.append(
            {
                "entropy": entropy,
                "spawn_key": [int(k) for k in seq.spawn_key],
                "pool_size": int(seq.pool_size),
            }
        )
    return out


def resolved_cohort_chunk(
    protocol: FrequencyOracle, mode: str, chunk_users: Optional[int]
) -> Optional[int]:
    """The chunk size to include in a cell spec, or ``None``.

    ``chunk_users`` is normally an execution-only knob excluded from cache
    keys (chunked aggregation of per-user-seed reports is distributed
    exactly as the unchunked path).  A seed-cohort ``protocol`` breaks
    that premise in ``mode="chunked"``: every chunk draws one fresh cohort
    of shared seeds, so the chunk schedule shapes the report correlation
    structure (and hence estimate variance).  For those cells this returns
    the *resolved* chunk size (``chunk_users`` or
    :data:`~repro.sim.engine.DEFAULT_CHUNK_USERS`) so it enters the key;
    for every other cell it returns ``None`` and the key stays
    chunk-invariant.
    """
    if getattr(protocol, "cohort", None) is None or str(mode) != "chunked":
        return None
    return int(chunk_users) if chunk_users is not None else DEFAULT_CHUNK_USERS


def evaluation_cell_spec(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    *,
    beta: float,
    eta: float,
    trials: int,
    mode: str,
    with_star: bool,
    with_detection: bool,
    aa_top_k: int,
    seeds: Sequence[np.random.SeedSequence],
    cohort_chunk_users: Optional[int] = None,
) -> dict[str, Any]:
    """The full cell spec of one :func:`evaluate_recovery` call.

    Every field that can change the returned
    :class:`~repro.sim.experiment.RecoveryEvaluation` is present —
    ``dataset``, ``protocol``, ``attack`` (all content-fingerprinted),
    ``beta``, ``eta``, ``trials``, the *resolved* simulation ``mode``, the
    evaluation switches ``with_star`` / ``with_detection`` / ``aa_top_k``,
    and the per-trial ``seeds``.  Execution-only knobs (``workers``,
    ``chunk_users``) are deliberately absent — except for cohort-mode
    chunked cells, whose resolved chunk size arrives via
    ``cohort_chunk_users`` (see :func:`resolved_cohort_chunk`) because
    there it shapes the report distribution.
    """
    spec = {
        "kind": "evaluation",
        "dataset": fingerprint_dataset(dataset),
        "protocol": fingerprint_object(protocol),
        "attack": None if attack is None else fingerprint_object(attack),
        "beta": float(beta),
        "eta": float(eta),
        "trials": int(trials),
        "mode": str(mode),
        "with_star": bool(with_star),
        "with_detection": bool(with_detection),
        "aa_top_k": int(aa_top_k),
        "seeds": fingerprint_seed_sequences(seeds),
    }
    if cohort_chunk_users is not None:
        spec["cohort_chunk_users"] = int(cohort_chunk_users)
    return spec


def row_cell_spec(
    exhibit: str,
    dataset: Dataset,
    protocol: Optional[FrequencyOracle],
    attacks: Iterable[PoisoningAttack],
    params: dict[str, Any],
    seeds: Sequence[np.random.SeedSequence],
) -> dict[str, Any]:
    """The cell spec of one custom exhibit row (Figure 8/9, Table I).

    ``exhibit`` names the generator (e.g. ``"figure8"``), ``attacks`` the
    attack instances involved in the cell (possibly none), ``params`` the
    remaining cell parameters (e.g. ``beta``, ``xi``, ``mode``), and
    ``seeds`` the per-trial seed sequences; ``dataset`` and ``protocol``
    are content-fingerprinted like in :func:`evaluation_cell_spec`.
    """
    return {
        "kind": "row",
        "exhibit": str(exhibit),
        "dataset": fingerprint_dataset(dataset),
        "protocol": None if protocol is None else fingerprint_object(protocol),
        "attacks": [fingerprint_object(a) for a in attacks],
        "params": _fingerprint_value(dict(params)),
        "seeds": fingerprint_seed_sequences(seeds),
    }


def fingerprint_kv_population(population: Any) -> dict[str, Any]:
    """Canonical identity of a key-value population.

    Captures everything that determines the genuine report distribution
    of a :class:`repro.sim.scenarios.KVPopulation` (duck-typed so the
    cache stays import-light): the ``name``, content hashes of the
    key-frequency and per-key-mean vectors, and the population size.
    """
    return {
        "name": str(population.name),
        "frequencies": _fingerprint_array(np.asarray(population.frequencies)),
        "means": _fingerprint_array(np.asarray(population.means)),
        "num_users": int(population.num_users),
    }


def fingerprint_attack_schedule(schedule: Any) -> dict[str, Any]:
    """Canonical identity of a per-epoch attack schedule.

    Captures the full scalar state of an
    :class:`repro.sim.history.AttackSchedule` (duck-typed so the cache
    stays import-light): the shape ``kind`` plus every parameter that
    shapes the per-epoch malicious-fraction vector.  Used by the
    ``epochs`` scenario to put the schedule into its cell specs, so
    cells with different burst epochs or ramp endpoints never collide.
    """
    return {
        "kind": str(schedule.kind),
        "beta": float(schedule.beta),
        "start_epoch": int(schedule.start_epoch),
        "end_beta": None if schedule.end_beta is None else float(schedule.end_beta),
    }


def scenario_cell_spec(
    scenario: str,
    source: Any,
    protocol: Any,
    attacks: Iterable[Any],
    params: dict[str, Any],
    seeds: Sequence[np.random.SeedSequence],
) -> dict[str, Any]:
    """The cell spec of one scenario-exhibit row (:mod:`repro.sim.scenarios`).

    The scenario analogue of :func:`row_cell_spec`, relaxed so workloads
    beyond plain frequency oracles fit: ``scenario`` names the registered
    exhibit (e.g. ``"kv"``), ``source`` is the population the cell draws
    from — a :class:`~repro.datasets.base.Dataset`, a key-value
    population (anything with ``means``, via
    :func:`fingerprint_kv_population`), or any fingerprintable object —
    ``protocol`` and ``attacks`` are the (possibly non-``FrequencyOracle``
    / non-``PoisoningAttack``) instances involved, ``params`` the
    remaining cell parameters, and ``seeds`` the per-trial seed
    sequences.  The payload kind stays ``"row"`` so scenario cells flow
    through the same cache / enumeration / shard machinery as the custom
    figure rows.
    """
    if isinstance(source, Dataset):
        fingerprint: Any = fingerprint_dataset(source)
    elif hasattr(source, "means"):
        fingerprint = fingerprint_kv_population(source)
    else:
        fingerprint = _fingerprint_value(source)
    return {
        "kind": "row",
        "exhibit": f"scenario-{scenario}",
        "source": fingerprint,
        "protocol": None if protocol is None else fingerprint_object(protocol),
        "attacks": [fingerprint_object(a) for a in attacks],
        "params": _fingerprint_value(dict(params)),
        "seeds": fingerprint_seed_sequences(seeds),
    }


def canonical_key(spec: dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON form of a spec."""
    encoded = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return _hash_bytes(encoded.encode("utf-8"))


def trial_stream_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """The spec addressing a budgeted cell's appendable trial-block stream.

    Derived from a cell's summary ``spec`` by dropping the fields that
    vary with the trial budget — ``trials``, the full ``seeds`` list, and
    the ``budget`` fingerprint itself — and keeping only the *first*
    per-trial seed fingerprint (``seed_stream``).  Because per-trial seeds
    are consecutive siblings of one parent :class:`~numpy.random.SeedSequence`
    (``spawn_key`` suffixes ``i, i+1, ...``), the first child pins the
    entire canonical trial stream: every budget over the same cell shares
    one block directory, so topping a cell up never re-simulates trials a
    smaller budget already ran.
    """
    stream = {
        key: value
        for key, value in spec.items()
        if key not in ("kind", "trials", "seeds", "budget")
    }
    seeds = spec.get("seeds") or []
    stream["kind"] = "trial-stream"
    stream["seed_stream"] = seeds[0] if seeds else None
    return stream


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------
def _stats_to_payload(stats: dict[str, MetricStats]) -> dict[str, dict[str, Any]]:
    return {
        name: {
            "mean": entry.mean,
            "variance": entry.variance,
            "stderr": entry.stderr,
            "count": entry.count,
        }
        for name, entry in stats.items()
    }


def _stats_from_payload(payload: dict[str, dict[str, Any]]) -> dict[str, MetricStats]:
    return {
        name: MetricStats(
            mean=float(entry["mean"]),
            variance=None if entry["variance"] is None else float(entry["variance"]),
            stderr=None if entry["stderr"] is None else float(entry["stderr"]),
            count=int(entry["count"]),
        )
        for name, entry in payload.items()
    }


def evaluation_to_payload(evaluation: "RecoveryEvaluation") -> dict[str, Any]:
    """Serialize an ``evaluation`` (with its stats) to a plain JSON dict."""
    payload = dict(evaluation.as_row())
    payload["stats"] = _stats_to_payload(evaluation.stats)
    return payload


def payload_to_evaluation(payload: dict[str, Any]) -> "RecoveryEvaluation":
    """Rebuild a :class:`RecoveryEvaluation` from its cached payload."""
    from repro.sim.experiment import RecoveryEvaluation  # deferred: import cycle

    data = dict(payload)
    stats = _stats_from_payload(data.pop("stats", {}))
    data["trials"] = int(data["trials"])
    return RecoveryEvaluation(stats=stats, **data)


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
#: Sub-packages left out of the source digest: nothing a trial runs
#: imports them.
_UNHASHED_PACKAGES = ("lint",)

#: Memoized digest of the installed package (computed once per process).
_DEFAULT_SOURCE_DIGEST: Optional[str] = None


def _source_files(root: pathlib.Path) -> list[pathlib.Path]:
    """Every ``*.py`` under ``root`` except the :data:`_UNHASHED_PACKAGES`."""
    return [
        path
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] not in _UNHASHED_PACKAGES
    ]


def _compute_source_digest(root: pathlib.Path) -> str:
    """sha256 over (relative path, bytes) of :func:`_source_files`,
    truncated to 12 hex chars."""
    digest = hashlib.sha256()
    for path in _source_files(root):
        try:
            data = path.read_bytes()
        except OSError:  # pragma: no cover - unreadable file
            continue
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    return digest.hexdigest()[:12]


def source_digest(root: Optional[str | os.PathLike[str]] = None) -> str:
    """Short content hash of the package source that trials can run.

    Hashes every ``*.py`` file (relative path plus raw bytes) under
    ``root`` except the ``lint`` sub-package — the installed ``repro``
    package by default, whose digest is computed once per process.  A
    trial reaches far beyond the simulation layer (``_rng``, ``datasets``,
    ``kv``, and ``serve`` for the epochs scenario), so hashing the whole
    tree is the sound choice; ``lint`` alone never runs in a trial.
    Mixed into :func:`cache_tag`, this makes in-place source edits
    invalidate the cell cache automatically: the edited tree writes under
    a fresh tag instead of serving rows simulated by old code.
    """
    global _DEFAULT_SOURCE_DIGEST
    if root is not None:
        return _compute_source_digest(pathlib.Path(root))
    if _DEFAULT_SOURCE_DIGEST is None:
        _DEFAULT_SOURCE_DIGEST = _compute_source_digest(
            pathlib.Path(__file__).resolve().parent.parent
        )
    return _DEFAULT_SOURCE_DIGEST


def cache_tag() -> str:
    """The versioned subdirectory name isolating incompatible caches.

    Combines the cache schema, the installed ``repro`` version, and the
    :func:`source_digest` of the package source tree, so both
    releases *and* in-place code edits invalidate old entries wholesale
    (no manual ``cache prune`` needed after editing simulation code).
    """
    from repro import __version__  # deferred: repro/__init__ imports repro.sim

    return f"v{CACHE_SCHEMA}-repro-{__version__}-{source_digest()}"


def default_cache_dir() -> pathlib.Path:
    """The cache root used when the caller does not pick one.

    Resolution order: the :data:`CACHE_DIR_ENV` environment variable, then
    ``$XDG_CACHE_HOME/repro-ldprecover``, then ``~/.cache/repro-ldprecover``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-ldprecover"


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`CellCache` instance.

    Besides the whole-cell counters, adaptive (budgeted) runs maintain
    trial-block counters: ``block_hits`` / ``block_trials_reused`` count
    blocks (and the trials inside them) served from disk instead of being
    re-simulated, ``block_stores`` counts freshly appended blocks.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    block_hits: int = 0
    block_trials_reused: int = 0
    block_stores: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        """Fraction of lookups served from disk; ``None`` before any lookup."""
        return self.hits / self.lookups if self.lookups else None

    def summary(self) -> str:
        """One-line human summary (the ``--cache-stats`` output format)."""
        rate = self.hit_rate
        rendered = "n/a" if rate is None else f"{100.0 * rate:.1f}%"
        line = (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stored (hit rate {rendered})"
        )
        if self.errors:
            line += f", {self.errors} unreadable entries"
        if self.block_hits or self.block_stores:
            line += (
                f", {self.block_hits} trial blocks reused "
                f"({self.block_trials_reused} trials), "
                f"{self.block_stores} appended"
            )
        return line


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one cached cell, as listed by ``repro cache ls``.

    ``meta`` carries store-time annotations outside the result payload;
    adaptive (budgeted) cells record their final trial count, block count
    and achieved CI half-width there.
    """

    key: str
    kind: str
    path: pathlib.Path
    created_at: float
    size_bytes: int
    spec: dict[str, Any] = field(repr=False)
    meta: Optional[dict[str, Any]] = field(default=None, repr=False)

    def summary_row(self) -> dict[str, object]:
        """Flat row for ``cache ls`` tables (best-effort spec highlights)."""
        spec = self.spec
        # Scenario rows carry their population under "source" instead of
        # "dataset" (it need not be a Dataset); show whichever is present.
        source = spec.get("dataset") or spec.get("source")
        dataset = source.get("name", "-") if isinstance(source, dict) else "-"
        protocol = (spec.get("protocol") or {}).get("describe") or (
            spec.get("protocol") or {}
        ).get("__type__", "-")
        if spec.get("kind") == "evaluation":
            attack = (spec.get("attack") or {}).get("describe", "none")
            exhibit = "evaluation"
            beta, eta, trials = spec.get("beta"), spec.get("eta"), spec.get("trials")
        else:
            attacks = spec.get("attacks") or []
            attack = ", ".join(a.get("describe", a.get("__type__", "?")) for a in attacks) or "none"
            exhibit = spec.get("exhibit", "row")
            params = spec.get("params") or {}
            beta, eta = params.get("beta"), params.get("eta")
            trials = len(spec.get("seeds") or [])
        meta = self.meta or {}
        if meta.get("trials") is not None:
            trials = meta["trials"]  # adaptive cells: the achieved count
        return {
            "key": self.key[:12],
            "kind": exhibit,
            "dataset": dataset,
            "protocol": protocol,
            "attack": attack,
            "beta": beta,
            "eta": eta,
            "trials": trials,
            "blocks": meta.get("blocks"),
            "ci95": meta.get("achieved_halfwidth"),
            "age_s": round(max(0.0, time.time() - self.created_at), 1),
            "bytes": self.size_bytes,
        }


class CellCache:
    """Content-addressed on-disk store of completed experimental cells.

    Parameters
    ----------
    cache_dir:
        Root directory of the store; created lazily on first write.
        Entries live under the versioned :func:`cache_tag` subdirectory.
    tag:
        Override the version tag (tests only; the default ties entries to
        the cache schema, the installed ``repro`` version, and the
        :func:`source_digest` of the simulation source tree).
    """

    def __init__(
        self, cache_dir: str | os.PathLike[str], tag: Optional[str] = None
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.tag = tag or cache_tag()
        self.stats = CacheStats()

    @property
    def root(self) -> pathlib.Path:
        """The versioned directory actually holding this cache's entries."""
        return self.cache_dir / self.tag

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- core get/put --------------------------------------------------
    def key_for(self, spec: dict[str, Any]) -> str:
        """The canonical content key of a cell spec."""
        return canonical_key(spec)

    def _load(self, spec: dict[str, Any]) -> tuple[Optional[dict[str, Any]], bool]:
        """Read ``spec``'s payload from disk without touching the counters.

        Returns ``(payload, had_error)``: ``(None, False)`` for a clean
        miss (no entry file), ``(None, True)`` for an unreadable or
        mismatched entry.  The typed lookup wrappers layer decoding on top
        and count each lookup's outcome exactly once.
        """
        path = self._path(self.key_for(spec))
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("kind") != spec.get("kind"):
                raise ValueError("cached kind does not match requested kind")
            return entry["payload"], False
        except FileNotFoundError:
            return None, False
        except (ValueError, KeyError, OSError):
            return None, True

    def get(
        self,
        spec: dict[str, Any],
        decode: Optional[Callable[[dict[str, Any]], Any]] = None,
    ) -> Any:
        """Return the cached payload for ``spec``, or ``None`` on a miss.

        With ``decode`` the payload is passed through it and its result is
        returned instead.  Unreadable or mismatched entries (truncated
        files, foreign kinds, payloads ``decode`` rejects with
        ``KeyError``/``TypeError``/``ValueError``) count as misses and bump
        :attr:`CacheStats.errors`.  Each lookup is counted once, *after*
        decoding, so a stale payload never shows as a hit.
        """
        payload, had_error = self._load(spec)
        value = payload
        if payload is not None and decode is not None:
            try:
                value = decode(payload)
            except (KeyError, TypeError, ValueError):
                value, had_error = None, True
        if value is None:
            self.stats.misses += 1
            if had_error:
                self.stats.errors += 1
            return None
        self.stats.hits += 1
        return value

    def contains(self, key: str) -> bool:
        """Whether an entry file for ``key`` exists (readability unchecked).

        The shard runner's completeness checks
        (:func:`repro.sim.shard.sweep_status` /
        :func:`repro.sim.shard.merge_sweep`) use this to test cell
        presence without paying a JSON parse per cell.
        """
        return self._path(key).is_file()

    def put(
        self,
        spec: dict[str, Any],
        payload: dict[str, Any],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Store ``payload`` under ``spec``'s key (atomic write); return path.

        ``meta``, when given, is stored on the entry *next to* the payload
        (never inside it): adaptive runs annotate block counts and achieved
        half-widths there without perturbing the cached result bytes.
        """
        key = self.key_for(spec)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "kind": spec.get("kind", "row"),
            "schema": CACHE_SCHEMA,
            "created_at": time.time(),
            "spec": spec,
            "payload": payload,
        }
        if meta is not None:
            entry["meta"] = meta
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, separators=(",", ":"), default=float)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # -- typed convenience wrappers ------------------------------------
    def get_evaluation(self, spec: dict[str, Any]) -> Optional["RecoveryEvaluation"]:
        """Cached :class:`RecoveryEvaluation` for an evaluation spec, if any.

        A payload that no longer matches the current
        :class:`RecoveryEvaluation` shape (e.g. a field was renamed by an
        in-place code edit under the same cache tag) is a miss, not an
        error raised (see :meth:`get`).
        """
        evaluation: Optional["RecoveryEvaluation"] = self.get(
            spec, decode=payload_to_evaluation
        )
        return evaluation

    def put_evaluation(
        self,
        spec: dict[str, Any],
        evaluation: "RecoveryEvaluation",
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Store a completed :class:`RecoveryEvaluation` under its spec.

        ``meta`` is forwarded to :meth:`put` (adaptive-run annotations).
        """
        return self.put(spec, evaluation_to_payload(evaluation), meta=meta)

    # -- appendable trial blocks (adaptive budgets) --------------------
    def block_store(self, stream_spec: dict[str, Any]) -> "CellBlockStore":
        """The appendable trial-block store for one cell's trial stream.

        ``stream_spec`` is the cell's :func:`trial_stream_spec`; the
        returned :class:`CellBlockStore` satisfies the engine's
        :class:`repro.sim.engine.TrialBlockStore` protocol (its base
        ``claim`` always succeeds — block-level arbitration belongs to the
        shard layer's claim-coordinated wrapper).
        """
        return CellBlockStore(self, canonical_key(stream_spec))

    # -- maintenance (the `repro cache` subcommand) --------------------
    #
    # Maintenance may run while other processes (shard peers sharing this
    # cache directory) are writing and pruning concurrently.  Two rules
    # keep it race-free: in-flight temp files (``*.tmp``, non-atomic by
    # definition) are never treated as entries, and a file that vanishes
    # between listing and stat/open/unlink is already-gone, not an error.

    #: Age (seconds) past which a ``*.tmp`` file is considered orphaned —
    #: left behind by a SIGKILLed writer rather than an in-flight
    #: :meth:`CellCache.put` — and swept by :meth:`CellCache.prune`.
    TMP_ORPHAN_SECONDS = 3600.0

    def _entry_files(self, all_tags: bool = False) -> Iterator[pathlib.Path]:
        base = self.cache_dir if all_tags else self.root
        if not base.is_dir():
            return
        # rglob("*.json") never matches the ".tmp"-suffixed temp files of
        # in-flight writers, so concurrent puts are invisible here until
        # their atomic os.replace lands.  Trial-block files live inside
        # "<stream_key>.blocks/" directories and are not entries — they
        # have their own integrity pass in verify().
        for path in sorted(base.rglob("*.json")):
            if path.parent.suffix == ".blocks":
                continue
            yield path

    def _block_files(self, all_tags: bool = False) -> Iterator[pathlib.Path]:
        base = self.cache_dir if all_tags else self.root
        if not base.is_dir():
            return
        for path in sorted(base.rglob("*.json")):
            if path.parent.suffix == ".blocks":
                yield path

    def _block_dirs(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        yield from sorted(self.root.rglob("*.blocks"))

    def _sweep_orphan_tmp(self, all_tags: bool = False) -> int:
        """Delete orphaned writer temp files; return the number removed.

        A crashed (SIGKILLed) :meth:`put` cannot reach its cleanup
        handler, leaving a ``*.tmp`` file behind forever.  Files younger
        than :attr:`TMP_ORPHAN_SECONDS` are left alone — they may belong
        to a live writer on this or another machine.  ``all_tags``
        extends the sweep beyond the current version tag.
        """
        base = self.cache_dir if all_tags else self.root
        if not base.is_dir():
            return 0
        horizon = time.time() - self.TMP_ORPHAN_SECONDS
        removed = 0
        for path in sorted(base.rglob("*.tmp")):
            try:
                if path.stat().st_mtime > horizon:
                    continue
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue  # a concurrent sweep (or the writer) got there first
            except OSError:  # pragma: no cover - permission problems etc.
                continue
        return removed

    def count(self, all_tags: bool = False) -> int:
        """Number of entry files on disk (readable or not)."""
        return sum(1 for _ in self._entry_files(all_tags))

    def entries(self, all_tags: bool = False) -> list[CacheEntry]:
        """Readable entries of this cache version (or of ``all_tags``)."""
        out = []
        for path in self._entry_files(all_tags):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                out.append(
                    CacheEntry(
                        key=str(entry["key"]),
                        kind=str(entry.get("kind", "row")),
                        path=path,
                        created_at=float(entry.get("created_at", 0.0)),
                        size_bytes=path.stat().st_size,
                        spec=entry.get("spec", {}),
                        meta=entry.get("meta"),
                    )
                )
            except FileNotFoundError:
                continue  # pruned by a concurrent process: already gone
            except (ValueError, KeyError, OSError):
                continue
        return out

    def prune(
        self, older_than_days: Optional[float] = None, all_tags: bool = False
    ) -> int:
        """Delete cached cells; return the number of files removed.

        ``older_than_days`` keeps entries younger than the horizon;
        ``None`` removes everything.  ``all_tags`` extends the sweep to
        entries written by other schema/package versions (the usual way to
        reclaim space after upgrades).  Every prune also sweeps orphaned
        writer temp files (``*.tmp`` older than
        :attr:`TMP_ORPHAN_SECONDS`, left by SIGKILLed writers) and trial
        block files (aged by file modification time — blocks carry no
        timestamps of their own); both count toward the returned total.
        Entries deleted concurrently by another process are treated as
        already gone, not errors.
        """
        if older_than_days is not None and older_than_days < 0:
            raise InvalidParameterError(
                f"older_than_days must be >= 0, got {older_than_days}"
            )
        horizon = (
            None if older_than_days is None else time.time() - 86_400.0 * older_than_days
        )
        removed = self._sweep_orphan_tmp(all_tags)
        for path in list(self._entry_files(all_tags)):
            if horizon is not None:
                try:
                    with path.open("r", encoding="utf-8") as handle:
                        created = float(json.load(handle).get("created_at", 0.0))
                except FileNotFoundError:
                    continue  # pruned by a concurrent process: already gone
                except (ValueError, OSError):
                    created = 0.0  # unreadable: always eligible
                if created > horizon:
                    continue
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue  # pruned by a concurrent process: already gone
            except OSError:  # pragma: no cover - permission problems etc.
                continue
        for path in list(self._block_files(all_tags)):
            try:
                if horizon is not None and path.stat().st_mtime > horizon:
                    continue
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue  # pruned by a concurrent process: already gone
            except OSError:  # pragma: no cover - permission problems etc.
                continue
        return removed

    def verify(self, delete: bool = False) -> list[tuple[pathlib.Path, str]]:
        """Check every entry's integrity; return ``(path, problem)`` pairs.

        An entry is healthy when it parses as JSON, carries a payload, and
        its stored key equals the canonical hash recomputed from its
        stored spec (i.e. the file content was not tampered with or
        half-written).  Trial-block directories get their own pass:
        every block must parse, match its filename range, carry one metric
        dict per trial with Welford states that refold exactly, and the
        blocks of a stream must tile ``[0, stop)`` contiguously without
        overlap (see :meth:`CellBlockStore.problems`).  ``delete`` removes
        the offenders.  Entries pruned by a concurrent process mid-check
        are skipped, not reported — a vanished file is not a corrupt file.
        """
        problems = []
        for path in self._entry_files():
            problem = None
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                if "payload" not in entry:
                    problem = "missing payload"
                elif canonical_key(entry.get("spec", {})) != entry.get("key"):
                    problem = "key does not match stored spec"
                elif path.stem != entry.get("key"):
                    problem = "filename does not match stored key"
            except FileNotFoundError:
                continue  # pruned by a concurrent process: nothing to verify
            except (ValueError, OSError) as exc:
                problem = f"unreadable: {exc}"
            if problem is not None:
                problems.append((path, problem))
                if delete:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        for directory in self._block_dirs():
            store = CellBlockStore(self, directory.name.rsplit(".", 1)[0])
            for path, problem in store.problems():
                problems.append((path, problem))
                if delete:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return problems


def _block_welford_payload(
    per_trial: Sequence[dict[str, float]],
) -> dict[str, dict[str, Any]]:
    """Serialized per-metric Welford states of one block's trials.

    Folded sequentially in trial order, exactly like
    :func:`repro.sim.engine.aggregate_metrics` folds them — so the states
    are a pure function of the block's own ``per_trial`` dicts and the
    read path can recompute and compare them bit for bit.
    """
    accumulators: dict[str, Welford] = {}
    for metrics in per_trial:
        for key, value in metrics.items():
            accumulators.setdefault(key, Welford()).add(float(value))
    return {
        key: {"count": acc.count, "mean": acc.mean, "m2": acc.m2}
        for key, acc in sorted(accumulators.items())
    }


#: Parsed block triple: (start, stop, per-trial metric dicts).
_Block = tuple[int, int, list[dict[str, float]]]


class CellBlockStore:
    """Appendable trial-block storage for one cell's canonical trial stream.

    A budgeted cell's trials live as an ordered chain of *blocks* under
    ``<root>/<key[:2]>/<key>.blocks/<start>-<stop>.json`` where ``key`` is
    the :func:`canonical_key` of the cell's :func:`trial_stream_spec`.
    Each block carries its trial-index range, the raw per-trial metric
    dicts (the ground truth the adaptive driver refolds, which is what
    makes adaptive results bit-identical to fixed-budget runs), and the
    serialized Welford states of those trials (derived metadata the read
    path and :meth:`CellCache.verify` cross-check).

    Integrity contract: a chain is served only when every block parses,
    matches its filename range and Welford states, and the ranges tile
    ``[0, stop)`` contiguously with no gap or overlap — any violation
    makes the *whole cell* a miss (never a partial hit), counted through
    :attr:`CacheStats.errors`.

    This class satisfies the engine's
    :class:`repro.sim.engine.TrialBlockStore` protocol; its ``claim`` is
    unconditionally granted (single-process use).  Shard claim
    coordination wraps it (see :mod:`repro.sim.shard`).
    """

    def __init__(self, cache: CellCache, stream_key: str) -> None:
        self.cache = cache
        self.stream_key = stream_key

    @property
    def directory(self) -> pathlib.Path:
        """The on-disk block directory of this trial stream."""
        return self.cache.root / self.stream_key[:2] / f"{self.stream_key}.blocks"

    def _block_path(self, start: int, stop: int) -> pathlib.Path:
        # Zero-padded so lexicographic listing order equals trial order.
        return self.directory / f"{start:08d}-{stop:08d}.json"

    def _read_block(self, path: pathlib.Path) -> Optional[_Block]:
        """Parse and validate one block file; ``None`` when invalid.

        Raises :class:`FileNotFoundError` through (a vanished file is a
        concurrent prune, not corruption — callers skip it).
        """
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("stream_key") != self.stream_key:
                return None
            start, stop = int(data["start"]), int(data["stop"])
            if start < 0 or stop <= start:
                return None
            if path.name != f"{start:08d}-{stop:08d}.json":
                return None
            raw = data["per_trial"]
            if not isinstance(raw, list) or len(raw) != stop - start:
                return None
            per_trial = [
                {str(key): float(value) for key, value in metrics.items()}
                for metrics in raw
            ]
            if data.get("welford") != _block_welford_payload(per_trial):
                return None
            return start, stop, per_trial
        except FileNotFoundError:
            raise
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _chain(self) -> Optional[list[_Block]]:
        """Every block of the stream as a validated contiguous chain.

        ``None`` signals an integrity violation (unreadable block, gap,
        overlap) — the whole cell must then be treated as a miss.  An
        empty directory is simply an empty (valid) chain.
        """
        directory = self.directory
        if not directory.is_dir():
            return []
        blocks: list[_Block] = []
        for path in sorted(directory.glob("*.json")):
            try:
                parsed = self._read_block(path)
            except FileNotFoundError:
                continue  # pruned concurrently: not part of the chain
            if parsed is None:
                return None
            blocks.append(parsed)
        blocks.sort(key=lambda block: block[0])
        expected = 0
        for start, stop, _ in blocks:
            if start != expected:
                return None
            expected = stop
        return blocks

    def load(self) -> list[_Block]:
        """The validated block chain, counting reuse into the cache stats.

        Any integrity violation yields ``[]`` (whole-cell miss) and bumps
        :attr:`CacheStats.errors` once.
        """
        chain = self._chain()
        if chain is None:
            self.cache.stats.errors += 1
            return []
        if chain:
            self.cache.stats.block_hits += len(chain)
            self.cache.stats.block_trials_reused += sum(
                stop - start for start, stop, _ in chain
            )
        return chain

    def peek(self, start: int, stop: int) -> Optional[list[dict[str, float]]]:
        """The per-trial dicts of block ``[start, stop)`` if present and valid."""
        path = self._block_path(start, stop)
        try:
            parsed = self._read_block(path)
        except FileNotFoundError:
            return None
        if parsed is None:
            self.cache.stats.errors += 1
            return None
        self.cache.stats.block_hits += 1
        self.cache.stats.block_trials_reused += stop - start
        return parsed[2]

    def append(
        self, start: int, stop: int, per_trial: Sequence[dict[str, float]]
    ) -> Optional[pathlib.Path]:
        """Persist block ``[start, stop)`` if it extends the chain; return path.

        A block that does not start exactly at the current chain coverage
        (or whose chain is invalid) is silently skipped — the caller keeps
        its in-memory trials either way, and skipping preserves the
        on-disk contiguity invariant instead of corrupting the stream.
        """
        if stop <= start or len(per_trial) != stop - start:
            raise InvalidParameterError(
                f"block [{start}, {stop}) needs exactly {stop - start} trials, "
                f"got {len(per_trial)}"
            )
        chain = self._chain()
        if chain is None:
            return None
        coverage = chain[-1][1] if chain else 0
        if start != coverage:
            return None
        path = self._block_path(start, stop)
        path.parent.mkdir(parents=True, exist_ok=True)
        block = {
            "stream_key": self.stream_key,
            "schema": CACHE_SCHEMA,
            "start": int(start),
            "stop": int(stop),
            "per_trial": list(per_trial),
            "welford": _block_welford_payload(per_trial),
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(block, handle, separators=(",", ":"), default=float)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.cache.stats.block_stores += 1
        return path

    def claim(self, start: int, stop: int) -> bool:
        """Grant the block claim unconditionally (no peers to race)."""
        return True

    def release(self, start: int, stop: int) -> None:
        """Release a block claim — a no-op without claim coordination."""

    def problems(self) -> list[tuple[pathlib.Path, str]]:
        """Integrity problems of this stream's blocks, for ``cache verify``.

        Per-file problems (unreadable, range/Welford mismatch) and chain
        problems (gap or overlap, reported on the offending file).
        """
        directory = self.directory
        if not directory.is_dir():
            return []
        out: list[tuple[pathlib.Path, str]] = []
        parsed_blocks: list[tuple[pathlib.Path, _Block]] = []
        for path in sorted(directory.glob("*.json")):
            try:
                parsed = self._read_block(path)
            except FileNotFoundError:
                continue  # pruned concurrently: nothing to verify
            if parsed is None:
                out.append((path, "unreadable or inconsistent trial block"))
            else:
                parsed_blocks.append((path, parsed))
        parsed_blocks.sort(key=lambda item: item[1][0])
        expected = 0
        for path, (start, stop, _) in parsed_blocks:
            if start > expected:
                out.append(
                    (path, f"gapped trial blocks: expected start {expected}, got {start}")
                )
            elif start < expected:
                out.append(
                    (
                        path,
                        f"overlapping trial blocks: expected start {expected}, "
                        f"got {start}",
                    )
                )
            expected = max(expected, stop)
        return out


def resolve_cache(
    cache_dir: Optional[str | os.PathLike[str]] = None, no_cache: bool = False
) -> Optional[CellCache]:
    """Build the cache the CLI (and scripts) should use, or ``None``.

    ``no_cache`` wins over everything; otherwise ``cache_dir`` (explicit
    argument or ``--cache-dir``) is used, falling back to
    :func:`default_cache_dir`.
    """
    if no_cache:
        return None
    return CellCache(cache_dir if cache_dir is not None else default_cache_dir())
