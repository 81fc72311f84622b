"""DoMD query answering (Problem 1) and per-avail explanations.

:class:`DomdEstimator` is the deployable surface of the framework: fit it
on a dataset (optionally restricted to a training population), then ask
for delay estimates of any avail at any physical date or logical time.
A query at logical time ``t*`` returns the per-window estimates
``d_hat(0), d_hat(x), ..., d_hat(t*)`` plus the fused estimate at each
step — exactly the output shape Problem 1 specifies.

For interpretability (a hard requirement of the Navy deployment), the
estimator surfaces the top-k contributing features of any estimate via
the base model's additive per-sample attributions.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core import fusion
from repro.core.config import PipelineConfig, paper_final_config
from repro.core.timeline import LogicalTimeline
from repro.core.timeline_models import TimelineModelSet
from repro.data.schema import LiveSnapshot, NavyMaintenanceDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.features.static import static_features_for, static_vocab
from repro.features.transform import StatusFeatureExtractor, tensor_cache_key
from repro.ml.metrics import metric_suite
from repro.runtime import ExecutionContext, check_deadline, ensure_context


@dataclass(frozen=True)
class DomdEstimate:
    """DoMD query answer for one avail."""

    avail_id: int
    t_star: float
    window_t_stars: np.ndarray  # boundaries 0, x, ..., <= t*
    window_estimates: np.ndarray  # raw per-window model outputs
    fused_estimates: np.ndarray  # progressively fused estimates
    current_estimate: float  # fused estimate at the last window

    def as_dict(self) -> dict:
        return {
            "avail_id": self.avail_id,
            "t_star": self.t_star,
            "windows": [float(t) for t in self.window_t_stars],
            "estimates": [float(v) for v in self.window_estimates],
            "fused": [float(v) for v in self.fused_estimates],
            "current": self.current_estimate,
        }


@dataclass(frozen=True)
class FeatureContribution:
    """One feature's additive contribution to an estimate."""

    name: str
    contribution: float
    value: float


@dataclass
class DomdEstimator:
    """Fit-once, query-anytime DoMD estimation service."""

    config: PipelineConfig = field(default_factory=paper_final_config)
    context: ExecutionContext | None = None

    def __post_init__(self) -> None:
        self.timeline = LogicalTimeline(self.config.window_pct)
        self.context = ensure_context(
            self.context, seed=self.config.seed, config=self.config
        )
        self._model_set: TimelineModelSet | None = None
        self._tensor = None
        self._X_static = None
        self._avail_ids: np.ndarray | None = None
        #: The snapshot served; a live estimator (:meth:`advance`) holds
        #: only its avail side.
        self._dataset: NavyMaintenanceDataset | LiveSnapshot | None = None
        self._static_vocab: dict[str, dict[str, int]] | None = None
        self._features_pending = False
        self._bind_lock = threading.Lock()
        self._provenance: dict[str, str] | None = None
        #: The bound tensor's artifact-cache key, kept from its extraction.
        self._feature_key: str | None = None
        #: ``(boot feature key, watermark)`` once :meth:`advance` made
        #: this a live estimator.
        self._live_key: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # feature binding (eager after fit(); lazy after serve())
    # ------------------------------------------------------------------
    @property
    def _tensor(self):
        if self._tensor_data is None and self._features_pending:
            self._materialize_features()
        return self._tensor_data

    @_tensor.setter
    def _tensor(self, value) -> None:
        self._tensor_data = value

    @property
    def _X_static(self):
        if self._X_static_data is None and self._features_pending:
            self._materialize_features()
        return self._X_static_data

    @_X_static.setter
    def _X_static(self, value) -> None:
        self._X_static_data = value

    def _materialize_features(self) -> None:
        """Extract features for the bound dataset (the lazy serve path).

        Runs inside whatever span/trace is currently open — a service
        request that first touches a freshly served snapshot therefore
        carries the extraction and Status Query spans in its own trace.

        Double-checked under ``_bind_lock`` so that concurrent first
        queries against a freshly served estimator bind exactly once;
        ``_features_pending`` is cleared *last* — after every feature
        attribute is assigned — so an unlocked reader never observes a
        half-bound estimator.  The extraction itself is additionally
        de-duplicated across estimators by the shared artifact cache's
        single-flight :meth:`~repro.runtime.cache.ArtifactCache.get_or_build`.
        """
        with self._bind_lock:
            if not self._features_pending:
                return
            assert self._dataset is not None and self.context is not None
            self._tensor_data = self._extract_features()
            X_static, self._static_names, self._avail_ids = static_features_for(
                self._dataset, vocab=self._static_vocab
            )
            self._X_static_data = X_static
            self._features_pending = False

    def _extract_features(self):
        """The bound dataset's feature tensor; keeps its cache key."""
        extractor = StatusFeatureExtractor(
            self._dataset, self.timeline.t_stars, context=self.context
        )
        tensor = extractor.extract()
        self._feature_key = "/".join(extractor.cache_key())
        return tensor

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: NavyMaintenanceDataset,
        train_ids: np.ndarray | None = None,
    ) -> "DomdEstimator":
        """Extract features for the whole dataset and fit window models.

        Parameters
        ----------
        dataset:
            NMD snapshot; features are computed for *every* avail so any
            of them can be queried afterwards.
        train_ids:
            Avail ids used for model fitting (default: all closed
            avails).  Ongoing avails can never be trained on (no label).
        """
        assert self.context is not None
        self._dataset = dataset
        self._tensor = self._extract_features()
        self._static_vocab = static_vocab(dataset.avails)
        X_static, self._static_names, static_ids = static_features_for(
            dataset, vocab=self._static_vocab
        )
        self._X_static = X_static
        self._avail_ids = static_ids

        closed = dataset.closed_avails()
        closed_ids = set(int(a) for a in closed["avail_id"])
        if train_ids is None:
            train_ids = np.array(sorted(closed_ids), dtype=np.int64)
        else:
            train_ids = np.asarray(train_ids, dtype=np.int64)
            not_closed = [int(a) for a in train_ids if int(a) not in closed_ids]
            if not_closed:
                raise ConfigurationError(
                    f"cannot train on ongoing/unknown avails: {not_closed[:5]}"
                )
        delay_by_id = {
            int(a): float(d)
            for a, d in zip(dataset.avails["avail_id"], dataset.avails["delay"])
        }
        rows = self._tensor.rows_for(train_ids)
        y = np.array([delay_by_id[int(a)] for a in train_ids])
        with self.context.span("fit"):
            self._model_set = TimelineModelSet(
                config=self.config,
                dyn_feature_names=list(self._tensor.feature_names),
                static_feature_names=self._static_names,
                context=self.context,
            ).fit(X_static[rows], self._tensor.values[rows], y)
        return self

    def _check_fitted(self) -> None:
        if self._model_set is None:
            raise NotFittedError("DomdEstimator is not fitted")

    def provenance(self) -> dict[str, str]:
        """Content hashes pinning exactly what this estimator serves from.

        * ``model_hash`` — fingerprint of the fitted model set's
          persistence payload (what :func:`~repro.persistence.save_estimator`
          would write), cached on the *shared* model-set object so
          rebound serve-path estimators reuse it.
        * ``config_hash`` — fingerprint of the pipeline configuration.
        * ``feature_key`` — the feature tensor's artifact-cache key
          (dataset fingerprint + grid/timeline fingerprint), i.e. the
          data vintage the features were extracted from.  A live
          estimator (:meth:`advance`) stamps ``<key>@<watermark>``
          instead: the key of the snapshot the live chain booted from
          plus the WAL watermark it reflects, so no snapshot is hashed
          per batch and a restart replaying the same WAL reproduces it.

        Memoised per instance: :meth:`serve` returns a fresh estimator,
        so a dataset rebind naturally invalidates ``feature_key``.
        """
        if self._provenance is not None:
            return self._provenance
        self._check_fitted()
        assert self._model_set is not None and self._dataset is not None
        # Lazy import: persistence imports this module.
        from repro.persistence import (
            _config_to_payload,
            model_hash as payload_hash,
            model_set_to_payload,
        )
        from repro.runtime.cache import fingerprint_of

        model_hash = getattr(self._model_set, "_content_hash", None)
        if model_hash is None:
            model_hash = payload_hash(model_set_to_payload(self._model_set))
            self._model_set._content_hash = model_hash
        config_hash = fingerprint_of(
            json.dumps(_config_to_payload(self.config), sort_keys=True)
        )
        if self._live_key is not None:
            boot_key, watermark = self._live_key
            feature_key = f"{boot_key}@{watermark}"
        elif self._feature_key is not None:
            feature_key = self._feature_key
        else:
            feature_key = "/".join(
                tensor_cache_key(self._dataset, self.timeline.t_stars)
            )
        self._provenance = {
            "model_hash": model_hash,
            "config_hash": config_hash,
            "feature_key": feature_key,
        }
        return self._provenance

    def serve(self, dataset: NavyMaintenanceDataset) -> "DomdEstimator":
        """Bind the fitted models to a *new* dataset snapshot.

        Returns a fresh estimator sharing this one's fitted window models
        (no retraining) with features re-extracted from ``dataset`` —
        the nightly-refresh path of the deployed engine, and the basis of
        counterfactual what-if queries on modified snapshots.

        The binding is **lazy**: extraction is deferred to the first
        query against the served estimator (and memoised by the shared
        artifact cache), so rebinding is instantaneous and the first
        request's trace records the extraction cost where it is paid.
        """
        self._check_fitted()
        served = DomdEstimator(self.config, context=self.context)
        served._dataset = dataset
        served._model_set = self._model_set
        # The fit-time categorical vocabulary travels with the models so
        # a rebind (or a shard slice) encodes exactly like the fit set.
        served._static_vocab = self._static_vocab
        served._features_pending = True
        return served

    def advance(
        self, live: LiveSnapshot, changed: NavyMaintenanceDataset
    ) -> "DomdEstimator":
        """Bind the fitted models to the live snapshot ``live``.

        The live counterpart of :meth:`serve`.  ``changed`` is the
        sub-snapshot, at ``live.watermark``, of the avails whose state
        moved since this estimator's snapshot.  The extractor's sweep
        runs on it alone, and the new estimator's feature tensor takes
        those avails' rows from it while sharing every other row with
        this estimator's; neither estimator's arrays are written.
        Feature rows depend only on their own avail, so the result is
        bitwise equal to a whole-snapshot extraction, with no snapshot
        fingerprint and no artifact-cache traffic.

        An estimator whose features are still unbound binds its own
        snapshot first, so a live estimator is never lazy and the live
        path never reads a whole RCC table.
        """
        if self._features_pending:
            self._materialize_features()
        boot_key = (
            self._live_key[0]
            if self._live_key is not None
            else self.provenance()["feature_key"]
        )
        served = self.serve(live)
        served._live_key = (boot_key, int(live.watermark))
        served._splice_features(self, changed)
        return served

    def _splice_features(
        self, previous: "DomdEstimator", changed: NavyMaintenanceDataset
    ) -> None:
        """Bind ``previous``'s features with ``changed``'s avails re-extracted."""
        assert self._dataset is not None and self.context is not None
        tensor, X_static = previous._tensor_data, previous._X_static_data
        if changed.n_avails:
            part = StatusFeatureExtractor(
                changed, self.timeline.t_stars, context=self.context
            ).sweep()
            # Fit-time vocabulary, or the one a whole-snapshot encoding
            # would derive (old artefacts carry none).
            vocab = self._static_vocab or static_vocab(self._dataset.avails)
            X_part, _, _ = static_features_for(changed, vocab=vocab)
            tensor = tensor.with_rows(part)
            X_static = X_static.copy()
            X_static[tensor.rows_for(part.avail_ids)] = X_part
        self._tensor_data = tensor
        self._X_static_data = X_static
        self._static_names = previous._static_names
        self._avail_ids = previous._avail_ids
        self._features_pending = False

    # ------------------------------------------------------------------
    def logical_time_of(self, avail_id: int, physical_day: float) -> float:
        """Convert a physical day to an avail's logical time."""
        self._check_fitted()
        assert self._dataset is not None
        avail = self._dataset.avail(int(avail_id))
        return avail.logical_time_of(physical_day)

    def query(
        self,
        avail_ids: np.ndarray | list[int],
        t_star: float | None = None,
        physical_day: float | None = None,
    ) -> list[DomdEstimate]:
        """Answer a DoMD query (Problem 1).

        Exactly one of ``t_star`` (shared logical time) or
        ``physical_day`` (converted per avail) must be given.

        The avails are answered together: each window model predicts
        once, over every avail whose current window reaches it, and the
        avails with the same window count are fused together.  Each
        avail's answer is bitwise equal to querying it alone.
        """
        self._check_fitted()
        assert self._model_set is not None and self.context is not None
        if (t_star is None) == (physical_day is None):
            raise ConfigurationError("provide exactly one of t_star / physical_day")
        self.context.counter("estimator.queries")
        self.context.counter("estimator.queried_avails", len(avail_ids))
        with self.context.span("query"):
            ids = [int(a) for a in avail_ids]
            t_stars = []
            for avail_id in ids:
                avail_t = (
                    float(t_star)
                    if t_star is not None
                    else self.logical_time_of(avail_id, float(physical_day))
                )
                if avail_t < 0:
                    raise ConfigurationError(
                        f"avail {avail_id}: queried before its actual start (t*={avail_t:.1f})"
                    )
                t_stars.append(avail_t)
            last = np.array(
                [self.timeline.window_index(t) for t in t_stars], dtype=np.int64
            )
            rows = self._tensor.rows_for(ids)
            with self.context.span("predict"):
                # Cooperative cancellation: a pooled request checks its
                # deadline once per window model.
                raw = self._model_set.predict_upto(
                    self._X_static[rows],
                    self._tensor.gather(rows),
                    last,
                    checkpoint="estimator.query",
                )
            with self.context.span("fuse"):
                fused = fusion.fuse_upto(raw, last, self.config.fusion)
            telemetry = self.context.metrics.telemetry
            estimates = []
            for i, avail_id in enumerate(ids):
                window = int(last[i])
                current = float(fused[i, window])
                if telemetry is not None:
                    # Live prediction-distribution drift per logical
                    # window: a shift here flags feature/population drift
                    # even before any ground-truth delay is known.
                    telemetry.drift_observe("prediction", window, current)
                estimates.append(
                    DomdEstimate(
                        avail_id=avail_id,
                        t_star=t_stars[i],
                        window_t_stars=self.timeline.t_stars[: window + 1].copy(),
                        window_estimates=raw[i, : window + 1].copy(),
                        fused_estimates=fused[i, : window + 1].copy(),
                        current_estimate=current,
                    )
                )
        return estimates

    # ------------------------------------------------------------------
    def explain(
        self, avail_id: int, t_star: float, top: int = 5
    ) -> list[FeatureContribution]:
        """Top contributing features for one avail's estimate at ``t*``.

        Contributions come from the window model at ``t*``'s boundary
        (additive Saabas attributions for GBM, centered linear terms for
        Elastic-Net); the bias term is excluded from the ranking.
        """
        self._check_fitted()
        assert self._model_set is not None and self._tensor is not None
        assert self._X_static is not None
        if top < 1:
            raise ConfigurationError(f"top must be >= 1, got {top}")
        row = self._tensor.rows_for(np.array([int(avail_id)]))
        window_index = self.timeline.window_index(t_star)
        X_static = self._X_static[row]
        X_dyn = self._tensor.gather(row)[:, window_index, :]
        base_pred = self._model_set.base_predict(X_static)
        contributions, names = self._model_set.contributions_at(
            X_static, X_dyn, window_index, base_pred=base_pred
        )
        window = self._model_set.windows[window_index]
        design = self._model_set._design(X_static, X_dyn, window.selected, base_pred)
        per_feature = contributions[0, :-1]
        order = np.argsort(np.abs(per_feature))[::-1][:top]
        return [
            FeatureContribution(
                name=names[i],
                contribution=float(per_feature[i]),
                value=float(design[0, i]),
            )
            for i in order
        ]

    # ------------------------------------------------------------------
    def evaluate(self, avail_ids: np.ndarray) -> dict[str, dict[str, float]]:
        """Table-7-style metrics of the fused estimate on closed avails.

        Returns ``{"t=<boundary>": suite, ..., "average": suite}``.
        """
        self._check_fitted()
        assert self._dataset is not None and self._tensor is not None
        assert self._X_static is not None and self._model_set is not None
        avail_ids = np.asarray(avail_ids, dtype=np.int64)
        delay_by_id = {
            int(a): float(d)
            for a, d in zip(
                self._dataset.avails["avail_id"], self._dataset.avails["delay"]
            )
        }
        y = np.array([delay_by_id[int(a)] for a in avail_ids])
        if np.any(np.isnan(y)):
            raise ConfigurationError("evaluate() requires closed avails only")
        rows = self._tensor.rows_for(avail_ids)
        assert self.context is not None
        check_deadline("estimator.evaluate")
        with self.context.span("evaluate"):
            fused = self._model_set.predict_fused(
                self._X_static[rows], self._tensor.gather(rows)
            )
        telemetry = self.context.metrics.telemetry
        out: dict[str, dict[str, float]] = {}
        for ti, boundary in enumerate(self.timeline.t_stars):
            out[f"t={boundary:g}"] = metric_suite(y, fused[:, ti])
            if telemetry is not None:
                # Residual drift per logical window (Problem 2 models):
                # the first evaluation freezes the baseline; later ones
                # are checked against it and flagged on a mean shift.
                telemetry.drift_observe_many("residual", ti, y - fused[:, ti])
        keys = next(iter(out.values())).keys()
        out["average"] = {
            key: float(np.mean([suite[key] for suite in out.values()])) for key in keys
        }
        return out
