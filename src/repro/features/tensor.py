"""The avail x logical-time x feature tensor (Task 1 of the paper).

"Across the entire avail set, the resulting features can be thought of
as a tensor across the avail, feature set, and logical time dimensions.
Each model is trained on a slice of that tensor generated at discrete
logical times t*."
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigurationError


@functools.lru_cache(maxsize=8)
def _positions_of(names: tuple[str, ...]) -> dict[str, int]:
    """Name -> axis position, built once per distinct feature axis."""
    return {name: i for i, name in enumerate(names)}


class FeatureTensor:
    """Feature tensor with labelled axes, stored as one block per avail.

    Row ``i`` is a ``(n_timestamps, n_features)`` float64 block holding
    avail ``avail_ids[i]``'s features.  A tensor's blocks are never
    written after construction, so :meth:`with_rows` can derive a new
    tensor that replaces a few blocks and shares every other one — and
    every axis label — with this one.  Readers take rows through
    :meth:`gather`; :attr:`values` is the dense view model fitting uses.

    Parameters
    ----------
    values:
        float64 array of shape ``(n_avails, n_timestamps, n_features)``.
    avail_ids:
        Avail ids along axis 0.
    t_stars:
        Logical timestamps along axis 1 (ascending).
    feature_names:
        Feature names along axis 2.
    """

    def __init__(
        self,
        values: np.ndarray,
        avail_ids: np.ndarray,
        t_stars: np.ndarray,
        feature_names: list[str],
    ):
        values = np.asarray(values, dtype=np.float64)
        self.avail_ids = np.asarray(avail_ids, dtype=np.int64)
        self.t_stars = np.asarray(t_stars, dtype=np.float64)
        self.feature_names = feature_names
        expected = (len(self.avail_ids), len(self.t_stars), len(feature_names))
        if values.shape != expected:
            raise ConfigurationError(
                f"tensor shape {values.shape} != labelled axes {expected}"
            )
        self._rows: tuple[np.ndarray, ...] = tuple(values)
        self._dense: np.ndarray | None = values
        self._avail_pos = {int(a): i for i, a in enumerate(self.avail_ids)}
        self._t_pos = {float(t): i for i, t in enumerate(self.t_stars)}

    # ------------------------------------------------------------------
    @property
    def n_avails(self) -> int:
        return len(self.avail_ids)

    @property
    def n_timestamps(self) -> int:
        return len(self.t_stars)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def values(self) -> np.ndarray:
        """The dense ``(n_avails, n_timestamps, n_features)`` array.

        The array the tensor was built from; a tensor derived by
        :meth:`with_rows` stacks its blocks on first use.
        """
        if self._dense is None:
            self._dense = self.gather(np.arange(self.n_avails))
        return self._dense

    # ------------------------------------------------------------------
    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The blocks at axis-0 positions ``rows``, stacked in order."""
        if not len(rows):
            return np.empty((0, self.n_timestamps, self.n_features))
        return np.stack([self._rows[int(row)] for row in rows])

    def with_rows(self, part: "FeatureTensor") -> "FeatureTensor":
        """This tensor with ``part``'s avails' blocks taken from ``part``.

        Every other block, and the axis labels, are shared with this
        tensor; neither tensor's arrays are written.
        """
        if part.feature_names != self.feature_names or not np.array_equal(
            part.t_stars, self.t_stars
        ):
            raise ConfigurationError("replacement rows have different axes")
        rows = list(self._rows)
        for row, block in zip(self.rows_for(part.avail_ids), part._rows):
            rows[row] = block
        derived = object.__new__(FeatureTensor)
        derived.__dict__.update(self.__dict__)
        derived._rows = tuple(rows)
        derived._dense = None
        return derived

    # ------------------------------------------------------------------
    def t_index(self, t_star: float) -> int:
        """Axis-1 index of a logical timestamp."""
        key = float(t_star)
        if key not in self._t_pos:
            raise ConfigurationError(
                f"t*={t_star} not in tensor timeline {list(self.t_stars)}"
            )
        return self._t_pos[key]

    def at(self, t_star: float) -> np.ndarray:
        """Feature matrix slice (n_avails, n_features) at one timestamp."""
        return self.values[:, self.t_index(t_star), :]

    def matrix(self, t_star: float, avail_ids: np.ndarray | None = None) -> np.ndarray:
        """Slice at ``t_star``, optionally restricted/ordered by avail ids."""
        slice_ = self.at(t_star)
        if avail_ids is None:
            return slice_
        rows = self.rows_for(avail_ids)
        return slice_[rows]

    def rows_for(self, avail_ids: np.ndarray) -> np.ndarray:
        """Axis-0 positions of the given avail ids (order-preserving)."""
        try:
            return np.array([self._avail_pos[int(a)] for a in avail_ids], dtype=np.int64)
        except KeyError as exc:
            raise ConfigurationError(f"avail id {exc.args[0]} not in tensor") from None

    def feature_index(self, name: str) -> int:
        """Axis-2 index of a named feature."""
        position = _positions_of(tuple(self.feature_names)).get(name)
        if position is None:
            raise ConfigurationError(f"feature {name!r} not in tensor")
        return position

    def select_features(self, indices: np.ndarray) -> "FeatureTensor":
        """Sub-tensor restricted to the given feature indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return FeatureTensor(
            values=self.values[:, :, indices],
            avail_ids=self.avail_ids,
            t_stars=self.t_stars,
            feature_names=[self.feature_names[i] for i in indices],
        )

    def for_avails(self, avail_ids: np.ndarray) -> "FeatureTensor":
        """Sub-tensor restricted to the given avails (in the given order)."""
        rows = self.rows_for(avail_ids)
        return FeatureTensor(
            values=self.values[rows],
            avail_ids=np.asarray(avail_ids, dtype=np.int64),
            t_stars=self.t_stars,
            feature_names=list(self.feature_names),
        )

    def nbytes(self) -> int:
        """Memory footprint of the tensor's blocks."""
        return self.n_avails * self.n_timestamps * self.n_features * 8
