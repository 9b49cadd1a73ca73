"""NWS statistical forecasters (paper §2.1, step 4).

The real NWS maintains a battery of simple predictors (last value, running
mean, sliding-window means and medians, exponential smoothing, ...) and, for
every query, answers with the predictor that has accumulated the lowest
error on the series so far ("mixture-of-experts" selection).  This module
reproduces that design: each :class:`Forecaster` is a small online predictor,
and :class:`ForecasterBank` tracks the mean absolute error (MAE) of every
predictor on each series and answers with the current best.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Deque, Dict, List, Optional, Sequence

__all__ = [
    "Forecaster",
    "LastValueForecaster",
    "RunningMeanForecaster",
    "SlidingWindowMeanForecaster",
    "SlidingWindowMedianForecaster",
    "ExponentialSmoothingForecaster",
    "Forecast",
    "ForecasterBank",
    "default_forecasters",
]

_NAN = float("nan")


class Forecaster(ABC):
    """An online one-step-ahead predictor."""

    name: str = "forecaster"

    @abstractmethod
    def update(self, value: float) -> None:
        """Feed one observed value."""

    @abstractmethod
    def predict(self) -> Optional[float]:
        """Predict the next value (``None`` until enough data is available)."""

    def reset(self) -> None:
        """Forget all state (default: rebuild via __init__ arguments)."""
        raise NotImplementedError


class LastValueForecaster(Forecaster):
    """Predicts that the next value equals the last observed one."""

    name = "last_value"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> Optional[float]:
        return self._last

    def reset(self) -> None:
        self._last = None


class RunningMeanForecaster(Forecaster):
    """Predicts the mean of all observed values."""

    name = "running_mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._count += 1

    def predict(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._sum / self._count

    def reset(self) -> None:
        self._sum = 0.0
        self._count = 0


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum ``values`` in the order of numpy's float64 ``add.reduce``.

    That order (numpy's ``pairwise_sum``) is: sequential from ``-0.0``
    below 8 values; eight strided partial sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the remainder in turn, up
    to 128 values; above that, the two halves (the first one cut to a
    multiple of 8) summed apart and added.
    """
    n = len(values)
    if n < 8:
        total = -0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[end:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class SlidingWindowMeanForecaster(Forecaster):
    """Predicts the mean of the last ``window`` values.

    The prediction equals ``float(np.mean(window))`` bit for bit.  numpy
    sums a float64 array pairwise (see :func:`_pairwise_sum`) onto its
    ``+0.0`` identity and divides by the length.  That order is written out
    here in Python because on a 10-value window numpy's per-call overhead
    costs several times the sum itself; a running sum would be cheaper
    still, but it rounds differently.
    """

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"window_mean_{window}"
        self._values: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._values.append(value)

    def predict(self) -> Optional[float]:
        values = self._values
        if not values:
            return None
        # ``+ 0.0`` is numpy's identity: it turns a -0.0 sum into +0.0.
        return (_pairwise_sum(tuple(values)) + 0.0) / len(values)

    def reset(self) -> None:
        self._values.clear()


class SlidingWindowMedianForecaster(Forecaster):
    """Predicts the median of the last ``window`` values (robust to spikes).

    The prediction equals ``float(np.median(window))`` bit for bit: the
    middle value of the sorted window, or ``(lo + hi) / 2`` of the two
    middle values, each taken as numpy's mean of one or two values (so a
    -0.0 sum comes back as +0.0), and NaN whenever the window holds a NaN.
    The window's last NaN is remembered on update, so a prediction never
    scans for one.
    """

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"window_median_{window}"
        self._values: Deque[float] = deque(maxlen=window)
        self._seen = 0
        self._last_nan = -window

    def update(self, value: float) -> None:
        self._values.append(value)
        self._seen += 1
        if value != value:
            self._last_nan = self._seen

    def predict(self) -> Optional[float]:
        values = self._values
        n = len(values)
        if not n:
            return None
        if self._seen - self._last_nan < self.window:
            return _NAN
        ordered = sorted(values)
        half = n // 2
        if n % 2:
            return ordered[half] + 0.0
        return (ordered[half - 1] + ordered[half] + 0.0) / 2

    def reset(self) -> None:
        self._values.clear()
        self._seen = 0
        self._last_nan = -self.window


class ExponentialSmoothingForecaster(Forecaster):
    """Exponentially-weighted moving average predictor."""

    def __init__(self, alpha: float = 0.3):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.name = f"exp_smooth_{alpha:g}"
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.alpha * value + (1 - self.alpha) * self._state

    def predict(self) -> Optional[float]:
        return self._state

    def reset(self) -> None:
        self._state = None


def default_forecasters(window: int = 10, alpha: float = 0.3) -> List[Forecaster]:
    """The standard NWS-like predictor battery."""
    return [
        LastValueForecaster(),
        RunningMeanForecaster(),
        SlidingWindowMeanForecaster(window),
        SlidingWindowMedianForecaster(window),
        ExponentialSmoothingForecaster(alpha),
    ]


@dataclass(frozen=True)
class Forecast:
    """A prediction together with its provenance."""

    value: float
    method: str
    mae: float
    sample_count: int


class ForecasterBank:
    """Mixture-of-experts forecaster for one measurement series.

    Before each observation, every predictor's prediction is scored by its
    absolute error; the bank answers with the predictor of least mean
    absolute error so far.  Predictors that share a name share one error
    entry.  :meth:`update_many` is the replay loop: it binds each
    predictor's ``predict``/``update`` once and keeps the errors of the call
    in one list per name, added onto the running totals in the order they
    were made, so a replay in one call and one sample at a time agree to
    the bit.
    """

    def __init__(self, forecasters: Optional[Sequence[Forecaster]] = None,
                 window: int = 10, alpha: float = 0.3):
        self.forecasters = list(forecasters) if forecasters is not None else (
            default_forecasters(window=window, alpha=alpha))
        self._abs_error: Dict[str, float] = {f.name: 0.0 for f in self.forecasters}
        self._error_count: Dict[str, int] = {f.name: 0 for f in self.forecasters}
        self.sample_count = 0

    def update(self, value: float) -> None:
        """Feed one observation (see :meth:`update_many`)."""
        self.update_many((value,))

    def update_many(self, values: Sequence[float]) -> None:
        """Feed observations in order: before each one, score every
        predictor's prediction, then let it learn."""
        errors: Dict[str, List[float]] = {name: [] for name in self._abs_error}
        steps = [(f.predict, f.update, errors[f.name].append)
                 for f in self.forecasters]
        for value in values:
            for predict, learn, record in steps:
                prediction = predict()
                if prediction is not None:
                    record(abs(prediction - value))
                learn(value)
        for name, made in errors.items():
            self._abs_error[name] = reduce(add, made, self._abs_error[name])
            self._error_count[name] += len(made)
        self.sample_count += len(values)

    def mae(self, name: str) -> float:
        count = self._error_count.get(name, 0)
        if count == 0:
            return float("inf")
        return self._abs_error[name] / count

    def best_method(self) -> Optional[str]:
        """The predictor with the lowest MAE so far (ties: first declared)."""
        best_name: Optional[str] = None
        best_mae = float("inf")
        for forecaster in self.forecasters:
            mae = self.mae(forecaster.name)
            if mae < best_mae:
                best_mae = mae
                best_name = forecaster.name
        if best_name is None and self.sample_count > 0:
            best_name = self.forecasters[0].name
        return best_name

    def forecast(self) -> Optional[Forecast]:
        """Predict the next value using the best predictor so far."""
        if self.sample_count == 0:
            return None
        name = self.best_method()
        if name is None:
            return None
        forecaster = next(f for f in self.forecasters if f.name == name)
        prediction = forecaster.predict()
        if prediction is None:
            return None
        mae = self.mae(name)
        return Forecast(value=prediction, method=name,
                        mae=0.0 if mae == float("inf") else mae,
                        sample_count=self.sample_count)
