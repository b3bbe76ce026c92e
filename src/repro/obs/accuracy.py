"""Online accuracy monitoring through the exact oracles.

The paper proves each maintained histogram stays within ``(1 + eps)`` of
the optimal synopsis of the current window (Theorem 1), and
:mod:`repro.verify.oracles` states that guarantee, and every other
backend's, once.  :class:`AccuracyMonitor` checks it while the stream
runs: the worker feeds the backend's oracle
(:func:`~repro.verify.oracles.oracle_for`, built from the stream's own
backend parameters, so the bound is the backend's own epsilon) every
point it ingests, and on a cadence runs the oracle's ``check`` against
the live maintainer -- the audit
:class:`~repro.verify.differential.DifferentialChecker` runs offline.

The oracle's violations are the only verdict, and they count only when
the check is *exact*: when the oracle holds every point the guarantee
covers (:attr:`~repro.verify.oracles.Oracle.exact`).  A window oracle
keeps the last window, and after a restore it is exact once a full
window has arrived; a frequency oracle (``cr_precis``,
``dynamic_wavelet``) keeps only its exact table; a whole-stream oracle
(``agglomerative``, ``gk_quantiles``, ``equi_depth``, ``reservoir``)
keeps the whole stream, so the monitor drops it once the stream
outgrows ``window_size``.  A check that is not exact is *unverified*:
counted as such, never as a pass or a violation.

Every check lands in a bounded report log and, when a registry is
attached, in ``repro_accuracy_checks_total`` /
``repro_accuracy_violations_total`` / ``repro_accuracy_unverified_total``,
and -- for the backends whose guarantee is an epsilon bound -- in
``repro_observed_epsilon``.  Points shed by admission control never
reach the stream; QoS alone accounts for them
(:mod:`repro.service.qos`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .metrics import MetricsRegistry

__all__ = ["OPTIONS", "AccuracyMonitor", "AccuracyReport"]

#: The keys a stream's ``accuracy`` config may carry.
OPTIONS = ("window_size", "check_every", "max_reports")

OBSERVED_EPSILON_METRIC = "repro_observed_epsilon"
CHECKS_METRIC = "repro_accuracy_checks_total"
VIOLATIONS_METRIC = "repro_accuracy_violations_total"
UNVERIFIED_METRIC = "repro_accuracy_unverified_total"


@dataclass(frozen=True)
class AccuracyReport:
    """Outcome of one accuracy check.

    ``violations`` names the oracle checks that failed and
    ``observed_epsilon`` is the epsilon the oracle measured (None for a
    backend whose guarantee is not an epsilon bound).  Both are empty
    when the check was not ``exact``, and then ``within_bound`` is None.
    """

    arrivals: int
    exact: bool
    violations: tuple[str, ...] = ()
    observed_epsilon: float | None = None

    @property
    def within_bound(self) -> bool | None:
        return not self.violations if self.exact else None

    def to_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "exact": self.exact,
            "violations": list(self.violations),
            "observed_epsilon": self.observed_epsilon,
            "within_bound": self.within_bound,
        }


class AccuracyMonitor:
    """Audit a live maintainer through its backend's oracle on a cadence.

    Parameters
    ----------
    backend / params:
        The stream's registry backend and parameters; they pick and
        build the oracle (and with it the bound).
    window_size:
        The most points a whole-stream oracle keeps before the monitor
        drops it (default 1,024).  A window backend's oracle keeps the
        synopsis window, and any other ``window_size`` is a
        ``ValueError``.
    check_every:
        Minimum ingested points between checks.
    max_reports:
        Bound on the retained report log.
    start:
        The stream position the monitor is attached at (non-zero after
        a restore or a supervisor restart).

    The monitor is driven from the owning worker thread (``extend``
    then ``maybe_check``, under the worker's state lock); readers take
    snapshots through ``reports()`` / ``latest()`` / ``to_dict()``.
    """

    def __init__(
        self,
        backend: str,
        params: dict,
        *,
        window_size: int | None = None,
        check_every: int = 512,
        max_reports: int = 256,
        start: int = 0,
        registry: MetricsRegistry | None = None,
        stream: str = "",
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if max_reports < 1:
            raise ValueError("max_reports must be >= 1")
        if window_size is not None and window_size < 1:
            raise ValueError("window_size must be >= 1")
        # Imported here: a service with no monitored stream never loads
        # the verification package.
        from ..verify.oracles import oracle_for

        try:
            oracle = oracle_for(backend, {**params, "monotonicity": False})
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        if oracle.retain and window_size not in (None, oracle.retain):
            raise ValueError(
                f"accuracy window_size {window_size} must equal the {backend} "
                f"synopsis window ({oracle.retain}); leave it out to use "
                "the synopsis window"
            )
        self.window_size = oracle.retain or window_size or 1024
        self.check_every = int(check_every)
        oracle.start = int(start)
        # A whole-stream or frequency oracle attached mid-stream can never
        # hold the points its guarantee covers.
        self._oracle = oracle if oracle.retain or not start else None
        self._last_checked = int(start)
        self._observed: float | None = None
        self._reports: deque[AccuracyReport] = deque(maxlen=max_reports)
        self._registry = registry if registry is not None else MetricsRegistry()
        self._stream = stream
        self._checks = self._registry.counter(CHECKS_METRIC, stream=stream)
        self._violations = self._registry.counter(VIOLATIONS_METRIC, stream=stream)
        self._unverified = self._registry.counter(UNVERIFIED_METRIC, stream=stream)

    # ------------------------------------------------------------------
    # Worker-thread side
    # ------------------------------------------------------------------

    def extend(self, batch) -> None:
        """Feed ingested points to the oracle."""
        oracle = self._oracle
        if oracle is None:
            return
        if oracle.retain is None and oracle.count + len(batch) > self.window_size:
            self._oracle = None
        else:
            oracle.extend(batch)

    def maybe_check(self, arrivals: int, maintainer) -> AccuracyReport | None:
        """Run a check when the cadence is due (returns the report, if any)."""
        if arrivals - self._last_checked < self.check_every:
            return None
        return self.check(arrivals, maintainer)

    def check(self, arrivals: int, maintainer) -> AccuracyReport:
        """Audit ``maintainer`` now; it must not change it."""
        self._last_checked = arrivals
        oracle = self._oracle
        if oracle is None or not oracle.exact:
            report = AccuracyReport(arrivals, exact=False)
            self._unverified.inc()
        else:
            violations = oracle.check(maintainer)
            observed = oracle.observed_epsilon
            report = AccuracyReport(
                arrivals,
                exact=True,
                violations=tuple(violation.check for violation in violations),
                observed_epsilon=None if observed is None else float(observed),
            )
            if violations:
                self._violations.inc()
            if observed is not None:
                self._observed = report.observed_epsilon
                self._registry.gauge(
                    OBSERVED_EPSILON_METRIC, stream=self._stream
                ).set(self._observed)
        self._checks.inc()
        self._reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def reports(self) -> list[AccuracyReport]:
        """Retained reports, oldest first."""
        return list(self._reports)

    def latest(self) -> AccuracyReport | None:
        reports = self.reports()
        return reports[-1] if reports else None

    def to_dict(self) -> dict:
        """JSON-friendly summary (reported inside worker stats)."""
        oracle = self._oracle
        return {
            "check_every": self.check_every,
            "window_points": oracle.held if oracle is not None else 0,
            "checks": int(self._checks.value),
            "unverified": int(self._unverified.value),
            "violations": int(self._violations.value),
            "observed_epsilon": self._observed,
        }
