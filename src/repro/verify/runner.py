"""Certification sweeps: backends x profiles x (eps, B, window) grids.

:func:`certify` runs a :class:`~repro.verify.differential.
DifferentialChecker` for every case in a grid and collects the outcomes
into a :class:`CertificationReport` -- a JSON-serializable record of
which backend configurations are certified correct against their exact
oracles, which is the gate every future scaling or performance PR runs
before it may touch a hot path.

``python -m repro.verify`` (see :mod:`repro.verify.__main__`) is the CLI
face of this module; :meth:`StreamService.certify` reuses the same
machinery to shadow-verify a live stream's configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..runtime.registry import available_maintainers
from .differential import DifferentialChecker, DifferentialResult
from .fuzzer import PROFILES, SIGNED_PROFILES

__all__ = [
    "CertificationCase",
    "CertificationReport",
    "certify",
    "compatible_profiles",
    "default_grid",
    "GRID_BACKENDS",
]

#: Baseline constructor parameters per backend, mirrored from the test
#: suite's canonical sweep configuration (kept small so the exact DP
#: oracles stay fast).
GRID_BACKENDS: dict[str, dict] = {
    "fixed_window": dict(window_size=64, num_buckets=8, epsilon=0.25),
    "agglomerative": dict(num_buckets=8, epsilon=0.25),
    "wavelet": dict(window_size=64, budget=8),
    "dynamic_wavelet": dict(domain_size=128, budget=8),
    "gk_quantiles": dict(epsilon=0.05),
    "equi_depth": dict(num_buckets=8, epsilon=0.05),
    "reservoir": dict(capacity=32),
    "exact": dict(window_size=64),
    "eh_count": dict(window=64, epsilon=0.25),
    "cr_precis": dict(rows=5, base=23, domain=131072),
}

#: Backends that ingest the signed turnstile encoding; every other
#: backend is insert-only and cannot consume :data:`SIGNED_PROFILES`.
TURNSTILE_BACKENDS = frozenset({"cr_precis"})

#: Extra quick-gate profiles per backend, on top of the shared pair:
#: the new scenario classes each get their dedicated adversarial
#: profile in the CI gate (window expiry; deletions).
_QUICK_EXTRA_PROFILES: dict[str, tuple[str, ...]] = {
    "eh_count": ("expiry",),
    "cr_precis": ("turnstile",),
}


def compatible_profiles(backend: str) -> tuple[str, ...]:
    """The fuzz profiles ``backend`` can ingest.

    Signed profiles (turnstile deletions) only apply to turnstile
    backends; everything else takes every non-signed profile.
    """
    if backend in TURNSTILE_BACKENDS:
        return PROFILES
    return tuple(p for p in PROFILES if p not in SIGNED_PROFILES)

#: (epsilon, num_buckets, window_size) variations for the approximation
#: backends in the full sweep.
_FULL_VARIANTS: dict[str, list[dict]] = {
    "fixed_window": [
        dict(window_size=64, num_buckets=8, epsilon=0.25),
        dict(window_size=128, num_buckets=4, epsilon=0.1),
        # Several row blocks per level: their edges meet the exact DP.
        dict(window_size=256, num_buckets=8, epsilon=0.1),
        # Large enough for pruning on most profiles: sparse endpoints and
        # band rectangles meet the exact DP.
        dict(window_size=512, num_buckets=8, epsilon=0.1),
    ],
    "agglomerative": [
        dict(num_buckets=8, epsilon=0.25),
        dict(num_buckets=4, epsilon=0.1),
    ],
    "wavelet": [
        dict(window_size=64, budget=8),
        dict(window_size=128, budget=16),
    ],
    "gk_quantiles": [
        dict(epsilon=0.05),
        dict(epsilon=0.01),
    ],
}


@dataclass(frozen=True)
class CertificationCase:
    """One cell of the certification grid."""

    backend: str
    profile: str
    params: dict
    points: int = 768
    seed: int = 0

    def label(self) -> str:
        return f"{self.backend}/{self.profile}"


@dataclass
class CertificationReport:
    """Aggregated outcome of a certification sweep."""

    results: list[DifferentialResult] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def violations(self) -> int:
        return sum(len(result.violations) for result in self.results)

    def backends(self) -> list[str]:
        return sorted({result.backend for result in self.results})

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "cases": len(self.results),
            "violations": self.violations,
            "backends": self.backends(),
            "duration_seconds": self.duration_seconds,
            "results": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        """Human-readable summary, one line per case."""
        lines = []
        width = max(
            (len(f"{r.backend}/{r.profile}") for r in self.results), default=10
        )
        for result in self.results:
            status = "ok" if result.passed else "FAIL"
            lines.append(
                f"{result.backend + '/' + result.profile:<{width}}  "
                f"{result.points:>6} pts  {result.checks:>3} checks  {status}"
            )
            for violation in result.violations:
                lines.append(f"    {violation}")
        verdict = "CERTIFIED" if self.passed else "VIOLATIONS FOUND"
        lines.append(
            f"{verdict}: {len(self.results)} cases, "
            f"{self.violations} violations, {self.duration_seconds:.1f}s"
        )
        return "\n".join(lines)


def default_grid(
    *,
    quick: bool = False,
    backends: list[str] | None = None,
    profiles: list[str] | None = None,
    points: int | None = None,
    seed: int = 0,
) -> list[CertificationCase]:
    """The standard certification grid.

    ``quick`` runs every backend's baseline configuration over two
    complementary profiles (uniform noise and adversarial spikes), plus
    each new scenario class's dedicated profile (window ``expiry`` for
    ``eh_count``, signed ``turnstile`` deletions for ``cr_precis``) --
    sized to certify every registered backend in well under two
    minutes.  The full grid sweeps every profile a backend can ingest
    and adds (eps, B, window) variants for the approximation backends.

    The grid is validated against the live registry: a registered
    maintainer without a ``GRID_BACKENDS`` entry fails loudly here
    instead of silently escaping certification, and the unknown-backend
    error lists the registry's names.
    """
    registered = available_maintainers()
    missing = sorted(set(registered) - set(GRID_BACKENDS))
    if missing:
        raise RuntimeError(
            f"registered maintainers missing from GRID_BACKENDS: "
            f"{', '.join(missing)}; every registry backend must carry "
            "baseline certification parameters"
        )
    chosen_backends = backends or registered
    for backend in chosen_backends:
        if backend not in GRID_BACKENDS:
            known = ", ".join(sorted(set(registered) | set(GRID_BACKENDS)))
            raise KeyError(f"unknown backend {backend!r}; available: {known}")
    if profiles:
        for profile in profiles:
            if profile not in PROFILES:
                raise KeyError(
                    f"unknown profile {profile!r}; available: "
                    f"{', '.join(PROFILES)}"
                )
    cases = []
    for backend in chosen_backends:
        allowed = compatible_profiles(backend)
        if profiles:
            # Explicit profile selection: run each backend over the
            # requested profiles it can ingest (an insert-only backend
            # silently skips the signed turnstile profile).
            chosen_profiles = [p for p in profiles if p in allowed]
        elif quick:
            chosen_profiles = ["uniform", "spike"] + list(
                _QUICK_EXTRA_PROFILES.get(backend, ())
            )
        else:
            chosen_profiles = list(allowed)
        variants = [GRID_BACKENDS[backend]]
        if not quick:
            variants = _FULL_VARIANTS.get(backend, variants)
        for variant_index, params in enumerate(variants):
            for profile in chosen_profiles:
                cases.append(
                    CertificationCase(
                        backend=backend,
                        profile=profile,
                        params=dict(params),
                        points=points or (512 if quick else 768),
                        seed=seed + variant_index,
                    )
                )
    if not cases:
        raise ValueError(
            "selection produced no cases (the requested profiles are "
            "incompatible with the requested backends)"
        )
    return cases


def certify(
    cases: list[CertificationCase],
    *,
    check_every: int = 256,
    maintain_every: int = 32,
    progress=None,
) -> CertificationReport:
    """Run every case; returns the aggregated report.

    ``progress`` (optional) is called with each finished
    :class:`DifferentialResult` -- the CLI uses it for streaming output.
    """
    report = CertificationReport()
    started = time.perf_counter()
    for case in cases:
        checker = DifferentialChecker(
            case.backend,
            case.params,
            profile=case.profile,
            seed=case.seed,
            total_points=case.points,
            maintain_every=maintain_every,
            check_every=check_every,
        )
        result = checker.run()
        report.results.append(result)
        if progress is not None:
            progress(result)
    report.duration_seconds = time.perf_counter() - started
    return report
