"""The Facebook (Atikoglu et al., SIGMETRICS'12) statistical workload.

The paper's §5.1 drives its testbed with "workload according to Section 5
of [3], which provides a statistical model based on the real Facebook
trace". This module is that statistical model, assembled from the
published measurements:

* inter-arrival gaps: Generalized Pareto, burst degree ``xi = 0.15``
  (the paper's fitted value), aggregate rate up to ~``10^5`` keys/s;
* concurrency: two or more keys within 1 microsecond with probability
  ``q ~ 0.1159``;
* key sizes: roughly lognormal, 16-45 bytes typical (ETC pool);
* value sizes: Generalized-Pareto-like body with most values under 1 KB;
* key popularity: Zipf-like with a small hot set.

Absolute size parameters are approximations of the published ETC
figures — they shape the executable cache experiments, not the latency
theorems.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..core.workload import WorkloadPattern
from ..distributions import (
    Distribution,
    GeneralizedPareto,
    Lognormal,
    Zipf,
    make_rng,
)
from ..errors import ValidationError
from ..units import kps

#: Published headline numbers used as defaults.
ETC_KEY_RATE = kps(62.5)
ETC_BURST = 0.15
ETC_CONCURRENCY = 0.1159
ETC_MEAN_KEY_BYTES = 31.0
ETC_MEAN_VALUE_BYTES = 330.0
ETC_ZIPF_EXPONENT = 0.99


@dataclasses.dataclass(frozen=True)
class FacebookWorkload:
    """Bundle of the ETC statistical model's component distributions."""

    pattern: WorkloadPattern
    key_size: Distribution
    value_size: Distribution
    popularity: Zipf

    @classmethod
    def build(
        cls,
        *,
        rate: float = ETC_KEY_RATE,
        xi: float = ETC_BURST,
        q: float = ETC_CONCURRENCY,
        n_items: int = 100_000,
        zipf_s: float = ETC_ZIPF_EXPONENT,
        mean_key_bytes: float = ETC_MEAN_KEY_BYTES,
        mean_value_bytes: float = ETC_MEAN_VALUE_BYTES,
    ) -> "FacebookWorkload":
        """Assemble the model with the published defaults."""
        return cls(
            pattern=WorkloadPattern(rate=rate, xi=xi, q=q),
            key_size=Lognormal.from_mean_cv2(mean_key_bytes, 0.17),
            value_size=GeneralizedPareto(1.0 / mean_value_bytes, 0.35),
            popularity=Zipf(n_items, zipf_s),
        )

    def sample_key_rank(self, rng: np.random.Generator) -> int:
        """Draw a key by popularity."""
        return int(self.popularity.sample(rng))

    def sample_item_bytes(self, rng: np.random.Generator) -> tuple[int, int]:
        """Draw one (key_bytes, value_bytes) pair, both >= 1."""
        key_bytes = max(1, int(round(float(self.key_size.sample(rng)))))
        value_bytes = max(1, int(round(float(self.value_size.sample(rng)))))
        return key_bytes, value_bytes

    def generate_key_timestamps(
        self,
        duration: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Key arrival timestamps over ``duration`` seconds at one server.

        Batches arrive with GPD gaps; keys within a batch share the
        timestamp (sub-microsecond separations are below the model's
        resolution, matching how the measurement binned them).
        """
        if duration <= 0:
            raise ValidationError(f"duration must be > 0, got {duration}")
        rng = make_rng(rng)
        gap = self.pattern.batch_gap_distribution()
        sizes = self.pattern.batch_size_distribution()
        expected_batches = int(duration * self.pattern.batch_rate * 1.2) + 16
        gaps = np.asarray(gap.sample(rng, expected_batches), dtype=float)
        times = np.cumsum(gaps)
        times = times[times < duration]
        batch_sizes = np.asarray(
            sizes.sample(rng, times.size), dtype=np.int64
        )
        return np.repeat(times, batch_sizes)

    def head_concentration(self, fraction: float = 0.01) -> float:
        """Access mass of the hottest ``fraction`` of keys (§2.1 skew)."""
        return self.popularity.head_mass(fraction)
