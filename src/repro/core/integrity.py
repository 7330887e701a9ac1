"""Sensor-integrity scoring: surprise, down-weighting, quarantine.

The localizer trusts every arriving :class:`~repro.sensors.measurement.Measurement`
unconditionally -- a single Byzantine sensor feeding spoofed counts will
breed a confident phantom cluster and steal particle mass from genuine
sources.  :class:`SensorCredibility` closes that hole: it scores each
sensor's reading for *surprise* against the localizer's current belief,
tracks a per-sensor exponential moving average of the surprise, and maps
the average to a credibility weight in ``[0, 1]``:

* ``1.0`` -- the reading enters the filter at full strength;
* ``(0, 1)`` -- the Poisson log-likelihood is tempered by the weight
  (``L^w``), shrinking the reading's pull on the particles;
* ``0.0`` -- the sensor is **quarantined**: the localizer skips the
  reading entirely (no selection, no reweighting, no echo EMA update).

Surprise scoring -- the phantom-estimate trap
--------------------------------------------

The naive score ("likelihood of the reading under current estimates") is
self-confirming: once a spoofed sensor has bred a phantom estimate at its
own position, the phantom *explains* the spoof and the surprise vanishes.
And the naive repair -- excluding every nearby estimate, trusting any one
neighbor to confirm an excess -- falls to *collusion*: two adjacent
Byzantine sensors vouch for each other's phantoms forever.  The score
therefore rests on majority witness voting:

* **Estimate support.**  An estimate within
  ``integrity_exclusion_radius`` of the sensor may explain its reading
  only if it is *supported*: among the sensors the inverse-square law
  says should see the estimate's share above the background noise floor
  (its capable witnesses, the suspect itself excluded), at least half
  observe a meaningful fraction of that share in their smoothed reading.
  A real source parked next to an honest sensor is seen by its witnesses
  and keeps explaining the reading; a phantom bred by a spoof is denied
  by every honest witness and is excluded -- no matter how loudly one
  colluding neighbor vouches for it.
* **Witness-vote corroboration.**  A remaining unexplained excess
  ``e = cpm - mu_explained`` is scored by the same electorate: each
  capable witness ``j`` (predicted share ``p_j = e / (1 + d_ij^2)``
  above the noise floor) votes on whether its own unexplained excess
  ``o_j`` reaches half of ``p_j``.  Corroboration ``c`` is the fraction
  of yes votes -- a brand-new real source wins the vote (``c ~ 1``, the
  filter is left to do its job), a spoof loses it even with a colluding
  minority (``c`` small), and with no capable witness at all ``c = 1``:
  an excess nobody could confirm is not evidence of spoofing.

The combined score is ``z = max(z_under, z_corr)`` where ``z_under``
catches sensors reading too low -- stuck counters, dead calibration --
and ``z_corr = (1 - c) * e / sqrt(max(mu_explained, 1))`` catches
uncorroborated excesses.  ``z_under`` is the square root of the Poisson
deviance against a *charitable* prediction over the same explained
estimate set: each estimate is pushed ``UNDER_POSITION_TOLERANCE``
meters farther away and shrunk by ``UNDER_STRENGTH_TOLERANCE`` first,
because near a source the ``1/(1+d^2)`` law is steep enough that the
filter's own transient localization error would otherwise condemn an
honest sensor.  Both scores are in Poisson standard deviations, so the
thresholds have a stable meaning across scenarios.

Known limits (see docs/ROBUSTNESS.md): the witness model is free-space
-- obstacle-heavy scenarios weaken honest votes -- and a *local
majority* of colluders around one sensor defeats the vote, the classic
Byzantine bound.

Quarantine lifecycle
--------------------

``active -> quarantined`` when the surprise EMA reaches
``integrity_hard_sigma`` (after ``integrity_min_observations`` readings);
``quarantined -> probation`` when the EMA decays below
``integrity_soft_sigma`` (quarantined readings are still *scored*, never
*used*); ``probation -> active`` after ``integrity_probation_readings``
calm readings, while any single reading at hard sigma re-quarantines
immediately.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

ACTIVE = "active"
PROBATION = "probation"
QUARANTINED = "quarantined"

#: Charitable-expectation tolerances for the under-reading test: each
#: estimate may sit this many meters farther from the sensor ...
UNDER_POSITION_TOLERANCE = 3.0
#: ... and be this fraction weaker than estimated, before a low reading
#: counts as surprising.
UNDER_STRENGTH_TOLERANCE = 0.3


def poisson_deviance(count: float, rate: float) -> float:
    """The Poisson deviance ``g = 2 (rate - count + count ln(count/rate))``.

    ``sqrt(g)`` is the deviance residual -- approximately the number of
    Poisson standard deviations between ``count`` and ``rate``, accurate
    into the deep tails where the normal approximation fails.
    """
    if rate <= 0.0:
        return 0.0 if count <= 0.0 else math.inf
    if count <= 0.0:
        return 2.0 * rate
    return max(0.0, 2.0 * (rate - count + count * math.log(count / rate)))


class SensorCredibility:
    """Per-sensor surprise tracking and the quarantine state machine."""

    def __init__(
        self,
        config,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # sensor_id -> {"ema", "n", "status", "probation_left"}
        self._sensors: Dict[int, dict] = {}

    # --- scoring ----------------------------------------------------------------

    def surprise(
        self,
        sensor_x: float,
        sensor_y: float,
        cpm: float,
        sources: np.ndarray,
        reading_ema: dict,
        background_cpm: float,
        scale: float,
    ) -> float:
        """The reading's surprise in Poisson sigmas (see module docstring).

        ``sources`` is an ``(n, 3)`` array of current ``(x, y, strength)``
        estimates; ``reading_ema`` maps ``(x, y)`` sensor positions to
        smoothed readings (the localizer's echo-filter EMA); ``scale`` is
        CPM per microcurie at distance 0 (``CPM_PER_MICROCURIE *
        assumed_efficiency``).
        """
        exclusion_sq = self.config.integrity_exclusion_radius ** 2
        noise_floor = 2.0 * math.sqrt(max(background_cpm, 1.0))
        mu_explained = background_cpm
        mu_charitable = background_cpm
        explained = sources[:0]
        if sources.shape[0]:
            dx = sources[:, 0] - sensor_x
            dy = sources[:, 1] - sensor_y
            dist_sq = dx * dx + dy * dy
            # An estimate may explain this sensor's reading if it is far
            # enough away not to be its own echo, OR if the witness
            # majority confirms it is real (support).  Unsupported local
            # estimates -- phantoms -- explain nothing here.
            keep = [
                i for i in range(sources.shape[0])
                if dist_sq[i] > exclusion_sq
                or self._estimate_support(
                    sources[i], sensor_x, sensor_y, reading_ema,
                    background_cpm, scale, noise_floor,
                )
            ]
            explained = sources[keep]
            kept_dist_sq = dist_sq[keep]
            contributions = scale * explained[:, 2] / (1.0 + kept_dist_sq)
            mu_explained += float(contributions.sum())
            # The *charitable* expectation: every explained estimate
            # pushed UNDER_POSITION_TOLERANCE farther away and shrunk by
            # UNDER_STRENGTH_TOLERANCE.  Close to a source the 1/(1+d^2)
            # law is so steep that a meter of localization error doubles
            # the raw prediction -- an honest sensor must never be
            # condemned for the filter's own transient overshoot, so
            # under-reading is judged against the lowest expectation any
            # plausible perturbation of the estimates supports.
            shifted = (np.sqrt(kept_dist_sq) + UNDER_POSITION_TOLERANCE) ** 2
            mu_charitable += float(
                (
                    scale * explained[:, 2] * (1.0 - UNDER_STRENGTH_TOLERANCE)
                    / (1.0 + shifted)
                ).sum()
            )

        z_under = 0.0
        if cpm < mu_charitable:
            z_under = math.sqrt(poisson_deviance(cpm, mu_charitable))

        excess = cpm - mu_explained
        z_corr = 0.0
        if excess > noise_floor:
            corroboration = self._corroboration(
                sensor_x, sensor_y, excess, explained,
                reading_ema, background_cpm, scale, noise_floor,
            )
            z_corr = (
                (1.0 - corroboration) * excess / math.sqrt(max(mu_explained, 1.0))
            )
        return max(z_under, z_corr)

    def _estimate_support(
        self,
        estimate: np.ndarray,
        sensor_x: float,
        sensor_y: float,
        reading_ema: dict,
        background_cpm: float,
        scale: float,
        noise_floor: float,
    ) -> bool:
        """Does the witness majority confirm this estimate is real?

        Capable witnesses are the *other* sensors whose predicted share
        of the estimate (``scale * strength / (1 + d^2)``) clears the
        noise floor; each votes yes when its smoothed reading shows at
        least half that share above background.  With no capable witness
        the estimate gets the benefit of the doubt.
        """
        ex, ey, strength = float(estimate[0]), float(estimate[1]), float(estimate[2])
        votes = eligible = 0
        for (nx, ny), smoothed in reading_ema.items():
            if (nx - sensor_x) ** 2 + (ny - sensor_y) ** 2 < 1e-9:
                continue  # the suspect cannot witness its own explanation
            predicted = scale * strength / (
                1.0 + (nx - ex) ** 2 + (ny - ey) ** 2
            )
            if predicted < noise_floor:
                continue
            eligible += 1
            if float(smoothed) - background_cpm >= 0.5 * predicted:
                votes += 1
        return eligible == 0 or votes * 2 >= eligible

    def _corroboration(
        self,
        sensor_x: float,
        sensor_y: float,
        excess: float,
        explained: np.ndarray,
        reading_ema: dict,
        background_cpm: float,
        scale: float,
        noise_floor: float,
    ) -> float:
        """The witness vote on the excess: fraction of capable witnesses
        whose own unexplained excess reaches half their predicted share.

        Witnesses are scored against the *same* explained-estimate set as
        the sensor itself, so a phantom can vouch for nobody, and a
        colluding Byzantine minority is outvoted by the honest witnesses
        who see nothing.  With no witness close enough to expect a share
        above the noise floor, returns 1.0: an excess nobody could
        confirm is not evidence of spoofing.
        """
        votes = eligible = 0
        for (nx, ny), smoothed in reading_ema.items():
            d_sq = (nx - sensor_x) ** 2 + (ny - sensor_y) ** 2
            if d_sq < 1e-9:
                continue  # the sensor itself
            predicted = excess / (1.0 + d_sq)
            if predicted < noise_floor:
                continue
            eligible += 1
            # The witness's unexplained excess: o_j = ema_j - (background
            # + explained predictions at j).
            mu_j = background_cpm
            if explained.shape[0]:
                dxk = explained[:, 0] - nx
                dyk = explained[:, 1] - ny
                mu_j += float(
                    (
                        scale * explained[:, 2] / (1.0 + dxk * dxk + dyk * dyk)
                    ).sum()
                )
            if max(float(smoothed) - mu_j, 0.0) >= 0.5 * predicted:
                votes += 1
        return 1.0 if eligible == 0 else votes / eligible

    # --- the state machine ------------------------------------------------------

    def assess(
        self,
        sensor_id: int,
        sensor_x: float,
        sensor_y: float,
        cpm: float,
        sources: np.ndarray,
        reading_ema: dict,
        background_cpm: float,
        scale: float,
    ) -> float:
        """Score one reading and return its credibility weight in [0, 1]."""
        if sensor_id < 0:
            return 1.0  # anonymous readings cannot be tracked
        config = self.config
        z = self.surprise(
            sensor_x, sensor_y, cpm, sources, reading_ema, background_cpm, scale
        )
        entry = self._sensors.get(sensor_id)
        if entry is None:
            entry = {
                "ema": z, "n": 1, "status": ACTIVE, "probation_left": 0,
            }
            self._sensors[sensor_id] = entry
        else:
            alpha = config.integrity_ema_alpha
            entry["ema"] = alpha * z + (1.0 - alpha) * entry["ema"]
            entry["n"] += 1

        if entry["n"] < config.integrity_min_observations:
            return 1.0  # warm-up: no belief yet to be surprised against

        status = entry["status"]
        ema = entry["ema"]
        if status == ACTIVE:
            if ema >= config.integrity_hard_sigma:
                self._transition(sensor_id, entry, QUARANTINED, z)
                return 0.0
            return self._active_weight(sensor_id, ema)
        if status == QUARANTINED:
            if ema < config.integrity_soft_sigma:
                entry["probation_left"] = config.integrity_probation_readings
                self._transition(sensor_id, entry, PROBATION, z)
                return config.integrity_probation_weight
            return 0.0
        # probation
        if z >= config.integrity_hard_sigma or ema >= config.integrity_hard_sigma:
            self._transition(sensor_id, entry, QUARANTINED, z)
            return 0.0
        entry["probation_left"] -= 1
        if entry["probation_left"] <= 0 and ema < config.integrity_soft_sigma:
            self._transition(sensor_id, entry, ACTIVE, z)
            return self._active_weight(sensor_id, ema)
        return config.integrity_probation_weight

    def _active_weight(self, sensor_id: int, ema: float) -> float:
        config = self.config
        if ema <= config.integrity_soft_sigma:
            return 1.0
        span = config.integrity_hard_sigma - config.integrity_soft_sigma
        fraction = (ema - config.integrity_soft_sigma) / span
        weight = 1.0 - (1.0 - config.integrity_min_weight) * fraction
        if self.metrics.enabled:
            self.metrics.counter("integrity.downweighted").inc()
        return max(config.integrity_min_weight, weight)

    def _transition(
        self, sensor_id: int, entry: dict, status: str, z: float
    ) -> None:
        previous = entry["status"]
        entry["status"] = status
        if self.tracer.enabled:
            self.tracer.emit(
                "integrity",
                sensor_id=int(sensor_id),
                transition=f"{previous}->{status}",
                surprise=float(z),
                surprise_ema=float(entry["ema"]),
                observations=int(entry["n"]),
            )
        if self.metrics.enabled:
            if status == QUARANTINED:
                self.metrics.counter("integrity.quarantined").inc()
            elif status == ACTIVE:
                self.metrics.counter("integrity.readmitted").inc()
            self.metrics.gauge("integrity.quarantined_now").set(
                sum(
                    1 for e in self._sensors.values()
                    if e["status"] == QUARANTINED
                )
            )

    # --- inspection / checkpointing ---------------------------------------------

    def status(self, sensor_id: int) -> str:
        entry = self._sensors.get(sensor_id)
        return entry["status"] if entry is not None else ACTIVE

    def surprise_ema(self, sensor_id: int) -> float:
        entry = self._sensors.get(sensor_id)
        return float(entry["ema"]) if entry is not None else 0.0

    def quarantined_ids(self) -> list:
        return sorted(
            sid for sid, e in self._sensors.items() if e["status"] == QUARANTINED
        )

    def export_state(self) -> dict:
        return {
            "sensors": {
                str(sid): {
                    "ema": float(e["ema"]),
                    "n": int(e["n"]),
                    "status": e["status"],
                    "probation_left": int(e["probation_left"]),
                }
                for sid, e in self._sensors.items()
            }
        }

    def load_state(self, state: dict) -> None:
        self._sensors = {
            int(sid): {
                "ema": float(e["ema"]),
                "n": int(e["n"]),
                "status": str(e["status"]),
                "probation_left": int(e["probation_left"]),
            }
            for sid, e in state.get("sensors", {}).items()
        }
