"""Radio propagation: the log-normal shadowing model of eq. (1).

The paper computes received power as::

    P_d [dBm] = P_d0 [dBm] - 10 * alpha * log10(d / d0) + X_sigma      (1)

where ``P_d0`` is the received power at reference distance ``d0`` (obtained
"through field measurements close to the transmitter or calculated using
the free space Friis equation"), ``alpha`` is the path-loss exponent and
``X_sigma`` is a zero-mean Gaussian with standard deviation ``sigma``
modelling shadowing.

We take the Friis route for the reference power: at 2.4 GHz and
``d0 = 1 m`` the free-space loss is ``20 log10(4 pi d0 f / c) ≈ 40.05 dB``
(unit antenna gains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Speed of light in m/s.
SPEED_OF_LIGHT = 299_792_458.0
#: Default WiFi carrier frequency (2.4 GHz band).
DEFAULT_FREQUENCY_HZ = 2.4e9

#: Relative inflation applied to :meth:`LogNormalShadowing.reach_radius_m`.
#: The radius is computed by inverting ``path_loss_db`` through ``10 **``;
#: re-evaluating the forward ``math.log10`` expression at the inverted
#: distance can land within a few ULP of the target, on either side.  A
#: 1e-9 relative pad corresponds to a ``10 * alpha * log10(1 + 1e-9)``
#: ≈ 1e-8 dB slack — orders of magnitude above the float64 round-trip
#: error and orders of magnitude below any physically meaningful margin —
#: so every radio strictly beyond the padded radius provably fails the
#: survivor test ``mean_dbm + margin >= threshold``.
REACH_RADIUS_SLACK = 1e-9


@dataclass(frozen=True)
class FreeSpaceReference:
    """Friis free-space path loss at a reference distance.

    ``loss_db(d)`` gives the free-space attenuation at distance ``d``;
    the shadowing model only consumes ``loss_db(d0)``.
    """

    frequency_hz: float = DEFAULT_FREQUENCY_HZ

    def loss_db(self, distance_m: float) -> float:
        """Free-space path loss in dB at ``distance_m`` (>= a few cm)."""
        if distance_m <= 0.0:
            raise ValueError(f"distance must be positive, got {distance_m}")
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


class LogNormalShadowing:
    """The log-normal shadowing propagation model (eq. 1).

    Parameters
    ----------
    alpha:
        Path-loss exponent.  The paper measured 2.9 in its 80 m² office and
        uses 3.3 for the larger, more complex NS-2 floor.
    sigma_db:
        Standard deviation of the zero-mean Gaussian shadowing term
        (4 dB testbed, 5 dB NS-2).
    reference_distance_m:
        ``d0`` of eq. 1; the free-space Friis equation anchors the loss
        there.
    frequency_hz:
        Carrier frequency used for the Friis reference.
    """

    def __init__(
        self,
        alpha: float,
        sigma_db: float,
        reference_distance_m: float = 1.0,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    ) -> None:
        if alpha <= 0.0:
            raise ValueError(f"path-loss exponent must be positive, got {alpha}")
        if sigma_db < 0.0:
            raise ValueError(f"shadowing sigma must be non-negative, got {sigma_db}")
        if reference_distance_m <= 0.0:
            raise ValueError("reference distance must be positive")
        self.alpha = float(alpha)
        self.sigma_db = float(sigma_db)
        self.reference_distance_m = float(reference_distance_m)
        self._reference_loss_db = FreeSpaceReference(frequency_hz).loss_db(
            reference_distance_m
        )

    @property
    def reference_loss_db(self) -> float:
        """Friis loss at the reference distance ``d0``."""
        return self._reference_loss_db

    def path_loss_db(self, distance_m: float) -> float:
        """Mean (deterministic) path loss at ``distance_m`` in dB."""
        d = max(float(distance_m), self.reference_distance_m)
        return self._reference_loss_db + 10.0 * self.alpha * math.log10(
            d / self.reference_distance_m
        )

    def mean_rx_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Expected received power (no shadowing draw) in dBm."""
        return tx_power_dbm - self.path_loss_db(distance_m)

    def shadowing_db(self, rng: np.random.Generator) -> float:
        """One shadowing realization ``X_sigma`` in dB (0.0 when sigma is 0).

        Split out from :meth:`sample_rx_dbm` so callers that cache the
        deterministic mean (the channel's per-pair path-loss cache) can
        add a fresh draw without recomputing the distance term.
        """
        return float(rng.normal(0.0, self.sigma_db)) if self.sigma_db > 0.0 else 0.0

    def sample_rx_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        rng: np.random.Generator,
    ) -> float:
        """Received power with one shadowing realization ``X_sigma`` drawn."""
        return self.mean_rx_dbm(tx_power_dbm, distance_m) + self.shadowing_db(rng)

    def range_for_rx_dbm(self, tx_power_dbm: float, rx_dbm: float) -> float:
        """Distance at which the *mean* received power equals ``rx_dbm``.

        Used to derive communication / carrier-sense / interference ranges
        (Section V, "Overhead of exchanging location information").
        """
        budget_db = tx_power_dbm - rx_dbm - self._reference_loss_db
        return self.reference_distance_m * 10.0 ** (budget_db / (10.0 * self.alpha))

    def reach_radius_m(
        self, tx_power_dbm: float, threshold_dbm: float, margin_db: float
    ) -> float:
        """Sound culling radius: beyond it, *every* receiver is culled.

        The below-floor cull keeps a receiver iff its deterministic mean
        power satisfies ``mean_dbm + margin_db >= threshold_dbm``, i.e.
        ``mean_dbm >= threshold_dbm - margin_db``.  ``mean_rx_dbm`` is
        non-increasing in distance (constant within ``d0``, strictly
        decreasing beyond), so the survivor set is contained in the disk
        of radius ``range_for_rx_dbm(tx, threshold - margin)`` — this
        method returns that radius, floored at ``d0`` (inside the
        reference distance the mean is distance-independent, so the
        clamp only ever *adds* candidates) and padded by
        :data:`REACH_RADIUS_SLACK` against the ``log10``/``10 **``
        round-trip error.  Soundness — no radio outside the disk ever
        survives the exhaustive cull — is property-tested in
        ``tests/test_spatial.py``; candidates inside the disk still run
        the exact scalar cull test, so the radius only needs to be a
        superset bound, never tight.
        """
        if margin_db < 0.0:
            raise ValueError(f"cull margin must be non-negative, got {margin_db}")
        radius = self.range_for_rx_dbm(tx_power_dbm, threshold_dbm - margin_db)
        radius = max(radius, self.reference_distance_m)
        return radius * (1.0 + REACH_RADIUS_SLACK)
