"""Closed-form reception models: eqs. (2), (3) and (4) of the paper.

These are the analytical counterparts of what the simulated radios do
empirically.  CO-MAP nodes evaluate them on *positions* (from the neighbor
table) to predict whether two links can co-occur and which neighbors are
hidden terminals — without any trial transmissions.

Equation (3)::

    PRR = 1 - Phi( (T_SIR + 10 alpha log10(d / r)) / (sqrt(2) sigma) )

where ``d`` is the sender→receiver distance of the link under test, ``r``
the interferer→receiver distance, ``T_SIR`` the required
signal-to-interference ratio in dB, and ``Phi`` the standard normal CDF.
The ``sqrt(2) sigma`` arises because the useful and interfering shadowing
terms are independent N(0, sigma²) variables, so their difference is
N(0, 2 sigma²).

Equation (4)::

    Pr{P_r < T_cs} = Phi( (T_cs - P_d0 + 10 alpha log10(r / d0)) / sigma )

the probability that a neighbor at distance ``r`` from a sender *fails* to
carrier-sense that sender — monotonically increasing in ``r``.  The paper
declares a node a hidden terminal when this probability exceeds 0.9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.phy.propagation import LogNormalShadowing


def _standard_normal_cdf(x: float) -> float:
    """Phi(x) via the error function (no scipy needed on this hot path)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class PrrModel:
    """Packet-reception and carrier-sense probability calculator.

    Parameters
    ----------
    propagation:
        The :class:`LogNormalShadowing` instance shared with the simulated
        channel, so analytical predictions and simulated outcomes use the
        same ``alpha``/``sigma``/reference loss.
    t_sir_db:
        Required signal-to-interference ratio ``T_SIR`` in dB.  The paper
        uses the threshold of the *lowest* data rate (4 dB for 1 Mbps
        802.11b on the testbed; 10 for the NS-2 runs) so concurrency
        decisions stay safe under rate adaptation.
    """

    propagation: LogNormalShadowing
    t_sir_db: float

    def prr(self, link_distance_m: float, interferer_distance_m: float) -> float:
        """Eq. (3): reception probability of a link under one interferer.

        ``link_distance_m`` is sender→receiver (``d``);
        ``interferer_distance_m`` is interferer→receiver (``r``).
        Both transmitters are assumed to use the same power, as in the
        paper's derivation.
        """
        if link_distance_m <= 0.0:
            raise ValueError("link distance must be positive")
        if interferer_distance_m <= 0.0:
            raise ValueError("interferer distance must be positive")
        sigma = self.propagation.sigma_db
        alpha = self.propagation.alpha
        margin = self.t_sir_db + 10.0 * alpha * math.log10(
            link_distance_m / interferer_distance_m
        )
        if sigma == 0.0:
            # Degenerate (no shadowing): step function on the SIR margin.
            return 0.0 if margin >= 0.0 else 1.0
        return 1.0 - _standard_normal_cdf(margin / (math.sqrt(2.0) * sigma))

    def effective_interferer_distance(self, interferer_distances_m) -> float:
        """Collapse several interferers into one equivalent distance.

        The paper's analysis "mainly focuses on scenarios with one
        interferer; the aggregated impact of multiple HTs and ETs will be
        handled in future works".  This extension aggregates mean
        interference powers in the linear domain: with path loss
        ``r^-alpha``, the combined power of interferers at distances
        ``r_i`` equals a single interferer at

            r_eff = (sum_i r_i^(-alpha))^(-1/alpha)

        which always satisfies ``r_eff <= min(r_i)`` (more interferers,
        closer equivalent).  Shadowing of the aggregate is approximated
        by the single-interferer sigma (a first-order Wilkinson-style
        approximation).
        """
        distances = [float(r) for r in interferer_distances_m]
        if not distances:
            raise ValueError("at least one interferer distance is required")
        if any(r <= 0.0 for r in distances):
            raise ValueError("interferer distances must be positive")
        alpha = self.propagation.alpha
        aggregate = sum(r ** (-alpha) for r in distances)
        return aggregate ** (-1.0 / alpha)

    def prr_multi(self, link_distance_m: float, interferer_distances_m) -> float:
        """Eq. (3) generalized to several simultaneous interferers."""
        r_eff = self.effective_interferer_distance(interferer_distances_m)
        return self.prr(link_distance_m, r_eff)

    def carrier_sense_miss_probability(
        self,
        distance_m: float,
        tx_power_dbm: float,
        t_cs_dbm: float,
    ) -> float:
        """Eq. (4): probability a neighbor at ``distance_m`` cannot sense us.

        ``t_cs_dbm`` is the clear-channel-assessment threshold.  The result
        grows monotonically with distance (verified by property tests).
        """
        if distance_m <= 0.0:
            raise ValueError("distance must be positive")
        sigma = self.propagation.sigma_db
        mean_rx = self.propagation.mean_rx_dbm(tx_power_dbm, distance_m)
        if sigma == 0.0:
            return 1.0 if mean_rx < t_cs_dbm else 0.0
        return _standard_normal_cdf((t_cs_dbm - mean_rx) / sigma)

    def interference_range(
        self, link_distance_m: float, prr_floor: float = 0.5
    ) -> float:
        """Distance inside which an interferer pushes the link PRR below
        ``prr_floor``.

        Solves eq. (3) for ``r``; used to size the 2-hop neighborhood a
        node must know about (Section V: ``R_t + R_in``).
        """
        if not 0.0 < prr_floor < 1.0:
            raise ValueError("prr_floor must lie strictly between 0 and 1")
        sigma = self.propagation.sigma_db
        alpha = self.propagation.alpha
        if sigma == 0.0:
            # PRR is a step at margin == 0.
            exponent = self.t_sir_db / (10.0 * alpha)
        else:
            # 1 - Phi(m / (sqrt(2) sigma)) = prr_floor  =>  m = sqrt(2) sigma z
            z = _inverse_standard_normal_cdf(1.0 - prr_floor)
            margin = math.sqrt(2.0) * sigma * z
            exponent = (self.t_sir_db - margin) / (10.0 * alpha)
        return link_distance_m * 10.0**exponent


def _inverse_standard_normal_cdf(p: float) -> float:
    """Phi^-1(p) via bisection on the well-behaved CDF (|z| <= 12)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    lo, hi = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _standard_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
