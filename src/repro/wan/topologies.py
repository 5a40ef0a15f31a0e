"""Synthetic wide-area topologies (substitution for real deployments).

The paper's introduction argues the practical stakes: "contacting an
additional process may incur a cost of hundreds of milliseconds per
command" in wide-area deployments. To exercise that claim we model
inter-region one-way delays on the scale of public cloud measurements.
The numbers below are representative round-trip-time halves between
well-known regions (rounded, stable for reproducibility); the experiments
only rely on their *scale and geometry* — an extra quorum member on
another continent costs ~50–150 ms one-way — not on any precise value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.errors import ConfigurationError

#: Region identifiers, loosely modeled on public-cloud geography.
REGIONS: Tuple[str, ...] = (
    "us-east",  # N. Virginia
    "us-west",  # Oregon
    "eu-west",  # Ireland
    "eu-central",  # Frankfurt
    "ap-northeast",  # Tokyo
    "ap-southeast",  # Singapore
    "ap-south",  # Mumbai
    "sa-east",  # São Paulo
    "au-southeast",  # Sydney
)

#: One-way delays in milliseconds between regions (symmetric, zero diag is
#: replaced by a small intra-region delay).
_ONE_WAY_MS: Dict[Tuple[str, str], float] = {
    ("us-east", "us-west"): 32,
    ("us-east", "eu-west"): 38,
    ("us-east", "eu-central"): 45,
    ("us-east", "ap-northeast"): 75,
    ("us-east", "ap-southeast"): 110,
    ("us-east", "ap-south"): 95,
    ("us-east", "sa-east"): 60,
    ("us-east", "au-southeast"): 100,
    ("us-west", "eu-west"): 65,
    ("us-west", "eu-central"): 72,
    ("us-west", "ap-northeast"): 50,
    ("us-west", "ap-southeast"): 85,
    ("us-west", "ap-south"): 110,
    ("us-west", "sa-east"): 90,
    ("us-west", "au-southeast"): 70,
    ("eu-west", "eu-central"): 12,
    ("eu-west", "ap-northeast"): 105,
    ("eu-west", "ap-southeast"): 85,
    ("eu-west", "ap-south"): 60,
    ("eu-west", "sa-east"): 92,
    ("eu-west", "au-southeast"): 130,
    ("eu-central", "ap-northeast"): 112,
    ("eu-central", "ap-southeast"): 80,
    ("eu-central", "ap-south"): 55,
    ("eu-central", "sa-east"): 100,
    ("eu-central", "au-southeast"): 140,
    ("ap-northeast", "ap-southeast"): 35,
    ("ap-northeast", "ap-south"): 62,
    ("ap-northeast", "sa-east"): 130,
    ("ap-northeast", "au-southeast"): 52,
    ("ap-southeast", "ap-south"): 30,
    ("ap-southeast", "sa-east"): 160,
    ("ap-southeast", "au-southeast"): 45,
    ("ap-south", "sa-east"): 150,
    ("ap-south", "au-southeast"): 75,
    ("sa-east", "au-southeast"): 155,
}

#: Delay between two processes in the same region (same-site LAN hop).
INTRA_REGION_MS = 0.5


@dataclass(frozen=True)
class Topology:
    """A named set of sites with a one-way delay matrix (milliseconds)."""

    name: str
    sites: Tuple[str, ...]
    matrix: Tuple[Tuple[float, ...], ...]

    def one_way(self, a: int, b: int) -> float:
        return self.matrix[a][b]

    def max_one_way(self) -> float:
        return max(max(row) for row in self.matrix)

    def site_index(self, name: str) -> int:
        return self.sites.index(name)


def one_way_ms(a: str, b: str) -> float:
    """One-way delay between two named regions."""
    if a == b:
        return INTRA_REGION_MS
    delay = _ONE_WAY_MS.get((a, b)) or _ONE_WAY_MS.get((b, a))
    if delay is None:
        raise ConfigurationError(f"no latency data for {a!r} <-> {b!r}")
    return float(delay)


def topology(sites: Sequence[str], name: str = "custom") -> Topology:
    """Build a :class:`Topology` over the chosen regions."""
    for site in sites:
        if site not in REGIONS:
            raise ConfigurationError(f"unknown region {site!r}; choose from {REGIONS}")
    matrix = tuple(
        tuple(one_way_ms(a, b) for b in sites) for a in sites
    )
    return Topology(name=name, sites=tuple(sites), matrix=matrix)


def three_continents() -> Topology:
    """us-east / eu-west / ap-northeast, a classic 3-site deployment."""
    return topology(["us-east", "eu-west", "ap-northeast"], "three-continents")


def five_regions() -> Topology:
    """Five sites across four continents (EPaxos-paper-style geometry)."""
    return topology(
        ["us-east", "us-west", "eu-west", "ap-northeast", "ap-southeast"],
        "five-regions",
    )


def seven_regions() -> Topology:
    return topology(
        [
            "us-east",
            "us-west",
            "eu-west",
            "eu-central",
            "ap-northeast",
            "ap-southeast",
            "sa-east",
        ],
        "seven-regions",
    )


def nine_regions() -> Topology:
    return topology(list(REGIONS), "nine-regions")
