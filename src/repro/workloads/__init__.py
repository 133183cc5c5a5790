"""Workload generators, arrival streams, and deterministic seeding."""

from .generators import (
    homes_at_random_requesters,
    hot_object_instance,
    line_span_instance,
    partitioned_instance,
    random_k_subsets,
    zipf_k_subsets,
)
from .seeds import DEFAULT_SEED, root_rng, spawn
from .streams import (
    AdversarialStream,
    ArrivalColumns,
    ArrivalStream,
    MMPPStream,
    PoissonStream,
)

__all__ = [
    "random_k_subsets",
    "zipf_k_subsets",
    "hot_object_instance",
    "partitioned_instance",
    "line_span_instance",
    "homes_at_random_requesters",
    "ArrivalStream",
    "ArrivalColumns",
    "PoissonStream",
    "MMPPStream",
    "AdversarialStream",
    "DEFAULT_SEED",
    "root_rng",
    "spawn",
]
