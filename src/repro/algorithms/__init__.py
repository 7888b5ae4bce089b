"""Online algorithms for the Mobile Server Problem.

The paper's algorithm is :class:`~repro.algorithms.mtc.MoveToCenter`
(with variant classes for the answer-first and moving-client models);
everything else here is a baseline used by the comparison experiments.
"""

from .base import OnlineAlgorithm
from .coinflip import CoinFlip
from .follow import FollowLastRequest, RetrospectiveCenter
from .greedy import GreedyCenter, GreedyCentroid, NearestRequestChaser
from .lazy import LazyThreshold, StaticServer
from .move_to_min import MoveToMin
from .mtc import MoveToCenter
from .mtc_variants import AnswerFirstMoveToCenter, MovingClientMtC
from .registry import (
    ALGORITHMS,
    AlgorithmInfo,
    algorithm_info,
    available_algorithms,
    compatible_algorithms,
    make_algorithm,
    register,
)
from .vectorized import (
    VECTORIZED,
    KernelAlgorithm,
    ScalarBatchAdapter,
    as_vectorized,
    make_vectorized,
)
from .work_function import WorkFunctionLine

__all__ = [
    "ALGORITHMS",
    "VECTORIZED",
    "AlgorithmInfo",
    "AnswerFirstMoveToCenter",
    "CoinFlip",
    "FollowLastRequest",
    "GreedyCenter",
    "GreedyCentroid",
    "KernelAlgorithm",
    "LazyThreshold",
    "MoveToCenter",
    "MoveToMin",
    "MovingClientMtC",
    "NearestRequestChaser",
    "OnlineAlgorithm",
    "RetrospectiveCenter",
    "ScalarBatchAdapter",
    "StaticServer",
    "WorkFunctionLine",
    "algorithm_info",
    "as_vectorized",
    "available_algorithms",
    "compatible_algorithms",
    "make_algorithm",
    "make_vectorized",
    "register",
]
