"""Function definitions and invocation records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class FunctionOutput:
    """What a function handler returns.

    ``value`` is the functional result (e.g. a simulation trace or a generated
    chunk); ``work_ms_single_vcpu`` is how much single-vCPU compute producing
    it represents, which the platform turns into execution time for the
    function's memory configuration.
    """

    value: Any
    work_ms_single_vcpu: float = 1.0


#: a handler takes the invocation payload and returns a FunctionOutput
FunctionHandler = Callable[[Any], FunctionOutput]


@dataclass
class FunctionDefinition:
    """A deployed serverless function."""

    name: str
    handler: FunctionHandler
    memory_mb: int = 1769
    timeout_ms: float = 15 * 60 * 1000.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


@dataclass(frozen=True)
class Invocation:
    """The outcome of one function invocation."""

    function_name: str
    request_id: int
    submitted_ms: float
    #: when the reply is available at the caller
    completed_ms: float
    #: end-to-end latency observed by the caller
    latency_ms: float
    #: execution time inside the function (what the provider bills)
    execution_ms: float
    cold_start: bool
    cold_start_ms: float
    result: Any = field(default=None)
    #: "ok", "timeout", "failure" (function error) or "throttled" (rejected
    #: at the control plane); anything but "ok" means ``result`` is None
    status: str = "ok"
    #: attempts behind this record (> 1 only for retry aggregates)
    attempts: int = 1
