"""The FaaS platform simulator.

The platform executes function handlers immediately (they are plain Python
callables, so their functional results are real), while the *latency* the
caller observes is assembled from the calibrated models:

    latency = invocation overhead + cold-start penalty (if any) + execution time

Execution time depends on the handler's reported single-vCPU work and the
function's memory configuration (:mod:`repro.faas.resources`).  Both entry
points, :meth:`FaasPlatform.invoke` and :meth:`FaasPlatform.invoke_with_retry`,
return the completed :class:`Invocation` without advancing the clock; a caller
that waits for the reply schedules its own completion event at
``completed_ms``.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Optional

from repro.faas.billing import BillingModel
from repro.faas.coldstart import WarmInstancePool
from repro.faas.function import FunctionDefinition, FunctionOutput, Invocation
from repro.faas.providers import ProviderProfile, AWS_LAMBDA
from repro.faas.resources import ResourceModel
from repro.sim.engine import SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class FunctionNotRegisteredError(KeyError):
    """Raised when invoking a function that has not been registered."""


class FaasPlatform:
    """A simulated FaaS provider deployment."""

    def __init__(
        self,
        engine: SimulationEngine,
        provider: ProviderProfile = AWS_LAMBDA,
    ) -> None:
        self.engine = engine
        self.provider = provider
        self.resources = ResourceModel()
        self.billing = BillingModel(rates=provider.billing)
        self._functions: dict[str, FunctionDefinition] = {}
        self._pools: dict[str, WarmInstancePool] = {}
        self._request_ids = itertools.count(1)
        self._rng = engine.rng(f"faas:{provider.name}")
        #: completed invocations, newest last (useful for experiment analysis)
        self.invocations: list[Invocation] = []
        #: injects failures/throttles/forced timeouts when a fault plan is
        #: installed; None (the default) leaves every invocation untouched
        self.fault_injector: Optional["FaultInjector"] = None

    # -- deployment ----------------------------------------------------------------

    def register(self, definition: FunctionDefinition) -> None:
        """Deploy (or redeploy) a function."""
        self._functions[definition.name] = definition
        self._pools[definition.name] = WarmInstancePool(keep_alive_ms=self.provider.keep_alive_ms)

    def function_names(self) -> list[str]:
        return sorted(self._functions)

    def require(self, name: str) -> FunctionDefinition:
        """The deployed function ``name``; raises if it is not registered."""
        if name not in self._functions:
            raise FunctionNotRegisteredError(
                f"function {name!r} is not registered; registered: {self.function_names()}"
            )
        return self._functions[name]

    # -- invocation ----------------------------------------------------------------

    def invoke(self, name: str, payload: Any) -> Invocation:
        """Invoke a function synchronously.

        The handler runs now; the returned record carries the virtual latency
        after which the reply would be observable by the caller.  The
        simulation clock is *not* advanced; callers decide how to account the
        latency.  Servo's services call :meth:`invoke_with_retry` instead.
        """
        return self._invoke_at(name, payload, self.engine.now_ms)

    def _invoke_at(self, name: str, payload: Any, submitted_ms: float) -> Invocation:
        """One invocation attempt, submitted at ``submitted_ms`` (>= now)."""
        definition = self.require(name)
        outcome = "ok"
        if self.fault_injector is not None:
            outcome = self.fault_injector.faas_outcome(name)

        if outcome == "throttled":
            # Rejected at the control plane: no handler run, no warm slot,
            # no billing — the caller only pays the invocation overhead.
            overhead_ms = self.provider.invocation_overhead.sample(self._rng)
            self.engine.metrics.increment("faas_throttles")
            invocation = Invocation(
                function_name=name,
                request_id=next(self._request_ids),
                submitted_ms=submitted_ms,
                completed_ms=submitted_ms + overhead_ms,
                latency_ms=overhead_ms,
                execution_ms=0.0,
                cold_start=False,
                cold_start_ms=0.0,
                result=None,
                status="throttled",
            )
            self.invocations.append(invocation)
            self._trace_invocation(invocation)
            return invocation

        output = definition.handler(payload)
        if not isinstance(output, FunctionOutput):
            raise TypeError(
                f"handler of function {name!r} must return FunctionOutput, got {type(output)!r}"
            )

        execution_ms = self.resources.sample_execution_ms(
            output.work_ms_single_vcpu, definition.memory_mb, self._rng
        )
        overhead_ms = self.provider.invocation_overhead.sample(self._rng)

        timed_out = execution_ms > definition.timeout_ms
        if outcome == "timeout" and not timed_out:
            # Forced timeout: the function runs all the way to its deadline
            # and the platform kills it there; the reply is lost.
            timed_out = True
            self.engine.metrics.increment("faas_forced_timeouts")
        if timed_out:
            # Clamp before acquiring the warm slot: a timed-out invocation
            # occupies its instance until the platform kills it at
            # timeout_ms, never for the unclamped execution time.
            execution_ms = definition.timeout_ms
        cold = self._pools[name].acquire(submitted_ms, duration_ms=execution_ms)
        cold_ms = self.provider.cold_start_penalty.sample(self._rng) if cold else 0.0

        failed = outcome == "failure"
        if failed:
            self.engine.metrics.increment("faas_failures")
        status = "timeout" if timed_out else ("failure" if failed else "ok")

        latency_ms = overhead_ms + cold_ms + execution_ms
        invocation = Invocation(
            function_name=name,
            request_id=next(self._request_ids),
            submitted_ms=submitted_ms,
            completed_ms=submitted_ms + latency_ms,
            latency_ms=latency_ms,
            execution_ms=execution_ms,
            cold_start=cold,
            cold_start_ms=cold_ms,
            result=None if status != "ok" else output.value,
            status=status,
        )
        # Failed and timed-out executions are billed for their execution
        # time, exactly as real providers bill them.
        self.billing.record(execution_ms, definition.memory_mb)
        self.invocations.append(invocation)
        self._trace_invocation(invocation)
        return invocation

    def _trace_invocation(self, invocation: Invocation) -> None:
        """Record one attempt as a virtual-time telemetry span (if enabled)."""
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.span(
                "faas",
                invocation.function_name,
                start_ms=invocation.submitted_ms,
                duration_ms=invocation.latency_ms,
                track="faas",
                args={
                    "request_id": invocation.request_id,
                    "status": invocation.status,
                    "cold_start": invocation.cold_start,
                    "execution_ms": invocation.execution_ms,
                },
            )

    def invoke_with_retry(self, name: str, payload: Any) -> Invocation:
        """Invoke with retry/exponential-backoff against injected faults.

        Each failed attempt is retried after the backoff of the injector's
        retry policy (plus jitter drawn from the ``faults:faas`` stream), in
        virtual time: the retry is submitted at the failed attempt's
        completion plus the backoff, so the returned aggregate's latency
        covers the whole ordeal.
        Every raw attempt is appended to :attr:`invocations`; the returned
        record is the last attempt re-timed to span from the first submission
        (``attempts`` carries the count).  Without a fault injector this is
        exactly :meth:`invoke` — no retries, identical draws.
        """
        injector = self.fault_injector
        first = self._invoke_at(name, payload, self.engine.now_ms)
        if injector is None:
            return first
        policy = injector.retry_policy

        attempts, last = 1, first
        while last.status != "ok" and attempts < policy.max_attempts:
            backoff_ms = policy.backoff_ms(attempts) + injector.retry_jitter_ms()
            self.engine.metrics.increment("faas_retries")
            injector.record("faas.retry", f"{name} attempt={attempts + 1}")
            last = self._invoke_at(name, payload, last.completed_ms + backoff_ms)
            attempts += 1
        if last.status != "ok":
            self.engine.metrics.increment("faas_giveups")
        if attempts == 1:
            return first
        return replace(
            last,
            submitted_ms=first.submitted_ms,
            latency_ms=last.completed_ms - first.submitted_ms,
            attempts=attempts,
        )
