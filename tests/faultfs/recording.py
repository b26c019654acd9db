"""A FaultFS that keeps every step it takes, for the fault-matrix tests.

The service's FaultFS records nothing (a tenant's store lives as long as
the service); a matrix that arms faults at a clean run's steps records
that run here.
"""

from repro.faultfs import FaultFS, FsStep


class RecordingFaultFS(FaultFS):
    """:class:`FaultFS` with a ``trace`` of every step, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace: list[FsStep] = []

    def _next(self, op, path):
        step, kind = super()._next(op, path)
        self.trace.append(
            FsStep(step, op, str(path), kind.value if kind else None)
        )
        return step, kind
