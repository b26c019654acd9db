"""Resilience subsystem: the machinery *around* the paper's detector.

The core engine proves a 56-bit MAC plus flip-and-check can replace
SEC-DED's detection/correction (Section 3, Figure 3).  This package adds
what a production memory system layers on top of any detector:

* :mod:`repro.resilience.recovery` -- staged retry / flip-and-check /
  fail recovery for every read,
* :mod:`repro.resilience.quarantine` -- CE-history tracking and
  retirement of chronically bad blocks to a spare pool,
* :mod:`repro.resilience.runtime` -- :class:`ResilientMemory`, the
  fault-tolerant wrapper integrating all of it with scrubbing,
* :mod:`repro.resilience.errlog` -- MCA-style structured error log with
  CE/DUE/SDC accounting,
* :mod:`repro.resilience.campaign` -- Poisson fault campaigns driving
  sustained traffic under pluggable fault models.
"""

from repro.resilience.campaign import (
    CampaignReport,
    CampaignSpec,
    FaultCampaign,
    FaultModel,
    FaultRates,
    FaultSpec,
    RowBurst,
    ScenarioFaultModel,
    StuckAtBit,
    TransientSEU,
    run_campaign,
)
from repro.resilience.errlog import ErrorLog, ErrorRecord, EventOutcome
from repro.resilience.quarantine import BlockHealth, QuarantineMap
from repro.resilience.recovery import (
    RecoveredRead,
    RecoveryPolicy,
    RecoveryStage,
    RetryPolicy,
)
from repro.resilience.runtime import ResilientMemory

__all__ = [
    "BlockHealth",
    "CampaignReport",
    "CampaignSpec",
    "ErrorLog",
    "ErrorRecord",
    "EventOutcome",
    "FaultCampaign",
    "FaultModel",
    "FaultRates",
    "FaultSpec",
    "QuarantineMap",
    "RecoveredRead",
    "RecoveryPolicy",
    "RecoveryStage",
    "ResilientMemory",
    "RetryPolicy",
    "RowBurst",
    "ScenarioFaultModel",
    "StuckAtBit",
    "TransientSEU",
    "run_campaign",
]
