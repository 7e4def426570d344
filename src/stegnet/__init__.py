"""Covert channels in carrier packet headers, end to end.

A pair of gateways smuggles whole secret packets through header fields
of traffic that is already flowing between them: one side fuses stream
slices into carriers, the other extracts and replays them.  The rest of
the package exists to exercise that pair honestly: a byte-exact packet
model, capture file tooling, a deterministic event simulator with
monitors and address translation in the middle, a carrier-cost
calibration procedure, and canned experiment scenarios.
"""

from .calibration import (
    BadThresholds,
    CalibrationPlan,
    CalibrationResult,
    OutOfRangeWarning,
    RunSpec,
    calibrate_handler,
    cost_constant,
    cost_variable,
)
from .engine import (
    CarrierStats,
    CovertGateway,
    DesyncError,
    EngineConfig,
    EngineError,
    Oversize,
)
from .handlers import (
    DEFAULT_ENABLED,
    HandlerRegistry,
    HandlerSpec,
    ICMP_PAYLOAD_ID,
    IPV4_CHECKSUM_ID,
    IPV4_ID_ID,
    RecoveryClass,
    TCP_ISN_ID,
    TCP_OPTIONS_ID,
    UnknownHandler,
    build_registry,
)
from .report import SessionReport, parse_report, render_report, write_report
from .simnet import SECRET_PORT, Simulation, WorkloadSpec, parse_workload
from .topology import ConfigError, InvalidTopology, Topology, load_topology

__version__ = "0.1.0"

__all__ = [
    "BadThresholds",
    "CalibrationPlan",
    "CalibrationResult",
    "CarrierStats",
    "ConfigError",
    "CovertGateway",
    "DEFAULT_ENABLED",
    "DesyncError",
    "EngineConfig",
    "EngineError",
    "HandlerRegistry",
    "HandlerSpec",
    "ICMP_PAYLOAD_ID",
    "IPV4_CHECKSUM_ID",
    "IPV4_ID_ID",
    "InvalidTopology",
    "OutOfRangeWarning",
    "Oversize",
    "RecoveryClass",
    "RunSpec",
    "SECRET_PORT",
    "SessionReport",
    "Simulation",
    "TCP_ISN_ID",
    "TCP_OPTIONS_ID",
    "Topology",
    "UnknownHandler",
    "WorkloadSpec",
    "build_registry",
    "calibrate_handler",
    "cost_constant",
    "cost_variable",
    "load_topology",
    "parse_report",
    "parse_workload",
    "render_report",
    "write_report",
]
