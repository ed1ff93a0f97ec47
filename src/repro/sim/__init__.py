"""The packet-level discrete-event simulator substrate (the ns-3 stand-in)."""

from .buffer import BufferConfig, SharedBuffer
from .ecn import EcnConfig, EcnMarker, EcnPolicy
from .engine import PeriodicTask, SimulationError, Simulator, Timer
from .flow import FctRecord, FlowSpec, FlowTable
from .link import Link
from .nic import HostNic, NicConfig
from .packet import IntHop, Packet, PacketType
from .pfc import PauseInterval, PauseTracker, PfcConfig, PfcController
from .queues import EgressPort
from .switch import Switch

__all__ = [
    "BufferConfig",
    "EcnConfig",
    "EcnMarker",
    "EcnPolicy",
    "EgressPort",
    "FctRecord",
    "FlowSpec",
    "FlowTable",
    "HostNic",
    "IntHop",
    "Link",
    "NicConfig",
    "Packet",
    "PacketType",
    "PauseInterval",
    "PauseTracker",
    "PeriodicTask",
    "PfcConfig",
    "PfcController",
    "SharedBuffer",
    "SimulationError",
    "Simulator",
    "Switch",
    "Timer",
]
