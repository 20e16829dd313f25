"""Tamper-evident system logging with forward-secure keys, signed blocks,
sealed storage, and a mutually authenticated retrieval channel."""

from .errors import (
    AlreadyExists,
    AuthFailure,
    ChannelClosed,
    InvalidParameter,
    KeyUnavailable,
    NegotiationFailure,
    ParseError,
    ReplayDetected,
    SealogError,
    StorageError,
)
from .keyschedule import ChainParams, RootLoggingKey
from .identity import DeviceIdentity
from .logchain import Block, LogRecord, VerificationReport
from .sealstore import ChainState, SealedStore, verify_store
from .collector import IngestPolicy, LogWriter, RawEntry, ingest, parse_line
from .retrieval import LogExportServer, RetrievalRequest, audit, fetch

__version__ = "0.1.0"

__all__ = [
    "AlreadyExists",
    "AuthFailure",
    "Block",
    "ChainParams",
    "ChainState",
    "ChannelClosed",
    "DeviceIdentity",
    "IngestPolicy",
    "InvalidParameter",
    "KeyUnavailable",
    "LogExportServer",
    "LogRecord",
    "LogWriter",
    "NegotiationFailure",
    "ParseError",
    "RawEntry",
    "ReplayDetected",
    "RetrievalRequest",
    "RootLoggingKey",
    "SealedStore",
    "SealogError",
    "StorageError",
    "VerificationReport",
    "audit",
    "fetch",
    "ingest",
    "parse_line",
    "verify_store",
    "__version__",
]
