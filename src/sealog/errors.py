"""Exception taxonomy shared by every sealog subsystem.

Each class maps to one failure category surfaced through the API and the
CLI exit codes; callers can catch ``SealogError`` for anything raised here.
"""


class SealogError(Exception):
    """Base class for all sealog errors."""


class InvalidParameter(SealogError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class KeyUnavailable(SealogError):
    """Key material was destroyed, erased, or never provisioned."""


class AuthFailure(SealogError):
    """Authenticated decryption, certificate, or handshake check failed."""


class ParseError(SealogError):
    """A serialized structure is malformed and cannot be decoded."""


class AlreadyExists(SealogError):
    """An object that must be written exactly once already exists."""


class StorageError(SealogError):
    """An I/O failure while reading or writing the sealed store."""


class ReplayDetected(SealogError):
    """A handshake hello or session frame was replayed."""


class NegotiationFailure(SealogError):
    """The two channel endpoints do not speak a common protocol version."""


class ChannelClosed(SealogError):
    """The transport closed before the conversation finished."""
