"""Exception types shared across the pipeline.

Plain I/O failures are left to the builtin OSError family; everything that
reflects a contract violation of our own gets a named class here so callers
(and the CLI exit-code mapping) can tell usage errors from internal ones.
"""

from __future__ import annotations


class SumforgeError(Exception):
    """Base class for all domain errors raised by this package."""


# --- ingest ---

class UnsupportedEncoding(SumforgeError):
    def __init__(self, name: str):
        super().__init__(f"unsupported encoding: {name!r}")
        self.name = name


class InvalidUtf8(SumforgeError):
    pass


class MissingSummary(SumforgeError):
    pass


class EmptyArticle(SumforgeError):
    pass


class UnpairedFile(SumforgeError):
    def __init__(self, doc_id: str):
        super().__init__(f"article without summary: {doc_id}")
        self.doc_id = doc_id


# --- tokenization ---

class DuplicateToken(SumforgeError):
    pass


class MissingSpecial(SumforgeError):
    def __init__(self, name: str):
        super().__init__(f"vocabulary lacks special token {name}")
        self.name = name


class TooLong(SumforgeError):
    pass


class CorruptShard(SumforgeError):
    def __init__(self, path: str, line_no: int, reason: str = ""):
        msg = f"corrupt shard line {line_no} in {path}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.path = path
        self.line_no = line_no


class IdOutOfRange(SumforgeError):
    pass


# --- tensor ---

class ShapeMismatch(SumforgeError):
    pass


class InvalidAxis(SumforgeError):
    pass


class NotScalar(SumforgeError):
    pass


class GraphCycle(SumforgeError):
    pass


# --- model ---

class InvalidConfig(SumforgeError):
    pass


class PositionOverflow(SumforgeError):
    pass


class IndexOutOfRange(SumforgeError):
    pass


class AllMasked(SumforgeError):
    pass


class FormatVersionMismatch(SumforgeError):
    pass


class ModelKindMismatch(SumforgeError):
    pass


# --- train ---

class EmptyCorpus(SumforgeError):
    pass


class ConfigError(SumforgeError):
    pass


class NoMaskedPositions(SumforgeError):
    pass


class NonFiniteLoss(SumforgeError):
    """A training step's loss or gradient norm is NaN or infinite."""


# --- infer / rouge ---

class EmptyDocument(SumforgeError):
    pass


class LengthMismatch(SumforgeError):
    pass
