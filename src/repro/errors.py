"""Exception hierarchy for the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one base class.  Subsystems get
their own branch to keep failure modes distinguishable in tests and ETL
logs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# Expression language


class ExpressionError(ReproError):
    """Base class for errors in the shared expression language."""


class LexError(ExpressionError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(ExpressionError):
    """Raised when the parser cannot produce an AST from a token stream."""

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class EvaluationError(ExpressionError):
    """Raised when an expression cannot be evaluated against an environment."""


class UnknownIdentifierError(EvaluationError):
    """Raised when an expression references a name absent from the environment."""

    def __init__(self, name: str):
        super().__init__(f"unknown identifier: {name!r}")
        self.name = name


class UnknownFunctionError(EvaluationError):
    """Raised when an expression calls a function that is not registered."""

    def __init__(self, name: str):
        super().__init__(f"unknown function: {name!r}")
        self.name = name


# --------------------------------------------------------------------------
# Relational engine


class RelationalError(ReproError):
    """Base class for errors raised by the in-memory relational engine."""


class SchemaError(RelationalError):
    """Raised for schema violations: unknown columns, duplicate tables, ..."""


class TypeMismatchError(RelationalError):
    """Raised when a value cannot be coerced to its column's declared type."""


class IntegrityError(RelationalError):
    """Raised when a constraint (primary key, not-null) would be violated."""


class QueryError(RelationalError):
    """Raised when a logical query plan is malformed or cannot execute."""


# --------------------------------------------------------------------------
# UI model


class UIError(ReproError):
    """Base class for errors in the declarative GUI model."""


class ControlError(UIError):
    """Raised for invalid control definitions or duplicate control names."""


class DataEntryError(UIError):
    """Raised when a simulated data-entry session violates form rules."""


class DisabledControlError(DataEntryError):
    """Raised when a session writes to a control whose enablement is off."""


class RequiredControlError(DataEntryError):
    """Raised when a required control is left empty at form save time."""


# --------------------------------------------------------------------------
# Design patterns


class PatternError(ReproError):
    """Base class for database design pattern errors."""


class PatternConfigError(PatternError):
    """Raised when a pattern is instantiated with inconsistent parameters."""


class PatternWriteError(PatternError):
    """Raised when a naive row cannot be stored through a pattern."""


class PatternReadError(PatternError):
    """Raised when a pattern cannot reconstruct the naive relation."""


# --------------------------------------------------------------------------
# GUAVA


class GuavaError(ReproError):
    """Base class for g-tree construction and query translation errors."""


class GTreeError(GuavaError):
    """Raised for malformed g-trees (duplicate paths, orphan nodes, ...)."""


class DerivationError(GuavaError):
    """Raised when a g-tree cannot be derived from a form definition."""


class TranslationError(GuavaError):
    """Raised when a g-tree query cannot be lowered to relational algebra."""


# --------------------------------------------------------------------------
# MultiClass


class MultiClassError(ReproError):
    """Base class for study schema / classifier errors."""


class DomainError(MultiClassError):
    """Raised for invalid domain definitions or out-of-domain values."""


class StudySchemaError(MultiClassError):
    """Raised for malformed study schemas (cycles, duplicate entities, ...)."""


class ClassifierError(MultiClassError):
    """Raised for invalid classifiers or classification failures."""


class StudyError(MultiClassError):
    """Raised when a study definition is inconsistent."""


class VersioningError(MultiClassError):
    """Raised during classifier propagation across tool versions."""


# --------------------------------------------------------------------------
# ETL


class ETLError(ReproError):
    """Base class for ETL workflow errors."""


class WorkflowError(ETLError):
    """Raised for malformed workflow graphs (cycles, missing inputs)."""


class CompileError(ETLError):
    """Raised when a study cannot be compiled into an ETL workflow."""


# --------------------------------------------------------------------------
# Durable storage


class StorageError(ReproError):
    """Base class for durability subsystem errors (WAL, snapshots, recovery)."""


class WalCorruptionError(StorageError):
    """Raised when the write-ahead log holds a corrupt *non-tail* frame.

    A torn tail (a frame cut short by the end of the file or by the
    reserve's zeros, the expected outcome of a crash during an append) is
    tolerated and truncated; corruption anywhere a
    complete frame should be — a bad magic, a failed CRC over a complete
    frame — means a committed region was damaged and recovery must fail
    loudly rather than silently drop a durable write.
    """


class SnapshotCorruptionError(StorageError):
    """Raised when a snapshot file fails its CRC or framing checks."""


class RecoveryError(StorageError):
    """Raised when no consistent state can be reconstructed from disk."""


# --------------------------------------------------------------------------
# Warehouse


class WarehouseError(ReproError):
    """Base class for warehouse/materialization errors."""


class MaterializationError(WarehouseError):
    """Raised when a study schema cannot be materialized."""


# --------------------------------------------------------------------------
# Clinical generator


class ClinicalDataError(ReproError):
    """Raised by the synthetic clinical world generator."""
