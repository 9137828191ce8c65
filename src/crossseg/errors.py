"""Exception types shared across the toolkit.

DataError and its subclasses mark problems with user-supplied files or
values; the command line maps them to exit code 2. StaleGraphError marks
misuse of the autodiff tape and is a programming error, not a data error.
"""


class DataError(Exception):
    """Invalid data or file format supplied by the caller."""


class DecodeError(DataError):
    """A file could not be decoded or parsed; message names the line."""


class AlignmentError(DataError):
    """Two segmentations of supposedly equal text do not align."""


class StaleGraphError(RuntimeError):
    """backward() met a node whose tape an earlier call consumed."""
