"""The binary container behind sample, checkpoint and training-state files.

Every file is little-endian: a 4-byte magic, a u16 version, then a body.
Checkpoint and training-state bodies share one layout:

    u32 header length, UTF-8 ``key=value`` lines (one config dataclass)
    u32 record count, then per record:
        u16 name length, UTF-8 name, u8 ndim, ndim x u32 shape,
        one or more ``<f4`` arrays of that shape

Readers raise FormatError with the byte offset of the first malformation,
including bytes left over after the body. Writers go to a temporary file
next to the target and ``os.replace`` it, so a killed run leaves either
the old file or the new one, never a truncated one.

The same module maps config dataclasses to and from their ``key=value``
text: the key set and each value's type come from the dataclass fields.
"""

import dataclasses
import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import CompatibilityError, ConfigError, FormatError


# -- config dataclasses as key=value text ---------------------------------------


def config_items(config):
    """(key, text) pairs of a config dataclass in field order.

    Nested dataclass fields are flattened in place. Floats are written with
    ``repr`` so they read back exactly; tuples as comma lists.
    """
    items = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(f.type):
            items += config_items(value)
        elif f.type is tuple:
            items.append((f.name, ",".join(str(v) for v in value)))
        else:
            items.append((f.name, repr(value) if f.type is float else str(value)))
    return items


def config_text(config) -> str:
    """config_items as ``key=value`` lines, each ending in a newline."""
    return "".join(f"{k}={v}\n" for k, v in config_items(config))


def config_from_items(cls, items):
    """Inverse of config_items; keys left out take the field defaults.

    An unknown or missing key, or a value that does not parse as its
    field's type, raises ConfigError naming the key.
    """
    raw = dict(items)
    config = _build(cls, raw)
    if raw:
        raise ConfigError(f"unknown key {next(iter(raw))!r}")
    return config


def config_from_text(cls, text):
    """config_from_items over ``key=value`` lines.

    Each line and each key and value are stripped; blank lines and lines
    starting with ``#`` are skipped. A line without ``=`` or a repeated key
    raises ConfigError naming the line.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return config_from_items(cls, raw.items())


def _build(cls, raw):
    kw = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            kw[f.name] = _build(f.type, raw)
        elif f.name in raw:
            kw[f.name] = _parse_value(f.name, raw.pop(f.name), f.type)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing key {f.name!r}")
    return cls(**kw)


def _parse_value(key, value, kind):
    try:
        if kind is tuple:
            return tuple(int(v) for v in value.split(","))
        return kind(value)
    except ValueError:
        what = "comma list of ints" if kind is tuple else kind.__name__
        raise ConfigError(f"{key}={value!r} is not a valid {what}") from None


# -- reading --------------------------------------------------------------------


class Reader:
    """A cursor over one container file, checked against magic and version.

    ``what`` names the format in error messages. A bad magic is a
    FormatError; a stored version other than ``version`` is a
    CompatibilityError, since the file may be well formed for another build.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.pos = 0
        self.what = what
        if self.take(len(magic)) != magic:
            raise FormatError(f"not a {what} file (bad magic)", offset=0)
        (stored,) = self.unpack("<H")
        if stored != version:
            raise CompatibilityError(
                f"{what} version {stored} unsupported (this build reads "
                f"{version})"
            )

    def take(self, n: int) -> bytes:
        start = self.pos
        if start + n > len(self.blob):
            raise FormatError(
                f"{self.what} truncated: wanted {n} bytes, file has "
                f"{len(self.blob) - start} left",
                offset=start,
            )
        self.pos = start + n
        return self.blob[start : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        """The next array of ``dtype`` and ``shape``, read-only."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        return np.frombuffer(self.take(n), dtype).reshape(shape)

    def header(self, cls):
        """The length-prefixed key=value header, parsed into dataclass cls.

        Bytes that are not UTF-8, lines that config_from_text rejects, and
        keys or values that cls rejects raise FormatError at the offset
        where the header text starts.
        """
        (n,) = self.unpack("<I")
        start = self.pos
        text = self.take(n)
        try:
            return config_from_text(cls, text.decode("utf-8"))
        except ValueError as e:
            raise FormatError(f"bad {self.what} header: {e}", offset=start) from None

    def tensors(self, targets) -> None:
        """Fill arrays in place from the tensor records.

        targets is a list of (name, arrays) in file order; each record must
        carry that name and the arrays' common shape, and holds one array
        per target array. A mismatch raises CompatibilityError.
        """
        (count,) = self.unpack("<I")
        if count != len(targets):
            raise CompatibilityError(
                f"{self.what} stores {count} tensors, model has {len(targets)}"
            )
        for name, arrays in targets:
            (n,) = self.unpack("<H")
            stored = self.take(n).decode("utf-8", errors="replace")
            if stored != name:
                raise CompatibilityError(
                    f"{self.what} tensor {stored!r} does not match model "
                    f"tensor {name!r}"
                )
            (ndim,) = self.unpack("<B")
            shape = self.unpack(f"<{ndim}I")
            if shape != arrays[0].shape:
                raise CompatibilityError(
                    f"{self.what} tensor {name!r} has shape {shape}, model "
                    f"wants {arrays[0].shape}"
                )
            for a in arrays:
                a[...] = self.array("<f4", shape)

    def end(self) -> None:
        """Reject bytes after the body."""
        if self.pos != len(self.blob):
            raise FormatError(
                f"trailing data: {len(self.blob) - self.pos} unexpected bytes",
                offset=self.pos,
            )


# -- writing --------------------------------------------------------------------


@contextmanager
def atomic_open(path, mode: str = "wb"):
    """Open a temporary sibling of path; on success it replaces path.

    If the block raises, the temporary file is removed and path keeps its
    old content. No fsync: this guards against a killed process, not
    against power loss.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


class Writer:
    """Appends container fields to an open binary file."""

    def __init__(self, f):
        self.f = f

    def pack(self, fmt: str, *values) -> None:
        self.f.write(struct.pack(fmt, *values))

    def array(self, values, dtype) -> None:
        self.f.write(np.ascontiguousarray(values, dtype=dtype))

    def header(self, config) -> None:
        encoded = config_text(config).encode("utf-8")
        self.pack(f"<I{len(encoded)}s", len(encoded), encoded)

    def tensors(self, records) -> None:
        """records: (name, arrays) pairs, all arrays of one record one shape."""
        self.pack("<I", len(records))
        for name, arrays in records:
            encoded = name.encode("utf-8")
            shape = np.shape(arrays[0])
            self.pack(f"<H{len(encoded)}sB{len(shape)}I", len(encoded),
                      encoded, len(shape), *shape)
            for a in arrays:
                self.array(a, "<f4")


@contextmanager
def create(path, magic: bytes, version: int):
    """A Writer on a new container file, started with magic and version."""
    with atomic_open(path) as f:
        w = Writer(f)
        w.pack(f"<{len(magic)}sH", magic, version)
        yield w
