"""Small file helpers: atomic writes, the one text-line reader and its field
rule, JSON and JSON-lines parsing and the JSON type rule, and array archives.

Every artifact the pipeline emits goes through atomic_write so that rerunning
a stage either replaces the file completely or leaves the old one intact.
"""

from __future__ import annotations

import io
import json
import os
import secrets
import zipfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError, ParseError, ValidationError

# The format of every array archive (index and checkpoint files). Format 1
# was a JSON document; it is not read any more.
ARCHIVE_FORMAT_VERSION = 2
# Every archive member carries this date, so equal arrays give equal bytes.
_ARCHIVE_DATE = (1980, 1, 1, 0, 0, 0)


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write text (as UTF-8) or bytes to path via a temp file + rename in the
    same directory. The file gets mode 0666 less the umask, as open() gives.
    A path that names a directory, or lies under a file, raises an InputError."""
    path = Path(path)
    if path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InputError(f"cannot write {path}: {path.parent} is not a directory") from exc
    tmp = path.parent / f"{path.name}.{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decoded_lines(path: str | Path, kind: str) -> Iterator[str]:
    """Each line of a text file without its line end, decoded as UTF-8, or a
    ParseError naming the file and line. Lines end at \\n, \\r\\n or a lone \\r,
    as in text-mode open; str.splitlines would also split at U+2028 and such."""
    with open(path, "rb") as fh:  # a binary read ends at \n, so \r\n stays in one
        for lineno, raw in enumerate((raw for chunk in fh for raw in chunk.splitlines()), 1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: {kind} is not UTF-8 ({exc.reason})") from exc


def read_lines(path: str | Path, kind: str, comments: bool) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line not blank and, if comments, not a '#'
    comment; its ends keep their whitespace, as a TSV field there may be empty."""
    return ((lineno, line) for lineno, line in enumerate(_decoded_lines(path, kind), start=1)
            if line.strip() and not (comments and line.lstrip().startswith("#")))


def check_field(value: str, what: str) -> str:
    """value, if a run or qrels line can hold it as one field that reads back
    as itself: non-empty, no character str.split() splits on, and no leading
    '#' (read_lines' comment mark); else a ValidationError naming what."""
    if value.split() != [value] or value.startswith("#"):
        raise ValidationError(f"{what} {value!r} is not a record field: it must be non-empty, "
                              "hold no whitespace and not start with '#'")
    return value


def check_json_type(value: object, default: object, what: str) -> object:
    """value, if it has the JSON type of default (a float default also takes an
    int; a bool is no number); else a ConfigurationError naming what."""
    kind = type(default)
    if type(value) is not kind and not (kind is float and type(value) is int):
        allowed = "int or float" if kind is float else kind.__name__
        raise ConfigurationError(f"{what} must hold {allowed}, not {value!r}")
    return value


def load_json(path: str | Path, kind: str) -> object:
    """Parse a whole-file JSON artifact; errors name the file and the line."""
    try:
        return json.loads("\n".join(_decoded_lines(path, kind)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: malformed {kind} JSON ({exc.msg})") from exc


def read_jsonl(path: str | Path, kind: str) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for each non-blank line of a JSON-lines file."""
    for lineno, line in read_lines(path, kind, comments=False):
        try:
            obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, obj


def dump_json(obj: object) -> str:
    """Deterministic JSON serialization used for all persisted artifacts."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays, in the given order after a format_version member, as an
    uncompressed .npz archive at path itself (no suffix is added). The
    members carry a fixed date, so equal arrays give byte-identical files."""
    buf = io.BytesIO()
    members = {"format_version": np.array(ARCHIVE_FORMAT_VERSION, dtype=np.int64), **arrays}
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in members.items():
            with zf.open(zipfile.ZipInfo(name + ".npy", date_time=_ARCHIVE_DATE), "w") as fh:
                np.lib.format.write_array(fh, np.asarray(arr), allow_pickle=False)
    atomic_write(path, buf.getvalue())


def load_arrays(path: str | Path, kind: str, rebuild: str,
                layout: dict[str, tuple[type, int]] | None = None) -> dict[str, np.ndarray]:
    """Read an archive written by save_arrays, without its format_version.

    Every array named in layout must be present with that dtype and number of
    dimensions. A JSON file (format 1), a damaged archive, another format
    version or a layout mismatch raises a ParseError naming the file; rebuild
    names the command that writes a current file.
    """
    with open(path, "rb") as fh:
        is_json = fh.read(1) == b"{"
    if is_json:
        raise ParseError(f"{path}: {kind} is a format-1 JSON file; format "
                         f"{ARCHIVE_FORMAT_VERSION} is an .npz archive, rebuild it with "
                         f"`{rebuild}`")
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: {kind} is not a readable .npz archive ({exc})") from exc
    version = arrays.pop("format_version", None)
    if not (isinstance(version, np.ndarray) and version.shape == ()
            and version.dtype == np.int64 and version == ARCHIVE_FORMAT_VERSION):
        raise ParseError(f"{path}: unsupported {kind} format_version (need "
                         f"{ARCHIVE_FORMAT_VERSION}); rebuild it with `{rebuild}`")
    for name, (dtype, ndim) in (layout or {}).items():
        arr = arrays.get(name)
        if arr is None:
            raise ParseError(f"{path}: {kind} has no {name!r} array")
        if not isinstance(arr, np.ndarray) or arr.dtype != dtype or arr.ndim != ndim:
            raise ParseError(f"{path}: {kind} array {name!r} must be {ndim}-d "
                             f"{np.dtype(dtype).name}")
    return arrays
