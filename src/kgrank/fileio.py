"""Small file helpers: atomic writes, JSON and JSON-lines parsing, and
array archives.

Every artifact the pipeline emits goes through atomic_write so that rerunning
a stage either replaces the file completely or leaves the old one intact.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ParseError

# The format of every array archive (index and checkpoint files). Format 1
# was a JSON document; it is not read any more.
ARCHIVE_FORMAT_VERSION = 2
# Every archive member carries this date, so equal arrays give equal bytes.
_ARCHIVE_DATE = (1980, 1, 1, 0, 0, 0)


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write text (as UTF-8) or bytes to path via a temp file + rename in the
    same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str | Path, kind: str) -> object:
    """Parse a whole-file JSON artifact; malformed JSON raises a ParseError
    naming the file and the line where the parser stopped."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: malformed {kind} JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {kind} is not UTF-8 text") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for each non-empty line of a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
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
