"""Small file helpers: atomic writes, JSON and JSON-lines parsing.

Every artifact the pipeline emits goes through atomic_write so that rerunning
a stage either replaces the file completely or leaves the old one intact.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path

from .errors import ParseError


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
