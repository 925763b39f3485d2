"""The two text syntaxes the package reads: ``key = value`` files and
line-oriented files.  Each reader turns a file it cannot read or parse into
a DataFormatError naming the file."""

from __future__ import annotations

import configparser

from .errors import DataFormatError


def read_sections(path: str, what: str) -> dict[str, dict[str, str]]:
    """Sections of a case-sensitive ``key = value`` file, in file order,
    each value read literally (``%`` is an ordinary character).  ``what``
    names the file in errors."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str   # keys are case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
        return {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """A line-oriented file's non-blank lines, stripped of surrounding
    whitespace, each with its line number in the file (from 1), so that
    errors name the file's own line; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            return [(r, ln.strip()) for r, ln in enumerate(fh, start=1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
