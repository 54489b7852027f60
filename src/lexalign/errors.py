from pathlib import Path


class LexalignError(Exception):
    """Base class for data and protocol errors raised by this package.

    The CLI maps any subclass to exit code 2 (data error), keeping exit
    code 1 for usage mistakes.
    """


def read_text(path: Path, what: str, error: type[LexalignError]) -> str:
    r"""The text of the input file `path`, UTF-8 with or without a
    byte-order mark, with each "\r\n" and "\r" read as "\n".

    Line readers split the text at "\n" alone, so U+2028, U+0085 and
    form feeds stay inside a line. A file that cannot be opened or
    decoded raises `error`, naming it as the `what` at `path`.
    """
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
