"""Exception types shared across the package, and the one reader of
integers in input text, which every entry point loads with them."""


class DisplabError(Exception):
    """Base class for all displab errors."""


class ParseError(DisplabError):
    """Malformed digraph file, family string or CLI input."""


class SizeLimitError(DisplabError):
    """Input exceeds a hard size cap of the requested algorithm, or an
    enumeration would produce more objects than its cap."""


def _decimal(text: str) -> int:
    """An ASCII decimal integer with an optional leading '-'; no '+', no
    '_' separators, no spaces, no other digits.  A text that int() refuses
    gets its error; the others int() takes are refused in its words, which
    show at most 200 characters of the text's repr."""
    value = int(text)
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(
            f"invalid literal for int() with base 10: {text!r:.200}")
    return value
