"""Exception hierarchy shared by every module, and the one integer reader.

Each class carries a short machine-readable ``code`` so the CLI can emit
``ERR:<code>: message`` lines without string matching. ``read_int`` is the
only code that turns text into an int; it reads n only as ``str(n)`` spells it.
"""

#: the most steps (candidate divisors tried, values listed, trial divisors,
#: table entries) one search or listing may take; besides it, the only limits
#: are the bounds a caller passes (degree_bound, exponent_bound, coeff_bound,
#: max_steps, ceiling)
WORK_BUDGET = 1 << 16


class CompalgError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "domain"


class RingMismatchError(CompalgError):
    """Two operands belong to different rings (or monoids)."""

    code = "ring-mismatch"


class NotAUnitError(CompalgError):
    """Inverse requested for an element with no inverse."""

    code = "not-a-unit"


class MembershipError(CompalgError):
    """A coefficient or exponent falls outside its declared subset."""

    code = "membership"


class EmbeddingError(CompalgError):
    """No embedding is declared between the two given rings."""

    code = "no-embedding"


class CeilingError(CompalgError):
    """Work over the budget (``check_work``) or a stated bound, refused before it starts."""

    code = "ceiling"


class ParameterError(CompalgError):
    """A precondition on operation parameters is violated."""

    code = "parameter"


class FormatError(CompalgError):
    """A textual form (ring name, polynomial, key file) failed to parse."""

    code = "format"


def check_work(steps: int, what: str) -> None:
    """Refuse, before it starts, work of more than WORK_BUDGET steps."""
    if steps > WORK_BUDGET:
        raise CeilingError(
            f"{what} needs at least {steps} steps, above the work budget {WORK_BUDGET}"
        )


def read_int(text: str, error: str, signed: bool = False) -> int:
    """The n that text spells as str(n) does: ASCII digits without a leading zero,
    after one '-' only when signed, and no more digits than int() converts. Any
    other spelling, such as '+5', '4_0', ' 4', '04' or '-0', raises FormatError(error)."""
    digits = text[1:] if signed and text.startswith("-") else text
    if digits.isascii() and digits.isdigit() and (digits[0] != "0" or text == "0"):
        try:
            return int(text)
        except ValueError:  # over the interpreter's digit limit
            pass
    raise FormatError(error)
