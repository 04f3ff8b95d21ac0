"""The one base class of glot's library errors.

Every error a malformed input or a misuse of the API raises derives from
``GlotError`` (and from the builtin it refines, such as ``ValueError``),
so the command line maps them all to exit 2 with one ``error:`` line.
Numeric divergence is not among them: it derives from ``ArithmeticError``
and exits 3.
"""


class GlotError(Exception):
    """An input or a call violates one of glot's contracts."""
