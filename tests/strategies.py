"""Hypothesis strategies for the integers the package reads as text from outside:
the values of artifact headers."""

from hypothesis import strategies as st

_NON_ASCII_DIGITS = [str.maketrans("0123456789", digits)
                     for digits in ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")]

# integers well past every guard, of up to 41 characters
HUGE = st.integers(10**6, 10**40)


def number_text(plain):
    """Text for an integer drawn from ``plain``: as is, signed, with ``_``
    separators or in non-ASCII digits, or else junk text."""
    return st.one_of(
        plain.map(str),
        plain.map(lambda v: f"+{v}"),
        plain.map(lambda v: f"{v:_}"),
        st.builds(str.translate, plain.map(str), st.sampled_from(_NON_ASCII_DIGITS)),
        st.text(alphabet="xé.-_+ ", max_size=4),
        st.sampled_from(["1e3", "0x10", "3.5", "nan", "²", "9" * 5000]),
    )
