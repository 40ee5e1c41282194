"""The two layouts of the paper: their event structures and inequalities.

Index convention: left-side events come first, so the two-setting case labels
the left settings 1, 2 and the right settings 3, 4; the three-setting case
uses 1-3 (left) and 4-6 (right).
"""

from __future__ import annotations

from fractions import Fraction

from .polytope import EventStructure, Inequality


def ch_structure() -> EventStructure:
    """Two settings per side: 1,2 | 3,4 with all four cross joints."""
    return EventStructure(
        n_single=4,
        sides=((1, 2), (3, 4)),
        joints=((1, 3), (1, 4), (2, 3), (2, 4)),
    )


def ch_inequality() -> Inequality:
    """Clauser-Horne inequality, -1 <= p13+p14+p23-p24-p1-p3 <= 0.

    This is the classically valid variant subtracting the singles of the two
    settings that appear in three joints each.  The variant subtracting p1 and
    p4 instead (as sometimes printed) is not satisfied by all truth-table
    vertices; the tests check it as ``reference.ch_inequality_printed_variant``.
    """
    return Inequality(
        {
            (1, 3): Fraction(1),
            (1, 4): Fraction(1),
            (2, 3): Fraction(1),
            (2, 4): Fraction(-1),
            1: Fraction(-1),
            3: Fraction(-1),
        },
        lower=Fraction(-1),
        upper=Fraction(0),
    )


def i33_structure() -> EventStructure:
    """Three settings per side: 1,2,3 | 4,5,6 with all nine cross joints."""
    return EventStructure(
        n_single=6,
        sides=((1, 2, 3), (4, 5, 6)),
        joints=tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6)),
    )


def i33_inequality() -> Inequality:
    """The three-setting inequality
    p14+p15+p16+p24+p25-p26+p34-p35-p1-2*p4-p5 <= 0."""
    return Inequality(
        {
            (1, 4): Fraction(1),
            (1, 5): Fraction(1),
            (1, 6): Fraction(1),
            (2, 4): Fraction(1),
            (2, 5): Fraction(1),
            (2, 6): Fraction(-1),
            (3, 4): Fraction(1),
            (3, 5): Fraction(-1),
            1: Fraction(-1),
            4: Fraction(-2),
            5: Fraction(-1),
        },
        upper=Fraction(0),
    )
