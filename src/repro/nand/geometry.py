"""Page types of 3D TLC NAND flash memory.

The hierarchy follows Section 2.1 and Figure 1 of the paper: flash cells are
stacked vertically into NAND strings, strings at different bitlines form a
sub-block, several sub-blocks form a block, thousands of blocks form a plane,
multiple planes form a die and multiple dies form a chip.  The SSD simulator
sizes that hierarchy in :class:`repro.ssd.config.SsdConfig`; this module holds
the page types that every layer shares.

A TLC wordline stores three pages (LSB, CSB, MSB), each read with a different
number of sensing operations (``N_SENSE`` = 2, 3, 2 respectively, footnote 14
of the paper).
"""

from __future__ import annotations

import enum


class PageType(enum.Enum):
    """Bit position of a page within a TLC wordline.

    The page type determines how many threshold-voltage boundaries must be
    sensed to read the page and therefore how long the page sensing takes
    (Equation (1) of the paper).
    """

    LSB = "lsb"
    CSB = "csb"
    MSB = "msb"

    @property
    def n_sense(self) -> int:
        """Number of sensing operations required to read this page type."""
        return _N_SENSE[self]

    @property
    def sensed_boundaries(self) -> tuple:
        """Indices of the V_REF boundaries sensed for this page type.

        TLC NAND flash distinguishes eight threshold-voltage states with
        seven read-reference voltages ``VREF0 .. VREF6``.  With the standard
        2-3-2 Gray code (Figure 3(b)), the LSB page is resolved by sensing
        boundaries 0 and 4, the CSB page by boundaries 1, 3 and 5, and the
        MSB page by boundaries 2 and 6.
        """
        return _SENSED_BOUNDARIES[self]


_N_SENSE = {PageType.LSB: 2, PageType.CSB: 3, PageType.MSB: 2}

_SENSED_BOUNDARIES = {
    PageType.LSB: (0, 4),
    PageType.CSB: (1, 3, 5),
    PageType.MSB: (2, 6),
}

#: Order in which the three pages of a wordline are laid out.
PAGE_TYPE_ORDER = (PageType.LSB, PageType.CSB, PageType.MSB)
