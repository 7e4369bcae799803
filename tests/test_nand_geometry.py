"""Tests for the TLC page types."""

from repro.nand.geometry import PageType


class TestPageType:
    def test_n_sense_matches_paper_footnote(self):
        # Footnote 14: N_SENSE = <2, 3, 2> for <LSB, CSB, MSB>.
        assert PageType.LSB.n_sense == 2
        assert PageType.CSB.n_sense == 3
        assert PageType.MSB.n_sense == 2

    def test_sensed_boundaries_are_disjoint_and_cover_all(self):
        all_boundaries = []
        for page_type in PageType:
            all_boundaries.extend(page_type.sensed_boundaries)
        assert sorted(all_boundaries) == list(range(7))

    def test_boundary_count_matches_n_sense(self):
        for page_type in PageType:
            assert len(page_type.sensed_boundaries) == page_type.n_sense
