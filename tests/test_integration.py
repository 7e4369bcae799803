"""End-to-end integration tests spanning the whole stack."""


from repro import quick_ssd_comparison
from repro.characterization.platform import VirtualTestPlatform
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.ssd.config import SsdConfig
from repro.ssd.controller import simulate_policies
from repro.ssd.metrics import normalized_response_times
from repro.workloads import catalog_workload

from oracles.chip import ChipGeometry, NandChip


class TestQuickComparison:
    def test_quick_ssd_comparison_orders_policies(self):
        result = quick_ssd_comparison(num_requests=150, read_ratio=0.95,
                                      pe_cycles=1000, retention_months=6.0,
                                      seed=3)
        assert set(result) == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}
        assert result["NoRR"] < result["PnAR2"] < result["Baseline"]
        assert result["PR2"] < result["Baseline"]


class TestChipVersusAnalyticModel:
    def test_chip_retry_counts_match_error_model_walk(self, error_model):
        """The behavioural chip and the analytic walk agree (within sampling)."""
        chip = NandChip(geometry=ChipGeometry.small(), chip_id=0,
                        codewords_per_read=1, temperature_c=85.0, seed=0)
        address = chip.geometry.make_address(0, 0, 4, 7)
        chip.set_block_condition(address, pe_cycles=1000, retention_months=6.0)
        chip_result = chip.read_with_retry(address)
        analytic = error_model.walk_retry_table(
            OperatingCondition(1000, 6.0, 85.0), address.page_type)
        assert chip_result.succeeded
        assert abs(chip_result.retry_steps - analytic.retry_steps) <= 2


class TestCharacterizationFeedsTheSimulator:
    def test_rpt_built_from_characterization_is_consumed_by_ar2(self):
        platform = VirtualTestPlatform(num_chips=3, blocks_per_chip=2,
                                       wordlines_per_block=1, seed=2)
        from repro.characterization.rpt_builder import build_rpt

        rpt = build_rpt(platform)
        assert isinstance(rpt, ReadTimingParameterTable)

        config = SsdConfig.tiny()
        footprint = int(config.logical_pages * 0.5)

        def requests():
            return catalog_workload("mds_1", footprint, seed=9,
                                    mean_interarrival_us=800.0).generate(120)

        results = simulate_policies(["Baseline", "PnAR2", "NoRR"], requests,
                                    config=config, pe_cycles=2000,
                                    retention_months=12.0, rpt=rpt)
        normalized = normalized_response_times(
            {name: result.metrics for name, result in results.items()})
        assert normalized["NoRR"] < normalized["PnAR2"] < 1.0


class TestImprovementGrowsWithAging:
    def test_pnar2_gain_larger_under_worse_conditions(self, default_rpt):
        """Section 7.2, third observation: the worse the operating condition,
        the larger the benefit of the proposed techniques."""
        config = SsdConfig.tiny()
        footprint = int(config.logical_pages * 0.5)

        def requests():
            return catalog_workload("usr_1", footprint, seed=4,
                                    mean_interarrival_us=800.0).generate(150)

        gains = []
        for pec, months in ((0, 1.0), (1000, 6.0), (2000, 12.0)):
            results = simulate_policies(["Baseline", "PnAR2"], requests,
                                        config=config, pe_cycles=pec,
                                        retention_months=months,
                                        rpt=default_rpt)
            normalized = normalized_response_times(
                {name: result.metrics for name, result in results.items()})
            gains.append(1.0 - normalized["PnAR2"])
        assert gains[0] < gains[-1]
        assert gains[-1] > 0.2


class TestWriteDominantWorkloadStillBenefits:
    def test_stg0_sees_read_side_improvement(self, default_rpt):
        """Section 7.2: even stg_0 (read ratio 0.15) benefits because its
        reads still suffer read-retry."""
        config = SsdConfig.tiny()
        footprint = int(config.logical_pages * 0.5)

        def requests():
            return catalog_workload("stg_0", footprint, seed=5,
                                    mean_interarrival_us=500.0).generate(200)

        results = simulate_policies(["Baseline", "PnAR2"], requests,
                                    config=config, pe_cycles=2000,
                                    retention_months=6.0, rpt=default_rpt)
        baseline_read = results["Baseline"].metrics.mean_response_time_us("read")
        pnar2_read = results["PnAR2"].metrics.mean_response_time_us("read")
        assert pnar2_read < baseline_read
