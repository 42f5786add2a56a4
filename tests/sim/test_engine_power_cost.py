"""Power model and cost model tests (the file name predates the event
engine's retirement; renaming it would rename every test id in it)."""

import pytest

from repro.sim.cost import CostModel, DeploymentCost
from repro.sim.power import ServerLoad, ServerPowerModel, deployment_power_w


class TestPowerModel:
    def test_figure14_config_a(self):
        """Two servers running 5 cells + middleboxes: ~400 W."""
        model = ServerPowerModel()
        power = deployment_power_w(
            [ServerLoad(active_cores=32), ServerLoad(active_cores=3)], model
        )
        assert 350 <= power <= 430

    def test_figure14_config_b(self):
        """One half-loaded server, one off: ~180 W."""
        model = ServerPowerModel()
        power = deployment_power_w(
            [
                ServerLoad(active_cores=12, low_freq_cores=16),
                ServerLoad(active_cores=0, powered=False),
            ],
            model,
        )
        assert 160 <= power <= 210

    def test_off_server_draws_nothing(self):
        assert deployment_power_w([ServerLoad(32, powered=False)]) == 0.0

    def test_low_freq_cheaper_than_active(self):
        model = ServerPowerModel()
        assert model.power_w(16, 0) > model.power_w(0, 16)

    def test_core_budget_enforced(self):
        with pytest.raises(ValueError):
            ServerPowerModel().power_w(20, 20)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            ServerPowerModel().power_w(-1)


class TestCostModel:
    def test_appendix_a2_calibration(self):
        """~$60k commodity cost; 41% cheaper than conventional DAS at a
        50% margin (Appendix A.2)."""
        deployment = DeploymentCost()
        base = deployment.ranbooster_usd() / (1 + deployment.vendor_margin)
        assert base == pytest.approx(60_000, rel=0.03)
        assert deployment.conventional_usd() == pytest.approx(154_030)
        assert deployment.savings_fraction() == pytest.approx(0.41, abs=0.02)

    def test_cost_scales_with_rus(self):
        model = CostModel()
        small = model.ranbooster_deployment_usd(n_rus=4)
        large = model.ranbooster_deployment_usd(n_rus=16)
        assert large > small

    def test_rejects_zero_rus(self):
        with pytest.raises(ValueError):
            CostModel().ranbooster_deployment_usd(n_rus=0)

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            CostModel().conventional_das_usd(0)
