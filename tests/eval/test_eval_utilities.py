"""Tests for eval helpers: report formatting, wire sizing, the CLI."""

import pytest

from repro.eval.fig15 import cplane_wire_bytes, uplane_wire_bytes
from repro.eval.report import format_table


class TestFormatTable:
    def test_alignment_and_header_rule(self):
        text = format_table(
            "Title", ("name", "value"), [("a", 1.0), ("longer", 23.456)]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert set(lines[2]) <= {"-", " "}
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # every row padded to the same width

    def test_float_formatting(self):
        text = format_table("t", ("x",), [(3.14159,)])
        assert "3.1" in text
        assert "3.14159" not in text

    def test_empty_rows(self):
        text = format_table("t", ("a", "b"), [])
        assert "a" in text and "b" in text


class TestWireSizes:
    def test_100mhz_uplane_frame_is_jumbo(self):
        """Section 5: 100 MHz cells generate packets > 7 KB; the estimate
        must match the real serialized size."""
        estimated = uplane_wire_bytes(273)
        assert estimated > 7_000
        # Compare against a real serialized frame.
        import numpy as np

        from repro.fronthaul.cplane import Direction
        from repro.fronthaul.ethernet import MacAddress
        from repro.fronthaul.packet import make_packet
        from repro.fronthaul.timing import SymbolTime
        from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

        section = UPlaneSection.from_samples(
            0, 0, np.zeros((273, 24), dtype=np.int16)
        )
        packet = make_packet(
            MacAddress.from_int(1), MacAddress.from_int(2),
            UPlaneMessage(direction=Direction.DOWNLINK,
                          time=SymbolTime(0, 0, 0, 0), sections=[section]),
        )
        assert estimated == packet.wire_size

    def test_40mhz_uplane_below_xdp_limit(self):
        from repro.core.datapath import XdpDatapath

        assert XdpDatapath().supports_frame(uplane_wire_bytes(106))
        assert not XdpDatapath().supports_frame(uplane_wire_bytes(273))

    def test_cplane_frame_small(self):
        assert cplane_wire_bytes() < 64


class TestEvalCli:
    def test_subset_runs(self, capsys):
        from repro.eval.__main__ import main

        assert main(["appendix_a2"]) == 0
        out = capsys.readouterr().out
        assert "appendix_a2" in out
        assert "CapEx" in out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.eval.__main__ import main

        assert main(["figNaN"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_offers_exactly_the_paper_ids(self, capsys):
        """The figures, the appendix and mobility; the CI gates are
        pytest modules, not experiments."""
        from repro.eval.__main__ import main

        assert main(["?"]) == 2
        available = capsys.readouterr().out.splitlines()[-1]
        assert available.removeprefix("available: ").split(", ") == [
            "fig10a", "fig10b", "fig10c", "table2", "fig11", "fig12",
            "fig13", "fig14", "fig15a", "fig15a_measured", "fig15b",
            "fig16", "mobility", "appendix_a1", "appendix_a2",
        ]
        # No experiment takes a horizon or a worker count any more.
        with pytest.raises(SystemExit):
            main(["fig10a", "--slots", "8"])
