"""Mixed-codec deployments: sharding contract and negotiation plumbing,
and what the second codec is for.

Modulation compression must shrink every stock profile's wire — real
U-plane frames of seeded samples packed under both negotiated codecs,
headers included — and srsRAN's width-3 config by at least
:data:`REDUCTION_FLOOR` against its width-9 BFP baseline.  The codec
choice must reach the wire: the 8-cell benchmark all on modcomp is a
different run than all on BFP.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.conformance import generators as gen
from repro.eval.scale import bench_spec
from repro.fronthaul.compression import MOD_COMP_METH
from repro.fronthaul.timing import SymbolTime
from repro.ran.mplane import RuCapabilities
from repro.ran.stacks import ALL_PROFILES, negotiate_compression, profile_by_name
from repro.scale import Scenario, ScenarioSpec, run_scenario
from repro.scale.build import build_cell
from repro.scale.spec import CellSpec, RuSpec
from tests.conformance.builders import uplane_packet

#: Minimum srsRAN modcomp wire-byte reduction vs its BFP-9 baseline.
REDUCTION_FLOOR = 2.0
#: Carrier of the wire measurement (the 40 MHz clean-matrix cell).
NUM_PRB = 106
#: Packed frames per (profile, codec): 14 symbols x 2 antennas x 2 slots.
FRAMES = 56

#: codec painted onto the 8 bench cells: a BFP/modcomp checkerboard
#: plus explicit-default and pinned-bfp cells.
_CODEC_PAINT = [None, "modcomp", "bfp", "modcomp", None, "modcomp",
                "modcomp", None]


def _mixed_spec(slots=3):
    data = bench_spec(slots).to_dict()
    for cell, codec in zip(data["cells"], _CODEC_PAINT):
        cell["codec"] = codec
    data["name"] = "mixed-codec-8cell"
    return ScenarioSpec.from_dict(data)


def test_cell_spec_rejects_unknown_codec():
    with pytest.raises(ValueError, match="codec"):
        CellSpec(
            name="c",
            pci=1,
            bandwidth_hz=20_000_000,
            codec="zstd",
            rus=(RuSpec(name="c-ru1"),),
        )


def test_codec_survives_dict_round_trip():
    spec = _mixed_spec()
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert [cell.codec for cell in again.cells] == _CODEC_PAINT
    assert again == spec


def test_codec_changes_the_group_fingerprints():
    base = bench_spec(3).group_fingerprints()
    mixed = _mixed_spec(3).group_fingerprints()
    changed = {
        cell.name
        for cell, codec in zip(bench_spec(3).cells, _CODEC_PAINT)
        if codec is not None
    }
    # Every group containing a repainted cell must re-fingerprint (even
    # an explicit "bfp" is new build identity); the untouched ones must
    # not — a delta should rebuild only what moved.
    for group, digest in base.items():
        group_cells = {
            cell.name
            for cell in _mixed_spec(3).groups()[group]
        }
        if group_cells & changed:
            assert mixed[group] != digest, group
        else:
            assert mixed[group] == digest, group


def test_built_cell_carries_negotiated_config():
    spec = _mixed_spec()
    for du_id, cell_spec in enumerate(spec.cells, start=1):
        built = build_cell(
            spec, cell_spec, du_id, spec.ru_id_base(cell_spec.name)
        )
        profile = profile_by_name(cell_spec.profile)
        expected = negotiate_compression(
            profile, cell_spec.codec, RuCapabilities()
        )
        assert built.config.compression == expected
        assert built.du.compression == expected
        for ru, _position in built.rus.values():
            assert ru.config.compression == expected
        if cell_spec.codec == "modcomp":
            assert built.config.compression.comp_meth == MOD_COMP_METH


def test_mixed_codec_digest_differs_from_all_bfp():
    mixed = Scenario(_mixed_spec()).run(workers=1)
    all_bfp = Scenario(bench_spec(3)).run(workers=1)
    assert mixed.digest != all_bfp.digest


def test_mixed_codec_sharded_digest_matches_single_process():
    # The acceptance bar: the codec is per-cell state that must survive
    # sharding untouched at every worker count.
    scenario = Scenario(_mixed_spec())
    single = scenario.run(workers=1)
    for workers in (2, 4, 8):
        sharded = scenario.run(workers=workers)
        assert sharded.digest == single.digest, (
            f"mixed-codec digest diverged at workers={workers}"
        )
        assert sharded.timeline() == single.timeline()


@given(spec=gen.scenario_specs())
@settings(max_examples=30, deadline=None)
def test_negotiation_round_trips_through_spec_dicts(spec):
    # Serializing a spec and re-negotiating from the round-tripped copy
    # must land every cell on the identical wire config.
    again = ScenarioSpec.from_dict(spec.to_dict())
    for before, after in zip(spec.cells, again.cells):
        assert after.codec == before.codec
        assert negotiate_compression(
            profile_by_name(after.profile), after.codec
        ) == negotiate_compression(
            profile_by_name(before.profile), before.codec
        )


def modcomp_bench_spec(slots=40):
    """The 8-cell benchmark with every cell negotiated onto modcomp."""
    base = bench_spec(slots)
    return dataclasses.replace(
        base,
        name="scale-bench-8cell-modcomp",
        cells=tuple(
            dataclasses.replace(cell, codec="modcomp") for cell in base.cells
        ),
    )


def _wire_bytes(profile, codec, seed=10):
    """Bytes on the wire of FRAMES full U-plane frames of seeded samples."""
    compression = negotiate_compression(profile, codec)
    rng = np.random.default_rng(seed)
    return sum(
        len(uplane_packet(
            0, NUM_PRB, seq % 256,
            SymbolTime(0, 0, seq // 14 % 2, seq % 14),
            compression,
            samples=rng.integers(
                -4096, 4096, size=(NUM_PRB, 24), dtype=np.int16
            ),
        ).pack())
        for seq in range(FRAMES)
    )


def _reduction(profile):
    return _wire_bytes(profile, "bfp") / _wire_bytes(profile, "modcomp")


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_modcomp_shrinks_the_wire(profile):
    assert "modcomp" in profile.supported_codecs()
    assert _reduction(profile) > 1.0


def test_srsran_modcomp_meets_the_reduction_floor():
    assert _reduction(profile_by_name("srsRAN")) >= REDUCTION_FLOOR


def test_codec_switch_reaches_the_wire():
    assert (
        run_scenario(modcomp_bench_spec(8)).digest
        != run_scenario(bench_spec(8)).digest
    )
