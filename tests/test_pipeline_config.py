"""Tests for machine configurations and feature variants."""

import pytest

from repro.pipeline.config import (
    Features,
    MachineConfig,
    PolicyKind,
    RecyclePolicy,
)


class TestFeatures:
    def test_labels(self):
        assert Features.smt().label == "SMT"
        assert Features.tme_only().label == "TME"
        assert Features.rec().label == "REC"
        assert Features.rec_ru().label == "REC/RU"
        assert Features.rec_rs().label == "REC/RS"
        assert Features.rec_rs_ru().label == "REC/RS/RU"

    def test_all_variants_cover_figure3(self):
        variants = Features.all_variants()
        assert set(variants) == {"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"}

    def test_recycle_requires_tme(self):
        with pytest.raises(ValueError):
            Features(recycle=True)

    def test_reuse_requires_recycle(self):
        with pytest.raises(ValueError):
            Features(tme=True, reuse=True)


class TestPolicy:
    def test_str_round_trip(self):
        for kind in PolicyKind:
            for limit in (8, 16, 32):
                p = RecyclePolicy(kind, limit)
                assert RecyclePolicy.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            RecyclePolicy.parse("sometimes-8")


class TestMachineConfigs:
    def test_baseline_is_papers(self):
        cfg = MachineConfig.big_2_16()
        assert cfg.fetch_threads == 2
        assert cfg.fetch_block == 8
        assert cfg.fetch_total == 16
        assert cfg.num_contexts == 8
        assert cfg.int_units == 12 and cfg.fp_units == 6 and cfg.ldst_ports == 8
        assert cfg.int_queue_size == 64
        assert cfg.phys_regs_per_file() == 32 * 8 + 100

    def test_big_1_8(self):
        cfg = MachineConfig.big_1_8()
        assert cfg.fetch_threads == 1 and cfg.fetch_total == 8
        assert cfg.int_units == 12  # same 18 functional units

    def test_small_halves_resources(self):
        small = MachineConfig.small_1_8()
        big = MachineConfig.big_2_16()
        assert small.int_units * 2 == big.int_units
        assert small.fp_units * 2 == big.fp_units
        assert small.int_queue_size * 2 == big.int_queue_size
        assert small.hierarchy.icache.size * 2 == big.hierarchy.icache.size

    def test_small_2_8_shares_8_slots(self):
        cfg = MachineConfig.small_2_8()
        assert cfg.fetch_threads == 2 and cfg.fetch_total == 8

    def test_by_name(self):
        for name in ("big.2.16", "big.1.8", "small.1.8", "small.2.8"):
            assert MachineConfig.by_name(name).name == name
        with pytest.raises(ValueError):
            MachineConfig.by_name("huge.4.32")

    def test_an_int_is_a_valid_float(self):
        assert MachineConfig(squash_penalty_per_uop=1).squash_penalty_per_uop == 1

    @pytest.mark.parametrize("field, value", [
        ("active_list_size", True),
        ("active_list_size", 32.0),
        ("recycle_repredict", 1),
        ("alt_queue_pressure", "0.5"),
        ("hierarchy", None),
        ("confidence_kind", "bogus"),
    ])
    def test_refuses_what_would_run_as_another_machine(self, field, value):
        with pytest.raises((TypeError, ValueError), match=field):
            MachineConfig(**{field: value})
