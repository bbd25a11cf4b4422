"""Unit tests for repro.common.units."""

from repro.common import units


class TestConstants:
    def test_block_size_is_4k(self):
        assert units.BLOCK_SIZE == 4096

    def test_delayed_write_is_30_seconds(self):
        assert units.DELAYED_WRITE_SECONDS == 30.0

    def test_writeback_scan_is_5_seconds(self):
        assert units.WRITEBACK_SCAN_INTERVAL == 5.0

    def test_vm_preference_is_20_minutes(self):
        assert units.VM_PREFERENCE_SECONDS == 1200.0

    def test_byte_units_are_powers_of_1024(self):
        assert units.MB == 1024 * units.KB
        assert units.GB == 1024 * units.MB

    def test_day_is_24_hours(self):
        assert units.DAY == 24 * units.HOUR == 86400.0

    def test_cluster_defaults_match_paper(self):
        assert units.DEFAULT_CLIENT_COUNT == 40
        assert units.DEFAULT_SERVER_COUNT == 4
        assert units.DEFAULT_CLIENT_MEMORY == 24 * units.MB
        assert units.DEFAULT_SERVER_MEMORY == 128 * units.MB


class TestConversions:
    def test_bytes_to_mbytes(self):
        assert units.bytes_to_mbytes(3 * units.MB) == 3.0

