"""Stateful property test: the array versus a reference model.

Hypothesis drives random sequences of operations — writes, overwrites,
unmaps, snapshots, clones, drains, checkpoints, GC passes, scrubs,
drive pulls, and controller crashes — against both the real array and a
trivially correct in-memory model. After every step, reads must agree.

This is the strongest single correctness statement in the suite: no
ordering of maintenance and failure events may ever lose or corrupt an
acknowledged write.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.recovery import recover_array
from repro.sim.rand import RandomStream
from repro.units import KIB, SECTOR

pytestmark = pytest.mark.slow

VOLUME_SIZE = 512 * KIB
MAX_IO = 8 * KIB

offsets = st.integers(min_value=0, max_value=(VOLUME_SIZE - MAX_IO) // SECTOR)
lengths = st.integers(min_value=1, max_value=MAX_IO // SECTOR)


class ArrayMachine(RuleBasedStateMachine):
    """Random operation sequences against array + reference."""

    @initialize()
    def setup(self):
        self.config = ArrayConfig.small(seed=1234)
        self.array = PurityArray.create(self.config)
        self.stream = RandomStream(99)
        self.array.create_volume("v", VOLUME_SIZE)
        self.reference = {"v": bytearray(VOLUME_SIZE)}
        self.snapshots = {}  # (volume, name) -> frozen bytes
        self.snapshot_counter = 0
        self.clone_counter = 0
        self.failed_drives = 0

    # ------------------------------------------------------------------
    # Data operations

    @rule(volume_index=st.integers(min_value=0, max_value=5),
          offset=offsets, length=lengths, salt=st.integers(0, 255))
    def write(self, volume_index, offset, length, salt):
        volume = self._pick_volume(volume_index)
        byte_offset = offset * SECTOR
        byte_length = min(length * SECTOR,
                          len(self.reference[volume]) - byte_offset)
        if byte_length <= 0:
            return
        payload = bytes([salt]) + self.stream.randbytes(byte_length - 1)
        self.array.write(volume, byte_offset, payload)
        self.reference[volume][byte_offset : byte_offset + byte_length] = payload

    @rule(volume_index=st.integers(min_value=0, max_value=5),
          offset=offsets, length=lengths)
    def read_and_check(self, volume_index, offset, length):
        volume = self._pick_volume(volume_index)
        byte_offset = offset * SECTOR
        byte_length = min(length * SECTOR,
                          len(self.reference[volume]) - byte_offset)
        if byte_length <= 0:
            return
        data, _latency = self.array.read(volume, byte_offset, byte_length)
        expected = bytes(
            self.reference[volume][byte_offset : byte_offset + byte_length]
        )
        assert data == expected

    @rule(volume_index=st.integers(min_value=0, max_value=5),
          offset=offsets, length=lengths)
    def unmap(self, volume_index, offset, length):
        volume = self._pick_volume(volume_index)
        byte_offset = offset * SECTOR
        byte_length = min(length * SECTOR,
                          len(self.reference[volume]) - byte_offset)
        if byte_length <= 0:
            return
        self.array.unmap(volume, byte_offset, byte_length)
        self.reference[volume][byte_offset : byte_offset + byte_length] = (
            b"\x00" * byte_length
        )

    # ------------------------------------------------------------------
    # Snapshots and clones

    @rule(volume_index=st.integers(min_value=0, max_value=5))
    def snapshot(self, volume_index):
        volume = self._pick_volume(volume_index)
        name = "s%d" % self.snapshot_counter
        self.snapshot_counter += 1
        self.array.snapshot(volume, name)
        self.snapshots[(volume, name)] = bytes(self.reference[volume])

    @precondition(lambda self: self.snapshots and self.clone_counter < 4)
    @rule(pick=st.integers(min_value=0, max_value=100))
    def clone_from_snapshot(self, pick):
        keys = sorted(self.snapshots)
        volume, name = keys[pick % len(keys)]
        clone = "c%d" % self.clone_counter
        self.clone_counter += 1
        self.array.clone(volume, name, clone)
        self.reference[clone] = bytearray(self.snapshots[(volume, name)])

    # ------------------------------------------------------------------
    # Maintenance and failures

    @rule()
    def drain(self):
        self.array.drain()

    @rule()
    def checkpoint(self):
        self.array.checkpoint()

    @rule()
    def run_gc(self):
        self.array.run_gc(max_segments=2)

    @rule()
    def scrub(self):
        self.array.scrub(max_segments=2)

    @precondition(lambda self: self.failed_drives < 2)
    @rule()
    def pull_drive(self):
        alive = [name for name, drive in self.array.drives.items()
                 if not drive.failed]
        self.array.fail_drive(alive[0])
        self.array.datapath.drop_caches()
        self.failed_drives += 1

    @precondition(lambda self: self.failed_drives > 0)
    @rule()
    def rebuild_and_replace(self):
        self.array.rebuild()
        for name in [n for n, d in self.array.drives.items() if d.failed]:
            self.array.replace_drive(name)
        self.failed_drives = 0

    @rule()
    def crash_and_recover(self):
        shelf, boot_region, clock = self.array.crash()
        self.array, _report = recover_array(
            PurityArray, self.config, shelf, boot_region, clock
        )

    # ------------------------------------------------------------------

    def _pick_volume(self, index):
        volumes = sorted(self.reference)
        return volumes[index % len(volumes)]

    @invariant()
    def spot_check_first_block(self):
        if not hasattr(self, "reference"):
            return
        for volume in self.reference:
            data, _ = self.array.read(volume, 0, SECTOR)
            assert data == bytes(self.reference[volume][:SECTOR])


# Derandomised and database-free: every run draws the same 12 examples,
# so tier-1 cannot pass or fail by chance. Known failing sequences are
# pinned below as explicit tests instead of being met one run in six.
ArrayMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None,
    derandomize=True, database=None,
)
TestArrayStateMachine = ArrayMachine.TestCase


def test_double_recovery_on_a_degraded_shelf_keeps_the_volume():
    """The sequence the random search used to find one run in six."""
    machine = ArrayMachine()
    machine.setup()
    steps = [
        (machine.checkpoint, {}),
        (machine.pull_drive, {}),
        (machine.pull_drive, {}),
        (machine.rebuild_and_replace, {}),
        (machine.write, dict(volume_index=0, offset=0, length=1, salt=0)),
        (machine.pull_drive, {}),
        (machine.crash_and_recover, {}),
        (machine.crash_and_recover, {}),
    ]
    for step, arguments in steps:
        step(**arguments)
        machine.spot_check_first_block()
