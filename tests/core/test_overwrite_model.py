"""Random overwrites at every alignment versus a flat reference model.

A seeded tape of sector-aligned writes of 0.5–80 KiB (so extents
overlap at arbitrary offsets, multi-cblock writes included), unmaps,
reads, snapshot + clone, ``drain``, GC, background dedup, a flatten of
a volume's medium, and ``crash`` → ``recover`` with and without a
drain first runs against one ``bytearray`` per volume. Every read, and
a full read of every volume at the end (then again off the drives,
whole and with two drives pulled), must equal the model: an
overwrite may shadow an older extent anywhere, and only the extent it
replaces at its key keeps a remainder by reference — whichever the
write path picks, the bytes a client sees are the model's. The
background paths (GC's repoint, background dedup, flatten) and replay
put extents back into the map, and none of them may change a byte.

Deterministic like ``test_stateful.py`` (fixed seeds, no search).
"""

import pytest

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.sim.rand import RandomStream
from repro.units import KIB, SECTOR
from repro.workloads.datagen import DataGenerator

VOLUME_SIZE = 256 * KIB
MAX_IO = 80 * KIB
MAX_CLONES = 3


def _play(seed, ops, inline_dedup):
    config = ArrayConfig.small(seed=seed, inline_dedup=inline_dedup)
    array = PurityArray.create(config)
    stream = RandomStream(seed).fork("overwrite-model")
    generator = DataGenerator("virtualization", stream.fork("data"))
    array.create_volume("v0", VOLUME_SIZE)
    model = {"v0": bytearray(VOLUME_SIZE)}

    def pick_range():
        length = stream.randint(1, MAX_IO // SECTOR) * SECTOR
        offset = stream.randint(0, (VOLUME_SIZE - length) // SECTOR) * SECTOR
        return offset, length

    for step in range(ops):
        volume = stream.choice(sorted(model))
        roll = stream.random()
        if roll < 0.55:
            offset, length = pick_range()
            # Profile-shaped 4 KiB blocks, cut at a sector skew so that
            # duplicate runs start off the cblock grid too.
            skew = stream.randint(0, 7) * SECTOR
            blocks = generator.buffer((skew + length + 4095) // 4096 * 4096)
            data = blocks[skew:skew + length]
            array.write(volume, offset, data)
            model[volume][offset:offset + length] = data
        elif roll < 0.62:
            offset, length = pick_range()
            array.unmap(volume, offset, length)
            model[volume][offset:offset + length] = bytes(length)
        elif roll < 0.90:
            offset, length = pick_range()
            assert array.read(volume, offset, length)[0] \
                == model[volume][offset:offset + length], \
                "seed %d step %d: %s[%d:+%d]" % (seed, step, volume,
                                                 offset, length)
        elif roll < 0.93 and len(model) <= MAX_CLONES:
            clone = "v%d" % len(model)
            array.snapshot(volume, "s-%s" % clone)
            array.clone(volume, "s-%s" % clone, clone)
            model[clone] = bytearray(model[volume])
        elif roll < 0.95:
            array.drain()
        elif roll < 0.96:
            array.run_gc(max_segments=4)
        elif roll < 0.965:
            array.gc.background_dedup()
        elif roll < 0.97:
            array.gc.flatten_medium(array.volumes.anchor_medium(volume))
        else:
            if roll < 0.995:
                array.drain()
            shelf, boot_region, clock = array.crash()
            array, _report = PurityArray.recover(config, shelf, boot_region,
                                                 clock)
    for volume, expected in sorted(model.items()):
        assert array.read(volume, 0, VOLUME_SIZE)[0] == expected, \
            "seed %d final read of %s" % (seed, volume)
    # Again off the drives, whole and then with two drives pulled: each
    # run is read once and each pulled shard's slice rebuilt once.
    array.drain()
    for pulled in ([], array.shelf.drives[:2]):
        for drive in pulled:
            array.fail_drive(drive.name)
        array.datapath.drop_caches()
        for volume, expected in sorted(model.items()):
            assert array.read(volume, 0, VOLUME_SIZE)[0] == expected, \
                "seed %d read of %s, %d drives pulled" % (seed, volume,
                                                          len(pulled))


@pytest.mark.parametrize("inline_dedup", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_random_overwrites_match_the_flat_model(seed, inline_dedup):
    _play(seed, 300, inline_dedup)


@pytest.mark.slow
@pytest.mark.parametrize("inline_dedup", [True, False])
@pytest.mark.parametrize("seed", range(100, 140))
def test_random_overwrites_match_the_flat_model_long(seed, inline_dedup):
    _play(seed, 400, inline_dedup)
