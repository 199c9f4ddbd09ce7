"""A range scan costs O(patches * log n + answer): a counted guard.

No wall clock. A scan may build no patch, re-sort no memtable, merge no
patches, and may read out of the patches only the facts that lie in the
requested range — the same number whatever the size of the index.
"""

from repro.pyramid import patch as patch_module
from repro.pyramid import pyramid as pyramid_module
from repro.pyramid.memtable import MemTable
from repro.pyramid.patch import Patch
from repro.pyramid.pyramid import Pyramid
from repro.pyramid.tuples import Fact

PATCHES = 16
MEMTABLE_FACTS = 512
LO_KEY, HI_KEY = (1, 1000), (1, 1002)


class CountedFacts(tuple):
    """A patch's ``facts`` tuple that counts every fact read out of it."""

    def __new__(cls, facts, reads):
        counted = super().__new__(cls, facts)
        counted.reads = reads
        return counted

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.reads[0] += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        self.reads[0] += len(self)
        return super().__iter__()


def build(facts_per_patch):
    """Every patch holds every key; the memtable holds every eighth."""
    pyramid = Pyramid("guard")
    reads = [0]
    for seqno in range(1, PATCHES + 1):
        patch = Patch(
            Fact((1, offset), seqno, (seqno,)) for offset in range(facts_per_patch)
        )
        patch.facts = CountedFacts(patch.facts, reads)
        pyramid.adopt_patch(patch)
    for index in range(MEMTABLE_FACTS):
        pyramid.insert(Fact((1, index * 8), 100, ("buffered",)))
    return pyramid, reads


def forbid(monkeypatch, owner, name):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a range scan called %s" % name)

    monkeypatch.setattr(owner, name, forbidden)


def reads_of_three_key_scan(monkeypatch, facts_per_patch):
    pyramid, reads = build(facts_per_patch)
    with monkeypatch.context() as patched:
        forbid(patched, Patch, "__init__")
        forbid(patched, MemTable, "to_patch")
        forbid(patched, patch_module, "merge_patches")
        forbid(patched, pyramid_module, "merge_patches")
        answer = list(pyramid.scan_latest(LO_KEY, HI_KEY))
    assert answer == [
        Fact((1, 1000), 100, ("buffered",)),
        Fact((1, 1001), PATCHES, (PATCHES,)),
        Fact((1, 1002), PATCHES, (PATCHES,)),
    ]
    return reads[0]


def test_three_key_scan_reads_only_its_range(monkeypatch):
    reads = reads_of_three_key_scan(monkeypatch, 4096)
    in_range = 3 * PATCHES  # every stored version of the three keys
    sources = PATCHES + 1
    assert 0 < reads <= in_range + sources
    # Index size is not a term: 4x the facts per patch, the same reads.
    assert reads_of_three_key_scan(monkeypatch, 4 * 4096) == reads
