"""Segment reads, reconstruction, and header scans.

The reader serves payload ranges from segments, transparently
reconstructing any shard it cannot (or prefers not to) read directly:
failed drives, corrupted pages, and — when an avoidance policy is
supplied — drives that are busy servicing segment writes (the
read-around-writes scheduling of Section 4.4). Reconstruction reads the
same byte slice from the surviving shards and solves the 7+2 code for
just the missing positions.

Header scans support recovery: reading the first page of each write
unit yields the self-describing segio headers, from which segments, log
records, and sequence bounds are rediscovered.
"""

from repro.errors import DeviceFailedError, UncorrectableError
from repro.layout.segment import SegioHeader
from repro.obs.trace import NULL_OBS
from repro.units import MICROSECOND

#: Device-level re-reads of a corrupted page before falling back to
#: parity reconstruction.
READ_RETRY_LIMIT = 2
#: Fail-fast retry budget once a drive is already suspect: retrying a
#: sick drive mostly burns latency, reconstruction is cheaper.
SUSPECT_RETRY_LIMIT = 1
#: Base host-side backoff before a read retry; doubles per attempt.
READ_RETRY_BACKOFF = 250 * MICROSECOND


class DriveRetryStats:
    """Per-drive retry accounting (re-exported via core.telemetry)."""

    __slots__ = ("attempts", "exhausted")

    def __init__(self):
        #: Device-level re-reads issued after a corrupted result.
        self.attempts = 0
        #: Reads still corrupted after every retry: the reader fell
        #: through to Reed-Solomon reconstruction for that shard.
        self.exhausted = 0

    def counters(self):
        return {"attempts": self.attempts, "exhausted": self.exhausted}


class SegmentReader:
    """Read path over striped segments."""

    def __init__(self, geometry, codec, drives, avoid_policy=None, health=None):
        self.geometry = geometry
        self.codec = codec
        self.drives = drives  # name -> SimulatedSSD
        self.avoid_policy = avoid_policy
        #: Optional :class:`repro.core.health.DriveHealthMonitor`; fed
        #: every corrupted or exhausted read and every stall the array
        #: did not schedule itself.
        self.health = health
        #: Observability handle (see :mod:`repro.obs`); wired by the
        #: array. Standalone readers keep the always-off NULL_OBS.
        self.obs = NULL_OBS
        #: Optional :class:`repro.degrade.HedgePolicy`; wired by the
        #: array. When set, slow/suspect direct reads race parity
        #: reconstruction and adopt whichever finishes first.
        self.hedge = None
        self.direct_reads = 0
        self.reconstructed_reads = 0
        #: Device reads issued through the retry loop, every attempt
        #: counted — what a losing hedge arm is charged from.
        self.device_reads = 0
        self.retry_stats = {}  # drive name -> DriveRetryStats

    def _drive_for(self, descriptor, shard):
        drive_name, _au = descriptor.placements[shard]
        drive = self.drives.get(drive_name)
        if drive is None or drive.failed:
            return None
        return drive

    def stats_for(self, drive_name):
        stats = self.retry_stats.get(drive_name)
        if stats is None:
            stats = DriveRetryStats()
            self.retry_stats[drive_name] = stats
        return stats

    def retry_report(self):
        """drive name -> retry counters, for telemetry."""
        return {
            name: stats.counters()
            for name, stats in sorted(self.retry_stats.items())
        }

    def _read_with_retry(self, drive, offset, length):
        """Read with escalating retry/backoff; returns the final result.

        Each retry charges an exponentially-growing host-side backoff
        on top of the device read, and the returned latency is the
        *sum* over attempts (the caller waited through all of them).
        Suspect drives get a shorter retry budget — fail fast and let
        reconstruction serve the read. Every outcome feeds the health
        monitor, which may auto-fail the drive mid-sequence; the loop
        then stops retrying and reports the read as exhausted. Of the
        stalls, only those the array did not schedule are evidence: a
        read that waited behind the array's own segment program
        (``program_stall``) is the device working as specified.
        """
        health = self.health
        #: One health "region" per write unit: repeated reads of the
        #: same damaged unit are one piece of evidence, not many.
        region = offset // self.geometry.write_unit
        result = drive.read(offset, length)
        self.device_reads += 1
        total_latency = result.latency
        if health is not None and result.unscheduled_stall:
            health.note_stalled(drive.name)
        budget = READ_RETRY_LIMIT
        if health is not None and health.is_suspect(drive.name):
            budget = SUSPECT_RETRY_LIMIT
        attempts = 0
        while result.corrupted and attempts < budget:
            if health is not None:
                health.note_corrupted(drive.name, region=region)
            if drive.failed:
                break  # the health monitor auto-failed it under us
            self.stats_for(drive.name).attempts += 1
            backoff = READ_RETRY_BACKOFF * (2 ** attempts)
            attempts += 1
            result = drive.read(offset, length)
            self.device_reads += 1
            total_latency += backoff + result.latency
            if health is not None and result.unscheduled_stall:
                health.note_stalled(drive.name)
        if result.corrupted:
            self.stats_for(drive.name).exhausted += 1
            if health is not None:
                health.note_corrupted(drive.name, region=region)
                health.note_exhausted(drive.name, region=region)
        result.latency = total_latency
        return result

    def _body_offset(self, descriptor, shard, segio, within_body):
        au_start = descriptor.au_start(shard, self.geometry)
        return self.geometry.device_offset(
            au_start, segio, self.geometry.wu_header_size + within_body
        )

    def read_payload(self, descriptor, payload_offset, length):
        """Read a payload byte range; returns (bytes, latency).

        Chunks are issued in parallel, so the request latency is the
        slowest chunk (per-drive queueing is modelled by the devices).
        """
        parts = []
        latencies = [0.0]
        for segio, shard, within, chunk_length in self.geometry.split_payload_range(
            payload_offset, length
        ):
            data, latency = self._read_chunk(
                descriptor, segio, shard, within, chunk_length
            )
            parts.append(data)
            latencies.append(latency)
        # Nearly every range lies inside one shard body: hand that chunk
        # over as it is instead of joining a list of one.
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        return data, max(latencies)

    def _should_avoid(self, drive):
        return self.avoid_policy is not None and self.avoid_policy(drive)

    def _read_chunk(self, descriptor, segio, shard, within, length):
        drive = self._drive_for(descriptor, shard)
        avoided = drive is not None and self._should_avoid(drive)
        if drive is not None and not avoided:
            offset = self._body_offset(descriptor, shard, segio, within)
            hedge = self.hedge
            if hedge is not None and hedge.should_hedge(drive, offset):
                return self._hedged_read(
                    descriptor, segio, shard, within, length, drive, offset
                )
            result = self._read_with_retry(drive, offset, length)
            if not result.corrupted:
                self.direct_reads += 1
                return result.data, result.latency
        try:
            return self._reconstruct_chunk(descriptor, segio, shard, within, length)
        except UncorrectableError:
            if not avoided or drive.failed:
                raise
            # Avoidance is an optimization, never a correctness rule:
            # when too few calm shards survive, read the busy drive.
            result = drive.read(
                self._body_offset(descriptor, shard, segio, within), length
            )
            if result.corrupted:
                raise
            self.direct_reads += 1
            return result.data, result.latency

    def _hedged_read(self, descriptor, segio, shard, within, length, drive,
                     offset):
        """Race a direct read against parity reconstruction (§4.4).

        Both arms issue; the arm with the lower simulated completion
        latency is adopted (reconstruction also wins outright when the
        direct read comes back corrupted). Results are byte-identical
        either way — the differential test in ``tests/degrade``
        guarantees it — so hedging only ever trades extra device reads
        for bounded tail latency. The device reads the losing arm
        actually issued are charged to ``hedge.wasted``.
        """
        hedge = self.hedge
        hedge.note_fired()
        with self.obs.span("segread.hedge", segment=descriptor.segment_id,
                           segio=segio, shard=shard) as span:
            before_direct = self.device_reads
            direct = self._read_with_retry(drive, offset, length)
            before_reconstruct = self.device_reads
            try:
                data, reconstruct_latency = self._reconstruct_chunk(
                    descriptor, segio, shard, within, length
                )
            except UncorrectableError:
                # Too few calm survivors to race: the direct arm is all
                # we have, and it must be clean to serve the read.
                if direct.corrupted:
                    raise
                hedge.note_outcome(
                    won=False, wasted=self.device_reads - before_reconstruct
                )
                span.set(won=False, lat=direct.latency)
                self.direct_reads += 1
                return direct.data, direct.latency
            if direct.corrupted or reconstruct_latency <= direct.latency:
                hedge.note_outcome(
                    won=True,
                    wasted=0 if direct.corrupted
                    else before_reconstruct - before_direct,
                )
                span.set(won=True, lat=reconstruct_latency)
                return data, reconstruct_latency
            hedge.note_outcome(
                won=False, wasted=self.device_reads - before_reconstruct
            )
            span.set(won=False, lat=direct.latency)
        self.direct_reads += 1
        return direct.data, direct.latency

    def _reconstruct_chunk(self, descriptor, segio, target_shard, within, length):
        """Rebuild one shard slice from the others via Reed-Solomon.

        Prefers shards on drives the avoidance policy likes — and, when
        a hedge policy is wired, drives whose predicted wait is under
        the hedge deadline. Disliked drives are read only when nothing
        else can complete the stripe. The ordering is independent of
        whether hedging is *enabled* (it uses the pure deadline check),
        so hedge-on and hedge-off runs reconstruct identically.
        """
        obs = self.obs
        with obs.span("segread.reconstruct", segment=descriptor.segment_id,
                      segio=segio, shard=target_shard) as span:
            shards = [None] * self.geometry.total_shards
            latencies = [0.0]
            available = 0
            candidates = [
                shard for shard in range(self.geometry.total_shards)
                if shard != target_shard
            ]
            hedge = self.hedge

            def _reluctance(shard):
                drive = self._drive_for(descriptor, shard)
                if drive is None:
                    return (False, False)
                stalling = hedge is not None and hedge.would_wait(
                    drive, self._body_offset(descriptor, shard, segio, within)
                )
                return (self._should_avoid(drive), stalling)

            candidates.sort(key=_reluctance)
            for shard in candidates:
                if available >= self.geometry.data_shards:
                    break  # k survivors suffice; skip further reads
                drive = self._drive_for(descriptor, shard)
                if drive is None:
                    continue
                result = self._read_with_retry(
                    drive, self._body_offset(descriptor, shard, segio, within),
                    length,
                )
                if result.corrupted:
                    continue
                shards[shard] = result.data
                latencies.append(result.latency)
                available += 1
            if available < self.geometry.data_shards:
                span.set(available=available)
                raise UncorrectableError(
                    "segment %d segio %d: only %d of %d shards readable"
                    % (
                        descriptor.segment_id,
                        segio,
                        available,
                        self.geometry.data_shards,
                    )
                )
            # ``shards`` has a second empty slot (k of the other k+m-1
            # were read); only the target's is worth rebuilding.
            complete = self.codec.reconstruct(shards, targets=(target_shard,))
            self.reconstructed_reads += 1
            latency = max(latencies)
            span.set(lat=latency)
        obs.metrics.counter("segread.reconstructed").inc()
        return complete[target_shard], latency

    def read_header(self, drive, au_index, segio_index):
        """Read one write-unit header; returns (SegioHeader or None, latency)."""
        device_offset = self.geometry.device_offset(
            au_index * self.geometry.au_size, segio_index, 0
        )
        try:
            result = drive.read(device_offset, self.geometry.wu_header_size)
        except (DeviceFailedError, ValueError):
            return None, 0.0
        if result.corrupted:
            return None, result.latency
        return SegioHeader.decode(result.data), result.latency

    def scan_headers(self, units):
        """Scan segio headers over (drive_name, au_index) pairs.

        Returns (headers, latency). Per-drive reads serialize; drives
        scan in parallel, so latency is the slowest drive's total.
        Headers are deduplicated by (segment, segio) — they are
        replicated on every shard.
        """
        per_drive_latency = {}
        seen = set()
        headers = []
        for drive_name, au_index in units:
            drive = self.drives.get(drive_name)
            if drive is None or drive.failed:
                continue
            for segio_index in range(self.geometry.segios_per_segment):
                header, latency = self.read_header(drive, au_index, segio_index)
                per_drive_latency[drive_name] = (
                    per_drive_latency.get(drive_name, 0.0) + latency
                )
                if header is None:
                    continue
                dedupe_key = (header.segment_id, header.segio_index)
                if dedupe_key not in seen:
                    seen.add(dedupe_key)
                    headers.append(header)
        return headers, max(per_drive_latency.values(), default=0.0)

    def read_log_record(self, descriptor, locator):
        """Fetch one log record by its (payload_offset, length) locator."""
        offset, length = locator
        return self.read_payload(descriptor, offset, length)
