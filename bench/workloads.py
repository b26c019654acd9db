"""The four workloads and their seeded input streams.

Input generation is untimed and happens before the program under test
is built: the engine workloads receive only block-index streams and
payload bytes, the service workload only pre-encoded requests.  Every
stream is a pure function of ``(workload, seed)``; its SHA-256 is what
``bench/pins.json`` pins.

Where the traffic comes from:

* engine workloads replay the DRAM traffic of one of the paper's
  application profiles (``repro.workloads``) behind the repository's LLC
  model (``WritebackFilter``'s cache): the write phase is the LLC's
  write-back stream, the read phase its fill stream (every miss, in
  trace order), both exactly as the cache emits them;
* the service workload uses the traffic mix of the repository's own
  load generator (``repro.service.loadgen.LoadgenSpec``: every fifth op
  a read of a block the client wrote, every eighth a batch of four
  blocks, the rest single-block writes).

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``; the sizes below are what those descriptions
assume.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from repro.core.engine.config import preset
from repro.harness.runner import BLOCK_BYTES, WritebackFilter
from repro.memsim.cache.cache import AccessType
from repro.obs.metrics import MetricRegistry, use_registry
from repro.service.loadgen import LoadgenSpec
from repro.workloads.micro import MICRO_PROFILES, micro_profile
from repro.workloads.parsec import profile

MIB = 1024 * 1024

#: engine calls carry this many blocks (``write_many`` / ``read_many``)
BATCH_BLOCKS = 256
#: keystream backend of every engine and tenant
KEYSTREAM = "aesni"

#: the service's traffic mix (read_every, batch_every, batch_size)
MIX = LoadgenSpec()
#: closed-loop clients, one tenant each, on one shard: the 2-core
#: machine runs one load generator and one shard
CLIENTS = 2
SERVICE_PRESET = "combined"
CHECKPOINT_INTERVAL = 32


@dataclass(frozen=True)
class EngineWorkload:
    """An application's DRAM traffic replayed through ``BatchSecureMemory``."""

    name: str
    app: str
    preset: str
    region_mb: int
    #: cores of the trace; the LLC interleaves them round-robin
    cores: int
    accesses_per_core: int

    @property
    def region_bytes(self) -> int:
        return self.region_mb * MIB

    def engine_config(self):
        return preset(
            self.preset, protected_bytes=self.region_bytes, keystream_mode=KEYSTREAM
        )


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of clients against one shard, one tenant each."""

    name: str = "service"
    ops_per_client: int = 500
    region_kb: int = 256

    def tenant_ids(self) -> list[str]:
        return [f"bench-{index}" for index in range(CLIENTS)]

    def provision_request(self, tenant: str) -> dict:
        return {
            "op": "provision",
            "tenant": tenant,
            "preset": SERVICE_PRESET,
            "region_kb": self.region_kb,
            "keystream": KEYSTREAM,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
        }


WORKLOADS: dict[str, EngineWorkload | ServiceWorkload] = {
    "scatter": EngineWorkload(
        name="scatter",
        app="gups",
        preset="combined",
        region_mb=64,
        cores=2,
        accesses_per_core=10_000,
    ),
    "stream": EngineWorkload(
        name="stream",
        app="stream",
        preset="combined",
        region_mb=64,
        cores=2,
        accesses_per_core=25_000,
    ),
    "overflow": EngineWorkload(
        name="overflow",
        app="facesim",
        preset="endurance",
        region_mb=2,
        # The paper's four threads (Table 1): each core's solver owns a
        # hot set of its own, so a pass's overflow work averages four
        # independent ones; with two cores it swung by 11% from seed
        # to seed.
        cores=4,
        accesses_per_core=30_000,
    ),
    "service": ServiceWorkload(),
}


def _payload(*parts: object) -> bytes:
    return hashlib.sha512("/".join(map(str, parts)).encode()).digest()


def dram_traffic(traces: list) -> tuple[list[int], list[int]]:
    """The LLC's DRAM traffic for ``traces``: (write-backs, fills).

    The loop of ``WritebackFilter.filter`` (round-robin over the cores,
    same cache), keeping the misses as well; block indices, in order.
    """
    cache = WritebackFilter().cache
    writebacks: list[int] = []
    fills: list[int] = []
    iterators = [iter(trace) for trace in traces]
    live = list(range(len(iterators)))
    while live:
        finished = []
        for slot in live:
            record = next(iterators[slot], None)
            if record is None:
                finished.append(slot)
                continue
            _, is_write, address = record
            result = cache.access(
                address, AccessType.WRITE if is_write else AccessType.READ
            )
            if not result.hit:
                fills.append(address // BLOCK_BYTES)
            if result.writeback_address is not None:
                writebacks.append(result.writeback_address // BLOCK_BYTES)
        for slot in finished:
            live.remove(slot)
    return writebacks, fills


@dataclass
class EngineInputs:
    """What the engine receives: block streams and the bytes to write."""

    writes: np.ndarray
    payloads: bytes
    reads: np.ndarray

    def sha256(self) -> str:
        h = hashlib.sha256()
        for part in (self.writes, self.reads):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part.astype("<i8").tobytes())
        h.update(self.payloads)
        return h.hexdigest()

    def payload(self, index: int) -> bytes:
        return self.payloads[index * BLOCK_BYTES : (index + 1) * BLOCK_BYTES]

    def op_count(self) -> int:
        return len(self.writes) + len(self.reads)


def engine_inputs(workload: EngineWorkload, seed: int) -> EngineInputs:
    """The seeded write-back stream, its payloads, and the fill stream.

    Fills of blocks the write phase never writes are left out: the
    engine initialises such blocks lazily on first read, a simulator
    artefact with no hardware counterpart.
    """
    app = (
        micro_profile(workload.app)
        if workload.app in MICRO_PROFILES
        else profile(workload.app)
    )
    region_blocks = workload.region_bytes // BLOCK_BYTES
    # The LLC model meters its lookups; keep them out of any registry
    # the program under test will use.
    with use_registry(MetricRegistry()):
        traces = app.traces(
            workload.accesses_per_core, region_blocks, workload.cores, seed
        )
        writebacks, fills = dram_traffic(traces)
    written = set(writebacks)
    payloads = b"".join(
        _payload("bench", workload.name, seed, index)
        for index in range(len(writebacks))
    )
    return EngineInputs(
        writes=np.asarray(writebacks, dtype=np.int64),
        payloads=payloads,
        reads=np.asarray([b for b in fills if b in written], dtype=np.int64),
    )


@dataclass
class ServiceInputs:
    """Per-client request sequences plus the expected final contents.

    ``ops[k]`` is client ``k``'s sequence of ``(kind, request, expected)``
    where ``expected`` is the hex payload a read must return (``None``
    for writes).  ``final[k]`` maps every address client ``k`` wrote to
    its last payload: the shadow the verify sweep reads back.
    """

    ops: list[list[tuple[str, dict, str | None]]]
    final: list[dict[int, str]]
    dirty_groups: int
    written_blocks: int

    def sha256(self) -> str:
        body = json.dumps(self.ops, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()

    def op_count(self) -> int:
        return sum(len(sequence) for sequence in self.ops)

    def read_count(self) -> int:
        return sum(kind == "read" for seq in self.ops for kind, _, _ in seq)


def service_inputs(workload: ServiceWorkload, seed: int) -> ServiceInputs:
    """Each client's ops, chosen by the load generator's rule.

    Op ``n`` is a read when ``n % read_every == 2`` and the client has
    written something (of a block it wrote, uniformly, so every read
    has a known expected payload), else a batch when
    ``n % batch_every == 1``, else a single-block write; addresses are
    uniform over the tenant's region.
    """
    scheme = preset(
        SERVICE_PRESET, protected_bytes=workload.region_kb * 1024
    ).build_scheme()
    blocks = workload.region_kb * 1024 // BLOCK_BYTES
    ops: list[list[tuple[str, dict, str | None]]] = []
    finals: list[dict[int, str]] = []
    dirty_groups = written_blocks = 0
    for tenant in workload.tenant_ids():
        rng = random.Random(f"bench.service/{tenant}/{seed}")
        shadow: dict[int, str] = {}
        addresses: list[int] = []
        sequence: list[tuple[str, dict, str | None]] = []
        for index in range(workload.ops_per_client):
            if index % MIX.read_every == 2 and addresses:
                address = addresses[rng.randrange(len(addresses))]
                request = {"op": "read", "tenant": tenant, "address": address}
                sequence.append(("read", request, shadow[address]))
                continue
            count = MIX.batch_size if index % MIX.batch_every == 1 else 1
            writes = []
            for offset in range(count):
                address = rng.randrange(blocks) * BLOCK_BYTES
                data = _payload("bench.service", tenant, seed, index, offset).hex()
                if address not in shadow:
                    addresses.append(address)
                shadow[address] = data
                writes.append([address, data])
            dirty_groups += len(
                {scheme.group_of(address // BLOCK_BYTES) for address, _ in writes}
            )
            written_blocks += count
            if count == 1:
                address, data = writes[0]
                request = {
                    "op": "write",
                    "tenant": tenant,
                    "address": address,
                    "data": data,
                }
                sequence.append(("write", request, None))
            else:
                request = {"op": "batch", "tenant": tenant, "writes": writes}
                sequence.append(("batch", request, None))
        ops.append(sequence)
        finals.append(shadow)
    return ServiceInputs(
        ops=ops,
        final=finals,
        dirty_groups=dirty_groups,
        written_blocks=written_blocks,
    )


def inputs_for(
    workload: EngineWorkload | ServiceWorkload, seed: int
) -> EngineInputs | ServiceInputs:
    if isinstance(workload, EngineWorkload):
        return engine_inputs(workload, seed)
    return service_inputs(workload, seed)
