"""Per-layer rungs and the host's own speed.

The rungs are direct, timed calls into each layer's public functions.
Inputs are captured from the workload itself (its own grid, block size
and initial state), so the rungs of one workload are comparable and the
named remainders between adjacent rungs mean something.  Every number is
the median over repeated calls; a call that costs more than the per-rung
time slice gets fewer repeats (never fewer than ``MIN_CALLS``).

``HostSpeed`` and ``host_calibration`` measure the host, not the program:
the factor the end-to-end timings are divided by, and the ungated
triad / FMA rates of the provenance block.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib
from collections import defaultdict

import numpy as np

MIN_CALLS = 3
MAX_CALLS = 30


def round_robin(fns: dict, budget_s: float) -> dict[str, float]:
    """Median wall time of every ``fns[name]()``, measured in rounds.

    Each round calls every function once, so a host that speeds up or
    slows down for seconds at a time (the build host does, by +-30 %)
    moves all rungs together and the ratios between them stay
    meaningful.  3..30 rounds, as many as fit in ``budget_s``; a budget
    of 0 (the smoke run) means a single round.
    """
    samples = {name: [] for name in fns}
    t_start = time.perf_counter()
    rounds = MAX_CALLS
    done = 0
    while done < rounds:
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
        done += 1
        if done == 1:
            first = time.perf_counter() - t_start
            rounds = 1 if budget_s <= 0 else max(
                MIN_CALLS, min(MAX_CALLS, int(budget_s / first)))
    return {name: statistics.median(v) for name, v in samples.items()}


def median_seconds(fn, budget_s: float) -> float:
    """Median wall time of ``fn()`` over 3..30 calls within ``budget_s``."""
    return round_robin({"fn": fn}, budget_s)["fn"]


def solver_rungs(config, ic_fn, slice_s: float) -> dict[str, float]:
    """physics / core / node rungs at the workload's own block size."""
    from repro.core import (
        GHOSTS,
        make_stepper,
        padded_aos,
        rhs_kernel,
        sos_kernel,
        update_stage,
    )
    from repro.node import BlockGrid, Dispatcher, NodeSolver, fill_block_ghosts
    from repro.perf import kernels as kernel_model
    from repro.physics import (
        COMPUTE_DTYPE,
        Weno5Workspace,
        compute_rhs,
        conserved_to_primitive,
        hlle_flux,
        weno5,
    )

    n, h, g = config.block_size, config.h, GHOSTS
    grid = BlockGrid(config.global_blocks, n, h)
    grid.fill(ic_fn)
    boundary = config.boundary_spec()
    solver = NodeSolver(grid, boundary=boundary,
                        dispatcher=Dispatcher(num_workers=config.num_workers))
    blocks = list(grid.sfc_blocks())
    block = blocks[len(blocks) // 2]
    cells = n ** 3

    # -- physics: the stages of one RHS on one captured padded block ----------
    pad = padded_aos(n)
    pad[g:-g, g:-g, g:-g, :] = block.data
    fill_block_ghosts(pad, grid, block, boundary)
    upad = np.ascontiguousarray(np.moveaxis(pad, -1, 0), dtype=COMPUTE_DTYPE)
    wpad = conserved_to_primitive(upad)
    sweep = np.ascontiguousarray(wpad[:, g:-g, g:-g, :])  # x sweep
    workspace = Weno5Workspace(sweep.shape[:-1] + (sweep.shape[-1] - 5,),
                               dtype=sweep.dtype)
    w_minus, w_plus = weno5(sweep, workspace)
    # -- core: the kernels as the node layer calls them ------------------------
    rhs_out = rhs_kernel(pad, h)
    state, residual = block.data.copy(), np.zeros_like(block.data)
    stage = make_stepper(config.stepper).stages[1]
    # -- node: ghosts, per-block RHS, the sweep over all blocks ----------------
    rhs_map = solver.evaluate_rhs()
    rungs = {
        "conv": lambda: conserved_to_primitive(upad),
        "weno": lambda: weno5(sweep, workspace),
        "hlle": lambda: hlle_flux(w_minus, w_plus, 0),
        "rhs_phys": lambda: compute_rhs(upad, h),
        "rhs_core": lambda: rhs_kernel(pad, h),
        # dt = 0 with a zero residual leaves the state untouched while
        # doing the same arithmetic and copies as a real stage.
        "up": lambda: update_stage(state, residual, rhs_out, stage.a,
                                   stage.b, 0.0),
        "sos": lambda: sos_kernel(block.data),
        "ghosts": lambda: fill_block_ghosts(pad, grid, block, boundary),
        "rhs_block": lambda: solver.rhs_for_block(block),
        "sweep": solver.evaluate_rhs,
        "update": lambda: solver.update(rhs_map, stage.a, stage.b, 0.0),
        "max_sos": solver.max_sos,
        "to_array": grid.to_array,
    }
    t = round_robin(rungs, slice_s * len(rungs))
    conv, weno, hlle, rhs_phys = (t[k] for k in ("conv", "weno", "hlle",
                                                 "rhs_phys"))
    rhs_core, up, sos, ghosts = (t[k] for k in ("rhs_core", "up", "sos",
                                                "ghosts"))
    rhs_block, sweep_s, update = t["rhs_block"], t["sweep"], t["update"]
    max_sos, to_array = t["max_sos"], t["to_array"]

    return {
        "physics.conv_us": conv * 1e6,
        "physics.weno5_us": weno * 1e6,
        "physics.hlle_us": hlle * 1e6,
        "physics.compute_rhs_ms": rhs_phys * 1e3,
        "physics.rhs_unattributed_frac":
            1.0 - (conv + 3 * weno + 3 * hlle) / rhs_phys,
        "physics.flop_per_cell_computed": kernel_model.RHS.flops_per_cell,
        "core.rhs_kernel_ms": rhs_core * 1e3,
        "core.aos_soa_frac": 1.0 - rhs_phys / rhs_core,
        "core.update_stage_us": up * 1e6,
        "core.sos_kernel_us": sos * 1e6,
        "core.rhs_mcells_per_s": cells / rhs_core / 1e6,
        "core.up_mcells_per_s": cells / up / 1e6,
        "core.sos_mcells_per_s": cells / sos / 1e6,
        "node.blocks": len(blocks),
        "node.padded_ratio_computed": ((n + 2 * g) / n) ** 3,
        "node.fill_ghosts_us": ghosts * 1e6,
        "node.rhs_for_block_ms": rhs_block * 1e3,
        "node.ghost_frac": ghosts / rhs_block,
        "node.evaluate_rhs_ms": sweep_s * 1e3,
        "node.dispatch_overhead_frac":
            1.0 - len(blocks) * rhs_block / sweep_s,
        "node.update_ms": update * 1e3,
        "node.max_sos_ms": max_sos * 1e3,
        "node.to_array_ms": to_array * 1e3,
    }


def compression_rungs(fields, quantities, block: int, workdir: str,
                      slice_s: float) -> dict[str, float]:
    """FWT / DEC / ENC / IO split of one dump (Fig. 7 inner split).

    Per-block numbers are for one ``block``^3 block, per-field numbers
    the mean over the dumped quantities.
    """
    from repro.cluster import SimWorld
    from repro.compression import (
        WaveletCompressor,
        decimate,
        fwt3d,
        max_levels,
        read_compressed,
        write_compressed_parallel,
    )

    comm = SimWorld(1).comm(0)
    levels = max_levels(block)
    per_field = defaultdict(list)
    for name, eps in quantities:
        data = fields[name]
        compressor = WaveletCompressor(eps=eps, block_size=block,
                                       num_threads=1, guaranteed=False)
        raw = [np.ascontiguousarray(data[z:z + block, y:y + block, x:x + block])
               for z in range(0, data.shape[0], block)
               for y in range(0, data.shape[1], block)
               for x in range(0, data.shape[2], block)]
        coeffs = [fwt3d(b, levels) for b in raw]
        cf = compressor.compress(data)
        blocks = compressor.encoder.decode(cf.payload, (block,) * 3)
        path = os.path.join(workdir, f"rung_{name}.rwz")
        write_compressed_parallel(comm, path, name, cf)
        rungs = {
            # FWT and DEC over every block of the field: decimation cost
            # depends on the block's content.  decimate works in place, so
            # it is timed on copies and the copies are subtracted.
            "fwt": lambda: [fwt3d(b, levels) for b in raw],
            "dec_copy": lambda: [decimate(c.copy(), levels, eps,
                                          guaranteed=False) for c in coeffs],
            "copy": lambda: [c.copy() for c in coeffs],
            "enc": lambda: compressor.encoder.encode(blocks, 1),
            "compress": lambda: compressor.compress(data),
            "write": lambda: write_compressed_parallel(comm, path, name, cf),
            "read": lambda: read_compressed(path),
            "decompress": lambda: compressor.decompress(cf),
        }
        t = round_robin(rungs, slice_s * len(rungs))
        fwt, dec, enc = t["fwt"], t["dec_copy"] - t["copy"], t["enc"]
        kept = sum(d.total_details - d.zeroed for d in cf.stats.decimation)
        total = sum(d.total_details for d in cf.stats.decimation)
        for key, value in (
            ("fwt", fwt / len(raw)), ("dec", dec / len(raw)), ("enc", enc),
            ("compress", t["compress"]), ("write", t["write"]),
            ("read", t["read"]), ("decompress", t["decompress"]),
            ("survival", kept / total), ("bytes", len(cf.payload)),
            ("raw", data.nbytes),
            ("attributed", fwt + dec + enc),
        ):
            per_field[key].append(value)
    mean = {k: statistics.fmean(v) for k, v in per_field.items()}
    return {
        "compression.fwt_ms": mean["fwt"] * 1e3,
        "compression.dec_ms": mean["dec"] * 1e3,
        "compression.enc_ms": mean["enc"] * 1e3,
        "compression.write_ms": mean["write"] * 1e3,
        "compression.read_ms": mean["read"] * 1e3,
        "compression.decompress_ms": mean["decompress"] * 1e3,
        "compression.survival_frac": mean["survival"],
        "compression.bytes_out": sum(per_field["bytes"]),
        "compression.ratio": sum(per_field["raw"]) / sum(per_field["bytes"]),
        "compression.unattributed_frac":
            1.0 - sum(per_field["attributed"]) / sum(per_field["compress"]),
    }


def service_rungs(request, payload: dict, workdir: str,
                  slice_s: float) -> dict[str, float]:
    """Key hashing and the result cache on a real result payload."""
    from repro.service import ResultCache

    cache = ResultCache(os.path.join(workdir, "rung-cache"))
    key = request.key()
    cache.put(key, payload)
    t = round_robin({"key": request.key,
                     "put": lambda: cache.put(key, payload),
                     "get": lambda: cache.get(key)}, 3 * slice_s)
    return {"service.key_us": t["key"] * 1e6,
            "service.cache_put_ms": t["put"] * 1e3,
            "service.cache_get_ms": t["get"] * 1e3}


class HostSpeed:
    """How fast the host runs right now, as a factor of a fixed reference.

    The build host runs the same code 20-90 % slower for 20 s to 2 min at
    a time, whole runs long (README, "Host speed"), so a timing taken
    alone says as much about the minute it was taken in as about the
    program.  A reading times four small kernels that use the host the
    way the workloads do -- NumPy on L2-sized arrays, NumPy on block-sized
    arrays (dispatch-bound), the bare interpreter, and read + CRC + copy
    of a page-cache file -- each as a share of ``REFERENCE_S``.  Readings
    are taken between the samples of a run; ``factor()`` is the median
    over readings of the mean share: 1.0 on the quiet build host, above 1
    when the host is slower.  End-to-end timings are reported divided by
    it (rates multiplied), next to their raw values.  The kernels touch
    nothing of the program under test, so a change to the program moves
    the timing and not the factor.

    A reading taken in one process does not see a core being taken away,
    which is what slows a 2-rank run most.  With ``paired=True`` a partner
    process runs the same kernels at the same time (``read_paired``) and
    ``paired_factor()`` says how fast two processes run at once.
    """

    #: Quiet-state seconds of each kernel on the build host.  They only
    #: fix the unit: another host reads all metrics scaled by one constant.
    REFERENCE_S = {"np_large": 2.6e-3, "np_small": 2.5e-3,
                   "interpreter": 2.7e-3, "file": 2.7e-3}

    #: A paired reading over a single one on the quiet build host (medians
    #: over 70 runs): the slower of two processes at once reads 4 % above
    #: one alone.
    PAIRED_SHARE = 1.04
    #: Rounds of one paired reading; the median round counts, so that the
    #: partner's wake-up (a cold core) does not.
    PAIRED_ROUNDS = 3

    def __init__(self, workdir: str, paired: bool = False):
        """``paired`` starts the partner process; ``close()`` stops it."""
        rng = np.random.default_rng(0)
        self._large = rng.random((2, 38 ** 3)) + 1.0
        self._small = rng.random((2, 14 ** 3)) + 1.0
        self._path = os.path.join(workdir, "hostspeed.bin")
        with open(self._path, "wb") as f:
            f.write(rng.bytes(120_000))
        self._kernels = {
            "np_large": lambda: self._chain(*self._large, 10),
            "np_small": lambda: self._chain(*self._small, 200),
            "interpreter": lambda: self._interpret(30_000),
            "file": lambda: self._read_file(60),
        }
        #: one ``{kernel: share of its reference time}`` per reading
        self.readings: list[dict[str, float]] = []
        #: the same, per paired reading
        self.paired_readings: list[dict[str, float]] = []
        self._partner = None
        if paired:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            self._conn, theirs = ctx.Pipe()
            partner_dir = os.path.join(workdir, "hostspeed-partner")
            os.makedirs(partner_dir, exist_ok=True)
            self._partner = ctx.Process(target=_partner_main,
                                        args=(theirs, partner_dir),
                                        name="hostspeed-partner")
            self._partner.start()
            theirs.close()
            self._conn.recv()  # the partner has built its kernels

    @staticmethod
    def _chain(x, y, repeats: int) -> None:
        for _ in range(repeats):
            z = x * y
            z += x
            z /= y
            np.sqrt(z, out=z)
            w = z - x
            w *= 0.5
            np.maximum(w, y, out=w)

    @staticmethod
    def _interpret(n: int) -> int:
        total, seen = 0, {}
        for i in range(n):
            seen[i & 255] = total
            total += i * 3 % 7
        return total

    def _read_file(self, repeats: int) -> None:
        for _ in range(repeats):
            with open(self._path, "rb") as f:
                data = f.read()
            zlib.crc32(data)
            np.frombuffer(data, dtype=np.float32).copy()

    def _time_kernels(self) -> dict[str, float]:
        reading = {}
        for name, kernel in self._kernels.items():
            t0 = time.perf_counter()
            kernel()
            reading[name] = ((time.perf_counter() - t0)
                             / self.REFERENCE_S[name])
        return reading

    def _median_round(self) -> dict[str, float]:
        rounds = [self._time_kernels() for _ in range(self.PAIRED_ROUNDS)]
        return {k: statistics.median(r[k] for r in rounds)
                for k in self.REFERENCE_S}

    def read(self) -> None:
        """Take one reading (~12 ms)."""
        self.readings.append(self._time_kernels())

    def read_paired(self) -> None:
        """Take one paired reading (~40 ms): this process and the partner
        run the kernels at the same time and the slower of the two counts
        per kernel, as in a 2-rank step that ends when both ranks have."""
        self._conn.send(True)
        own = self._median_round()
        theirs = self._conn.recv()
        self.paired_readings.append(
            {k: max(own[k], theirs[k]) / self.PAIRED_SHARE for k in own})

    def watch(self, seconds: float) -> None:
        """Take readings for ``seconds`` (at least one of each kind; with
        a partner, single and paired readings in turns)."""
        t_end = time.perf_counter() + seconds
        while True:
            self.read()
            if self._partner is not None:
                self.read_paired()
            if time.perf_counter() >= t_end:
                return

    def close(self) -> None:
        """Stop the partner process, if any, and wait for it."""
        if self._partner is not None:
            self._conn.send(False)
            self._partner.join()
            self._conn.close()
            self._partner = None

    def factor(self, start: int = 0, stop: int | None = None,
               kernels=tuple(REFERENCE_S)) -> float:
        """Median over ``readings[start:stop]`` of the mean share of
        ``kernels`` (default: every reading, all four kernels)."""
        return statistics.median(
            statistics.fmean(reading[k] for k in kernels)
            for reading in self.readings[start:stop])

    def paired_factor(self) -> float:
        """The same over every paired reading: how fast two processes
        run at once, 1.0 on the quiet build host."""
        return statistics.median(statistics.fmean(reading.values())
                                 for reading in self.paired_readings)


def _partner_main(conn, workdir: str) -> None:
    """The partner of a paired ``HostSpeed`` (module-level: spawn imports
    it): on every ``True`` received, time the kernels and send the reading
    back; stop on ``False``."""
    host = HostSpeed(workdir)
    conn.send(None)
    while conn.recv():
        conn.send(host._median_round())


#: Host calibration sizes.  The build host's last-level cache (260 MiB)
#: holds all three 64 MiB triad arrays, so ``triad_gbs`` is a cache-
#: resident streaming rate there, *not* a DRAM bandwidth; the sizes are
#: reported next to it so a reader can tell which it is on their host.
TRIAD_MIB = 64


def llc_bytes() -> int:
    """Largest cache size Linux reports for cpu0, or 0 if unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        for index in os.listdir(base):
            with open(os.path.join(base, index, "size")) as f:
                text = f.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            best = max(best, int(text.rstrip("KMG")) * scale)
    except (OSError, ValueError):
        return 0
    return best


def host_calibration(workdir: str) -> dict[str, float]:
    """Ungated host speed: a STREAM-triad-like rate, a NumPy FMA rate and
    the ``HostSpeed`` factor (median of a second of readings)."""
    n = TRIAD_MIB * (1 << 20) // 8
    a, b, c = np.zeros(n), np.ones(n), np.full(n, 2.0)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    # multiply: read c, write a; add: read a and b, write a -> 5 arrays.
    triad_s = median_seconds(triad, 0.5)
    m = 1 << 16  # 3 x 512 KiB: L2-resident, so the rate is compute-side
    x, y, z = np.ones(m), np.full(m, 1.0001), np.zeros(m)

    def fma():
        np.multiply(x, y, out=z)
        np.add(z, y, out=z)

    fma_s = median_seconds(fma, 0.2)
    host = HostSpeed(workdir)
    host.watch(1.0)
    return {"host.triad_gbs": 5 * n * 8 / triad_s / 1e9,
            "host.fma_gflops": 2 * m / fma_s / 1e9,
            "host.speed_factor": host.factor()}
