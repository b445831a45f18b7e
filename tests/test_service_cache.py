"""Tests of repro.service canonical requests and the CRC-verified cache."""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.container import _CRC, _HEAD, KINDS, MAGIC, PRELUDE_SIZE, VERSION
from repro.resilience import FaultInjector, FaultPlan, FaultSpec, crc32_bytes
from repro.service import ICSpec, JobRequest, RequestError, ResultCache
from repro.service.request import canonical_json, canonical_key
from repro.sim import SimulationConfig

pytestmark = pytest.mark.tier1


def make_request(**overrides):
    kw = dict(cells=16, block_size=8, max_steps=2, diag_interval=1)
    kw.update(overrides)
    cfg = SimulationConfig(**kw)
    return JobRequest(config=cfg,
                      ic=ICSpec("uniform", {"rho": 1000.0, "p": 100.0}))


class TestCanonicalization:
    def test_key_is_stable_hex_sha256(self):
        key = make_request().key()
        assert len(key) == 64
        assert key == make_request().key()

    def test_runtime_fields_do_not_change_the_key(self):
        base = make_request().key()
        assert make_request(ranks=4).key() == base
        assert make_request(cluster_backend="procs").key() == base
        assert make_request(num_workers=2).key() == base
        assert make_request(comm_timeout=5.0).key() == base

    def test_semantic_fields_change_the_key(self):
        base = make_request().key()
        assert make_request(max_steps=3).key() != base
        assert make_request(cells=24).key() != base
        assert make_request(cfl=0.2).key() != base

    def test_ic_params_are_semantic(self):
        a = JobRequest(config=make_request().config,
                       ic=ICSpec("uniform", {"rho": 1000.0, "p": 100.0}))
        b = JobRequest(config=make_request().config,
                       ic=ICSpec("uniform", {"rho": 1000.0, "p": 200.0}))
        assert a.key() != b.key()

    def test_unknown_ic_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown IC kind"):
            ICSpec("warp_field", {})

    def test_non_jsonable_ic_params_rejected(self):
        with pytest.raises(RequestError, match="JSON-able"):
            ICSpec("uniform", {"rho": b"\x00"})

    def test_fault_plan_in_config_rejected(self):
        cfg = SimulationConfig(cells=16, block_size=8, max_steps=1,
                               fault_plan=FaultPlan(seed=1))
        with pytest.raises(RequestError, match="per-submission chaos"):
            JobRequest(config=cfg, ic=ICSpec("uniform"))

    def test_payload_round_trip_preserves_key(self):
        req = make_request(ranks=2, periodic=(True, True, True))
        clone = JobRequest.from_payload(req.to_payload())
        assert clone.key() == req.key()
        assert clone.config.ranks == 2
        assert clone.config.periodic == (True, True, True)

    def test_unknown_runtime_field_is_a_request_error(self):
        payload = make_request().to_payload()
        payload["runtime"]["procs_ring_bytes"] = 1 << 22
        with pytest.raises(RequestError, match="procs_ring_bytes"):
            JobRequest.from_payload(payload)

    def test_restart_content_enters_the_key(self, tmp_path):
        f1 = tmp_path / "a.rck"
        f2 = tmp_path / "b.rck"
        f1.write_bytes(b"state-one")
        f2.write_bytes(b"state-two")
        cfg = make_request().config
        ic = ICSpec("uniform")
        ka = JobRequest(config=cfg, ic=ic, restart_from=str(f1)).key()
        kb = JobRequest(config=cfg, ic=ic, restart_from=str(f2)).key()
        assert ka != kb
        # byte-identical restart files dedup
        f2.write_bytes(b"state-one")
        assert JobRequest(config=cfg, ic=ic,
                          restart_from=str(f2)).key() == ka

    def test_canonical_json_sorted_and_compact(self):
        doc = {"b": 1, "a": [1, 2]}
        assert canonical_json(doc) == '{"a":[1,2],"b":1}'
        assert canonical_key(doc) == canonical_key({"a": [1, 2], "b": 1})

    def test_ic_builders_produce_fields(self):
        z, y, x = np.meshgrid(np.linspace(0.1, 0.9, 4),
                              np.linspace(0.1, 0.9, 4),
                              np.linspace(0.1, 0.9, 4), indexing="ij")
        specs = [
            ICSpec("uniform", {"rho": 1000.0, "p": 100.0}),
            ICSpec("cloud_collapse",
                   {"bubbles": [[0.5, 0.5, 0.5, 0.2]],
                    "p_liquid": 1000.0}),
            ICSpec("generated_cloud", {"n_bubbles": 2, "seed": 7}),
            ICSpec("shock_tube",
                   {"left": {"rho": 1000.0, "p": 1000.0},
                    "right": {"rho": 1000.0, "p": 100.0}}),
            ICSpec("shock_bubble",
                   {"bubble": [0.5, 0.5, 0.5, 0.15],
                    "shock_position": 0.2, "p_post": 3000.0}),
        ]
        for spec in specs:
            state = spec.build()(z, y, x)
            assert state.shape == z.shape + (state.shape[-1],)
            assert np.isfinite(state).all()


class TestResultCache:
    def payload(self):
        return {"final_field": np.arange(64, dtype=np.float64),
                "wall_seconds": 1.0}

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "k" * 64
        cache.put(key, self.payload(), meta={"attempts": 2})
        hit = cache.get(key)
        assert hit is not None
        meta, payload = hit
        assert meta["attempts"] == 2
        assert meta["key"] == key
        np.testing.assert_array_equal(payload["final_field"],
                                      self.payload()["final_field"])
        assert cache.counters == {"hits": 1, "misses": 0, "writes": 1,
                                  "quarantined": 0}

    def test_miss_counts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get("absent" * 10) is None
        assert cache.counters["misses"] == 1

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "t" * 64
        path = cache.put(key, self.payload())
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        assert cache.get(key) is None  # miss, not an exception
        assert cache.counters["quarantined"] == 1
        assert key not in cache
        assert os.path.exists(path + ".quarantined")
        # recompute path: a fresh put fully heals the entry
        cache.put(key, self.payload())
        assert cache.get(key) is not None

    def test_payload_bitflip_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "f" * 64
        path = cache.put(key, self.payload())
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0x40
        Path(path).write_bytes(bytes(blob))
        assert cache.get(key) is None
        assert cache.counters["quarantined"] == 1

    def test_meta_bitflip_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "m" * 64
        path = cache.put(key, self.payload())
        blob = bytearray(Path(path).read_bytes())
        blob[blob.index(b'"schema"')] ^= 0x01  # first meta byte
        Path(path).write_bytes(bytes(blob))
        assert cache.get(key) is None

    def test_bad_magic_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "g" * 64
        path = cache.put(key, self.payload())
        blob = bytearray(Path(path).read_bytes())
        blob[:4] = b"NOPE"
        Path(path).write_bytes(bytes(blob))
        assert cache.get(key) is None

    def test_crc_catches_what_pickle_would_accept(self, tmp_path):
        # Swap the payload for a different but well-formed pickle while
        # keeping the old CRCs: framing alone would pass, CRC must not.
        cache = ResultCache(str(tmp_path / "c"))
        key = "s" * 64
        path = cache.put(key, self.payload())
        blob = Path(path).read_bytes()
        index = json.loads(blob[_HEAD.unpack_from(blob)[3]:])
        evil = pickle.dumps({"final_field": np.zeros(1)})
        index["sections"][0]["size"] = len(evil)  # the old CRC stays
        index = json.dumps(index).encode()
        head = _HEAD.pack(MAGIC, VERSION, KINDS.index("cache"),
                          PRELUDE_SIZE + len(evil), len(index))
        forged = head + _CRC.pack(crc32_bytes(head + index)) + evil + index
        Path(path).write_bytes(forged)
        assert cache.get(key) is None
        assert cache.counters["quarantined"] == 1

    def test_injector_driven_write_corruption(self, tmp_path):
        # A ckpt_bitflip spec addressed at rank -1 hits exactly one
        # cache write; the read path must quarantine it.
        plan = FaultPlan(seed=3, faults=[
            FaultSpec(kind="ckpt_bitflip", rank=-1, max_hits=1),
        ])
        cache = ResultCache(str(tmp_path / "c"),
                            injector=FaultInjector(plan))
        cache.put("a" * 64, self.payload())
        cache.put("b" * 64, self.payload())
        results = [cache.get("a" * 64), cache.get("b" * 64)]
        assert sum(r is None for r in results) == 1
        assert cache.counters["quarantined"] == 1

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("z" * 64, self.payload())
        assert not any(n.endswith(".tmp") for n in os.listdir(cache.root))
        assert cache.entries() == 1
