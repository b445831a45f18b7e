"""Canonicalized simulation requests and content-addressed cache keys.

Serving millions of scenario requests (ROADMAP item 3) only works if
identical requests are *recognizably* identical: two users asking for
the same cloud collapse must map to the same cache entry regardless of
how many ranks, which cluster backend, or what observability knobs each
of them picked.  This module defines the canonical form:

* :class:`ICSpec` -- a declarative, JSON-able initial-condition
  description (the driver's ``ic_fn`` callables cannot be hashed or
  shipped across process boundaries);
* :class:`JobRequest` -- the canonical request: the *semantic* subset of
  :class:`~repro.sim.config.SimulationConfig` (the fields that determine
  the computed result) plus the runtime subset (the fields that only
  determine *how* it is computed);
* :func:`canonical_key` -- SHA-256 over the sorted-key canonical JSON.

The semantic/runtime split leans on a hard-won repo invariant: results
are bit-identical across rank counts and across the sim/procs cluster
backends (``tests/test_backend_equivalence.py``), so those fields are
excluded from the key and identical scenarios dedup across deployment
shapes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..sim.config import SimulationConfig

#: SimulationConfig fields that determine the computed result payload.
#: Everything else is runtime/observability and excluded from the key.
SEMANTIC_FIELDS = (
    "cells",
    "block_size",
    "extent",
    "cfl",
    "stepper",
    "fused_weno",
    "use_slices",
    "weno_order",
    "riemann_solver",
    "periodic",
    "wall",
    "boundary_default",
    "max_steps",
    "t_end",
    "diag_interval",
)

#: SimulationConfig fields a request may carry that change only how the
#: job runs (never what it computes); excluded from the cache key.
RUNTIME_FIELDS = (
    "ranks",
    "num_workers",
    "cluster_backend",
    "comm_timeout",
)


class RequestError(ValueError):
    """The request cannot be canonicalized (and so cannot be served)."""


def _build_uniform(p):
    from ..sim.ic import uniform

    return uniform(rho=p.get("rho", 1000.0), p=p.get("p", 100.0),
                   velocity=tuple(p.get("velocity", (0.0, 0.0, 0.0))))


def _build_cloud_collapse(p):
    from ..sim.cloud import Bubble
    from ..sim.ic import cloud_collapse

    bubbles = [Bubble(center=(b[0], b[1], b[2]), radius=b[3])
               for b in p["bubbles"]]
    return cloud_collapse(
        bubbles,
        p_liquid=p.get("p_liquid", 100.0),
        p_vapor=p.get("p_vapor", 0.0234),
        rho_liquid=p.get("rho_liquid", 1000.0),
        rho_vapor=p.get("rho_vapor", 1.0),
        smoothing=p.get("smoothing", 0.0),
    )


def _build_generated_cloud(p):
    from ..sim.cloud import generate_cloud
    from ..sim.ic import cloud_collapse

    bubbles = generate_cloud(
        p["n_bubbles"],
        tuple(p.get("center", (0.5, 0.5, 0.5))),
        p.get("cloud_radius", 0.38),
        rng=p.get("seed", 2013),
        r_min=p.get("r_min", 0.07),
        r_max=p.get("r_max", 0.11),
    )
    return cloud_collapse(bubbles, p_liquid=p.get("p_liquid", 100.0),
                          smoothing=p.get("smoothing", 0.0))


def _build_shock_tube(p):
    from ..sim.ic import shock_tube

    return shock_tube(left=dict(p["left"]), right=dict(p["right"]),
                      x0=p.get("x0", 0.5), axis=p.get("axis", 2))


def _build_shock_bubble(p):
    from ..sim.cloud import Bubble
    from ..sim.ic import shock_bubble

    b = p["bubble"]
    kw = {k: p[k] for k in ("p_post", "rho_post", "u_post", "p_pre",
                            "rho_pre", "p_bubble", "rho_bubble", "axis",
                            "smoothing") if k in p}
    return shock_bubble(Bubble(center=(b[0], b[1], b[2]), radius=b[3]),
                        p["shock_position"], **kw)


#: Declarative IC registry: kind -> builder(params) -> ic_fn.
IC_KINDS = {
    "uniform": _build_uniform,
    "cloud_collapse": _build_cloud_collapse,
    "generated_cloud": _build_generated_cloud,
    "shock_tube": _build_shock_tube,
    "shock_bubble": _build_shock_bubble,
}


@dataclass(frozen=True)
class ICSpec:
    """A declarative initial condition: registry kind + JSON-able params.

    The physics seed (for ``generated_cloud``) lives *inside* the
    params: it is semantic (it selects the bubble population) and is
    therefore part of the cache key -- unlike fault-injection seeds,
    which never are.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise RequestError(
                f"unknown IC kind {self.kind!r}; choose from "
                f"{sorted(IC_KINDS)}"
            )
        try:
            json.dumps(self.params)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"IC params must be JSON-able: {exc}"
            ) from exc

    def build(self):
        """Construct the driver-facing ``ic_fn`` callable."""
        return IC_KINDS[self.kind](self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "ICSpec":
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


@dataclass
class JobRequest:
    """One canonicalized simulation request.

    ``config`` supplies both the semantic fields (hashed into the cache
    key) and the runtime fields (not hashed); ``ic`` is the declarative
    initial condition; ``restart_from`` optionally resumes from a
    checkpoint file whose *content* (CRC32) enters the key -- two
    requests resuming from byte-identical checkpoints dedup, requests
    resuming from different states never collide.
    """

    config: SimulationConfig
    ic: ICSpec
    restart_from: str | None = None

    def __post_init__(self):
        if not isinstance(self.config, SimulationConfig):
            raise RequestError("config must be a SimulationConfig")
        if not isinstance(self.ic, ICSpec):
            raise RequestError("ic must be an ICSpec")
        if self.config.erosion is not None:
            raise RequestError(
                "service requests cannot carry erosion models yet "
                "(not canonicalizable); run them through repro.cli run"
            )
        if self.config.fault_plan is not None:
            raise RequestError(
                "fault plans are per-submission chaos options, not part "
                "of a request: pass fault_plan= to JobEngine.submit()"
            )

    # -- canonical form ---------------------------------------------------

    def semantic_dict(self) -> dict:
        """The key-determining canonical mapping (dict, JSON-able)."""
        cfg = {}
        for name in SEMANTIC_FIELDS:
            v = getattr(self.config, name)
            cfg[name] = list(v) if isinstance(v, tuple) else v
        doc = {
            "schema": "repro.job/v1",
            "config": cfg,
            "ic": self.ic.to_dict(),
        }
        if self.restart_from is not None:
            from ..resilience.detect import crc32_bytes

            with open(self.restart_from, "rb") as f:
                doc["restart_crc32"] = crc32_bytes(f.read())
        return doc

    def runtime_dict(self) -> dict:
        """The non-key runtime fields (dict, JSON-able)."""
        return {name: getattr(self.config, name)
                for name in RUNTIME_FIELDS}

    def key(self) -> str:
        """The content-addressed cache key (64-char hex SHA-256)."""
        return canonical_key(self.semantic_dict())

    def to_payload(self, semantic: dict | None = None) -> dict:
        """A JSON-able wire form a worker can rebuild the job from;
        ``semantic``: this request's :meth:`semantic_dict`, where the
        caller has it (a restart checkpoint is read to build one)."""
        return {
            "semantic": self.semantic_dict() if semantic is None else semantic,
            "runtime": self.runtime_dict(),
            "restart_from": self.restart_from,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRequest":
        """Rebuild a request from :meth:`to_payload` output."""
        sem = dict(payload["semantic"]["config"])
        for name in ("cells", "periodic", "wall"):
            if isinstance(sem.get(name), list):
                sem[name] = tuple(sem[name])
        runtime = dict(payload.get("runtime", {}))
        unknown = sorted(set(runtime) - set(RUNTIME_FIELDS))
        if unknown:
            raise RequestError(f"unknown runtime field(s) {unknown}; "
                               f"a request may carry {list(RUNTIME_FIELDS)}")
        cfg = SimulationConfig(**sem, **runtime)
        return cls(
            config=cfg,
            ic=ICSpec.from_dict(payload["semantic"]["ic"]),
            restart_from=payload.get("restart_from"),
        )


def canonical_json(doc: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift (str)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_key(doc: dict) -> str:
    """SHA-256 hex digest of the canonical JSON of ``doc`` (str)."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()
