"""Scenario and run-result (de)serialization: JSON-shaped documents.

A real deployment's configuration -- sensor positions and calibrations,
suspected obstacle footprints, localizer tuning -- lives in files, not in
code.  This module round-trips a :class:`repro.sim.Scenario` through a
plain-JSON document so experiment configurations can be versioned,
shared, and edited by hand.

Delivery models are serialized by name with their parameters; custom
delivery classes fall back to in-order on load (with the original name
preserved in the document for the caller to resolve).

Run *results* round-trip too (:func:`run_result_to_dict` /
:func:`run_result_from_dict`): the experiment engine ships each worker's
:class:`~repro.sim.results.RunResult` back to the parent as one of these
documents, and benchmark harnesses persist them as machine-readable
artifacts.  Non-finite error entries (missed sources are ``inf``) are
encoded as ``None`` so the documents stay strict-JSON safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.core.config import LocalizerConfig
from repro.ioutil import atomic_write_bytes
from repro.core.diagnostics import PopulationHealth
from repro.core.estimator import SourceEstimate
from repro.core.fusion import (
    AutoFusionRange,
    FixedFusionRange,
    FusionRangePolicy,
    InfiniteFusionRange,
)
from repro.core.particles import ParticleSet
from repro.eval.metrics import StepMetrics
from repro.faults.serialization import (
    fault_schedule_from_dict,
    fault_schedule_to_dict,
)
from repro.sim.results import RunResult, StepRecord
from repro.geometry.polygon import Polygon
from repro.network.link import (
    ExponentialLatencyLink,
    LinkModel,
    LossyLink,
    PerfectLink,
    UniformLatencyLink,
)
from repro.network.topology import (
    CommunicationGraph,
    MultiHopLink,
    TopologyAwareDelivery,
)
from repro.network.transport import (
    DeliveryModel,
    InOrderDelivery,
    OutOfOrderDelivery,
    ShuffledDelivery,
)
from repro.physics.obstacle import Obstacle
from repro.physics.source import RadiationSource
from repro.sensors.sensor import Sensor
from repro.sim.scenario import Scenario

#: Document format version; bump on incompatible changes.
FORMAT_VERSION = 1

#: Checkpoint document magic + version (independent of scenario documents).
CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Localizer config keys that older documents (committed streams,
#: existing checkpoints) carry but the config no longer has: the grid
#: selection knobs and the process-pool mean-shift knobs.  Loading drops
#: exactly these; any other unknown key still fails.
RETIRED_CONFIG_KEYS = frozenset(
    {
        "use_grid_index",
        "grid_cell_size",
        "grid_incremental_threshold",
        "meanshift_workers",
        "meanshift_tile_candidates",
    }
)


class CheckpointError(RuntimeError):
    """A checkpoint document is missing, corrupted, or unsupported."""


def _link_to_dict(link: LinkModel) -> Dict[str, Any]:
    if isinstance(link, PerfectLink):
        return {"type": "perfect"}
    if isinstance(link, UniformLatencyLink):
        return {"type": "uniform", "low": link.low, "high": link.high}
    if isinstance(link, ExponentialLatencyLink):
        return {"type": "exponential", "mean": link.mean}
    if isinstance(link, LossyLink):
        return {
            "type": "lossy",
            "loss": link.loss_probability,
            "inner": _link_to_dict(link.inner),
        }
    return {"type": "custom", "repr": repr(link)}


def _link_from_dict(data: Dict[str, Any]) -> LinkModel:
    kind = data.get("type", "perfect")
    if kind == "perfect":
        return PerfectLink()
    if kind == "uniform":
        return UniformLatencyLink(data["low"], data["high"])
    if kind == "exponential":
        return ExponentialLatencyLink(data["mean"])
    if kind == "lossy":
        return LossyLink(_link_from_dict(data["inner"]), data["loss"])
    return PerfectLink()


def _delivery_to_dict(delivery: DeliveryModel) -> Dict[str, Any]:
    if isinstance(delivery, InOrderDelivery):
        return {"type": "in-order"}
    if isinstance(delivery, ShuffledDelivery):
        return {"type": "shuffled"}
    if isinstance(delivery, TopologyAwareDelivery):
        link = delivery.link
        topology = link.topology
        return {
            "type": "topology",
            "radio_range": topology.radio_range,
            "base_station": list(topology.base_station),
            "per_hop": link.per_hop,
            "contention_mean": link.contention_mean,
            "sensors": [
                {"id": node, "x": pos[0], "y": pos[1]}
                for node, pos in topology.graph.nodes(data="pos")
                if node != CommunicationGraph.BASE
            ],
        }
    if isinstance(delivery, OutOfOrderDelivery):
        return {"type": "out-of-order", "link": _link_to_dict(delivery.link)}
    return {"type": "custom", "repr": repr(delivery)}


def _delivery_from_dict(data: Dict[str, Any]) -> DeliveryModel:
    kind = data.get("type", "in-order")
    if kind == "in-order":
        return InOrderDelivery()
    if kind == "shuffled":
        return ShuffledDelivery()
    if kind == "topology":
        sensors = [
            Sensor(sensor_id=s["id"], x=s["x"], y=s["y"])
            for s in data["sensors"]
        ]
        topology = CommunicationGraph(
            sensors,
            base_station=tuple(data["base_station"]),
            radio_range=data["radio_range"],
        )
        return TopologyAwareDelivery(
            MultiHopLink(
                topology,
                per_hop=data["per_hop"],
                contention_mean=data["contention_mean"],
            )
        )
    if kind == "out-of-order":
        return OutOfOrderDelivery(_link_from_dict(data.get("link", {})))
    return InOrderDelivery()


def fusion_policy_to_dict(policy: Optional[FusionRangePolicy]) -> Dict[str, Any]:
    """Codec for the fusion policies a checkpoint can carry.

    Unlike the scenario codecs, an unknown policy is an error: silently
    swapping a policy on restore would change every subsequent fusion
    selection and break resume parity.
    """
    if policy is None:
        return {"type": "none"}
    if isinstance(policy, FixedFusionRange):
        return {"type": "fixed", "d": policy.d}
    if isinstance(policy, InfiniteFusionRange):
        return {"type": "infinite"}
    if isinstance(policy, AutoFusionRange):
        return {
            "type": "auto",
            "sensor_positions": [list(p) for p in policy.sensor_positions],
            "k": policy.k,
            "slack": policy.slack,
        }
    raise CheckpointError(
        f"cannot checkpoint fusion policy {type(policy).__name__}; "
        "add a codec in repro.sim.serialization"
    )


def fusion_policy_from_dict(data: Dict[str, Any]) -> Optional[FusionRangePolicy]:
    """Inverse of :func:`fusion_policy_to_dict`."""
    kind = data.get("type", "none")
    if kind == "none":
        return None
    if kind == "fixed":
        return FixedFusionRange(data["d"])
    if kind == "infinite":
        return InfiniteFusionRange()
    if kind == "auto":
        return AutoFusionRange(
            [tuple(p) for p in data["sensor_positions"]],
            k=data["k"],
            slack=data["slack"],
        )
    raise CheckpointError(f"unknown fusion policy type {kind!r} in checkpoint")


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """A JSON-serializable document describing the scenario."""
    doc = {
        "format_version": FORMAT_VERSION,
        "name": scenario.name,
        "area": list(scenario.area),
        "background_cpm": scenario.background_cpm,
        "n_time_steps": scenario.n_time_steps,
        "sources": [
            {"x": s.x, "y": s.y, "strength": s.strength, "label": s.label}
            for s in scenario.sources
        ],
        "sensors": [
            {
                "id": s.sensor_id,
                "x": s.x,
                "y": s.y,
                "efficiency": s.efficiency,
                "background_cpm": s.background_cpm,
                "failed": s.failed,
            }
            for s in scenario.sensors
        ],
        "obstacles": [
            {
                "label": o.label,
                "mu": o.mu,
                "vertices": [[v.x, v.y] for v in o.polygon.vertices],
            }
            for o in scenario.obstacles
        ],
        "localizer_config": dataclasses.asdict(scenario.localizer_config),
        "delivery": _delivery_to_dict(scenario.delivery),
    }
    # Only present when a schedule is attached: fault-free documents stay
    # byte-for-byte what they always were.
    faults = fault_schedule_to_dict(scenario.faults)
    if faults is not None:
        doc["faults"] = faults
    return doc


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Rebuild a Scenario from :func:`scenario_to_dict` output."""
    version = data.get("format_version", 0)
    if version > FORMAT_VERSION:
        raise ValueError(
            f"scenario document version {version} is newer than supported "
            f"({FORMAT_VERSION})"
        )
    sources = [
        RadiationSource(s["x"], s["y"], s["strength"], label=s.get("label", ""))
        for s in data["sources"]
    ]
    sensors = [
        Sensor(
            sensor_id=s["id"],
            x=s["x"],
            y=s["y"],
            efficiency=s.get("efficiency", 1.0),
            background_cpm=s.get("background_cpm", 0.0),
            failed=s.get("failed", False),
        )
        for s in data["sensors"]
    ]
    obstacles = [
        Obstacle(
            Polygon([tuple(v) for v in o["vertices"]]),
            mu=o["mu"],
            label=o.get("label", ""),
        )
        for o in data.get("obstacles", [])
    ]
    config_data = data.get("localizer_config")
    config = None
    if config_data is not None:
        config_data = {
            key: value
            for key, value in config_data.items()
            if key not in RETIRED_CONFIG_KEYS
        }
        area = config_data.get("area")
        if isinstance(area, list):
            config_data["area"] = tuple(area)
        config = LocalizerConfig(**config_data)
    return Scenario(
        name=data.get("name", "unnamed"),
        area=(float(data["area"][0]), float(data["area"][1])),
        sources=sources,
        sensors=sensors,
        obstacles=obstacles,
        background_cpm=data.get("background_cpm", 0.0),
        n_time_steps=data.get("n_time_steps", 30),
        localizer_config=config,
        delivery=_delivery_from_dict(data.get("delivery", {})),
        faults=fault_schedule_from_dict(data.get("faults")),
    )


def _estimate_to_dict(estimate: SourceEstimate) -> Dict[str, Any]:
    return {
        "x": estimate.x,
        "y": estimate.y,
        "strength": estimate.strength,
        "mass": estimate.mass,
        "mass_ratio": estimate.mass_ratio,
        "seed_count": estimate.seed_count,
    }


def _estimate_from_dict(data: Dict[str, Any]) -> SourceEstimate:
    return SourceEstimate(
        x=data["x"],
        y=data["y"],
        strength=data["strength"],
        mass=data["mass"],
        mass_ratio=data["mass_ratio"],
        seed_count=data["seed_count"],
    )


def _encode_error(value: float) -> Optional[float]:
    return float(value) if math.isfinite(value) else None


def _decode_error(value: Optional[float]) -> float:
    return float("inf") if value is None else float(value)


def step_record_to_dict(record: StepRecord) -> Dict[str, Any]:
    """A JSON-safe document for one :class:`StepRecord`."""
    metrics = record.metrics
    snapshot = None
    if record.snapshot is not None:
        snapshot = {
            "xs": record.snapshot.xs.tolist(),
            "ys": record.snapshot.ys.tolist(),
            "strengths": record.snapshot.strengths.tolist(),
            "weights": record.snapshot.weights.tolist(),
        }
    health = None
    if record.health is not None:
        health = dataclasses.asdict(record.health)
    return {
        "metrics": {
            "time_step": metrics.time_step,
            "errors": [_encode_error(e) for e in metrics.errors],
            "false_positives": metrics.false_positives,
            "false_negatives": metrics.false_negatives,
            "n_estimates": metrics.n_estimates,
        },
        "estimates": [_estimate_to_dict(e) for e in record.estimates],
        "mean_iteration_seconds": record.mean_iteration_seconds,
        "n_measurements": record.n_measurements,
        "snapshot": snapshot,
        "health": health,
        "converged": record.converged,
    }


def step_record_from_dict(data: Dict[str, Any]) -> StepRecord:
    """Rebuild a :class:`StepRecord` from :func:`step_record_to_dict` output."""
    metrics_data = data["metrics"]
    snapshot = None
    if data.get("snapshot") is not None:
        snap = data["snapshot"]
        snapshot = ParticleSet(
            np.asarray(snap["xs"], dtype=float),
            np.asarray(snap["ys"], dtype=float),
            np.asarray(snap["strengths"], dtype=float),
            np.asarray(snap["weights"], dtype=float),
        )
    health = None
    if data.get("health") is not None:
        health = PopulationHealth(**data["health"])
    return StepRecord(
        metrics=StepMetrics(
            time_step=metrics_data["time_step"],
            errors=tuple(_decode_error(e) for e in metrics_data["errors"]),
            false_positives=metrics_data["false_positives"],
            false_negatives=metrics_data["false_negatives"],
            n_estimates=metrics_data["n_estimates"],
        ),
        estimates=[_estimate_from_dict(e) for e in data["estimates"]],
        mean_iteration_seconds=data["mean_iteration_seconds"],
        n_measurements=data["n_measurements"],
        snapshot=snapshot,
        health=health,
        converged=data.get("converged", False),
    )


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """A JSON-safe document for one complete :class:`RunResult`.

    The transport format between experiment-engine workers and the parent
    process, and the payload benchmarks persist for machine consumption.
    """
    return {
        "format_version": FORMAT_VERSION,
        "scenario_name": result.scenario_name,
        "source_labels": list(result.source_labels),
        "steps": [step_record_to_dict(s) for s in result.steps],
    }


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`run_result_to_dict` output."""
    version = data.get("format_version", 0)
    if version > FORMAT_VERSION:
        raise ValueError(
            f"run-result document version {version} is newer than supported "
            f"({FORMAT_VERSION})"
        )
    return RunResult(
        scenario_name=data["scenario_name"],
        source_labels=list(data["source_labels"]),
        steps=[step_record_from_dict(s) for s in data["steps"]],
    )


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write via temp file + rename + directory fsync (crash-durable)."""
    atomic_write_bytes(path, payload, durable=True)


def save_checkpoint(state: Dict[str, Any], path: str | Path) -> int:
    """Persist a session state document as JSON plus an ``.npz`` sidecar.

    ``state`` is the output of
    :meth:`repro.sim.session.LocalizerSession.export_state`: a JSON-safe
    tree plus a flat ``state["arrays"]`` dict of ndarrays.  Arrays go to a
    binary sidecar (``<path>.npz``, bit-exact) referenced from the JSON
    document together with its SHA-256, so a truncated or tampered sidecar
    is detected at load time.  Both files are written atomically.

    Returns the total number of bytes written (JSON + sidecar), which the
    session feeds into the ``checkpoint.bytes`` metric.
    """
    path = Path(path)
    state = dict(state)
    arrays = state.pop("arrays", {})
    buffer = io.BytesIO()
    np.savez(buffer, **{key: np.asarray(value) for key, value in arrays.items()})
    blob = buffer.getvalue()
    arrays_name = path.name + ".npz"
    document = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "arrays_file": arrays_name,
        "arrays_sha256": hashlib.sha256(blob).hexdigest(),
        "state": state,
    }
    payload = json.dumps(document).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(path.parent / arrays_name, blob)
    _atomic_write_bytes(path, payload)
    return len(payload) + len(blob)


def load_checkpoint(path: str | Path) -> Dict[str, Any]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on every failure mode -- missing or
    unparsable JSON, wrong magic, unsupported version, missing sidecar,
    or a sidecar whose SHA-256 does not match the document.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} document")
    version = document.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; this build "
            f"supports {CHECKPOINT_VERSION}"
        )
    try:
        arrays_file = document["arrays_file"]
        expected_sha = document["arrays_sha256"]
        state = document["state"]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {path} is missing required field {exc}"
        ) from exc
    sidecar = path.parent / arrays_file
    try:
        blob = sidecar.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint arrays sidecar {sidecar} is missing: {exc}"
        ) from exc
    if hashlib.sha256(blob).hexdigest() != expected_sha:
        raise CheckpointError(
            f"checkpoint arrays sidecar {sidecar} is corrupted "
            "(SHA-256 mismatch)"
        )
    # The SHA-256 gate catches truncation/tampering; this catches a
    # sidecar that was never a valid npz in the first place (the document
    # hashes whatever bytes it was written with).
    try:
        with np.load(io.BytesIO(blob)) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint arrays sidecar {sidecar} is not a readable npz "
            f"archive: {exc}"
        ) from exc
    state["arrays"] = arrays
    return state


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario to a JSON file."""
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario from a JSON file."""
    return scenario_from_dict(json.loads(Path(path).read_text()))
