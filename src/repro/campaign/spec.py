"""Declarative campaign specifications.

A campaign is a set of *cells*: (runner, params, seed) triples expanded
from one or more sweeps over the cells in `repro.bench.registry`.
Specs load from TOML or JSON files or are built in Python::

    name = "fig5-sweep"
    timeout = 120.0
    seeds = { base = 1, count = 8 }     # or seeds = [1, 2, 3]

    [[sweep]]
    runner = "fig5_file_download"
    params = { trials = 1 }
    [sweep.grid]
    sizes = [[1000, 10000], [100000]]   # cartesian over grid keys

Grid values are *lists of candidate values*; the expansion is the
cartesian product over the grid keys (sorted, so expansion order is
deterministic).  Explicit ``cells`` entries are appended after the grid.
Seed sweeps use :func:`repro.sim.rng.derive_root_seed`, so neighbouring
sweep indices get independent seed universes rather than ``base + i``.
Runners whose signature has no ``seed`` parameter expand to a single
unseeded cell per param point.
"""

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.registry import (UnknownBenchmark, cell_names, load,
                                  lookup, runner_accepts)
from repro.core.errors import check_number
from repro.sim.rng import derive_root_seed


class CampaignError(ValueError):
    """A malformed spec, unknown runner, or bad CLI input."""


def resolve_runner(name: str) -> Callable:
    """Look up a runner by cell name (:mod:`repro.bench.registry`), or
    by ``module:function`` path (the escape hatch used by tests and
    custom scripts)."""
    if ":" not in name:
        try:
            name = lookup(name)[0].runner
        except UnknownBenchmark:
            raise CampaignError(
                f"unknown runner {name!r}; choose one of {cell_names()} "
                f"or use a module:function path") from None
    try:
        return load(name)
    except (ImportError, AttributeError) as exc:
        raise CampaignError(f"cannot import runner {name!r}: {exc}") \
            from exc


def canonical_params(params: Dict[str, Any]) -> str:
    """Key-sorted compact JSON of a params dict -- the canonical form
    hashed into cache keys, so ``{a: 1, b: 2}`` and ``{b: 2, a: 1}``
    address the same cached result.  Non-JSON values (e.g. config
    objects passed from Python) canonicalise via ``repr``."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=repr)


@dataclass
class TaskCell:
    """One schedulable unit: a runner call with fixed params and seed."""

    runner: str
    params: Dict[str, Any]
    seed: Optional[int] = None
    seed_param: str = "seed"

    def call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs[self.seed_param] = self.seed
        return kwargs

    @property
    def params_key(self) -> str:
        return canonical_params(self.params)

    def label(self) -> str:
        """Compact human-readable cell name for progress lines."""
        parts = [f"{k}={json.dumps(v, default=repr)}"
                 for k, v in sorted(self.params.items())]
        seed = "" if self.seed is None else f" seed={self.seed}"
        return f"{self.runner}({', '.join(parts)}){seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {"runner": self.runner, "params": self.params,
                "seed": self.seed}


def _resolve_seeds(raw: Any) -> Optional[List[int]]:
    """Accept ``[1, 2, 3]`` or ``{"base": b, "count": n}`` (derived)."""
    if raw is None:
        return None
    if isinstance(raw, dict):
        try:
            base, count = int(raw["base"]), int(raw["count"])
        except KeyError as exc:
            raise CampaignError(
                f"seed spec needs 'base' and 'count', got {raw!r}") from exc
        if count <= 0:
            raise CampaignError(f"seed count must be positive, got {count}")
        return [derive_root_seed(base, i) for i in range(count)]
    if isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)):
        seeds = [int(s) for s in raw]
        if not seeds:
            raise CampaignError("explicit seed list must be non-empty")
        return seeds
    raise CampaignError(f"bad seeds spec {raw!r}: want a list of ints or "
                        f"{{base, count}}")


@dataclass
class SweepSpec:
    """One runner swept over a param grid and/or explicit cells."""

    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    cells: List[Dict[str, Any]] = field(default_factory=list)
    seeds: Optional[List[int]] = None    # falls back to the campaign's

    def __post_init__(self) -> None:
        fn = resolve_runner(self.runner)
        if isinstance(self.seeds, dict):
            self.seeds = _resolve_seeds(self.seeds)
        for key, values in self.grid.items():
            if not isinstance(values, list):
                raise CampaignError(
                    f"grid values must be lists of candidates; "
                    f"{self.runner}.{key} is {type(values).__name__}")
            if not values:
                raise CampaignError(
                    f"grid axis {self.runner}.{key} is empty")
        for source in ([self.params] + [dict(self.grid)] + self.cells):
            for key in source:
                if key == "seed":
                    raise CampaignError(
                        "'seed' belongs in the seeds spec, not params")
                if not runner_accepts(fn, key):
                    raise CampaignError(
                        f"runner {self.runner!r} accepts no "
                        f"parameter {key!r}")

    def param_points(self) -> List[Dict[str, Any]]:
        """Grid cartesian product (sorted keys) then explicit cells,
        each merged over the base params."""
        points = []
        keys = sorted(self.grid)
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            point = dict(self.params)
            point.update(zip(keys, combo))
            points.append(point)
        for cell in self.cells:
            point = dict(self.params)
            point.update(cell)
            points.append(point)
        return points

    def expand(self, default_seeds: List[int]) -> List[TaskCell]:
        fn = resolve_runner(self.runner)
        seeded = runner_accepts(fn, "seed")
        seeds: List[Optional[int]] = (
            list(self.seeds if self.seeds is not None else default_seeds)
            if seeded else [None])
        return [TaskCell(self.runner, point, seed)
                for point in self.param_points()
                for seed in seeds]


@dataclass
class CampaignSpec:
    """A named collection of sweeps plus a seed sweep and a per-cell
    ``timeout`` (seconds, or ``None`` for none); a timeout that is not a
    finite number > 0 raises :class:`~repro.core.errors.BadOverride`."""

    name: str
    sweeps: List[SweepSpec]
    seeds: List[int] = field(default_factory=lambda: [0])
    timeout: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise CampaignError(f"bad campaign name {self.name!r}")
        if isinstance(self.seeds, dict):
            self.seeds = _resolve_seeds(self.seeds)
        if not self.sweeps:
            raise CampaignError("a campaign needs at least one sweep")
        if self.timeout is not None:
            check_number("timeout", self.timeout)

    def expand(self) -> List[TaskCell]:
        """All cells, in deterministic spec order."""
        cells: List[TaskCell] = []
        for sweep in self.sweeps:
            cells.extend(sweep.expand(self.seeds))
        return cells

    # -- construction -------------------------------------------------
    @classmethod
    def single(cls, runner: str, name: Optional[str] = None,
               params: Optional[Dict[str, Any]] = None,
               grid: Optional[Dict[str, List[Any]]] = None,
               seeds: Any = None, **kwargs: Any) -> "CampaignSpec":
        """Python convenience: a one-sweep campaign."""
        resolved = _resolve_seeds(seeds)
        return cls(name=name or runner.replace(":", "."),
                   sweeps=[SweepSpec(runner, params=dict(params or {}),
                                     grid=dict(grid or {}))],
                   seeds=resolved if resolved is not None else [0],
                   **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        data = dict(data)
        raw_sweeps = data.pop("sweep", data.pop("sweeps", None))
        if not raw_sweeps:
            raise CampaignError("spec has no [[sweep]] entries")
        sweeps = []
        for raw in raw_sweeps:
            raw = dict(raw)
            try:
                runner = raw.pop("runner")
            except KeyError:
                raise CampaignError("sweep entry missing 'runner'") \
                    from None
            sweeps.append(SweepSpec(
                runner=runner,
                params=dict(raw.pop("params", {})),
                grid=dict(raw.pop("grid", {})),
                cells=list(raw.pop("cells", [])),
                seeds=_resolve_seeds(raw.pop("seeds", None))))
            if raw:
                raise CampaignError(
                    f"unknown sweep keys {sorted(raw)} for {runner!r}")
        try:
            name = data.pop("name")
        except KeyError:
            raise CampaignError("spec missing 'name'") from None
        seeds = _resolve_seeds(data.pop("seeds", None))
        spec = cls(name=name, sweeps=sweeps,
                   seeds=seeds if seeds is not None else [0],
                   timeout=data.pop("timeout", 300.0))
        if data:
            raise CampaignError(f"unknown spec keys {sorted(data)}")
        return spec

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a spec from ``.toml`` or ``.json``."""
        from repro.ioutil import load_spec_file
        return cls.from_dict(load_spec_file(path, CampaignError))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data snapshot (resolved seeds, expansion-ready)."""
        return {
            "name": self.name,
            "seeds": list(self.seeds),
            "timeout": self.timeout,
            "sweep": [{"runner": s.runner, "params": s.params,
                       "grid": s.grid, "cells": s.cells,
                       **({"seeds": s.seeds}
                          if s.seeds is not None else {})}
                      for s in self.sweeps],
        }
