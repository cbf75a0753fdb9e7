"""Shared experiment machinery: trial running and result tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.configs.base import Configuration, build_spec
from repro.dtl.base import DataTransportLayer
from repro.platform.cluster import Cluster
from repro.runtime.results import ExecutionResult
from repro.runtime.runner import run_ensemble
from repro.util.errors import ValidationError
from repro.util.validation import require_non_negative, require_positive_int

#: the paper's measurement protocol: averaged over 5 trials.
DEFAULT_TRIALS = 5
#: 30 000 MD steps at stride 800 -> 37 in situ steps.
DEFAULT_N_STEPS = 37
#: relative per-stage timing jitter applied in each trial.
DEFAULT_NOISE = 0.02


@dataclass
class ExperimentResult:
    """Structured output of one experiment run."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError(f"{self.experiment_id}: no result rows")
        for row in self.rows:
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise ValidationError(
                    f"{self.experiment_id}: row missing columns {missing}"
                )

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ValidationError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def row_for(self, key_column: str, key: Any) -> Dict[str, Any]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise ValidationError(f"no row with {key_column}={key!r}")

    def to_text(self) -> str:
        """Render as an aligned text table (what the harness prints)."""
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.6g}"
            return str(v)

        widths = {
            c: max(len(c), *(len(fmt(r[c])) for r in self.rows))
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "  ".join("-" * widths[c] for c in self.columns)
        lines = [f"== {self.experiment_id}: {self.title} ==", header, sep]
        for row in self.rows:
            lines.append(
                "  ".join(fmt(row[c]).ljust(widths[c]) for c in self.columns)
            )
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to JSON (floats/ints/strings/bools only in rows)."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "columns": self.columns,
                "rows": self.rows,
                "notes": self.notes,
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid experiment JSON: {exc}") from exc
        for key in ("experiment_id", "title", "columns", "rows"):
            if key not in data:
                raise ValidationError(f"experiment JSON missing {key!r}")
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=list(data["columns"]),
            rows=list(data["rows"]),
            notes=data.get("notes", ""),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to a JSON file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentResult":
        """Read a result from a JSON file."""
        return cls.from_json(Path(path).read_text())


def run_configuration(
    config: Configuration,
    n_steps: int = DEFAULT_N_STEPS,
    seed: int = 0,
    timing_noise: float = DEFAULT_NOISE,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> ExecutionResult:
    """Run one configuration once."""
    spec = build_spec(config, n_steps=n_steps)
    return run_ensemble(
        spec,
        config.placement(),
        cluster=cluster,
        dtl=dtl,
        seed=seed,
        timing_noise=timing_noise,
    )


def run_configuration_trials(
    config: Configuration,
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    base_seed: int = 0,
    timing_noise: float = DEFAULT_NOISE,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> List[ExecutionResult]:
    """Run one configuration over independent trials (distinct seeds).

    Every trial's seed is fixed by its index (``base_seed + t``) and
    trials share no state.
    """
    require_positive_int("trials", trials)
    require_non_negative("timing_noise", timing_noise)
    return [
        run_configuration(
            config,
            n_steps=n_steps,
            seed=base_seed + t,
            timing_noise=timing_noise,
            cluster=cluster,
            dtl=dtl,
        )
        for t in range(trials)
    ]


def trial_mean(values: Sequence[float]) -> float:
    """Mean over trials (the paper reports 5-trial averages)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValidationError("trial_mean requires at least one value")
    return float(arr.mean())
