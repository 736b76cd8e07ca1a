"""CSV datasets, the scenario registry, and provenance-stamped outputs.

The dataset loader reads the two-phase CSV schema: phase-one columns are
required for every subject, validated columns carry values exactly on the
rows flagged as randomized, and sampling probabilities are either given
per row or inferred for simple random sampling. Loaded datasets convert
to the cohort and design objects the estimators consume.

The scenario registry bundles ready-to-run benchmark configurations as
JSON files addressable by name, and the writers emit result files whose
header comments carry the run manifest hash and seed so identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__
from .cohort import CohortData
from .design import TwoPhaseDesign
from .errors import (
    EmptyDatasetError,
    EmptyValidationError,
    InvalidConfigError,
    ParseError,
)
from .simulation import ScenarioConfig

__all__ = [
    "AnalysisDataset",
    "RunManifest",
    "SCENARIO_ALIASES",
    "canonical_scenario_name",
    "example_dataset_path",
    "format_fit_text",
    "format_scenario_text",
    "list_scenarios",
    "load_dataset",
    "load_scenario",
    "write_fit_csv",
    "write_scenario_csv",
    "write_text",
]

_MISSING = frozenset({"", "NA"})
_TRUE_WORDS = frozenset({"true", "1", "t"})
_FALSE_WORDS = frozenset({"false", "0", "f"})

SCENARIO_ALIASES = {
    "table1_row1": "outcome_error_moderate",
    "table2_row1": "correlated_error_moderate",
    "table3_row1": "correlated_error_large",
    "table4_null": "correlated_error_null",
    "table5_gamma": "gamma_mixture_outcome",
    "table6_misclass": "misclassified_indicator_rare",
}


def canonical_scenario_name(name: str) -> str:
    """Registry file name for a scenario name or one of its aliases."""
    return SCENARIO_ALIASES.get(name, name)


def _registry_dir():
    return resources.files(__package__).joinpath("scenarios")


def example_dataset_path() -> str:
    """Filesystem path of the bundled two-phase example dataset."""
    return str(resources.files(__package__).joinpath("data/example_two_phase.csv"))


def list_scenarios() -> tuple[str, ...]:
    """All addressable scenario names: canonical names plus aliases."""
    canonical = sorted(
        entry.name[: -len(".json")]
        for entry in _registry_dir().iterdir()
        if entry.name.endswith(".json")
    )
    return tuple(canonical) + tuple(sorted(SCENARIO_ALIASES))


def load_scenario(name_or_path: str) -> ScenarioConfig:
    """Load a scenario from the registry by name or from a JSON file path."""
    if os.sep in name_or_path or name_or_path.endswith(".json") or os.path.exists(
        name_or_path
    ):
        try:
            with open(name_or_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise InvalidConfigError(f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"scenario file is not valid JSON: {exc}") from exc
    else:
        entry = _registry_dir().joinpath(f"{canonical_scenario_name(name_or_path)}.json")
        if not entry.is_file():
            known = ", ".join(list_scenarios())
            raise InvalidConfigError(
                f"unknown scenario {name_or_path!r}; known scenarios: {known}"
            )
        payload = json.loads(entry.read_text(encoding="utf-8"))
    return ScenarioConfig.from_dict(payload)


def _column_block(headers, base, line):
    """Resolve a covariate block named ``base`` or ``base1..baseK``."""
    pattern = re.compile(re.escape(base) + r"([0-9]+)\Z")
    numbered = [h for h in headers if pattern.match(h)]
    if base in headers and numbered:
        raise ParseError(
            f"use either a bare {base} column or numbered {base} columns, not both",
            row=line,
        )
    if base in headers:
        return (base,)
    numbered.sort(key=lambda h: int(pattern.match(h).group(1)))
    expected = [f"{base}{i}" for i in range(1, len(numbered) + 1)]
    if numbered != expected:
        raise ParseError(
            f"{base} columns must be numbered consecutively from {base}1",
            row=line,
        )
    return tuple(numbered)


def _parse_float(cell, line, column):
    try:
        value = float(cell)
    except ValueError as exc:
        raise ParseError(
            f"cannot parse {cell!r} as a number", row=line, column=column
        ) from exc
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"non-finite value {cell!r}", row=line, column=column)
    return value


def _parse_bool(cell, line, column):
    word = cell.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ParseError(
        f"cannot parse {cell!r} as true/false", row=line, column=column
    )


def _parse_indicator(cell, line, column):
    value = _parse_float(cell, line, column)
    if value not in (0.0, 1.0):
        raise ParseError(
            f"event indicator must be 0 or 1, got {cell!r}", row=line, column=column
        )
    return value


@dataclass(frozen=True)
class AnalysisDataset:
    """Typed columns of a two-phase analysis file.

    Phase-one columns (``time_star``, ``delta_star``, ``x_star``, ``z``,
    ``randomized``, optional ``pi``) cover every subject. Validated
    columns (``time``, ``delta``, ``x``, optional ``total_y_err``) hold
    values exactly on the randomized rows and NaN elsewhere; they are None
    when the file has no validation columns at all. ``pi`` is the
    selection probability for every subject, inferred as the validated
    fraction when the file omits the column under simple random sampling.
    """

    ids: np.ndarray
    time_star: np.ndarray
    delta_star: np.ndarray
    x_star: np.ndarray
    z: np.ndarray
    randomized: np.ndarray
    pi: np.ndarray | None
    time: np.ndarray | None
    delta: np.ndarray | None
    x: np.ndarray | None
    total_y_err: np.ndarray | None
    x_star_names: tuple[str, ...]
    z_names: tuple[str, ...]
    x_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.time_star.shape[0]

    @property
    def n_validated(self) -> int:
        return int(self.randomized.sum())

    def to_cohort(self) -> CohortData:
        """Cohort container with the validation design attached."""
        return CohortData(
            self.time_star,
            self.delta_star,
            self.x_star,
            self.z,
            selected=self.randomized,
            pi=self.pi,
            time=self.time,
            delta=self.delta,
            x=self.x,
            ids=self.ids,
        )

    def to_design(self) -> TwoPhaseDesign:
        """Phase-two design for the design-based estimators."""
        if not self.randomized.any():
            raise EmptyValidationError(
                "no randomized records, so there is no validation design"
            )
        return TwoPhaseDesign(selected=self.randomized, pi=self.pi)


def load_dataset(path: str) -> AnalysisDataset:
    """Read and validate a two-phase CSV file.

    Missing values (empty cell or ``NA``) are legal only in validated
    columns on rows where ``randomized`` is false; every schema violation
    raises ParseError naming the offending line and column.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidConfigError(f"cannot read dataset file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        headers = [h.strip() for h in raw_header]
        if len(set(headers)) != len(headers):
            raise ParseError("duplicate column names in header", row=1)

        x_star_names = _column_block(headers, "x_star", 1)
        if not x_star_names:
            raise ParseError("missing required column x_star", row=1)
        remaining = [h for h in headers if h not in x_star_names]
        x_names = _column_block(remaining, "x", 1)
        z_names = _column_block(remaining, "z", 1)
        known = set(x_star_names) | set(x_names) | set(z_names)
        known |= {"id", "time_star", "delta_star", "randomized", "pi", "time",
                  "delta", "total_y_err"}
        unknown = [h for h in headers if h not in known]
        if unknown:
            raise ParseError(f"unknown column(s) {unknown}", row=1)
        for required in ("id", "time_star", "delta_star", "randomized"):
            if required not in headers:
                raise ParseError(f"missing required column {required}", row=1)
        have_pi = "pi" in headers
        have_tye = "total_y_err" in headers
        have_truth = bool(x_names) or "time" in headers or "delta" in headers
        if have_truth:
            missing_truth = [c for c in ("time", "delta") if c not in headers]
            if not x_names:
                missing_truth.append("x")
            if missing_truth:
                raise ParseError(
                    f"validated columns are incomplete, missing {missing_truth}",
                    row=1,
                )
            if len(x_names) != len(x_star_names):
                raise ParseError(
                    "x columns must match the x_star columns one to one", row=1
                )
        index = {h: i for i, h in enumerate(headers)}

        ids, rows = [], []
        for line, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(headers):
                raise ParseError(
                    f"expected {len(headers)} cells, found {len(record)}", row=line
                )
            def cell(name):
                return record[index[name]].strip()

            randomized = _parse_bool(cell("randomized"), line, "randomized")
            row = {"randomized": randomized}
            ids.append(cell("id"))
            for name in ("time_star", *x_star_names, *z_names):
                text = cell(name)
                if text in _MISSING:
                    raise ParseError(
                        "phase-one columns cannot be missing", row=line, column=name
                    )
                row[name] = _parse_float(text, line, name)
            row["delta_star"] = _parse_indicator(cell("delta_star"), line, "delta_star")
            if row["time_star"] < 0:
                raise ParseError(
                    "negative error-prone follow-up time", row=line, column="time_star"
                )
            if have_pi:
                text = cell("pi")
                if text in _MISSING:
                    raise ParseError(
                        "pi must be known for every subject", row=line, column="pi"
                    )
                value = _parse_float(text, line, "pi")
                if not 0.0 < value <= 1.0:
                    raise ParseError(
                        "sampling probability must lie in (0, 1]",
                        row=line,
                        column="pi",
                    )
                row["pi"] = value
            validated_cols = (
                ("time", "delta", *x_names, *(("total_y_err",) if have_tye else ()))
                if have_truth
                else (("total_y_err",) if have_tye else ())
            )
            for name in validated_cols:
                text = cell(name)
                if randomized:
                    if text in _MISSING:
                        raise ParseError(
                            "validated columns must be present on randomized rows",
                            row=line,
                            column=name,
                        )
                    if name == "delta":
                        row[name] = _parse_indicator(text, line, name)
                    else:
                        row[name] = _parse_float(text, line, name)
                else:
                    if text not in _MISSING:
                        raise ParseError(
                            "validated columns must be missing on non-randomized rows",
                            row=line,
                            column=name,
                        )
                    row[name] = math.nan
            if randomized and have_truth:
                if row["time"] < 0:
                    raise ParseError(
                        "negative validated follow-up time", row=line, column="time"
                    )
                if have_tye:
                    derived = row["time_star"] - row["time"]
                    if abs(row["total_y_err"] - derived) > 1e-8 * max(
                        1.0, abs(row["time_star"])
                    ):
                        raise ParseError(
                            "total_y_err disagrees with time_star - time",
                            row=line,
                            column="total_y_err",
                        )
            rows.append(row)

    if not rows:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    randomized = np.array([r["randomized"] for r in rows], dtype=bool)
    if randomized.any() and not have_truth:
        raise ParseError(
            "randomized rows present but the file has no validated columns", row=1
        )

    def column(name):
        return np.array([r[name] for r in rows], dtype=float)

    x_star = np.column_stack([column(name) for name in x_star_names])
    z = (
        np.column_stack([column(name) for name in z_names])
        if z_names
        else np.zeros((len(rows), 0))
    )
    if have_pi:
        pi = column("pi")
    elif randomized.any():
        pi = np.full(len(rows), float(randomized.mean()))
    else:
        pi = None
    return AnalysisDataset(
        ids=np.array(ids),
        time_star=column("time_star"),
        delta_star=column("delta_star").astype(bool),
        x_star=x_star,
        z=z,
        randomized=randomized,
        pi=pi,
        time=column("time") if have_truth else None,
        delta=column("delta") if have_truth else None,
        x=np.column_stack([column(name) for name in x_names]) if have_truth else None,
        total_y_err=column("total_y_err") if have_tye else None,
        x_star_names=x_star_names,
        z_names=z_names,
        x_names=x_names,
    )


@dataclass(frozen=True)
class RunManifest:
    """What a command ran on, with enough detail to reproduce the files.

    ``settings`` carries the command-specific knobs as sorted (key, value)
    string pairs so the manifest hash is stable under dict ordering.
    """

    command: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    seed: int | None = None
    settings: tuple[tuple[str, str], ...] = ()
    version: str = __version__

    def canonical_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "seed": self.seed,
            "settings": [list(pair) for pair in sorted(self.settings)],
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def header_lines(self) -> list[str]:
        seed = "none" if self.seed is None else str(self.seed)
        return [f"# manifest-sha256: {self.sha256()}", f"# seed: {seed}"]


def _number(value) -> str:
    """Full-precision, locale-free text for one numeric cell."""
    return repr(float(value))


def write_text(path: str, body: str, manifest: RunManifest) -> None:
    """Write a text artifact with the manifest stamp on top."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in manifest.header_lines():
            handle.write(line + "\n")
        handle.write(body)
        if not body.endswith("\n"):
            handle.write("\n")


def write_fit_csv(path, names, beta, manifest, se=None, ci_lower=None, ci_upper=None):
    """Coefficient table as CSV: term, estimate, hazard ratio, then
    bootstrap columns when available."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in manifest.header_lines():
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["term", "estimate", "hazard_ratio", "se", "ci_lower", "ci_upper"]
        )
        for i, name in enumerate(names):
            row = [name, _number(beta[i]), _number(math.exp(beta[i]))]
            row.append("" if se is None else _number(se[i]))
            row.append("" if ci_lower is None else _number(ci_lower[i]))
            row.append("" if ci_upper is None else _number(ci_upper[i]))
            writer.writerow(row)


def format_fit_text(estimator, names, beta, se=None, ci_lower=None, ci_upper=None):
    """Aligned human-readable coefficient table."""
    width = max(8, max(len(n) for n in names))
    lines = [f"estimator: {estimator}"]
    header = f"{'term':<{width}} {'estimate':>12} {'hazard_ratio':>12}"
    if se is not None:
        header += f" {'se':>12} {'ci_lower':>12} {'ci_upper':>12}"
    lines.append(header)
    for i, name in enumerate(names):
        line = f"{name:<{width}} {beta[i]:>12.6f} {math.exp(beta[i]):>12.6f}"
        if se is not None:
            line += f" {se[i]:>12.6f} {ci_lower[i]:>12.6f} {ci_upper[i]:>12.6f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


_SCENARIO_FIELDS = (
    "pct_bias",
    "type1",
    "ase",
    "ese",
    "mse",
    "cp",
    "power",
)


def write_scenario_csv(path, result, manifest) -> None:
    """Scenario summary as CSV, one row per estimator; empty cells mark
    metrics the run did not produce."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in manifest.header_lines():
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["estimator", *_SCENARIO_FIELDS, "reps_used", "n_dropped"])
        for row in result.rows:
            cells = [row.estimator]
            for name in _SCENARIO_FIELDS:
                value = getattr(row, name)
                cells.append("" if value is None else _number(value))
            cells.extend([str(row.reps_used), str(row.n_dropped)])
            writer.writerow(cells)


def format_scenario_text(result) -> str:
    """Aligned benchmark table in the column order of the study tables."""
    null_effect = result.config.beta_x == 0.0
    bias_label = "Type1" if null_effect else "%Bias"
    header = (
        f"{'Method':<10} {bias_label:>9} {'ASE':>9} {'ESE':>9} "
        f"{'MSE':>9} {'CP':>7} {'Power':>7} {'Used':>6} {'Drop':>5}"
    )
    lines = [header]

    def fmt(value, spec):
        return "" if value is None else format(value, spec)

    for row in result.rows:
        bias = row.type1 if null_effect else row.pct_bias
        bias_spec = ".3f"
        lines.append(
            f"{row.estimator:<10} {fmt(bias, bias_spec):>9} {fmt(row.ase, '.4f'):>9} "
            f"{fmt(row.ese, '.4f'):>9} {fmt(row.mse, '.4f'):>9} "
            f"{fmt(row.cp, '.3f'):>7} {fmt(row.power, '.3f'):>7} "
            f"{row.reps_used:>6d} {row.n_dropped:>5d}"
        )
    return "\n".join(lines) + "\n"
