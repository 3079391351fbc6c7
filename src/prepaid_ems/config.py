"""Experiment configuration: JSON parsing and validation.

The ``data`` section holds either a ``csv`` path or a ``synthetic``
household spec. A CSV holds whole days of ``step_minutes`` steps, as
many as the file has; the sweep reads ``horizon_days`` of them from
``start_day`` on. A synthetic household is generated for
``horizon_days`` days from its first, so it takes no ``start_day``
other than 0. ``budget_fractions``, ``regimes`` and
``policies`` each name an entry at most once, and no two budget
fractions share a trace file name (:func:`fraction_tag`).

DFM is solved exactly in process (``prepaid_ems.dfm``) and takes no
settings. Unknown keys are ignored, at the top level as in every
section. That includes a ``dfm`` section, whose ``backend``,
``grid_resolution``, ``solver_cmd`` and ``solver_timeout`` chose and
tuned solvers that the sweep no longer runs.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from prepaid_ems.forecast import (
    ApplianceProfile,
    Fidelity,
    ForecastSpec,
    Granularity,
)
from prepaid_ems.model import LoadSet

POLICIES = ("BSL", "AFG", "DFM", "OBM")

REGIME_NAMES = (
    "perfect-detailed",
    "perfect-limited",
    "imperfect-detailed",
    "imperfect-limited",
)

#: Loads and usage profiles used by ``synth`` when no config is given:
#: a small household in descending priority order.
DEFAULT_HOUSEHOLD = {
    "refrigerator": (0.48, ApplianceProfile(150.0, 1.0, 10.0)),
    "air_compressor": (0.24, ApplianceProfile(1100.0, 0.5, 2.0)),
    "microwave": (0.16, ApplianceProfile(1200.0, 0.9, 0.5)),
    "washing_machine": (0.12, ApplianceProfile(500.0, 0.35, 1.5)),
}


class ConfigError(ValueError):
    pass


def fraction_tag(fraction: float) -> str:
    """The budget fraction's part of a trace file name: ``b`` and the
    fraction in whole percent (0.8 -> ``b80``)."""
    return f"b{int(round(fraction * 100))}"


@dataclass
class ExperimentConfig:
    loads: LoadSet
    alpha_per_wh: float
    step_minutes: int
    horizon_days: int
    csv_path: Path | None = None
    profiles: dict[str, ApplianceProfile] | None = None
    synth_seed: int = 1
    start_day: int = 0
    budget_fractions: list[float] = field(default_factory=lambda: [0.7, 0.8, 0.9])
    regimes: list[ForecastSpec] = field(default_factory=list)
    shuffle_seed: int = 1
    policies: list[str] = field(default_factory=lambda: list(POLICIES))
    output_dir: Path = Path("out")

    def validate(self) -> None:
        if len(self.loads) == 0:
            raise ConfigError("at least one load is required")
        if not (0 < self.alpha_per_wh < math.inf):
            raise ConfigError(
                f"alpha_per_wh must be positive finite, got {self.alpha_per_wh}"
            )
        if self.step_minutes <= 0 or 1440 % self.step_minutes != 0:
            raise ConfigError(
                f"step_minutes must divide 1440 evenly, got {self.step_minutes}"
            )
        if self.horizon_days <= 0:
            raise ConfigError(f"horizon_days must be positive, got {self.horizon_days}")
        if self.start_day < 0:
            raise ConfigError(f"start_day must be non-negative, got {self.start_day}")
        if not self.budget_fractions:
            raise ConfigError("at least one budget fraction is required")
        bad = [f for f in self.budget_fractions if not 0 <= f <= 1]
        if bad:
            raise ConfigError(f"budget fractions must lie in [0, 1], got {bad}")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ConfigError(f"unknown policies {unknown}; choose from {POLICIES}")
        if not self.regimes:
            raise ConfigError("at least one forecast regime is required")
        for name, values in (
            ("budget_fractions", self.budget_fractions),
            ("regimes", [regime.label for regime in self.regimes]),
            ("policies", self.policies),
        ):
            repeated = list(dict.fromkeys(v for v in values if values.count(v) > 1))
            if repeated:
                raise ConfigError(f"{name} lists {repeated} more than once")
        tags = [fraction_tag(f) for f in self.budget_fractions]
        shared = [
            f for f, tag in zip(self.budget_fractions, tags) if tags.count(tag) > 1
        ]
        if shared:
            raise ConfigError(
                f"budget_fractions {shared} share a trace file name "
                f"({fraction_tag(shared[0])})"
            )
        if (self.csv_path is None) == (self.profiles is None):
            raise ConfigError(
                "data source must be exactly one of a CSV path or a synthetic spec"
            )
        if self.profiles is not None and self.start_day != 0:
            raise ConfigError(
                f"start_day applies to a CSV source only; a synthetic household "
                f"starts at day 0, got {self.start_day}"
            )
        if self.profiles is not None:
            missing = [n for n in self.loads.names if n not in self.profiles]
            if missing:
                raise ConfigError(f"synthetic spec missing profiles for {missing}")


def parse_regime(name: str, shuffle_seed: int) -> ForecastSpec:
    if name not in REGIME_NAMES:
        raise ConfigError(f"unknown regime {name!r}; choose from {REGIME_NAMES}")
    fidelity_name, granularity_name = name.split("-")
    fidelity = Fidelity.PERFECT if fidelity_name == "perfect" else Fidelity.IMPERFECT_SHUFFLED
    granularity = (
        Granularity.DETAILED if granularity_name == "detailed" else Granularity.LIMITED
    )
    seed = shuffle_seed if fidelity is Fidelity.IMPERFECT_SHUFFLED else None
    return ForecastSpec(fidelity, granularity, seed)


def _require(data: dict, key: str):
    if key not in data:
        raise ConfigError(f"missing required config field {key!r}")
    return data[key]


_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
}


def _typed(value, kind, name: str):
    """``value`` if it is a ``kind`` (``dict``, ``list`` or ``str``), else
    a config error naming the field."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _number(kind, value, name: str):
    """``kind(value)`` (``int`` or ``float``). A value it rejects, a float
    it would change (2.5 as an int, NaN), a JSON boolean (a ``bool`` is
    an ``int`` to Python) or a string (``float("1")`` is 1.0) is a config
    error naming the field."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (
        number is None
        or isinstance(value, (bool, str))
        or (isinstance(value, float) and number != value)
    ):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return number


def _load_pair(entry, where: str) -> tuple[str, float]:
    """``(name, gamma)`` of one ``loads`` entry; a malformed entry is a
    config error naming the entry and the field."""
    _typed(entry, dict, where)
    for field in ("name", "gamma"):
        if field not in entry:
            raise ConfigError(f"{where} is missing {field!r}")
    return (
        _typed(entry["name"], str, f"{where} name"),
        _number(float, entry["gamma"], f"{where} gamma"),
    )


def _profile(entry, where: str) -> ApplianceProfile:
    """One synthetic profile; a malformed one is a config error naming
    the profile and the field."""
    _typed(entry, dict, where)
    fields = ("rated_w", "on_probability", "mean_on_hours")
    for field in fields:
        if field not in entry:
            raise ConfigError(f"{where} is missing {field!r}")
    numbers = [_number(float, entry[field], f"{where} {field}") for field in fields]
    try:
        return ApplianceProfile(*numbers)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build and validate a config from parsed JSON.

    Relative paths are resolved against ``base_dir`` (normally the
    directory containing the config file).
    """
    base = base_dir or Path(".")
    entries = _typed(_require(data, "loads"), list, "loads")
    pairs = [_load_pair(entry, f"loads[{i}]") for i, entry in enumerate(entries)]
    try:
        loads = LoadSet.from_pairs(pairs)
    except ValueError as exc:
        raise ConfigError(f"invalid loads section: {exc}") from None

    source = _typed(_require(data, "data"), dict, "data")
    csv_path = None
    profiles = None
    synth_seed = 1
    if "csv" in source:
        csv_path = base / _typed(source["csv"], str, "csv")
    elif "synthetic" in source:
        synth = _typed(source["synthetic"], dict, "synthetic")
        synth_seed = _number(int, synth.get("seed", 1), "synthetic seed")
        profiles = {
            name: _profile(entry, f"synthetic profile {name!r}")
            for name, entry in _typed(
                synth.get("profiles", {}), dict, "synthetic profiles"
            ).items()
        }
    else:
        raise ConfigError("data section must contain 'csv' or 'synthetic'")

    shuffle_seed = _number(int, data.get("shuffle_seed", 1), "shuffle_seed")
    regime_names = _typed(data.get("regimes", list(REGIME_NAMES)), list, "regimes")
    regimes = [parse_regime(name, shuffle_seed) for name in regime_names]

    fractions = _typed(
        data.get("budget_fractions", [0.7, 0.8, 0.9]), list, "budget_fractions"
    )
    budget_fractions = [_number(float, f, "budget_fractions") for f in fractions]

    config = ExperimentConfig(
        loads=loads,
        alpha_per_wh=_number(float, _require(data, "alpha_per_wh"), "alpha_per_wh"),
        step_minutes=_number(int, _require(data, "step_minutes"), "step_minutes"),
        horizon_days=_number(int, _require(data, "horizon_days"), "horizon_days"),
        csv_path=csv_path,
        profiles=profiles,
        synth_seed=synth_seed,
        start_day=_number(int, data.get("start_day", 0), "start_day"),
        budget_fractions=budget_fractions,
        regimes=regimes,
        shuffle_seed=shuffle_seed,
        policies=list(_typed(data.get("policies", list(POLICIES)), list, "policies")),
        output_dir=base / _typed(data.get("output_dir", "out"), str, "output_dir"),
    )
    config.validate()
    return config


def from_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return from_dict(data, base_dir=path.parent)
