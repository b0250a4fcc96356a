"""The analyzer's parameter catalog and configuration handling.

A catalog declares every tunable parameter: its lattice kind, its initial
distribution, and how a concrete value renders to command-line arguments.
The built-in default targets the 13 externally tunable options of
Frama-C/Eva, with the stock "-eva-*" flag spellings. Flag spellings are
catalog data, overridable from a file, never hardcoded elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterator, Mapping

from .distributions import LAMBDA_CAP, ParamDistribution
from .errors import ConfigParseError, RenderError, shown
from .keytree import parse_keytree
from .lattice import (
    BitsVal,
    BoolVal,
    IntVal,
    LatticeValue,
    bottom,
    format_value,
    join,
    leq,
    parse_value,
    read_amount,
    same_kind,
)


def check_param_name(name: str) -> None:
    """Raise ValueError unless ``name`` can name a parameter.

    A key-value file reads it back as one key: it is nonempty, holds no
    whitespace and no '=', and does not start with '#'. A chart file is
    named after it, so it is one path component: no '/' and no NUL. Both
    are UTF-8 text, so it holds no lone surrogate, which a JSON escape gives.
    """
    if name.split() != [name] or name.startswith("#") or any(
        c in "=/\0" or "\ud800" <= c <= "\udfff" for c in name
    ):
        raise ValueError(
            f"parameter name {shown(name)} must be nonempty, hold no whitespace, '=', '/', NUL "
            "or lone surrogate, and not start with '#'"
        )


@dataclass(frozen=True)
class ParamSpec:
    """One catalog parameter: its name, its initial distribution, and how
    a value renders as ``[flag, word]``.

    ``labels`` depends on the kind of ``initial.base``: ``()`` for an
    integer, which renders in decimal; ``(when_false, when_true)`` for a
    boolean, where an empty word omits the flag; and one nonempty label
    per bit for a bit vector, which renders its set bits' labels
    comma-joined.
    """

    name: str
    initial: ParamDistribution
    flag: str
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_param_name(self.name)
        base = self.initial.base
        if not self.flag:
            raise ValueError(f"{self.name!r} flag must be nonempty")
        need = 2 if isinstance(base, BoolVal) else base.width if isinstance(base, BitsVal) else 0
        if len(self.labels) != need:
            raise ValueError(f"{self.name!r} needs {need} labels, got {len(self.labels)}")
        if isinstance(base, BitsVal) and "" in self.labels:
            raise ValueError(f"{self.name!r} labels must be nonempty, got {shown(self.labels)}")


def _index(names: tuple[str, ...], name: str) -> int:
    """The position of ``name`` in ``names``; KeyError if it is absent."""
    try:
        return names.index(name)
    except ValueError:
        raise KeyError(name) from None


@dataclass(frozen=True, slots=True)
class Configuration:
    """A concrete value for every catalog parameter: ``values[i]`` for ``names[i]``."""

    names: tuple[str, ...]
    values: tuple[LatticeValue, ...]

    def __getitem__(self, name: str) -> LatticeValue:
        return self.values[_index(self.names, name)]

    def replace(self, name: str, value: LatticeValue) -> "Configuration":
        i = _index(self.names, name)
        if not same_kind(self.values[i], value):
            raise ValueError(f"replacement for {name!r} has the wrong kind")
        return Configuration(self.names, self.values[:i] + (value,) + self.values[i + 1 :])


@dataclass(frozen=True)
class Catalog:
    params: tuple[ParamSpec, ...]
    #: Parameter names in catalog order, computed once and shared by every
    #: configuration the catalog builds.
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: Each parameter's lattice bottom, built once and shared by every
    #: configuration that leaves the parameter unset.
    bottoms: tuple[LatticeValue, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = tuple(p.name for p in self.params)
        if len(set(names)) != len(names):
            raise ValueError("catalog parameter names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "bottoms", tuple(bottom(p.initial.base) for p in self.params))

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self) -> Iterator[ParamSpec]:
        return iter(self.params)

    def __getitem__(self, index: int) -> ParamSpec:
        return self.params[index]

    def spec(self, name: str) -> ParamSpec:
        return self.params[_index(self.names, name)]

    def initial_distributions(self) -> dict[str, ParamDistribution]:
        return {p.name: p.initial for p in self.params}

    def base_configuration(self) -> Configuration:
        return Configuration(self.names, tuple(p.initial.base for p in self.params))

    def bottom_configuration(self) -> Configuration:
        return Configuration(self.names, self.bottoms)

    def configuration(self, values: Mapping[str, LatticeValue]) -> Configuration:
        """Build a validated configuration from a mapping that covers the whole catalog.

        Unknown names, missing names and kind mismatches are rejected.
        """
        for name in values:
            if name not in self.names:
                raise KeyError(f"unknown parameter {name!r}")
        for name, least in zip(self.names, self.bottoms):
            if name not in values:
                raise ValueError(f"missing value for parameter {name!r}")
            if not same_kind(values[name], least):
                raise ValueError(f"value for {name!r} has the wrong kind")
        return Configuration(self.names, tuple(map(values.__getitem__, self.names)))


def config_dominates(config: Configuration, lower: Configuration) -> bool:
    """Pointwise domination over all parameters."""
    return all(map(leq, lower.values, map(config.__getitem__, lower.names)))


def config_join(a: Configuration, b: Configuration) -> Configuration:
    return Configuration(a.names, tuple(map(join, a.values, map(b.__getitem__, a.names))))


_DOMAIN_LABELS = ("cvalues", "octagon", "equality", "gauges", "symbolic-locations")


def _int_param(name: str, base: int, lam: float) -> ParamSpec:
    return ParamSpec(
        name=name,
        initial=ParamDistribution(IntVal(base), (lam,)),
        flag=f"-eva-{name}",
    )


def _bool_param(name: str, when_false: str, when_true: str) -> ParamSpec:
    return ParamSpec(
        name=name,
        initial=ParamDistribution(BoolVal(False), (0.5,)),
        flag=f"-eva-{name}",
        labels=(when_false, when_true),
    )


def default_catalog() -> Catalog:
    """The built-in Frama-C/Eva catalog: 13 parameters with their
    low-precision starting bases and per-parameter exploration rates."""
    domains_base = BitsVal.from_string("10000")
    return Catalog(
        (
            _int_param("min-loop-unroll", 0, 0.4),
            _int_param("auto-loop-unroll", 0, 10.0),
            _int_param("widening-delay", 1, 0.5),
            _int_param("partition-history", 0, 0.4),
            _int_param("slevel", 0, 20.0),
            _int_param("ilevel", 8, 2.0),
            _int_param("plevel", 10, 10.0),
            _int_param("subdivide-non-linear", 0, 2.5),
            _bool_param("split-return", "", "auto"),
            _bool_param("remove-redundant-alarms", "false", "true"),
            _bool_param("octagon-through-calls", "false", "true"),
            _bool_param("equality-through-calls", "none", "formals"),
            ParamSpec(
                name="domains",
                initial=ParamDistribution(domains_base, (0.5,) * 5),
                flag="-eva-domains",
                labels=_DOMAIN_LABELS,
            ),
        )
    )


def render_cli_args(config: Configuration, catalog: Catalog) -> list[str]:
    """Deterministic analyzer arguments for a concrete configuration.

    Infinity cannot be rendered; encountering it means a sampling or
    refinement invariant was broken upstream.
    """
    args: list[str] = []
    for spec in catalog:
        value = config[spec.name]
        if isinstance(value, IntVal):
            if value.is_infinite:
                raise RenderError(f"infinity is not renderable (parameter {spec.name!r})")
            args.extend([spec.flag, str(value.value)])
        elif isinstance(value, BoolVal):
            chosen = spec.labels[value.value]
            if chosen != "":
                args.extend([spec.flag, chosen])
        else:
            enabled = [label for i, label in enumerate(spec.labels) if value.value >> i & 1]
            args.extend([spec.flag, ",".join(enabled)])
    return args


def serialize_configuration(config: Configuration) -> str:
    return "".join(f"{n} = {format_value(v)}\n" for n, v in zip(config.names, config.values))


def parse_configuration(text: str, catalog: Catalog) -> Configuration:
    """Parse "name = value" lines into a full configuration.

    Every catalog parameter must be assigned exactly once; values use the
    lattice textual form, except that infinity is rejected (concrete
    configurations must be runnable).
    """
    values: dict[str, LatticeValue] = {}
    for key, (raw, lineno, column) in parse_keytree(text).items():
        try:
            spec = catalog.spec(key)
        except KeyError:
            raise ConfigParseError(f"unknown parameter {shown(key)}", line=lineno, column=1)
        if isinstance(spec.initial.base, IntVal) and raw == "inf":
            raise ConfigParseError(
                "infinity not allowed in concrete configurations",
                line=lineno,
                column=column,
            )
        try:
            values[key] = parse_value(spec.initial.base, raw)
        except ValueError as exc:
            raise ConfigParseError(str(exc), line=lineno, column=column)
    try:
        return catalog.configuration(values)
    except (KeyError, ValueError) as exc:
        raise ConfigParseError(str(exc))


def apply_catalog_overrides(catalog: Catalog, text: str) -> Catalog:
    """Apply a catalog override file to a base catalog.

    Supported keys, all per parameter name:
      ``<name>.flag``    replacement flag spelling (any kind, nonempty)
      ``<name>.false`` / ``<name>.true``  boolean value pair (may be empty)
      ``<name>.labels``  comma-separated nonempty bit labels (width must match)
      ``<name>.base``    initial base point, lattice textual form
      ``<name>.lambda`` / ``<name>.q``    initial exploration parameter
    """
    specs = {spec.name: spec for spec in catalog}
    for key, (raw, lineno, _) in parse_keytree(text).items():
        name, _, field = key.rpartition(".")
        if not name or name not in specs:
            raise ConfigParseError(f"unknown parameter in override key {shown(key)}", line=lineno)
        try:
            specs[name] = _override_field(specs[name], field, raw)
        except ValueError as exc:
            raise ConfigParseError(str(exc), line=lineno)
    return Catalog(tuple(specs[spec.name] for spec in catalog))


def _override_field(spec: ParamSpec, field: str, raw: str) -> ParamSpec:
    if field == "flag":
        return dc_replace(spec, flag=raw)
    if field in ("false", "true"):
        if not isinstance(spec.initial.base, BoolVal):
            raise ValueError(f"{spec.name!r} is not boolean, cannot set {shown(field)}")
        pair = (raw, spec.labels[1]) if field == "false" else (spec.labels[0], raw)
        return dc_replace(spec, labels=pair)
    if field == "labels":
        if not isinstance(spec.initial.base, BitsVal):
            raise ValueError(f"{spec.name!r} is not a bit vector, cannot set labels")
        return dc_replace(spec, labels=tuple(part.strip() for part in raw.split(",")))
    if field == "base":
        base = parse_value(spec.initial.base, raw)
        if isinstance(base, IntVal) and base.is_infinite:
            # every sample would be infinite, which no analyzer can run
            raise ValueError(f"{spec.name!r} base must be finite, got {raw}")
        return dc_replace(spec, initial=ParamDistribution(base, spec.initial.delta))
    if field == "lambda":
        if not isinstance(spec.initial.base, IntVal):
            raise ValueError(f"{spec.name!r} has no Poisson delta")
        initial = ParamDistribution(spec.initial.base, (read_amount(raw),))
        if initial.delta[0] > LAMBDA_CAP:
            raise ValueError(f"{spec.name!r} lambda must be at most {LAMBDA_CAP:g}, got {shown(raw)}")
        return dc_replace(spec, initial=initial)
    if field == "q":
        # one comma-separated q per bit of a vector, one q for a boolean
        base, width = spec.initial.base, len(spec.initial.delta)
        if isinstance(base, IntVal):
            raise ValueError(f"{spec.name!r} has no Bernoulli delta")
        qs = tuple(read_amount(part.strip()) for part in raw.split(","))
        if len(qs) != width:
            raise ValueError(f"{spec.name!r} needs {width} q values, got {len(qs)}")
        return dc_replace(spec, initial=ParamDistribution(base, qs))
    raise ValueError(f"unknown override field {shown(field)}")
