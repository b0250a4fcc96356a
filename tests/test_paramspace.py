"""Catalog contents, argument rendering, and configuration files."""

from __future__ import annotations

import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stx

from strategy_tuner import (
    BitsVal,
    BoolVal,
    ConfigParseError,
    INFINITY,
    IntVal,
    ParamDistribution,
    ParamSpec,
    TunerError,
    default_catalog,
    format_value,
    parse_configuration,
    render_cli_args,
    serialize_configuration,
)
from strategy_tuner import cli
from strategy_tuner.distributions import LAMBDA_CAP
from strategy_tuner.lattice import bottom, same_kind
from strategy_tuner.keytree import parse_keytree
from strategy_tuner.paramspace import (
    Catalog,
    apply_catalog_overrides,
    check_param_name,
    config_dominates,
)

DATA = Path(__file__).parent / "data"


def describe(catalog: Catalog) -> str:
    """Canonical one-line-per-parameter rendering for the golden check."""
    lines = []
    for spec in catalog:
        base, delta = spec.initial.base, spec.initial.delta
        if isinstance(base, IntVal):
            kind, d = "int", f"poisson({delta[0]:g})"
            render = f"flag={spec.flag}"
        elif isinstance(base, BoolVal):
            kind, d = "bool", f"bernoulli({delta[0]:g})"
            render = f"flag={spec.flag} false='{spec.labels[0]}' true='{spec.labels[1]}'"
        else:
            kind, d = f"bits({base.width})", "bernoulli(" + ",".join(f"{q:g}" for q in delta) + ")"
            render = f"flag={spec.flag} labels=" + ",".join(spec.labels)
        lines.append(f"{spec.name} | {kind} | base={format_value(base)} | {d} | {render}")
    return "\n".join(lines) + "\n"


class TestDefaultCatalog:
    def test_thirteen_parameters(self, catalog):
        assert len(catalog) == 13

    def test_slevel_row(self, catalog):
        spec = catalog[4]
        assert spec.name == "slevel"
        assert spec.initial.base == IntVal(0)
        assert spec.initial.delta == (20.0,)

    def test_domains_row(self, catalog):
        spec = catalog[12]
        assert same_kind(spec.initial.base, BitsVal(0, 5))
        assert spec.initial.base == BitsVal.from_string("10000")
        assert spec.initial.delta == (0.5,) * 5

    def test_golden_fixture(self, catalog):
        expected = (DATA / "default_catalog.txt").read_bytes()
        assert describe(catalog).encode("utf-8") == expected

    def test_duplicate_names_rejected(self, catalog):
        with pytest.raises(ValueError):
            Catalog(tuple(catalog) + (catalog[0],))


class TestParamSpec:
    @pytest.mark.parametrize(
        "base, delta, flag, labels",
        [
            (IntVal(0), (1.0,), "", ()),
            (IntVal(0), (1.0,), "-x", ("a",)),
            (BoolVal(False), (0.5,), "-x", ("off",)),
            (BitsVal(0, 2), (0.5, 0.5), "-x", ("a", "b", "c")),
            (BitsVal(0, 2), (0.5, 0.5), "-x", ("a", "")),
        ],
        ids=[
            "empty-flag", "int-with-labels", "bool-with-one-word", "bits-wrong-count",
            "empty-bit-label",
        ],
    )
    def test_malformed_entry_rejected(self, base, delta, flag, labels):
        with pytest.raises(ValueError):
            ParamSpec("x", ParamDistribution(base, delta), flag, labels)

    @pytest.mark.parametrize("name", ["x\0y", "x/../../escaped", "x y", "", "#x", "x=y", "x\u2028"])
    def test_name_no_catalog_can_use_rejected(self, name):
        with pytest.raises(ValueError, match="parameter name"):
            ParamSpec(name, ParamDistribution(IntVal(0), (1.0,)), "-x")

    @given(stx.text(max_size=6))
    def test_name_rule_is_one_key_and_one_path_component(self, name):
        try:
            one_key = list(parse_keytree(f"{name} = 1\n")) == [name]
        except ConfigParseError:
            one_key = False
        try:
            check_param_name(name)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (one_key and "/" not in name and "\0" not in name)

    def test_empty_boolean_word_accepted(self):
        spec = ParamSpec("x", ParamDistribution(BoolVal(False), (0.5,)), "-x", ("", "on"))
        assert spec.labels == ("", "on")


class TestRendering:
    def test_int_flag(self, catalog):
        config = catalog.base_configuration().replace("slevel", IntVal(104))
        args = render_cli_args(config, catalog)
        idx = args.index("-eva-slevel")
        assert args[idx : idx + 2] == ["-eva-slevel", "104"]

    def test_domains_labels(self, catalog):
        config = catalog.base_configuration().replace(
            "domains", BitsVal.from_string("00110")
        )
        args = render_cli_args(config, catalog)
        idx = args.index("-eva-domains")
        assert args[idx : idx + 2] == ["-eva-domains", "equality,gauges"]

    def test_bool_value_pair(self, catalog):
        args = render_cli_args(catalog.base_configuration(), catalog)
        idx = args.index("-eva-equality-through-calls")
        assert args[idx : idx + 2] == ["-eva-equality-through-calls", "none"]
        config = catalog.base_configuration().replace(
            "equality-through-calls", BoolVal(True)
        )
        args = render_cli_args(config, catalog)
        idx = args.index("-eva-equality-through-calls")
        assert args[idx : idx + 2] == ["-eva-equality-through-calls", "formals"]

    def test_empty_choice_omits_flag(self, catalog):
        args = render_cli_args(catalog.base_configuration(), catalog)
        assert "-eva-split-return" not in args
        config = catalog.base_configuration().replace("split-return", BoolVal(True))
        args = render_cli_args(config, catalog)
        idx = args.index("-eva-split-return")
        assert args[idx : idx + 2] == ["-eva-split-return", "auto"]

    def test_empty_bit_set_renders_empty_value(self, catalog):
        config = catalog.base_configuration().replace(
            "domains", BitsVal.from_string("00000")
        )
        args = render_cli_args(config, catalog)
        idx = args.index("-eva-domains")
        assert args[idx + 1] == ""

    def test_infinity_rejected(self, catalog):
        config = catalog.base_configuration().replace("slevel", IntVal(INFINITY))
        with pytest.raises(TunerError, match=r"^infinity is not renderable \(parameter 'slevel'\)$"):
            render_cli_args(config, catalog)


def _random_config(catalog: Catalog, rng: random.Random):
    values = {}
    for spec in catalog:
        if isinstance(spec.initial.base, IntVal):
            values[spec.name] = IntVal(rng.randint(0, 300))
        elif isinstance(spec.initial.base, BoolVal):
            values[spec.name] = BoolVal(rng.random() < 0.5)
        else:
            width = spec.initial.base.width
            values[spec.name] = BitsVal(
                sum(1 << i for i in range(width) if rng.random() < 0.5), width
            )
    return catalog.configuration(values)


class TestInjectivity:
    def test_distinct_configs_render_distinct_args(self, catalog):
        rng = random.Random(31337)
        configs = [_random_config(catalog, rng) for _ in range(200)]
        rendered = {}
        for config in configs:
            key = tuple(render_cli_args(config, catalog))
            if key in rendered:
                assert rendered[key] == config
            rendered[key] = config


class TestConfigurationFiles:
    def test_parse_single_values(self, catalog):
        text = serialize_configuration(catalog.base_configuration())
        config = parse_configuration(text, catalog)
        assert config["slevel"] == IntVal(0)
        assert config["domains"] == BitsVal.from_string("10000")

    def test_round_trip_random(self, catalog):
        rng = random.Random(99)
        for _ in range(50):
            config = _random_config(catalog, rng)
            assert parse_configuration(serialize_configuration(config), catalog) == config

    def test_comments_and_blank_lines(self, catalog):
        text = "# header\n\n" + serialize_configuration(catalog.base_configuration())
        parse_configuration(text, catalog)

    def test_unknown_parameter(self, catalog):
        text = serialize_configuration(catalog.base_configuration()) + "bogus = 3\n"
        with pytest.raises(ConfigParseError) as err:
            parse_configuration(text, catalog)
        assert "bogus" in str(err.value)
        assert err.value.line == 14

    def test_infinity_rejected_with_position(self, catalog):
        text = serialize_configuration(catalog.base_configuration()).replace(
            "slevel = 0", "slevel = inf"
        )
        with pytest.raises(ConfigParseError) as err:
            parse_configuration(text, catalog)
        assert "infinity not allowed" in str(err.value)
        assert err.value.line == 5

    def test_malformed_literal_reports_position(self, catalog):
        text = serialize_configuration(catalog.base_configuration()).replace(
            "ilevel = 8", "ilevel = eight"
        )
        with pytest.raises(ConfigParseError) as err:
            parse_configuration(text, catalog)
        assert err.value.line == 6
        assert err.value.column is not None

    def test_missing_parameter(self, catalog):
        lines = serialize_configuration(catalog.base_configuration()).splitlines()
        with pytest.raises(ConfigParseError) as err:
            parse_configuration("\n".join(lines[:-1]), catalog)
        assert "domains" in str(err.value)

    def test_duplicate_parameter(self, catalog):
        text = serialize_configuration(catalog.base_configuration()) + "slevel = 2\n"
        with pytest.raises(ConfigParseError):
            parse_configuration(text, catalog)


def _base_with(catalog, name, value):
    """The catalog's base values by name, with ``name`` set to ``value``."""
    base = catalog.base_configuration()
    return dict(zip(base.names, base.values)) | {name: value}


class TestLookupErrors:
    """An unknown name raises KeyError; a missing value or one of the wrong kind, ValueError."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda c: c.base_configuration()["nope"], KeyError),
            (lambda c: c.base_configuration().replace("nope", IntVal(1)), KeyError),
            (lambda c: c.base_configuration().replace("slevel", BoolVal(True)), ValueError),
            (lambda c: c.spec("nope"), KeyError),
            (lambda c: c.configuration({"nope": IntVal(1)}), KeyError),
            (lambda c: c.configuration({"slevel": IntVal(1)}), ValueError),
            (lambda c: c.configuration(_base_with(c, "slevel", BoolVal(True))), ValueError),
            (lambda c: c.base_configuration().replace("domains", BitsVal(1, 4)), ValueError),
            (lambda c: c.configuration(_base_with(c, "domains", BitsVal(1, 4))), ValueError),
        ],
        ids=[
            "getitem-unknown",
            "replace-unknown",
            "replace-wrong-kind",
            "spec-unknown",
            "configuration-unknown",
            "configuration-missing",
            "configuration-wrong-kind",
            "replace-wrong-width",
            "configuration-wrong-width",
        ],
    )
    def test_error(self, catalog, call, error):
        with pytest.raises(error):
            call(catalog)


def test_unset_parameters_share_the_catalog_bottoms(catalog):
    # lattice values are immutable: one bottom per parameter serves every configuration
    assert catalog.bottoms == tuple(bottom(spec.initial.base) for spec in catalog)
    assert all(map(operator.is_, catalog.bottom_configuration().values, catalog.bottoms))
    filled = catalog.bottom_configuration().replace("slevel", IntVal(3))
    slevel = catalog.names.index("slevel")
    assert filled.values[slevel] == IntVal(3)
    unset = filled.values[:slevel] + filled.values[slevel + 1 :]
    bottoms = catalog.bottoms[:slevel] + catalog.bottoms[slevel + 1 :]
    assert all(map(operator.is_, unset, bottoms))


class TestDomination:
    def test_base_dominates_bottom(self, catalog):
        assert config_dominates(catalog.base_configuration(), catalog.bottom_configuration())

    def test_not_reflexively_below(self, catalog):
        high = catalog.base_configuration().replace("slevel", IntVal(10))
        assert config_dominates(high, catalog.base_configuration())
        assert not config_dominates(catalog.base_configuration(), high)


class TestCatalogOverrides:
    def test_flag_override(self, catalog):
        overridden = apply_catalog_overrides(catalog, "slevel.flag = -custom-slevel\n")
        config = overridden.base_configuration()
        assert "-custom-slevel" in render_cli_args(config, overridden)

    def test_bool_pair_override(self, catalog):
        text = "remove-redundant-alarms.false =\nremove-redundant-alarms.true = on\n"
        overridden = apply_catalog_overrides(catalog, text)
        args = render_cli_args(overridden.base_configuration(), overridden)
        assert "-eva-remove-redundant-alarms" not in args

    def test_initial_distribution_override(self, catalog):
        text = "slevel.base = 50\nslevel.lambda = 7\n"
        overridden = apply_catalog_overrides(catalog, text)
        assert overridden.spec("slevel").initial.base == IntVal(50)
        assert overridden.spec("slevel").initial.delta == (7.0,)

    def test_labels_override(self, catalog):
        text = "domains.labels = a,b,c,d,e\n"
        overridden = apply_catalog_overrides(catalog, text)
        assert overridden.spec("domains").labels == ("a", "b", "c", "d", "e")

    def test_unknown_parameter_rejected(self, catalog):
        with pytest.raises(ConfigParseError):
            apply_catalog_overrides(catalog, "nope.flag = -x\n")

    def test_wrong_width_labels_rejected(self, catalog):
        with pytest.raises(ConfigParseError):
            apply_catalog_overrides(catalog, "domains.labels = a,b\n")

    @pytest.mark.parametrize("line", ["slevel.flag =", "domains.labels = a,b,,d,e"])
    def test_empty_flag_or_label_rejected_with_line(self, catalog, line, tmp_path, capsys):
        # an empty flag renders as an empty argument word, an empty label
        # as an empty item of the label list
        with pytest.raises(ConfigParseError) as info:
            apply_catalog_overrides(catalog, f"slevel.base = 5\n{line}\n")
        assert info.value.line == 2
        _tune_rejects(tmp_path, capsys, f"slevel.base = 5\n{line}\n", info.value)

    @pytest.mark.parametrize(
        "line",
        ["slevel.true = x", "slevel.labels = a", "split-return.labels = a,b", "domains.false = x"],
    )
    def test_field_of_another_kind_rejected_with_line(self, catalog, line, tmp_path, capsys):
        # a boolean's pair and a bit vector's labels are both ``labels``:
        # the field must match the parameter's kind
        with pytest.raises(ConfigParseError) as info:
            apply_catalog_overrides(catalog, f"slevel.base = 5\n{line}\n")
        assert info.value.line == 2
        _tune_rejects(tmp_path, capsys, f"slevel.base = 5\n{line}\n", info.value)

    @pytest.mark.parametrize("raw", ["inf", "nan", "1e6"])
    def test_unusable_lambda_rejected_with_line(self, catalog, raw):
        # inf would hang the first sample, and a rate above the cap sits
        # above anything refinement allows
        with pytest.raises(ConfigParseError) as info:
            apply_catalog_overrides(catalog, f"slevel.base = 5\nslevel.lambda = {raw}\n")
        assert info.value.line == 2

    def test_infinite_int_base_rejected_with_line(self, catalog):
        # every sample would be infinite, and recommended.conf unreadable
        with pytest.raises(ConfigParseError) as info:
            apply_catalog_overrides(catalog, "slevel.lambda = 7\nslevel.base = inf\n")
        assert info.value.line == 2

    def test_lambda_at_cap_accepted(self, catalog):
        overridden = apply_catalog_overrides(catalog, "slevel.lambda = 100000\n")
        assert overridden.spec("slevel").initial.delta == (LAMBDA_CAP,)

    def test_q_override_of_a_boolean_and_a_vector(self, catalog):
        text = "split-return.q = 0.9\ndomains.q = 0.1, 0.2,0.3,0.4,0.5\n"
        overridden = apply_catalog_overrides(catalog, text)
        assert overridden.spec("split-return").initial.delta == (0.9,)
        assert overridden.spec("domains").initial.delta == (0.1, 0.2, 0.3, 0.4, 0.5)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("split-return.q = 0.5,0.5", "needs 1 q values, got 2"),
            ("domains.q = 0.5,0.5", "needs 5 q values, got 2"),
            ("split-return.q = 1.5", "must lie in [0, 1]"),
            ("domains.q = 0.5,0.5,0.5,0.5,-0.2", "expected a finite number at least 0"),
            ("slevel.q = 0.5", "has no Bernoulli delta"),
            ("split-return.lambda = 5", "has no Poisson delta"),
        ],
    )
    def test_unusable_delta_rejected_with_line(self, catalog, line, message, tmp_path, capsys):
        with pytest.raises(ConfigParseError, match=re.escape(message)) as info:
            apply_catalog_overrides(catalog, f"slevel.base = 5\n{line}\n")
        assert info.value.line == 2
        _tune_rejects(tmp_path, capsys, f"slevel.base = 5\n{line}\n", info.value)


def _tune_rejects(tmp_path: Path, capsys, overrides: str, error) -> None:
    """``tune`` with the catalog ``overrides`` exits 2 with ``error`` as its one line, and
    makes no output directory."""
    (tmp_path / "x.catalog").write_text(overrides, encoding="utf-8")
    profile = Path(__file__).parent.parent / "samples" / "synthetic_slevel.profile"
    conf = tmp_path / "run.conf"
    conf.write_text(f"profile = {profile}\ncatalog = {tmp_path / 'x.catalog'}\n", encoding="utf-8")
    assert cli.main(["tune", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


@given(stx.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_int_literal_round_trip(n):
    catalog = default_catalog()
    config = catalog.base_configuration().replace("slevel", IntVal(n))
    assert parse_configuration(serialize_configuration(config), catalog) == config
