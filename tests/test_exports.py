import ast
import copy
import math
import pathlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

import arctancert
from arctancert import (
    Approximant,
    BoundKind,
    ErrorReport,
    Interval,
    LiftedApproximant,
    OracleConfig,
    certify_bound,
    lagrange_p,
    master_params,
    norm_transfer_check,
    sup_error,
)
from arctancert import families, master, series
from arctancert.families import FAMILIES, FamilyInfo
from arctancert.master import MAX_ORDER, MasterParams

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    # a name removed from the package must not linger in __all__
    missing = [name for name in arctancert.__all__ if not hasattr(arctancert, name)]
    assert missing == []
    assert len(set(arctancert.__all__)) == len(arctancert.__all__)


def test_readme_quick_start_runs():
    # the README's library example, executed as written
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["report"].satisfied


def test_names_cut_from_the_package_stay_in_their_modules():
    from arctancert import families, master, series, verify

    homes = {
        families: ["family_info", "list_rows"],
        master: ["MasterParams", "denominator_product"],
        series: ["cheb_coefficients", "machin_pi_fraction"],
        verify: ["default_config"],
    }
    for module, names in homes.items():
        for name in names:
            assert hasattr(module, name) and name not in arctancert.__all__, name


def test_a_fresh_import_loads_no_dataclasses_or_inspect():
    # every command starts a fresh interpreter; the records need none of dataclasses' imports
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import arctancert.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "arctancert.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}) == []


def _report(sup):
    approx = BoundKind.APPROXIMATION
    return ErrorReport("w", Interval(0.0, 1.0), sup, 0.5, 1e-3, approx, True, 1e-3 - sup, evals_float=65)


# each public type: two builds of one value, and a build of another value
_TYPES = {
    "OracleConfig": (lambda: OracleConfig(60, 40), lambda: OracleConfig(60, 30)),
    "Interval": (lambda: Interval(0.0, 1.0), lambda: Interval(0.0, math.inf)),
    "ErrorReport": (lambda: _report(2e-4), lambda: _report(3e-4)),
    "MasterParams": (lambda: MasterParams(*master_params(3)), lambda: MasterParams(*master_params(4))),
    "FamilyInfo": (lambda: FamilyInfo(*FAMILIES["cf"]), lambda: FamilyInfo(*FAMILIES["cf-lifted"])),
    "Approximant": (lambda: Approximant("master", n=3, side="upper"), lambda: Approximant("master", n=3, side="lower")),
    "LiftedApproximant": (lambda: LiftedApproximant(lagrange_p), lambda: LiftedApproximant(abs)),
}


@pytest.mark.parametrize("name", list(_TYPES))
def test_public_types_compare_by_value_hash_alike_and_are_read_only(name):
    make, make_other = _TYPES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != make_other()
    fields = getattr(type(a), "_fields", None) or type(a).__slots__
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(make_other(), field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    with pytest.raises(AttributeError):
        a.no_such_field = 1


def test_reprs_print_the_constructor_arguments():
    for ident, info in FAMILIES.items():
        for n in range(info.n_min, MAX_ORDER + 1) if info.needs_n else (None,):
            for side in ("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,):
                assert repr(Approximant(ident, n=n, side=side)) == f"Approximant(family={ident!r}, n={n!r}, side={side!r})"
    assert repr(OracleConfig()) == "OracleConfig(working_digits=50, report_digits=30)"
    assert repr(OracleConfig(60, 40)) == "OracleConfig(working_digits=60, report_digits=40)"
    assert repr(LiftedApproximant(abs)) == "LiftedApproximant(inner=<built-in function abs>)"
    inner = Approximant("cf", n=3)
    assert repr(LiftedApproximant(inner)) == "LiftedApproximant(inner=Approximant(family='cf', n=3, side=None))"
    # a one-field key hashes as that field
    assert hash(LiftedApproximant(inner)) == hash(inner)


@pytest.mark.parametrize("name", list(_TYPES))
def test_public_types_survive_copy_deepcopy_and_pickle(name):
    a = _TYPES[name][0]()
    trips = [copy.copy, copy.deepcopy]
    if name != "FamilyInfo":  # a registry row's claim and slope are lambdas, which pickle refuses
        trips.append(lambda v: pickle.loads(pickle.dumps(v)))
    for trip in trips:
        b = trip(a)
        assert type(b) is type(a) and b == a and hash(b) == hash(a) and repr(b) == repr(a)


# the package's layers, lowest first; the package's __init__ re-exports from any of them
_LAYERS = [["numerics"], ["fixedpoint"], ["core", "series"], ["master"], ["verify"], ["families"], ["cli"],
           ["__init__"]]


def test_modules_import_only_below_themselves():
    # each module's relative imports (from .x import ..., from . import x) name lower layers alone,
    # so the integer layer, fixedpoint, stands on numerics and nothing above it
    rank = {name: i for i, layer in enumerate(_LAYERS) for name in layer}
    paths = sorted((SRC / "arctancert").glob("*.py"))
    imports = {}
    for path in paths:
        found = imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update([node.module] if node.module else [alias.name for alias in node.names])
    for name, found in imports.items():
        assert all(rank[dep] < rank[name] for dep in found), (name, sorted(found))
    assert sorted(imports) == sorted(rank) and imports["fixedpoint"] == {"numerics"}


def test_the_master_pairs_rules_have_no_module_of_their_own():
    # _master_error and _master_constants live in master, beside the pair they serve
    with pytest.raises(ModuleNotFoundError):
        import arctancert.tails  # noqa: F401


_CF, _UNIT = Approximant("cf", n=3), Interval(0.0, 1.0)

# every public kernel and constructor that takes a count, called with the count v
_COUNTS = {
    "cheb_coefficients": lambda v: series.cheb_coefficients(v),
    "cheb_arctan": lambda v: series.cheb_arctan(v, 0.5),
    "cf_arctan": lambda v: series.cf_arctan(v, 0.5),
    "taylor1_s": lambda v: series.taylor1_s(v, 0.5),
    "taylor1_t": lambda v: series.taylor1_t(v, 0.5),
    "blend_w": lambda v: series.blend_w(v, 0.5),
    "machin_pi_fraction": lambda v: series.machin_pi_fraction(v),
    "machin_pi-terms": lambda v: series.machin_pi(v),
    "machin_pi-dps": lambda v: series.machin_pi(5, dps=v),
    "master_params": lambda v: master.master_params(v),
    "a_n": lambda v: master.a_n(v, 0.5),
    "Approximant": lambda v: Approximant("cf", n=v),
    "OracleConfig-working": lambda v: OracleConfig(v),
    "OracleConfig-report": lambda v: OracleConfig(report_digits=v),
    "sup_error-grid": lambda v: sup_error(_CF, _UNIT, v),
    "certify_bound-grid": lambda v: certify_bound(_CF, "upper", _UNIT, v),
    "norm_transfer_check-grid": lambda v: norm_transfer_check(lagrange_p, 0.5, v),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_past_sys_maxsize_raise_value_error(name):
    # a count past sys.maxsize fits no index or float: refused at once, not an OverflowError
    # or a loop over range(v) that cannot finish. The message names a huge count by its
    # size: 10**5000 has more digits than Python prints
    for v in (10**400, sys.maxsize + 1, 10**5000):
        with pytest.raises(ValueError, match=r"must be an integer (<= sys\.maxsize|in \[)") as info:
            _COUNTS[name](v)
        assert len(str(info.value)) < 120
        assert str(info.value).endswith(" bits") == (v > 2**128)


# every public callable that takes a point x (or u, or t), called at the point v: the exported
# functions, the lift, and one Approximant of every family
_POINTS = {
    name: partial(getattr(arctancert, name), *lead)
    for name, lead in {
        "a_n": (3,), "blend_w": (3,), "cf_arctan": (2,), "cheb_arctan": (3,), "lagrange_p": (),
        "lift_interval_map": (), "master_bounds": (3,), "norm_transfer_check": (lagrange_p,),
        "oracle_arctan": (), "shafer_fink_bounds": (), "taylor1_s": (3,), "taylor1_t": (3,),
        "theorem2_bounds": (), "theorem4_upper": (), "theorem5_approx": (),
    }.items()
}
_POINTS["LiftedApproximant"] = LiftedApproximant(lagrange_p)
for _ident, _info in FAMILIES.items():
    _side = "upper" if _info.kind is BoundKind.TWO_SIDED else None
    _POINTS[f"Approximant-{_ident}"] = Approximant(_ident, n=max(_info.n_min, 2) if _info.needs_n else None, side=_side)


@pytest.mark.parametrize("name", list(_POINTS))
def test_a_point_that_is_no_real_number_raises_value_error(name):
    # a str, None, a complex or a list is refused by the point's check (numerics.require_finite,
    # or the oracle's own), not by a TypeError from the arithmetic behind it
    for v in ("1", None, 1 + 0j, [0.5]):
        with pytest.raises(ValueError, match=f"^[xut] must be a real number, got {type(v).__name__}$"):
            _POINTS[name](v)


def test_every_exported_function_of_a_point_is_checked_for_its_type():
    takes_no_point = {"BoundKind", "BoundPair", "ErrorReport", "Interval", "OracleConfig", "certify_bound",
                      "machin_pi", "master_params", "oracle_pi", "sup_error"}
    assert set(arctancert.__all__) - takes_no_point == {name.partition("-")[0] for name in _POINTS}


_FAULTS = ("2", None, [2], 2.0)  # a str, None, a list and a float, where an int or a callable is due
_NO_CONFIG = ("2", [2], 2.0, 50)  # None is the default config
_NO_INTERVAL = ("0:1", None, [0.0, 1.0], (0.0, 1.0), 2.0)

# every public entry's arguments that are no point (approximants, orders, terms, digits, grid
# points, family names, sides, kinds, intervals, configs, claimed bounds), each called with the
# faults that argument refuses; the scan's own hooks (master._master_error,
# master._master_constants) take what an Approximant binds
_ARGUMENTS = {
    "Approximant-family": (lambda v: Approximant(v), _FAULTS),
    "Approximant-n": (lambda v: Approximant("cf", n=v), _FAULTS),
    "Approximant-side": (lambda v: Approximant("master", n=3, side=v), _FAULTS),
    "family_info": (lambda v: families.family_info(v), _FAULTS),
    "table_entry-family": (lambda v: families.table_entry(v, 2), _FAULTS),
    "table_entry-n": (lambda v: families.table_entry("cf", v), _FAULTS),
    "BoundKind": (lambda v: BoundKind(v), _FAULTS),
    "Interval-lo": (lambda v: Interval(v, 1.0), ("0", None, [0])),
    "Interval-hi": (lambda v: Interval(0.0, v), ("1", None, [1])),
    "Interval.parse": (lambda v: Interval.parse(v), ("0-1", None, [0, 1], 2.0)),
    "OracleConfig-working": (lambda v: OracleConfig(v), _FAULTS),
    "OracleConfig-report": (lambda v: OracleConfig(report_digits=v), _FAULTS),
    "oracle_arctan-cfg": (lambda v: arctancert.oracle_arctan(1.0, v), _NO_CONFIG),
    "oracle_pi-cfg": (lambda v: arctancert.oracle_pi(v), _NO_CONFIG),
    "sup_error-f": (lambda v: sup_error(v, _UNIT, 65), _FAULTS),
    "sup_error-interval": (lambda v: sup_error(_CF, v, 65), _NO_INTERVAL),
    "sup_error-grid": (lambda v: sup_error(_CF, _UNIT, v), _FAULTS),
    "sup_error-cfg": (lambda v: sup_error(_CF, _UNIT, 65, cfg=v), _NO_CONFIG),
    "sup_error-claimed_bound": (lambda v: sup_error(_CF, _UNIT, 65, claimed_bound=v),
                                ("0.01", [0.01], 1j, Fraction(1, 100), math.nan)),
    "certify_bound-f": (lambda v: certify_bound(v, "upper", _UNIT, 65), _FAULTS),
    "certify_bound-kind": (lambda v: certify_bound(_CF, v, _UNIT, 65), _FAULTS),
    "certify_bound-interval": (lambda v: certify_bound(_CF, "upper", v, 65), _NO_INTERVAL),
    "certify_bound-grid": (lambda v: certify_bound(_CF, "upper", _UNIT, v), _FAULTS),
    "certify_bound-cfg": (lambda v: certify_bound(_CF, "upper", _UNIT, 65, cfg=v), _NO_CONFIG),
    "norm_transfer_check-f": (lambda v: norm_transfer_check(v, 0.5, 65), _FAULTS),
    "norm_transfer_check-grid": (lambda v: norm_transfer_check(lagrange_p, 0.5, v), _FAULTS),
    "norm_transfer_check-cfg": (lambda v: norm_transfer_check(lagrange_p, 0.5, 65, cfg=v), _NO_CONFIG),
    "LiftedApproximant-inner": (lambda v: LiftedApproximant(v), _FAULTS),
    "a_n": (lambda v: master.a_n(v, 0.5), _FAULTS),
    "master_bounds": (lambda v: master.master_bounds(v, 1.0), _FAULTS),
    "master_params": (lambda v: master.master_params(v), _FAULTS),
    "denominator_product": (lambda v: master.denominator_product(v), _FAULTS),
    "cheb_coefficients": (lambda v: series.cheb_coefficients(v), _FAULTS),
    "cheb_arctan-n": (lambda v: series.cheb_arctan(v, 0.5), _FAULTS),
    "cheb_arctan-m": (lambda v: series.cheb_arctan(3, 0.5, v), ("2", None, [0.5])),
    "cf_arctan": (lambda v: series.cf_arctan(v, 0.5), _FAULTS),
    "taylor1_s": (lambda v: series.taylor1_s(v, 0.5), _FAULTS),
    "taylor1_t": (lambda v: series.taylor1_t(v, 0.5), _FAULTS),
    "blend_w": (lambda v: series.blend_w(v, 0.5), _FAULTS),
    "machin_pi_fraction": (lambda v: series.machin_pi_fraction(v), _FAULTS),
    "machin_pi-terms": (lambda v: series.machin_pi(v), _FAULTS),
    "machin_pi-dps": (lambda v: series.machin_pi(5, dps=v), _FAULTS),
}


@pytest.mark.parametrize("name", list(_ARGUMENTS))
def test_an_argument_of_the_wrong_type_raises_value_error(name):
    # refused by the entry's own check, before any cache hashes the value: not a TypeError
    # (unhashable type) or an AttributeError from the code behind the check
    call, faults = _ARGUMENTS[name]
    for v in faults:
        with pytest.raises(ValueError):
            call(v)
