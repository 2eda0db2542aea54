import pathlib
import re

import arctancert


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
        master: ["MasterParams", "denominator_product", "elementary_symmetric", "gn_eval", "pn_coefficients"],
        series: ["cheb_coefficients", "machin_pi_fraction"],
        verify: ["default_config"],
    }
    for module, names in homes.items():
        for name in names:
            assert hasattr(module, name) and name not in arctancert.__all__, name
