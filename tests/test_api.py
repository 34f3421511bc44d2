"""The package's public names are exactly the README's "Library API" list."""

import inspect
import re
from pathlib import Path

import qcones

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api() -> dict[str, list[str]]:
    """{module: names} from the bullet list that opens the Library API section."""
    section = README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n\n")[1]  # the paragraph after the lead-in line
    api = {}
    for item in re.split(r"\n(?=- )", bullets):
        module, names = re.fullmatch(r"- `(\w+)`: (.*)", item, re.S).groups()
        api[module] = re.findall(r"`(\w+)`", names)
    return api


def test_readme_lists_every_export():
    api = _readme_api()
    listed = [name for names in api.values() for name in names]
    assert len(listed) == len(set(listed))
    exported = {
        name for name, obj in vars(qcones).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(listed) == exported


def test_readme_names_the_defining_module():
    for module, names in _readme_api().items():
        for name in names:
            assert getattr(qcones, name).__module__ == f"qcones.{module}", name


def _outside_parentheses(text: str) -> str:
    kept, depth = [], 0
    for ch in text:
        depth += ch == "("
        if depth == 0:
            kept.append(ch)
        depth -= ch == ")"
    return "".join(kept)


def test_names_no_longer_exported_are_gone():
    """Every name of the README's "No longer exported" paragraph, outside
    its parenthesized replacements, is absent from the package."""
    text = README.read_text().split("\nNo longer exported: ", 1)[1].split("\n\n", 1)[0]
    removed = re.findall(r"`([\w.]+)`", _outside_parentheses(text))
    assert "delta_moments" in removed
    for name in removed:
        owner, _, attr = name.rpartition(".")
        assert not hasattr(getattr(qcones, owner) if owner else qcones, attr), name
