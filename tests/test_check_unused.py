"""``scripts/check_unused.py``: the unused-definition check CI runs on src/."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "check_unused", ROOT / "scripts" / "check_unused.py"
)
check_unused = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_unused)

PLANTED = '''\
def planted_never_named():
    return 1


def planted_called():
    return 2


@register_framework("planted")
class PlantedFramework:
    pass


class PlantedHandler:
    def __init__(self):
        self.value = planted_called()

    def do_GET(self):
        pass

    def planted_in_a_dotted_string(self):
        pass

    def planted_kept(self):
        pass


__all__ = ["planted_never_named"]
LAYER = "planted.PlantedHandler.planted_in_a_dotted_string"
'''


def test_planted_unused_definition_is_reported(tmp_path, capsys, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    module = tree / "planted.py"
    module.write_text(PLANTED)
    # A test naming a definition does not keep it.
    (tree / "tests").mkdir()
    (tree / "tests" / "test_planted.py").write_text(
        "from planted import planted_never_named\n"
        "planted_never_named()\n"
    )
    monkeypatch.setattr(
        check_unused,
        "KEEP",
        {"planted.PlantedHandler.planted_kept": "state accessor"},
    )
    assert check_unused.main([str(tree)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{module}:1: planted.planted_never_named is named nowhere "
        "outside tests",
    ]


def test_src_has_no_unused_definitions(capsys):
    assert check_unused.main([str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == ""


def test_keep_entry_that_no_longer_resolves_fails(capsys, monkeypatch):
    monkeypatch.setitem(
        check_unused.KEEP, "repro.nowhere.gone", "state accessor"
    )
    monkeypatch.setitem(
        check_unused.KEEP, "repro.config.baseline_system", "convenience"
    )
    assert check_unused.main([str(ROOT / "src")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "KEEP entry 'repro.nowhere.gone' names no definition",
        "KEEP entry 'repro.config.baseline_system' gives no known reason "
        "('convenience')",
    ]


def _scan(tmp_path, capsys, monkeypatch, **modules):
    """Run the check, with no ``KEEP``, on a tree of ``modules``.

    ``modules`` maps file stems to sources.
    """
    monkeypatch.setattr(check_unused, "KEEP", {})
    tree = tmp_path / "tree"
    tree.mkdir()
    for stem, source in modules.items():
        (tree / f"{stem}.py").write_text(source)
    status = check_unused.main([str(tree)])
    return status, tree, capsys.readouterr().out.splitlines()


def test_dotted_string_counts_as_a_use(tmp_path, capsys, monkeypatch):
    status, tree, out = _scan(
        tmp_path,
        capsys,
        monkeypatch,
        planted=(
            "class PlantedLayer:\n"
            "    def planted_traced(self):\n"
            "        pass\n"
            "\n"
            "    def planted_untraced(self):\n"
            "        pass\n"
        ),
        layers=(
            'TRACED = ["planted.PlantedLayer.planted_traced"]\n'
            # Prose is not a dotted name, so it keeps nothing alive.
            'NOTE = "see planted_untraced, unused"\n'
        ),
    )
    assert status == 1
    assert out == [
        f"{tree / 'planted.py'}:5: planted.PlantedLayer.planted_untraced "
        "is named nowhere outside tests",
    ]


@pytest.mark.parametrize(
    "source",
    [
        "class PlantedUsed:\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "\n"
        "\n"
        "PlantedUsed()\n",
        '@register_framework("planted")\n'
        "class PlantedBuiltByName:\n"
        "    pass\n",
        "class PlantedServer:\n"
        "    def do_POST(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "PlantedServer()\n",
    ],
    ids=["dunder", "register_framework", "do_verb"],
)
def test_exempt_definitions_are_not_reported(
    tmp_path, capsys, monkeypatch, source
):
    status, _tree, out = _scan(tmp_path, capsys, monkeypatch, planted=source)
    assert (status, out) == (0, [])


def test_lookalikes_of_exempt_definitions_are_reported(
    tmp_path, capsys, monkeypatch
):
    status, tree, out = _scan(
        tmp_path,
        capsys,
        monkeypatch,
        planted=(
            "def do_planted():\n"  # a do_ name outside a class
            "    pass\n"
            "\n"
            "\n"
            "def __planted_private():\n"  # not a dunder
            "    pass\n"
            "\n"
            "\n"
            '@register_planted("x")\n'
            "class PlantedOther:\n"
            "    pass\n"
        ),
    )
    module = tree / "planted.py"
    assert status == 1
    assert out == [
        f"{module}:1: planted.do_planted is named nowhere outside tests",
        f"{module}:5: planted.__planted_private is named nowhere outside "
        "tests",
        f"{module}:10: planted.PlantedOther is named nowhere outside tests",
    ]


def test_import_alone_keeps_nothing(tmp_path, capsys, monkeypatch):
    status, tree, out = _scan(
        tmp_path,
        capsys,
        monkeypatch,
        planted="def planted_reexported():\n    return 1\n",
        facade=(
            "from planted import planted_reexported\n"
            '__all__ = ["planted_reexported"]\n'
        ),
    )
    assert status == 1
    assert out == [
        f"{tree / 'planted.py'}:1: planted.planted_reexported is named "
        "nowhere outside tests",
    ]


def test_use_roots_and_workflow_count_as_reads(tmp_path):
    for root in check_unused.USE_ROOTS:
        (tmp_path / root).mkdir()
    (tmp_path / "benchmarks" / "bench_planted.py").write_text(
        "import planted\n\nplanted.planted_from_bench()\n"
    )
    (tmp_path / "scripts" / "tests").mkdir()
    (tmp_path / "scripts" / "tests" / "test_planted.py").write_text(
        "planted_from_a_test()\n"
    )
    workflows = tmp_path / check_unused.WORKFLOWS
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(
        "steps:\n  - run: python -m planted.planted_from_ci\n"
    )
    read = check_unused.outside_reads(tmp_path)
    assert {"planted_from_bench", "planted_from_ci"} <= read
    assert "planted_from_a_test" not in read
