"""README.md stays true to the code: its benchmark spec loads and shows
every key the format has, its library-use snippet runs, its Settings
section gives the defaults and constants the code has, and its adapt
section names every key of a round's report."""

import json
import pathlib
import re
from dataclasses import asdict

from hgmda import AdaptationConfig, adapt, exemplars, graphs, pipeline
from hgmda.evaluation import _CONFIG_KEYS, _SPEC_KEYS, load_benchmark_file
from hgmda.synthetic import rotated_gaussian_task

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1, f"README should hold one {language} block"
    return blocks[0]


def test_spec_example_loads(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(code_block("json"))
    specs, seed = load_benchmark_file(str(path))
    assert [spec.name for spec in specs] == ["amazon->webcam"]
    assert seed == 0
    assert len(specs[0].lam2_grid) * len(specs[0].lam3_grid) * len(specs[0].n_outer_grid) == 80


def test_spec_example_shows_every_key():
    # the example documents the whole format: every top-level key the loader
    # takes and every key its config takes, and no other
    doc = json.loads(code_block("json"))
    assert set(doc) == set(_SPEC_KEYS)
    assert set(doc["config"]) == set(_CONFIG_KEYS)


def test_library_snippet_runs(capsys):
    exec(compile(code_block("python"), "README.md", "exec"), {})
    accuracy = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= accuracy <= 1.0


def test_settings_match_the_code():
    # the Settings table lists every AdaptationConfig field with its default,
    # and each constant named there has the value the code gives it
    table = dict(re.findall(r"^\| `(\w+)` \| ([^ |]+) \|", README, flags=re.MULTILINE))
    assert {name: float(value) for name, value in table.items()} == asdict(AdaptationConfig())
    constants = re.findall(r"`([A-Z_]+)` = ([\d.e-]+)", README)
    assert len(constants) == 9
    for name, value in constants:
        (module,) = [m for m in (exemplars, graphs, pipeline) if hasattr(m, name)]
        assert getattr(module, name) == float(value), name


def test_adapt_section_names_every_report_key():
    # every key of a round record and of its solver record appears in
    # backticks between the "### adapt" heading and the next heading
    section = re.search(r"^### adapt\n(.*?)^#", README, flags=re.DOTALL | re.MULTILINE)
    named = set(re.findall(r"`(\w+)`", section.group(1)))
    source, target = rotated_gaussian_task(n_per_class=10, seed=0)[:2]
    (record,) = adapt(source, target, AdaptationConfig(eta=0.5, cg_iters=2)).rounds
    assert set(record) - named == set()
    assert set(record["solver"]) - named == set()
