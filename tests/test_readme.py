"""README's library example runs as written, so a change to the report's
API that the example uses shows up here."""

import re
from importlib import resources
from pathlib import Path

import threeweb
from threeweb.corpus import load_example

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    web_text = (resources.files(threeweb) / "corpus" / "example01.web")
    (tmp_path / "my.web").write_text(web_text.read_text())
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["report"].labels == load_example(1).expected_labels
