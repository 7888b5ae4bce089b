"""The README "Public API" quickstart must execute verbatim.

The fenced code block under ``## Public API`` is extracted from
README.md and ``exec``-ed — so the documented API cannot drift from the
code.  CI runs the same extraction as a dedicated smoke job against the
installed package.
"""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def extract_quickstart(text: str) -> str:
    match = re.search(r"## Public API.*?```python\n(.*?)```", text, re.S)
    assert match, "README.md must keep a ```python block under '## Public API'"
    return match.group(1)


def test_public_api_quickstart_executes(capsys):
    code = extract_quickstart(README.read_text())
    exec(compile(code, "README-quickstart", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert "mean cost" in out and "certified competitive ratio" in out


def test_metric_spaces_quickstart_executes(capsys):
    """The '## Metric spaces' graph block runs verbatim."""
    match = re.search(r"## Metric spaces.*?```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README.md must keep a ```python block under '## Metric spaces'"
    exec(compile(match.group(1), "README-metric", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert "['euclidean', 'graph', 'l1', 'linf']" in out
    assert "travel time" in out
    assert "on the 'graph' metric" in out


def test_serve_mode_quickstart_executes(capsys):
    """The '## Serve mode' crash-and-resume block runs verbatim."""
    match = re.search(r"## Serve mode.*?```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README.md must keep a ```python block under '## Serve mode'"
    exec(compile(match.group(1), "README-serve", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert "byte-identical to batch run: YES" in out


def test_authoring_an_experiment_executes(capsys):
    """The '## Authoring an experiment' grid block runs verbatim."""
    match = re.search(r"## Authoring an experiment.*?```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README.md must keep a ```python block under '## Authoring an experiment'"
    exec(compile(match.group(1), "README-authoring", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert "ratio <=" in out and "greedy-centroid" in out
    assert "worst certified mean ratio" in out and out.rstrip().endswith("OK")
