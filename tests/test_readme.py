"""README's quick start, run as written: each snippet must print the lines README shows.

The expected lines are read from README itself (the "# -> " comment and its
"#    " continuation lines after a command), so the two cannot drift apart.
A <seconds> placeholder stands for a measured time.
"""

import contextlib
import io
import re
import shlex

from grasppr.cli import main

from test_cli import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(lang, needle):
    """The first fenced code block of lang in README that contains needle."""
    return next(b for b in re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S) if needle in b)


def _expected(lines):
    """The lines a "# -> " comment at the head of lines shows, as full-match patterns."""
    shown = []
    for line in lines:
        if not line.startswith("#    " if shown else "# -> "):
            break
        shown.append(re.escape(line[5:]).replace(re.escape("<seconds>"), r"\d+\.\d+"))
    return shown


def _matches(printed, shown):
    return len(printed) == len(shown) and all(re.fullmatch(p, line) for p, line in zip(shown, printed))


def test_the_quick_start_prints_what_readme_shows(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # README's paths are relative to the repository root
    lines = _block("sh", "grasppr solve").replace("\\\n", "").splitlines()
    commands = [(i, line) for i, line in enumerate(lines) if line.startswith("grasppr ")]
    assert [shlex.split(line)[1] for _, line in commands] == ["validate", "solve"]
    for i, line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        shown = _expected(lines[i + 1 :])
        printed = capsys.readouterr().out.splitlines()
        assert not shown or _matches(printed, shown), (line, printed, shown)
    assert shown, "README shows no output for its solve run"

    snippet = _block("python", "build_run_config")
    assert "\n# -> " in snippet, "README shows no output for its library snippet"
    shown = _expected(snippet[snippet.index("\n# -> ") + 1 :].splitlines())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert _matches(out.getvalue().splitlines(), shown), (out.getvalue(), shown)
