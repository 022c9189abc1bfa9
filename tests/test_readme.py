"""The README's examples run as written: the Python quick tour and every CLI line."""

import re
import shlex
from pathlib import Path

from hadamard_forge.cli import EXIT_FALSE, EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [shlex.split(line, comments=True)[1:]
             for line in _block("Command line", "sh").splitlines()
             if line.startswith("hadamard-forge ")]


def test_quick_tour_runs():
    exec(compile(_block("Library quick tour", "python"), "README quick tour", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the lines share files, so they run in order in one directory
    monkeypatch.chdir(tmp_path)
    assert len(CLI_LINES) > 10
    for argv in CLI_LINES:
        want = EXIT_FALSE if argv == ["equiv", "d6.json", "d61const.json"] else EXIT_OK
        code = main(argv)
        err = capsys.readouterr().err
        assert code == want, (argv, err)
