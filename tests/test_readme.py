"""The command lines in README.md must work as written."""

import shlex
from pathlib import Path

from mmimpute.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_blocks():
    """(paragraph before it, its `mmimpute` argv lists) for each fenced block."""
    parts = README.read_text(encoding="utf-8").split("```")
    for before, code in zip(parts[0::2], parts[1::2]):
        lines = code.replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("mmimpute ")]
        yield before.strip().split("\n\n")[-1], argvs


def test_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    quickstart = [argvs for lead, argvs in command_blocks() if lead.startswith("Quickstart:")]
    assert len(quickstart) == 1 and quickstart[0]
    monkeypatch.chdir(tmp_path)
    for argv in quickstart[0]:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_every_readme_command_parses():
    # a renamed or removed flag makes argparse exit
    argvs = [argv for _, block in command_blocks() for argv in block]
    assert {argv[0] for argv in argvs} == {"synth", "stats", "evaluate", "impute", "drop"}
    for argv in argvs:
        assert callable(build_parser().parse_args(argv).func)
