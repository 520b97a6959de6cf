"""The README's walkthrough commands parse and its library example runs."""

import re
import shlex
from pathlib import Path

import numpy as np

from grassfoil.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(heading: str, language: str) -> str:
    """Body of the first ``language`` code block under ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def walkthrough_commands() -> list[list[str]]:
    text = fenced("Command-line walkthrough", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("grassfoil ")]


def test_walkthrough_commands_parse():
    commands = walkthrough_commands()
    assert [c[0] for c in commands] == [
        "gen-dataset", "standardize", "mean", "pga-fit", "synth", "sweep",
        "blade-interp", "blade-perturb", "render", "render"]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_library_example_runs():
    code = fenced("Library use", "python")
    assert " for " not in code  # the family stays one array throughout
    scope = {}
    exec(code, scope)
    model, result = scope["model"], scope["result"]
    assert type(scope["points"]) is np.ndarray
    assert result.logs.shape == (len(scope["points"]), 2 * model.n)
    assert model.r == 4
    assert result.point.shape == scope["new_frame"].shape == (model.n, 2)
