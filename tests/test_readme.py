"""README's examples run as written: the library quick start and the CLI pipeline."""

import re
import shlex
from pathlib import Path

import pytest

from scengen import cli, reference_three_event_system

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(language):
    """The body of README's first fenced block in ``language`` that is not
    the installation snippet."""
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.DOTALL)
    return next(block for block in blocks if "pip install" not in block)


def test_quick_start_runs(capsys):
    exec(compile(code_block("python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # two equal log-likelihoods, an accuracy and one line of log-probabilities
    assert len(printed) == 4
    assert float(printed[0]) == pytest.approx(float(printed[1]), abs=1e-12)
    assert 0.0 <= float(printed[2]) <= 1.0


def test_cli_pipeline_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the block's heredoc writes the system description
    reference_three_event_system().save("system.json")
    lines = code_block("bash").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("scengen ")]
    assert [argv[0] for argv in commands] == ["make-dataset", "train", "train", "eval",
                                              "classify", "generate", "compare"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*cli._OUTPUTS[argv[0]], "manifest.json"])
