"""README's examples, run as written: every ``sqrtnfa`` line of the CLI
block with the exit code it should give, the output the block shows for
``check-fooling --n 6``, the Python block of the Library section, and the
library names its entry-point paragraph and successor-index bullet cite."""

import re
import shlex
from functools import reduce
from pathlib import Path

import sqrtnfa
from sqrtnfa import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the README's candidate set fails condition 1 on the witness, so this line
# exits 1; every other line of the CLI block exits 0
FAILING_LINE = "sqrtnfa check-fooling --in w6.nfa --pairs candidate.pairs --mode sqrt"


def fenced_block(heading, lang):
    """Body of the first ```lang fenced block after ``heading``."""
    pattern = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S)
    return pattern.search(README, README.index(heading)).group(1)


def cli_examples():
    """The ``sqrtnfa`` lines of the CLI block, in order, each with the
    output lines the block shows as comments right under it."""
    examples, shown = {}, None
    for line in fenced_block("## CLI", "sh").splitlines():
        if line.startswith("sqrtnfa "):
            shown = examples[line] = []
        elif line.startswith("# ") and shown is not None:
            shown.append(line[2:])
        else:
            shown = None
    return examples


def run_line(line, capsys):
    code = cli.main(shlex.split(line)[1:])
    return code, capsys.readouterr().out


def test_every_cli_line_gives_its_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pairs = fenced_block("Fooling-set candidate files", "")
    (tmp_path / "candidate.pairs").write_text(pairs, encoding="utf-8")
    lines = list(cli_examples())
    assert FAILING_LINE in lines and len(lines) == 9
    codes = {line: run_line(line, capsys)[0] for line in lines}
    assert codes == {line: int(line == FAILING_LINE) for line in lines}


def test_check_fooling_prints_what_the_readme_shows(capsys):
    line = "sqrtnfa check-fooling --n 6"
    shown = cli_examples()[line]
    assert len(shown) == 3
    assert run_line(line, capsys) == (0, "".join(f"{s}\n" for s in shown))


def test_the_library_example_runs():
    exec(compile(fenced_block("## Library", "python"), "README.md", "exec"), {})


def paragraph(start):
    """The README text from ``start`` up to the next bullet or blank line."""
    return re.compile(r".*?(?=\n- |\n\n)", re.S).match(README, README.index(start)).group(0)


def test_every_entry_point_named_resolves():
    text = "".join(map(paragraph, ("Key entry points:", "- The successor index")))
    names = re.findall(r"`([^`]+)`", text)
    assert len(names) > 30 and "relation_dfa" in names
    missing = []
    for name in names:
        try:
            reduce(getattr, name.split("."), sqrtnfa)
        except AttributeError:
            missing.append(name)
    assert missing == []
