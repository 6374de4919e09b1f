"""The README's library tour runs against the current package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})


def test_readme_cli_examples_parse():
    # Every ncup line of the "Command line" block parses, so the README
    # cannot keep naming a flag or subcommand that the parser lacks.
    from ncup.cli import build_parser

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("ncup ")]
    assert len(lines) >= 6
    parser = build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
