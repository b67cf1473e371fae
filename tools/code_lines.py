"""Count the lines of a source tree's package, per module and in total.

For each module under ``src/fcshmc`` it prints two counts: lines by
``wc -l`` (newline characters) and code lines, the lines that hold a token
other than whitespace, a comment or a docstring, as Python's ``tokenize``
splits them.  A docstring is a statement that is only a string literal; a
string that spans lines inside code counts on every line it spans.

    python3 tools/code_lines.py [TREE ...]

Each tree is a directory holding ``src/fcshmc`` (default: this checkout).
With two trees it also prints the change from the first to the second.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "fcshmc"
# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines holding a token other than layout, a comment or a docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def count_tree(tree: Path) -> dict[str, tuple[int, int]]:
    """module file name -> (wc -l, code lines), for every module of the tree."""
    counts = {}
    for path in sorted((tree / PACKAGE).glob("*.py")):
        text = path.read_text()
        counts[path.name] = (text.count("\n"), code_lines(text))
    if not counts:
        raise SystemExit(f"no modules under {tree / PACKAGE}")
    return counts


def total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return tuple(sum(column) for column in zip(*counts.values()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[Path(__file__).parents[1]],
                        metavar="TREE")
    args = parser.parse_args()
    tallies = [count_tree(tree) for tree in args.trees]
    for tree, counts in zip(args.trees, tallies):
        print(f"{tree}:  {'wc -l':>7} {'code':>7}")
        for name, (wc, code) in {**counts, "total": total(counts)}.items():
            print(f"  {name:<16} {wc:>7,} {code:>7,}")
    if len(tallies) == 2:
        first, second = tallies
        print(f"change {args.trees[0]} -> {args.trees[1]}:")
        for name in sorted(first.keys() | second.keys()) + ["total"]:
            before = total(first) if name == "total" else first.get(name, (0, 0))
            after = total(second) if name == "total" else second.get(name, (0, 0))
            if before != after or name == "total":
                print(f"  {name:<16} wc -l {before[0]:,} -> {after[0]:,} ({after[0] - before[0]:+})"
                      f", code {before[1]:,} -> {after[1]:,} ({after[1] - before[1]:+})")


if __name__ == "__main__":
    main()
