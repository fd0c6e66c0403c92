"""Line counts of the package's src/: total lines and code lines.

    python3 tools/src_lines.py
    python3 tools/src_lines.py --against HEAD~1

Counts every ``.py`` file under ``src/`` of the tree the script sits in.  A
code line is a line that holds a token other than a comment or a string
statement (a docstring, or any bare string on its own), as ``tokenize``
reads it: blank lines, comment lines and docstring lines are not code.
``--against REV`` counts ``src/`` of a ``git archive`` export of REV too and
prints both counts and the difference, this tree's less REV's; where the
export fails (an unknown REV, or a tree that is no git checkout) it prints
one ``error:`` line and exits 2.
"""

import argparse
import io
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that make no line code on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text):
    """(total lines, code lines) of Python source text."""
    code, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            # A logical line of strings alone is a docstring or a bare string.
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(text.splitlines()), len(code)


def tree_counts(root):
    """(total lines, code lines) summed over root/src/**/*.py."""
    total = code = 0
    for path in sorted((Path(root) / "src").rglob("*.py")):
        t, c = count(path.read_text())
        total, code = total + t, code + c
    return total, code


def _reason(exc):
    """The last line of a failed command's stderr, or the error itself."""
    lines = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else str(exc)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", help="also count src/ of git revision REV")
    args = p.parse_args(argv)
    mine = tree_counts(ROOT)
    if args.against is None:
        print(f"src/: {mine[0]} lines, {mine[1]} code lines")
        return 0
    with tempfile.TemporaryDirectory(prefix="src-lines-") as tree:
        try:
            archive = subprocess.run(["git", "archive", args.against, "src"], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: cannot export {args.against}: {_reason(exc)}", file=sys.stderr)
            return 2
        theirs = tree_counts(tree)
    print(f"{args.against}: {theirs[0]} lines, {theirs[1]} code lines")
    print(f"this tree: {mine[0]} lines, {mine[1]} code lines")
    print(f"difference: {mine[0] - theirs[0]:+d} lines, {mine[1] - theirs[1]:+d} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
