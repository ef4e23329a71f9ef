"""Compare the outputs of two potsmine versions, cell by cell.

From the repository root:

    python ci/same_bits.py --base REV [--head REV]

The base side is REV, checked out with `git worktree add` into a fresh
temporary directory (under $TMPDIR). The head side is the working tree's
`src`, uncommitted changes included, copied beside it so both sides sit
at paths of equal length; with --head it is that revision, checked out
the same way. ci/bits_outputs.py, the copy in this working tree, runs
once per side with that side's `src` on PYTHONPATH, on one BLAS thread,
and the two output directories are compared:

- each output file is reported as identical, or with the count of cells
  that differ in their bits and the largest absolute and relative
  difference among the finite ones: `.npz` arrays (the decoded content
  of each `.pots` and `.pmdl` file, and the loss and gradients), CSV
  cells and the raw bytes of the rest;
- each CLI command's exit code, stdout and stderr, after the output
  directory is replaced by a placeholder; numbers in stdout lines that
  otherwise agree are compared as numbers.

Exits 0 when every output is identical, 1 when some differ and 2 when a
side could not be checked out or run. The worktrees and outputs are
removed at the end. It is informational: CI runs it on pull requests
against the base commit and does not gate on its exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", _ROOT, *args], check=True, capture_output=True, text=True)


def _differences(a: np.ndarray, b: np.ndarray) -> str | None:
    """None when two arrays hold the same bits, else what differs."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"{a.dtype}{list(a.shape)} against {b.dtype}{list(b.shape)}"
    if a.tobytes() == b.tobytes():
        return None
    if a.dtype.kind != "f":
        return f"{int((a != b).sum())} of {a.size} cells"
    bits = f"u{a.dtype.itemsize}"
    cells = a.view(bits) != b.view(bits)
    x, y = a[cells], b[cells]
    both = np.isfinite(x) & np.isfinite(y)
    text = f"{x.size} of {a.size} cells"
    if both.any():
        x, y = x[both], y[both]
        gap = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
        text += f", max abs {gap.max():.3g}, max rel {rel.max():.3g}"
    if not both.all():
        text += f", {int((~both).sum())} not finite on one side"
    return text


def _csv_differences(base: str, head: str) -> str:
    with open(base, newline="") as fa, open(head, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "rows or columns differ"
    pairs = [(u, v) for ra, rb in zip(rows_a, rows_b) for u, v in zip(ra, rb)]
    numeric = [(u, v) for u, v in pairs if _NUMBER.fullmatch(u) and _NUMBER.fullmatch(v)]
    text_cells = sum(u != v for u, v in pairs) - sum(u != v for u, v in numeric)
    a, b = (np.array([float(p[i]) for p in numeric]) for i in (0, 1))
    text = _differences(a, b) or "no numeric cell"
    return text + (f"; {text_cells} other cells" if text_cells else "")


def _compare_logs(base: list, head: list) -> list[tuple[str, str | None]]:
    rows = []
    if len(base) != len(head):
        rows.append(("log.json", f"{len(base)} commands against {len(head)}"))
    for entry_a, entry_b in zip(base, head):
        name = "cli " + " ".join(entry_a["argv"][:5])
        problems = []
        if entry_a["argv"] != entry_b["argv"]:
            problems.append("another command")
        if entry_a["exit"] != entry_b["exit"]:
            problems.append(f"exit {entry_a['exit']} against {entry_b['exit']}")
        for stream in ("stdout", "stderr"):
            if entry_a[stream] != entry_b[stream]:
                problems.append(f"{stream}: " + _text_differences(entry_a[stream],
                                                                  entry_b[stream]))
        rows.append((name, "; ".join(problems) or None))
    return rows


def _text_differences(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) == len(lines_b):
        pairs = [(u, v) for u, v in zip(lines_a, lines_b) if u != v]
        if all(_NUMBER.sub("#", u) == _NUMBER.sub("#", v) for u, v in pairs):
            nums = [(float(x), float(y)) for u, v in pairs
                    for x, y in zip(_NUMBER.findall(u), _NUMBER.findall(v))]
            return f"{len(pairs)} lines, numbers " + (_differences(
                *(np.array([n[i] for n in nums]) for i in (0, 1))) or "equal")
    first = next((i for i, (u, v) in enumerate(zip(lines_a, lines_b)) if u != v),
                 min(len(lines_a), len(lines_b)))
    show = [lines[first] if first < len(lines) else "<none>" for lines in (lines_a, lines_b)]
    return f"line {first + 1}: {show[0]!r} against {show[1]!r}"


def compare(base_dir: str, head_dir: str) -> list[tuple[str, str | None]]:
    """(output, None when identical or else what differs), for every output."""
    rows = []
    names = sorted(set(os.listdir(base_dir)) | set(os.listdir(head_dir)))
    for name in names:
        a, b = os.path.join(base_dir, name), os.path.join(head_dir, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            rows.append((name, "only in " + ("head" if os.path.exists(b) else "base")))
            continue
        if name == "log.json":
            with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
                logs = [json.loads(fh.read().replace(d, "<OUT>"))
                        for fh, d in ((fa, base_dir), (fb, head_dir))]
            rows += _compare_logs(*logs)
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                rows.append((name, None))
                continue
        if name.endswith(".npz"):
            with np.load(a) as za, np.load(b) as zb:
                for key in sorted(set(za.files) | set(zb.files)):
                    if key in za.files and key in zb.files:
                        rows.append((f"{name}:{key}", _differences(za[key], zb[key])))
                    else:
                        rows.append((f"{name}:{key}", "only on one side"))
        elif name.endswith(".csv"):
            rows.append((name, _csv_differences(a, b)))
        else:
            rows.append((name, "bytes differ" + (" (decoded in its .npz)"
                                                 if name.endswith((".pots", ".pmdl")) else "")))
    return rows


def _side(rev: str | None, root: str, tag: str) -> str:
    """The src directory of one side: rev checked out, or the working tree's copied."""
    path = os.path.join(root, tag)
    if rev is None:
        shutil.copytree(os.path.join(_ROOT, "src"), os.path.join(path, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        _git("worktree", "add", "--detach", path, rev)
    return os.path.join(path, "src")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", help="revision to compare (default: the working tree)")
    args = parser.parse_args(argv)
    root = tempfile.mkdtemp(prefix="same_bits-")
    worktrees = []
    try:
        outs = {}
        for tag, rev in (("base", args.base), ("head", args.head)):
            try:
                src = _side(rev, root, tag)
            except subprocess.CalledProcessError as exc:
                print(f"same_bits: cannot check out {rev}: {exc.stderr.strip()}",
                      file=sys.stderr)
                return 2
            if rev is not None:
                worktrees.append(os.path.dirname(src))
            outs[tag] = os.path.join(root, tag + ".out")
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                       PYTHONDONTWRITEBYTECODE="1")
            done = subprocess.run([sys.executable, os.path.join(_HERE, "bits_outputs.py"),
                                   outs[tag]], env=env, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"same_bits: the {tag} side failed:\n{done.stderr}", file=sys.stderr)
                return 2
        rows = compare(outs["base"], outs["head"])
    finally:
        for path in worktrees:
            _git("worktree", "remove", "--force", path)
        shutil.rmtree(root, ignore_errors=True)
    head = args.head or "the working tree"
    print(f"same_bits: {args.base} (base) against {head} (head)")
    for name, what in rows:
        print(f"{'identical' if what is None else 'differs':9}  {name}"
              + ("" if what is None else f": {what}"))
    moved = sum(what is not None for _, what in rows)
    rels = [float(r) for _, what in rows if what for r in re.findall(r"max rel ([^,;\s]+)", what)]
    print(f"{len(rows)} outputs: {len(rows) - moved} identical, {moved} differ"
          + (f"; largest relative difference {max(rels):.3g}" if rels else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
