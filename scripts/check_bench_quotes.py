#!/usr/bin/env python3
"""Fail when a ratio quoted in README.md or docs/ is not in its artifact.

A ratio is a number written directly before "×" ("4.93×"), or a range of
two ("1.39–9.47×"). It cites the committed BENCH_*.json artifact named in
the same paragraph or list item: the nearest one before it, or else the
first one after it. Each number must equal, at the precision it is
printed with, the "speedup" field of some entry of that artifact
(rounded half-up: 12.96 prints as "13.0"). A quote the artifact does not
hold fails the check, so README and docs only repeat measured numbers.

Usage: check_bench_quotes.py [--root REPO_ROOT]
"""

import argparse
import json
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

ARTIFACT = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")
NUMBER = r"\d+(?:\.\d+)?"
RATIO = re.compile(rf"({NUMBER})(?:\s*[–-]\s*({NUMBER}))?×")


def blocks(text: str):
    """Paragraphs and list items (a new "- " item starts a new block)."""
    block: list[str] = []
    for line in text.splitlines():
        starts_item = re.match(r"\s*[-*] ", line) is not None
        if not line.strip() or starts_item:
            if block:
                yield "\n".join(block)
            block = []
        if line.strip():
            block.append(line)
    if block:
        yield "\n".join(block)


def speedups(path: Path) -> list[float]:
    data = json.loads(path.read_text())
    entries = data.get("benchmarks") or data.get("results") or []
    return [e["speedup"] for e in entries if "speedup" in e]


def printed(value: float, like: str) -> str:
    places = len(like.split(".")[1]) if "." in like else 0
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def check_file(doc: Path, root: Path) -> list[str]:
    errors = []
    for block in blocks(doc.read_text()):
        cites = [(m.start(), m.group(0)) for m in ARTIFACT.finditer(block)]
        if not cites:
            continue
        for m in RATIO.finditer(block):
            before = [name for pos, name in cites if pos < m.start()]
            name = before[-1] if before else cites[0][1]
            artifact = root / name
            if not artifact.is_file():
                errors.append(f"{doc}: '{m.group(0)}' cites missing {name}")
                continue
            values = speedups(artifact)
            for number in filter(None, m.groups()):
                if not any(printed(v, number) == number for v in values):
                    errors.append(f"{doc}: '{m.group(0)}' — {number}× is not a "
                                  f"speedup in {name}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".", type=Path)
    args = parser.parse_args()
    docs = [args.root / "README.md", *sorted((args.root / "docs").glob("*.md"))]
    errors = [e for doc in docs if doc.is_file() for e in check_file(doc, args.root)]
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    print(f"bench quotes ok ({len(docs)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
