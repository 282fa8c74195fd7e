"""Compare a census list with its committed allowlist.

An allowlist names each ``src/repro`` function a census run of
``tools/unexecuted.py`` may leave unentered, and why, one per line::

    src/repro/bench/serve.py _sweep  # nightly full grid only

A line is ``path qualname  # reason``; blank lines and lines that start
with ``#`` are skipped.  Entries carry no line number, so an edit that
moves a function does not touch its entry.  A reason is one of a closed
set, some with a required detail after ``": "``:

* ``error path`` — entered only when something has already gone wrong;
* ``protocol`` — a dunder, pickling or context-manager method;
* ``documented API: <anchor>`` — a call README or ``docs/FORMAT.md``
  names, by its heading;
* ``observation hook: <test id>`` — a name a test reads to check *other*
  code;
* ``nightly full grid only`` — entered only by the full benchmark grid.

Stdlib only, and free of the census hook, so tier-1 can test it.
"""

from __future__ import annotations

from pathlib import Path

#: Reason kinds, each mapped to whether it needs a ``": <detail>"``.
REASONS = {
    "error path": False,
    "protocol": False,
    "documented API": True,
    "observation hook": True,
    "nightly full grid only": False,
}


def key(entry: str) -> str:
    """``path qualname`` of a census entry ``path:line qualname``."""
    where, qual = entry.split(" ", 1)
    return f"{where.rsplit(':', 1)[0]} {qual}"


def _check_reason(reason: str) -> str | None:
    """Why ``reason`` is not in the closed set, or ``None`` when it is."""
    kind, sep, detail = reason.partition(": ")
    if kind not in REASONS:
        return f"unknown reason {reason!r}"
    if REASONS[kind] and not detail.strip():
        return f"reason {kind!r} needs a detail after ': '"
    return None


def parse(text: str) -> tuple[dict[str, str], list[str]]:
    """``({path qualname: reason}, errors)`` of an allowlist's text."""
    entries: dict[str, str] = {}
    errors = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = (part.strip() for part in line.partition("#"))
        problem = (
            "no reason" if not sep or not reason
            else "not 'path qualname'" if len(name.split()) != 2
            else f"{name} listed twice" if name in entries
            else _check_reason(reason)
        )
        if problem:
            errors.append(f"line {n}: {problem}: {line}")
        else:
            entries[" ".join(name.split())] = reason
    return entries, errors


def compare(missing: list[str], text: str) -> list[str]:
    """Every way the census list ``missing`` (``path:line qualname``
    entries) and the allowlist ``text`` differ; empty when they agree."""
    entries, errors = parse(text)
    found = {key(m) for m in missing}
    return [
        *errors,
        *(f"extra (never entered, not allowlisted): {k}" for k in sorted(found - entries.keys())),
        *(f"stale (entered now, still allowlisted): {k}" for k in sorted(entries.keys() - found)),
    ]


def check(missing: list[str], allowlist: Path) -> int:
    """Print how ``missing`` differs from ``allowlist``; 0 when it does not."""
    problems = compare(missing, allowlist.read_text())
    for p in problems:
        print(f"census: {p}")
    if problems:
        print(f"census: the list differs from {allowlist} ({len(problems)} lines above)")
        return 1
    print(f"census: the list equals {allowlist} ({len({key(m) for m in missing})} entries)")
    return 0
