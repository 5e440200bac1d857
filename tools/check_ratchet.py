#!/usr/bin/env python
"""Guard the mypy strictness ratchet (see tools/typing_ratchet.txt).

Checks, stdlib-only (tomllib is in the standard library on >= 3.11;
a tiny fallback parser keeps 3.10 working for the narrow shape we emit):

1. every module in the manifest has a strict override in pyproject.toml,
   and every strict override is in the manifest (no drift either way);
2. each strict override carries the four ratchet flags and
   ``ignore_errors = false``;
3. ``src/repro/py.typed`` exists (the package ships its types);
4. with ``--base REF``: every module of the manifest at ``REF`` that
   still exists under ``src/`` is in the working-tree manifest — a
   module, once ratcheted, cannot be demoted (a deleted module is not a
   demotion).  A missing/unreadable ref (shallow clone, first commit) is
   a no-op with a notice, never a failure.

Exit status: 0 clean, 1 on any violation.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MANIFEST = REPO_ROOT / "tools" / "typing_ratchet.txt"
PYPROJECT = REPO_ROOT / "pyproject.toml"
SRC = REPO_ROOT / "src"
PY_TYPED = SRC / "repro" / "py.typed"

#: flags every ratcheted module's override must set (ignore_errors must
#: additionally be present and false)
REQUIRED_FLAGS = (
    "disallow_untyped_defs",
    "disallow_incomplete_defs",
    "check_untyped_defs",
    "no_implicit_optional",
)


def parse_manifest(text: str) -> set[str]:
    mods = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            mods.add(line)
    return mods


def load_pyproject(path: Path) -> dict:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - 3.10 fallback
        return _parse_mypy_toml_subset(path.read_text(encoding="utf-8"))
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _parse_mypy_toml_subset(text: str) -> dict:  # pragma: no cover
    """Minimal reader for the [[tool.mypy.overrides]] shape we emit."""
    overrides: list[dict] = []
    cur: dict | None = None
    in_module_list = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[[tool.mypy.overrides]]":
            cur = {"module": []}
            overrides.append(cur)
            in_module_list = False
            continue
        if line.startswith("[") and line != "[[tool.mypy.overrides]]":
            cur = None
            in_module_list = False
            continue
        if cur is None:
            continue
        if in_module_list:
            for part in line.split(","):
                part = part.strip().strip('"').strip("'")
                if part and part not in ("]",):
                    cur["module"].append(part)
            if "]" in line:
                in_module_list = False
            continue
        if "=" in line:
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "module" and val.startswith("["):
                in_module_list = "]" not in val
                for part in val.strip("[]").split(","):
                    part = part.strip().strip('"').strip("'")
                    if part:
                        cur["module"].append(part)
            elif val in ("true", "false"):
                cur[key] = val == "true"
    return {"tool": {"mypy": {"overrides": overrides}}}


def strict_override_modules(config: dict) -> tuple[set[str], list[str]]:
    """(modules covered by a compliant strict override, problem list)."""
    problems: list[str] = []
    strict: set[str] = set()
    mypy = (config.get("tool") or {}).get("mypy") or {}
    for block in mypy.get("overrides") or []:
        modules = block.get("module") or []
        if isinstance(modules, str):
            modules = [modules]
        if block.get("ignore_errors") is not False:
            continue  # a permissive override is not a ratchet entry
        missing = [f for f in REQUIRED_FLAGS if block.get(f) is not True]
        if missing:
            problems.append(
                f"override for {modules} lacks ratchet flag(s): "
                f"{', '.join(missing)}")
            continue
        strict.update(modules)
    return strict, problems


def module_exists(mod: str, src: Path = SRC) -> bool:
    """True when dotted *mod* is a module file or a package directory
    under *src*."""
    path = src.joinpath(*mod.split("."))
    return path.with_suffix(".py").is_file() or path.is_dir()


def demoted(base: set[str], manifest: set[str],
            src: Path = SRC) -> list[str]:
    """Modules ratcheted in *base* that still exist but left *manifest*."""
    return sorted(m for m in base - manifest if module_exists(m, src))


def manifest_at_ref(ref: str) -> set[str] | None:
    """Manifest content at *ref*, or None when unreadable (no-op)."""
    rel = MANIFEST.relative_to(REPO_ROOT).as_posix()
    try:
        out = subprocess.run(
            ["git", "show", f"{ref}:{rel}"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return parse_manifest(out.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", metavar="REF", default=None,
                    help="git ref to check the no-demotion rule against")
    args = ap.parse_args(argv)

    failures: list[str] = []

    if not PY_TYPED.exists():
        failures.append("src/repro/py.typed is missing — the package no "
                        "longer advertises inline types (PEP 561)")

    manifest = parse_manifest(MANIFEST.read_text(encoding="utf-8"))
    if not manifest:
        failures.append(f"{MANIFEST} lists no modules")

    strict, problems = strict_override_modules(load_pyproject(PYPROJECT))
    failures.extend(problems)

    for mod in sorted(manifest - strict):
        failures.append(
            f"{mod} is in typing_ratchet.txt but has no strict mypy "
            f"override in pyproject.toml")
    for mod in sorted(strict - manifest):
        failures.append(
            f"{mod} has a strict mypy override but is missing from "
            f"tools/typing_ratchet.txt — append it to the manifest")

    if args.base:
        base = manifest_at_ref(args.base)
        if base is None:
            print(f"note: ref {args.base!r} has no readable manifest; "
                  f"skipping no-demotion check", file=sys.stderr)
        else:
            for mod in demoted(base, manifest):
                failures.append(
                    f"{mod} was on the ratchet at {args.base} but is gone "
                    f"from the manifest — demoting a typed module is not "
                    f"allowed")

    if failures:
        for f in failures:
            print(f"ratchet: {f}", file=sys.stderr)
        return 1
    print(f"ratchet ok: {len(manifest)} module(s) strict, py.typed present")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
