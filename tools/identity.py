"""Check that every report is byte-identical to another revision's.

    python tools/identity.py --base REV

Makes a git worktree of REV and runs, in it and in this working tree,
``stats``, ``train`` (which writes ``model.json``), ``sweep-alpha``,
``essential``, ``distances``, ``mst`` and ``classify --scores`` on five of
the corpus's texts. The train, sweep-alpha and essential runs use the
paper's counts: 100, 200 and 500. Both trees run on the benchmark's
reference corpus (generator seed 5) and its wide corpus (generator seed 3),
at ``LEXPALO_THREADS`` 1 and 2. Both write to the same output path, so the
paths that the commands print match, and each command's stdout is kept
beside its reports. Exits 1 and names the first file that differs, or that
only one tree wrote; exits 0 when every file is identical.

The corpora come from ``perfbench/corpus.py``, which is only imported. Each
tree's commands import that tree's ``src``, and a command that imports
``lexpalo`` from anywhere else is an error.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# (shape, generator seed) of each corpus
CORPORA = (("REFERENCE", 5), ("WIDE", 3))
THREADS = (1, 2)
COMMANDS = (
    ("stats",),
    ("train", "--runs", "100"),
    ("sweep-alpha", "--runs", "200"),
    ("essential", "--runs", "500"),
    ("distances",),
    ("mst",),
)
N_TEXTS = 5


def _generator():
    path = REPO / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write_corpora(work: Path) -> list[tuple[str, Path, list[Path]]]:
    """Each corpus as a JSONL file and the first texts of it as text files."""
    gen = _generator()
    corpora = []
    for shape, seed in CORPORA:
        records, _ = gen.generate(seed, getattr(gen, shape))
        path = work / f"{shape.lower()}-{seed}.jsonl"
        gen.write_jsonl(records, path)
        texts = []
        for i, rec in enumerate(records[:N_TEXTS]):
            texts.append(path.with_name(f"{path.stem}-text-{i}.txt"))
            texts[-1].write_text(rec["text"], encoding="utf-8")
        corpora.append((f"{shape.lower()}-{seed}", path, texts))
    return corpora


def _env(tree: Path, threads: int) -> dict:
    """The environment in which ``tree``'s commands run: its ``src`` first
    on the path, checked to be where ``lexpalo`` is imported from."""
    src = tree / "src"
    env = dict(os.environ, LEXPALO_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    found = subprocess.run(
        [sys.executable, "-c", "import lexpalo; print(lexpalo.__file__)"],
        env=env, cwd=src, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(found).resolve().parent != (src / "lexpalo").resolve():
        raise SystemExit(f"identity: {tree} imports lexpalo from {found}")
    return env


def _reports(env: dict, corpus: Path, texts: list[Path], out: Path) -> None:
    """Every command's reports in ``out``, their stdout in ``stdout.txt``."""
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "w", encoding="utf-8") as stdout:
        runs = [[*command, "--corpus", corpus, "--output-dir", out] for command in COMMANDS]
        runs += [["classify", "--scores", "--model", out / "model.json", "--file", text]
                 for text in texts]
        for args in runs:
            stdout.write(f"$ lexpalo {' '.join(map(str, args))}\n")
            stdout.flush()
            subprocess.run([sys.executable, "-m", "lexpalo.cli", *map(str, args)],
                           env=env, cwd=out.parent, stdout=stdout,
                           stderr=subprocess.STDOUT, check=True)


def _first_difference(a: Path, b: Path) -> str | None:
    """The first file, in sorted order, that differs between the two trees
    or exists in one only."""
    files = sorted(
        {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        | {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    )
    for name in files:
        if not ((a / name).is_file() and (b / name).is_file()
                and filecmp.cmp(a / name, b / name, shallow=False)):
            return str(name)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    base_rev = parser.parse_args(argv).base
    with tempfile.TemporaryDirectory(prefix="lexpalo-identity-") as tmp:
        work = Path(tmp)
        base = work / "base-tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(base), base_rev], check=True)
        try:
            corpora = _write_corpora(work)
            for threads in THREADS:
                envs = _env(base, threads), _env(REPO, threads)
                for name, corpus, texts in corpora:
                    label = f"{name}, LEXPALO_THREADS={threads}"
                    out = work / "out"
                    _reports(envs[0], corpus, texts, out)
                    kept = out.rename(work / "base-out")
                    _reports(envs[1], corpus, texts, out)
                    differing = _first_difference(kept, out)
                    if differing is not None:
                        print(f"identity: {differing} differs from {base_rev} ({label})")
                        return 1
                    print(f"identity: {label}: every file identical", flush=True)
                    shutil.rmtree(kept)
                    shutil.rmtree(out)
        finally:
            subprocess.run(
                ["git", "-C", str(REPO), "worktree", "remove", "--force", str(base)],
                check=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
