"""Check that every report is byte-identical between the two sides of a check.

    python tools/identity.py              # the environment checks, on this tree
    python tools/identity.py --base REV   # this tree against a worktree of REV

Each entry of ``CHECKS`` names its corpora, its commands and its two sides,
each a tree plus environment variables. Both sides write a corpus's reports
and stdout to the same output path. Exits 1 and names the first file that
differs or that one side alone wrote, or says why a check exercised
nothing. The corpora come from ``perfbench/corpus.py``, which is only
imported. Each tree's commands must import ``lexpalo`` from its ``src``.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parents[1]
BASE, WORKING = "base", "working"  # the trees a side can run
STRICT = {"PYTHONWARNINGS": "error::RuntimeWarning"}

# name -> the corpus's records, made with perfbench/corpus.py's module
CORPORA = {
    "reference-5": lambda gen: gen.generate(5, gen.REFERENCE)[0],
    "wide-3": lambda gen: gen.generate(3, gen.WIDE)[0],
    "hash-seed": lambda gen: _hash_seed_records(),
}
# what classify reads with --text; of other corpora, the first 5 texts, as files
TEXTS = {"hash-seed": ("pena ſeñor noche Ἀθῆναι", "Mar, sol y Cádiz: ¡ἀνά!",
                       "agua Ñu ωμέγα palabra nueva")}

PAPER_COUNTS = (("stats",), ("train", "--runs", "100"), ("sweep-alpha", "--runs", "200"),
                ("essential", "--runs", "500"), ("distances",), ("mst",), ("classify", "--scores"))
FEW_RUNS = (("stats",), ("distances",), ("mst",), ("train", "--runs", "2"),
            ("sweep-alpha", "--runs", "2"), ("essential", "--runs", "3"), ("classify", "--scores"))
# the hash-seed corpus's palos hold 10 songs each
FEW_RUNS_SMALL = tuple(c if c[0] == "classify" else (*c, "--min-lyrics", "2") for c in FEW_RUNS)
# step 0.1 scores the grid at its own alphas; the default step interpolates
DEFAULTS = (("stats",), ("train",), ("sweep-alpha",), ("essential",), ("distances",), ("mst",),
            ("sweep-alpha", "--grid-step", "0.1", "--output-dir", "step-0.1"),
            ("classify", "--scores"))
# numpy 2.4's AVX-512 groups, and AVX512F and AVX512_SKX for an older numpy;
# numpy warns about the names it does not know (an ImportWarning, hidden)
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512_SKX"
CPU_FEATURES = ("from numpy._core._multiarray_umath import __cpu_features__ as f; "
                "print(*sorted(k for k, on in f.items() if on and 'AVX512' in k))")
# the number of CPUs a process may run on, which caps its workers
CPUS = ("import os; print(len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') "
        "else os.cpu_count() or 1)")
# a dot product of 9,999 values whose bits differ between OpenBLAS's Nehalem
# kernel and its Haswell and SkylakeX ones
KERNEL_DOT = "import numpy as np; v = 1 / np.arange(1.0, 10_000.0); print(v.dot(v).hex())"


def _hash_seed_records() -> list[dict]:
    """Words outside Latin-1 (long s, Greek, n with a combining tilde),
    tokens separated by no-break spaces, and in each palo a song of stop
    words only, which preprocesses to nothing."""
    rng = random.Random(7)
    pools = {
        "sole": ["pena", "ſeñor", "noche", "Ἀθῆναι", "llorar", "sombra"],
        "tango": ["baile", "ωμέγα", "Ωμέγα", "man\u0303ana", "calle", "jaleo"],
        "alegria": ["mar", "sol", "Cádiz", "ἀνά", "brisa", "puerto"],
    }
    shared = ["agua", "luna", "corazón", "Ñu", "ñu", "¡ay!"]
    records = []
    for palo, pool in pools.items():
        for i in range(10):
            words = rng.choices(pool + shared, k=rng.randint(5, 12))
            text = "".join(w + rng.choice([" ", "\u00a0"]) for w in words)
            if i == 9:
                text = "de la que y el"
            records.append({"id": f"{palo}-{i}", "palo": palo, "text": text})
    return records


def _pool_started(envs: list[dict], corpora: list[Path]) -> str | None:
    """Why the check tested nothing: the side with two workers may run on
    one CPU, so its rounds ran in one process."""
    cpus = int(subprocess.run([sys.executable, "-c", CPUS], env=envs[1], check=True,
                              capture_output=True, text=True).stdout)
    print(f"identity: the side with LEXPALO_THREADS={envs[1]['LEXPALO_THREADS']} "
          f"may run on {cpus} CPU(s)")
    if cpus < 2:
        return "the side with two workers may run on one CPU, so no pool started"


def _blas_kernels_differ(envs: list[dict], corpora: list[Path]) -> str | None:
    """Why the check tested nothing: one fixed dot product has the same bits
    under both sides' OpenBLAS kernels."""
    dots = [subprocess.run([sys.executable, "-c", KERNEL_DOT], env=env, check=True,
                           capture_output=True, text=True).stdout.strip() for env in envs]
    for env, dot in zip(envs, dots):
        print(f"identity: OPENBLAS_CORETYPE={env.get('OPENBLAS_CORETYPE', '')!r}: "
              f"fixed dot product {dot}")
    if dots[0] == dots[1]:
        return "both sides' OpenBLAS kernels gave the fixed dot product the same bits"


def _avx512_disabled(envs: list[dict], corpora: list[Path]) -> str | None:
    """Why the check tested nothing: the disabled side still has numpy's
    AVX-512 dispatch on a host that has it."""
    enabled = [subprocess.run([sys.executable, "-c", CPU_FEATURES], env=env, check=True,
                              capture_output=True, text=True).stdout.split() for env in envs]
    for env, groups in zip(envs, enabled):
        print(f"identity: NPY_DISABLE_CPU_FEATURES={env['NPY_DISABLE_CPU_FEATURES']!r}: "
              f"AVX-512 groups enabled: {' '.join(groups) or 'none'}")
    if "AVX512_SKX" not in enabled[0]:
        print("identity: no AVX512_SKX on this host; both sides took the same path")
    elif "AVX512_SKX" in enabled[1]:
        return "AVX512_SKX stayed enabled"


class Check(NamedTuple):
    name: str
    corpora: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]
    sides: tuple[tuple[str, dict], tuple[str, dict]]  # (tree, environment variables)
    # once every corpus passed: prints what shows that the check exercised
    # the sides' difference, and returns why it did not, or None
    evidence: Callable[[list[dict], list[Path]], str | None] | None = None


CHECKS = (
    *(Check(f"tree, LEXPALO_THREADS={threads}", ("reference-5", "wide-3"), PAPER_COUNTS,
            ((BASE, {"LEXPALO_THREADS": threads}), (WORKING, {"LEXPALO_THREADS": threads})))
      for threads in ("1", "2")),
    # words outside Latin-1, which preprocessing filters apart from the rest
    Check("tree, hash-seed corpus", ("hash-seed",), FEW_RUNS_SMALL,
          ((BASE, {}), (WORKING, {}))),
    # the sweep's GEMM interpolation runs on OpenBLAS's threads; the 4 side
    # runs the rounds on two workers
    Check("workers and BLAS", ("reference-5", "wide-3"), FEW_RUNS,
          ((WORKING, {**STRICT, "OPENBLAS_NUM_THREADS": "1", "LEXPALO_THREADS": "1"}),
           (WORKING, {**STRICT, "OPENBLAS_NUM_THREADS": "4", "LEXPALO_THREADS": "2"})),
          _pool_started),
    # without AVX-512, float64 np.log and np.exp (the sweep's Chebyshev nodes
    # and bound) change the last bit of up to about 0.4% of logs; the lexical
    # reports take logs, sums and square roots through numpy
    Check("SIMD dispatch", ("reference-5",), DEFAULTS,
          ((WORKING, {**STRICT, "NPY_DISABLE_CPU_FEATURES": ""}),
           (WORKING, {**STRICT, "NPY_DISABLE_CPU_FEATURES": NO_AVX512})),
          _avx512_disabled),
    # the kernels OpenBLAS picks for an older CPU, which add a dot product's
    # terms in another order: no report may take its bits from BLAS
    Check("OpenBLAS kernels", ("reference-5", "wide-3"), FEW_RUNS,
          ((WORKING, STRICT), (WORKING, {**STRICT, "OPENBLAS_CORETYPE": "Nehalem"})),
          _blas_kernels_differ),
    # tier-1 runs under one hash seed: no report may follow a set's order
    Check("hash seed", ("hash-seed",), FEW_RUNS_SMALL,
          ((WORKING, {**STRICT, "PYTHONHASHSEED": "0"}),
           (WORKING, {**STRICT, "PYTHONHASHSEED": "1"}))),
)


def _write_corpora(work: Path, names) -> dict[str, tuple[Path, list[tuple[str, str]]]]:
    """Each named corpus as a JSONL file, with the inputs that classify reads."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", REPO / "perfbench" / "corpus.py")
    gen = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up by name
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    corpora = {}
    for name in names:
        records = CORPORA[name](gen)
        path = work / f"{name}.jsonl"
        gen.write_jsonl(records, path)
        inputs = [("--text", text) for text in TEXTS.get(name, ())]
        for i, rec in enumerate([] if inputs else records[:5]):
            text = path.with_name(f"{name}-text-{i}.txt")
            text.write_text(rec["text"], encoding="utf-8")
            inputs.append(("--file", text))
        corpora[name] = path, inputs
    return corpora


def _env(tree: Path, variables: dict) -> dict:
    """The environment in which ``tree``'s commands run: its ``src`` first
    on the path, checked to be where ``lexpalo`` is imported from."""
    src = tree / "src"
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    found = subprocess.run(
        [sys.executable, "-c", "import lexpalo; print(lexpalo.__file__)"],
        env=env, cwd=src, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(found).resolve().parent != (src / "lexpalo").resolve():
        raise SystemExit(f"identity: {tree} imports lexpalo from {found}")
    return env


def _reports(env: dict, commands, corpus: Path, inputs, out: Path) -> None:
    """Every command's reports in ``out``, their stdout in ``stdout.txt``; a
    command's own ``--output-dir`` is taken relative to ``out``."""
    out.mkdir(parents=True)
    runs = []
    for command in commands:
        if command[0] == "classify":
            runs += [[*command, "--model", "model.json", *text] for text in inputs]
        else:
            where = () if "--output-dir" in command else ("--output-dir", ".")
            runs.append([*command, "--corpus", corpus, *where])
    with open(out / "stdout.txt", "w", encoding="utf-8") as stdout:
        for args in runs:
            stdout.write(f"$ lexpalo {shlex.join(map(str, args))}\n")
            stdout.flush()
            subprocess.run([sys.executable, "-m", "lexpalo.cli", *map(str, args)],
                           env=env, cwd=out, stdout=stdout,
                           stderr=subprocess.STDOUT, check=True)


def _first_difference(a: Path, b: Path) -> str | None:
    """The first file, in sorted order, that differs between the two trees
    or exists in one only."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    for name in files:
        if not ((a / name).is_file() and (b / name).is_file()
                and filecmp.cmp(a / name, b / name, shallow=False)):
            return str(name)
    return None


def _passes(check: Check, trees: dict[str, Path], corpora, work: Path) -> bool:
    envs = [_env(trees[tree], variables) for tree, variables in check.sides]
    for name in check.corpora:
        out = work / "out"
        _reports(envs[0], check.commands, *corpora[name], out)
        kept = out.rename(work / "first-side-out")
        _reports(envs[1], check.commands, *corpora[name], out)
        differing = _first_difference(kept, out)
        if differing is not None:
            print(f"identity: {check.name}, {name}: {differing} differs between the "
                  f"sides {check.sides}")
            return False
        print(f"identity: {check.name}, {name}: all "
              f"{sum(p.is_file() for p in out.rglob('*'))} files identical", flush=True)
        shutil.rmtree(kept)
        shutil.rmtree(out)
    failure = check.evidence and check.evidence(envs, [corpora[n][0] for n in check.corpora])
    if failure:
        print(f"identity: {check.name}: {failure}")
    return not failure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare this working tree "
                        "against; without it, the environment checks run")
    base_rev = parser.parse_args(argv).base
    checks = [c for c in CHECKS if (c.sides[0][0] == BASE) == (base_rev is not None)]
    with tempfile.TemporaryDirectory(prefix="lexpalo-identity-") as tmp:
        work = Path(tmp)
        trees = {BASE: work / "base-tree", WORKING: REPO}
        if base_rev is not None:
            subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                            str(trees[BASE]), base_rev], check=True)
        try:
            corpora = _write_corpora(work, dict.fromkeys(n for c in checks for n in c.corpora))
            if not all(_passes(check, trees, corpora, work) for check in checks):
                return 1
        finally:
            if base_rev is not None:
                subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                                str(trees[BASE])], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
