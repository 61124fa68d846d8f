"""Mutation sweep of src/avnsim/_sampler.py against tests/test_sampler_vectors.py.

Each numeric literal of _sampler.py is changed in turn, in two sweeps:
"up" adds 1 to an int and multiplies a float by 1.01, "down" subtracts 1
and multiplies by 0.99.  Each mutant is written into a temporary copy of
the package, never into src/, and the test file's functions run against
it in a fresh interpreter, in the order the file defines them.  A mutant
survives when every function returns; it is killed by a failure, an
error or a run longer than TIMEOUT seconds.  JOBS mutants run at once.
The script prints each sweep's survivors grouped by function, with their
line and literal.

A 0.0 literal is a no-op in both float sweeps and so always survives.

The script uses the standard library alone, and pytest does not collect
it, since its name does not start with test_.  Run it from anywhere:

    python tests/mutate_sampler.py

It exits 1 if the unmutated copy fails the tests, else 0.
"""

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "avnsim")
SAMPLER = os.path.join(PACKAGE, "_sampler.py")
JOBS = 2  # mutants run at once
TIMEOUT = 30.0  # seconds before a mutant counts as killed

# run in an isolated interpreter (-I: no PYTHONPATH, no user site), so only the copy is importable
RUNNER = """
import sys
sys.path[:0] = sys.argv[1:3]
import test_sampler_vectors as t
for name, test in list(vars(t).items()):
    if name.startswith("test_") and callable(test):
        test()
"""

SWEEPS = {
    "up": (lambda v: v + 1, lambda v: v * 1.01, "int +1, float x1.01"),
    "down": (lambda v: v - 1, lambda v: v * 0.99, "int -1, float x0.99"),
}


def literals(source: str):
    """(line, start byte, end byte, value, function) of each int or float literal, in source order."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node.lineno, node.col_offset, node.end_col_offset, node.value, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def mutate(lines: list[bytes], literal, sweep: str) -> tuple[str, str]:
    """The mutated source and the new literal's text; offsets are UTF-8 bytes, as ast gives them."""
    line, start, end, value, _ = literal
    int_step, float_step, _ = SWEEPS[sweep]
    new = int_step(value) if type(value) is int else float_step(value)
    text = repr(new) if new >= 0 else f"({new!r})"
    out = list(lines)
    old = out[line - 1]
    out[line - 1] = old[:start] + text.encode() + old[end:]
    return b"".join(out).decode("utf-8"), text


def survives(workdir: str, source: str) -> bool:
    """True when every test function passes on the package copy in workdir with this _sampler source."""
    with open(os.path.join(workdir, "avnsim", "_sampler.py"), "w", encoding="utf-8") as fh:
        fh.write(source)
    try:
        run = subprocess.run([sys.executable, "-I", "-B", "-c", RUNNER, workdir, TESTS],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    with open(SAMPLER, "rb") as fh:
        raw = fh.read()
    source = raw.decode("utf-8")
    lines = raw.splitlines(keepends=True)
    found = literals(source)
    per_function = Counter(literal[4] for literal in found)

    with tempfile.TemporaryDirectory(prefix="mutate_sampler_") as tmp:
        workdirs = queue.Queue()
        for j in range(JOBS):
            workdir = os.path.join(tmp, str(j))
            shutil.copytree(PACKAGE, os.path.join(workdir, "avnsim"), ignore=shutil.ignore_patterns("__pycache__"))
            workdirs.put(workdir)

        def check(src: str) -> bool:
            workdir = workdirs.get()
            try:
                return survives(workdir, src)
            finally:
                workdirs.put(workdir)

        if not check(source):
            print("the unmutated _sampler fails tests/test_sampler_vectors.py; no sweep run")
            return 1
        with ThreadPoolExecutor(JOBS) as pool:
            for sweep, (_, _, label) in SWEEPS.items():
                mutants = [mutate(lines, literal, sweep) for literal in found]
                alive = list(pool.map(check, [src for src, _ in mutants]))
                print(f"{sweep} ({label}): {sum(alive)} of {len(found)} mutants survive")
                by_function = {}
                for literal, (_, text), living in zip(found, mutants, alive):
                    if living:
                        by_function.setdefault(literal[4], []).append((literal, text))
                for function, survivors in by_function.items():
                    print(f"  {function}: {len(survivors)} of {per_function[function]}")
                    for (line, start, end, _, _), text in survivors:
                        old = lines[line - 1][start:end].decode("utf-8")
                        print(f"    line {line}, byte {start}: {old} -> {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
