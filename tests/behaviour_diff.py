"""The CLI behaviour corpus: its rows, how a row is run and checked, and the
change lists between two trees.

A row is one argv and what ``compalg`` does with it. The rows come from
``bench/cli_golden.json`` (read, never written), the help examples in
``cli.GROUPS`` and ``tests/golden/behaviour.jsonl``, one JSON record a line:

  argv           the arguments after ``compalg``
  exit           the exit code, default 0
  stdout         the exact stdout, default ""; or instead
  stdout_sha256  its SHA-256, for output too long to keep
  stderr         the last stderr line, default "": the ``ERR:`` line, or argparse's
                 ``error:`` line (the usage line before it wraps with COLUMNS)
  files          {name: text}, written to a temporary directory; an argv token
                 ``{name}`` becomes that file's path
  limits         memory_mib and timeout_s: the row runs in a child process under
                 RLIMIT_AS; every other row runs in-process through ``cli.dispatch``
  id             the pytest name the row runs under, NAME or NAME[PARAM]; rows that
                 share one run in order as one test. Default: test_behaviour[ARGV]
  note           why the row is there

``python tests/behaviour_diff.py REV`` runs every row on the ``src/`` of
``git archive REV`` and on the working tree, one child process per tree under
the largest row limits, and prints three lists: the rows newly answered (exit
not 0, then 0), newly refused (0, then not 0) and changed (same exit class,
another exit code, stdout or last stderr line).
"""

import hashlib
import io
import json
import os
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "behaviour.jsonl"


def load_rows() -> list[dict]:
    """The benchmark's golden cases, the help examples, then the corpus."""
    from compalg import cli

    rows = [{"argv": case["argv"], "stdout": case["stdout"],
             "id": f"test_cli_golden_case[{' '.join(case['argv'])}]"}
            for case in json.loads((ROOT / "bench" / "cli_golden.json").read_text())]
    rows += [{"argv": shlex.split(cmd), "stdout": "".join(line + "\n" for line in out),
              "id": f"test_help_examples_are_golden[{group}]"}
             for group, (_, examples, _) in cli.GROUPS.items() for cmd, out in examples]
    return rows + [json.loads(line) for line in CORPUS.read_text().splitlines()]


def shown(argv: list[str]) -> str:
    """argv as a shell line, each token over 60 characters cut short."""
    return shlex.join(a if len(a) <= 60 else f"{a[:24]}...({len(a)} chars)" for a in argv)


def row_id(row: dict) -> str:
    return row.get("id", f"test_behaviour[{shown(row['argv'])}]")


def last_line(text: str) -> str:
    return (text.splitlines() or [""])[-1]


def run(row: dict, tmp: Path | None = None, dispatch=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the row, its files written under tmp.
    In-process, an exception that leaves dispatch ends in exit 1 and its
    traceback on stderr, as it would end the process."""
    paths = {}
    for name, text in row.get("files", {}).items():
        (tmp / name).write_text(text)
        paths[f"{{{name}}}"] = str(tmp / name)
    argv = [paths.get(a, a) for a in row["argv"]]
    if "limits" in row and dispatch is None:
        memory = row["limits"].get("memory_mib")
        cap = memory and (lambda: resource.setrlimit(resource.RLIMIT_AS, (memory << 20,) * 2))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "compalg.cli", *argv], env=env,
                              capture_output=True, text=True, preexec_fn=cap,
                              timeout=row["limits"].get("timeout_s", 10))
        return done.returncode, done.stdout, done.stderr
    if dispatch is None:
        from compalg.cli import dispatch
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dispatch(argv)
        except Exception:
            code = 1
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def check(row: dict, tmp: Path):
    code, out, err = run(row, tmp)
    assert "Traceback" not in err, err
    assert code == row.get("exit", 0), err
    if "stdout_sha256" in row:
        assert hashlib.sha256(out.encode()).hexdigest() == row["stdout_sha256"], out[:200]
    else:
        assert out == row.get("stdout", "")
    assert last_line(err) == row.get("stderr", ""), err
    # a refusal is one line; only argparse writes its usage line before it
    assert code == 2 or len(err.splitlines()) <= 1, err


def pytest_functions(rows: list[dict]) -> dict:
    """One test function per name in the rows' ids, parametrized by the
    bracketed part; rows with the same id run in order as one test."""
    import pytest

    cases: dict = {}
    for row in rows:
        name, _, param = row_id(row).partition("[")
        cases.setdefault(name, {}).setdefault(param[:-1] or None, []).append(row)

    def function(by_param):
        if None in by_param:
            def test(tmp_path):
                for row in by_param[None]:
                    check(row, tmp_path)
            return test

        @pytest.mark.parametrize("rows", list(by_param.values()), ids=list(by_param))
        def test(rows, tmp_path):
            for row in rows:
                check(row, tmp_path)
        return test

    return {name: function(by_param) for name, by_param in cases.items()}


def run_all(src: str, rows_path: str, results_path: str):
    """Run every row in-process on the compalg under src, each within the
    largest row timeout, the process within the largest memory limit."""
    sys.path.insert(0, src)
    from compalg.cli import dispatch

    rows = json.loads(Path(rows_path).read_text())
    limits = [row.get("limits", {}) for row in rows]
    memory = max(limit.get("memory_mib", 0) for limit in limits)
    timeout = max(limit.get("timeout_s", 10) for limit in limits)
    if memory:
        resource.setrlimit(resource.RLIMIT_AS, (memory << 20,) * 2)

    def expire(*_):
        raise TimeoutError(f"no answer within {timeout} s")

    signal.signal(signal.SIGALRM, expire)
    results = []
    for row in rows:
        with tempfile.TemporaryDirectory() as tmp:
            signal.alarm(timeout)
            code, out, err = run(row, Path(tmp), dispatch)
            signal.alarm(0)
        results.append([code, out, last_line(err)])
    Path(results_path).write_text(json.dumps(results))


def describe(result) -> str:
    code, out, err = result
    lines = out.splitlines() or [""]
    text = err if code else lines[0] + (f" (+{len(lines) - 1} lines)" if len(lines) > 1 else "")
    return f"exit {code}: {text[:150]}"


def main(rev: str):
    rows = load_rows()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        rows_path = Path(tmp, "rows.json")
        rows_path.write_text(json.dumps(rows))
        children = [subprocess.Popen([sys.executable, __file__, "--run-all", str(tree / "src"),
                                      str(rows_path), str(Path(tmp, f"{name}.json"))], cwd=tmp)
                    for name, tree in (("before", Path(tmp)), ("after", ROOT))]
        if any([child.wait() for child in children]):
            sys.exit("a child process failed")
        before, after = (json.loads(Path(tmp, f"{name}.json").read_text())
                         for name in ("before", "after"))
    lists = {"newly answered": [], "newly refused": [], "changed": []}
    for row, old, new in zip(rows, before, after):
        if old != new:
            kind = ("changed" if bool(old[0]) == bool(new[0])
                    else "newly answered" if new[0] == 0 else "newly refused")
            files = "".join(f"\n    {{{name}}} = {text[:100]!r}"
                            for name, text in row.get("files", {}).items())
            lists[kind].append(f"  compalg {shown(row['argv'])}{files}\n"
                               f"    before {describe(old)}\n    after  {describe(new)}")
    print(f"{len(rows)} rows, {rev} -> working tree")
    for kind, entries in lists.items():
        print(f"{kind} ({len(entries)}):", *entries, sep="\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-all"]:
        run_all(*sys.argv[2:])
    elif len(sys.argv) == 2:
        sys.path.insert(0, str(ROOT / "src"))
        main(sys.argv[1])
    else:
        sys.exit(__doc__.split("\n\n")[-1])
