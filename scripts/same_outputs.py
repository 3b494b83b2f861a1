"""Check that this checkout's CLI prints what another checkout's prints.

The inputs are the benchmark's, written by ``perfbench/workloads.py``
(imported, never changed) to a temporary directory: the query-mix and
reject-mix fans of seed 1 and the classes of both classifications; and
the fans that are not projective, which no benchmark input is: the 3
weak Fano classes of the blow-up-and-flop corpus of seed 4 that are not
projective, the first of them the 8-ray fan (``tests/_oracles.py``). So
the comparison reaches fans outside the
domain of the arguments that the package's shortcuts rest on, where the
crepant relations read off the walls are only observed, not proven, to
be those that the primitive relations give. For
each checkout one subprocess calls ``torifan.cli.main`` in process for
every per-fan command on every input, every ``isomorphic`` query, the
whole-package commands and ``catalog NAME`` on every catalog name, each
with and without ``--json``, for ``--help`` of the top level and of each
subcommand, and for usage errors (no command, an unknown one, a missing
FAN, an extra argument, an unknown option, a bad ``--twist-bound``) and a
``--`` before FAN, and prints each invocation whose stdout, stderr or exit
code differs.

usage: python3 scripts/same_outputs.py OTHER_CHECKOUT

Exits 1 when an invocation differs. Standard library only.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_FAN = ("validate", "analyze", "degree", "is-fano", "is-weak-fano", "is-weakened-fano")
SUBCOMMANDS = ("isomorphic", "catalog", "classify-surfaces", "classify-3folds", "verify")
WHOLE = (
    ["classify-3folds", "--stats"], ["classify-3folds", "--twist-bound", "1000000", "--stats"],
    ["classify-surfaces"], ["classify-surfaces", "--stats"], ["verify"], ["catalog", "--list"],
)
CHILD = """
import contextlib, io, json, sys
from torifan.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""


def invocations(work: Path) -> list[list[str]]:
    sys.dont_write_bytecode = True  # nothing is written under perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import workloads as wl
    from _oracles import blow_up_flop_corpus, non_projective_fan, reference_is_projective
    from torifan import catalog, classify
    from torifan.primitive import is_weak_fano

    plain = wl.plain_catalog(catalog.all_named())
    reports = [classify.enumerate_weak_del_pezzo(), classify.enumerate_weakened_threefolds(3)]
    for name in ("query-mix", "reject-mix", "sweep-b3"):
        (work / name).mkdir()
    queries = (wl.query_mix(1, plain, work / "query-mix") + wl.reject_mix(1, plain, work / "reject-mix")
               + wl.result_queries(reports, work / "sweep-b3"))
    corpus = blow_up_flop_corpus(seed=4, walks=250, steps=6, max_rays=10)
    outside = [fan for fan in corpus if is_weak_fano(fan) and not reference_is_projective(fan)]
    assert len(outside) == 3 and outside[0] == non_projective_fan(), outside
    extras = []
    for k, fan in enumerate(outside):
        extras.append(work / f"non-projective-{k}.json")
        extras[-1].write_text(json.dumps(fan.to_dict()))
    paths = sorted({q.argv[1] for q in queries} | set(map(str, extras)))
    argvs = [[command, path] for path in paths for command in PER_FAN]
    argvs += sorted(q.argv for q in queries if q.command == "isomorphic") + [list(a) for a in WHOLE]
    argvs += [["catalog", name] for name in catalog.all_named()]
    helps = [["--help"]] + [[command, "--help"] for command in PER_FAN + SUBCOMMANDS]
    usage = [[], ["nosuch"], ["validate"], ["validate", "--", paths[0]], ["classify-3folds", "--twist-bound", "2.5"]]
    usage += [[command, paths[0], extra] for command in PER_FAN for extra in ("extra", "--bogus")]
    return [argv + flag for argv in argvs for flag in ([], ["--json"])] + helps + usage


def outputs(checkout: Path, argvs: list[list[str]]) -> list:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    return json.loads(subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env,
                                     capture_output=True, text=True, check=True).stdout)


def main() -> int:
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "src" / "torifan").is_dir():
        sys.exit("usage: python3 scripts/same_outputs.py OTHER_CHECKOUT")
    with tempfile.TemporaryDirectory() as tmp:
        argvs = invocations(Path(tmp))
        ours, theirs = outputs(ROOT, argvs), outputs(Path(sys.argv[1]).resolve(), argvs)
    differ = 0
    for argv, a, b in zip(argvs, ours, theirs):
        if a != b:
            differ += 1
            parts = [part for part, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
            print(f"differs in {', '.join(parts)}: torifan {' '.join(argv)}")
    print(f"{differ} of {len(argvs)} invocations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
