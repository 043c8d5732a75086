"""Check the mutation table: each row breaks the program on purpose, and the
tests it names must catch that.

    python tools/mutants.py [NAME ...]

A row names a file, an exact snippet of it, the snippet's replacement and
the tests expected to fail. For each row (every row, or the rows NAMEd) the
tool copies src/, tests/ and pyproject.toml into a temporary directory,
replaces the snippet, and runs pytest on the row's tests only. A row is
killed when pytest reports a failed test. A row with a `survives` reason is
a mutant known not to be a fault, and its tests must pass.

Every snippet must occur exactly once in its file, or the tool stops before
running anything: a refactor cannot retire a row unnoticed. The unmutated
copy must first pass every test the chosen rows name, so that a kill means
the mutant was caught. Hypothesis runs derandomized and without shrinking,
so a row behaves the same on every run and a killed row costs no shrinking
time. Prints one line per row and exits 1 if any row does not behave as the
table says. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: str = ""  # why the mutant is no fault; empty when the tests must fail


TABLE = (
    Mutant(
        "flip make_node's tie rule",
        "src/ddapprox/dd.py",
        "if w0.re * w0.re + w0.im * w0.im >= w1.re * w1.re + w1.im * w1.im:",
        "if w0.re * w0.re + w0.im * w0.im > w1.re * w1.re + w1.im * w1.im:",
        ("tests/test_dd_core.py::test_make_node_tie_prefers_succ0",),
    ),
    Mutant(
        "mark every node fixed",
        "src/ddapprox/dd.py",
        "Node(level, e0, e1, self._next_uid, fixed)",
        "Node(level, e0, e1, self._next_uid, True)",
        ("tests/test_approx.py::test_fixed_nodes_are_fixed_points_of_make_node",),
    ),
    Mutant(
        "<= in the `w1 is one` case of Node.fixed",
        "src/ddapprox/dd.py",
        "else sqr_mag(w0) < 1.0",
        "else sqr_mag(w0) <= 1.0",
        ("tests/test_approx.py::test_fixed_nodes_are_fixed_points_of_make_node",),
    ),
    Mutant(
        "share one _rebuild memo across elimination trials",
        "src/ddapprox/approx.py",
        "root = Edge(*_rebuild(pkg, *dd.root, replace, {}))",
        "root = Edge(*_rebuild(pkg, *dd.root, replace, "
        '_eliminate.__dict__.setdefault("memo", {})))',
        ("tests/test_approx.py::test_target_fidelity_guarantee_random_states",),
    ),
    Mutant(
        "skip identity rebuilds without checking Node.fixed",
        "src/ddapprox/dd.py",
        "    if not node.fixed:\n        return False\n",
        "",
        (
            "tests/test_circuits.py::test_kernel_matches_edge_building_reference",
            "tests/test_approx.py::test_eliminate_matches_full_rebuild",
            "tests/test_cli.py::test_sweep_rows_pinned[target-fidelity]",
        ),
    ),
    Mutant(
        "mark a node dead when any successor is dead",
        "src/ddapprox/approx.py",
        "dead[s] |= (dead[succ] | (view.mag[s] == 0.0)).all(axis=1)",
        "dead[s] |= (dead[succ] | (view.mag[s] == 0.0)).any(axis=1)",
        ("tests/test_approx.py::test_eliminate_demo_branch",),
    ),
    Mutant(
        "drop `s.start +` in _budget_prefixes",
        "src/ddapprox/approx.py",
        "out.append(s.start + order[: _prefix(order, c, budget)])",
        "out.append(order[: _prefix(order, c, budget)])",
        ("tests/test_approx.py::test_budget_prefixes_match_sorted_running_sum",),
    ),
    Mutant(
        "eliminate per-level's uncut union again",
        "src/ddapprox/analysis.py",
        "down[cut(s, down[s])] = 0.0",
        "cut(s, down[s])",
        ("tests/test_approx.py::test_per_level_floor_on_package_machine_vectors",),
    ),
    Mutant(
        "drop the slack from the prefix rule",
        "src/ddapprox/approx.py",
        "limit - _BUDGET_SLACK, side=",
        "limit, side=",
        ("tests/test_approx.py::test_per_level_prefixes_match_node_by_node_reference",),
    ),
    Mutant(
        "do not clear the doomed entries of keep",
        "src/ddapprox/approx.py",
        "keep = view.fixed & ~dead",
        "keep = view.fixed.copy()",
        ("tests/test_approx.py::test_eliminate_demo_branch",),
    ),
    Mutant(
        "return the unrescaled root from _eliminate",
        "src/ddapprox/approx.py",
        "return _rescaled(dd.n, root, pkg, total), _result_size(root.target, view), total",
        "return StateDD(dd.n, root, pkg), _result_size(root.target, view), total",
        ("tests/test_approx.py::test_outputs_keep_unit_norm",),
    ),
    Mutant(
        "flip the level-by-level build's tie rule",
        "src/ddapprox/dd.py",
        "top = r0 * r0 + i0 * i0 >= r1 * r1 + i1 * i1",
        "top = r0 * r0 + i0 * i0 > r1 * r1 + i1 * i1",
        ("tests/test_dd_core.py::test_from_vector_matches_recursive_build",),
    ),
    Mutant(
        "negate the liveness tests of the level-by-level build",
        "src/ddapprox/dd.py",
        "live = ((r0 != 0.0) | (i0 != 0.0)) & ((r1 != 0.0) | (i1 != 0.0))",
        "live = ((r0 == 0.0) | (i0 == 0.0)) & ((r1 == 0.0) | (i1 == 0.0))",
        ("tests/test_dd_core.py::test_from_vector_matches_recursive_build",),
    ),
    Mutant(
        "ignore the bucket-edge flag in lookup_many's fast path",
        "src/ddapprox/complex_table.py",
        "fast = ~edge & (np.abs(i) < 2.0**31)",
        "fast = (np.abs(i) < 2.0**31)",
        ("tests/test_complex_table.py::test_lookup_many_matches_lookups",),
    ),
    Mutant(
        "divide through by b.imag on |br| = |bi| in quotients",
        "src/ddapprox/complex_table.py",
        "on_re = np.abs(br) >= np.abs(bi)",
        "on_re = np.abs(br) > np.abs(bi)",
        ("tests/test_complex_table.py::test_quotients_match_complex_division",),
    ),
    Mutant(
        "promote to the oldest generation under a caller's frozen objects",
        "src/ddapprox/dd.py",
        "promote = blocks > 0 and gc.get_freeze_count() == 0",
        "promote = blocks > 0",
        ("tests/test_dd_core.py::test_paused_call_keeps_callers_frozen_objects_frozen",),
    ),
    Mutant(
        "skip the young collection before a paused call",
        "src/ddapprox/dd.py",
        "                gc.collect(1)\n",
        "                pass\n",
        ("tests/test_dd_core.py::test_paused_call_frees_cycles_made_before_it",),
    ),
    Mutant(
        "promote whatever a paused call leaves",
        "src/ddapprox/dd.py",
        "if promote and gc.get_count()[0] > gc.get_threshold()[0]:",
        "if promote:",
        ("tests/test_dd_core.py::test_paused_call_leaving_little_leaves_its_garbage_young",),
    ),
    Mutant(
        "never make the entry collection a full one",
        "src/ddapprox/dd.py",
        "if blocks > _blocks_after_full + _blocks_after_full // 4:",
        "if False:",
        ("tests/test_dd_core.py::test_promoted_garbage_freed_once_memory_grows",),
    ),
    Mutant(
        "let collect_garbage drop a live node",
        "src/ddapprox/dd.py",
        "keep = set(_preorder([e.target for e in roots])[0])",
        "keep = set(_preorder([e.target for e in roots])[0][1:])",
        ("tests/test_dd_core.py::test_collect_garbage_keeps_reachable",),
    ),
    Mutant(
        "record no stop hits in the reachability walk",
        "src/ddapprox/dd.py",
        "            hits.append(i)\n",
        "            pass\n",
        ("tests/test_approx.py::test_eliminate_matches_full_rebuild",),
    ),
    Mutant(
        "ignore the stop mapping in the reachability walk",
        "src/ddapprox/dd.py",
        "i = stop.get(t)",
        "i = None",
        ("tests/test_approx.py::test_eliminate_matches_full_rebuild",),
        survives="a walk that stops nowhere lists every node below the rebuilt root, "
        "and _result_size counts each once, only slower",
    ),
    Mutant(
        "take a draw at p1 * 2**53 = 2**53 - 1",
        "src/ddapprox/analysis.py",
        "forced = ~((thr > 0.0) & (thr <= _DRAW_MAX))",
        "forced = ~((thr > 0.0) & (thr < _DRAW_MAX))",
        ("tests/test_level_view.py::test_walk_cache_examples",),
    ),
    Mutant(
        "start every walk block at walk 0",
        "src/ddapprox/analysis.py",
        "states = derive_seeds(seed, first, min(first + _WALK_BLOCK, traversals))",
        "states = derive_seeds(seed, 0, min(first + _WALK_BLOCK, traversals) - first)",
        ("tests/test_level_view.py::test_walk_cache_matches_fresh_replays",),
    ),
    Mutant(
        "share one edge-count buffer between sampling calls",
        "src/ddapprox/analysis.py",
        "        taken = np.zeros(2 * m, dtype=np.int64)\n",
        "        taken = _walk.__dict__.setdefault(m, np.zeros(2 * m, dtype=np.int64))\n"
        "        taken[:] = 0\n",
        ("tests/test_dd_core.py::test_queries_run_concurrently_on_one_package",),
    ),
    Mutant(
        "share the memo of _apply's controlled and mix rules",
        "src/ddapprox/circuits.py",
        "return _rebuild(pkg, *root, controlled, {})",
        "return _rebuild(pkg, *root, controlled, inner_memo)",
        (
            "tests/test_circuits.py::test_kernel_matches_edge_building_reference",
            "tests/test_complex_table.py::test_simulation_table_contents_pinned",
            "tests/test_cli.py::test_acceptance_sweeps_md5",
        ),
        survives="controlled memoizes nodes on and above the control level and mix "
        "nodes below it, so their keys never meet",
    ),
)

# Loaded into every copy's pytest run with `-p`: fixed examples per test, no
# shrinking and no example database.
_PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("mutants")
"""


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "_mutants_plugin.py").write_text(_PLUGIN)


def _pytest(copy: Path, tests) -> int:
    """pytest's exit code for `tests` in `copy`: 0 passed, 1 a test failed."""
    env = dict(os.environ, PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["-p", "_mutants_plugin", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def check_snippets(rows) -> list[str]:
    """One error line per row whose snippet does not occur exactly once."""
    errors = []
    for row in rows:
        found = (ROOT / row.file).read_text(encoding="utf-8").count(row.snippet)
        if found != 1:
            errors.append(f"{row.name!r}: snippet occurs {found} times in {row.file}")
    return errors


def run_row(row: Mutant) -> tuple[bool, str]:
    """(behaved as the table says, one line for the report)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / row.file
        path.write_text(path.read_text(encoding="utf-8").replace(row.snippet, row.replacement))
        code = _pytest(copy, row.tests)
    took = f"{time.perf_counter() - start:5.1f} s"
    if code not in (0, 1):
        return False, f"ERROR    {took}  {row.name}: pytest exited {code}"
    if row.survives:
        if code == 0:
            return True, f"survived {took}  {row.name} (no fault: {row.survives})"
        return False, f"KILLED   {took}  {row.name}: expected to survive"
    if code == 1:
        return True, f"killed   {took}  {row.name}"
    return False, f"SURVIVED {took}  {row.name}: {', '.join(row.tests)} passed"


def main(argv: list[str]) -> int:
    rows = [row for row in TABLE if not argv or row.name in argv]
    unknown = set(argv) - {row.name for row in TABLE}
    errors = [f"{name!r}: no such row" for name in sorted(unknown)] + check_snippets(rows)
    if errors:
        for line in errors:
            print(f"mutants: {line}", file=sys.stderr)
        return 2
    tests = sorted({t for row in rows for t in row.tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"mutants: the unmutated copy fails its tests (pytest exit {code})", file=sys.stderr)
        return 2
    ok = True
    for row in rows:
        behaved, line = run_row(row)
        ok &= behaved
        print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
