"""The benchmark's workloads: fixed job lists of CLI commands with checks.

A job is one ``displab`` subcommand run as a fresh process.  Its check
compares stdout with an independent reference where one exists (``refs``)
and otherwise with the bytes the command printed at the commit that
defined the benchmark (``expected_stdout.json``).  Checks that need
several jobs (route agreement, reversal, disjoint unions) run once the
whole pass is done.

Workloads and why each was chosen:

* ``count``: large single digraphs for ``count``, where the subset-memoized
  kernel does nearly all the work.  Stars are the sink-peel worst case
  (2^(n-1) states), their reversals the case a source-peeling kernel
  finishes at once; staircases and two-row grids have closed forms; random
  trees and multi-component DAGs vary the state count, the component
  structure and which peel side would win.  One serial extremal search
  counts many small digraphs.
* ``poly``: companion polynomials by both routes and along reversed paths,
  the Laguerre-pair ODE elimination, Gram matrices and the paper tables.
  Exact polynomial arithmetic dominates; counting runs as many small
  recounts that share work, the opposite use of the kernel from ``count``.
* ``nonstrict``: non-strict counter tables to a large size on families with
  closed forms and on random digraphs with cycles, which must be condensed
  first.  Strict counting and the ODE code stay nearly idle.

Every workload also runs the smoke jobs, one small command per layer, so each
layer's traced time is measured on every workload (a small constant where
the workload does not use the layer) and each subcommand's start-up path is
exercised.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import factorial, prod
from pathlib import Path
from typing import Callable

import inputs
import refs

EXPECTED_FILE = Path(__file__).with_name("expected_stdout.json")
# lifts the CLI's default 20-vertex cap on input digraphs to the hard 63
BIG = ("--max-order", "63")

Check = Callable[[str], "str | None"]


@dataclass
class Job:
    """One CLI command; `check` returns an error message or None."""

    key: str
    argv: tuple[str, ...]
    check: Check


@dataclass
class Workload:
    name: str
    # sha256 of recorded stdouts by job key
    expected: dict[str, str]
    jobs: list[Job] = field(default_factory=list)
    # keys of the jobs checked against recorded stdout
    recorded: list[str] = field(default_factory=list)
    # (job keys, check over their stdouts) run after every pass
    cross_checks: list[tuple[tuple[str, ...], Callable]] = field(
        default_factory=list)

    def add(self, key: str, argv, check: Check) -> str:
        if any(job.key == key for job in self.jobs):
            raise ValueError(f"duplicate job key {key!r}")
        self.jobs.append(Job(key, tuple(str(a) for a in argv), check))
        return key

    def add_recorded(self, key: str, argv, check: Check | None = None) -> str:
        """A job whose stdout must equal the recorded bytes (and pass
        `check`, when given)."""
        self.recorded.append(key)
        same = seed_bytes(key, self.expected)
        return self.add(key, argv, both(check, same) if check else same)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def load_expected() -> dict[str, str]:
    if EXPECTED_FILE.exists():
        return json.loads(EXPECTED_FILE.read_text())
    return {}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def seed_bytes(key: str, expected: dict[str, str]) -> Check:
    """Stdout must equal the bytes recorded at the defining commit."""
    want = expected.get(key)

    def check(out: str) -> str | None:
        if want is None:
            return f"no recorded stdout for {key!r}"
        if digest(out) != want:
            return f"stdout differs from the recorded bytes: {out[:120]!r}"
        return None

    return check


def integer(value: int) -> Check:
    def check(out: str) -> str | None:
        if out != f"{value}\n":
            return f"expected {value}, got {out[:120]!r}"
        return None

    return check


def both(*checks: Check) -> Check:
    """All of `checks`, first error wins."""
    def check(out: str) -> str | None:
        for c in checks:
            err = c(out)
            if err:
                return err
        return None

    return check


def nonstrict_table(references: list[Callable[[int], int]],
                    max_size: int) -> Check:
    """CSV table whose row r holds references[r](i) for i = 1..max_size."""

    def check(out: str) -> str | None:
        # the first field is the digraph name, which may itself hold commas
        rows = out.splitlines()
        if len(rows) != len(references) + 1:
            return f"expected {len(references) + 1} CSV rows, got {len(rows)}"
        for row, ref in zip(rows[1:], references):
            got = row.split(",")[-max_size:]
            want = [str(ref(i)) for i in range(1, max_size + 1)]
            if got != want:
                return f"row {row[:30]!r}: got {got[:5]}..., want {want[:5]}..."
        return None

    return check


def extremal_max(order: int) -> Check:
    """The maximum counter over connected row grids is the zigzag number."""

    def check(out: str) -> str | None:
        got = _json_object(out).get("max_counter")
        if got != refs.zigzag(order):
            return f"max counter {got}, want {refs.zigzag(order)}"
        return None

    return check


def gram_identity(size: int) -> Check:
    """Laguerre polynomials are orthonormal under exp(-x)."""
    labels = [f"L{k}" for k in range(size)]
    lines = [",".join([""] + labels)]
    for i, label in enumerate(labels):
        lines.append(",".join([label] + ["1" if i == j else "0"
                                         for j in range(size)]))
    want = "\n".join(lines) + "\n"
    return lambda out: None if out == want else f"not the identity: {out!r}"


def families_check(out: str) -> str | None:
    data = _json_object(out)
    if data.get("n") != 1 or data.get("counter") != 1:
        return f"path:1 should have one vertex and counter 1: {out!r}"
    return None


def all_equal(outs: dict[str, str]) -> str | None:
    if len(set(outs.values())) != 1:
        return "outputs differ: " + "; ".join(
            f"{k} -> {v.strip()[:60]!r}" for k, v in outs.items())
    return None


def union_rule(union: str, reverse: str, parts: list[str],
               sizes: list[int]) -> Callable:
    """count(union) = count(reversed union)
    = multinomial(part orders) * product of part counters."""

    def check(outs: dict[str, str]) -> str | None:
        try:
            whole = int(outs[union])
            rev = int(outs[reverse])
            want = refs.multinomial(sizes) * prod(int(outs[p]) for p in parts)
        except ValueError as exc:
            return f"non-integer count: {exc}"
        if not whole == rev == want:
            return f"union {whole}, reversed {rev}, from parts {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

SETUP_ARGV = ("families", "--spec", "path:1")


def add_smoke(w: Workload) -> None:
    w.add("smoke families", SETUP_ARGV, families_check)
    w.add_recorded("smoke companion", ("companion", "--family", "path:4",
                                       "--vertex", "v1"))
    w.add_recorded("smoke ode", ("ode", "--staircase", "4"))
    w.add("smoke gram", ("gram", "--laguerre", "4"), gram_identity(4))
    w.add("smoke nonstrict", ("nonstrict", "--family", "path:3",
                              "--max-size", "4"),
          nonstrict_table([lambda i: refs.nonstrict_path(3, i)], 4))
    w.add_recorded("smoke extremal", ("extremal", "--order", "4"),
                   extremal_max(4))


def build_count(w: Workload, rng: random.Random, work: Path) -> None:
    for n in (15, 17):
        w.add(f"count star:{n}", ("count", "--family", f"star:{n}"),
              integer(factorial(n - 1)))
        star_in = inputs.Digraph(n, tuple((v, 0) for v in range(1, n)))
        path = inputs.write_digraph(work / f"star_in_{n}.txt", star_in, "text")
        w.add(f"count star-reversed:{n}", ("count", "--file", path),
              integer(factorial(n - 1)))
    for n in (19, 22):
        w.add(f"count staircase:{n}", ("count", "--family", f"staircase:{n}",
                                       *BIG), integer(refs.zigzag(n)))
    for n1, n2 in ((9, 12), (28, 30)):
        w.add(f"count tworow:{n1},{n2}", ("count", "--family",
                                          f"tworow:{n1},{n2}", *BIG),
              integer(refs.ballot(n1, n2)))
    w.add_recorded("extremal 8", ("extremal", "--order", "8"), extremal_max(8))

    # random trees: two per state band, alternating orientation
    for k, exp in enumerate((13, 13, 14, 14, 15, 15)):
        parents, _ = inputs.random_tree(rng, *band(exp), (18, 30))
        d = inputs.tree_digraph(parents)
        if k % 2:
            d = d.reversed()
        d = inputs.relabel(d, rng)
        path = inputs.write_digraph(work / f"tree_{k}.json", d,
                                    "json" if k % 3 else "text")
        w.add(f"count tree {k}", ("count", "--file", path, *BIG),
              integer(refs.hook_length(parents)))

    # a random multi-component DAG, its reversal and its parts
    parts = [inputs.random_dag_in_band(rng, (14, 20), *band(exp))[0]
             for exp in (11, 12, 13)]
    union = inputs.relabel(inputs.disjoint_union(parts), rng)
    keys = []
    for name, d in (("union", union), ("reversed", union.reversed())):
        path = inputs.write_digraph(work / f"dag_{name}.txt", d, "text")
        keys.append(w.add(f"count dag {name}", ("count", "--file", path, *BIG),
                          _positive_int))
    for p, d in enumerate(parts):
        path = inputs.write_digraph(work / f"dag_part{p}.json",
                                    inputs.relabel(d, rng), "json")
        keys.append(w.add(f"count dag part {p}",
                          ("count", "--file", path, *BIG), _positive_int))
    w.cross_checks.append((tuple(keys), union_rule(
        keys[0], keys[1], keys[2:], [d.n for d in parts])))


def build_poly(w: Workload, rng: random.Random, work: Path) -> None:
    def companion_pair(label: str, source: tuple[str, ...], vertex: str,
                       dual: bool, recorded: bool) -> None:
        keys = []
        for route in ("counters", "recurrence"):
            key = f"companion {label} {route}" + (" dual" if dual else "")
            argv = ("companion", *source, "--vertex", vertex, "--route",
                    route, *(("--dual",) if dual else ()))
            keys.append(w.add_recorded(key, argv) if recorded
                        else w.add(key, argv, _nonempty))
        w.cross_checks.append((tuple(keys), all_equal))

    for n in (9, 11):
        companion_pair(f"staircase:{n}", ("--family", f"staircase:{n}"),
                       "v1", False, True)
    companion_pair("staircase:10", ("--family", "staircase:10"), "v2",
                   True, True)
    companion_pair("tworow:4,5", ("--family", "tworow:4,5"), "v2", False, True)
    for k in range(3):
        dual = k % 2 == 1
        d, v, _ = inputs.random_companion_input(rng, (9, 12), 6000, 7500,
                                                dual)
        path = inputs.write_digraph(work / f"dag_{k}.txt", d, "text")
        companion_pair(f"dag {k}", ("--file", str(path)), str(v), dual, False)

    for args in (("--staircase", "12"), ("--staircase", "15"),
                 ("--staircase", "18"),
                 ("--catalan", "8"), ("--tworow", "4,7", "--r", "3")):
        w.add_recorded("ode " + " ".join(args), ("ode", *args))
    w.add_recorded("gram --catalan 12", ("gram", "--catalan", "12"))
    w.add_recorded("paper-tables", ("paper-tables",))


def build_nonstrict(w: Workload, rng: random.Random, work: Path) -> None:
    for spec, size in (("staircase:8", 24), ("staircase:9", 16)):
        w.add_recorded(f"nonstrict {spec} {size}",
                       ("nonstrict", "--family", spec, "--max-size", size))
    closed = [("path:16", 40, lambda i: refs.nonstrict_path(16, i)),
              ("path:10", 30, lambda i: refs.nonstrict_path(10, i)),
              ("empty:6", 40, lambda i: refs.nonstrict_empty(6, i)),
              ("tworow:4,5", 30, lambda i: refs.nonstrict_two_row(4, 5, i)),
              ("tworow:3,7", 30, lambda i: refs.nonstrict_two_row(3, 7, i)),
              ("tworow:5,6", 30, lambda i: refs.nonstrict_two_row(5, 6, i))]
    for spec, size, ref in closed:
        w.add(f"nonstrict {spec} {size}",
              ("nonstrict", "--family", spec, "--max-size", size),
              nonstrict_table([ref], size))

    # random cyclic digraphs condensing to a fixed family, or to the disjoint
    # union of two, whose counter is the product; the seed varies the
    # clusters, the arcs and the labels, so the condensation does not
    # change the non-strict work from seed to seed
    for j, bases in enumerate(CYCLIC_BASES):
        blocks, factors = [], []
        for kind, size in bases:
            base, ref = condensed_base(kind, size)
            blocks.append(inputs.blow_up(base, rng, 3))
            factors.append(ref)
        d = inputs.relabel(inputs.disjoint_union(blocks), rng)
        fmt = "json" if j % 2 else "text"
        path = inputs.write_digraph(work / f"cyclic_{j}.{fmt}", d, fmt)
        w.add(f"nonstrict cyclic {j}",
              ("nonstrict", "--file", path, "--max-size", "28", *BIG),
              nonstrict_table([lambda i, fs=factors: prod(f(i) for f in fs)],
                              28))


# condensations of the cyclic inputs, at most 20 vertices each (the CLI's cap)
CYCLIC_BASES = (
    (("path", (16,)),), (("empty", (7,)),), (("tworow", (3, 6)),),
    (("path", (14,)),), (("empty", (6,)),), (("tworow", (3, 5)),),
    (("path", (12,)),), (("path", (8,)), ("tworow", (3, 5))),
    (("empty", (4,)), ("path", (12,))), (("tworow", (3, 6)), ("empty", (3,))),
)


def condensed_base(kind: str, size: tuple[int, ...]):
    """A path, an arcless digraph or a two-row grid, and its non-strict
    counter as a function of the size."""
    if kind == "path":
        k, = size
        return (inputs.Digraph(k, tuple((v, v + 1) for v in range(k - 1))),
                lambda i: refs.nonstrict_path(k, i))
    if kind == "empty":
        k, = size
        return inputs.Digraph(k, ()), lambda i: refs.nonstrict_empty(k, i)
    n1, n2 = size
    return (inputs.two_row_grid(n1, n2),
            lambda i: refs.nonstrict_two_row(n1, n2, i))


def band(exp: int) -> tuple[int, int]:
    """State-count band [2^exp, 1.25 * 2^exp) for a random input: narrow,
    so every seed asks for nearly the same kernel work."""
    return 2 ** exp, 2 ** exp * 5 // 4


def _json_object(out: str) -> dict:
    data = json.loads(out)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _positive_int(out: str) -> str | None:
    """Every DAG has at least one disposition."""
    if out.strip().isdigit() and int(out) > 0:
        return None
    return f"not a positive count: {out[:120]!r}"


def _nonempty(out: str) -> str | None:
    return None if out.strip() else "empty output"


BUILDERS = {"count": build_count, "poly": build_poly,
            "nonstrict": build_nonstrict}


def build(name: str, seed: int, work: Path,
          expected: dict[str, str] | None = None) -> Workload:
    """The job list of workload `name`; random inputs come from `seed` and
    are written under `work`."""
    if expected is None:
        expected = load_expected()
    w = Workload(name, expected)
    add_smoke(w)
    BUILDERS[name](w, random.Random(f"{name}:{seed}"), work)
    return w
