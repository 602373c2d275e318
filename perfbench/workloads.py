"""Workload inputs and the pass that drives rewindlab through them.

A workload is a fixed list of items (route cases, sweeps and probes).
``--seed`` sets the order the items run in, the Monte-Carlo seed of the
thread probe and the ``--seed`` passed to ``sweep``; it never changes
which items run, so every pass attempts the same operations.  Inputs that
a known fault or a 4-standard-error check depends on use fixed seeds, so
those operations pass or fail the same way on every run.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
from checks import Case

MODULES = ("circuits", "closedform", "cli", "errors", "noise", "oracle", "parallel", "pathcount", "statmech")

# Fixed seeds of the inputs whose outcome must not depend on --seed.
RANDOM_CHANNEL_SEED = 2301
PAIR_CHANNEL_SEED = 3725
MC_SEED = 90125

LEDGER_PAIR = "(a) arity-2 channel: routes ignore beta_u/beta_d and fix the recycled boundary at (1, 1)"
LEDGER_LOCAL = "(b) noisy local sum: recycled wire first meets a non-rewound gate, boundary never dressed"

ANALYTIC = ("closed", "wall", "sum")
NOISY_CONV = ("closed", "transfer", "sum", "twirl")
NOISY_OTHER = ("sum", "twirl")


def load_program(src: Path):
    """Import every rewindlab module from ``src``; refuse any other copy."""
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"rewindlab.{name}") for name in MODULES}
    package = sys.modules["rewindlab"]
    if Path(package.__file__).resolve().parent != (src / "rewindlab").resolve():
        raise ImportError(f"rewindlab imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class Sweep:
    """One in-process ``rewindlab sweep`` grid, written as CSV and as JSON."""

    sweep_id: str
    family: str
    qs: str
    ns: str
    ms: str
    target: int
    methods: tuple[str, ...]
    channel: str | None = None


@dataclass(frozen=True)
class ThreadsProbe:
    """A seeded Monte-Carlo case run with REWINDLAB_THREADS=1 and =2."""

    probe_id: str
    case: Case
    samples: int
    seed: int


def parse_range(text: str) -> list[int]:
    """The sweep command's grid syntax: ``a:b`` inclusive or a comma list."""
    if ":" in text:
        a, b = text.split(":", 1)
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def case(family, q, n, m, target, routes, channel=None, ledger=None, mc=()) -> Case:
    reference = None
    if channel in (None, "identity2"):
        reference = checks.reference_for(family, q, n, m, target)
    case_id = f"{family}-q{q}-n{n}-m{m}-t{target}" + (f"-{channel}" if channel else "")
    return Case(case_id, family, q, n, m, target, tuple(routes), channel, reference, ledger, tuple(mc))


def conv_targets(n: int) -> list[str]:
    """Every single, prefix and pair target over the idle qudits 1..n-1."""
    singles = [str(i) for i in range(1, n)]
    prefixes = [f"prefix:{k}" for k in range(1, n)]
    pairs = [f"pair:{i},{j}" for i in range(2, n) for j in range(1, i)]
    return singles + prefixes + pairs


def oracle_grid(seed: int) -> list:
    items = []
    for q, ns in ((2, (3, 4, 5)), (3, (3,))):
        for n in ns:
            for t in conv_targets(n):
                mc = ((4096, MC_SEED),) if (q, n, t) == (2, 5, "1") else ()
                items.append(case("conv", q, n, 1, t, ANALYTIC + ("transfer", "twirl"), mc=mc))
    items.append(case("conv", 2, 6, 1, "1", ANALYTIC + ("transfer", "twirl")))
    for n in (3, 4, 5):
        for m in (1, 2, 3):
            mc = ((4096, MC_SEED + 1),) if (n, m) == (4, 3) else ()
            items.append(case("hybrid", 2, n, m, "1", ANALYTIC + ("twirl",), mc=mc))
    for m in (2, 4, 6, 8, 10):
        mc = ((4096, MC_SEED + 2),) if m == 6 else ()
        items.append(case("local", 2, 4, m, "1", ANALYTIC + ("twirl",), mc=mc))
    # The noisy code paths at zero noise must give the noiseless value.
    items.append(case("conv", 2, 4, 1, "1", NOISY_CONV, "identity2", mc=((128, MC_SEED + 3),)))
    items.append(ThreadsProbe("threads-conv-q2-n5-tpair:4,2", case("conv", 2, 5, 1, "pair:4,2", ()), 8192, seed))
    items.append(Sweep("conv-q2,3-t2", "conv", "2,3", "3:16", "1", 2, ("closed", "wall", "sum", "transfer")))
    return items


def noisy_grid(seed: int) -> list:
    items = []
    for ch in ("dep2", "deph2", "ad2", "rand2"):
        for t in ("1", "2", "3"):
            mc = ((400, MC_SEED + 4),) if (ch, t) == ("ad2", "1") else ()
            items.append(case("conv", 2, 4, 1, t, NOISY_CONV, ch, mc=mc))
        mc = ((150, MC_SEED + 5),) if ch == "dep2" else ()
        items.append(case("conv", 2, 5, 1, "1", NOISY_CONV, ch, mc=mc))
        for n, m in ((4, 1), (4, 2), (5, 2)):
            items.append(case("hybrid", 2, n, m, "1", NOISY_OTHER, ch))
        for m in (2, 4, 6):
            for t in ("1", "2"):
                items.append(case("local", 2, 4, m, t, NOISY_OTHER, ch))
        items.append(case("local", 2, 4, 4, "3", NOISY_OTHER, ch, ledger=LEDGER_LOCAL))
    items.append(case("conv", 3, 3, 1, "1", NOISY_CONV, "dep3"))
    items.append(case("conv", 2, 4, 1, "1", NOISY_CONV, "pair2", ledger=LEDGER_PAIR))
    items.append(case("hybrid", 2, 4, 2, "1", NOISY_OTHER, "pair2", ledger=LEDGER_PAIR))
    # Noise-free baselines of the same shapes.
    items.append(case("conv", 2, 4, 1, "1", ANALYTIC + ("transfer", "twirl"), mc=((4096, MC_SEED + 6),)))
    items.append(case("hybrid", 2, 4, 2, "1", ANALYTIC + ("twirl",)))
    items.append(case("local", 2, 4, 4, "1", ANALYTIC + ("twirl",)))
    items.append(Sweep("conv-q2-dep2", "conv", "2", "3:20", "1", 1, ("closed", "transfer", "sum"), "dep2"))
    return items


def formula_curves(seed: int) -> list:
    items = [
        Sweep("hybrid-q2,3", "hybrid", "2,3", "3:24", "1:7", 1, ("closed",)),
        Sweep("local-q2,3", "local", "2,3", "3:24", "1:20", 1, ("closed",)),
        Sweep("conv-q2,3,5", "conv", "2,3,5", "3:200", "1", 1, ("closed",)),
        Sweep("conv-q2-dep2", "conv", "2", "3:200", "1", 1, ("closed", "transfer"), "dep2"),
        # Exhaustive and single-wall sums on 18-20 node lattices.
        case("hybrid", 2, 6, 5, "1", ANALYTIC),
        case("local", 2, 8, 6, "1", ANALYTIC),
        case("hybrid", 3, 4, 10, "1", ANALYTIC),
        # Monte-Carlo spot checks of the formulas past the twirl's reach.
        case("conv", 2, 8, 1, "1", ("closed", "transfer"), mc=((2048, MC_SEED + 7),)),
        case("hybrid", 2, 7, 2, "1", ("closed",), mc=((2048, MC_SEED + 8),)),
        # Each curve anchored to the twirl at its smallest size.
        case("conv", 2, 3, 1, "1", ("closed", "transfer", "twirl")),
        case("hybrid", 2, 3, 2, "1", ("closed", "twirl")),
        case("local", 2, 4, 2, "1", ("closed", "twirl")),
        case("conv", 2, 3, 1, "1", ("closed", "transfer", "twirl"), "dep2", mc=((400, MC_SEED + 9),)),
    ]
    return items


WORKLOADS = {"oracle_grid": oracle_grid, "noisy_grid": noisy_grid, "formula_curves": formula_curves}


def build_channels(program, names) -> dict:
    """Kraus sets by name; the random ones come from fixed seeds."""
    import numpy as np

    noise, oracle = program.noise, program.oracle
    makers = {
        "identity2": lambda: noise.identity_channel(2),
        "dep2": lambda: noise.depolarizing(2, 0.05),
        "deph2": lambda: noise.dephasing(2, 0.05),
        "ad2": lambda: noise.amplitude_damping(2, 0.05),
        "rand2": lambda: noise.random_channel(2, 2, np.random.default_rng(RANDOM_CHANNEL_SEED)),
        "dep3": lambda: noise.depolarizing(3, 0.05),
        "pair2": lambda: noise.KrausChannel(
            (
                np.sqrt(0.95) * np.eye(4),
                np.sqrt(0.05) * oracle.haar_unitary(4, np.random.default_rng(PAIR_CHANNEL_SEED)),
            ),
            arity=2,
        ),
    }
    return {name: makers[name]() for name in names}


@dataclass
class Workload:
    seed: int
    items: list
    inputs: dict  # case id -> (CircuitShape, RecycleTarget)
    channels: dict
    channel_files: dict
    out_dir: Path


def _item_case(item) -> Case | None:
    """The circuit instance an item runs on; sweeps have none."""
    if isinstance(item, ThreadsProbe):
        return item.case
    return item if isinstance(item, Case) else None


def build(name: str, seed: int, program, out_dir: Path) -> Workload:
    """Shapes, targets and Kraus sets of one workload, items in seed order."""
    items = WORKLOADS[name](seed)
    random.Random(seed).shuffle(items)
    inputs = {}
    for item in items:
        c = _item_case(item)
        if c is not None:
            shape = program.circuits.CircuitShape(program.circuits.Family(c.family), c.n, c.m, c.q)
            inputs[c.case_id] = (shape, program.circuits.RecycleTarget.parse(c.target))
    names = {i.channel for i in items if isinstance(i, (Case, Sweep)) and i.channel}
    channels = build_channels(program, sorted(names))
    channel_files = {}
    for sweep in (i for i in items if isinstance(i, Sweep) and i.channel):
        path = out_dir / f"{sweep.channel}.json"
        path.write_text(channels[sweep.channel].to_json())
        channel_files[sweep.channel] = path
    return Workload(seed, items, inputs, channels, channel_files, out_dir)


@dataclass
class PassRecord:
    program_s: float = 0.0
    item_s: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # (label, ok, ledger, detail)
    mc_samples: int = 0
    mc_s: float = 0.0
    sweep_rows: int = 0
    sweep_s: float = 0.0


class Runner:
    """Runs the items of one workload and judges every output."""

    def __init__(self, program, workload: Workload, tracer):
        self.p = program
        self.w = workload
        self.tracer = tracer
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def clear_caches(self) -> None:
        """Empty the closed-form caches, as a fresh process has them, after counting their use."""
        for name, owner, attr in (
            ("closedform.seg_count", self.p.closedform, "_seg_count"),
            ("pathcount.relaxed_cache", self.p.pathcount, "_relaxed_cached"),
        ):
            cache = getattr(owner, attr, None)
            if hasattr(cache, "cache_info"):
                info = cache.cache_info()
                self.tracer.count(name, "hits", info.hits)
                self.tracer.count(name, "misses", info.misses)
                cache.cache_clear()

    def run_pass(self, index: int) -> PassRecord:
        rec = PassRecord()
        self.clear_caches()
        for item in self.w.items:
            item_id = item.sweep_id if isinstance(item, Sweep) else _item_case(item).case_id
            self.tracer.case = f"{index}:{item_id}"
            before = rec.program_s
            with self.tracer.span("case"):
                if isinstance(item, Sweep):
                    self.run_sweep(rec, item)
                elif isinstance(item, ThreadsProbe):
                    self.run_threads_probe(rec, item)
                else:
                    self.run_case(rec, item)
            rec.item_s.append(rec.program_s - before)
        self.clear_caches()
        return rec

    def timed(self, rec: PassRecord, fn, *args, **kwargs):
        """Call into the program; returns (result or the exception raised, seconds)."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation's failure is recorded, not fatal
            result = exc
        elapsed = time.perf_counter() - start
        rec.program_s += elapsed
        return result, elapsed

    def route(self, route, c: Case, layout, lattice, stats, channel):
        """One route, called the way the ``rewindlab`` commands call it."""
        p = self.p
        target = self.w.inputs[c.case_id][1]
        for prerequisite in (layout, lattice, stats):
            if isinstance(prerequisite, Exception):
                raise prerequisite
        if route == "closed":
            if stats is not None:
                return p.closedform.noisy_conv_fidelity(
                    c.q, c.n, stats.alpha, stats.beta, target, stats.recycled_boundary
                )
            if c.family == "conv":
                return p.closedform.conv_fidelity(c.q, c.n, target)
            if c.family == "hybrid":
                return p.closedform.hybrid_fidelity(c.q, c.n, c.m)
            return p.closedform.local_fidelity(c.q, c.n, c.m)
        if route == "wall":
            return p.statmech.single_wall_fidelity(lattice)
        if route == "sum":
            rule = None
            if stats is not None:
                rule = p.statmech.TrivalentRule(
                    c.q, alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary
                )
            return p.statmech.partition_sum_exhaustive(lattice, rule)
        if route == "transfer":
            if stats is None:
                return p.statmech.transfer_fidelity(c.q, c.n, target)
            return p.statmech.transfer_fidelity(
                c.q, c.n, target, stats.alpha, stats.beta, stats.recycled_boundary
            )
        if route == "twirl":
            return p.oracle.exact_twirl_fidelity(layout, target, channel=channel)
        raise ValueError(f"unknown route {route!r}")

    def run_case(self, rec: PassRecord, c: Case) -> None:
        shape, target = self.w.inputs[c.case_id]
        channel = self.w.channels.get(c.channel)
        stats = lattice = None
        if channel is not None:
            stats, _ = self.timed(rec, self.p.noise.channel_stats, channel)
        layout, _ = self.timed(rec, self.p.circuits.protocol_layout, shape, target)
        if "wall" in c.routes or "sum" in c.routes:
            lattice, _ = self.timed(rec, self.p.statmech.lattice_from_circuit, layout, target)
        outcomes = {}
        for route in c.routes:
            result, _ = self.timed(rec, self.route, route, c, layout, lattice, stats, channel)
            outcomes[route] = result if isinstance(result, Exception) else result.value
        verdict = checks.judge_case(c, outcomes, self.p.errors.RewindlabError)
        for route in c.routes:
            rec.ops.append((f"{c.case_id}/{route}", verdict[route], c.ledger, repr(outcomes[route])))
        reference = checks.mc_reference(c, outcomes)
        for samples, seed in c.mc:
            result, elapsed = self.timed(
                rec, self.p.oracle.mc_average_fidelity, layout, target, channel=channel, samples=samples, rng=seed
            )
            rec.mc_samples += samples
            rec.mc_s += elapsed
            ok = not isinstance(result, Exception) and checks.judge_mc(result.value, result.stderr, reference)
            detail = repr(result) if isinstance(result, Exception) else f"{result.value} +/- {result.stderr} vs {reference}"
            rec.ops.append((f"{c.case_id}/mc{samples}", ok, None, detail))

    def run_threads_probe(self, rec: PassRecord, probe: ThreadsProbe) -> None:
        shape, target = self.w.inputs[probe.case.case_id]
        layout, _ = self.timed(rec, self.p.circuits.protocol_layout, shape, target)
        results = []
        for threads in (1, self.threads):
            os.environ["REWINDLAB_THREADS"] = str(threads)
            try:
                result, elapsed = self.timed(
                    rec, self.p.oracle.mc_average_fidelity, layout, target, samples=probe.samples, rng=probe.seed
                )
            finally:
                del os.environ["REWINDLAB_THREADS"]
            rec.mc_samples += probe.samples
            rec.mc_s += elapsed
            results.append(result)
        a, b = results
        ok = not isinstance(a, Exception) and not isinstance(b, Exception)
        ok = ok and (a.value, a.stderr) == (b.value, b.stderr)
        rec.ops.append((f"{probe.probe_id}/bit-identical", ok, None, repr(results)))

    def run_sweep(self, rec: PassRecord, s: Sweep) -> None:
        rows = {}
        for fmt in ("csv", "json"):
            self.clear_caches()  # each sweep starts cold, as a fresh process
            path = self.w.out_dir / f"{s.sweep_id}.{fmt}"
            args = [
                "sweep", "--family", s.family, "--q", s.qs, "--n", s.ns, "--m", s.ms,
                "--target", str(s.target), "--method", ",".join(s.methods),
                "--seed", str(self.w.seed), "--output", str(path), "--format", fmt,
            ]
            if s.channel:
                args += ["--channel", str(self.w.channel_files[s.channel])]
            printed = io.StringIO()
            self.tracer.count("cli.sweep", "calls")
            start = time.perf_counter()
            with self.tracer.span("cli.sweep"), contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                try:
                    self.p.cli.main.main(args, standalone_mode=False)
                    status = 0
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # reported as a failed sweep
                    status = repr(exc)
            elapsed = time.perf_counter() - start
            rec.program_s += elapsed
            rows[fmt] = []
            if status == 0 and path.exists():
                with open(path, newline="") as fh:
                    rows[fmt] = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
                self.tracer.count("cli.sweep", "rows", len(rows[fmt]))
                self.tracer.count("cli.sweep", "bytes", path.stat().st_size)
            rec.sweep_rows += len(rows[fmt])
            rec.sweep_s += elapsed
            ok = status == 0 and f"wrote {len(rows[fmt])} rows" in printed.getvalue()
            rec.ops.append((f"{s.sweep_id}/{fmt}", ok, None, f"status {status}: {printed.getvalue().strip()}"))

        expected = checks.expected_points(
            s.family, parse_range(s.qs), parse_range(s.ns), parse_range(s.ms), s.target, s.methods
        )
        rec.ops.append((f"{s.sweep_id}/csv=json", checks.csv_json_agree(rows["csv"], rows["json"]), None, ""))
        rec.ops.append((f"{s.sweep_id}/one-row-per-point", checks.rows_match_grid(rows["csv"], expected), None,
                        f"{len(rows['csv'])} rows, {len(expected)} expected"))
        problems = checks.check_sweep_values(s.family, rows["csv"], s.target, noisy=s.channel is not None)
        ok = bool(rows["csv"]) and not problems
        rec.ops.append((f"{s.sweep_id}/values", ok, None, "; ".join(problems[:3])))
