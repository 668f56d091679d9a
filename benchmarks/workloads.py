"""The benchmark's workloads: inputs built in set-up, one pass, and the check.

Each workload is closed-loop and single-process: the harness starts the next
pass only after the previous one has finished and been checked.  A pass
returns the program's outputs; :meth:`Workload.check` compares them with the
reference recorded from the seed commit for the default seed, and with the
workload's invariants for every seed.
"""
from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import pathlib
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from netspread import (
    LinkProbs,
    MfState,
    NodeParams,
    OdeParams,
    OdeState,
    Trajectory,
    experiments,
    gen_powerlaw,
    greedy_edge_removal,
    integrate,
    mc_ensemble,
    meanfield_run,
    reproduce_figures,
    save_edge_list,
    survivability_score,
)
from netspread import montecarlo
from netspread.meanfield import bound_violations

DEFAULT_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Floats match when |value - reference| <= ATOL + RTOL * |reference|.
# Integers, strings and error presence must match exactly.
RTOL = 1e-8
ATOL = 1e-12


@dataclass
class Verdict:
    """Checked outcome of one pass: operations attempted and failed, plus
    counters that only the check can see (files written, identical files)."""

    attempted: int
    failed: int
    counts: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def close(value, reference) -> bool:
    if value is None or reference is None:
        return value is None and reference is None
    return math.isclose(float(value), float(reference), rel_tol=RTOL, abs_tol=ATOL)


def all_close(values, references) -> bool:
    return len(values) == len(references) and all(map(close, values, references))


def _cell_matches(cell: str, ref: str) -> bool:
    if cell == ref:
        return True
    try:
        return int(cell) == int(ref)
    except ValueError:
        pass
    try:
        return close(float(cell), float(ref))
    except ValueError:
        return False


def text_matches(text: str | None, ref: str) -> bool:
    """Compare two CSV or edge-list texts cell by cell (commas or spaces)."""
    if text is None:
        return False
    if text == ref:
        return True
    rows, ref_rows = text.splitlines(), ref.splitlines()
    if len(rows) != len(ref_rows):
        return False
    for row, ref_row in zip(rows, ref_rows):
        cells, ref_cells = row.replace(",", " ").split(), ref_row.replace(",", " ").split()
        if len(cells) != len(ref_cells) or not all(map(_cell_matches, cells, ref_cells)):
            return False
    return True


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def identical_files(files: dict[str, bytes], reference: dict | None) -> int:
    if reference is None:
        return 0
    return sum(
        1 for rel, digest in reference["sha256"].items()
        if rel in files and sha256(files[rel]) == digest
    )


def reference_path(key: str) -> Path:
    return REFERENCE_DIR / f"{key}.json.gz"


def load_reference(key: str) -> dict | None:
    path = reference_path(key)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(key: str, data: dict) -> Path:
    path = reference_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the file byte-identical across regenerations.
    path.write_bytes(gzip.compress(raw, compresslevel=9, mtime=0))
    return path


def _attempt(tr, span: str, thunk):
    """Run one operation; an exception is returned (and logged), not raised."""
    with tr.span(span):
        try:
            return thunk()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            return exc


def warm_up() -> None:
    """Run every layer once at a tiny size so first-call costs fall in set-up."""
    g = gen_powerlaw(200, 3, 0)
    links = LinkProbs.homogeneous(g, 0.1)
    directed = LinkProbs.from_mapping(g, {(0, 1): 0.1}, symmetric=False)
    directed.in_values
    params = NodeParams.homogeneous(g.n, r=1.0, delta=0.3, gamma=0.3)
    survivability_score(g, links, params)
    run = meanfield_run("sis", MfState.uniform(g.n, p0=0.1), links, params, max_steps=5)
    run.trajectory.write_csv(io.StringIO())
    mc_ensemble(g, links, params, init=0.1, steps=5, runs=1, seed=0).write_csv(io.StringIO())
    greedy_edge_removal(g, 2, beta_template=0.1, params=params)
    integrate("sis", OdeState(s=0.99, i=0.01), OdeParams(beta=1.0, gamma=0.1),
              dt=0.1, t_end=1.0)
    save_edge_list(g, io.StringIO())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def no_lap() -> None:
    """Default ``lap`` for :meth:`Workload.run_pass`: no split."""


class Workload:
    """Base: ``ops`` operations per pass; subclasses build inputs in
    ``__init__`` (set-up), run them in :meth:`run_pass` and judge them in
    :meth:`check`.  ``run_pass`` may call ``lap()`` between the steps of a
    long pass, where the harness times its speed kernel (see ``speed.py``)."""

    name = ""
    ops = 1
    kernel = ""  # the speed.KERNELS entry that does the kind of work a pass does

    def __init__(self, seed: int, scale: str, reference: dict | None):
        self.seed = seed
        self.reference = reference

    @classmethod
    def reference_key(cls, seed: int, scale: str) -> str:
        return f"{cls.name}-{scale}-seed{seed}"

    def run_pass(self, tr, workdir: Path, lap=no_lap):
        raise NotImplementedError

    def check(self, out, workdir: Path) -> Verdict:
        raise NotImplementedError

    def snapshot(self, out, workdir: Path) -> dict:
        """The reference record of one pass's outputs."""
        raise NotImplementedError


@contextmanager
def _traced_experiments(tr):
    """Wrap the names ``netspread.experiments`` looks up at call time, plus
    ``Trajectory.write_csv`` and the manifest/summary ``Path.write_text``."""
    saved_module = {
        name: getattr(experiments, name)
        for name in ("meanfield_run", "survivability_score", "integrate",
                     "save_edge_list", "gen_powerlaw", "gen_lattice4",
                     "run_experiment")
    }
    saved_write_csv = Trajectory.write_csv
    saved_write_text = pathlib.Path.write_text

    def spanned(span, fn, after=None):
        def wrapper(*args, **kwargs):
            with tr.span(span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def meanfield_run_traced(model, state0, *args, **kwargs):
        with tr.span("meanfield.run") as sp:
            try:
                result = saved_module["meanfield_run"](model, state0, *args, **kwargs)
            except Exception:
                tr.add("meanfield.failed_runs", 1)
                raise
        tr.add("meanfield.steps", result.steps)
        tr.add("meanfield.node_steps", state0.n * result.steps)
        tr.add("meanfield.ok_s", sp.duration)
        tr.add("meanfield.violations", len(result.violations))
        return result

    def write_text_traced(self, *args, **kwargs):
        # Only the manifest and summary writes made by experiments itself;
        # writes inside other spans belong to those spans.
        if tr.innermost in ("experiments.sweep", "experiments.figures"):
            with tr.span("experiments.write"):
                return saved_write_text(self, *args, **kwargs)
        return saved_write_text(self, *args, **kwargs)

    replacements = {
        "meanfield_run": meanfield_run_traced,
        "survivability_score": spanned(
            "spectral.score", saved_module["survivability_score"],
            lambda r: tr.add("spectral.scores", 1)),
        "integrate": spanned(
            "ode.integrate", saved_module["integrate"],
            lambda traj: tr.add("ode.steps", len(traj) - 1)),
        "save_edge_list": spanned("graphs.save", saved_module["save_edge_list"]),
        "gen_powerlaw": spanned(
            "graphs.generate", saved_module["gen_powerlaw"],
            lambda g: tr.add("graphs.edges", g.num_edges)),
        "gen_lattice4": spanned(
            "graphs.generate", saved_module["gen_lattice4"],
            lambda g: tr.add("graphs.edges", g.num_edges)),
        "run_experiment": spanned("experiments.sweep", saved_module["run_experiment"]),
    }
    try:
        for name, fn in replacements.items():
            setattr(experiments, name, fn)
        Trajectory.write_csv = spanned("experiments.write", saved_write_csv)
        pathlib.Path.write_text = write_text_traced
        yield
    finally:
        for name, fn in saved_module.items():
            setattr(experiments, name, fn)
        Trajectory.write_csv = saved_write_csv
        pathlib.Path.write_text = saved_write_text


@contextmanager
def _lap_after(module, name: str, lap):
    """Call ``lap`` after each call of ``module.name``, a function the
    program looks up at call time (so the wrapper is what it calls)."""
    saved = getattr(module, name)

    def wrapper(*args, **kwargs):
        try:
            return saved(*args, **kwargs)
        finally:
            lap()

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, saved)


class Figures(Workload):
    """``reproduce_figures`` into a fresh directory.  Its configs fix seed 42,
    so this workload ignores the seed argument and always has a reference."""

    name = "figures"
    kernel = "small_calls"

    def __init__(self, seed, scale, reference):
        super().__init__(seed, scale, reference)
        if reference is not None:  # None only while recording the reference
            self.ops = sum(len(pts) for pts in reference["points"].values())

    @classmethod
    def reference_key(cls, seed, scale):
        return cls.name

    def run_pass(self, tr, workdir, lap=no_lap):
        hooks = (_traced_experiments(tr) if tr.enabled
                 else _lap_after(experiments, "run_experiment", lap))
        with hooks, tr.span("experiments.figures"):
            return reproduce_figures(workdir)

    def snapshot(self, results, workdir):
        files = read_tree(workdir)
        return {
            "sha256": {rel: sha256(data) for rel, data in files.items()},
            "texts": {
                rel: data.decode("utf-8") for rel, data in files.items()
                if rel.endswith((".csv", ".edges")) and rel != "summary.csv"
            },
            "points": {
                fig: [
                    {"file": p.file, "score": p.score, "error": p.error is not None}
                    for p in res.points
                ]
                for fig, res in results.items()
            },
        }

    def check(self, results, workdir):
        files = read_tree(workdir)
        ref = self.reference
        texts = {rel: data.decode("utf-8") for rel, data in files.items()}
        attempted = failed = points = errors = 0
        for fig in sorted(set(ref["points"]) | set(results)):
            ref_points = ref["points"].get(fig, [])
            got = results[fig].points if fig in results else []
            graph = f"{fig}/graph.edges"
            graph_ok = graph not in ref["texts"] or text_matches(
                texts.get(graph), ref["texts"][graph])
            for k in range(max(len(ref_points), len(got))):
                attempted += 1
                if k >= len(got) or k >= len(ref_points):
                    failed += 1
                    continue
                point, rp = got[k], ref_points[k]
                points += 1
                errors += point.error is not None
                ok = (
                    graph_ok
                    and (point.error is not None) == rp["error"]
                    and point.file == rp["file"]
                    and close(point.score, rp["score"])
                    and (point.file is None or text_matches(
                        texts.get(f"{fig}/{point.file}"),
                        ref["texts"][f"{fig}/{rp['file']}"]))
                )
                failed += not ok
        return Verdict(attempted, failed, {
            "experiments.points": points,
            "experiments.point_errors": errors,
            "experiments.bytes_written": sum(len(d) for d in files.values()),
            "experiments.identical_files": identical_files(files, ref),
        })


class McEnsemble(Workload):
    """``mc_ensemble`` plus ``EnsembleResult.write_csv`` on a power-law graph
    built in set-up; supercritical (s ~ 1.9), so many nodes broadcast."""

    name = "mc_ensemble"
    kernel = "small_calls"
    SIZES = {"full": (10_000, 100, 8), "tiny": (500, 20, 2)}  # n, steps, runs

    def __init__(self, seed, scale, reference):
        super().__init__(seed, scale, reference)
        n, self.steps, self.runs = self.SIZES[scale]
        self.graph = gen_powerlaw(n, 3, seed)
        self.graph.csr
        self.links = LinkProbs.homogeneous(self.graph, 0.1)
        self.links.out_values
        self.params = NodeParams.homogeneous(n, r=1.0, delta=0.1, gamma=0.1)

    def run_pass(self, tr, workdir, lap=no_lap):
        with tr.span("montecarlo.ensemble"), _lap_after(montecarlo, "mc_run", lap):
            ensemble = mc_ensemble(
                self.graph, self.links, self.params,
                init=0.1, steps=self.steps, runs=self.runs, seed=self.seed,
            )
        with tr.span("montecarlo.write"):
            ensemble.write_csv(workdir / "ensemble.csv")
        tr.add("graphs.edges", self.graph.num_edges)
        tr.add("montecarlo.node_steps", self.graph.n * self.steps * self.runs)
        return ensemble

    def snapshot(self, ensemble, workdir):
        files = read_tree(workdir)
        return {
            "sha256": {rel: sha256(data) for rel, data in files.items()},
            "texts": {rel: data.decode("utf-8") for rel, data in files.items()},
        }

    def _invariants_hold(self, text: str) -> bool:
        rows = [row.split(",") for row in text.splitlines()[1:]]
        try:
            table = np.array(rows, dtype=float)
        except ValueError:  # ragged or non-numeric rows
            return False
        if table.shape != (self.steps + 1, 6):
            return False
        means, std = table[:, 1:5], table[:, 5]
        return bool(
            np.all(np.isfinite(table))
            and np.array_equal(table[:, 0], np.arange(self.steps + 1))
            and np.all((means >= 0.0) & (means <= 1.0))
            and np.allclose(means.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
            and np.all(std >= 0.0)
        )

    def check(self, ensemble, workdir):
        files = read_tree(workdir)
        text = files.get("ensemble.csv", b"").decode("utf-8")
        ok = bool(text) and self._invariants_hold(text)
        if self.reference is not None:
            ok = ok and text_matches(text, self.reference["texts"]["ensemble.csv"])
        return Verdict(1, int(not ok), {
            "experiments.bytes_written": sum(len(d) for d in files.values()),
            "experiments.identical_files": identical_files(files, self.reference),
        })


class Containment(Workload):
    """Does it die out, and what do we cut: graph, link tables, two scores,
    a strict mean-field run and greedy edge removal, all in one pass.

    The 10^5-node graph always uses ``GRAPH_SEED``: its power-iteration count
    depends on the gap between the two leading eigenvalues, which varies
    several-fold between seeds and would swamp every other change in a
    seed-to-seed comparison.  The seed argument draws the directed link
    probabilities and the graph that greedy removal works on.
    """

    name = "containment"
    kernel = "large_arrays"
    ops = 4  # two scores, one mean-field run, one isolation call
    GRAPH_SEED = 7
    SIZES = {"full": (100_000, 200, 5_000, 30), "tiny": (2_000, 20, 300, 5)}
    SCORE_TOL = 1e-10  # survivability_score's default convergence tolerance

    def __init__(self, seed, scale, reference):
        super().__init__(seed, scale, reference)
        self.n, self.mf_steps, self.greedy_n, self.k = self.SIZES[scale]

    def run_pass(self, tr, workdir, lap=no_lap):
        with tr.span("graphs.generate"):
            g = gen_powerlaw(self.n, 3, self.GRAPH_SEED)
        with tr.span("graphs.csr"):
            indptr, indices = g.csr
        lap()
        with tr.span("bench.inputs"):
            rng = np.random.default_rng(self.seed)
            beta = rng.uniform(0.01, 0.03, size=len(indices))
            dst = np.repeat(np.arange(g.n), np.diff(indptr))
            mapping = dict(zip(zip(indices.tolist(), dst.tolist()), beta.tolist()))
            params = NodeParams.homogeneous(g.n, r=1.0, delta=0.05, gamma=0.3)
        with tr.span("meanfield.links"):
            links = LinkProbs.homogeneous(g, 0.02)
            links.in_values
        lap()
        with tr.span("meanfield.links_directed"):
            directed = LinkProbs.from_mapping(g, mapping, symmetric=False)
            directed.in_values
        lap()
        out = {"score": _attempt(tr, "spectral.score",
                                 lambda: survivability_score(g, links, params))}
        lap()
        out["score_directed"] = _attempt(tr, "spectral.score_directed",
                                         lambda: survivability_score(g, directed, params))
        lap()
        start = perf_counter()
        out["meanfield"] = _attempt(tr, "meanfield.run", lambda: meanfield_run(
            "sis", MfState.uniform(g.n, p0=0.01), links, params,
            max_steps=self.mf_steps, tol=0.0))
        meanfield_s = perf_counter() - start
        lap()
        with tr.span("graphs.generate"):
            g2 = gen_powerlaw(self.greedy_n, 3, self.seed)
        with tr.span("bench.inputs"):
            params2 = NodeParams.homogeneous(g2.n, r=1.0, delta=0.3, gamma=0.3)
        out["greedy"] = _attempt(tr, "isolation.greedy", lambda: greedy_edge_removal(
            g2, self.k, beta_template=0.1, params=params2))

        tr.add("graphs.edges", g.num_edges + g2.num_edges)
        scores = [out["score"], out["score_directed"]]
        tr.add("spectral.scores", sum(not isinstance(s, Exception) for s in scores))
        run = out["meanfield"]
        if not isinstance(run, Exception):
            tr.add("meanfield.steps", run.steps)
            tr.add("meanfield.node_steps", g.n * run.steps)
            tr.add("meanfield.violations", len(run.violations))
            tr.add("meanfield.ok_s", meanfield_s)
        else:
            tr.add("meanfield.failed_runs", 1)
        greedy = out["greedy"]
        if not isinstance(greedy, Exception):
            report = greedy[1]
            tr.add("isolation.eigensolves", len(report.lambda1_steps) + 2)
            tr.add("isolation.edges_removed", report.edges_removed)
        with tr.span("bench.inputs"):
            # Freeing the 10^5-node graph and link tables takes ~0.1 s;
            # without this span it would fall outside every layer.
            del g, g2, mapping, links, directed
        return out

    def snapshot(self, out, workdir):
        report = out["greedy"][1]
        return {
            "score": out["score"].score,
            "score_directed": out["score_directed"].score,
            "carriers": out["meanfield"].trajectory.columns["carriers"].tolist(),
            "removed_edges": [list(e) for e in report.removed_edges],
            "lambda1_steps": list(report.lambda1_steps),
        }

    def _score_ok(self, result, ref) -> bool:
        return (
            not isinstance(result, Exception)
            and math.isfinite(result.score)
            and result.residual < self.SCORE_TOL
            and (ref is None or close(result.score, ref))
        )

    def _meanfield_ok(self, run, ref) -> bool:
        if isinstance(run, Exception):
            return False
        carriers = run.trajectory.columns["carriers"]
        return (
            run.steps == self.mf_steps
            and not run.violations
            and not bound_violations(run.final_state)
            and bool(np.all(np.isfinite(carriers)))
            and (ref is None or all_close(carriers.tolist(), ref))
        )

    def _greedy_ok(self, greedy, ref) -> bool:
        if isinstance(greedy, Exception):
            return False
        report = greedy[1]
        return (
            report.edges_removed == self.k
            and report.lambda1_after <= report.lambda1_before
            and (ref is None or (
                [list(e) for e in report.removed_edges] == ref["removed_edges"]
                and all_close(report.lambda1_steps, ref["lambda1_steps"])
            ))
        )

    def check(self, out, workdir):
        ref = self.reference or {}
        ok = [
            self._score_ok(out["score"], ref.get("score")),
            self._score_ok(out["score_directed"], ref.get("score_directed")),
            self._meanfield_ok(out["meanfield"], ref.get("carriers")),
            self._greedy_ok(out["greedy"], self.reference),
        ]
        return Verdict(len(ok), ok.count(False))


WORKLOADS = {w.name: w for w in (Figures, McEnsemble, Containment)}


def setup(name: str, seed: int, scale: str, reference: dict | None = None) -> Workload:
    """Build a workload's inputs and warm every layer up.

    ``reference`` defaults to the recorded one for this seed and scale, if any.
    """
    cls = WORKLOADS[name]
    key = cls.reference_key(seed, scale)
    if reference is None:
        reference = load_reference(key)
    if reference is None and cls is Figures:
        raise FileNotFoundError(f"missing reference {reference_path(key)}")
    workload = cls(seed, scale, reference)
    warm_up()
    return workload
