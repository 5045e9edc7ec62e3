"""Retrieval effectiveness: precision/recall and the shipped fixture run.

The fixture corpus (f1) is a single two-scene song annotated so that five
canonical queries have known relevant sets. Three behaviors give the run
its shape: occurrence-level pairing of dancer+step conjunctions, laterality
loss on body-part lookups (a "left eye" query also finds right-eye step
shots), and reflexion synonym expansion (a "romantic" query also picks up a
"joy" shot). Percentages are exact in the report object; the textual table
truncates to two decimals.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

from .engine import IndexedEngine, SequentialScanEngine
from .model import Corpus, loads_corpus
from .qlang import parse_query
from .vocab import FIXTURE_NAMES


def precision_recall(retrieved: set[str], relevant: set[str]) -> tuple[float, float]:
    """Percent precision and recall of a retrieved set against a relevant set.

    relevant must be non-empty (recall is undefined otherwise). An empty
    retrieved set scores (0, 0); report rows expose the retrieved count so
    that case stays visible.
    """
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    if not retrieved:
        return 0.0, 0.0
    hits = len(set(retrieved) & set(relevant))
    return 100.0 * hits / len(retrieved), 100.0 * hits / len(relevant)


@dataclass(frozen=True)
class EvalRow:
    label: str
    query_text: str
    retrieved_count: int
    relevant_count: int
    precision: float
    recall: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]

    @property
    def mean_precision(self) -> float:
        return sum(r.precision for r in self.rows) / len(self.rows)

    @property
    def mean_recall(self) -> float:
        return sum(r.recall for r in self.rows) / len(self.rows)


# The five fixture queries with their declared relevant shot sets.
FIXTURE_QUERIES: tuple[tuple[str, str, frozenset[str]], ...] = (
    (
        "Q1",
        'find shots where dancer = "Anitha" and step = "Samathristy"',
        frozenset({"sh2"}),
    ),
    (
        "Q2",
        'find shots where dancer = "Lisa" and body_part = "left eye"',
        frozenset({"sh3"}),
    ),
    (
        "Q3",
        'find shots where dancer = "Anitha" and step = "Alapadma"',
        frozenset({"sh5", "sh6"}),
    ),
    (
        "Q4",
        'find shots where background = "temple"',
        frozenset({"sh1", "sh2", "sh3", "sh4", "sh5", "sh6", "sh7", "sh8", "sh9"}),
    ),
    (
        "Q5",
        'find shots where reflexion = "romantic"',
        frozenset({"sh2", "sh5"}),
    ),
)


def load_fixture(name: str = "f1") -> Corpus:
    """Load a corpus shipped with the package."""
    if name not in FIXTURE_NAMES:
        raise FileNotFoundError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    resource = importlib.resources.files("dvcm").joinpath(f"fixtures/{name}.json")
    return loads_corpus(resource.read_text(encoding="utf-8"))


def run_fixture_eval(corpus: Corpus | None = None) -> EvalReport:
    """Execute the five fixture queries and score them.

    Runs each query through both engines, insisting they agree, and scores
    the shared result against the declared relevant set.
    """
    if corpus is None:
        corpus = load_fixture("f1")
    seq = SequentialScanEngine(corpus)
    indexed = IndexedEngine(corpus)
    rows = []
    for label, text, relevant in FIXTURE_QUERIES:
        query = parse_query(text)
        from_scan = seq.execute(query)
        from_index = indexed.execute(query)
        if from_scan != from_index:
            raise AssertionError(
                f"{label}: engines disagree ({from_scan} vs {from_index})"
            )
        retrieved = set(from_index)
        precision, recall = precision_recall(retrieved, set(relevant))
        rows.append(
            EvalRow(
                label=label,
                query_text=text,
                retrieved_count=len(retrieved),
                relevant_count=len(relevant),
                precision=precision,
                recall=recall,
            )
        )
    return EvalReport(rows=tuple(rows))


def _floor2(value: float) -> float:
    return math.floor(value * 100.0) / 100.0


def format_eval_report(report: EvalReport) -> str:
    """Fixed-width table, percentages truncated to two decimals."""
    lines = [f"{'query':<6}{'retrieved':>10}{'relevant':>10}{'recall':>9}{'precision':>11}"]
    for row in report.rows:
        flag = "  [no results]" if row.retrieved_count == 0 else ""
        lines.append(
            f"{row.label:<6}{row.retrieved_count:>10}{row.relevant_count:>10}"
            f"{_floor2(row.recall):>9.2f}{_floor2(row.precision):>11.2f}{flag}"
        )
    lines.append("")
    lines.append(f"mean recall    {_floor2(report.mean_recall):.2f}")
    lines.append(f"mean precision {_floor2(report.mean_precision):.2f}")
    return "\n".join(lines)
