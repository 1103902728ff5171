"""The campaign driver: generations of mutate -> run -> select.

A campaign is a sequence of *generations*.  Each generation picks
mutation parents from the corpus by energy (seeded RNG), mutates them,
and ships the batch to :func:`repro.analysis.sweep.run_points` with
:func:`~repro.analysis.sweep.fuzz_point` -- the same order-preserving
pool every figure grid runs on.  Results are merged back
**sequentially, in batch order**.

That batching is what makes the campaign bit-reproducible at any
worker count: the contents of generation *g* depend only on the corpus
state *before* generation *g*, each scenario's verdict is a pure
function of its spec, and the merge order is the batch order -- so
``processes=1`` and ``processes=16`` walk exactly the same tuple
sequence and end in exactly the same state.  :meth:`CampaignReport.
fingerprint` hashes that walk (tuple keys, coverage signatures,
verdicts) and tests/test_fuzz_campaign.py pins serial == parallel.

Mutant campaigns (``FuzzConfig.mutant``) plant one of the known
``CRASH_MUTANTS`` into every run -- the ground-truth exercise that
seeds the committed regression corpus.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fuzz.corpus import CorpusEntry, pick_parents, seed_corpus
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import apply_mutation
from repro.fuzz.scenario import ScenarioResult
from repro.fuzz.tuples import FAULT_TOLERANT_KINDS, ScenarioTuple


@dataclass(frozen=True)
class FuzzConfig:
    """One campaign's knobs (everything that affects the walk)."""

    seed: int = 0
    #: Total scenario executions (seeds included).
    budget: int = 60
    #: Mutations generated per generation.
    batch: int = 8
    #: Pool width; verdicts are identical for any value.
    processes: int = 1
    #: Plant a known bug into every run (corpus seeding / CI smoke).
    mutant: Optional[str] = None
    #: Stop at the first N failing tuples (0 = never stop early).
    stop_after_failures: int = 0


@dataclass
class Failure:
    """One failing tuple as the campaign saw it."""

    tuple_dict: dict
    key: str
    findings: List[Tuple]
    #: Executions completed when this failure surfaced (time-to-
    #: detection in tuples, the EXPERIMENTS.md metric).
    found_at: int


@dataclass
class CampaignReport:
    config: FuzzConfig
    executed: int = 0
    generations: int = 0
    corpus_size: int = 0
    coverage: CoverageMap = field(default_factory=CoverageMap)
    failures: List[Failure] = field(default_factory=list)
    #: The deterministic walk: (tuple key, coverage signature, verdict)
    #: per execution, in order.
    walk: List[Tuple[str, str, bool]] = field(default_factory=list)

    @property
    def distinct_signatures(self) -> int:
        return len({sig for _, sig, _ in self.walk})

    def fingerprint(self) -> str:
        """Hash of the full walk -- equal fingerprints mean the
        campaigns executed the same tuples with the same coverage and
        verdicts (the bit-reproducibility check)."""
        h = hashlib.sha1()
        for key, sig, failing in self.walk:
            h.update(f"{key}:{sig}:{int(failing)};".encode())
        return h.hexdigest()[:16]

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "mutant": self.config.mutant,
            "executed": self.executed,
            "generations": self.generations,
            "corpus_size": self.corpus_size,
            "coverage_keys": len(self.coverage),
            "distinct_signatures": self.distinct_signatures,
            "failures": [{"key": f.key, "found_at": f.found_at,
                          "findings": [list(x) for x in f.findings],
                          "tuple": f.tuple_dict}
                         for f in self.failures],
            "fingerprint": self.fingerprint(),
        }


def _spec(t: ScenarioTuple, mutant: Optional[str]) -> dict:
    return {"tuple": t.to_dict(), "mutant": mutant}


def run_campaign(config: FuzzConfig,
                 seeds: Optional[List[ScenarioTuple]] = None) -> CampaignReport:
    """Run one seeded campaign to its budget (see module docstring)."""
    from repro.analysis import sweep

    rng = random.Random(config.seed)
    report = CampaignReport(config=config)
    seeds = list(seeds) if seeds is not None else seed_corpus()
    if config.mutant is not None:
        # A planted persistence mutant only exists on the supervised
        # write path: keep every scenario on a fault-tolerant kind.
        seeds = [s for s in seeds if s.kind in FAULT_TOLERANT_KINDS]
    corpus: List[CorpusEntry] = []
    seen_keys = {s.key() for s in seeds}

    def merge(parent: Optional[CorpusEntry], t: ScenarioTuple,
              result: ScenarioResult) -> None:
        novel = report.coverage.observe(result.coverage)
        report.executed += 1
        report.walk.append((t.key(), result.signature(), result.failing))
        if result.failing:
            report.failures.append(Failure(
                tuple_dict=t.to_dict(), key=t.key(),
                findings=[f.as_tuple() for f in result.findings],
                found_at=report.executed))
        if parent is None:
            corpus.append(CorpusEntry(t, signature=result.signature(),
                                      novel=novel))
        elif novel:
            parent.novel += novel
            corpus.append(CorpusEntry(t, signature=result.signature(),
                                      novel=novel))

    def done() -> bool:
        if report.executed >= config.budget:
            return True
        return (config.stop_after_failures
                and len(report.failures) >= config.stop_after_failures)

    def run_generation(batch) -> None:
        # sweep.fuzz_point is looked up per generation, so a wrapper
        # installed on the module (the per-layer tracer) sees every run.
        results = sweep.run_points(
            sweep.fuzz_point, [_spec(t, config.mutant) for _, t in batch],
            processes=config.processes)
        for (parent, t), rd in zip(batch, results):
            merge(parent, t, ScenarioResult.from_dict(rd))
        report.generations += 1

    # Generation 0: the seeds themselves.
    run_generation([(None, s) for s in seeds[:config.budget]])

    while not done() and corpus:
        n = min(config.batch, config.budget - report.executed)
        parents = pick_parents(rng, corpus, n)
        batch = []
        for parent in parents:
            parent.chosen += 1
            for _ in range(8):  # re-roll key collisions
                _name, child = apply_mutation(rng, parent.tuple)
                if config.mutant is not None \
                        and child.kind not in FAULT_TOLERANT_KINDS:
                    # kind-switch may leave the supervised path; the
                    # planted mutant would be meaningless there.
                    child = child.replaced(kind=parent.tuple.kind)
                if child.key() not in seen_keys:
                    break
            seen_keys.add(child.key())
            batch.append((parent, child))
        run_generation(batch)

    report.corpus_size = len(corpus)
    return report
