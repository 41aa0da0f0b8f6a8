"""Seeded input generator for the rerail benchmark.

For one workload and seed this writes, into an output directory:

* ``config.json`` — a run config (README "Configuration");
* ``<mode>.dataset.jsonl`` and ``<mode>.script.jsonl`` for each mode the
  workload runs, in the formats README documents under "Dataset format"
  and "Script format";
* ``expected.json`` — what the method must produce for every question,
  worked out from the scenario that built it (routing, baseline and final
  answers and correctness, confusion cell, per-stage calls and tokens), and
  the report fields that follow from those.

It imports nothing from the package or its tests, so the expectations are
independent of the code under measurement. The same seed gives the same
files; the scenario mix is fixed per workload, so the seed changes ids,
texts, answers and order but never the amount of work.

    python3 bench/generate.py --workload rerailer-overhead --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

KINDS = ("MCQA", "OpenEndedNumeric", "OpenEndedText")
CATEGORIES = ("CommonsenseReasoning", "Math", "AdvancedMathScience")
CELLS = ("TP", "TN", "FN", "FP")
SUBJECTS = ("college physics", "grade school math", "chemistry", "astronomy", "biology")

# Text answers all start with a letter outside A..F, so two different text
# answers can never pass the "same leading option letter" consistency rule.
TEXT_ANSWERS = (
    "GRAVITY", "HYDROGEN", "INERTIA", "JOULE", "KINETIC", "LATENT", "MOMENTUM",
    "NEUTRON", "OXYGEN", "PHOTON", "QUARTZ", "RADIUS", "SILICON", "TUNGSTEN",
    "URANIUM", "VELOCITY", "WAVELENGTH", "XENON", "YIELD", "ZINC",
)

# Scenario weights per mode; one block is every scenario, at its weight, for
# each of the three question kinds. The rerailer weights put the median
# question inside the "fixable" cluster and the 95th percentile inside the
# "unfixable" one, so neither percentile sits on a boundary between clusters.
MIXES = {
    "rerailer": {
        "consistent": 2, "consistent_wrong": 1, "clean": 1,
        "fixable": 4, "broken": 1, "unfixable": 3,
    },
    "sc": {"sc_right": 1, "sc_wrong": 1},
    "mad": {"mad_agree": 1, "mad_converge": 1, "mad_split": 1},
}

# Blocks per mode, whether the cache is on, and the worker pool width.
WORKLOADS = {
    "rerailer-overhead": {"blocks": {"rerailer": 42}, "cache": False, "parallelism": 1},
    "latency-bound": {"blocks": {"rerailer": 5, "sc": 3, "mad": 2}, "cache": True, "parallelism": 2},
    "resume-cached": {"blocks": {"rerailer": 14}, "cache": True, "parallelism": 1},
}

# The method's shape the scenarios are written for (README "Configuration").
SHAPE = {
    "n_samples": 3, "sc_budget": 40, "mad_agents": 2, "mad_rounds": 3,
    "n_debate_agents": 2, "n_debate_rounds": 3, "max_rerail_iterations": 3,
}
SC_MAJORITY, SC_MINORITY = 16, 12  # 16 + 12 + 12 = sc_budget samples, no tie


class Question:
    """One generated question: its record plus the answers the scenario uses."""

    def __init__(self, rng: random.Random, qid: str, kind: str, category: str) -> None:
        self.id = qid
        self.rng = rng
        subject = rng.choice(SUBJECTS)
        self.record: dict = {
            "id": qid,
            "subject": subject,
            "category": category,
            "kind": kind,
            "question": f"In {subject}, which result follows from case {rng.randint(100, 999)}?",
        }
        if kind == "MCQA":
            labels = ["A", "B", "C", "D"]
            self.record["options"] = [{"label": l, "text": f"choice {l.lower()}{rng.randint(1, 99)}"} for l in labels]
            self.truth, self.wrong, self.other = rng.sample(labels, 3)
            self.record["ground_truth"] = self.truth
        elif kind == "OpenEndedNumeric":
            self.truth, self.wrong, self.other = (str(v) for v in rng.sample(range(10, 1000), 3))
            self.record["ground_truth"] = int(self.truth)
        else:
            self.truth, self.wrong, self.other = rng.sample(TEXT_ANSWERS, 3)
            self.record["ground_truth"] = self.truth
        self.entries: list[dict] = []
        self.used: set[str] = set()

    def sentence(self, verb: str) -> str:
        """A step, fix or rationale text not used before in this question.
        Repeating a text could repeat a prompt, which a cache-on run would
        then serve from the cache instead of the script."""
        while True:
            text = f"{verb} quantity {self.rng.randint(2, 97)} against term {self.rng.randint(2, 97)}."
            if text not in self.used:
                self.used.add(text)
                return text

    def steps(self, count: int) -> list[str]:
        verbs = ("Identify", "Combine", "Compare", "Scale", "Check")
        return [self.sentence(verbs[i % len(verbs)]) for i in range(count)]

    def add(self, stage: str, response: str, **match) -> None:
        """Append one script entry for this question (README "Script format")."""
        entry_match = {"stage": stage, "question_id": self.id}
        entry_match.update(match)
        self.entries.append(
            {
                "match": entry_match,
                "response": response,
                "usage": {
                    "prompt_tokens": self.rng.randint(80, 600),
                    "completion_tokens": self.rng.randint(20, 300),
                },
            }
        )


def cot(steps: list[str], answer: str) -> str:
    lines = [f"Step {i}: {text}" for i, text in enumerate(steps, start=1)]
    lines.append(f"Answer: {answer}")
    return "\n".join(lines)


def fenced(**fields: str) -> str:
    """A structured reply: one JSON object inside a ```json fence."""
    return "```json\n" + json.dumps(fields, sort_keys=True) + "\n```"


def evaluator(q: Question, correction: str = "") -> str:
    verdict = "YES" if correction else "NO"
    return fenced(hallucination=verdict, reasoning=q.sentence("Verify"), correction=correction)


def debate(q: Question, correction: str = "") -> str:
    verdict = "REVISE" if correction else "AGREE"
    return fenced(verdict=verdict, reasoning=q.sentence("Argue"), correction=correction)


def judge(q: Question, selected: int) -> str:
    return fenced(selected=str(selected), rationale=q.sentence("Prefer"))


def mad(q: Question, answer: str) -> str:
    return fenced(answer=answer, reasoning=q.sentence("Debate"))


# Each scenario appends its question's script entries and returns the
# routing, baseline answer and final answer the method must produce. The
# method consumes every entry, so per-stage calls are read off the entries.

def consistent(q: Question, answer: str) -> tuple:
    steps = q.steps(3)
    for _ in range(3):
        q.add("cot", cot(steps, answer))
    return "consistent", answer, answer


def scenario_consistent(q: Question) -> tuple:
    return consistent(q, q.truth)


def scenario_consistent_wrong(q: Question) -> tuple:
    return consistent(q, q.wrong)


def scenario_clean(q: Question) -> tuple:
    """Derailed; the judge re-asks once, then picks a right path that a
    single pass certifies without changes."""
    steps = q.steps(3)
    for answer in (q.truth, q.wrong, q.truth):
        q.add("cot", cot(steps, answer))
    q.add("judge", "I would go with the first reasoning path.")
    q.add("judge", judge(q, 1))
    for index in (1, 2, 3):
        q.add("evaluator", evaluator(q), step_index=index)
    return "derailed", q.truth, q.truth


def scenario_fixable(q: Question) -> tuple:
    """Derailed; step 2 of a wrong path is corrected, the re-answer lands on
    the truth, and the second pass certifies it."""
    steps = q.steps(3)
    selected = q.rng.choice((1, 3))
    for answer in (q.wrong, q.truth, q.wrong):
        q.add("cot", cot(steps, answer))
    q.add("judge", judge(q, selected))
    correction = q.sentence("Recombine")
    q.add("evaluator", evaluator(q), step_index=1)
    q.add("evaluator", evaluator(q, correction), step_index=2)
    for agent in (1, 2):
        q.add("debate", debate(q), step_index=2, agent_id=agent, round=1)
    q.add("reanswer", cot([steps[0], correction, q.sentence("Conclude")], q.truth))
    q.add("evaluator", evaluator(q), step_index=2)
    q.add("evaluator", evaluator(q), step_index=3)
    return "derailed", q.wrong, q.truth


def scenario_broken(q: Question) -> tuple:
    """Derailed; the judge picks a right path, the debate revises the
    proposed fix of step 1, and the re-answer goes wrong."""
    steps = q.steps(2)
    for answer in (q.truth, q.wrong, q.wrong):
        q.add("cot", cot(steps, answer))
    q.add("judge", judge(q, 1))
    proposed, revised = q.sentence("Replace"), q.sentence("Rework")
    q.add("evaluator", evaluator(q, proposed), step_index=1)
    q.add("debate", debate(q), step_index=1, agent_id=1, round=1)
    q.add("debate", debate(q, revised), step_index=1, agent_id=2, round=1)
    q.add("debate", debate(q), step_index=1, agent_id=1, round=2)
    q.add("debate", debate(q), step_index=1, agent_id=2, round=2)
    q.add("reanswer", cot([revised, q.sentence("Follow")], q.wrong))
    q.add("evaluator", evaluator(q), step_index=1)
    q.add("evaluator", evaluator(q), step_index=2)
    return "derailed", q.truth, q.wrong


def scenario_unfixable(q: Question) -> tuple:
    """Derailed; every pass flags step 1 again until the iteration cap."""
    steps = q.steps(2)
    for answer in (q.wrong, q.other, q.wrong):
        q.add("cot", cot(steps, answer))
    q.add("judge", judge(q, 1))
    for _ in range(3):
        fix = q.sentence("Assume")
        q.add("evaluator", evaluator(q, fix), step_index=1)
        for agent in (1, 2):
            q.add("debate", debate(q), step_index=1, agent_id=agent, round=1)
        q.add("reanswer", cot([fix, q.sentence("Carry")], q.wrong))
    return "derailed", q.wrong, q.wrong


def sc_votes(q: Question, winner: str, losers: tuple[str, str]) -> tuple:
    answers = [winner] * SC_MAJORITY + [losers[0]] * SC_MINORITY + [losers[1]] * SC_MINORITY
    q.rng.shuffle(answers)
    steps = q.steps(2)
    for answer in answers:
        q.add("cot", cot(steps, answer))
    return None, winner, winner


def scenario_sc_right(q: Question) -> tuple:
    return sc_votes(q, q.truth, (q.wrong, q.other))


def scenario_sc_wrong(q: Question) -> tuple:
    return sc_votes(q, q.wrong, (q.truth, q.other))


def mad_rounds(q: Question, rounds: list[tuple[str, str]]) -> None:
    for round_no, answers in enumerate(rounds, start=1):
        for agent, answer in enumerate(answers, start=1):
            q.add("mad", mad(q, answer), agent_id=agent, round=round_no)


def scenario_mad_agree(q: Question) -> tuple:
    mad_rounds(q, [(q.truth, q.truth)])
    return None, q.truth, q.truth


def scenario_mad_converge(q: Question) -> tuple:
    mad_rounds(q, [(q.wrong, q.truth), (q.truth, q.truth)])
    return None, q.truth, q.truth


def scenario_mad_split(q: Question) -> tuple:
    """Three split rounds; the tie keeps agent 1's (wrong) answer."""
    mad_rounds(q, [(q.wrong, q.truth)] * 3)
    return None, q.wrong, q.wrong


SCENARIOS = {name[len("scenario_"):]: fn for name, fn in globals().items() if name.startswith("scenario_")}


def stage_usage(entries: list[dict]) -> dict:
    usage: dict = {}
    for entry in entries:
        row = usage.setdefault(entry["match"]["stage"], {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0})
        row["calls"] += 1
        row["prompt_tokens"] += entry["usage"]["prompt_tokens"]
        row["completion_tokens"] += entry["usage"]["completion_tokens"]
    return usage


def build_mode(rng: random.Random, mode: str, blocks: int, seen: set[str]) -> tuple[list[dict], list[dict], dict]:
    """Questions, script entries and per-question expectations for one mode."""
    block = [(scenario, kind) for scenario, weight in MIXES[mode].items() for _ in range(weight) for kind in KINDS]
    plan = []
    for number in range(blocks):
        # Shuffled within each block only, so any run of whole blocks (such
        # as the half a resumed run re-executes) has the same make-up.
        items = [(s, k, CATEGORIES[(i + number) % len(CATEGORIES)]) for i, (s, k) in enumerate(block)]
        rng.shuffle(items)
        plan.extend(items)
    records, entries, expected = [], [], {}
    for scenario, kind, category in plan:
        qid = f"{mode}-{rng.getrandbits(40):010x}"
        while qid in seen:
            qid = f"{mode}-{rng.getrandbits(40):010x}"
        seen.add(qid)
        q = Question(rng, qid, kind, category)
        routing, baseline, final = SCENARIOS[scenario](q)
        records.append(q.record)
        entries.extend(q.entries)
        correct_baseline, correct_final = baseline == q.truth, final == q.truth
        cell = None
        if routing == "derailed":
            cell = {(True, True): "TP", (False, True): "TN", (False, False): "FN", (True, False): "FP"}[
                (correct_baseline, correct_final)
            ]
        expected[qid] = {
            "scenario": scenario,
            "category": category,
            "routing": routing,
            "baseline_answer": baseline,
            "final_answer": final,
            "correct_baseline": correct_baseline,
            "correct_final": correct_final,
            "cell": cell,
            "usage": stage_usage(q.entries),
        }
    return records, entries, expected


def accuracy_block(rows: list[dict], key: str = "correct_final") -> dict:
    correct = sum(1 for row in rows if row[key])
    return {"correct": correct, "total": len(rows), "accuracy": (correct / len(rows)) if rows else None}


def cell_counts(rows: list[dict]) -> dict:
    cells = {cell: 0 for cell in CELLS}
    for row in rows:
        if row["cell"] is not None:
            cells[row["cell"]] += 1
    return cells


def expected_report(mode: str, questions: dict) -> dict:
    """The report fields that follow from the per-question expectations."""
    rows = list(questions.values())
    categories = sorted({row["category"] for row in rows})
    by_category = {cat: [row for row in rows if row["category"] == cat] for cat in categories}
    rerailer = mode == "rerailer"
    consistent_rows = [row for row in rows if row["routing"] == "consistent"]
    derailed_rows = [row for row in rows if row["routing"] == "derailed"]
    accuracy = {
        "overall": accuracy_block(rows),
        "by_category": {cat: accuracy_block(group) for cat, group in by_category.items()},
    }
    if rerailer:
        accuracy["split"] = {
            "consistent_route": accuracy_block(consistent_rows),
            "derailed_route": accuracy_block(derailed_rows),
            "derailed_before_repair": accuracy_block(derailed_rows, "correct_baseline"),
        }
    usage: dict = {}
    for row in rows:
        for stage, block in row["usage"].items():
            total = usage.setdefault(stage, {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0})
            for field in total:
                total[field] += block[field]
    return {
        "counts": {
            "total": len(rows),
            "failed": 0,
            "consistent": len(consistent_rows) if rerailer else None,
            "derailed": len(derailed_rows) if rerailer else None,
        },
        "accuracy": accuracy,
        "confusion_matrix": {
            "overall": cell_counts(rows),
            "by_category": {cat: cell_counts(group) for cat, group in by_category.items()},
        }
        if rerailer
        else None,
        "usage_by_stage": usage,
    }


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out: Path, blocks: dict[str, int] | None = None) -> None:
    """Write the workload's inputs; ``blocks`` overrides its size per mode."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    config = dict(SHAPE, seed=seed, parallelism=spec["parallelism"], cache_enabled=spec["cache"])
    (out / "config.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    expected: dict = {"workload": workload, "seed": seed, "modes": {}}
    seen: set[str] = set()
    for mode, count in (blocks or spec["blocks"]).items():
        records, entries, questions = build_mode(rng, mode, count, seen)
        write_jsonl(out / f"{mode}.dataset.jsonl", records)
        write_jsonl(out / f"{mode}.script.jsonl", entries)
        expected["modes"][mode] = {"questions": questions, "report": expected_report(mode, questions)}
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
