"""Step-by-step repair of a derailed reasoning path.

One pass walks the steps in order. Each step is evaluated against only the
prefix up to itself (later steps are masked out); the first step flagged as
hallucinated gets a correction, the correction is validated by a short
multi-agent debate, the corrected prefix is spliced in, and the rest of the
path is regenerated from that prefix. The pass returns immediately after one
correction. The outer loop repeats passes until one finds nothing to fix or
the iteration cap is hit; steps settled by earlier passes carry a
"(verified)" marker in serialized form and are passed without a model call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from .config import RunSettings, call_params
from .gateway import CallContext, Gateway, complete_structured
from .parsing import parse_reasoning_path, serialize_steps
from .prompts import TEMPLATE_DEBATE_MITIGATOR, TEMPLATE_REANSWER, TEMPLATE_STEP_EVALUATOR, render_prompt
from .types import (
    ParseFailure,
    Question,
    ReasoningPath,
    STAGE_DEBATE,
    STAGE_EVALUATOR,
    STAGE_REANSWER,
)

VERDICT_AGREE = "AGREE"
VERDICT_REVISE = "REVISE"

FLAG_EVALUATOR_FAIL_OPEN = "evaluator-parse-fail-open"
FLAG_DEBATE_FAIL_OPEN = "debate-parse-fail-open"
FLAG_DEBATE_TIE = "debate-tie"
FLAG_STEP_BUDGET = "reanswer-step-budget-exceeded"
FLAG_PREFIX_DIVERGENCE = "reanswer-prefix-divergence"
FLAG_UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class EvaluationResult:
    hallucination: bool
    verification_reasoning: str
    proposed_correction: Optional[str] = None
    auto: bool = False  # settled in an earlier pass, no call made
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.hallucination and self.proposed_correction is not None:
            raise ValueError("a clean step cannot carry a correction")


def mask(rp: ReasoningPath, index: int) -> str:
    """Steps 1..index rendered for the evaluator; nothing after leaks in."""
    return serialize_steps(rp, upto=index)


def _verdict_token(value: Optional[str]) -> str:
    """A verdict as the agents write it ("[yes] ", "AGREE") in canonical form."""
    return (value or "").strip().strip("[]").strip().upper()


def _read_evaluation(fields: dict[str, str]) -> EvaluationResult:
    """The evaluator's reply; a flagged step must carry its correction."""
    verdict = _verdict_token(fields.get("hallucination"))
    reasoning = fields.get("reasoning", "")
    correction = fields.get("correction", "").strip()
    if verdict == "NO":
        return EvaluationResult(False, reasoning)
    if verdict != "YES":
        raise ValueError(f"hallucination verdict must be YES or NO, got {fields.get('hallucination')!r}")
    if not correction:
        raise ValueError("hallucination=YES requires a non-empty correction")
    return EvaluationResult(True, reasoning, correction)


def evaluate_step(
    question: Question,
    rp: ReasoningPath,
    index: int,
    gateway: Gateway,
    settings: RunSettings,
) -> EvaluationResult:
    """Check one step for factuality/faithfulness hallucination.

    Steps already verified by an earlier pass are auto-passed without a
    call. A parse failure after the single re-ask fails open: the step is
    treated as clean and the result is flagged.
    """
    if index <= rp.verified:
        return EvaluationResult(False, "previously verified", auto=True)

    prompt = render_prompt(TEMPLATE_STEP_EVALUATOR, question, current_step=index, RP=mask(rp, index))
    context = CallContext(stage=STAGE_EVALUATOR, question_id=question.id, step_index=index)
    params = call_params(settings, context)
    evaluation = complete_structured(gateway, prompt, params, context, _read_evaluation)
    return evaluation or EvaluationResult(False, "", flags=(FLAG_EVALUATOR_FAIL_OPEN,))


def _read_turn(fields: dict[str, str]) -> dict[str, str]:
    """A debate agent's verdict, reasoning and correction; a revision carries one."""
    verdict = _verdict_token(fields.get("verdict"))
    correction = fields.get("correction", "").strip()
    if verdict not in (VERDICT_AGREE, VERDICT_REVISE):
        raise ValueError(f"debate verdict must be AGREE or REVISE, got {fields.get('verdict')!r}")
    if verdict == VERDICT_REVISE and not correction:
        raise ValueError("verdict=REVISE requires a non-empty correction")
    return {"verdict": verdict, "reasoning": fields.get("reasoning", ""), "correction": correction}


# What an agent whose reply stayed unreadable is taken to have said.
_FAIL_OPEN_TURN = {"verdict": VERDICT_AGREE, "reasoning": "", "correction": ""}


def _turn_text(turn: dict) -> str:
    text = f"Agent {turn['agent_id']} (round {turn['round']}) [{turn['verdict']}]: {turn['reasoning']}"
    if turn["verdict"] == VERDICT_REVISE and turn["correction"]:
        text += f"\nAgent {turn['agent_id']} revised correction: {turn['correction']}"
    return text


def debate(
    question: Question,
    masked: str,
    current_index: int,
    correction: str,
    gateway: Gateway,
    settings: RunSettings,
) -> tuple[dict, list[str]]:
    """Validate a proposed correction through rounds of agent debate.

    Unanimous agreement at a round end accepts the standing correction and
    stops early. A revision replaces the standing correction at the round
    boundary. After the last round its majority decides between the
    correction that round debated and its latest revision; a tie keeps the
    debated one and is flagged.

    Returns (entry, flags). The entry is the pass trace's "debate" block:
    accepted (the final correction is the proposed one), final_correction,
    rounds_run, and the transcript of turns, each a dict of agent_id,
    round, verdict, reasoning and correction.
    """
    if not correction.strip():
        raise ValueError("debate needs a non-empty proposed correction")

    standing = correction
    transcript: list[dict] = []
    flags: list[str] = []

    for round_no in range(1, settings.n_debate_rounds + 1):
        debated = standing
        response_slot = "\n".join(
            [f"The proposed correction for the current step: {standing}"]
            + [_turn_text(t) for t in transcript]
        )
        prompt = render_prompt(
            TEMPLATE_DEBATE_MITIGATOR, question, current_step=current_index, RP=masked, response=response_slot
        )
        # Every agent of a round answers the same prompt, so they fan out.
        contexts = [
            CallContext(STAGE_DEBATE, question.id, step_index=current_index, agent_id=agent, round=round_no)
            for agent in range(1, settings.n_debate_agents + 1)
        ]
        replies = gateway.fan_out([
            partial(complete_structured, gateway, prompt, call_params(settings, c), c, _read_turn) for c in contexts
        ])
        flags.extend(FLAG_DEBATE_FAIL_OPEN for reply in replies if reply is None)
        round_turns = [
            {"agent_id": c.agent_id, "round": c.round, **(reply or _FAIL_OPEN_TURN)}
            for c, reply in zip(contexts, replies)
        ]
        transcript.extend(round_turns)

        revisions = [t["correction"] for t in round_turns if t["verdict"] == VERDICT_REVISE]
        if not revisions:
            break
        # Revisions land at the round boundary; the last reviser wins.
        standing = revisions[-1]

    agreements = len(round_turns) - len(revisions)
    final = standing if len(revisions) > agreements else debated
    if len(revisions) == agreements:
        flags.append(FLAG_DEBATE_TIE)
    entry = {
        "accepted": final == correction,
        "final_correction": final,
        "rounds_run": round_no,
        "transcript": transcript,
    }
    return entry, flags


def splice(rp: ReasoningPath, index: int, corrected_text: str) -> ReasoningPath:
    """The trusted prefix a re-answer continues from: the steps before
    `index`, now verified, then the correction in place of step `index`.
    The steps after it are left out; the re-answer regenerates them.
    """
    return replace(rp, steps=rp.steps[: index - 1] + (corrected_text,), verified=index - 1)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def reanswer(
    question: Question,
    prefix: ReasoningPath,
    iteration: int,
    gateway: Gateway,
    settings: RunSettings,
) -> tuple[ReasoningPath, list[str]]:
    """Regenerate the rest of the path from the trusted steps of `prefix`.

    Returns (path, flags). The generation is truncated (and flagged) past
    max_reanswer_steps; a continuation that rewrites the prefix is flagged
    but not rejected.
    """
    prompt = render_prompt(TEMPLATE_REANSWER, question, RP=serialize_steps(prefix, verified_markers=False))
    context = CallContext(stage=STAGE_REANSWER, question_id=question.id, round=iteration)

    params = call_params(settings, context)
    try:
        parsed = parse_reasoning_path(gateway.complete(prompt, params, context).text)
    except ParseFailure:  # ask once more, one seed on; a second failure propagates
        retry = replace(params, seed=params.seed + 1)
        parsed = parse_reasoning_path(gateway.complete(prompt, retry, context).text)

    flags: list[str] = []
    steps = parsed.steps
    if len(steps) > settings.max_reanswer_steps:
        steps = steps[: settings.max_reanswer_steps]
        flags.append(FLAG_STEP_BUDGET)

    prefix_preserved = len(steps) >= len(prefix.steps) and all(
        _normalize_ws(new) == _normalize_ws(kept) for new, kept in zip(steps, prefix.steps)
    )
    verified = prefix.verified  # a kept prefix keeps its verified steps
    if not prefix_preserved:
        # The model ignored its instructions; keep its output, every step
        # unverified, so the next pass re-checks everything.
        flags.append(FLAG_PREFIX_DIVERGENCE)
        verified = 0
    return ReasoningPath(steps, parsed.final_answer, verified), flags


def rerail_pass(
    question: Question,
    rp: ReasoningPath,
    iteration: int,
    gateway: Gateway,
    settings: RunSettings,
) -> tuple[ReasoningPath, dict]:
    """One sweep: evaluate steps in order, fix the first flagged one.

    Returns (path, entry), where entry is the pass's trace. It returns
    immediately after splice + re-answer; a sweep with no flagged step
    marks every step verified and leaves the entry's corrected_step None.
    """
    flags: list[str] = []
    evaluations: list[dict] = []
    for index in range(1, len(rp.steps) + 1):
        evaluation = evaluate_step(question, rp, index, gateway, settings)
        flags.extend(evaluation.flags)
        evaluations.append(
            {
                "step": index,
                "hallucination": evaluation.hallucination,
                "auto": evaluation.auto,
                "reasoning": evaluation.verification_reasoning,
            }
        )
        if not evaluation.hallucination:
            continue

        assert evaluation.proposed_correction is not None
        outcome, debate_flags = debate(
            question, mask(rp, index), index, evaluation.proposed_correction, gateway, settings
        )
        flags.extend(debate_flags)
        prefix = splice(rp, index, outcome["final_correction"])
        rp_new, reanswer_flags = reanswer(question, prefix, iteration, gateway, settings)
        flags.extend(reanswer_flags)
        return rp_new, {
            "iteration": iteration,
            "evaluations": evaluations,
            "corrected_step": index,
            "original_step": rp.steps[index - 1],
            "proposed_correction": evaluation.proposed_correction,
            "debate": outcome,
            "reanswer_answer": rp_new.final_answer,
            "flags": sorted(set(flags)),
        }

    entry = {
        "iteration": iteration,
        "evaluations": evaluations,
        "corrected_step": None,
        "flags": sorted(set(flags)),
    }
    return replace(rp, verified=len(rp.steps)), entry


def rerail(
    question: Question,
    rp: ReasoningPath,
    gateway: Gateway,
    settings: RunSettings,
) -> tuple[ReasoningPath, list[str], dict]:
    """Repeat passes until one is clean or the iteration cap is reached.

    Returns (path, flags, fields): the flags of every pass, and the trace
    fields iterations_run, certified and rerail (the pass entries).
    Hitting the cap is not an error: the last path is returned, and the
    uncertified flag is added when its last pass still corrected a step.
    """
    passes: list[dict] = []
    for iteration in range(1, settings.max_rerail_iterations + 1):
        rp, entry = rerail_pass(question, rp, iteration, gateway, settings)
        passes.append(entry)
        if entry["corrected_step"] is None:
            break
    certified = passes[-1]["corrected_step"] is None
    flags = [flag for entry in passes for flag in entry["flags"]]
    if not certified:
        flags.append(FLAG_UNCERTIFIED)
    return rp, flags, {"iterations_run": len(passes), "certified": certified, "rerail": {"passes": passes}}
