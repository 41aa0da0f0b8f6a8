"""Template rendering: placeholder handling and prompt wording stays pinned."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    full_text,
    make_settings,
    mcqa_question,
    numeric_question,
    reference_render,
    rerailer_fixture,
    scripted_gateway,
    template_placeholders,
)
from rerail import prompts
from rerail.harness import run
from rerail.prompts import (
    MissingVariable,
    PromptPair,
    TEMPLATE_DEBATE_MITIGATOR,
    TEMPLATE_JUDGE,
    TEMPLATE_MAD_INITIAL,
    TEMPLATE_MAD_REVISION,
    TEMPLATE_RAW_COT,
    TEMPLATE_REANSWER,
    TEMPLATE_STEP_EVALUATOR,
    _CATALOG,
    format_instructions,
    format_question,
    render_prompt,
)


# A bare question renders as its text alone in the {question} slot.
Q = numeric_question(subject="algebra", text="Q?")


class TestRenderPrompt:
    def test_judge_human_lists_three_paths(self):
        pair = render_prompt(TEMPLATE_JUDGE, Q, rp1="p1", rp2="p2", rp3="p3")
        assert "RP 1: p1" in pair.user
        assert "RP 2: p2" in pair.user
        assert "RP 3: p3" in pair.user
        assert 'for the question "Q?"' in pair.system

    def test_missing_variable_named(self):
        with pytest.raises(MissingVariable) as err:
            render_prompt(TEMPLATE_STEP_EVALUATOR, Q, RP="x")
        assert err.value.name == "current_step"

    def test_reanswer_states_step_budget(self):
        pair = render_prompt(TEMPLATE_REANSWER, Q, RP="Step 1: x")
        assert "a maximum of 12 steps are allowed" in pair.system
        assert "my initial thought process is given as Step 1: x" in pair.user

    def test_evaluator_wording(self):
        pair = render_prompt(TEMPLATE_STEP_EVALUATOR, Q, current_step=3, RP="body")
        assert "I am currently at step #3" in pair.system
        assert "Simply say step hallucination is [NO]" in pair.system
        assert "Factuality" in pair.system and "Faithfulness" in pair.system

    def test_raw_cot_human(self):
        pair = render_prompt(TEMPLATE_RAW_COT, numeric_question(text="what is 2+2"))
        assert pair.user == "The question can be found in what is 2+2"
        assert pair.system.startswith("You are a professional specialized in grade school math.")

    def test_question_slot_carries_context_and_options(self):
        q = mcqa_question(context="A block slides on ice.")
        assert render_prompt(TEMPLATE_RAW_COT, q).user == f"The question can be found in {format_question(q)}"

    def test_debate_human_ends_with_peer_response(self):
        pair = render_prompt(
            TEMPLATE_DEBATE_MITIGATOR, Q, current_step=2, RP="body", response="their argument"
        )
        assert pair.user.endswith("was given as their argument")

    def test_substitution_is_single_pass(self):
        # a value containing brace syntax must land verbatim, not re-expand
        pair = render_prompt(TEMPLATE_RAW_COT, numeric_question(text="literal {subject} here"))
        assert pair.user == "The question can be found in literal {subject} here"

    def test_all_catalog_templates_render(self):
        fillers = {"RP": "r", "current_step": 1, "rp1": "a", "rp2": "b", "rp3": "c", "response": "peer text"}
        for template_id in _CATALOG:
            pair = render_prompt(template_id, Q, **fillers)
            assert "{" not in pair.system and "{" not in pair.user
            assert pair.format_instructions

    def test_every_template_takes_subject_and_question(self):
        for template_id in _CATALOG:
            assert {"subject", "question"} <= template_placeholders(template_id)

    def test_placeholder_inventory(self):
        assert template_placeholders(TEMPLATE_JUDGE) == {
            "subject", "question", "rp1", "rp2", "rp3",
        }
        assert template_placeholders(TEMPLATE_MAD_REVISION) == {
            "subject", "question", "response",
        }
        assert template_placeholders(TEMPLATE_MAD_INITIAL) == {"subject", "question"}


# Slot values made of brace syntax: lone braces, doubled ones and
# placeholder-like names, which must land verbatim.
BRACY = st.lists(
    st.sampled_from(["{", "}", "{{", "}}", "{subject}", "{question}", "{RP}", "{rp1", "x", " ", "\u00e9"]),
    max_size=6,
).map("".join)
SLOT_VALUE = st.one_of(BRACY, st.integers(0, 20), st.text(max_size=10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_render_prompt_is_the_regex_substitution(data):
    template_id = data.draw(st.sampled_from(sorted(_CATALOG)), label="template")
    names = sorted(template_placeholders(template_id) - {"subject", "question"}) + ["unused"]
    slots = {name: data.draw(SLOT_VALUE, label=name) for name in names if data.draw(st.integers(0, 4), label="drop")}
    question = numeric_question(subject=data.draw(BRACY, label="subject"), text=data.draw(BRACY, label="text"))
    try:
        expected = reference_render(template_id, question, **slots)
    except MissingVariable as missing:
        with pytest.raises(MissingVariable) as err:
            render_prompt(template_id, question, **slots)
        assert err.value.name == missing.name
    else:
        assert render_prompt(template_id, question, **slots) == expected


class TestFormatInstructions:
    def test_fenced_json_skeleton(self):
        text = format_instructions({"answer": "the final answer"})
        assert "```json" in text
        assert '"answer": string' in text
        assert text.endswith("```")

    def test_key_order_preserved(self):
        text = format_instructions({"first": "x", "second": "y"})
        assert text.index('"first"') < text.index('"second"')


class TestFullText:
    def test_concatenation_with_instructions(self):
        pair = PromptPair(system="sys", user="usr", format_instructions="fmt")
        assert full_text(pair) == "sys\nusr\nfmt"

    def test_concatenation_without_instructions(self):
        pair = PromptPair(system="sys", user="usr")
        assert full_text(pair) == "sys\nusr"


class TestFormatQuestion:
    def test_options_and_context_sections(self):
        q = mcqa_question(context="A block slides on ice.")
        rendered = format_question(q)
        assert rendered.startswith(q.text)
        assert "Context: A block slides on ice." in rendered
        assert "Options:\nA. choice A\nB. choice B" in rendered

    def test_bare_question(self):
        assert format_question(numeric_question(text="What gives?")) == "What gives?"

    def test_a_rerailer_run_formats_each_question_once(self, tmp_path, monkeypatch):
        formatted = []

        def counted(question):
            formatted.append(question.id)
            return format_question(question)

        monkeypatch.setattr(prompts, "format_question", counted)
        questions, entries = rerailer_fixture(1, 1, 1)
        gateway = scripted_gateway(entries)
        run(questions, make_settings(), "rerailer", tmp_path, gateway)
        assert len(gateway.records) == 3 + 11 + 16
        assert sorted(formatted) == ["q01", "q02", "q03"]
