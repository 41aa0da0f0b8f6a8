"""Detect derailed chain-of-thought reasoning paths and repair them.

The pipeline samples several reasoning paths per question, filters out
questions whose answers already agree, picks the least-erroneous path for
the rest, and repairs it step by step: evaluate each step against only its
prefix, validate the proposed fix in a short multi-agent debate, splice it
in, and regenerate the remainder. A harness runs the pipeline and three
baselines over JSONL datasets and reports accuracy, confusion matrices, and
projected cost, fully offline against a scripted backend.
"""

__version__ = "0.1.0"
