"""Reference figure, not a gate: harness cost per question at several sizes.

    python3 bench/scaling.py --seed 1 --blocks 2 14 42

Runs one untraced rerailer-overhead round (scripted backend, cache off,
one worker) at each size, one block being 36 questions, and prints the
milliseconds per question. Harness overhead should grow linearly with the
dataset, so a flat column means linear scaling.
"""

from __future__ import annotations

import argparse
import shutil

from run import WORK, import_package


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, nargs="+", default=[2, 14, 42])
    args = parser.parse_args()
    import_package()
    import generate
    import workloads

    for blocks in args.blocks:
        work = WORK / f"scaling-{blocks}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            generate.generate("rerailer-overhead", args.seed, work / "inputs", blocks={"rerailer": blocks})
            rnd = workloads.make("rerailer-overhead", work / "inputs", work, 1).round(0, traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"questions={rnd.executed} run_s={rnd.run_s:.3f} ms_per_question={rnd.run_s / rnd.executed * 1e3:.3f}")


if __name__ == "__main__":
    main()
