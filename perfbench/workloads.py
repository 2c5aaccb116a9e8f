"""The benchmark's workloads: the flags each passes to ``itslab.cli.main``.

Every input a workload uses (the program seed of each invocation and the
judge record files) is derived from the one benchmark seed, so the same
benchmark seed always gives the same inputs.  See README.md for why each
workload exists.
"""

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K_GRID_SOFTMAX = "1,2,3,4,6,8,12,16,24,32,48,64,96"


def derived_seed(seed: int, *labels) -> int:
    """A 32-bit seed determined by the benchmark seed and the labels."""
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy += [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One fixed ``itslab`` invocation whose seed varies between runs.

    ``flags`` are passed verbatim; ``budget`` holds the flags that set the
    amount of work, which the smoke test shrinks.  ``threads`` is the
    ``--threads`` value of the timed runs (None: the subcommand has no
    parallel path).  ``n_questions`` > 0 marks a judge workload; it reads
    ``n_record_files`` generated record files in turn, so that a run's
    outputs rest on that many independent sets of questions.  ``kernel``
    names the calibrate.py kernel that does the same kind of work.
    """

    name: str
    kernel: str
    flags: tuple
    budget: tuple
    threads: int | None = 1
    n_datasets: int = 1
    n_questions: int = 0
    n_record_files: int = 0

    def argv(self, prog_seed: int, out: Path, inputs: dict, threads=None, budget=None) -> list:
        argv = list(self.flags) + list(self.budget if budget is None else budget)
        if self.threads is not None:
            argv += ["--threads", str(self.threads if threads is None else threads)]
        if "records" in inputs:
            argv += ["--records", str(inputs["records"])]
        return argv + ["--seed", str(prog_seed), "--out", str(out)]

    def make_inputs(self, seed: int, workdir: Path, n_questions=None) -> list:
        """Write this workload's input files under ``workdir``.

        Returns the inputs of each independent case; case ``c`` of a run
        uses entry ``c % len(inputs)``.
        """
        if not self.n_questions:
            return [{}]
        inputs = []
        for j in range(self.n_record_files):
            rng = np.random.default_rng(derived_seed(seed, self.name, "records", j))
            path = workdir / f"trap_records_{j}.jsonl"
            write_trap_records(path, rng, n_questions or self.n_questions)
            inputs.append({"records": path})
        return inputs

    def prog_seed(self, seed: int, case: int) -> int:
        """The ``--seed`` passed to the program for a run's case ``case``."""
        return derived_seed(seed, self.name, "case", case)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bestofk_t0",
            kernel="draws",
            flags=("bestofk-check", "--d", "10", "--n", "10000", "--S", "1",
                   "--sigma", "1e-4", "--gamma", "1e-3", "--mode", "de",
                   "--n-inner", "200"),
            budget=("--n-outer", "16"),
        ),
        Workload(
            name="softmax_k_exact",
            kernel="softmax",
            flags=("sweep-k", "--mode", "exact", "--n-datasets", "4", "--d", "200",
                   "--n", "2000", "--teacher-mode", "normalized", "--T-sigma2", "200",
                   "--k-grid", K_GRID_SOFTMAX, "--c-grid", "0,25,50", "--n-inner", "200"),
            budget=("--n-outer", "50"),
            threads=2,
            n_datasets=4,
        ),
        Workload(
            name="judge_trap",
            kernel="python_loop",
            flags=("judge", "--accuracy", "--n-resample", "16"),
            budget=(),
            threads=None,
            n_questions=100,
            n_record_files=8,
        ),
    )
}


def trap_judge_questions(rng, n_questions, n_samples=64, p_correct=0.5,
                         reward_noise=0.2, trap_rate=0.2, trap_reward=2.5):
    """Misspecified judge: rewards track correctness except for a trap tail.

    Correct samples score ~N(1, noise) and wrong ones ~N(0, noise), except
    that a fraction ``trap_rate`` of the wrong ones score ~N(trap_reward,
    noise).  Returns question id -> (rewards, correct) arrays.
    """
    questions = {}
    for q in range(n_questions):
        correct = (rng.random(n_samples) < p_correct).astype(int)
        reward = rng.normal(0.0, reward_noise, size=n_samples)
        reward[correct == 1] += 1.0
        trap = (correct == 0) & (rng.random(n_samples) < trap_rate)
        reward[trap] += trap_reward
        questions[f"q{q:04d}"] = (reward, correct)
    return questions


def write_trap_records(path: Path, rng, n_questions: int) -> None:
    """Write a trap-judge record file, one JSON object per line."""
    lines = []
    for qid, (reward, correct) in trap_judge_questions(rng, n_questions).items():
        for i, (r, c) in enumerate(zip(reward, correct)):
            lines.append(json.dumps({"question_id": qid, "sample_id": f"s{i:03d}",
                                     "reward": float(r), "correct": int(c)}))
    Path(path).write_text("\n".join(lines) + "\n")
