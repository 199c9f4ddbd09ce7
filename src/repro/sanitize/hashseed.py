"""PYTHONHASHSEED-perturbed double-run: the hash-order litmus test.

Python's one sanctioned source of run-to-run nondeterminism is string
hash randomization: iterate a set (or pre-3.7 dict) and the order — and
anything downstream of it — moves with ``PYTHONHASHSEED``. No static
rule can see every such iteration, so this harness checks the
end-to-end property instead: **the same seeded run produces
byte-identical traces and metrics under two different hash seeds**.

The run under test executes in a fresh subprocess per hash seed
(``PYTHONHASHSEED`` only takes effect at interpreter start), prints its
deterministic exports to stdout, and the harness compares the raw
bytes. Any difference is a :class:`~repro.sanitize.SanitizeError`
carrying the first diverging line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Sequence, Tuple

from repro.sanitize import SanitizeError

#: Wall-clock ceiling for one subprocess run (host-side harness knob,
#: outside the simulated-time contract).
HASHSEED_RUN_TIMEOUT = 300

#: The default pair of hash seeds. Any two distinct values would do;
#: 0 additionally disables randomization entirely, so the pair covers
#: "off" vs "on with a fixed seed".
DEFAULT_HASH_SEEDS = ("0", "1")

#: Template for the default run-under-test: a seeded chaos schedule
#: with tracing on, exporting trace + metrics JSONL to stdout.
CHAOS_SCRIPT = """\
from repro.faults.chaos import ChaosHarness
from repro.obs.export import metrics_text, trace_text

harness = ChaosHarness(seed=%(seed)d, total_ops=%(ops)d, tracing=True)
report = harness.run()
assert report.violations == [], report.violations
print(trace_text(harness.obs), end="")
print(metrics_text(harness.obs), end="")
"""


def _subprocess_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # The child must resolve ``repro`` exactly like this process does.
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in sys.path if entry)
    return env


def run_once(script: str, hash_seed: str,
             timeout: float = HASHSEED_RUN_TIMEOUT) -> bytes:
    """Run ``script`` under one hash seed; returns its stdout bytes."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=_subprocess_env(hash_seed),
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SanitizeError(
            "sanitize[hashseed]: run under PYTHONHASHSEED=%s failed "
            "(exit %d):\n%s"
            % (hash_seed, proc.returncode,
               proc.stderr.decode("utf-8", "replace")))
    return proc.stdout


def first_divergence(a: bytes, b: bytes) -> str:
    """A human-readable pointer at the first differing line."""
    lines_a = a.splitlines()
    lines_b = b.splitlines()
    for index, (line_a, line_b) in enumerate(zip(lines_a, lines_b)):
        if line_a != line_b:
            return ("line %d differs:\n  a: %s\n  b: %s"
                    % (index + 1,
                       line_a.decode("utf-8", "replace"),
                       line_b.decode("utf-8", "replace")))
    return ("outputs are %d vs %d lines (one is a prefix of the other)"
            % (len(lines_a), len(lines_b)))


def double_run(script: str,
               hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
               timeout: float = HASHSEED_RUN_TIMEOUT) -> bytes:
    """Run ``script`` once per hash seed; outputs must be byte-identical.

    Returns the (common) stdout bytes on success; raises
    :class:`SanitizeError` naming the offending seed pair and the first
    diverging line otherwise.
    """
    reference = None
    reference_seed = None
    for hash_seed in hash_seeds:
        output = run_once(script, hash_seed, timeout=timeout)
        if reference is None:
            reference = output
            reference_seed = hash_seed
        elif output != reference:
            raise SanitizeError(
                "sanitize[hashseed]: output depends on the hash seed "
                "(PYTHONHASHSEED=%s vs %s): %s"
                % (reference_seed, hash_seed,
                   first_divergence(reference, output)))
    return reference if reference is not None else b""


def chaos_script(seed: int = 11, ops: int = 60) -> str:
    """The default run-under-test script (seeded chaos, tracing on)."""
    return CHAOS_SCRIPT % {"seed": int(seed), "ops": int(ops)}


def assert_chaos_hashseed_stable(
        seed: int = 11, ops: int = 60,
        hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
) -> Tuple[bytes, int]:
    """Prove a chaos schedule's exports ignore the hash seed.

    Returns ``(output_bytes, runs)`` for reporting.
    """
    output = double_run(chaos_script(seed, ops), hash_seeds=hash_seeds)
    if not output:
        raise SanitizeError(
            "sanitize[hashseed]: the run under test produced no output "
            "— nothing was actually compared")
    return output, len(list(hash_seeds))
