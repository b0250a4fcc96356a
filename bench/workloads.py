"""The benchmark's workloads: their inputs, run settings and seed sets.

Each workload is a run-config text in the format ``strategy-tuner tune
--config`` reads, written at set-up into the run's work directory:

* ``converge``: ``samples/convergence.profile`` on the synthetic backend,
  virtual clock, unlimited budget, 4 samples, 14 iterations. Every
  analysis completes, so the rates grow to the cap and sampling
  dominates.
* ``wide``: a profile generated from the seed (1000 alarms over all 13
  parameters, 100 of them incompressible) whose cost model makes analyses
  time out once exploration grows; 16 samples, 25 iterations, a budget
  that the iteration cap ends first.
* ``subprocess``: the convergence profile's alarm rule in a POSIX ``sh``
  script (``eva_stub.sh``) driven by the subprocess adapter, real clock,
  2 workers, a budget nothing times out against, 10 iterations.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONVERGENCE_PROFILE = ROOT / "samples" / "convergence.profile"


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_set: int
    settings: str

    def seed_set(self, seed: int) -> list[int]:
        """Tuner seeds for one benchmark seed; disjoint across seeds."""
        return [seed * self.seeds_per_set + i for i in range(self.seeds_per_set)]


def _settings(budget: float, samples: int, iterations: int) -> str:
    return (
        f"tuner.time_budget = {budget}\n"
        f"tuner.num_sample = {samples}\n"
        "tuner.num_process = 2\n"
        f"tuner.max_iterations = {iterations}\n"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge", 48, _settings(1e9, 4, 14)),
        Workload("wide", 8, _settings(200000, 16, 25)),
        Workload("subprocess", 64, _settings(100000, 4, 10)),
    )
}

# Alarm pattern for eva_stub.sh: the file field of an "[eva:alarm]" line.
STUB_PATTERN = r"^\[eva:alarm\] ([^:]+):\d+:"

# --- the wide profile ---------------------------------------------------------

# Upper end of a requirement above the catalog's base, per integer
# parameter: a few times its initial Poisson rate, so that exploration
# reaches most requirements within a few growing rounds.
_INT_REACH = {
    "min-loop-unroll": 3,
    "auto-loop-unroll": 40,
    "widening-delay": 4,
    "partition-history": 3,
    "slevel": 400,
    "ilevel": 24,
    "plevel": 60,
    "subdivide-non-linear": 12,
}
_INT_BASE = {"widening-delay": 1, "ilevel": 8, "plevel": 10}
_ALARMS = 1000
_INCOMPRESSIBLE = 100
_BOOLS = (
    "split-return",
    "remove-redundant-alarms",
    "octagon-through-calls",
    "equality-through-calls",
)
# Simulated seconds per unit of precision; with cost.base = 1 a first-round
# sample costs a few seconds and a sample at slevel 1000 about 50.
_WEIGHTS = {
    "min-loop-unroll": 1.0,
    "auto-loop-unroll": 0.1,
    "widening-delay": 0.5,
    "partition-history": 1.0,
    "slevel": 0.05,
    "ilevel": 0.05,
    "plevel": 0.01,
    "subdivide-non-linear": 0.2,
    "split-return": 0.5,
    "remove-redundant-alarms": 0.5,
    "octagon-through-calls": 0.5,
    "equality-through-calls": 0.5,
    "domains": 1.0,
}


def wide_profile(seed: int) -> str:
    """Profile text for the ``wide`` workload, a pure function of the seed.

    Counts are fixed; only requirement values vary with the seed. Each
    eliminable alarm needs one to three parameters; the first cycles over
    all 13, so every parameter has alarms that need it.
    """
    rng = random.Random(f"wide-profile:{seed}")
    params = list(_INT_REACH) + list(_BOOLS) + ["domains"]
    lines = ["cost.base = 1.0"] + [f"cost.weight.{p} = {w}" for p, w in _WEIGHTS.items()]
    for i in range(_ALARMS):
        alarm = f"w{i:04d}"
        if i < _INCOMPRESSIBLE:
            lines.append(f"alarm.{alarm}.incompressible = true")
            continue
        needed = {params[i % len(params)]} | set(rng.sample(params, rng.randint(0, 2)))
        for param in sorted(needed):
            if param in _INT_REACH:
                value = str(_INT_BASE.get(param, 0) + rng.randint(1, _INT_REACH[param]))
            elif param in _BOOLS:
                value = "true"
            else:
                bits = ["1", "0", "0", "0", "0"]
                for b in rng.sample(range(1, 5), rng.randint(1, 2)):
                    bits[b] = "1"
                value = "".join(bits)
            lines.append(f"alarm.{alarm}.requires.{param} = {value}")
    return "\n".join(lines) + "\n"


def write_run_config(workload: Workload, seed: int, work: Path) -> tuple[Path, str]:
    """Write the workload's inputs into ``work``.

    Returns the run-config path and the text of the profile whose alarm
    rule and cost model the output is checked against.
    """
    if workload.name == "wide":
        profile_text = wide_profile(seed)
        profile_path = work / "wide.profile"
        profile_path.write_text(profile_text, encoding="utf-8")
    else:
        profile_path = CONVERGENCE_PROFILE
        profile_text = profile_path.read_text(encoding="utf-8")
    if workload.name == "subprocess":
        stub = shlex.quote(str(BENCH / "eva_stub.sh"))
        backend = (
            "program = convergence.c\n"
            f"adapter.command = sh {stub} {{args}} {{program}}\n"
            f"adapter.pattern = {STUB_PATTERN}\n"
        )
    else:
        backend = f"profile = {profile_path}\n"
    config = work / f"{workload.name}.conf"
    config.write_text(backend + f"out = {work / 'out'}\n" + workload.settings, encoding="utf-8")
    return config, profile_text
