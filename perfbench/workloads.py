"""Seeded model files and the command list of each workload.

Every workload draws its models from a population fixed by POPULATION_SEED.
The ``--seed`` of a run picks an equivalent presentation of each model: a
random relabelling of the basis states, random gauge signs on the couplings
(V_ij -> s_i s_j V_ij) and a shuffled order of the interaction entries and
of the model space.  None of these changes a matrix entry's magnitude, so
the physics and the conditioning of a workload are the same for every seed
while the inputs, and hence the rounding in the pipeline, differ.  Drawing
fresh models per seed would make the pass time swing by half between seeds:
a command that ends in RootFindingFailure costs six to ten times a
successful one, and failures strike about one command in four.  A shift of
the diagonal is left out for the same reason: it moves the exact route's
accuracy on D=5 models between 4 and 13 digits, an origin dependence that a
metamorphic test should pin down rather than a per-seed median.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POPULATION_SEED = 2209
SWEEP_ORDERS = "2,4,6,8,10"
SWEEP_STEPS = "1001"
ZHENG3_EP_ORDERS = "10,20,30,40"
SERIES_ORDERS = (20, 40)
EXACT_ORDER = "6"

# (dimension, model-space size) of the random models in each workload
SHAPES = {
    "sweep": ((6, 3),),
    "ep-series": ((3, 2), (3, 2), (4, 2), (4, 2)),
    "ep-exact": ((5, 3), (5, 4)),
}
WORKLOADS = tuple(SHAPES)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the model file it reads (None: bundled)."""

    argv: tuple[str, ...]
    model: Path | None
    out: Path
    kind: str  # "sweep", "ep", "ep-exact" or "table1"
    order: int | None = None

    @property
    def label(self) -> str:
        """The command line without --out, model files by name only."""
        return " ".join(Path(a).name if a.endswith(".json") else a for a in self.argv[:-2])


def random_model(rng: np.random.Generator, dim: int, n_p: int) -> dict:
    """Well-separated diagonal, every off-diagonal pair coupled, random P space."""
    while True:
        h0 = np.sort(rng.uniform(-2.0, 2.0, dim))
        if np.min(np.diff(h0)) >= 0.05:
            break
    interaction = [
        [i, j, float(rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0)))]
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
    ]
    p_space = sorted(int(n) for n in rng.choice(np.arange(1, dim + 1), n_p, replace=False))
    return {
        "dimension": dim,
        "h0_diagonal": [float(x) for x in h0],
        "interaction": interaction,
        "p_space": p_space,
    }


def present(model: dict, rng: np.random.Generator) -> dict:
    """The same Hamiltonian with relabelled states, gauge signs and entry order."""
    dim = model["dimension"]
    perm = rng.permutation(dim)  # old 1-based index i becomes perm[i-1]+1
    signs = rng.choice((-1.0, 1.0), dim)
    h0 = [0.0] * dim
    for i, e in enumerate(model["h0_diagonal"]):
        h0[perm[i]] = e
    interaction = [
        [int(perm[i - 1]) + 1, int(perm[j - 1]) + 1, v * signs[i - 1] * signs[j - 1]]
        for i, j, v in model["interaction"]
    ]
    interaction = [interaction[k] for k in rng.permutation(len(interaction))]
    p_space = [int(perm[n - 1]) + 1 for n in model["p_space"]]
    p_space = [p_space[k] for k in rng.permutation(len(p_space))]
    return {"dimension": dim, "h0_diagonal": h0, "interaction": interaction, "p_space": p_space}


def population(workload: str) -> list[dict]:
    """The workload's models in their reference presentation."""
    rng = np.random.default_rng([POPULATION_SEED, WORKLOADS.index(workload)])
    return [random_model(rng, dim, n_p) for dim, n_p in SHAPES[workload]]


def seeded_models(workload: str, seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [present(m, rng) for m in population(workload)]


def write_models(workload: str, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, model in enumerate(seeded_models(workload, seed)):
        path = directory / f"model{index}.json"
        path.write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def commands(workload: str, models: list[Path], zheng3: Path, out: Path) -> list[Command]:
    """The closed-loop command list of one pass, in a fixed order."""
    out.mkdir(parents=True, exist_ok=True)
    cmds = []

    def add(argv, model, name, kind, order=None):
        path = out / name
        cmds.append(Command(tuple(argv) + ("--out", str(path)), model, path, kind, order))

    if workload == "sweep":
        for index, model in enumerate([zheng3] + models):
            add(["sweep", "--model", str(model), "--orders", SWEEP_ORDERS,
                 "--steps", SWEEP_STEPS], model, f"sweep{index}.csv", "sweep")
    elif workload == "ep-series":
        add(["ep", "--model", str(zheng3), "--orders", ZHENG3_EP_ORDERS],
            zheng3, "zheng3.json", "ep")
        for index, model in enumerate(models):
            for k in SERIES_ORDERS:
                add(["ep", "--model", str(model), "--orders", str(k)],
                    model, f"model{index}-K{k}.json", "ep", k)
    elif workload == "ep-exact":
        for index, model in enumerate(models):
            add(["ep", "--model", str(model), "--orders", EXACT_ORDER, "--exact"],
                model, f"model{index}.json", "ep-exact", int(EXACT_ORDER))
        add(["table1"], None, "table1.txt", "table1")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds
