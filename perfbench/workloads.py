"""The benchmark's workloads and their seeded input generator.

Each workload is a fixed list of ``drbsde-lab run`` experiments.  The seed
moves only data -- obstacle shifts, rail offsets and the experiment seeds
(Dynkin saddle sampling, axiom cases, hypothesis samples, Monte Carlo paths)
-- never kinds or sizes, so the amount of work does not depend on it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

DRIVER_FILE = "driver.npz"

WHY = {
    "verify-battery": (
        "oracle and route checks on small lattices with a tabulated nonlinear "
        "driver: step kernel, implicit fixed point, driver evaluation and the "
        "Dynkin pair table do the work, dumps almost none"
    ),
    "tree-dump": (
        "big-lattice solves whose time is the solution dumps: both node-id "
        "formats and both CSV writers, solve under 5% of the run"
    ),
    "mc-paths": (
        "the only workload that calls mc: path simulation and regression "
        "dominate, and its path bundle is the largest allocation"
    ),
}

WORKLOADS = tuple(WHY)


def _shift(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _rails(rng: random.Random) -> dict:
    """Terminal data between two strictly separated, seed-shifted rails."""
    kink = _shift(rng, -0.9, -0.6)
    base = f"max(state, {kink})"
    return {
        "terminal": base,
        "lower": f"{base} - {_shift(rng, 0.2, 0.35)} - 0.1*t",
        "upper": f"{base} + {_shift(rng, 0.2, 0.35)} + 0.1*t",
    }


def write_driver_file(path: Path) -> None:
    """Tabulated ``0.5*tanh(y) + 0.3*sin(z)`` with honest declared constants.

    The grid is separable and contains 0 on both axes, so multilinear
    interpolation keeps the slopes (0.5 in y, 0.3 in z) and the growth bounds
    behind ``kappa = lam = alpha = 0.5`` and ``h = 0``.
    """
    y = np.linspace(-4.0, 4.0, 81)
    z = np.linspace(-4.0, 4.0, 81)
    grid = 0.5 * np.tanh(y)[:, None] + 0.3 * np.sin(z)[None, :]
    values = np.broadcast_to(grid, (2, 1, y.size, z.size))
    np.savez(
        path,
        t=np.array([0.0, 1.0]),
        state=np.array([0.0]),
        y=y,
        z=z,
        values=values,
        kappa=0.5,
        lam=0.5,
        alpha=0.5,
        h=0.0,
    )


def _verify_battery(rng: random.Random, driver: str, small: bool) -> dict:
    game = _rails(rng)
    pen = _rails(rng)
    paste = _rails(rng)
    return {
        "dynkin-verify": {
            "kind": "dynkin-verify",
            "lattice": {"T": 1.0, "N": 3 if small else 4, "mode": "full-tree"},
            "scheme": "implicit",
            "generator": "linear:-0.5,0.3",
            **game,
            "seed": rng.randrange(1 << 30),
        },
        "penalization": {
            "kind": "penalization",
            "lattice": {"T": 1.0, "N": 30 if small else 150, "mode": "recombining"},
            "scheme": "implicit",
            "side": "upper",
            "generator": driver,
            "terminal": pen["terminal"],
            "upper": pen["upper"],
        },
        "pasting": {
            "kind": "pasting",
            "lattice": {"T": 1.0, "N": 5 if small else 10, "mode": "full-tree"},
            "scheme": "implicit",
            "generator": driver,
            **paste,
        },
        "axioms": {
            "kind": "axioms",
            "lattice": {"T": 1.0, "N": 5 if small else 10, "mode": "full-tree"},
            "scheme": "implicit",
            "generator": "linear:-0.5,0.3",
            "cases": 5 if small else 50,
            "seed": rng.randrange(1 << 30),
        },
        "hypotheses": {
            "kind": "hypotheses",
            "generator": driver,
            "samples": 2000 if small else 20000,
            "seed": rng.randrange(1 << 30),
        },
    }


def _tree_dump(rng: random.Random, small: bool) -> dict:
    game = _rails(rng)
    one = _rails(rng)
    plain = _rails(rng)
    return {
        "drbsde": {
            "kind": "drbsde",
            "lattice": {"T": 1.0, "N": 10 if small else 17, "mode": "full-tree"},
            "generator": "linear:-0.5,0.3",
            **game,
        },
        "rbsde": {
            "kind": "rbsde",
            "lattice": {"T": 1.0, "N": 60 if small else 500, "mode": "recombining"},
            "side": "upper",
            "generator": "linear:-0.5,0.3",
            "terminal": one["terminal"],
            "upper": one["upper"],
        },
        "bsde": {
            "kind": "bsde",
            "lattice": {"T": 1.0, "N": 50 if small else 400, "mode": "recombining"},
            "scheme": "implicit",
            "generator": "linear:-0.5,0.3",
            "terminal": plain["terminal"],
        },
    }


def _mc_paths(rng: random.Random, small: bool) -> dict:
    return {
        "mc-crosscheck": {
            "kind": "mc-crosscheck",
            "lattice": {"T": 1.0, "N": 16, "mode": "recombining"},
            "generator": "linear:-0.5,0.3",
            **_rails(rng),
            "mc": {"M": 5000 if small else 100_000, "degree": 3},
            "seed": rng.randrange(1 << 30),
        },
    }


def make_configs(workload: str, seed: int, driver_path: str, small: bool = False) -> dict:
    """Experiment name -> config dict, a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-battery":
        return _verify_battery(rng, f"driver-file:{driver_path}", small)
    if workload == "tree-dump":
        return _tree_dump(rng, small)
    if workload == "mc-paths":
        return _mc_paths(rng, small)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, directory: Path, small: bool = False) -> dict:
    """Write the configs (and the driver file) into ``directory``.

    Returns experiment name -> config path, in run order.
    """
    directory.mkdir(parents=True, exist_ok=True)
    driver = directory / DRIVER_FILE
    configs = make_configs(workload, seed, str(driver.resolve()), small)
    if any(c["generator"].startswith("driver-file:") for c in configs.values()):
        write_driver_file(driver)
    paths = {}
    for name, cfg in configs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def node_count(config: dict) -> int:
    """Lattice nodes of an experiment, i.e. data rows of its solution.csv."""
    spec = config["lattice"]
    n = int(spec["N"])
    if spec.get("mode", "recombining") == "full-tree":
        return (1 << (n + 1)) - 1
    return (n + 1) * (n + 2) // 2


def largest_array_bytes(configs: dict) -> int:
    """Computed size of the largest single numpy array a workload allocates."""
    sizes = [0]
    for cfg in configs.values():
        spec = cfg.get("lattice")
        if spec is None:
            sizes.append(8 * int(cfg.get("samples", 2000)))
            continue
        n = int(spec["N"])
        full = spec.get("mode") == "full-tree"
        sizes.append(8 * (1 << n if full else n + 1))  # one terminal slice
        if cfg["kind"] == "dynkin-verify":
            rules = 1
            for _ in range(n):
                rules = 1 + rules * rules
            sizes.append(8 * min(64, rules) * rules * (1 << n))  # pair-table block
        if cfg["kind"] == "mc-crosscheck":
            sizes.append(8 * int(cfg["mc"]["M"]) * (n + 1))  # path states
    return max(sizes)

