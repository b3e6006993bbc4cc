"""The benchmark's workloads: one pass each, with its report and gates.

A workload is built from the seed alone (the program sees only the
generated config and arguments) and run as whole passes.  Each pass
returns the report it produced, with wall-clock timings zeroed, and one
boolean per program gate.  Every program call goes through a module
attribute looked up at call time (``V.run_stabilizer_suite``,
``cli.main``), so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import NamedTuple

import numpy as np

from minkabs import cli
from minkabs.groups import make_boost
from minkabs.quantum import LatticeState, apply_boost
from minkabs.quantum import verify as V
from minkabs.report import RunReport

# white states of the stabilizer suite (the CLI default is 50)
STABILIZER_STATES = 10
# the boost-refine study: one convergence seed at the default rapidity,
# N=32 then N=64, one smooth state and two shifts (16 single-state pullbacks)
BOOST_STATES = 1
# gate of the CLI's factorization-convergence-ratio check
CONVERGENCE_RATIO_MAX = 0.6
# seed of the states on which the kernel error is measured
PROBE_SEED = 42


class Pass(NamedTuple):
    """Result of one workload pass."""

    report: str
    gates: list[bool]


class StabilizerExact:
    """``verify.run_stabilizer_suite`` at the default lattice: 56 stabilizer
    elements on 10 white states at N=32, exact paths only."""

    def __init__(self, seed: int):
        self.config = dict(cli.DEFAULTS, seed=seed, states=STABILIZER_STATES)
        self.cfg = cli.build_model(self.config)

    def run(self) -> Pass:
        checks = V.run_stabilizer_suite(
            self.cfg,
            n_states=int(self.config["states"]),
            seed=int(self.config["seed"]),
            translations=int(self.config["translations"]),
        )
        report = RunReport("stabilizer-exact", dict(self.config, **self.cfg.echo()))
        for check in checks:
            report.add(check)
        return Pass(report.to_json(), [c.passed for c in checks])


class BoostRefine:
    """``verify.boost_convergence_rows`` for one seed: the velocity-change
    pullback at N=32 and N=64."""

    def __init__(self, seed: int):
        self.config = dict(cli.DEFAULTS, seed=seed)
        self.cfg = cli.build_model(self.config)

    def run(self) -> Pass:
        rows = V.boost_convergence_rows(
            self.cfg,
            chi=float(self.config["rapidity"]),
            seeds=(int(self.config["seed"]),),
            n_states=BOOST_STATES,
            refinements=1,
        )
        ratios = [r["ratio_to_previous"] for r in rows if r["ratio_to_previous"]]
        gates = [len(ratios) == 1] + [r <= CONVERGENCE_RATIO_MAX for r in ratios]
        return Pass(json.dumps(rows, sort_keys=True, allow_nan=False), gates)


class LightCli:
    """``minkabs demo-causality`` then ``minkabs verify-geometry`` at
    defaults, in process, reports captured in memory."""

    def __init__(self, seed: int):
        self.argvs = [
            ["demo-causality", "--seed", str(seed)],
            ["verify-geometry", "--seed", str(seed)],
        ]

    def run(self) -> Pass:
        parts, gates = [], []
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            report = json.loads(out.getvalue())
            gates.append(code == 0)
            gates.extend(bool(c["passed"]) for c in report["checks"])
            parts += [out.getvalue(), err.getvalue(), f"exit {code}\n"]
        return Pass("".join(parts), gates)


WORKLOADS = {
    "stabilizer-exact": StabilizerExact,
    "boost-refine": BoostRefine,
    "light-cli": LightCli,
}


def boost_error_probe() -> dict[str, float]:
    """Absolute error of ``apply_boost`` against the direct-sum reference,
    at N=32 and N=64, on the boost-refine states of ``PROBE_SEED``.

    The states are pinned rather than taken from the run's seed: the
    error differs about twofold between the states of different seeds,
    far more than any regression bound, while on pinned states it moves
    only when the kernel does.
    """
    from oracle import exact_boost

    cfg = cli.build_model(cli.DEFAULTS)
    boost = make_boost(cfg.observer, V.boosted_velocity(float(cli.DEFAULTS["rapidity"])))
    errors = {}
    for _ in range(2):
        states = V.smooth_states(cfg, np.random.default_rng(PROBE_SEED), BOOST_STATES)
        errors[f"N{cfg.N}"] = max(
            float(np.linalg.norm(apply_boost(LatticeState(cfg, s), boost).psi - exact_boost(cfg, s, boost)))
            for s in states
        )
        cfg = cfg.refined()
    return errors
