"""Command-line verification driver.

Subcommands::

    minkabs verify-geometry    geometry and group invariant suites
    minkabs verify-covariance  localization covariance suites + convergence
    minkabs demo-causality     leakage sweeps and the commutator witness

Configuration is a flat JSON object (all keys optional); command-line
flags override file values.  ``build_model`` checks the whole config
before any work starts: finite float values, non-empty lists, 0.0 in
``rapidity_sweep``, the bounds of ``MINIMUM`` (seeds >= 0, ``states``
>= 1), ``delta_t_sweep`` entries > 0 (the zero interval is always its
own row), the band-limit cap on every rapidity, a ``rapidity`` that
moves some momentum label of the lattice (``moves_labels``) and a
buildable witness velocity at ``witness_rapidity``; each quantum
command then checks that its packets and inflated causal shadows fit
the lattice box.  That precheck makes no transform; ``demo-causality``
keeps the rasterized shadow of each trial it checks.  ``seed`` drives
the random draws of the first two commands; ``demo-causality`` draws
nothing at random.  Reports are deterministic JSON on stdout (or
``--out``; ``--csv``: the demo-causality sweep table).  Exit codes: 0
all checks passed, 1 a check failed, 2 usage or configuration error (a
config that needs more memory than is available, an unwritable
``--out``).  ``MINKABS_THREADS`` caps internal trial fan-out (default:
the CPUs this process may run on; 1 runs serially).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .geometry import GeometryError, MeasureScalar, seconds
from .groups import PoincareMap, make_boost, make_rotation
from .quantum import ModelConfig, apply_boost, make_gaussian
from .quantum import verify as V
from .quantum.state import check_packet_width, moves_labels
from .report import Checks, RunReport, sweep_csv
from .suites import run_geometry_suite

DEFAULTS = {
    "N": 32,
    "spacing_sec": 0.25,
    "mass_inv_sec": 1.0,
    "seed": 42,
    "rapidity": 0.25,
    "states": 50,
    "translations": 4,
    "convergence_seeds": [42, 43, 44],
    "delta_t_sweep": [0.5, 1.0, 2.0],
    "rapidity_sweep": [0.0, 0.1, 0.2],
    "witness_rapidity": 0.5,
}
# lower bounds of the keys that have one (of each entry, for lists)
MINIMUM = {"seed": 0, "states": 1, "translations": 0, "convergence_seeds": 0}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: dict) -> dict:
    config = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a flat JSON object")
        unknown = sorted(set(loaded) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config.update(loaded)
    config.update({k: v for k, v in overrides.items() if v is not None})
    return config


def _is_number(value) -> bool:
    # not math.isfinite, which raises on an int beyond the float range
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def build_model(config: dict) -> ModelConfig:
    """The lattice of a config, after checking every key before any work
    starts; a config that fails a check raises ``ConfigError``."""
    for key, default in DEFAULTS.items():
        value = config[key]
        if isinstance(default, list) and not (isinstance(value, list) and value):
            raise ConfigError(f"{key} must be a non-empty list")
        values = value if isinstance(default, list) else [value]
        if not all(map(_is_number, values)):
            raise ConfigError(f"{key} must hold finite float values")
        kind = default[0] if isinstance(default, list) else default
        if isinstance(kind, int) and not all(float(v).is_integer() for v in values):
            raise ConfigError(f"{key} must hold integers")  # int() would drop the fraction
        if min(values) < MINIMUM.get(key, -math.inf):
            raise ConfigError(f"{key} must be >= {MINIMUM[key]}")
    if 0.0 not in config["rapidity_sweep"]:
        raise ConfigError("rapidity_sweep must include 0.0, the rest observer")
    if min(config["delta_t_sweep"]) <= 0.0:
        raise ConfigError("delta_t_sweep entries must be > 0; the zero interval is its own row")
    try:
        cfg = ModelConfig(
            N=int(config["N"]),
            spacing=seconds(float(config["spacing_sec"])),
            mass=MeasureScalar(float(config["mass_inv_sec"]), -1),
        )
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    chi = max(abs(c) for c in [config["rapidity"], *config["rapidity_sweep"]])
    if chi > cfg.chi_max:
        raise ConfigError(f"rapidity {chi} exceeds the band-limit cap {cfg.chi_max:.4f}")
    if not moves_labels(cfg, V.boosted_velocity(float(config["rapidity"]))):
        raise ConfigError(
            f"rapidity {config['rapidity']} moves no momentum label of the N={cfg.N} lattice"
        )
    # the witnesses sit above the cap on purpose; their velocity must exist
    try:
        V.boosted_velocity(float(config["witness_rapidity"]))
    except (GeometryError, OverflowError) as exc:
        raise ConfigError(f"witness_rapidity has no velocity: {exc}") from exc
    return cfg


def _require_fit(cfg: ModelConfig, widths, trials=()) -> list:
    """Reject, before any quantum work, a lattice box too small for the packet
    ``widths`` or the inflated shadows of the ``(delta_t, u2, margin)`` trials;
    the ``causal_shadow`` of each trial, in order."""
    try:
        for width in widths:
            check_packet_width(cfg, width)
        return [V.causal_shadow(cfg, delta_t=dt, u2=u2, margin=margin) for dt, u2, margin in trials]
    except GeometryError as exc:
        raise ConfigError(f"{exc} (lattice box {cfg.box_length:g} s)") from exc


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def cmd_verify_geometry(config: dict) -> RunReport:
    build_model(config)  # the same config checks as the quantum commands
    return RunReport("verify-geometry", config, run_geometry_suite(seed=int(config["seed"])))


def cmd_verify_covariance(config: dict) -> RunReport:
    cfg = build_model(config)
    _require_fit(cfg, (3.0 * cfg.spacing.value, V.STANDARD_PACKET_WIDTH, V.WIDE_PACKET_WIDTH))
    seed = int(config["seed"])
    chi = float(config["rapidity"])
    witness_chi = float(config["witness_rapidity"])
    n_states, translations = int(config["states"]), int(config["translations"])
    stabilizer = V.run_stabilizer_suite(cfg, n_states, seed, translations)

    check = Checks(cfg.N)
    rng = np.random.default_rng(seed)
    white = V.random_states(cfg, rng, min(8, n_states))
    region = V.cell_region(cfg, (-3, -2, -4), (2, 3, 1))
    step = PoincareMap.from_translation(cfg.observer * seconds(0.7))
    rot = PoincareMap.from_homogeneous(
        make_rotation(cfg.observer, cfg.basis[2], np.pi / 2), cfg.origin
    )
    shift = PoincareMap.from_translation(cfg.lattice_vector((2, -3, 1)))
    residual = V.region_covariance_residual(cfg, step, region, white[:3])
    check("observer-step-label-change", residual, 1e-10)
    for name, S in (("rotation", rot), ("shift", shift), ("composite", shift.compose(rot))):
        residual = V.position_family_stabilizer_residual(cfg, S, white[:4])
        check(f"position-family/{name}", residual, 1e-10)
    check("fixed-label-not-a-vector", V.fixed_label_boost_witness(cfg, chi), 0.1, below=False)
    for name, u2, tolerance, below in (
        ("own-observer", cfg.observer, 1e-10, True),
        ("tilted-witness", V.boosted_velocity(witness_chi), 0.05, False),
    ):
        residual = V.space_component_residual(cfg, u2, rot, white[:4])
        check(f"space-component/{name}", residual, tolerance, below)
    check("time-variance/own-observer", V.own_time_variance(cfg, 100, seed), 0.0)
    residual = V.time_variance_witness(cfg, witness_chi)
    check("time-variance/tilted-witness", residual, 0.01, below=False)
    b = make_boost(cfg.observer, V.boosted_velocity(chi))
    packet = make_gaussian(cfg, width=cfg.spacing * 3.0)
    _, boost_report = apply_boost(packet, b, return_report=True)
    # measured drift of the default packet at quarter rapidity, frozen
    # with headroom; small boxes are wrap-tail dominated
    drift_bound = {8: 5e-1, 16: 5e-2, 32: 5e-4}.get(cfg.N, 1e-6)
    details = {"rapidity": chi, "rapidity_cap": cfg.chi_max}
    check("velocity-roundtrip-drift", boost_report.norm_drift, drift_bound, **details)
    check("global-equivariance", V.equivariance_residual(cfg, seed), 1e-10)
    rows = V.boost_convergence_rows(cfg, chi, tuple(int(s) for s in config["convergence_seeds"]))
    ratios = [r["ratio_to_previous"] for r in rows if r["ratio_to_previous"]]
    check("factorization-convergence-ratio", max(ratios), 0.6, seeds=len(ratios))
    echo = dict(config, **cfg.echo())
    return RunReport("verify-covariance", echo, stabilizer + check, {"boost_convergence": rows})


def cmd_demo_causality(config: dict) -> RunReport:
    cfg = build_model(config)
    check = Checks(cfg.N)
    a = cfg.spacing.value
    # the observer of each sweep rapidity; None is the constructing one
    observer = {c: V.boosted_velocity(float(c)) if c else None for c in config["rapidity_sweep"]}
    sweep = [(float(dt), chi) for dt in config["delta_t_sweep"] for chi in config["rapidity_sweep"]]
    rows = [(0.0, 0.0), *sweep]
    longest = float(max(config["delta_t_sweep"]))
    # the 0.2-spacing margin is the default of the sweep's rest trial at ``longest``
    trials = [(dt, observer[chi], None) for dt, chi in rows] + [(longest, None, 0.4 * a)]
    shadows = _require_fit(cfg, (3.0 * a,), trials)
    # every trial at once, so under --timings the first leakage check covers them all
    *leaks, wide = V.causality_leakages(cfg, V.localized_state(cfg), shadows)
    leakage = dict(zip(rows, leaks))  # (delta_t, chi) -> leakage of that trial
    check("leakage/zero-interval", leakage[0.0, 0.0], 1e-10)
    for suffix, boosted in (("", False), ("-boosted", True)):
        kind = [leakage[dt, chi] for dt, chi in sweep if bool(chi) is boosted]
        if kind:
            check(f"leakage/strictly-positive{suffix}", min(kind), 1e-6, below=False)
    table = [
        {"delta_t_sec": dt, "rapidity": float(chi), "leakage": leakage[dt, chi], "N": cfg.N}
        for dt, chi in rows
    ]
    check("leakage/margin-doubling-stable", abs(leakage[longest, 0.0] - wide), 1e-10)
    check("commutator/cross-instant-witness", V.commutator_witness(cfg), 1e-4, below=False)
    reg_b = V.cell_region(cfg, *V.WITNESS_CELLS[1])  # on a's instant
    check("commutator/same-instant-disjoint", V.commutator_witness(cfg, region_b=reg_b), 1e-12)
    return RunReport("demo-causality", dict(config, **cfg.echo()), check, {"leakage_sweep": table})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


COMMANDS = {
    "verify-geometry": cmd_verify_geometry,
    "verify-covariance": cmd_verify_covariance,
    "demo-causality": cmd_demo_causality,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkabs",
        description="verification suites for the localization lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--lattice", type=int, help="override lattice points per axis")
        p.add_argument(
            "--timings", action="store_true", help="include wall-clock timings"
        )
        if name == "demo-causality":
            p.add_argument("--csv", action="store_true", help="sweep table as CSV")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"seed": args.seed, "N": args.lattice}
    try:
        report = COMMANDS[args.command](load_config(args.config, overrides))
    except (ConfigError, MemoryError) as exc:
        why = "it needs more memory than is available: " if isinstance(exc, MemoryError) else ""
        print(f"configuration error: {why}{exc}", file=sys.stderr)
        return 2

    if getattr(args, "csv", False):
        payload = sweep_csv(report.tables["leakage_sweep"])
    else:
        payload = report.to_json(include_timings=args.timings) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
