"""Which names the traced run wraps, and the per-layer metrics it reports.

Spans sit at the calls that cross a layer boundary:

* the FFT entry points of ``numpy.fft`` and ``scipy.fft`` and the
  interpolation entry point ``scipy.ndimage.map_coordinates``, plus any
  alias of them bound in a program module;
* the ``minkabs.quantum.state`` and ``minkabs.quantum.pvm`` functions
  that ``pvm``, ``verify`` and ``cli`` call by name, rebound in the
  calling module's namespace;
* the ``minkabs.groups`` constructors and maps (module functions
  rebound where they are imported, methods on their classes);
* the verification drivers in ``minkabs.quantum.verify``,
  ``minkabs.suites.run_geometry_suite`` and ``minkabs.cli.main``.

Every ``.s`` metric is self time (a span minus its child spans), so the
layer times partition the traced pass; ``verify.<driver>.s`` is the
exception and covers the driver with everything it calls.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict

import numpy as np
import numpy.fft
import scipy.fft
import scipy.ndimage

from minkabs import cli, geometry, groups, report, suites
from minkabs.quantum import config, pvm, state, verify
from minkabs.quantum.state import signed_permutation_of

PROGRAM_MODULES = (geometry, groups, report, suites, cli, config, state, pvm, verify)
# transform entry points and the axes each transforms by default (None: all)
FFT_FUNCS = {
    "fft": (-1,),
    "ifft": (-1,),
    "fft2": (-2, -1),
    "ifft2": (-2, -1),
    "fftn": None,
    "ifftn": None,
}

STATE_CALLS = {
    pvm: ("_to_momentum", "_to_position", "represent_array"),
    verify: ("make_gaussian", "represent_array", "_to_momentum", "_to_position"),
    cli: ("apply_boost", "make_gaussian"),
}
PVM_CALLS = {
    # pvm's own calls by name; verify's function-local imports of
    # _pullback_region and _project_raw read these bindings too
    pvm: ("rasterize", "canonical_map", "_pullback_region", "_project_raw", "_stats_weights"),
    verify: (
        "canonical_map",
        "localization_probability",
        "nw_component_stats",
        "position_multipliers",
        "pvm_project",
        "rasterize",
    ),
}
GROUPS_CALLS = {
    verify: ("grow_region_causally", "lattice_point_group", "make_boost"),
    pvm: ("make_boost",),
    cli: ("make_boost", "make_rotation"),
    suites: ("grow_region_causally", "make_boost", "make_rotation", "time_inversion"),
}
GROUPS_METHODS = {
    groups.LorentzMap: ("__call__", "transform_velocity", "compose", "inverse"),
    groups.PoincareMap: (
        "__call__",
        "compose",
        "inverse",
        "transform_instant",
        "transform_region",
        "from_translation",
        "from_homogeneous",
    ),
    groups.Region: ("__init__",),
}
VERIFY_DRIVERS = (
    "run_stabilizer_suite",
    "stabilizer_elements",
    "stabilizer_covariance_residual",
    "_conjugate_mask",
    "random_states",
    "smooth_states",
    "cell_region",
    "boosted_velocity",
    "boost_convergence_rows",
    "factorization_residual",
    "causality_experiment",
    "commutator_witness",
    "_project_arr",
)
REPORTED_DRIVERS = (
    "run_stabilizer_suite",
    "stabilizer_covariance_residual",
    "boost_convergence_rows",
    "factorization_residual",
    "causality_experiment",
    "commutator_witness",
)
PROJECT_SPANS = (
    "pvm._project_raw",
    "pvm.pvm_project",
    "pvm.localization_probability",
    "pvm.canonical_map",
    "pvm._pullback_region",
)
STATS_SPANS = ("pvm.nw_component_stats", "pvm._stats_weights", "pvm.position_multipliers")
REPRESENT_SPANS = ("state.represent_array", "state.apply_boost")

# name -> (unit, better), in report order
PER_LAYER = {
    "fft.calls": ("count", "lower"),
    "fft.points": ("count", "lower"),
    "fft.flop_computed": ("flop", "lower"),
    "fft.bytes_computed": ("B", "lower"),
    "fft.s": ("s", "lower"),
    "interp.calls": ("count", "lower"),
    "interp.points": ("count", "lower"),
    "interp.s": ("s", "lower"),
    "state.represent.calls": ("count", "lower"),
    "state.represent.s": ("s", "lower"),
    "state.velocity_states": ("count", "lower"),
    "state.exact_states": ("count", "lower"),
    "state.velocity_s_per_state.N32": ("s", "lower"),
    "state.velocity_s_per_state.N64": ("s", "lower"),
    "state.drift_max": ("ratio", "lower"),
    "pvm.rasterize.calls": ("count", "lower"),
    "pvm.rasterize.s": ("s", "lower"),
    "pvm.project.calls": ("count", "lower"),
    "pvm.project.covariant_calls": ("count", "lower"),
    "pvm.project.s": ("s", "lower"),
    "pvm.stats.s": ("s", "lower"),
    "groups.calls": ("count", "lower"),
    "groups.s": ("s", "lower"),
    "suites.geometry.s": ("s", "lower"),
    "cli.glue_s": ("s", "lower"),
    **{f"verify.{d}.s": ("s", "lower") for d in REPORTED_DRIVERS},
    "verify.glue_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
}

# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = (
    "fft.calls",
    "fft.points",
    "interp.points",
    "state.velocity_states",
    "state.exact_states",
    "pvm.rasterize.calls",
    "pvm.project.calls",
)


# ---------------------------------------------------------------------------
# hooks: work counts recorded on a span
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _fft_attrs(default_axes, args, kwargs, result):
    src = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    one_d = default_axes is not None and len(default_axes) == 1
    axes = _arg(args, kwargs, 2, "axis" if one_d else "axes")
    if axes is None:
        axes = range(result.ndim) if default_axes is None else default_axes
    elif isinstance(axes, int):
        axes = (axes,)
    n = math.prod(result.shape[ax] for ax in axes)
    transforms = result.size // n
    return {
        "points": result.size,
        "flop": 5.0 * n * math.log2(n) * transforms if n > 1 else 0.0,
        "bytes": src.nbytes + result.nbytes,
    }


def _interp_attrs(args, kwargs, result):
    coords = np.asarray(_arg(args, kwargs, 1, "coordinates"))
    return {"points": coords.size // coords.shape[0]}


def _is_velocity(cfg, L) -> bool:
    # the time twist of represent_array keeps this classification
    return not np.array_equal(L.matrix, np.eye(4)) and signed_permutation_of(cfg, L) is None


def _represent_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    arr = _arg(args, kwargs, 1, "arr")
    P = _arg(args, kwargs, 2, "P")
    return {
        "N": cfg.N,
        "states": arr.size // cfg.N**3,
        "velocity": _is_velocity(cfg, P.linear),
        "drift": float(result[1]),
    }


def _apply_boost_attrs(args, kwargs, result):
    st = _arg(args, kwargs, 0, "state")
    L = _arg(args, kwargs, 1, "L")
    drift = result[1].norm_drift if isinstance(result, tuple) else 0.0
    return {"N": st.cfg.N, "states": 1, "velocity": _is_velocity(st.cfg, L), "drift": drift}


def _project_attrs(args, kwargs, result):
    handle = _arg(args, kwargs, 0, "handle")
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"covariant": not handle.is_constructing(cfg)}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _wrap_everywhere(tracer, owner, attr, name, hook):
    """Wrap a library entry point and every alias of it in program modules."""
    original = getattr(owner, attr)
    tracer.wrap(owner, attr, name, hook)
    for module in PROGRAM_MODULES:
        for alias, value in list(vars(module).items()):
            if value is original:
                tracer.wrap(module, alias, name, hook)


def install(tracer) -> None:
    for lib, label in ((numpy.fft, "numpy"), (scipy.fft, "scipy")):
        for fname, axes in FFT_FUNCS.items():
            hook = functools.partial(_fft_attrs, axes)
            _wrap_everywhere(tracer, lib, fname, f"fft.{label}.{fname}", hook)
    _wrap_everywhere(
        tracer, scipy.ndimage, "map_coordinates", "interp.map_coordinates", _interp_attrs
    )
    hooks = {
        "represent_array": _represent_attrs,
        "apply_boost": _apply_boost_attrs,
        "_project_raw": _project_attrs,
    }
    for layer, table in (("state", STATE_CALLS), ("pvm", PVM_CALLS), ("groups", GROUPS_CALLS)):
        for module, names in table.items():
            for attr in names:
                tracer.wrap(module, attr, f"{layer}.{attr}", hooks.get(attr))
    for cls, names in GROUPS_METHODS.items():
        for attr in names:
            tracer.wrap(cls, attr, f"groups.{cls.__name__}.{attr}")
    for attr in VERIFY_DRIVERS:
        tracer.wrap(verify, attr, f"verify.{attr}")
    tracer.wrap(cli, "run_geometry_suite", "suites.run_geometry_suite")
    tracer.wrap(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def summarize(tracer, root: int, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the spans under ``root`` (the traced pass)."""
    names = tracer.names
    own = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    sums = defaultdict(float)
    vel_time = defaultdict(float)
    vel_states = defaultdict(int)
    drift_max = 0.0
    for idx in range(root + 1, len(tracer.spans)):
        nid, start, end, _ = tracer.spans[idx]
        name = names[nid]
        calls[name] += 1
        self_s[name] += own[idx]
        incl_s[name] += end - start
        attrs = tracer.attrs.get(idx)
        if not attrs:
            continue
        layer = name.split(".", 1)[0]
        if layer in ("fft", "interp"):
            for key, value in attrs.items():
                sums[f"{layer}.{key}"] += value
        elif name in REPRESENT_SPANS:
            if attrs["velocity"]:
                sums["velocity_states"] += attrs["states"]
                vel_states[attrs["N"]] += attrs["states"]
                vel_time[attrs["N"]] += end - start
            else:
                sums["exact_states"] += attrs["states"]
            drift_max = max(drift_max, attrs["drift"])
        elif name == "pvm._project_raw" and attrs["covariant"]:
            sums["covariant"] += 1

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def over(table, keys):
        return sum(table[k] for k in keys)

    wall = tracer.spans[root][2] - tracer.spans[root][1]
    out = {
        "fft.calls": total(calls, "fft."),
        "fft.points": sums["fft.points"],
        "fft.flop_computed": sums["fft.flop"],
        "fft.bytes_computed": sums["fft.bytes"],
        "fft.s": total(self_s, "fft."),
        "interp.calls": total(calls, "interp."),
        "interp.points": sums["interp.points"],
        "interp.s": total(self_s, "interp."),
        "state.represent.calls": over(calls, REPRESENT_SPANS),
        "state.represent.s": over(self_s, REPRESENT_SPANS),
        "state.velocity_states": sums["velocity_states"],
        "state.exact_states": sums["exact_states"],
        "state.drift_max": drift_max,
        "pvm.rasterize.calls": calls["pvm.rasterize"],
        "pvm.rasterize.s": self_s["pvm.rasterize"],
        "pvm.project.calls": calls["pvm._project_raw"],
        "pvm.project.covariant_calls": sums["covariant"],
        "pvm.project.s": over(self_s, PROJECT_SPANS),
        "pvm.stats.s": over(self_s, STATS_SPANS),
        "groups.calls": total(calls, "groups."),
        "groups.s": total(self_s, "groups."),
        "suites.geometry.s": self_s["suites.run_geometry_suite"],
        "cli.glue_s": self_s["cli.main"],
        "verify.glue_s": total(self_s, "verify."),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.coverage_frac": 1.0 - own[root] / wall,
    }
    for n in (32, 64):
        out[f"state.velocity_s_per_state.N{n}"] = (
            vel_time[n] / vel_states[n] if vel_states[n] else 0.0
        )
    for d in REPORTED_DRIVERS:
        out[f"verify.{d}.s"] = incl_s[f"verify.{d}"]
    return {k: float(out[k]) for k in PER_LAYER}
