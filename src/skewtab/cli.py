"""Command line interface.

Each verb is one path: its flags, one library call, then its print.  It
returns the files it wrote, in write order, and `main` turns that list into
the run's manifest (default skewtab_run.json): the subcommand, its flags,
the seed of a sampling run, the package version, wall time, and a sha256 of
each file written, so results can be traced back to the exact invocation.
Exit codes: 0 success, 2 bad input, 3 resource guard; only a successful run
leaves a manifest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ResourceGuardError, check_eps
from .exact import count_brute_force, count_determinant, thick_hook_constant
from .nhlf import (count_nhlf, finite_n_constant, hook_weights, tiling_weight,
                   uniform_weights)
from .render import render_density, render_tiling
from .sampler import density, sample
from .serialize import (load_density, load_profile, load_shape, load_tiling,
                        save_density, save_mesh, save_terms, save_tiling,
                        save_tilings)
from .shapes import (thick_hook_profile, thick_hook_shape_of_size,
                     thick_ribbon_profile, thick_ribbon_shape_of_size)
from .tiling import ENUM_GUARD, enumerate_H
from .varsolve import (DEFAULT_EPS, DEFAULT_MESH, DEFAULT_TOL,
                       build_functional, constant, maximize,
                       unit_hexagon_functional)

_G = "{:.12g}".format


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _decimal(n: int) -> str:
    """Decimal digits of a nonnegative integer of any length.

    str() refuses integers longer than the interpreter's digit limit (4300
    by default), which exact counts of a few thousand cells exceed.  Splitting
    at a power of ten keeps each str() call under the limit without changing
    the limit for the rest of the process.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10 ** half)
    return _decimal(hi) + _decimal(lo).zfill(half)


# ---------------------------------------------------------------------------
# subcommands: each returns the paths it wrote, in write order


def _cmd_count(args) -> list[str]:
    count = {"nhlf": count_nhlf, "det": count_determinant,
             "brute": count_brute_force}[args.method]
    print(_decimal(count(load_shape(args.shape))))
    return []


def _cmd_enumerate(args) -> list[str]:
    shape = load_shape(args.shape)
    tilings = enumerate_H(shape, guard=args.guard)
    print(len(tilings))
    if args.out:
        save_tilings(tilings, args.out)
    if args.terms:
        w = hook_weights(shape)
        rows = [(i, tiling_weight(t, w), sorted(t.type3_cells()))
                for i, t in enumerate(tilings)]
        save_terms(rows, args.terms)
    return [p for p in (args.out, args.terms) if p]


def _cmd_sample(args) -> list[str]:
    shape = load_shape(args.shape)
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    w = {"uniform": uniform_weights,
         "hook": lambda: hook_weights(shape)}[args.weights]()
    samples = sample(shape, w, burn_in=args.burn, n_samples=args.samples,
                     thin=args.thin, seed=args.seed)
    c1, c2, c3 = np.sum([t.counts() for t in samples], axis=0).tolist()
    print(f"samples {len(samples)} type_totals {c1} {c2} {c3}")
    if args.density:
        save_density(density(samples), args.density)
    if args.out:
        save_tiling(samples[-1], args.out)
    return [p for p in (args.density, args.out) if p]


def _cmd_solve(args) -> list[str]:
    if args.profile == "hexagon":
        check_eps(args.eps)
        functional = unit_hexagon_functional()
    else:
        functional = build_functional(load_profile(args.profile), eps=args.eps)
    mesh = maximize(functional, mesh_n=args.mesh, tol=args.tol)
    print(f"psi {_G(mesh.psi_value)}")
    print(f"gap {_G(mesh.gap)}")
    print(f"kkt_residual {_G(mesh.kkt_residual)}")
    print(f"refine_gap {_G(mesh.refine_gap)}")
    for i, level in enumerate(mesh.levels, 1):
        print(f"level {i} nodes {level.nodes} steps {level.steps} "
              f"phase1_steps {level.phase1_steps} "
              f"start_mu {_G(level.start_mu)} blend {_G(level.blend)} "
              f"mu {_G(level.mu)} "
              f"gap {_G(level.gap)} psi {_G(level.psi)} "
              f"seconds {level.seconds:.3g} converged {level.converged}")
    if args.out:
        save_mesh(mesh, args.out)
    return [args.out] if args.out else []


def _cmd_constant(args) -> list[str]:
    profile = load_profile(args.profile)
    res = constant(profile, eps=args.eps, tol=args.tol, mesh_n=args.mesh)
    if args.json:
        doc = {"value": res.value, "psi_max": res.psi_max, "k_psi": res.k_psi,
               "budget": res.budget}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(_G(res.value))
    return []


def _cmd_render(args) -> list[str]:
    if bool(args.tiling) == bool(args.density):
        raise ValueError("render needs exactly one of --tiling or --density")
    if args.density:
        render_density(load_density(args.density), args.out)
    elif not args.shape:
        raise ValueError("--tiling also needs --shape")
    else:
        render_tiling(load_tiling(args.tiling, load_shape(args.shape)),
                      args.out)
    return [args.out]


def _series_limit(family, sides, size) -> float:
    """Limit of family's finite-N constants at N = size(k), k in sides:
    log f = N log N / 2 + cN + a sqrt(N) + b log N + d with N ~ k^2 fits
    {1, 1/k, log k / k^2, 1/k^2}."""
    vals = finite_n_constant(family, [size(k) for k in sides])
    basis = np.array([[1.0, 1.0 / k, math.log(k) / k ** 2, 1.0 / k ** 2]
                      for k in sides])
    return float(np.linalg.lstsq(basis, np.array(vals), rcond=None)[0][0])


def _check(label: str, value: float, target, tol: float = 0.0,
           quote: bool = True) -> bool:
    """Print one repro line, ending PASS or FAIL, and return whether it passed.

    A tuple target is a band (lo, hi) that value must lie in; a number is a
    closed form that value must be within tol of, quoted in the line unless
    quote is False.
    """
    if isinstance(target, tuple):
        ok = target[0] <= value <= target[1]
        test = f"band [{target[0]}, {target[1]}]"
    else:
        err = abs(value - target)
        ok = err < tol
        test = (f"closed form {_G(target)} " if quote else "") + \
            f"|diff| {_G(err)}"
    print(f"{label} {_G(value)} {test} {'PASS' if ok else 'FAIL'}")
    return ok


def _cmd_repro(args) -> list[str]:
    """Re-derive the headline numbers and report PASS/FAIL per target."""
    targets = ["hexagon", "thick-hook", "ribbon"] if args.target == "all" \
        else [args.target]
    failures = 0
    for name in targets:
        if name == "hexagon":
            mesh = maximize(unit_hexagon_functional(), mesh_n=args.mesh)
            # entropy of unit boxed plane partitions, lim log M(n,n,n) / n^2
            ok = _check("hexagon entropy", mesh.psi_value,
                        4.5 * math.log(3.0) - 6.0 * math.log(2.0), 5e-3)
        elif name == "thick-hook":
            target = thick_hook_constant(1.0, 1.0)
            res = constant(thick_hook_profile(1.0, 1.0), mesh_n=args.mesh)
            ok = _check("thick-hook constant", res.value, target, 1e-2)
            limit = _series_limit(thick_hook_shape_of_size, range(12, 21),
                                  lambda k: 3 * k * k)
            ok = _check("thick-hook finite-N extrapolation", limit, target,
                        2e-2, quote=False) and ok
        else:
            band = (-0.3237, -0.0621)
            res = constant(thick_ribbon_profile(), mesh_n=args.mesh)
            ok = _check("ribbon constant", res.value, band)
            limit = _series_limit(thick_ribbon_shape_of_size, range(4, 13),
                                  lambda k: k * (3 * k - 1) // 2)
            ok = _check("ribbon finite-N extrapolation", limit, band) and ok
        failures += not ok
    if failures:
        raise ValueError(f"{failures} repro target(s) FAILED")
    return []


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a pre-subcommand value from being overwritten
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", default=argparse.SUPPRESS,
                        help="where to write the run manifest")
    common.add_argument("--no-manifest", action="store_true",
                        default=argparse.SUPPRESS,
                        help="skip writing the run manifest")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--mesh", type=int, default=DEFAULT_MESH)
    solver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    solver.add_argument("--eps", type=float, default=DEFAULT_EPS)

    ap = argparse.ArgumentParser(
        prog="skewtab",
        description="Skew tableau counting, lozenge tilings, and limit shapes",
        parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    p = add_parser("count", help="standard tableau count of a skew shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--method", default="nhlf",
                   choices=["nhlf", "det", "brute"],
                   help="nhlf (default): the hook sum over tilings; det is "
                        "the Aitken determinant, brute the layered "
                        "enumeration")
    p.set_defaults(func=_cmd_count)

    p = add_parser("enumerate", help="list all tilings of a shape's region")
    p.add_argument("--shape", required=True)
    p.add_argument("--out", help="write tilings as JSON")
    p.add_argument("--terms", help="write per-tiling hook weight terms as CSV")
    p.add_argument("--guard", type=int, default=ENUM_GUARD)
    p.set_defaults(func=_cmd_enumerate)

    p = add_parser("sample", help="Markov chain sampling of tilings")
    p.add_argument("--shape", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--burn", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="uniform",
                   choices=["uniform", "hook"])
    p.add_argument("--density", help="write type frequencies as CSV")
    p.add_argument("--out", help="write the last sample as tiling JSON")
    p.set_defaults(func=_cmd_sample)

    p = add_parser("solve", solver, help="maximize the limit shape functional")
    p.add_argument("--profile", required=True,
                   help="profile JSON, or the literal 'hexagon'")
    p.add_argument("--out", help="write solved node heights as CSV")
    p.set_defaults(func=_cmd_solve)

    p = add_parser("constant", solver,
                   help="growth constant of a profile family")
    p.add_argument("--profile", required=True)
    p.add_argument("--json", action="store_true",
                   help="print value, parts and error budget as JSON")
    p.set_defaults(func=_cmd_constant)

    p = add_parser("render", help="draw a tiling or density as SVG")
    p.add_argument("--tiling")
    p.add_argument("--shape")
    p.add_argument("--density")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = add_parser("repro", help="re-derive headline numbers, PASS/FAIL")
    p.add_argument("--target", default="all",
                   choices=["all", "hexagon", "thick-hook", "ribbon"])
    p.add_argument("--mesh", type=int, default=DEFAULT_MESH)
    p.set_defaults(func=_cmd_repro)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        outputs = args.func(args)
        if not getattr(args, "no_manifest", False):
            flags = {k: v for k, v in vars(args).items()
                     if k not in ("func", "manifest", "no_manifest")
                     and v is not None}
            doc = {
                "subcommand": args.command,
                "flags": flags,
                "seeds": [args.seed] if "seed" in flags else [],
                "version": __version__,
                "wall_time_s": round(time.monotonic() - t0, 3),
                "outputs": {p: _sha256(p) for p in outputs},
            }
            with open(getattr(args, "manifest", "skewtab_run.json"),
                      "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0
    except ResourceGuardError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
