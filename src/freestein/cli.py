"""Command-line front-end.

Commands: derive, stein, poincare, clt, mc.  Inputs and outputs are the
JSON/CSV formats of ``serialize``; every command validates the loaded
state before computing and refuses invalid ones.  Exit codes: 0 on
success, 2 inadmissible problem, 3 invalid state, 4 moment budget
exceeded, 1 anything else.  Identical configuration and seed produce
byte-identical output files at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import serialize
from .algebra import (
    cyclic_gradient,
    delta,
    explicit_kernel,
    jacobian,
    partial_derivative,
    quadratic_potential,
)
from .clt import CltExperiment, clt_rate_table, rows_to_csv
from .errors import (
    BudgetExceededError,
    FreesteinError,
    InadmissibleProblemError,
    InvalidStateError,
    ParseError,
)
from .matrixmodels import mc_moment_table
from .poincare import PINV_TOL, PSD_TOL, poincare_lower_bound
from .states import MAX_CUMULANT_ORDER, centered_free_poisson, check_state
# unused: validation runs inside ``check_state``; bench/tracer.py still
# patches this name, and times validation only once it patches
# ``states.validate_state`` instead
from .states import validate_state  # noqa: F401
from .stein import CENTERING_TOL, SteinProblem, discrepancy_bounds

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_INADMISSIBLE = 2
EXIT_INVALID_STATE = 3
EXIT_BUDGET = 4

DEFAULT_KS = (1, 2, 4, 8, 16, 32, 64)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except InadmissibleProblemError as exc:
        _emit_error("inadmissible", exc)
        return EXIT_INADMISSIBLE
    except InvalidStateError as exc:
        _emit_error("invalid_state", exc)
        return EXIT_INVALID_STATE
    except BudgetExceededError as exc:
        _emit_error("budget_exceeded", exc)
        return EXIT_BUDGET
    except ParseError as exc:
        _emit_error("parse_error", exc, field=exc.field)
        return EXIT_OTHER
    except (FreesteinError, ValueError, OSError, json.JSONDecodeError) as exc:
        _emit_error("error", exc)
        return EXIT_OTHER
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_error(code, exc, field=None):
    payload = {"error": {"code": code, "message": str(exc)}}
    if field:
        payload["error"]["field"] = field
    sys.stderr.write(serialize.dumps(payload))


@functools.cache
def _build_parser():
    # built once per process, on the first ``main`` call: ``parse_args``
    # keeps no state between calls and every default is immutable
    parser = argparse.ArgumentParser(
        prog="freestein",
        description=(
            "Free Stein kernels, Stein discrepancies and free Poincare "
            "constants for noncommutative distributions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser(
        "derive", help="symbolic derivatives, Jacobians and explicit kernels"
    )
    p_derive.add_argument("--poly", required=True, help="polynomial or tuple JSON")
    p_derive.add_argument(
        "--what",
        required=True,
        choices=["partial", "delta", "cyclic-gradient", "jacobian",
                 "explicit-kernel"],
    )
    p_derive.add_argument("--index", type=int, default=1,
                          help="generator index for --what partial")
    _common_out(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_stein = sub.add_parser("stein", help="Stein discrepancy report")
    _state_flags(p_stein)
    p_stein.add_argument("--potential", default="quadratic",
                         help="polynomial JSON path or 'quadratic'")
    p_stein.add_argument("--degree", type=int, default=3)
    p_stein.add_argument("--tol-centering", type=float, default=CENTERING_TOL)
    _tol_flags(p_stein)
    _common_out(p_stein)
    p_stein.set_defaults(func=cmd_stein)

    p_poin = sub.add_parser("poincare", help="free Poincare constant report")
    _state_flags(p_poin)
    p_poin.add_argument("--degree", type=int, default=3)
    p_poin.add_argument("--norm-order", type=int, default=None)
    _tol_flags(p_poin)
    _common_out(p_poin)
    p_poin.set_defaults(func=cmd_poincare)

    p_clt = sub.add_parser("clt", help="free CLT rate table (CSV)")
    p_clt.add_argument("--cumulants", default=None,
                       help="base cumulant JSON (default: centered free "
                            "Poisson, one variable)")
    p_clt.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_KS),
                       help="comma-separated copy counts")
    p_clt.add_argument("--degree", type=int, default=3)
    _common_out(p_clt)
    p_clt.set_defaults(func=cmd_clt)

    p_mc = sub.add_parser("mc", help="Monte Carlo moment table")
    p_mc.add_argument("--ensemble", required=True, help="ensemble config JSON")
    p_mc.add_argument("--max-order", type=int, default=6)
    p_mc.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    _common_out(p_mc)
    p_mc.set_defaults(func=cmd_mc)

    return parser


def _common_out(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _state_flags(p):
    p.add_argument("--state", default=None, help="moment table JSON")
    p.add_argument("--cumulants", default=None, help="cumulant JSON")
    p.add_argument("--ensemble", default=None,
                   help="ensemble config JSON (runs Monte Carlo first)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the ensemble config seed")


def _tol_flags(p):
    p.add_argument("--tol-psd", type=float, default=PSD_TOL)
    p.add_argument("--tol-pinv", type=float, default=PINV_TOL)


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file {path}: {exc}", field=what) from exc
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}",
                         field=what) from exc


def _load_state(args, mc_order=8):
    picked = [x for x in ("state", "cumulants", "ensemble")
              if getattr(args, x, None)]
    if len(picked) != 1:
        raise ParseError(
            "exactly one of --state, --cumulants, --ensemble is required",
            field="state")
    which = picked[0]
    obj = _read_json(getattr(args, which), which)
    if which == "state":
        phi = serialize.table_from_obj(obj)
    elif which == "cumulants":
        phi = serialize.cumulant_state_from_obj(obj)
    else:
        config = serialize.ensemble_from_obj(obj)
        seed = getattr(args, "seed", None)
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        phi = mc_moment_table(config, mc_order)
    check_state(phi)
    return phi


def _load_poly(path, what="poly"):
    return serialize.poly_from_obj(_read_json(path, what), f"{what}.")


def cmd_derive(args):
    obj = _read_json(args.poly, "poly")
    if args.what == "jacobian":
        ps = (serialize.tuple_from_obj(obj) if "entries" in obj
              else (serialize.poly_from_obj(obj),))
        return serialize.dumps(serialize.kernel_to_obj(jacobian(ps)))
    p = serialize.poly_from_obj(obj)
    if args.what == "partial":
        if not 1 <= args.index <= p.nvars:
            raise ParseError(f"--index {args.index} out of range "
                             f"1..{p.nvars}", field="index")
        return serialize.dumps(
            serialize.tensor_to_obj(partial_derivative(args.index, p))
        )
    if args.what == "delta":
        return serialize.dumps(serialize.tensor_to_obj(delta(p)))
    if args.what == "cyclic-gradient":
        return serialize.dumps(serialize.tuple_to_obj(cyclic_gradient(p)))
    return serialize.dumps(serialize.kernel_to_obj(explicit_kernel(p)))


def _resolve_potential(args, nvars):
    if args.potential == "quadratic":
        return quadratic_potential(nvars)
    v = _load_poly(args.potential, "potential")
    if v.nvars != nvars:
        raise ParseError(
            f"potential has {v.nvars} variables, state has {nvars}",
            field="potential")
    return v


def cmd_stein(args):
    # checked before the state is loaded, which may run the Monte Carlo
    if args.degree < 0:
        raise ValueError("degree must be >= 0")
    phi = _load_state(args, mc_order=max(8, 2 * args.degree))
    v = _resolve_potential(args, phi.nvars)
    prob = SteinProblem(phi, v, centering_tol=args.tol_centering)
    # the Poincare-route bound uses the truncated lower estimate of the
    # optimal constant; it converges to the true bound from below
    est = _finite_ratio(poincare_lower_bound(
        phi, max(args.degree, 1),
        pinv_tol=args.tol_pinv, psd_tol=args.tol_psd,
    ))
    report = discrepancy_bounds(
        prob, args.degree, est.c_lower, c_is_upper=False,
        pinv_tol=args.tol_pinv, psd_tol=args.tol_psd,
    )
    return serialize.dumps(serialize.stein_report_obj(v, report))


def cmd_poincare(args):
    if args.degree < 1:
        raise ValueError("degree must be >= 1")
    phi = _load_state(args, mc_order=max(8, 2 * args.degree))
    est = _finite_ratio(poincare_lower_bound(
        phi, args.degree,
        pinv_tol=args.tol_pinv, psd_tol=args.tol_psd,
        norm_order=args.norm_order,
    ))
    return serialize.dumps(serialize.poincare_report_obj(est))


def _finite_ratio(est):
    """No bounded state has an infinite Poincare ratio."""
    if est.infinite_ratio_witnesses:
        raise InvalidStateError(
            f"{est.infinite_ratio_witnesses} null direction(s) of the "
            f"Dirichlet form at degree {est.degree} carry positive variance "
            "(invalid state)")
    return est


def cmd_clt(args):
    if args.degree < 0:
        raise ValueError("degree must be >= 0")
    if args.cumulants:
        base = serialize.cumulants_from_obj(
            _read_json(args.cumulants, "cumulants")
        )
        norm_upper = None
    else:
        # the builtin base is evaluated up to order 2 * degree + 2, and at
        # least 4 for the fourth moments of the rate table
        max_degree = (MAX_CUMULANT_ORDER - 2) // 2
        if args.degree > max_degree:
            raise BudgetExceededError(
                f"--degree {args.degree} needs moments of order "
                f"{2 * args.degree + 2}; the builtin base allows --degree "
                f"up to {max_degree}",
                needed=2 * args.degree + 2,
                available=MAX_CUMULANT_ORDER,
            )
        builtin = centered_free_poisson(1, max_order=max(2 * args.degree + 2, 4))
        base = builtin.spec
        norm_upper = builtin.norm_upper
    try:
        ks = tuple(int(x) for x in args.ks.split(",") if x.strip())
    except ValueError as exc:
        raise ParseError(f"bad --ks value: {exc}", field="ks") from exc
    exp = CltExperiment(base=base, ks=ks, degree=args.degree)
    rows = clt_rate_table(exp, norm_upper=norm_upper)
    return rows_to_csv(rows)


def cmd_mc(args):
    config = serialize.ensemble_from_obj(_read_json(args.ensemble, "ensemble"))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    table = mc_moment_table(config, args.max_order)
    return serialize.dumps(serialize.table_to_obj(table))


if __name__ == "__main__":
    sys.exit(main())
