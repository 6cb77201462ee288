"""Command-line surface over the kernel.

Exit codes: 0 on success and affirmative verdicts, 1 on negative verdicts
(invalid fan, non-congruent pair, non-converged solve), 2 on malformed
inputs and unwritable outputs (export then leaves none of its outputs
behind).  Passing --json switches stdout to machine-readable JSON.

Importing this module loads the package's `errors`, `fan`, `geometry` and
`io`.  The kernel modules load on first use, inside the subcommand that
runs them: `solve` loads `solver`, `congruent` loads `congruence` and
`example` loads `builders`; `validate`, `areas`, `sum` and `export` load
none of the three.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io
from .errors import HerissonError, MalformedFan, NotSameClass
from .fan import validate
from .geometry import balance_residual, minkowski_sum


class _InputError(Exception):
    pass


def _load(path: str, loader):
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _cmd_validate(args) -> int:
    fan = _load(args.fan, io.load_fan)
    report = validate(fan)
    payload = {"valid": report.ok, "violations": [list(e) for e in report.entries]}
    _emit(args, payload, "valid fan" if report.ok else str(report))
    return 0 if report.ok else 1


def _cmd_areas(args) -> int:
    h = _load(args.herisson, io.load_herisson)
    residual = balance_residual(h.oriented_areas, h.fan)
    rows = [
        f"face {j:3d}  eps {int(h.signs[j]):+d}  f = {float(h.oriented_areas[j])!r}"
        for j in range(h.m)
    ]
    rows.append(f"balance residual = {[float(x) for x in residual]!r}")
    payload = {
        "areas": [float(x) for x in h.oriented_areas],
        "signs": [int(s) for s in h.signs],
        "balance_residual": [float(x) for x in residual],
    }
    _emit(args, payload, "\n".join(rows))
    return 0


def _cmd_solve(args) -> int:
    from .solver import SolveOptions, solve_minkowski

    fan = _load(args.fan, io.load_fan)
    h0 = _load(args.seed, lambda p: io.load_vector(p, ("h",)))
    if h0.shape != (fan.m,) or not np.all(np.isfinite(h0)):
        raise _InputError(f"{args.seed}: expected {fan.m} finite support numbers")
    g = _load(args.target, lambda p: io.load_vector(p, ("g", "areas", "f")))
    tol = {} if args.tol is None else {"tol_area": args.tol}     # unset: SolveOptions owns the default
    try:
        opts = SolveOptions(**tol, allow_non_general_position=args.allow_non_general)
    except ValueError as exc:
        raise _InputError(f"--tol: {exc}") from exc
    try:
        outcome = solve_minkowski(fan, h0, g, opts)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for record in outcome.trace:
                fh.write(json.dumps(dataclasses.asdict(record)) + "\n")
    payload = {
        "status": outcome.status.value,
        "t_reached": outcome.t_reached,
        "h": [float(x) for x in outcome.h_final],
        "message": outcome.message,
    }
    human = [f"status: {outcome.status.value} (t = {outcome.t_reached!r})"]
    if outcome.message:
        human.append(outcome.message)
    human += [f"h[{j}] = {float(v)!r}" for j, v in enumerate(outcome.h_final)]
    _emit(args, payload, "\n".join(human))
    return 0 if outcome.converged else 1


def _cmd_congruent(args) -> int:
    from .congruence import congruent_and_parallel

    a = _load(args.a, io.load_herisson)
    b = _load(args.b, io.load_herisson)
    try:
        verdict = congruent_and_parallel(a, b)
    except NotSameClass as exc:
        _emit(args, {"status": "not_same_class", "detail": str(exc)}, f"not comparable: {exc}")
        return 1
    payload = {"status": verdict.status.value, "detail": verdict.detail}
    if verdict.translation is not None:
        payload["translation"] = [float(x) for x in verdict.translation]
        human = f"congruent: translation {payload['translation']!r}"
    else:
        payload.update(face=verdict.face, index=verdict.index, direction=verdict.direction)
        human = f"{verdict.status.value}: {verdict.detail}"
    _emit(args, payload, human)
    return 0 if verdict.is_congruent else 1


def _cmd_sum(args) -> int:
    a = _load(args.a, io.load_herisson)
    b = _load(args.b, io.load_herisson)
    result = minkowski_sum(a, b)
    io.save(io.herisson_to_dict(result), args.output)
    _emit(args, {"written": args.output}, f"wrote {args.output}")
    return 0


_EXAMPLES = {      # name -> (builders module, spec) -> herisson
    "cube": lambda b, spec: b.cube(),
    "box": lambda b, spec: b.box(*(float(x) for x in spec.split(","))),
    "tetra": lambda b, spec: b.regular_tetrahedron(float(spec)),
    "bowtie": lambda b, spec: b.reflected_truncated_tetrahedron(float(spec)),
    "waisted": lambda b, spec: b.waisted_bitetrahedron(int(spec)),
    "tiling": lambda b, spec: b.space_filling_prism(),
}


def _cmd_example(args) -> int:
    name, _, spec = args.name.partition(":")
    if name not in _EXAMPLES:
        raise _InputError(f"unknown example {name!r}; choose from {sorted(_EXAMPLES)}")
    from . import builders

    try:
        h = _EXAMPLES[name](builders, spec)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"example {args.name!r}: {exc}") from exc
    io.save(io.herisson_to_dict(h), args.output)
    _emit(args, {"written": args.output}, f"wrote {args.output}")
    return 0


def _cmd_export(args) -> int:
    data = _load(args.input, io.load)
    outputs = []        # (path, text): every output is rendered before any is written
    if args.obj:
        outputs.append((args.obj, io.export_obj(_load(args.input, lambda _: io.herisson_from_dict(data)))))
    if args.svg:
        outputs.append((args.svg, _load(args.input, lambda _: io.export_svg(io.fan_from_dict(data)))))
    if not outputs:
        raise _InputError("export: pass --obj and/or --svg")
    written = []
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:        # a failed call leaves no output behind
            os.remove(path)
        raise
    for path in written:
        _emit(args, {"written": path}, f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herisson",
        description="Geometry kernel for polyhedral hedgehogs.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a fan file")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("areas", help="oriented areas and balance residual")
    p.add_argument("herisson")
    p.set_defaults(func=_cmd_areas)

    p = sub.add_parser("solve", help="continuation toward target areas")
    p.add_argument("fan")
    p.add_argument("--seed", required=True, help="JSON with an 'h' array")
    p.add_argument("--target", required=True, help="JSON with a 'g' array")
    p.add_argument("--tol", type=float, help="area tolerance relative to scale**2 (default: SolveOptions.tol_area)")
    p.add_argument("--allow-non-general", action="store_true")
    p.add_argument("--trace", help="write one JSON record per accepted step")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("congruent", help="decide congruence of two herissons")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_congruent)

    p = sub.add_parser("sum", help="Minkowski sum over a shared fan")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("example", help="builder fixtures")
    p.add_argument("name", help="cube | box:a,b,c | tetra:r | bowtie:rho | waisted:k | tiling")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("export", help="OBJ mesh or SVG sphere chart")
    p.add_argument("input")
    p.add_argument("--obj")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, MalformedFan, OSError) as exc:      # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HerissonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
