"""Command-line front-end: ``python -m repro.analysis <command>``.

Commands:

``certify <DESIGN>``
    Statically certify a design's escape network deadlock-free (exit 0)
    or reject it with a witness cycle (exit 1).  ``--expect-reject``
    inverts the exit status for negative controls in CI.

``bounds <DESIGN>``
    Derive static saturation bounds for a certified design (exit 0) or
    report an explicit ``BoundsUnsupported`` witness (exit 1).
    ``--expect-unsupported`` inverts the exit status.

The determinism lint pass has its own entry point,
``python -m repro.analysis.lint <path> [path ...]``.

Both ``certify`` and ``bounds`` accept ``--json`` to emit a single
machine-readable object on stdout instead of the human report, for CI
consumers — the exit-status contract is identical in both modes.
"""

from __future__ import annotations

import argparse
import json
import sys

_SWITCHING = {
    "atomic": "wormhole_atomic",
    "nonatomic": "wormhole_nonatomic",
    "vct": "vct",
}


def _make_config(args: argparse.Namespace):
    from ..network.switching import Switching
    from ..sim.config import SimulationConfig

    return SimulationConfig(
        buffer_depth=args.buffer_depth,
        max_packet_length=args.max_packet_length,
        switching=Switching(_SWITCHING[args.switching]),
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    from ..registry import parse_topology
    from .certify import certify

    cert = certify(args.design, parse_topology(args.topology), _make_config(args))
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    else:
        print(cert.report())
    if args.expect_reject:
        if cert.ok:
            if not args.json:
                print("ERROR: expected a rejection, got a certificate")
            return 1
        if not args.json:
            print("negative control: rejection is the expected outcome")
        return 0
    return 0 if cert.ok else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from ..sim.spec import ScenarioSpec
    from .bounds import compute_bounds

    spec = ScenarioSpec(
        design=args.design,
        topology=args.topology,
        pattern=args.pattern,
        config=_make_config(args),
        lengths=("fixed", args.max_packet_length)
        if args.fixed_length
        else ("bimodal",),
    )
    report = compute_bounds(spec)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.report())
    if args.expect_unsupported:
        if report.supported:
            if not args.json:
                print("ERROR: expected BoundsUnsupported, got a bound")
            return 1
        if not args.json:
            print("negative control: unsupported is the expected outcome")
        return 0
    return 0 if report.supported else 1


def _common_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", default="torus:4x4", help="e.g. torus:4x4, mesh:8x8, ring:8")
    p.add_argument("--buffer-depth", type=int, default=3)
    p.add_argument("--max-packet-length", type=int, default=5)
    p.add_argument(
        "--switching",
        choices=sorted(_SWITCHING),
        default="atomic",
        help="switching mode (default: atomic wormhole)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis passes for the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify a design deadlock-free")
    p_cert.add_argument("design", help="design name, e.g. WBFC-1VC (see repro.experiments.designs)")
    _common_spec_args(p_cert)
    p_cert.add_argument(
        "--expect-reject",
        action="store_true",
        help="negative control: exit 0 iff the design is rejected",
    )
    p_cert.add_argument("--json", action="store_true", help="machine-readable output")
    p_cert.set_defaults(fn=_cmd_certify)

    p_bounds = sub.add_parser(
        "bounds", help="derive static saturation bounds"
    )
    p_bounds.add_argument("design", help="design name, e.g. WBFC-1VC")
    _common_spec_args(p_bounds)
    p_bounds.add_argument("--pattern", default="UR", help="traffic pattern (UR, TP, BC, ...)")
    p_bounds.add_argument(
        "--fixed-length",
        action="store_true",
        help="use fixed max-size packets instead of the bimodal default",
    )
    p_bounds.add_argument(
        "--expect-unsupported",
        action="store_true",
        help="negative control: exit 0 iff no bound exists",
    )
    p_bounds.add_argument("--json", action="store_true", help="machine-readable output")
    p_bounds.set_defaults(fn=_cmd_bounds)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
