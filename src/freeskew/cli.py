"""Command-line surface.

Exit codes: 0 for success (including true verdicts), 1 for usage or
parse errors, 2 for well-formed queries whose answer is negative (for
example `check` on a map that is not a morphism), 3 when a contract
check inside the library fails (a fault in freeskew, not in the input),
141 (128 + SIGPIPE, as a shell reports a process killed by it) when the
reader of stdout closes it early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ordmaps import InputError
from .tamari import iter_tamari, tamari_join, tamari_leq
from . import fsk
from .fsk import (
    FskMorphism,
    axiom_alpha_lambda,
    axiom_alpha_rho,
    axiom_lambda_rho,
    axiom_pentagon,
    axiom_rho_alpha_lambda,
    factor_general,
    hom,
    is_morphism,
    objects_on,
)
from .operads import LElement, counit_at, h_colax, h_of
from .words import (
    dump_json,
    format_morphism,
    format_object,
    format_values,
    morphism_to_json,
    object_to_json,
    parse_lbf,
    parse_map,
    parse_object,
)


# Size limits, so that no input asks for unbounded work: Catalan(13) =
# 742,900 lbfs; the axiom sweep the acceptance suite runs.  hom bounds
# its own search (fsk.MAX_HOM_STEPS).  Operad words may be as long as
# the 1,501-letter combs the deep-word tests run.
MAX_TAMARI_ENUM = 14
MAX_AXIOM_LEAVES = 8
MAX_OPERAD_ARITY = 1500


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _verdict(flag: bool) -> int:
    print("true" if flag else "false")
    return 0 if flag else 2


def _cmd_tamari_enum(args) -> int:
    if args.m > MAX_TAMARI_ENUM:
        raise InputError(f"tamari enum takes M <= {MAX_TAMARI_ENUM}")
    lbfs = iter_tamari(args.m)
    if args.json:
        # the array dump_json would write, one lbf at a time
        opener = "["
        for lbf in lbfs:
            sys.stdout.write(opener + dump_json(list(lbf.values)))
            opener = ","
        print("]")
    else:
        for lbf in lbfs:
            print(format_values(lbf.values))
    return 0


def _cmd_tamari_join(args) -> int:
    joined = tamari_join(parse_lbf(args.a), parse_lbf(args.b))
    if args.json:
        print(dump_json(list(joined.values)))
    else:
        print(format_values(joined.values))
    return 0


def _cmd_tamari_leq(args) -> int:
    return _verdict(tamari_leq(parse_lbf(args.a), parse_lbf(args.b)))


def _cmd_obj_parse(args) -> int:
    obj = parse_object(args.word)
    if args.json:
        print(dump_json(object_to_json(obj)))
    else:
        print(f"word: {format_object(obj)}")
        print(f"m: {obj.m}")
        print(f"u: {format_values(obj.u)}")
        print(f"lbf: {format_values(obj.s.values)}")
    return 0


def _cmd_hom(args) -> int:
    morphisms = hom(parse_object(args.src), parse_object(args.dst))
    if args.json:
        print(dump_json([morphism_to_json(f) for f in morphisms]))
    else:
        for f in morphisms:
            print(format_morphism(f))
    return 0


def _cmd_check(args) -> int:
    src = parse_object(args.src)
    dst = parse_object(args.dst)
    phi = parse_map(args.map, dst.m)
    mode = args.mode.replace("-", "_")
    return _verdict(is_morphism(src, dst, phi, mode))


def _cmd_compose(args) -> int:
    src = parse_object(args.src)
    mid = parse_object(args.mid)
    dst = parse_object(args.dst)
    f = FskMorphism(src, mid, parse_map(args.map1, mid.m))
    g = FskMorphism(mid, dst, parse_map(args.map2, dst.m))
    composite = fsk.compose(g, f)
    if args.json:
        print(dump_json(morphism_to_json(composite)))
    else:
        print(format_morphism(composite))
    return 0


def _cmd_factor(args) -> int:
    src = parse_object(args.src)
    dst = parse_object(args.dst)
    f = FskMorphism(src, dst, parse_map(args.map, dst.m))
    surj, middle, inj = factor_general(f)
    if args.json:
        print(dump_json({"surjection": morphism_to_json(surj),
                         "middle": object_to_json(middle),
                         "injection": morphism_to_json(inj)}))
    else:
        print(f"surjection: {format_morphism(surj)}")
        print(f"middle: {format_object(middle)}")
        print(f"injection: {format_morphism(inj)}")
    return 0


def _object_tuples(total: int, count: int):
    """All count-tuples of objects with total leaf count <= total."""
    by_size = [objects_on(m) for m in range(1, total - count + 2)]

    def rec(remaining: int, slots: int):
        if slots == 0:
            yield ()
            return
        for m in range(1, remaining - slots + 2):
            for obj in by_size[m - 1]:
                for rest in rec(remaining - m, slots - 1):
                    yield (obj,) + rest
    yield from rec(total, count)


def _cmd_axioms(args) -> int:
    if args.max_leaves < 1:
        raise InputError("axioms takes --max-leaves >= 1")
    if args.max_leaves > MAX_AXIOM_LEAVES:
        raise InputError(f"axioms takes --max-leaves <= {MAX_AXIOM_LEAVES}")
    # the three 2-slot axioms share each pair's tensors, so one pass over
    # the pairs checks all three while those tensors are recent entries
    phases = [
        ([("lambda_rho", axiom_lambda_rho)], [()]),
        ([("alpha_rho", axiom_alpha_rho),
          ("alpha_lambda", axiom_alpha_lambda),
          ("rho_alpha_lambda", axiom_rho_alpha_lambda)],
         _object_tuples(args.max_leaves, 2)),
        ([("pentagon", axiom_pentagon)], _object_tuples(args.max_leaves, 4)),
    ]
    failures = 0
    for checks, tuples in phases:
        count, bad = 0, [0] * len(checks)
        for objs in tuples:
            count += 1
            for k, (_, check) in enumerate(checks):
                if not check(*objs):
                    bad[k] += 1
        for (name, _), failed in zip(checks, bad):
            failures += failed
            status = "ok" if failed == 0 else f"FAILED ({failed})"
            print(f"{name}: {count} tuples {status}")
    return 0 if failures == 0 else 2


def _element(text: str) -> LElement:
    x = LElement.from_text(text)
    if x.arity > MAX_OPERAD_ARITY:
        raise InputError(f"operad elements take arity <= {MAX_OPERAD_ARITY}")
    return x


def _cmd_operad_h(args) -> int:
    obj = h_of(_element(args.element))
    if args.json:
        print(dump_json(object_to_json(obj)))
    else:
        print(format_object(obj))
    return 0


def _cmd_operad_counit(args) -> int:
    component = counit_at(parse_object(args.word))
    if args.json:
        print(dump_json(morphism_to_json(component)))
    else:
        print(format_morphism(component))
    return 0


def _cmd_operad_colax(args) -> int:
    component = h_colax(_element(args.x), args.i, _element(args.y))
    if args.json:
        print(dump_json(morphism_to_json(component)))
    else:
        print(format_morphism(component))
    return 0


def _add_json_flag(parser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freeskew",
                     description="computations in the free skew monoidal "
                                 "category on one generator")
    sub = parser.add_subparsers(dest="command", required=True)

    tamari = sub.add_parser("tamari", help="Tamari lattice operations")
    tamari_sub = tamari.add_subparsers(dest="subcommand", required=True)
    enum = tamari_sub.add_parser("enum", help="list all lbfs on ord M")
    enum.add_argument("m", type=int)
    _add_json_flag(enum)
    enum.set_defaults(handler=_cmd_tamari_enum)
    join = tamari_sub.add_parser("join", help="join of two lbfs")
    join.add_argument("a")
    join.add_argument("b")
    _add_json_flag(join)
    join.set_defaults(handler=_cmd_tamari_join)
    leq = tamari_sub.add_parser("leq", help="compare two lbfs")
    leq.add_argument("a")
    leq.add_argument("b")
    leq.set_defaults(handler=_cmd_tamari_leq)

    obj = sub.add_parser("obj", help="object operations")
    obj_sub = obj.add_subparsers(dest="subcommand", required=True)
    obj_parse = obj_sub.add_parser("parse", help="parse a word into a triple")
    obj_parse.add_argument("word")
    _add_json_flag(obj_parse)
    obj_parse.set_defaults(handler=_cmd_obj_parse)

    hom_cmd = sub.add_parser("hom", help="enumerate all morphisms SRC -> DST")
    hom_cmd.add_argument("src")
    hom_cmd.add_argument("dst")
    _add_json_flag(hom_cmd)
    hom_cmd.set_defaults(handler=_cmd_hom)

    check = sub.add_parser("check", help="decide whether MAP is a morphism")
    check.add_argument("src")
    check.add_argument("dst")
    check.add_argument("map")
    check.add_argument("--mode", default="direct",
                       choices=["direct", "via-factor", "via-search"])
    check.set_defaults(handler=_cmd_check)

    comp = sub.add_parser("compose", help="compose SRC -MAP1-> MID -MAP2-> DST")
    for name in ("src", "mid", "dst", "map1", "map2"):
        comp.add_argument(name)
    _add_json_flag(comp)
    comp.set_defaults(handler=_cmd_compose)

    factor = sub.add_parser("factor",
                            help="surjection/injection factorization of MAP")
    factor.add_argument("src")
    factor.add_argument("dst")
    factor.add_argument("map")
    _add_json_flag(factor)
    factor.set_defaults(handler=_cmd_factor)

    axioms = sub.add_parser("axioms", help="check the five coherence axioms")
    axioms.add_argument("--max-leaves", type=int, default=6,
                        help="total leaf count bound for object tuples")
    axioms.set_defaults(handler=_cmd_axioms)

    operad = sub.add_parser("operad", help="graded operad operations")
    operad_sub = operad.add_subparsers(dest="subcommand", required=True)
    h_cmd = operad_sub.add_parser("h", help="the word freely built from tN or lN")
    h_cmd.add_argument("element")
    _add_json_flag(h_cmd)
    h_cmd.set_defaults(handler=_cmd_operad_h)
    counit = operad_sub.add_parser("counit",
                                   help="counit component at a word")
    counit.add_argument("word")
    _add_json_flag(counit)
    counit.set_defaults(handler=_cmd_operad_counit)
    colax = operad_sub.add_parser("colax",
                                  help="colax comparison at (X, I, Y)")
    colax.add_argument("x")
    colax.add_argument("i", type=int)
    colax.add_argument("y")
    _add_json_flag(colax)
    colax.set_defaults(handler=_cmd_operad_colax)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # so a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null
        # device, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
