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
from collections.abc import Iterator

from .ordmaps import InputError
from .tamari import Lbf, iter_tamari, tamari_join, tamari_leq
from . import fsk
from .fsk import (
    FskMorphism,
    FskObject,
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


# the (text, JSON) forms of each kind of value, indexed by args.json
_FORMS = {
    FskObject: (format_object, object_to_json),
    FskMorphism: (format_morphism, morphism_to_json),
    Lbf: (lambda s: format_values(s.values), lambda s: list(s.values)),
}


def _emit(args, result) -> None:
    """Write a command's result to stdout, as text or, under --json, JSON.

    A word, a morphism or an lbf is one line.  A dict is one labelled
    line per entry, or one JSON object.  Any other iterable is written
    one item at a time, as lines or as the array dump_json gives the
    list, so that a long listing is never held whole as text.
    """
    def form(value):
        if isinstance(value, dict):
            if args.json:
                return {key: form(item) for key, item in value.items()}
            return "\n".join(f"{key}: {form(item)}"
                             for key, item in value.items())
        forms = _FORMS.get(type(value))
        return forms[args.json](value) if forms else value

    if isinstance(result, (dict, *_FORMS)):
        print(dump_json(form(result)) if args.json else form(result))
    elif args.json:
        opener = "["
        for item in result:
            sys.stdout.write(opener + dump_json(form(item)))
            opener = ","
        print("[]" if opener == "[" else "]")
    else:
        for item in result:
            print(form(item))


def _cmd_tamari_enum(args) -> Iterator[Lbf]:
    if args.m > MAX_TAMARI_ENUM:
        raise InputError(f"tamari enum takes M <= {MAX_TAMARI_ENUM}")
    return iter_tamari(args.m)


def _cmd_obj_parse(args) -> FskObject | dict:
    obj = parse_object(args.word)
    if args.json:
        return obj
    return {"word": obj, "m": obj.m, "u": format_values(obj.u), "lbf": obj.s}


def _cmd_check(args) -> int:
    src = parse_object(args.src)
    dst = parse_object(args.dst)
    phi = parse_map(args.map, dst.m)
    mode = args.mode.replace("-", "_")
    return _verdict(is_morphism(src, dst, phi, mode))


def _cmd_compose(args) -> FskMorphism:
    src = parse_object(args.src)
    mid = parse_object(args.mid)
    dst = parse_object(args.dst)
    f = FskMorphism(src, mid, parse_map(args.map1, mid.m))
    g = FskMorphism(mid, dst, parse_map(args.map2, dst.m))
    return fsk.compose(g, f)


def _cmd_factor(args) -> dict:
    src = parse_object(args.src)
    dst = parse_object(args.dst)
    f = FskMorphism(src, dst, parse_map(args.map, dst.m))
    surj, middle, inj = factor_general(f)
    return {"surjection": surj, "middle": middle, "injection": inj}


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


# argument specs shared by several commands
_JSON = ("--json", {"action": "store_true",
                    "help": "emit JSON instead of text"})
_MODE = ("--mode", {"default": "direct",
                    "choices": [mode.replace("_", "-") for mode in fsk.MODES]})

_GROUPS = {"tamari": "Tamari lattice operations",
           "obj": "object operations",
           "operad": "graded operad operations"}

# Each command: its words, its help, its arguments (a name, or a name
# and add_argument's keywords) and its handler.  A handler returns an
# exit code, or a result that _emit writes, with exit code 0.  Handlers
# look up the library functions when they run, so tests can replace them.
_COMMANDS = [
    ("tamari enum", "list all lbfs on ord M", [("m", {"type": int}), _JSON],
     _cmd_tamari_enum),
    ("tamari join", "join of two lbfs", ["a", "b", _JSON],
     lambda args: tamari_join(parse_lbf(args.a), parse_lbf(args.b))),
    ("tamari leq", "compare two lbfs", ["a", "b"],
     lambda args: _verdict(tamari_leq(parse_lbf(args.a), parse_lbf(args.b)))),
    ("obj parse", "parse a word into a triple", ["word", _JSON],
     _cmd_obj_parse),
    ("hom", "enumerate all morphisms SRC -> DST", ["src", "dst", _JSON],
     lambda args: hom(parse_object(args.src), parse_object(args.dst))),
    ("check", "decide whether MAP is a morphism", ["src", "dst", "map", _MODE],
     _cmd_check),
    ("compose", "compose SRC -MAP1-> MID -MAP2-> DST",
     ["src", "mid", "dst", "map1", "map2", _JSON], _cmd_compose),
    ("factor", "surjection/injection factorization of MAP",
     ["src", "dst", "map", _JSON], _cmd_factor),
    ("axioms", "check the five coherence axioms",
     [("--max-leaves", {"type": int, "default": 6,
                        "help": "total leaf count bound for object tuples"})],
     _cmd_axioms),
    ("operad h", "the word freely built from tN or lN", ["element", _JSON],
     lambda args: h_of(_element(args.element))),
    ("operad counit", "counit component at a word", ["word", _JSON],
     lambda args: counit_at(parse_object(args.word))),
    ("operad colax", "colax comparison at (X, I, Y)",
     ["x", ("i", {"type": int}), "y", _JSON],
     lambda args: h_colax(_element(args.x), args.i, _element(args.y))),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freeskew",
                     description="computations in the free skew monoidal "
                                 "category on one generator")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_text, arguments, handler in _COMMANDS:
        group, _, name = words.rpartition(" ")
        if group not in groups:  # at the group's first command
            groups[group] = groups[""].add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest="subcommand", required=True)
        command = groups[group].add_parser(name, help=help_text)
        for argument in arguments:
            flag, options = ((argument, {}) if isinstance(argument, str)
                             else argument)
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        if not isinstance(code, int):  # a result for _emit to write
            _emit(args, code)
            code = 0
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
