import importlib
import json
import os
import re
import subprocess
import sys
from itertools import product

import pytest

import freeskew
from freeskew import cli, fsk, operads, ordmaps, tamari, words
from freeskew.ordmaps import InputError, MonotoneMap
from freeskew.fsk import hom, lambda_, rho, tensor, GENERATOR as X, UNIT as I
from freeskew.words import (
    WordSyntaxError,
    dump_json,
    format_morphism,
    format_object,
    morphism_from_json,
    morphism_to_json,
    object_from_json,
    object_to_json,
    parse_lbf,
    parse_map,
    parse_morphism,
    parse_object,
)
from freeskew.cli import main

from oracles import (
    Leaf,
    Node,
    format_object_counter,
    object_tree,
    objects_up_to,
    parse_object_loop,
    tree_of_text,
    tree_text,
    tree_to_lbf,
)

# the 1,501-leaf combs, nested 1,500 deep
LEFT_COMB = "(" * 1500 + "X" + " X)" * 1500
RIGHT_COMB = "(X " * 1500 + "X" + ")" * 1500


class TestParseWord:
    def test_example(self):
        a = parse_object("(X (I X))")
        tree = Node(Leaf("X"), Node(Leaf("I"), Leaf("X")))
        assert (a.m, a.u, a.s) == (3, (0, 2), tree_to_lbf(tree))

    def test_leaves(self):
        assert parse_object("X") == X
        assert parse_object("  I ") == I

    def test_non_binary_rejected(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_object("(X X X)")
        assert err.value.offset == 5

    def test_errors_carry_offsets(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_object("")
        assert err.value.offset == 0
        with pytest.raises(WordSyntaxError):
            parse_object("(X X")
        with pytest.raises(WordSyntaxError):
            parse_object("X)")
        with pytest.raises(WordSyntaxError):
            parse_object("(X Y)")

    def test_whitespace_insensitive(self):
        assert parse_object("((I   X)\tX)") == parse_object("((I X) X)")


def parse_outcome(parse, text):
    """The object a parse returns, or the message and offset it raises."""
    try:
        return parse(text)
    except WordSyntaxError as err:
        return str(err), err.offset


class TestParseOracle:
    """parse_object drops whitespace and reads the rest in one pass; the
    loop over the raw text is the reference, errors and offsets included."""

    def test_every_short_string(self):
        # every string of up to 6 characters over ( ) I X space tab
        texts = ["".join(chars) for length in range(7)
                 for chars in product("()IX \t", repeat=length)]
        assert len(texts) == 55987
        for text in texts:
            assert (parse_outcome(parse_object.__wrapped__, text)
                    == parse_outcome(parse_object_loop, text)), text

    @pytest.mark.parametrize("text", [
        LEFT_COMB, RIGHT_COMB,
        "(" * 29999 + "X" + " X)" * 29999, "(X " * 29999 + "X" + ")" * 29999,
        "", "(X X", "X)", "(X Y)", "(X X X)"],
        ids=["left-1501", "right-1501", "left-30000", "right-30000",
             "empty", "open", "close", "letter", "ternary"])
    def test_combs_and_malformed_words(self, text):
        assert (parse_outcome(parse_object.__wrapped__, text)
                == parse_outcome(parse_object_loop, text))


class TestParseCache:
    """parse_object is in the value tier: a text read again returns the
    triple read before, and a malformed text raises again."""

    def test_repeat_returns_the_parsed_object(self):
        # every word of up to 6 letters, and the 1,501-letter combs
        texts = [tree_text(object_tree(a)) for a in objects_up_to(6)]
        for text in texts + [LEFT_COMB, RIGHT_COMB]:
            a = parse_object(text)
            assert a == parse_object.__wrapped__(text)
            assert parse_object(text) is a

    @pytest.mark.parametrize("text", ["", "(X X", "X)", "(X Y)", "(X X X)"])
    def test_malformed_words_raise_again(self, text):
        raised = []
        for parse in (parse_object, parse_object, parse_object.__wrapped__):
            with pytest.raises(WordSyntaxError) as err:
                parse(text)
            raised.append((str(err.value), err.value.offset))
        assert raised[0] == raised[1] == raised[2]


class TestFormatWord:
    def test_examples(self):
        assert format_object(parse_object("((I X) X)")) == "((I X) X)"
        assert format_object(I) == "I"
        target = "((I (X X)) ((I X) X))"
        assert format_object(parse_object(target)) == target

    def test_round_trip_all_small_words(self):
        for a in objects_up_to(6):
            text = format_object(a)
            assert parse_object(text) == a
            assert text == tree_text(object_tree(a))
            assert tree_of_text(text) == object_tree(a)

    @pytest.mark.parametrize("text", [LEFT_COMB, RIGHT_COMB], ids=["left", "right"])
    def test_deep_words_round_trip(self, text):
        assert format_object(parse_object(text)) == text

    def test_matches_counting_writer(self):
        # every object with m <= 7, and the 1,501-letter combs
        objs = objects_up_to(7) + [parse_object(LEFT_COMB),
                                   parse_object(RIGHT_COMB)]
        for a in objs:
            assert format_object.__wrapped__(a) == format_object_counter(a)


class TestTextAndJsonForms:
    def test_lbf_and_map(self):
        assert parse_lbf("0,1,0,3").values == (0, 1, 0, 3)
        assert parse_map("0,0,1", 2) == MonotoneMap(3, 2, (0, 0, 1))
        with pytest.raises(InputError):
            parse_lbf("0,a")

    def test_morphism_text_round_trip(self):
        for f in [lambda_(X), rho(I), tensor(lambda_(X), rho(X))]:
            assert parse_morphism(format_morphism(f)) == f

    def test_hom_lines_match_uncached_ends(self):
        # format_object is cached; every line over a hom-set still reads
        # its two ends as a fresh format gives them
        a = parse_object("(((I I) (I X)) ((I I) I))")
        b = parse_object("((I (I X)) (I (I I)))")
        morphisms = hom(a, b)
        assert len(morphisms) == 60
        for f in morphisms:
            head, _, images = format_morphism(f).partition(" ; ")
            assert head == (f"{format_object.__wrapped__(f.src)} -> "
                            f"{format_object.__wrapped__(f.dst)}")
            assert images == ",".join(map(str, f.map.images))

    def test_morphism_text_shape(self):
        assert format_morphism(lambda_(X)) == "(I X) -> X ; 0,0"
        with pytest.raises(InputError):
            parse_morphism("X -> X")
        with pytest.raises(InputError):
            parse_morphism("X ; 0")

    @pytest.mark.parametrize("src, dst, images", [
        ("X", "I", [0]),                        # generator condition
        ("(X (X X))", "((X X) X)", [0, 1, 2]),  # bracket condition
    ])
    def test_well_formed_non_morphisms_rejected(self, src, dst, images):
        with pytest.raises(InputError, match="is not a morphism"):
            parse_morphism(f"{src} -> {dst} ; {','.join(map(str, images))}")
        data = {"src": object_to_json(parse_object(src)),
                "dst": object_to_json(parse_object(dst)), "map": images}
        with pytest.raises(InputError, match="is not a morphism"):
            morphism_from_json(data)

    def test_json_round_trips(self):
        for a in objects_up_to(4):
            assert object_from_json(object_to_json(a)) == a
        for f in hom(tensor(I, I), tensor(I, I)):
            assert morphism_from_json(morphism_to_json(f)) == f

    def test_json_round_trips_on_every_small_hom_set(self):
        small = objects_up_to(4)
        for a in small:
            assert object_from_json(json.loads(dump_json(object_to_json(a)))) == a
        for a, b in product(small, repeat=2):
            for f in hom(a, b):
                assert morphism_from_json(morphism_to_json(f)) == f

    # payloads the JSON readers refuse, and the field each names; without
    # the checks these raised KeyError or TypeError, or built m == 1.0
    X_JSON = {"m": 1, "u": [0], "s": [0]}
    IX_JSON = {"m": 2, "u": [1], "s": [0, 1]}

    @pytest.mark.parametrize("reader, data, name", [
        (object_from_json, [1, [], [0]], "m"),
        (object_from_json, None, "m"),
        (object_from_json, {"u": [], "s": [0]}, "m"),
        (object_from_json, {"m": 1, "s": [0]}, "u"),
        (object_from_json, {"m": 1, "u": []}, "s"),
        (object_from_json, {"m": 1.0, "u": [], "s": [0]}, "m"),
        (object_from_json, {"m": True, "u": [], "s": [0]}, "m"),
        (object_from_json, {"m": "1", "u": [], "s": [0]}, "m"),
        (object_from_json, {"m": 1, "u": "", "s": [0]}, "u"),
        (object_from_json, {"m": 1, "u": None, "s": [0]}, "u"),
        (object_from_json, {"m": 2, "u": [1.0], "s": [0, 1]}, "u"),
        (object_from_json, {"m": 1, "u": [], "s": "0"}, "s"),
        (object_from_json, {"m": 1, "u": [], "s": [False]}, "s"),
        (object_from_json, {"m": 1, "u": [], "s": {"0": 0}}, "s"),
        (morphism_from_json, "X", "src"),
        (morphism_from_json, {"dst": X_JSON, "map": [0]}, "src"),
        (morphism_from_json, {"src": [X_JSON], "dst": X_JSON, "map": [0]},
         "src"),
        (morphism_from_json, {"src": X_JSON, "map": [0]}, "dst"),
        (morphism_from_json, {"src": X_JSON, "dst": X_JSON}, "map"),
        (morphism_from_json, {"src": X_JSON, "dst": X_JSON, "map": 0}, "map"),
        (morphism_from_json, {"src": IX_JSON, "dst": IX_JSON,
                              "map": [0, 1.0]}, "map"),
        (morphism_from_json, {"src": {"m": 1, "u": [0]}, "dst": X_JSON,
                              "map": [0]}, "s"),
    ])
    def test_json_readers_check_each_field(self, reader, data, name):
        with pytest.raises(InputError, match=f"field '{name}'"):
            reader(data)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_tamari_enum(self, capsys):
        code, out, _ = run(capsys, "tamari", "enum", "4")
        assert code == 0
        assert out.splitlines() == ["0,0,0,3", "0,0,2,3", "0,1,0,3",
                                    "0,1,1,3", "0,1,2,3"]

    def test_tamari_enum_json(self, capsys):
        code, out, _ = run(capsys, "tamari", "enum", "3", "--json")
        assert code == 0
        assert json.loads(out) == [[0, 0, 2], [0, 1, 2]]
        # written one lbf at a time, in the form dump_json gives the list
        code, out, _ = run(capsys, "tamari", "enum", "1", "--json")
        assert code == 0 and out == "[[0]]\n"
        code, out, _ = run(capsys, "tamari", "enum", "4", "--json")
        assert out == "[[0,0,0,3],[0,0,2,3],[0,1,0,3],[0,1,1,3],[0,1,2,3]]\n"

    def test_tamari_join_and_leq(self, capsys):
        code, out, _ = run(capsys, "tamari", "join", "0,1,0,3", "0,0,2,3")
        assert code == 0 and out.strip() == "0,1,2,3"
        code, out, _ = run(capsys, "tamari", "leq", "0,0,0,3", "0,1,0,3")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "tamari", "leq", "0,1,0,3", "0,0,2,3")
        assert code == 2 and out.strip() == "false"

    def test_obj_parse(self, capsys):
        code, out, _ = run(capsys, "obj", "parse", "(X (I X))")
        assert code == 0
        assert out.splitlines() == ["word: (X (I X))", "m: 3", "u: 0,2",
                                    "lbf: 0,1,2"]
        code, out, _ = run(capsys, "obj", "parse", "(X (I X))", "--json")
        assert json.loads(out) == {"m": 3, "u": [0, 2], "s": [0, 1, 2]}

    def test_obj_parse_error(self, capsys):
        code, _, err = run(capsys, "obj", "parse", "(X X X)")
        assert code == 1
        assert "offset" in err

    def test_hom(self, capsys):
        code, out, _ = run(capsys, "hom", "(I I)", "(I I)")
        assert code == 0
        assert out.splitlines() == ["(I I) -> (I I) ; 0,0", "(I I) -> (I I) ; 0,1"]
        code, out, _ = run(capsys, "hom", "(X I)", "X")
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "hom", "(X I)", "X", "--json")
        assert code == 0 and out == "[]\n"

    def test_check_modes_and_exit_codes(self, capsys):
        # every mode the library decides by is a CLI choice, dashed
        for mode in fsk.MODES:
            code, out, _ = run(capsys, "check", "(I X)", "X", "0,0",
                               "--mode", mode.replace("_", "-"))
            assert code == 0 and out.strip() == "true"
        code, out, err = run(capsys, "check", "(I X)", "X", "0,0",
                             "--mode", "via_search")
        assert code == 1 and out == "" and err.startswith("usage error:")
        code, out, _ = run(capsys, "check", "(X I)", "X", "0,0")
        assert code == 2 and out.strip() == "false"

    @pytest.mark.parametrize("argv, result", [
        (("tamari", "join", "0,1,0,3", "0,0,2,3"),
         lambda: list(tamari.tamari_join(parse_lbf("0,1,0,3"),
                                         parse_lbf("0,0,2,3")).values)),
        (("hom", "((I X) X)", "(I (X X))"),
         lambda: [morphism_to_json(f) for f in
                  hom(parse_object("((I X) X)"), parse_object("(I (X X))"))]),
        (("hom", "(X I)", "X"),
         lambda: [morphism_to_json(f) for f in
                  hom(parse_object("(X I)"), parse_object("X"))]),
        (("compose", "(I I)", "I", "(I I)", "0,0", "0"),
         lambda: morphism_to_json(fsk.compose(
             parse_morphism("I -> (I I) ; 0"),
             parse_morphism("(I I) -> I ; 0,0")))),
        (("operad", "h", "l2"),
         lambda: object_to_json(
             operads.h_of(operads.LElement.from_text("l2")))),
        (("operad", "counit", "(X I)"),
         lambda: morphism_to_json(operads.counit_at(parse_object("(X I)")))),
        (("operad", "colax", "t2", "2", "t2"),
         lambda: morphism_to_json(operads.h_colax(
             operads.LElement.from_text("t2"), 2,
             operads.LElement.from_text("t2")))),
    ], ids=["tamari-join", "hom", "hom-empty", "compose", "operad-h",
            "operad-counit", "operad-colax"])
    def test_json_forms(self, capsys, argv, result):
        # the JSON the words layer gives the library call's result
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        assert out == dump_json(result()) + "\n"

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "(I I)", "I", "(I I)",
                           "0,0", "0")
        assert code == 0
        assert out.strip() == "(I I) -> (I I) ; 0,0"

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "(I I)", "(I I)", "0,0")
        assert code == 0
        assert out.splitlines() == ["surjection: (I I) -> I ; 0,0",
                                    "middle: I",
                                    "injection: I -> (I I) ; 0"]

    def test_factor_json(self, capsys):
        code, out, _ = run(capsys, "factor", "(I I)", "(I I)", "0,0", "--json")
        data = json.loads(out)
        assert data["middle"] == {"m": 1, "u": [], "s": [0]}
        assert data["surjection"]["map"] == [0, 0]
        assert data["injection"]["map"] == [0]

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "axioms", "--max-leaves", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.endswith("ok") for line in lines)
        assert lines[0].startswith("lambda_rho: 1 tuples")

    def test_operad_h(self, capsys):
        code, out, _ = run(capsys, "operad", "h", "t2")
        assert code == 0 and out.strip() == "(X X)"
        code, out, _ = run(capsys, "operad", "h", "l2")
        assert code == 0 and out.strip() == "((I X) X)"

    def test_operad_counit(self, capsys):
        code, out, _ = run(capsys, "operad", "counit", "(X I)")
        assert code == 0
        assert out.strip() == "X -> (X I) ; 0"

    def test_operad_colax(self, capsys):
        code, out, _ = run(capsys, "operad", "colax", "t2", "2", "l0")
        assert code == 0
        assert out.strip() == "X -> (X I) ; 0"
        code, out, _ = run(capsys, "operad", "colax", "t2", "2", "t2")
        assert out.strip() == "((X X) X) -> (X (X X)) ; 0,1,2"

    def test_usage_errors_exit_one(self, capsys):
        assert run(capsys, "tamari")[0] == 1
        assert run(capsys, "nope")[0] == 1
        assert run(capsys, "check", "(I X)", "X", "zzz")[0] == 1

    def test_morphism_construction_error_exit_one(self, capsys):
        code, _, err = run(capsys, "compose", "(X I)", "X", "X", "0,0", "0")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv", [
        # the second map is the inverse of the associator
        ("compose", "((X X) X)", "(X (X X))", "((X X) X)", "0,1,2", "0,1,2"),
        ("factor", "(X (X X))", "((X X) X)", "0,1,2"),
        ("factor", "X", "I", "0"),
    ])
    def test_non_morphism_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not a morphism" in err

    def test_axioms_prove_nothing_again(self, capsys, monkeypatch):
        # every morphism the sweep builds is a structure map or a
        # composite or tensor of them, so none is proved by is_morphism
        calls = []
        check = fsk.is_morphism

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(fsk, "is_morphism", counted)
        code, out, _ = run(capsys, "axioms", "--max-leaves", "5")
        assert code == 0 and out.count("ok") == 5
        assert calls == []

    def test_axioms_check_each_bracketing_once(self, capsys, monkeypatch):
        # the bracketings of tensors, opposites and conjugates are shared
        # by shape, so each place that builds an Lbf checks a given
        # bracketing once per sweep, however many objects carry it
        expected = sorted(s.values for m in range(2, 7)
                          for s in tamari.enumerate_tamari(m))
        for cached in (fsk._tensor_objects, fsk._tensor_lbf, fsk.lambda_,
                       fsk.rho, tamari.tamari_opposite, tamari.conjugate_surj,
                       tamari.enumerate_tamari):
            cached.cache_clear()
        calls = []
        check = tamari.validate_lbf

        def counted(values):
            # the frames above are Lbf.__post_init__ and Lbf.__init__
            calls.append((sys._getframe(3).f_code.co_name, tuple(values)))
            return check(values)

        monkeypatch.setattr(tamari, "validate_lbf", counted)
        code, out, _ = run(capsys, "axioms", "--max-leaves", "5")
        assert code == 0 and out.count("ok") == 5
        assert len(calls) == len(set(calls))
        # every bracketing on 2 to 6 letters is a tensor's, built once there
        tensors = [values for site, values in calls if site == "_tensor_lbf"]
        assert sorted(tensors) == expected

    @pytest.mark.parametrize("text", [LEFT_COMB, RIGHT_COMB], ids=["left", "right"])
    def test_deep_words(self, capsys, text):
        code, out, err = run(capsys, "obj", "parse", text)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == f"word: {text}"
        identity_map = ",".join(str(i) for i in range(1501))
        code, out, err = run(capsys, "check", text, text, identity_map)
        assert code == 0 and err == ""
        assert out.strip() == "true"
        # the middle-bracketing search, both ways round
        back = "true" if text == LEFT_COMB else "false"
        for src, dst, verdict in ((LEFT_COMB, text, "true"),
                                  (text, LEFT_COMB, back)):
            code, out, err = run(capsys, "check", src, dst, identity_map,
                                 "--mode", "via-search")
            assert out.strip() == verdict and err == ""
            assert code == (0 if verdict == "true" else 2)
        # every letter is a pinned generator: one candidate map each
        for argv in (("hom", LEFT_COMB, text), ("operad", "counit", text)):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            assert out.splitlines() == [f"{LEFT_COMB} -> {text} ; {identity_map}"]

    def test_tamari_enum_size_cap(self, capsys, monkeypatch):
        def refuse(m):
            raise AssertionError("enumerated past the cap")
        monkeypatch.setattr(cli, "iter_tamari", refuse)
        code, out, err = run(capsys, "tamari", "enum", str(cli.MAX_TAMARI_ENUM + 1))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(cli.MAX_TAMARI_ENUM) in err

    def test_axioms_size_cap(self, capsys, monkeypatch):
        def refuse(total, count):
            raise AssertionError("enumerated past the cap")
        monkeypatch.setattr(cli, "_object_tuples", refuse)
        code, out, err = run(capsys, "axioms", "--max-leaves",
                             str(cli.MAX_AXIOM_LEAVES + 1))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(cli.MAX_AXIOM_LEAVES) in err

    @pytest.mark.parametrize("leaves", ["0", "-3"])
    def test_axioms_needs_a_leaf(self, capsys, monkeypatch, leaves):
        def refuse(total, count):
            raise AssertionError("enumerated below one leaf")
        monkeypatch.setattr(cli, "_object_tuples", refuse)
        code, out, err = run(capsys, "axioms", "--max-leaves", leaves)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_hom_size_cap(self, capsys):
        # hom refuses past its own budget: the left comb of 40 I against
        # itself has C(78, 39) morphisms, and the search between words of
        # 805 and 820 letters lists more than the budget's letters
        units = "(" * 39 + "I" + " I)" * 39
        short = "(I " * 5 + "(X " * 799 + "X" + ")" * 804
        long = "(I " * 20 + "(X " * 799 + "X" + ")" * 819
        for src, dst in [(units, units), (short, long)]:
            code, out, err = run(capsys, "hom", src, dst)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "MAX_HOM_STEPS" in err
            assert str(fsk.MAX_HOM_STEPS) in err

    @pytest.mark.parametrize("n, count", [(12, 122), (40, 1522)])
    def test_hom_lists_unit_combs(self, capsys, n, count):
        # right comb to left comb of n I: the focused count of
        # tests/oracles.py gives the same numbers
        right = "(I " * (n - 1) + "I" + ")" * (n - 1)
        left = "(" * (n - 1) + "I" + " I)" * (n - 1)
        code, out, err = run(capsys, "hom", right, left)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == len(set(lines)) == count
        assert all(line.startswith(f"{right} -> {left} ; 0,") for line in lines)

    def test_operad_arity_cap(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built past the cap")
        monkeypatch.setattr(cli, "h_of", refuse)
        monkeypatch.setattr(cli, "h_colax", refuse)
        big = str(cli.MAX_OPERAD_ARITY + 1)
        for argv in (("h", "t" + big), ("colax", "l" + big, "1", "t1"),
                     ("colax", "t2", "1", "l" + big)):
            code, out, err = run(capsys, "operad", *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and str(cli.MAX_OPERAD_ARITY) in err

    def test_operad_arity_with_too_many_digits(self, capsys):
        # more digits than int() converts on Python 3.11+
        code, out, err = run(capsys, "operad", "h", "t" + "9" * 5000)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_library_fault_exits_three(self, capsys, monkeypatch):
        # a contract check inside the library fails: one line, no traceback
        monkeypatch.setattr(operads, "hom", lambda a, b: [])
        code, out, err = run(capsys, "operad", "counit", "(X I)")
        assert code == 3 and out == ""
        assert err == ("internal error: counit hom-set at "
                       "FskObject(m=2, u={0}, s=0,1) has 0 elements, expected 1\n")

    def test_determinism(self, capsys):
        first = run(capsys, "hom", "((I X) X)", "(I (X X))")
        second = run(capsys, "hom", "((I X) X)", "(I (X X))")
        assert first == second

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_quietly(self, unbuffered):
        # the reader of stdout is gone before the first write: exit
        # 128 + SIGPIPE, with no traceback and no "Exception ignored"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "freeskew.cli", "operad", "counit",
                 "(I (X X))"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")


class TestConsoleScript:
    def test_freeskew_runs_cli_main(self):
        # read with a regex: Python 3.10 has no tomllib
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as f:
            text = f.read()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                            text, re.M | re.S)
        assert section
        target = re.search(r'^freeskew\s*=\s*"([^"]*)"', section.group(1),
                           re.M)
        assert target and target.group(1) == "freeskew.cli:main"
        module, _, name = target.group(1).partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry is cli.main and callable(entry)


class TestBoundary:
    def test_core_binds_no_tree(self):
        # a word is a triple or its text; bracket trees live only in the
        # test oracles
        tree_names = {"Leaf", "Node", "BracketTree", "leaf_count",
                      "tree_to_lbf", "lbf_to_tree", "object_from_word",
                      "object_to_word", "parse_word", "format_word"}
        for module in (ordmaps, tamari, fsk, operads, words, cli, freeskew):
            assert not tree_names & set(vars(module)), module.__name__
        assert not tree_names & set(freeskew.__all__)
