"""Text and JSON forms for words, bracketing functions, maps and morphisms.

The word grammar is

    word := "I" | "X" | "(" word " " word ")"

with arbitrary whitespace between tokens; pairs are strictly binary.
Words are read into triples and written from them without recursion,
and a word is read in one pass over its letters and parentheses.
A word has no other form in the package: there is no bracket tree, and
text, JSON and triples are the only ways a word enters or leaves.

A word's triple depends only on its text, so parse_object sits in the
value tier with format_object: a text read again, within one query or
among recent ones, returns the triple read before.  A malformed text
raises on every call and is never cached.
"""

from __future__ import annotations

import json
from typing import Any

from .ordmaps import InputError, MonotoneMap, value_cache
from .tamari import Lbf, _rbf_values
from .fsk import FskMorphism, FskObject


class WordSyntaxError(InputError):
    """A word failed to parse; offset is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@value_cache
def parse_object(text: str) -> FskObject:
    """Parse a bracketed word into its triple; raises WordSyntaxError with
    a byte offset.

    The whitespace goes first, and one pass reads what is left.  The
    stack holds each open pair's first letter, which becomes -1 once the
    pair's right word starts: the lbf takes that letter then, since the
    left word ended just before.  A word starts where the top pair has
    read a letter (top < m), and ')' closes only a pair marked -1.
    """
    word = "".join(text.split())
    u: list[int] = []
    values: list[int] = []
    stack: list[int] = []
    m = 0
    for k, char in enumerate(word):
        if char == ")":
            if stack and stack[-1] < 0:
                stack.pop()
                continue
            message = (f"trailing input {char!r}" if m and not stack else
                       f"expected 'I', 'X' or '(', found {char!r}")
            raise WordSyntaxError(message, _offset(text, k))
        if stack:
            top = stack[-1]
            if top < m:
                if top < 0:
                    raise WordSyntaxError(f"expected ')', found {char!r}",
                                          _offset(text, k))
                values.append(top)
                stack[-1] = -1
        elif m:
            raise WordSyntaxError(f"trailing input {char!r}", _offset(text, k))
        if char == "(":
            stack.append(m)
        elif char == "X":
            u.append(m)
            m += 1
        elif char == "I":
            m += 1
        else:
            raise WordSyntaxError(f"expected 'I', 'X' or '(', found {char!r}",
                                  _offset(text, k))
    if not m or stack:
        message = ("unbalanced parenthesis" if stack and stack[-1] < 0
                   else "unexpected end of input")
        raise WordSyntaxError(message, len(text))
    return FskObject(m, tuple(u), Lbf(tuple(values) + (m - 1,)))


def _offset(text: str, k: int) -> int:
    # the position in text of its k-th character that is not whitespace
    return [pos for pos, char in enumerate(text) if not char.isspace()][k]


@value_cache
def format_object(obj: FskObject) -> str:
    """Canonical minimal-whitespace form; parse_object inverts it.

    A pair opens before letter a once for every j < m-1 with S(j) = a,
    and closes after letter b once for every i >= 1 with r_S(i) = b.
    Both counts are read off the values in one pass each, with no
    checked Rbf built, so a word of any depth is written in linear time.
    Cached, so that the morphisms of a hom-set, which share both ends,
    format each end once.
    """
    m, values = obj.m, obj.s.values
    openings, closings, letters = [0] * m, [0] * m, ["I"] * m
    for a in values[:-1]:
        openings[a] += 1
    for b in _rbf_values(values)[1:]:
        closings[b] += 1
    for j in obj.u:
        letters[j] = "X"
    return " ".join(["(" * o + letter + ")" * c
                     for o, letter, c in zip(openings, letters, closings)])


def parse_values(text: str) -> tuple[int, ...]:
    """A comma-separated list of naturals, e.g. "0,1,0,3"."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as exc:
        raise InputError(f"expected comma-separated naturals, got {text!r}") from exc


def parse_lbf(text: str) -> Lbf:
    return Lbf(parse_values(text))


def format_values(values) -> str:
    return ",".join(map(str, values))


def parse_map(text: str, cod: int) -> MonotoneMap:
    """A map from its comma-separated images; dom is inferred, cod given."""
    images = parse_values(text)
    return MonotoneMap(len(images), cod, images)


def format_morphism(f: FskMorphism) -> str:
    """Text form: src-word "->" dst-word ";" images."""
    return (f"{format_object(f.src)} -> {format_object(f.dst)} ; "
            f"{format_values(f.map.images)}")


def parse_morphism(text: str) -> FskMorphism:
    head, sep, images = text.rpartition(";")
    if not sep:
        raise InputError(f"expected 'src -> dst ; images', got {text!r}")
    src_text, sep, dst_text = head.partition("->")
    if not sep:
        raise InputError(f"expected 'src -> dst ; images', got {text!r}")
    src = parse_object(src_text.strip())
    dst = parse_object(dst_text.strip())
    return FskMorphism(src, dst, parse_map(images.strip(), dst.m))


def object_to_json(obj: FskObject) -> dict[str, Any]:
    return {"m": obj.m, "u": list(obj.u), "s": list(obj.s.values)}


def object_from_json(data: dict[str, Any]) -> FskObject:
    return FskObject(data["m"], tuple(data["u"]), Lbf(tuple(data["s"])))


def morphism_to_json(f: FskMorphism) -> dict[str, Any]:
    return {"src": object_to_json(f.src),
            "dst": object_to_json(f.dst),
            "map": list(f.map.images)}


def morphism_from_json(data: dict[str, Any]) -> FskMorphism:
    src = object_from_json(data["src"])
    dst = object_from_json(data["dst"])
    return FskMorphism(src, dst,
                       MonotoneMap(src.m, dst.m, tuple(data["map"])))


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
