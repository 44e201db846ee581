"""Seeded inputs for the benchmark workloads, and the references that check
their outputs.

Nothing here imports freeskew.  Inputs are produced as text, the way a
user of the command-line tool writes them, and outputs are checked
against closed forms and structural facts derived here, never against
the library code path that produced them.

Word syntax is the library's canonical text form:
``word := "I" | "X" | "(" word " " word ")"``.  Maps are the
comma-separated images of ``0..m-1``.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

WORKLOADS = ("axioms", "hom", "criteria")

# The CLI's coherence sweep: (function suffix, object slots) in CLI order.
AXIOMS = (("lambda_rho", 0), ("alpha_rho", 2), ("alpha_lambda", 2),
          ("rho_alpha_lambda", 2), ("pentagon", 4))
AXIOM_MAX_LEAVES = 7
# Tuple counts printed by `freeskew axioms --max-leaves 7`.
AXIOM_TUPLES_AT_7 = (1, 20132, 20132, 20132, 7184)

# Ops per run.  Every run of a workload does the same amount of work, so
# throughput and peak memory compare like with like; the counts are sized to
# take about 30 s on a 2-core Xeon at the first benchmarked commit, long
# enough to average over the speed swings of a shared machine.  HOM_OPS is a
# whole number of rounds of the size cycles below.
HOM_OPS = 480
CRITERIA_OPS = 40000

# Sizes of the hom workload.  Each kind of op cycles through its own list,
# so every seed sees the same mix of costs and only the words vary: hom(a, b)
# filters C(a.m + b.m - 2, a.m - 1) candidate maps, so sizes set the cost.
# pair: (letters of src, letters of dst, generators of each)
PAIR_SIZES = ((6, 6, 3), (7, 9, 2), (8, 7, 4), (9, 10, 5), (10, 8, 3),
              (10, 10, 6), (8, 9, 1), (6, 10, 4), (9, 9, 7), (7, 8, 5),
              (10, 9, 2), (8, 8, 8))
INIT_TERM_GRADES = (7, 8, 9)
# counit: (letters, generators, first letter).  The freely rebuilt word has
# the generators plus a unit when the first letter is I.
COUNIT_SIZES = ((8, 3, "I"), (9, 5, "X"), (10, 4, "I"), (11, 6, "X"),
                (8, 6, "X"), (9, 2, "I"), (10, 8, "X"), (11, 7, "I"),
                (8, 7, "I"), (9, 7, "X"), (10, 6, "I"), (11, 3, "X"))
# colax: (x, y) as operad elements; the slot is drawn from the seed.  The
# substituted word has at most 10 letters.
COLAX_ELEMENTS = (("t3", "t3"), ("l4", "t2"), ("t2", "l5"), ("l5", "l3"),
                  ("t3", "l4"), ("t6", "t2"), ("l4", "l4"), ("t1", "t6"),
                  ("l2", "l0"), ("t5", "l3"), ("l3", "t5"), ("t4", "l4"))

CRITERIA_LETTERS = (8, 14)
# Distinct images of a criteria map; via_search scans all Catalan(k - 1)
# bracketings of the image, so k is what sets its cost.
CRITERIA_IMAGE = (3, 9)
# Share of criteria queries built to pass the generator-bijection check.
CRITERIA_BIJECTIVE_SHARE = 0.8
# Share of criteria targets bracketed all to the right, the top of the Tamari
# order, which most maps passing the bijection check reach; random targets
# alone give few true verdicts.
CRITERIA_TOP_SHARE = 1 / 3


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def left_comb(letters) -> str:
    """Everything bracketed to the left: ((a b) c)."""
    word = letters[0]
    for letter in letters[1:]:
        word = f"({word} {letter})"
    return word


def right_comb(letters) -> str:
    """Everything bracketed to the right: (a (b c))."""
    word = letters[-1]
    for letter in reversed(letters[:-1]):
        word = f"({letter} {word})"
    return word


def random_word(rng: random.Random, letters) -> str:
    """A bracketing of the letters, splitting each block at a random point."""
    if len(letters) == 1:
        return letters[0]
    k = rng.randint(1, len(letters) - 1)
    return f"({random_word(rng, letters[:k])} {random_word(rng, letters[k:])})"


def letters_of(word: str) -> list[str]:
    return [c for c in word if c in "XI"]


def generators_of(word: str) -> list[int]:
    """Positions of X among the letters of a word."""
    return [i for i, c in enumerate(letters_of(word)) if c == "X"]


def random_letters(rng: random.Random, n: int, g: int) -> list[str]:
    letters = ["I"] * n
    for j in rng.sample(range(n), g):
        letters[j] = "X"
    return letters


def lbfs(m: int) -> list[tuple[int, ...]]:
    """All left bracketing functions on ord m, in lexicographic order.

    v is an lbf when v[m-1] = m-1, v[j] <= j, and v[j] <= v[i] for
    v[j] <= i < j.
    """
    out = []

    def extend(prefix: tuple[int, ...]) -> None:
        j = len(prefix)
        if j == m - 1:
            out.append(prefix + (m - 1,))
            return
        for v in range(j + 1):
            if all(v <= prefix[i] for i in range(v, j)):
                extend(prefix + (v,))

    extend(())
    return out


def lbf_word(values: tuple[int, ...], letters) -> str:
    """The word whose bracketing has the given lbf: the block [a, b] splits
    after the last j in [a, b) with values[j] = a."""
    def build(a: int, b: int) -> str:
        if a == b:
            return letters[a]
        split = max(j + 1 for j in range(a, b) if values[j] == a)
        return f"({build(a, split - 1)} {build(split, b)})"
    return build(0, len(values) - 1)


def h_word(kind: str, arity: int) -> str:
    """The word freely built from t_n (n generators) or l_n (a unit, then n
    generators), bracketed to the left."""
    return left_comb(["I"] * (kind == "l") + ["X"] * arity)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def format_values(values) -> str:
    return ",".join(str(v) for v in values)


def parse_values(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def right_adjoint(images, cod: int) -> list[int]:
    """j -> max{i : images[i] <= j}, for a bottom-preserving monotone map."""
    return [max(i for i, v in enumerate(images) if v <= j) for j in range(cod)]


def generators_biject(images, cod: int, u, v) -> bool:
    """The map and its right adjoint restrict to inverse bijections u <-> v."""
    star = right_adjoint(images, cod)
    return (sorted(images[j] for j in u) == sorted(v)
            and len(set(images[j] for j in u)) == len(u)
            and all(star[i] in u and images[star[i]] == i for i in v))


def is_monotone_map(images, dom: int, cod: int) -> bool:
    return (len(images) == dom
            and all(0 <= v < cod for v in images)
            and all(a <= b for a, b in zip(images, images[1:])))


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


@cache
def objects_with_leaves(m: int) -> list[str]:
    """Every word with m letters, in the CLI sweep's order: by generator
    count, then generator positions, then bracketing."""
    out = []
    for size in range(m + 1):
        for u in combinations(range(m), size):
            letters = ["X" if i in u else "I" for i in range(m)]
            out.extend(lbf_word(values, letters) for values in lbfs(m))
    return out


def object_tuples(total: int, count: int, objects) -> list[tuple[str, ...]]:
    """All count-tuples of words with at most total letters in all."""
    def rec(remaining: int, slots: int):
        if slots == 0:
            yield ()
            return
        for m in range(1, remaining - slots + 2):
            for word in objects(m):
                for rest in rec(remaining - m, slots - 1):
                    yield (word,) + rest
    return list(rec(total, count))


def axioms_ops(max_leaves: int = AXIOM_MAX_LEAVES) -> dict:
    """The exhaustive coherence sweep: one op per axiom instance.

    Words are listed once; each call names its axiom and word indices.
    """
    words: list[str] = []
    index: dict[str, int] = {}
    calls = []
    for k, (_, slots) in enumerate(AXIOMS):
        tuples = ([()] if slots == 0
                  else object_tuples(max_leaves, slots, objects_with_leaves))
        for tup in tuples:
            ids = []
            for word in tup:
                if word not in index:
                    index[word] = len(words)
                    words.append(word)
                ids.append(index[word])
            calls.append([k, ids])
    return {"words": words, "calls": calls}


def hom_ops(seed: int, count: int = HOM_OPS) -> list[dict]:
    """Hom-set enumerations in a fixed rotation of four kinds.

    pair: equal-grade random words; init_term: initial -> terminal word of
    a grade; counit: counit_at on a random word; colax: h_colax on operad
    elements.  Sizes follow fixed cycles; the seed places the generators,
    brackets the words and picks the colax slot.
    """
    rng = random.Random(f"freeskew-bench/hom/{seed}")
    ops = []
    for i in range(count):
        k = i // 4
        kind = ("pair", "init_term", "counit", "colax")[i % 4]
        if kind == "pair":
            m, n, g = PAIR_SIZES[k % len(PAIR_SIZES)]
            ops.append({"kind": kind,
                        "src": random_word(rng, random_letters(rng, m, g)),
                        "dst": random_word(rng, random_letters(rng, n, g))})
        elif kind == "init_term":
            g = INIT_TERM_GRADES[k % len(INIT_TERM_GRADES)]
            ops.append({"kind": kind,
                        "src": left_comb(["I"] + ["X"] * g),
                        "dst": right_comb(["X"] * g + ["I"])})
        elif kind == "counit":
            n, g, first = COUNIT_SIZES[k % len(COUNIT_SIZES)]
            rest = random_letters(rng, n - 1, g - (first == "X"))
            ops.append({"kind": kind, "word": random_word(rng, [first] + rest)})
        else:
            x, y = COLAX_ELEMENTS[k % len(COLAX_ELEMENTS)]
            ops.append({"kind": kind, "x": x, "i": rng.randint(1, int(x[1:])), "y": y})
    return ops


def criteria_ops(seed: int, count: int = CRITERIA_OPS) -> list[dict]:
    """Point membership queries (src, dst, map) with 8-14 letters per word.

    The map is a random bottom-preserving monotone map with a random image
    size.  Most queries place the generators so that the generator
    bijection holds, leaving the verdict to the bracketings; the rest place
    them at random, which the bijection check mostly rejects.
    """
    rng = random.Random(f"freeskew-bench/criteria/{seed}")
    lo, hi = CRITERIA_LETTERS
    ops = []
    for _ in range(count):
        m = rng.randint(lo, hi)
        n = rng.randint(lo, hi)
        k = rng.randint(CRITERIA_IMAGE[0], min(CRITERIA_IMAGE[1], m, n))
        image = [0] + sorted(rng.sample(range(1, n), k - 1))
        cuts = sorted(rng.sample(range(1, m), k - 1))
        fibre_sizes = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        images = [v for v, size in zip(image, fibre_sizes) for _ in range(size)]
        if rng.random() < CRITERIA_BIJECTIVE_SHARE:
            # generators at the last point of some fibres, mapped onto their images
            lasts = [b - 1 for b in cuts + [m]]
            u = sorted(rng.sample(lasts, rng.randint(0, k)))
            v = [images[j] for j in u]
        else:
            u = sorted(rng.sample(range(m), rng.randint(1, min(m, n))))
            v = sorted(rng.sample(range(n), len(u)))
        src = ["X" if j in u else "I" for j in range(m)]
        dst = ["X" if j in v else "I" for j in range(n)]
        top = rng.random() < CRITERIA_TOP_SHARE
        ops.append({"src": random_word(rng, src),
                    "dst": right_comb(dst) if top else random_word(rng, dst),
                    "map": format_values(images)})
    return ops


def make_ops(workload: str, seed: int):
    if workload == "axioms":
        return axioms_ops()
    if workload == "hom":
        return hom_ops(seed)
    if workload == "criteria":
        return criteria_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _split_morphism(line: str):
    """'src -> dst ; images' as (src, dst, images), or None if malformed."""
    head, sep, images = line.rpartition(" ; ")
    src, arrow, dst = head.partition(" -> ")
    if not sep or not arrow:
        return None
    try:
        return src, dst, parse_values(images)
    except ValueError:
        return None


def counit_images(word: str) -> tuple[int, ...]:
    """The only map from the freely rebuilt word to word: the i-th generator
    goes to the i-th generator, and a leading unit to the bottom."""
    v = generators_of(word)
    return tuple(v) if letters_of(word)[0] == "X" else (0,) + tuple(v)


def counit_line(word: str) -> str:
    v = generators_of(word)
    kind = "t" if letters_of(word)[0] == "X" else "l"
    return f"{h_word(kind, len(v))} -> {word} ; {format_values(counit_images(word))}"


def colax_target(x: str, i: int, y: str) -> str:
    """H(x) with its i-th generator replaced by the word H(y)."""
    hx, hy = h_word(x[0], int(x[1:])), h_word(y[0], int(y[1:]))
    pos = [p for p, c in enumerate(hx) if c == "X"][i - 1]
    return hx[:pos] + hy + hx[pos + 1:]


def check_hom_pair(src: str, dst: str, output) -> bool:
    """Every listed morphism is a well-formed bottom-preserving monotone map
    between the given words respecting the generator bijection, listed in
    strictly increasing lexicographic order."""
    if not isinstance(output, list):
        return False
    m, n = len(letters_of(src)), len(letters_of(dst))
    u, v = generators_of(src), generators_of(dst)
    seen = []
    for line in output:
        parts = _split_morphism(line) if isinstance(line, str) else None
        if parts is None or parts[:2] != (src, dst):
            return False
        images = parts[2]
        if not (is_monotone_map(images, m, n) and images[0] == 0
                and generators_biject(images, n, u, v)):
            return False
        seen.append(images)
    return all(a < b for a, b in zip(seen, seen[1:]))


def check_op(workload: str, op, output) -> bool:
    """Check one op's output against its reference."""
    if workload == "axioms":
        return output is True
    if workload == "hom":
        kind = op["kind"]
        if kind == "pair":
            return check_hom_pair(op["src"], op["dst"], output)
        if kind == "init_term":
            g = len(generators_of(op["src"]))
            images = format_values((0,) + tuple(range(g)))
            return output == [f"{op['src']} -> {op['dst']} ; {images}"]
        if kind == "counit":
            return output == counit_line(op["word"])
        if kind == "colax":
            return output == counit_line(colax_target(op["x"], op["i"], op["y"]))
        return False
    return check_criteria(op, output)


def check_criteria(op, output) -> bool:
    """The three modes agree; a morphism factors as surjection, middle and
    injection whose composite is the input map, through its image."""
    if not (isinstance(output, list) and len(output) == 2):
        return False
    verdicts, factor = output
    if verdicts not in (["true"] * 3, ["false"] * 3):
        return False
    if verdicts[0] == "false":
        return factor is None
    if not (isinstance(factor, list) and len(factor) == 3):
        return False
    surj, middle, inj = (_split_morphism(factor[0]), factor[1],
                         _split_morphism(factor[2]))
    if surj is None or inj is None:
        return False
    images = parse_values(op["map"])
    k = len(set(images))
    s, d = surj[2], inj[2]
    return (surj[:2] == (op["src"], middle) and inj[:2] == (middle, op["dst"])
            and len(letters_of(middle)) == k
            and is_monotone_map(s, len(images), k) and set(s) == set(range(k))
            and len(d) == k and all(a < b for a, b in zip(d, d[1:]))
            and tuple(d[j] for j in s) == images)


def check_outputs(workload: str, ops, outputs) -> list[int]:
    """Indices of the ops whose output fails its reference check."""
    if workload == "axioms":
        return [i for i, out in enumerate(outputs) if out is not True]
    return [i for i, out in enumerate(outputs)
            if not check_op(workload, ops[i], out)]


# ---------------------------------------------------------------------------
# input properties a later claim may depend on
# ---------------------------------------------------------------------------


def _share(count: int, total: int) -> float:
    return count / total if total else 0.0


def input_properties(workload: str, ops, outputs) -> dict:
    """Sizes, verdict shares, hom-set sizes and repeats of the completed ops."""
    done = len(outputs)
    if workload == "axioms":
        calls = ops["calls"][:done]
        per_axiom = [sum(1 for k, _ in calls if k == a) for a in range(len(AXIOMS))]
        return {"max_leaves": AXIOM_MAX_LEAVES,
                "distinct_words": len(ops["words"]),
                "tuples_per_axiom": dict(zip((a for a, _ in AXIOMS), per_axiom)),
                "sweep_complete": done == len(ops["calls"]),
                "repeated_inputs": 0}
    ran = ops[:done]
    keys = [tuple(sorted(op.items())) for op in ran]
    repeated = done - len(set(keys))
    if workload == "hom":
        by_kind: dict[str, dict] = {}
        for op, out in zip(ran, outputs):
            entry = by_kind.setdefault(op["kind"], {"ops": 0, "hom_set_sizes": {}})
            entry["ops"] += 1
            size = str(len(out)) if isinstance(out, list) else "1"
            entry["hom_set_sizes"][size] = entry["hom_set_sizes"].get(size, 0) + 1
        return {"kinds": by_kind, "repeated_inputs": repeated,
                "repeated_share": _share(repeated, done),
                "pair_sizes": PAIR_SIZES, "init_term_grades": INIT_TERM_GRADES,
                "counit_sizes": COUNIT_SIZES, "colax_elements": COLAX_ELEMENTS}
    true = sum(1 for out in outputs
               if isinstance(out, list) and out and out[0] == ["true"] * 3)
    bij_rejected = 0
    letters = []
    for op in ran:
        src, dst = op["src"], op["dst"]
        images = parse_values(op["map"])
        n = len(letters_of(dst))
        letters += [len(letters_of(src)), n]
        if not generators_biject(images, n, generators_of(src), generators_of(dst)):
            bij_rejected += 1
    return {"true_share": _share(true, done),
            "bijection_rejected_share": _share(bij_rejected, done),
            "letters_min": min(letters, default=0),
            "letters_max": max(letters, default=0),
            "image_size_range": CRITERIA_IMAGE,
            "repeated_inputs": repeated,
            "repeated_share": _share(repeated, done)}
