"""Output checks.

Each check recomputes what it compares against in its own code (a recount,
an independent parser, a numpy forward algorithm) or tests a property the
method must have.  None compares with a stored copy of earlier output.
Every check returns ``(failed_operations, problems)``: a problem with one
output line fails that line's operation, a problem with a whole output
(a count that does not add up, a score that does not match) fails every
operation behind it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from casebench.inputs import RULE_WORDS

# |program NLL - (numpy log-partition - numpy gold score)|, relative to
# max(1, |log-partition|).  Both sides are float64 sums of the same terms in
# a different order, so they agree to about 1e-13; 1e-9 leaves room for
# rounding and none for a wrong term.
NLL_TOLERANCE = 1e-9
# Slack when comparing path scores: a Viterbi path may tie another path.
SCORE_SLACK = 1e-9


def parse_block(text: str) -> dict[str, str]:
    """key=value lines printed by prep-corpus, eval-truecaser and eval-ner."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def prf(tp: int, fp: int, fn: int) -> float:
    """F1 in percent."""
    return 100.0 * 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def _block_counts(block: dict[str, str]) -> tuple[int, int, int]:
    return int(block["tp"]), int(block["fp"]), int(block["fn"])


# -- corpus preparation --------------------------------------------------------

def check_prep(raw: list[str], kept: list[str], block: dict[str, str],
               threshold: float) -> tuple[int, list[str]]:
    problems = []
    n_kept, n_dropped, n_empty = (int(block[k]) for k in ("kept", "dropped", "dropped_empty"))
    if n_kept + n_dropped + n_empty != len(raw):
        problems.append(f"prep: kept {n_kept} + dropped {n_dropped} + empty {n_empty} "
                        f"!= {len(raw)} input lines")
    if n_kept != len(kept):
        problems.append(f"prep: report says {n_kept} kept, output has {len(kept)} lines")
    blanks = sum(1 for line in raw if not line.split())
    if n_empty != blanks:
        problems.append(f"prep: report says {n_empty} empty lines, input has {blanks}")
    # Preparation only changes case, and keeps order: the kept lines, folded,
    # are a subsequence of the folded input.
    folded = iter(line.lower() for line in raw)
    if not all(any(line.lower() == src for src in folded) for line in kept):
        problems.append("prep: output is not the input, in order, apart from case")
    if problems:
        return len(raw), problems
    bad = 0
    for i, line in enumerate(kept, start=1):
        tokens = line.split()
        capitalised = sum(1 for tok in tokens if tok[:1].isupper())
        survivors = [tok for tok in tokens if tok in RULE_WORDS]
        if not tokens or capitalised / len(tokens) > threshold:
            problems.append(f"prep: kept line {i} has {capitalised}/{len(tokens)} "
                            f"capitalised words, above {threshold}")
            bad += 1
        elif survivors:
            problems.append(f"prep: kept line {i} keeps rule words {survivors}")
            bad += 1
    return bad, problems


# -- truecasing ----------------------------------------------------------------

def char_counts(gold: list[str], pred: list[str]) -> tuple[int, int, int]:
    """Uppercase-positive counts over positions that agree apart from case."""
    tp = fp = fn = 0
    for g_line, p_line in zip(gold, pred):
        for g, p in zip(g_line, p_line):
            gu, pu = g.isupper(), p.isupper()
            tp += gu and pu
            fp += pu and not gu
            fn += gu and not pu
    return tp, fp, fn


def check_truecase(gold: list[str], pred: list[str],
                   block: dict[str, str]) -> tuple[int, list[str]]:
    """pred is the truecaser's output on the lowercased gold lines."""
    if len(pred) != len(gold):
        return len(gold), [f"truecase: {len(pred)} output lines for {len(gold)} inputs"]
    problems = []
    for i, (g, p) in enumerate(zip(gold, pred), start=1):
        if len(g) != len(p) or any(a.lower() != b.lower() for a, b in zip(g, p)):
            problems.append(f"truecase: line {i} differs from its input beyond case")
    if problems:
        return len(problems), problems
    ours = char_counts(gold, pred)
    if ours != _block_counts(block):
        return len(gold), [f"truecase: own count tp/fp/fn={ours} vs eval-truecaser "
                           f"{_block_counts(block)}"]
    return 0, []


# -- tagging -------------------------------------------------------------------

def read_columns(path: str) -> list[tuple[list[str], list[str]]]:
    """Token and tag columns of a CoNLL file, one pair of lists per sentence."""
    sentences, tokens, tags = [], [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            cols = raw.split()
            if not cols:
                if tokens:
                    sentences.append((tokens, tags))
                tokens, tags = [], []
                continue
            tokens.append(cols[0])
            tags.append(cols[-1] if len(cols) > 1 else "")
    if tokens:
        sentences.append((tokens, tags))
    return sentences


def spans(tags: list[str]) -> set[tuple[int, int, str]]:
    """(start, end, type) of each BIO span; an I- tag that continues nothing
    of its type opens a span, as B- would."""
    out = set()
    start, label = None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        inside = tag.startswith("I-") and start is not None and tag[2:] == label
        if inside:
            continue
        if start is not None:
            out.add((start, i, label))
            start = None
        if tag != "O":
            start, label = i, tag[2:]
    return out


def span_counts(gold: list[list[str]], pred: list[list[str]]) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for g_tags, p_tags in zip(gold, pred):
        g, p = spans(g_tags), spans(p_tags)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def check_tags(test: list[tuple[list[str], list[str]]],
               tagged: list[tuple[list[str], list[str]]],
               tagset: list[str], block: dict[str, str]) -> tuple[int, list[str]]:
    """test holds the cased gold sentences; tagged is `tag --lowercase` output."""
    if len(tagged) != len(test):
        return len(test), [f"tag: {len(tagged)} output sentences for {len(test)} inputs"]
    allowed = set(tagset)
    problems = []
    for i, ((g_tokens, _), (p_tokens, p_tags)) in enumerate(zip(test, tagged), start=1):
        if p_tokens != [tok.lower() for tok in g_tokens]:
            problems.append(f"tag: sentence {i} tokens are not the lowercased input")
        elif len(p_tags) != len(p_tokens) or not set(p_tags) <= allowed:
            problems.append(f"tag: sentence {i} tags {p_tags} do not give one tag per "
                            f"token from {sorted(allowed)}")
    if problems:
        return len(problems), problems
    ours = span_counts([tags for _, tags in test], [tags for _, tags in tagged])
    if ours != _block_counts(block):
        return len(test), [f"tag: own span count tp/fp/fn={ours} vs eval-ner "
                           f"{_block_counts(block)}"]
    return 0, []


def path_score(em: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray,
               path: list[int]) -> float:
    score = start[path[0]] + end[path[-1]]
    score += sum(em[t, y] for t, y in enumerate(path))
    score += sum(trans[a, b] for a, b in zip(path, path[1:]))
    return float(score)


def log_partition(em: np.ndarray, trans: np.ndarray, start: np.ndarray,
                  end: np.ndarray) -> float:
    alpha = start + em[0]
    for t in range(1, len(em)):
        alpha = np.logaddexp.reduce(alpha[:, None] + trans, axis=0) + em[t]
    return float(np.logaddexp.reduce(alpha + end))


def check_crf(em: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray,
              decoded: list[int], gold: list[int], program_nll: float,
              rng: np.random.Generator, n_random: int = 4) -> list[str]:
    """The decoded path must score at least as high as the gold path, every
    path one tag away from it and a few random paths; the program's NLL must
    equal the numpy log-partition minus the gold score."""
    problems = []
    best = path_score(em, trans, start, end, decoded)
    rivals = [("gold", gold)]
    for t in range(len(decoded)):
        for y in range(em.shape[1]):
            if y != decoded[t]:
                rivals.append((f"flip {t}->{y}", decoded[:t] + [y] + decoded[t + 1:]))
    for k in range(n_random):
        rivals.append((f"random {k}", [int(y) for y in rng.integers(em.shape[1], size=len(em))]))
    for what, path in rivals:
        score = path_score(em, trans, start, end, path)
        if score > best + SCORE_SLACK:
            problems.append(f"crf: {what} path scores {score:.6f} > decoded {best:.6f}")
            break
    log_z = log_partition(em, trans, start, end)
    expected = log_z - path_score(em, trans, start, end, gold)
    if abs(program_nll - expected) > NLL_TOLERANCE * max(1.0, abs(log_z)):
        problems.append(f"crf: program nll {program_nll!r} vs numpy {expected!r}")
    if best > log_z + SCORE_SLACK:
        problems.append(f"crf: decoded score {best} above log-partition {log_z}")
    return problems


# -- model files ---------------------------------------------------------------

def read_container(path: str) -> dict[str, bytes]:
    """Raw little-endian float32 bytes of each parameter, parsed from the
    documented container layout without the program's reader."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        end = data.index(b"\n", pos)
        line = data[pos:end].decode("utf-8")
        pos = end + 1
        return line

    if next_line() != "casetag-container 1":
        raise ValueError(f"{path}: bad magic line")
    shapes = []
    while (line := next_line()) != "binary":
        kind, _, rest = line.partition(" ")
        if kind == "section":
            for _ in range(int(rest.rpartition(" ")[2])):
                next_line()
        elif kind == "param":
            name, _, dims = rest.partition(" ")
            shapes.append((name, [int(d) for d in dims.split(",")] if dims else []))
    arrays = {}
    for name, shape in shapes:
        size = 4 * int(np.prod(shape))
        arrays[name] = data[pos:pos + size]
        pos += size
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} bytes left after the declared arrays")
    return arrays


def check_regime(pretrained: str, tagger: str, regime: str) -> list[str]:
    """fixed: the truecaser inside the tagger is bit-identical to the
    pretrained one; finetuned: some of its parameters changed."""
    before = {k: v for k, v in read_container(pretrained).items() if k.startswith("tc.")}
    after = {k: v for k, v in read_container(tagger).items() if k.startswith("tc.")}
    if before.keys() != after.keys() or not before:
        return [f"regime: truecaser parameters {sorted(after)} vs pretrained {sorted(before)}"]
    changed = sorted(k for k in before if before[k] != after[k])
    if regime == "fixed" and changed:
        return [f"regime: frozen truecaser changed in {changed}"]
    if regime == "finetuned" and not changed:
        return ["regime: finetuned truecaser left unchanged"]
    return []


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_container(path: str, scratch: str) -> list[str]:
    """A saved model container loads and saves again byte for byte, and its
    parameter payload parses with the benchmark's own reader."""
    from casetag.nn.serialize import Container

    try:
        read_container(path)
    except ValueError as exc:
        return [f"container: {exc}"]
    Container.load(path).save(scratch)
    if file_digest(scratch) != file_digest(path):
        return [f"container: {path} does not save back byte for byte"]
    return []
