"""Seeded synthetic inputs for the lrmt benchmark, with no download.

Every draw comes from a ``random.Random`` seeded by (seed, workload, operation
index), so the same arguments always give the same bytes. The counts that the
pipeline's work depends on -- rows per file, malformed, duplicated, swapped,
shared and pre-scored rows, and the sentence-length histograms -- are fixed by
construction; the seed moves only the words and their positions. That keeps
the work per operation the same from seed to seed, so run-to-run differences
come from the code under test and the machine, not from the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from itertools import accumulate

# English function words, all on lrmt's bundled stopword list. The swap
# detector keys on them, so every English sentence carries at least one and no
# Kokborok sentence carries any.
EN_STOPWORDS = (
    "the", "of", "and", "a", "to", "in", "is", "that", "it", "for",
    "on", "with", "was", "as", "at", "by", "from", "this",
)
_EN_ONSETS = "b c d f g h l m n p r s t v w".split()
_EN_VOWELS = "a e i o u".split()
_TRP_ONSETS = "k kh ch j ng t th d n p ph b m y r l s h w".split()
_TRP_VOWELS = "a aa ai ao i u ui o".split()
_STOPWORD_SHARE = 0.35

# build: rows per source file and the English sentence lengths each uses.
# filter_length keeps 1..FILTER_MAX_WORDS source words, so SMOL rows of 21 and
# 22 words are the ones it drops.
SMOL_ROWS = 8000
GATITOS_ROWS = 6000
SYNTH_ROWS = 6000
SMOL_LENGTHS = tuple(range(5, 23))
GATITOS_LENGTHS = (1, 2, 3)
SYNTH_LENGTHS = tuple(range(3, 17))
FILTER_MAX_WORDS = 20
MALFORMED_PER_100 = 1  # per file, well under ingest's 10% limit
DUPLICATE_PER_100 = 4  # TSV files only: exact copies of another row
SWAPPED_PER_100 = 3  # TSV files only: columns reversed
SHARED_PER_100 = 10  # of all rows: GATITOS entries whose English text another entry also has

# eval workloads: reference lengths in tokens, one entry per segment.
EVAL_SHORT_LENGTHS = tuple(1 + i % 10 for i in range(1000))
EVAL_LONG_LENGTHS = (16, 23, 30)


def rng_for(seed: int, workload: str, op: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}\x00{workload}\x00{op}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _syllable_words(onsets, vowels) -> list[str]:
    return [a + b + c + d for a in onsets for b in vowels for c in onsets for d in vowels]


class Vocab:
    """Zipf-ranked English and Kokborok-like word lists; the seed shuffles ranks."""

    def __init__(self, seed: int) -> None:
        rng = rng_for(seed, "vocab", 0)
        stop = set(EN_STOPWORDS)
        english = [w for w in _syllable_words(_EN_ONSETS, _EN_VOWELS) if w not in stop]
        english_set = set(english)
        kokborok = [
            w for w in _syllable_words(_TRP_ONSETS, _TRP_VOWELS)
            if w not in english_set and w not in stop
        ]
        rng.shuffle(english)
        rng.shuffle(kokborok)
        self.english = english
        self.kokborok = kokborok[:6000]
        self._en_cum = list(accumulate(1.0 / (r + 1) for r in range(len(self.english))))
        self._trp_cum = list(accumulate(1.0 / (r + 1) for r in range(len(self.kokborok))))
        self._stop_cum = list(accumulate(1.0 / (r + 1) for r in range(len(EN_STOPWORDS))))

    def content(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.english, cum_weights=self._en_cum, k=n)

    def english_tokens(self, rng: random.Random, n: int) -> list[str]:
        """n English tokens, at least one of them a stopword."""
        toks = [
            rng.choices(EN_STOPWORDS, cum_weights=self._stop_cum)[0]
            if rng.random() < _STOPWORD_SHARE
            else rng.choices(self.english, cum_weights=self._en_cum)[0]
            for _ in range(n)
        ]
        if not any(t in EN_STOPWORDS for t in toks):
            toks[rng.randrange(n)] = "the"
        return toks

    def kokborok_tokens(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.kokborok, cum_weights=self._trp_cum, k=n)


def _quartiles(lengths) -> list[float]:
    return [float(q) for q in statistics.quantiles(lengths, n=4)]


def _fixed_lengths(rng: random.Random, lengths: tuple[int, ...], count: int) -> list[int]:
    out = [lengths[i % len(lengths)] for i in range(count)]
    rng.shuffle(out)
    return out


def _unique(rng: random.Random, seen: set, make) -> str:
    while True:
        text = make()
        if text not in seen:
            seen.add(text)
            return text


# ----------------------------------------------------------------------------
# build workload


@dataclass
class BuildInput:
    """Three raw source files plus what a correct build must find in them."""

    files: dict[str, bytes]  # file name -> bytes, in concat order
    origins: dict[str, str]  # file name -> origin label
    rows: dict[str, int]  # file name -> non-blank lines
    malformed: dict[str, int]
    duplicates: int
    swapped_ids: frozenset[str]
    prescored: dict[str, float]  # pair id -> score carried in the file
    filtered_pool: int  # pairs left after dedup and filter_length
    properties: dict = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(self.rows.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, data in self.files.items():
            h.update(name.encode() + b"\x00" + data + b"\x00")
        return h.hexdigest()


def _malformed_tsv(vocab: Vocab, rng: random.Random) -> str:
    return " ".join(vocab.english_tokens(rng, 4))  # one column: no tab


def _malformed_jsonl(vocab: Vocab, rng: random.Random, k: int) -> str:
    word = vocab.content(rng, 1)[0]
    if k % 2:
        return json.dumps({"source": word})  # no target field
    return '{"source": "%s", "target": ' % word  # truncated JSON


def _tsv_file(vocab, rng, seen, origin, rows, lengths):
    """Lines of one TSV file, with its swapped row ids, malformed and
    duplicate counts, the number of source texts longer than FILTER_MAX_WORDS
    words and the quartiles of the source lengths."""
    n_malformed = rows * MALFORMED_PER_100 // 100
    n_dup = rows * DUPLICATE_PER_100 // 100
    n_swap = rows * SWAPPED_PER_100 // 100
    n_unique = rows - n_malformed - n_dup
    unique = []
    drawn = _fixed_lengths(rng, lengths, n_unique)
    for n in drawn:
        en = _unique(rng, seen, lambda: " ".join(vocab.english_tokens(rng, n)) + ".")
        trp = _unique(rng, seen, lambda: " ".join(vocab.kokborok_tokens(rng, n)))
        unique.append([en, trp])
    order = list(range(n_unique))
    rng.shuffle(order)
    # swap only rows that filter_length keeps, so every swap reaches the detector
    swapped = set([i for i in order if drawn[i] <= FILTER_MAX_WORDS][:n_swap])
    dups = [i for i in order if i not in swapped][:n_dup]
    for i in swapped:
        unique[i].reverse()
    entries = [(i, False) for i in range(n_unique)] + [(i, True) for i in dups]
    rng.shuffle(entries)
    lines = ["\t".join(unique[i]) for i, _ in entries]
    swapped_rows = [k for k, (i, is_dup) in enumerate(entries) if i in swapped and not is_dup]
    malformed_at = sorted(rng.sample(range(rows), n_malformed))
    for pos in malformed_at:
        lines.insert(pos, _malformed_tsv(vocab, rng))
    # a row's id is "<origin>:<line index>", shifted by the malformed lines before it
    swapped_ids = set()
    for k in swapped_rows:
        index = k
        for pos in malformed_at:
            if pos <= index:
                index += 1
        swapped_ids.add(f"{origin}:{index}")
    too_long = sum(1 for n in drawn if n > FILTER_MAX_WORDS)
    return lines, swapped_ids, n_malformed, n_dup, too_long, _quartiles(drawn)


def _gatitos_file(vocab, rng, seen, rows, shared_groups):
    """GATITOS-like lexicon lines, their pre-scored ids, the malformed and
    shared-row counts and the quartiles of the source lengths."""
    n_malformed = rows * MALFORMED_PER_100 // 100
    n_valid = rows - n_malformed
    n_distinct_src = n_valid - shared_groups
    sources = []
    drawn = _fixed_lengths(rng, GATITOS_LENGTHS, n_distinct_src)
    for n in drawn:
        sources.append(_unique(rng, seen, lambda: " ".join(vocab.content(rng, n))))
    # the first `shared_groups` sources get a second entry with another translation
    entries = sources + sources[:shared_groups]
    rng.shuffle(entries)
    objs = []
    for src in entries:
        n = len(src.split())
        objs.append({"source": src, "target": _unique(rng, seen, lambda: " ".join(vocab.kokborok_tokens(rng, n)))})
    for k in rng.sample(range(n_valid), n_valid // 2):
        objs[k]["score"] = round(rng.uniform(-1.0, 1.0), 6)
    lines = [json.dumps(o, ensure_ascii=False) for o in objs]
    malformed_at = sorted(rng.sample(range(rows), n_malformed))
    for k, pos in enumerate(malformed_at):
        lines.insert(pos, _malformed_jsonl(vocab, rng, k))
    prescored = {}
    for index, line in enumerate(lines):
        if index in malformed_at:
            continue
        obj = json.loads(line)
        if "score" in obj:
            prescored[f"gatitos:{index}"] = obj["score"]
    return lines, prescored, n_malformed, 2 * shared_groups, _quartiles(drawn)


def build_input(seed: int, op: int, vocab: Vocab) -> BuildInput:
    rng = rng_for(seed, "build", op)
    seen: set[str] = set()
    total = SMOL_ROWS + GATITOS_ROWS + SYNTH_ROWS
    smol, smol_swapped, smol_bad, smol_dup, smol_long, smol_q = _tsv_file(
        vocab, rng, seen, "smolsent", SMOL_ROWS, SMOL_LENGTHS
    )
    gat, prescored, gat_bad, shared_rows, gat_q = _gatitos_file(
        vocab, rng, seen, GATITOS_ROWS, total * SHARED_PER_100 // 200
    )
    syn, syn_swapped, syn_bad, syn_dup, syn_long, syn_q = _tsv_file(
        vocab, rng, seen, "synthetic", SYNTH_ROWS, SYNTH_LENGTHS
    )
    texts = {"smol.tsv": smol, "gatitos.jsonl": gat, "synthetic.tsv": syn}
    files = {name: ("\n".join(lines) + "\n").encode("utf-8") for name, lines in texts.items()}
    malformed = {"smol.tsv": smol_bad, "gatitos.jsonl": gat_bad, "synthetic.tsv": syn_bad}
    rows = {name: len(lines) for name, lines in texts.items()}
    duplicates = smol_dup + syn_dup
    valid = total - sum(malformed.values())
    inp = BuildInput(
        files=files,
        origins={"smol.tsv": "smolsent", "gatitos.jsonl": "gatitos", "synthetic.tsv": "synthetic"},
        rows=rows,
        malformed=malformed,
        duplicates=duplicates,
        swapped_ids=frozenset(smol_swapped | syn_swapped),
        prescored=prescored,
        filtered_pool=valid - duplicates - smol_long - syn_long,
    )
    inp.properties = {
        "rows": total,
        "duplicate_share": duplicates / total,
        "swap_share": len(inp.swapped_ids) / total,
        "shared_text_share": shared_rows / total,
        "malformed_share": sum(malformed.values()) / total,
        "prescored_share": len(prescored) / total,
        "source_token_quartiles": {"smol.tsv": smol_q, "gatitos.jsonl": gat_q, "synthetic.tsv": syn_q},
    }
    return inp


# ----------------------------------------------------------------------------
# eval workloads


@dataclass
class EvalInput:
    hyps: list[str]
    refs: list[str]
    properties: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for hyp, ref in zip(self.hyps, self.refs):
            h.update(hyp.encode() + b"\t" + ref.encode() + b"\n")
        return h.hexdigest()


def _reference(vocab: Vocab, rng: random.Random, n: int) -> list[str]:
    if n >= 3 and rng.random() < 0.5:
        return vocab.english_tokens(rng, n - 1) + ["."]
    return vocab.english_tokens(rng, n)


def _block_move(rng: random.Random, toks: list[str]) -> None:
    size = rng.randint(2, min(4, len(toks) - 1))
    start = rng.randrange(len(toks) - size + 1)
    block = toks[start : start + size]
    del toks[start : start + size]
    dest = rng.choice([k for k in range(len(toks) + 1) if k != start])
    toks[dest:dest] = block


def _noisy(vocab: Vocab, rng: random.Random, ref: list[str], ops: list[str]) -> list[str]:
    """A hypothesis: the reference after drops, substitutions, insertions and
    block moves, applied in the given order."""
    toks = list(ref)
    for op in ops:
        if op == "drop" and len(toks) > 1:
            del toks[rng.randrange(len(toks))]
        elif op == "sub":
            toks[rng.randrange(len(toks))] = vocab.content(rng, 1)[0]
        elif op == "ins":
            toks.insert(rng.randrange(len(toks) + 1), vocab.content(rng, 1)[0])
        elif op == "move" and len(toks) >= 3:
            _block_move(rng, toks)
    return toks


# eval-short draws each edit independently, like a phrase-level system's
# scattered errors; eval-long applies one of each, so every long segment
# needs about the same shift search.
_SHORT_EDIT_P = {"drop": 0.25, "sub": 0.35, "ins": 0.25, "move": 0.3}
_LONG_EDITS = ["move", "sub", "drop", "ins"]


def eval_input(seed: int, workload: str, op: int, vocab: Vocab) -> EvalInput:
    rng = rng_for(seed, workload, op)
    if workload == "eval-short":
        lengths = list(EVAL_SHORT_LENGTHS)
        rng.shuffle(lengths)
    else:
        lengths = list(EVAL_LONG_LENGTHS)
    hyps, refs = [], []
    hyp_lengths = []
    for n in lengths:
        ref = _reference(vocab, rng, n)
        if workload == "eval-short":
            ops = [edit for edit, p in _SHORT_EDIT_P.items() if rng.random() < p]
        else:
            ops = _LONG_EDITS
        hyp = _noisy(vocab, rng, ref, ops)
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
        hyp_lengths.append(len(hyp))
    inp = EvalInput(hyps=hyps, refs=refs)
    inp.properties = {
        "segments": len(refs),
        "ref_token_quartiles": _quartiles(lengths),
        "hyp_token_quartiles": _quartiles(hyp_lengths),
        "exact_match_share": sum(h == r for h, r in zip(hyps, refs)) / len(refs),
    }
    return inp
