"""CoNLL token/label source + sample-data generator (reference parity).

Reader semantics exactly mirror ``read_conll_file`` (reference
src/data.py:53-95): tab-separated ``token<TAB>label`` lines, blank line =
sentence boundary, lines with fewer than 2 fields silently skipped, a
trailing sentence without a final blank line is still emitted, a missing
file yields an empty result with a warning.

``write_sample_conll`` mirrors ``create_sample_data`` (reference
src/data.py:98-153): deterministic fixture with a sentence break every 6
tokens. Used for engine test fixtures only — the production source is the
web-pages Parquet table.
"""

from __future__ import annotations

import logging
from pathlib import Path

import pyarrow as pa

from ..config import BIO_LABELS

logger = logging.getLogger(__name__)

def read_conll_file(file_path: str | Path) -> tuple[list[list[str]], list[list[str]]]:
    """-> (sentences_tokens, sentences_labels); reference-faithful."""
    path = Path(file_path)
    if not path.exists():
        logger.warning("CoNLL file not found: %s", path)
        return [], []
    sentences: list[list[str]] = []
    labels: list[list[str]] = []
    cur_t: list[str] = []
    cur_l: list[str] = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        line = line.strip()
        if not line:
            if cur_t:
                sentences.append(cur_t)
                labels.append(cur_l)
                cur_t, cur_l = [], []
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            continue  # silently skipped (reference src/data.py:85-88)
        cur_t.append(parts[0])
        cur_l.append(parts[1])
    if cur_t:  # trailing sentence without blank line (reference src/data.py:90-93)
        sentences.append(cur_t)
        labels.append(cur_l)
    return sentences, labels


def conll_to_table(file_path: str | Path) -> pa.Table:
    """CoNLL file -> Arrow table of sentence rows (FIXTURES.md F3 view)."""
    tokens, labels = read_conll_file(file_path)
    return pa.table(
        {
            "tokens": pa.array(tokens, pa.list_(pa.string())),
            "labels": pa.array(labels, pa.list_(pa.string())),
        }
    )


def write_sample_conll(path: str | Path, n_sentences: int = 3) -> Path:
    """Deterministic fixture (break every 6 tokens, reference src/data.py:144-151)."""
    tokens = ["O", "processo", "número", "12345", "foi", "julgado",
              "João", "Silva", "reside", "em", "Lisboa", "hoje",
              "contacto", "pelo", "email", "jsilva@exemplo.pt", "ou", "telefone"]
    tags = ["O", "O", "O", "B-IDP", "O", "O",
            "B-PER", "I-PER", "O", "O", "B-LOC", "O",
            "O", "O", "O", "B-E-MAIL", "O", "O"]
    assert all(t in BIO_LABELS for t in tags)
    lines = []
    for i, (tok, tag) in enumerate(zip(tokens[: n_sentences * 6], tags)):
        lines.append(f"{tok}\t{tag}")
        if (i + 1) % 6 == 0:
            lines.append("")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path
