"""Engine configuration: ontology, tagger patterns, triple rules, linking.

Mirrors the reference's config-driven assembly (reference src/config.py:17-200,
YAML -> nested dataclasses) but as plain dataclasses; the entity ontology is
the reference's authoritative 9-type label set (reference src/data.py:27-47).
Everything here is deterministic constants — no RNG, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Reference label set: src/data.py:27-47 (9 entity types, 19 BIO tags).
ENTITY_TYPES = ["PER", "ORG", "LOC", "DAT", "IDP", "TEL", "E-MAIL", "CEP", "MAT"]
BIO_LABELS = ["O"] + [f"{p}-{t}" for t in ENTITY_TYPES for p in ("B", "I")]
LABEL_TO_ID = {l: i for i, l in enumerate(BIO_LABELS)}
ID_TO_LABEL = {i: l for l, i in LABEL_TO_ID.items()}

# Confidence threshold: entities kept when score >= threshold
# (reference src/inference.py:203, default src/config.py:63).
CONFIDENCE_THRESHOLD = 0.5

# Sequence truncation: every sequence is capped at 512 tokens
# (reference src/data.py:156-184 ``truncation=True, max_length=512``) —
# entities past the window are dropped, matching real-checkpoint behavior.
MAX_LENGTH = 512

# ---------------------------------------------------------------------------
# Gazetteers (shared by the corpus synthesizer and the surrogate tagger).
# The ORG pool deliberately contains diacritic / spelling variants of the
# same institution so entity linking has real near-duplicates to resolve.
# ---------------------------------------------------------------------------
FIRST_NAMES = [
    "João", "Maria", "António", "Ana", "Pedro", "Sofia", "Miguel", "Inês",
    "Carlos", "Beatriz", "Rui", "Catarina", "Tiago", "Marta", "Nuno", "Clara",
]
LAST_NAMES = [
    "Silva", "Santos", "Ferreira", "Pereira", "Oliveira", "Costa",
    "Rodrigues", "Martins", "Sousa", "Fernandes", "Gomes", "Lopes",
]
ORGS = [
    "Supremo Tribunal de Justiça",
    "Supremo Tribunal de Justica",       # diacritic variant: collapsed by normalize
    "Tribunal da Relação de Lisboa",
    "Tribunal Relacao de Lisboa",        # spelling variant: linked by minhash
    "Ministério Público",                # the deliberately hot (skewed) entity
    "Ministerio Publico",                # diacritic variant of the hot entity
    "Tribunal Constitucional",
    "Banco de Portugal",
    "Ordem dos Advogados",
    "Autoridade Tributária e Aduaneira",
    "Autoridade Tributaria",             # truncation variant: linked by minhash
    "Câmara Municipal do Porto",
    "Camara Municipal do Porto",         # diacritic variant: collapsed by normalize
    "Instituto dos Registos e do Notariado",
]
LOCS = [
    "Lisboa", "Porto", "Coimbra", "Braga", "Faro", "Évora", "Aveiro",
    "Setúbal", "Guimarães", "Viseu", "Leiria", "Funchal",
]
PT_MONTHS = [
    "janeiro", "fevereiro", "março", "abril", "maio", "junho", "julho",
    "agosto", "setembro", "outubro", "novembro", "dezembro",
]

# ---------------------------------------------------------------------------
# Triple extraction rules: (subject_label, object_label) -> predicate,
# applied to ordered span pairs within one paragraph (subject precedes
# object in text). Added by the target spec (BASELINE.json north_star);
# the reference has no triple stage.
# ---------------------------------------------------------------------------
TRIPLE_RULES: dict[tuple[str, str], str] = {
    ("PER", "ORG"): "afiliado_a",
    ("ORG", "LOC"): "sediada_em",
    ("PER", "LOC"): "residente_em",
    ("PER", "DAT"): "julgado_em",
    ("IDP", "PER"): "reu",
    ("ORG", "DAT"): "decidiu_em",
    ("PER", "E-MAIL"): "contactavel_por",
    ("PER", "MAT"): "titular_de",
}
# Bound on O(n^2) span pairing per paragraph (skew guard; SURVEY.md §7).
MAX_PAIRS_PER_PARAGRAPH = 64

# Labels whose mentions go through minhash blocking + connected components;
# other labels (dates, ids, ...) canonicalize by normalized surface alone.
LINK_LABELS = frozenset({"PER", "ORG", "LOC"})


@dataclass(frozen=True)
class LinkingConfig:
    """Minhash/LSH blocking + verification parameters."""

    shingle_k: int = 3          # char n-gram size over the normalized surface
    num_hashes: int = 16        # minhash signature length
    num_bands: int = 8          # LSH bands (rows per band = num_hashes // num_bands);
                                # r=2 rows/band -> high recall at J>=0.5, false
                                # positives removed by the Jaccard verify step
    jaccard_threshold: float = 0.5   # verify: char-shingle Jaccard >= this
    salt_buckets: int = 8       # pairing salt for hot blocking keys
    max_block_pairs: int = 2048  # sorted-neighborhood cap within one block
    window: int = 16            # sorted-neighborhood window width


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the end-to-end KG pipeline."""

    confidence_threshold: float = CONFIDENCE_THRESHOLD
    linking: LinkingConfig = field(default_factory=LinkingConfig)
    ner_batch_size: int = 1024
    # cap on concurrent NER tasks: an int, or the upper bound of a
    # (min, max) tuple; None -> Ray's default (as many as resources allow)
    ner_concurrency: int | tuple[int, int] | None = None
    # extra ray_remote_args for the NER tasks, e.g.
    # {"num_gpus": 0.25} to pack 4 model tasks per GPU or
    # {"num_cpus": 2} for multi-threaded tokenizers (SURVEY.md §2.3 A1
    # maps the model stage to map_batches(..., num_gpus=g); the reference
    # auto-places on CUDA, src/inference.py:75-84). Pure placement knob —
    # never affects outputs, so it is excluded from the resume fingerprint.
    ner_ray_remote_args: dict | None = None
    # "regex" -> direct gazetteer decode; "logits" -> the real-model wire
    # format (per-token logit matrix -> argmax -> BIO -> simple aggregation,
    # functions/tagger.LogitsTagger); "hf" -> a real HF checkpoint loaded
    # from ``model_dir`` (functions/tagger.HFTagger). Identical outputs by
    # construction for the first two; "hf" output depends on the checkpoint.
    tagger: str = "regex"
    # Saved model checkpoint directory (the reference's ModelFactory
    # save_pretrained layout, src/models.py:176-211 — S7). Consumed by
    # tagger="hf"; whenever set, the artifact's identity (file signature +
    # declared version from its config.json) is recorded in every extract
    # manifest row and folded into the resume fingerprint, so retraining
    # the checkpoint IN PLACE invalidates finished partitions.
    model_dir: str | None = None
